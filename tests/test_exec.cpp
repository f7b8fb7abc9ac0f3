/**
 * @file
 * Tests for the parallel experiment engine: pool work-stealing and
 * exception plumbing, RunSpec/SweepSpec construction and JSON round
 * trips, registry lookup, and the engine's central guarantee — a
 * parallel grid run is byte-identical to a serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "analysis/generation.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "exec/grid.hh"
#include "exec/pool.hh"
#include "exec/registry.hh"
#include "exec/runner.hh"
#include "exec/run_spec.hh"
#include "exec/sweep_spec.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "workload/model_config.hh"

#include "start_line.hh"

namespace skipsim::exec
{
namespace
{

TEST(MixSeed, DistinctPerIndexAndBase)
{
    EXPECT_NE(mixSeed(42, 0), mixSeed(42, 1));
    EXPECT_NE(mixSeed(42, 0), mixSeed(43, 0));
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
}

TEST(Pool, RunsEveryIndexExactlyOnce)
{
    Pool pool(4);
    std::vector<std::atomic<int>> hits(100);
    testutil::StartLine line(pool, hits.size());
    pool.run(100, [&](std::size_t i) {
        line.arrive();
        hits[i].fetch_add(1);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(Pool, ZeroAndSingleIndexRuns)
{
    Pool pool(4);
    pool.run(0, [](std::size_t) { FAIL() << "no indices to run"; });

    int runs = 0;
    pool.run(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(Pool, StealsUnderSkewedPointCosts)
{
    // Indices 0, 4, 8 and 12 carry all the cost; whichever workers
    // draw them, the others claim the cheap rest, and every index
    // still runs exactly once.
    Pool pool(4);
    std::vector<std::atomic<int>> hits(16);
    testutil::StartLine line(pool, hits.size());
    pool.run(16, [&](std::size_t i) {
        line.arrive();
        if (i % 4 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hits[i].fetch_add(1);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(Pool, PropagatesFirstException)
{
    Pool pool(4);
    std::atomic<int> completed{0};
    testutil::StartLine line(pool, 32);
    EXPECT_THROW(pool.run(32,
                          [&](std::size_t i) {
                              line.arrive();
                              if (i == 5)
                                  fatal("exec test: point 5 exploded");
                              completed.fetch_add(1);
                          }),
                 FatalError);
    // The failure did not take down unrelated points wholesale.
    EXPECT_GT(completed.load(), 0);
}

TEST(Pool, RejectsNegativeWorkers)
{
    EXPECT_THROW(Pool(-1), FatalError);
    EXPECT_GE(Pool(0).workers(), 1);
}

TEST(RunSpec, FluentBuilderSetsEveryField)
{
    const RunSpec spec = RunSpec::of("GPT2")
                             .on("GH200")
                             .batch(8)
                             .seqLen(256)
                             .mode(workload::ExecMode::FlashAttention2)
                             .seed(7)
                             .jitter(true, 0.01)
                             .opt("rate", 80.0);
    EXPECT_EQ(spec.model().name, "GPT2");
    EXPECT_EQ(spec.platform().name, "GH200");
    EXPECT_EQ(spec.batch(), 8);
    EXPECT_EQ(spec.seqLen(), 256);
    EXPECT_EQ(spec.mode(), workload::ExecMode::FlashAttention2);
    EXPECT_EQ(spec.seed(), 7u);
    EXPECT_TRUE(spec.simOptions().jitter);
    EXPECT_DOUBLE_EQ(spec.opt("rate", 0.0), 80.0);
}

TEST(RunSpec, NonFiniteJitterFractionFailsTheRun)
{
    // RunSpec::jitter() stores any fraction; the simulator an analysis
    // runs rejects a non-finite one with its FatalError.
    for (double frac : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
        const RunSpec spec =
            RunSpec::of("GPT2").on("GH200").batch(1).seqLen(8).jitter(
                true, frac);
        try {
            analysisByName("profile")(spec);
            ADD_FAILURE() << "accepted jitterFrac " << frac;
        } catch (const FatalError &err) {
            EXPECT_STREQ(err.what(),
                         "Simulator: jitterFrac must be within [0, 0.25]");
        }
    }
}

TEST(RunSpec, ConvertsToLegacyConfigs)
{
    RunSpec spec = RunSpec::of("GPT2").on("GH200").batch(4).seed(99)
                       .opt("rate", 75.0)
                       .opt("max-batch", 16.0);

    const sim::SimOptions &sim = spec.simOptions();
    EXPECT_EQ(sim.seed, 99u);
    EXPECT_FALSE(sim.jitter);

    const workload::BuildOptions &build = spec.buildOptions();
    EXPECT_EQ(build.batch, 4);
    EXPECT_EQ(build.seqLen, 512);
    EXPECT_EQ(build.mode, workload::ExecMode::Eager);

    serving::ServingConfig serving = spec.servingConfig();
    EXPECT_DOUBLE_EQ(serving.arrivalRatePerSec, 75.0);
    EXPECT_EQ(serving.maxBatch, 16);
    EXPECT_EQ(serving.seed, 99u);
}

TEST(RunSpec, JsonRoundTrip)
{
    RunSpec spec = RunSpec::of("Bert-Base-Uncased")
                       .on("Intel+H100")
                       .batch(16)
                       .seqLen(1024)
                       .mode("flash-attention-2")
                       .seed(123)
                       .opt("gen-tokens", 4.0);
    RunSpec back = RunSpec::fromJson(spec.toJson());
    EXPECT_EQ(json::write(back.toJson()), json::write(spec.toJson()));
    EXPECT_EQ(back.model().name, "Bert-Base-Uncased");
    EXPECT_EQ(back.batch(), 16);
    EXPECT_EQ(back.seed(), 123u);
}

TEST(RunSpec, RejectsBadValues)
{
    EXPECT_THROW(RunSpec::of("NoSuchModel"), FatalError);
    EXPECT_THROW(RunSpec::of("GPT2").on("NoSuchPlatform"), FatalError);
    EXPECT_THROW(RunSpec::of("GPT2").batch(0), FatalError);
    EXPECT_THROW(RunSpec::of("GPT2").seqLen(-1), FatalError);
    EXPECT_THROW(RunSpec::of("GPT2").mode("warp-speed"), FatalError);
}

TEST(RunSpec, IntOptionsRejectValuesNoIntHolds)
{
    RunSpec spec = RunSpec::of("GPT2");
    for (double bad : {1e30, 2.5, -1e30}) {
        spec.opt("max-batch", bad);
        try {
            spec.servingConfig();
            ADD_FAILURE() << "accepted max-batch " << bad;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("'max-batch'"),
                      std::string::npos)
                << err.what();
        }
    }
    RunSpec cluster = RunSpec::of("GPT2").on("GH200").opt("replicas", 2.5);
    try {
        analysisByName("cluster")(cluster.opt("horizon-sec", 0.1));
        ADD_FAILURE() << "accepted replicas 2.5";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("'replicas'"),
                  std::string::npos)
            << err.what();
    }
}

SweepSpec
smallGrid(bool jitter = true)
{
    SweepSpec grid;
    grid.models = {workload::gpt2()};
    grid.platforms = {hw::platforms::gh200(),
                      hw::platforms::intelH100()};
    grid.batches = {1, 2};
    grid.seqLens = {128};
    grid.baseSeed = 42;
    // Jitter on: byte-identity then genuinely depends on per-point
    // seed derivation, not just on the simulator being deterministic.
    grid.jitter = jitter;
    return grid;
}

TEST(SweepSpec, SizeAndIndexDecode)
{
    SweepSpec grid = smallGrid();
    EXPECT_EQ(grid.size(), 4u);

    // Mode fastest ... model slowest; here platform outranks batch.
    RunSpec p0 = grid.at(0);
    RunSpec p3 = grid.at(3);
    EXPECT_EQ(p0.platform().name, "GH200");
    EXPECT_EQ(p0.batch(), 1);
    EXPECT_EQ(p3.platform().name, "Intel+H100");
    EXPECT_EQ(p3.batch(), 2);
    EXPECT_THROW(grid.at(4), FatalError);
}

TEST(SweepSpec, PerPointSeedsFollowMixSeedConvention)
{
    SweepSpec grid = smallGrid();
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid.at(i).seed(), mixSeed(grid.baseSeed, i));
}

TEST(SweepSpec, ValidatesEmptyAxes)
{
    SweepSpec grid = smallGrid();
    grid.batches.clear();
    EXPECT_THROW(grid.validate(), FatalError);
    EXPECT_THROW(grid.expand(), FatalError);
}

TEST(SweepSpec, JsonRoundTrip)
{
    SweepSpec grid = smallGrid();
    grid.options["rate"] = 60.0;
    SweepSpec back = SweepSpec::fromJson(grid.toJson());
    EXPECT_EQ(json::write(back.toJson()), json::write(grid.toJson()));
    EXPECT_EQ(back.size(), grid.size());
    EXPECT_EQ(back.at(2).seed(), grid.at(2).seed());
}

TEST(RunSpec, RejectsSeedsNoUint64Holds)
{
    for (double bad : {-1.0, 0.5, 1e20}) {
        json::Object obj =
            RunSpec::of("GPT2").on("GH200").toJson().asObject();
        obj.set("seed", bad);
        EXPECT_THROW(RunSpec::fromJson(json::Value(std::move(obj))),
                     FatalError)
            << bad;
        json::Object grid = smallGrid().toJson().asObject();
        grid.set("seed", bad);
        EXPECT_THROW(SweepSpec::fromJson(json::Value(std::move(grid))),
                     FatalError)
            << bad;
    }
    // 2^32 + 1 would wrap to batch 1 through an unchecked int cast.
    json::Object obj = RunSpec::of("GPT2").on("GH200").toJson().asObject();
    obj.set("batch", 4294967297.0);
    try {
        RunSpec::fromJson(json::Value(std::move(obj)));
        ADD_FAILURE() << "accepted batch 2^32 + 1";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("'batch'"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepSpec, FromJsonRejectsMissingAxes)
{
    EXPECT_THROW(SweepSpec::fromJson(json::parse("{}")), FatalError);
    EXPECT_THROW(
        SweepSpec::fromJson(json::parse("{\"models\": [\"GPT2\"]}")),
        FatalError);
}

TEST(Grid, ResultsInSubmissionOrderAtAnyJobCount)
{
    SweepSpec grid = smallGrid();
    auto label = [](const RunSpec &spec, std::size_t i) {
        return std::to_string(i) + ":" + spec.label();
    };
    auto serial = runGrid(grid, label, 1);
    auto parallel = runGrid(grid, label, 4);
    ASSERT_EQ(serial.size(), 4u);
    EXPECT_EQ(serial, parallel);
}

TEST(Registry, BuiltinsPresent)
{
    EXPECT_TRUE(hasAnalysis("profile"));
    EXPECT_TRUE(hasAnalysis("serving"));
    EXPECT_TRUE(hasAnalysis("fusion"));
    EXPECT_TRUE(hasAnalysis("generation"));
}

TEST(Registry, GenerationAndServingRunOnASmallSpec)
{
    // The decode-side analyses hand the spec's own BuildOptions and
    // SimOptions to the engines, jitter included.
    const RunSpec spec = RunSpec::of("GPT2")
                             .on("GH200")
                             .batch(2)
                             .seqLen(128)
                             .seed(7)
                             .jitter(true, 0.01)
                             .opt("gen-tokens", 3.0)
                             .opt("rate", 20.0)
                             .opt("horizon-sec", 2.0);

    json::Value gen = analysisByName("generation")(spec);
    const json::Object &doc = gen.asObject();
    analysis::GenerationResult expect = analysis::simulateGeneration(
        spec.model(), spec.platform(), spec.buildOptions(), 3,
        spec.simOptions());
    EXPECT_EQ(doc.at("batch").asInt(), 2);
    EXPECT_EQ(doc.at("seq").asInt(), 128);
    EXPECT_EQ(doc.at("gen_tokens").asInt(), 3);
    EXPECT_EQ(doc.at("ttft_ms").asDouble(), expect.ttftNs / 1e6);
    EXPECT_EQ(doc.at("tpot_ms").asDouble(), expect.tpotNs() / 1e6);
    EXPECT_EQ(doc.at("total_ms").asDouble(), expect.totalNs / 1e6);
    EXPECT_EQ(doc.at("tokens_per_sec").asDouble(),
              expect.tokensPerSecond(2));

    json::Value serve = analysisByName("serving")(spec);
    const json::Object &served = serve.asObject();
    EXPECT_EQ(served.at("seq").asInt(), 128);
    EXPECT_GT(served.at("completed").asInt(), 0);
    EXPECT_GT(served.at("throughput_rps").asDouble(), 0.0);
    EXPECT_LE(served.at("p50_ms").asDouble(),
              served.at("p99_ms").asDouble());
    // Same spec, same bytes.
    EXPECT_EQ(json::write(serve),
              json::write(analysisByName("serving")(spec)));
}

TEST(Registry, UnknownAnalysisReportedNotAborted)
{
    EXPECT_FALSE(hasAnalysis("does-not-exist"));
    try {
        analysisByName("does-not-exist");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        // The error lists the registered analyses so a CLI can print
        // an actionable message instead of dying silently.
        EXPECT_NE(std::string(err.what()).find("unknown analysis"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("profile"),
                  std::string::npos);
    }
}

TEST(Registry, RejectsBadRegistrations)
{
    EXPECT_THROW(registerAnalysis("", [](const RunSpec &) {
        return json::Value();
    }),
                 FatalError);
    EXPECT_THROW(registerAnalysis("null-fn", AnalysisFn()), FatalError);
}

TEST(Registry, CustomAnalysisRoundTrip)
{
    registerAnalysis("test-batch-echo", [](const RunSpec &spec) {
        return json::Value(spec.batch());
    });
    RunSpec spec = RunSpec::of("GPT2").on("GH200").batch(3);
    EXPECT_EQ(analysisByName("test-batch-echo")(spec).asInt(), 3);
}

TEST(Runner, ParallelGridByteIdenticalToSerial)
{
    SweepSpec grid = smallGrid();
    GridReport serial = Runner(1).runGrid(grid, "profile");
    GridReport parallel = Runner(4).runGrid(grid, "profile");
    ASSERT_EQ(serial.points.size(), 4u);
    EXPECT_EQ(serial.failed(), 0u);
    EXPECT_EQ(json::write(serial.resultsJson()),
              json::write(parallel.resultsJson()));
}

TEST(Runner, DeterminismRegressionSameBaseSeed)
{
    // Two independent engine invocations with the same base seed must
    // reproduce the report byte-for-byte (jitter is on, so this
    // exercises the per-point seed derivation, not just determinism
    // of the no-noise path).
    SweepSpec grid = smallGrid();
    GridReport first = Runner(2).runGrid(grid, "profile");
    GridReport second = Runner(2).runGrid(grid, "profile");
    EXPECT_EQ(json::write(first.resultsJson()),
              json::write(second.resultsJson()));

    SweepSpec reseeded = grid;
    reseeded.baseSeed = 43;
    GridReport other = Runner(2).runGrid(reseeded, "profile");
    EXPECT_NE(json::write(first.resultsJson()),
              json::write(other.resultsJson()));
}

TEST(Runner, UnknownAnalysisThrowsUpFront)
{
    EXPECT_THROW(Runner(2).runGrid(smallGrid(), "does-not-exist"),
                 FatalError);
}

TEST(Runner, PointFailuresRecordedNotAborted)
{
    registerAnalysis("test-fail-batch-2", [](const RunSpec &spec) {
        if (spec.batch() == 2)
            fatal("batch 2 is cursed");
        return json::Value(spec.batch());
    });
    GridReport report =
        Runner(4).runGrid(smallGrid(), "test-fail-batch-2");
    ASSERT_EQ(report.points.size(), 4u);
    EXPECT_EQ(report.failed(), 2u); // batch 2 on both platforms
    for (const auto &point : report.points) {
        if (point.spec.batch() == 2) {
            EXPECT_FALSE(point.ok());
            EXPECT_NE(point.error.find("cursed"), std::string::npos);
        } else {
            EXPECT_TRUE(point.ok());
        }
    }
}

TEST(Runner, ReportJsonCarriesTimingAndIdentity)
{
    GridReport report = Runner(2).runGrid(smallGrid(), "profile");
    json::Value doc = report.toJson();
    const json::Object &obj = doc.asObject();
    EXPECT_EQ(obj.at("analysis").asString(), "profile");
    EXPECT_EQ(obj.at("jobs").asInt(), 2);
    EXPECT_GT(obj.at("wall_ms").asDouble(), 0.0);
    EXPECT_EQ(obj.at("points").asInt(), 4);
    EXPECT_EQ(obj.at("results").asArray().size(), 4u);
}

} // namespace
} // namespace skipsim::exec
