/**
 * @file
 * The timestamped event model shared by the execution simulator (which
 * produces events) and the SKIP profiler (which consumes them). It
 * mirrors the information PyTorch Profiler / Kineto exposes via CUPTI:
 * CPU-side operator intervals, CUDA runtime (launch) call intervals,
 * and GPU kernel execution intervals, linked by correlation IDs.
 */

#ifndef SKIPSIM_TRACE_EVENT_HH
#define SKIPSIM_TRACE_EVENT_HH

#include <cstdint>
#include <string>

namespace skipsim::trace
{

/** Kinds of trace events, matching PyTorch profiler categories. */
enum class EventKind
{
    /** CPU-side framework operator (e.g. aten::linear). */
    Operator,
    /** CPU-side CUDA runtime call (e.g. cudaLaunchKernel). */
    Runtime,
    /** GPU kernel execution on a stream. */
    Kernel,
    /** GPU-side memory copy (treated like a kernel for queuing). */
    Memcpy,
};

/** @return the Kineto-style category string for a kind. */
const char *kindName(EventKind kind);

/** Parse a category string. @throws skipsim::FatalError when unknown. */
EventKind kindFromName(const std::string &name);

/**
 * One timestamped interval in a trace. Times are nanoseconds from the
 * trace origin. CPU events carry a thread id; GPU events carry a stream
 * id. Runtime launch calls and the kernels they trigger share a nonzero
 * correlation id, exactly as CUPTI reports.
 */
struct TraceEvent
{
    /**
     * Dense id: assigned by the owning Trace in insertion order
     * (Trace::add), or carried in (Trace::adopt).
     */
    std::uint64_t id = 0;

    EventKind kind = EventKind::Operator;

    /** Operator / runtime-call / kernel name. */
    std::string name;

    /** Interval begin, ns from trace origin. */
    std::int64_t tsBeginNs = 0;

    /** Interval duration in ns (>= 0). */
    std::int64_t durNs = 0;

    /** CPU thread id (Operator/Runtime events; kernels keep issuing tid). */
    int tid = 0;

    /** GPU stream id for Kernel/Memcpy events; -1 for CPU events. */
    int streamId = -1;

    /** CUPTI correlation id linking a Runtime launch to its kernel. */
    std::uint64_t correlationId = 0;

    /** Kernel floating-point work (model metadata; 0 when unknown). */
    double flops = 0.0;

    /** Kernel bytes moved to/from device memory (model metadata). */
    double bytes = 0.0;

    /** Interval end, ns from trace origin. */
    std::int64_t tsEndNs() const { return tsBeginNs + durNs; }

    /** True for CPU-side events (Operator/Runtime). */
    bool onCpu() const
    {
        return kind == EventKind::Operator || kind == EventKind::Runtime;
    }

    /** True for GPU-side events (Kernel/Memcpy). */
    bool onGpu() const { return !onCpu(); }
};

/**
 * One sampled counter value (Chrome-trace "ph":"C"). Counter tracks
 * are keyed by name; per-entity series fold their labels into the
 * name (e.g. cluster.queue_depth{replica="0"}) so every series gets
 * its own Perfetto counter track.
 */
struct CounterEvent
{
    std::string name;

    /** Sample instant, ns from trace origin. */
    std::int64_t tsNs = 0;

    double value = 0.0;

    /** Track hint (thread/replica id); counters render per name. */
    int tid = 0;
};

/** A zero-duration marker (Chrome-trace "ph":"i"), e.g. a fault. */
struct InstantEvent
{
    std::string name;

    /** Marker instant, ns from trace origin. */
    std::int64_t tsNs = 0;

    int tid = 0;
};

} // namespace skipsim::trace

#endif // SKIPSIM_TRACE_EVENT_HH
