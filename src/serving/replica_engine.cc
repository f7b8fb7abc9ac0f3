#include "serving/replica_engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace skipsim::serving
{

ReplicaEngine::ReplicaEngine(core::Engine &engine, const Config &config,
                             Callbacks callbacks)
    : core::Process(engine), _cfg(config), _cb(std::move(callbacks))
{
    if (_cfg.cost == nullptr)
        fatal("ReplicaEngine: cost model is required");
    if (_cfg.maxActive <= 0)
        fatal("ReplicaEngine: maxActive must be positive");
    if (_cfg.genTokens <= 0)
        fatal("ReplicaEngine: genTokens must be positive");
    if (_cfg.chunkTokens > 0 && _cfg.promptLen <= 0)
        fatal("ReplicaEngine: chunked prefill needs a prompt length");
    if (static_cast<bool>(_cfg.kvAdmit) !=
        static_cast<bool>(_cfg.kvRelease))
        fatal("ReplicaEngine: kvAdmit and kvRelease must be set "
              "together");
    if (_cfg.chunkTokens > 0 && (_cfg.kvAdmit || _cfg.prefillOnly))
        fatal("ReplicaEngine: chunked prefill does not compose with an "
              "external KV store or prefill-only mode");
}

void
ReplicaEngine::enqueue(std::size_t id, double arrivalNs)
{
    _pending.emplace_back(id, arrivalNs);
}

void
ReplicaEngine::enqueueDecode(std::size_t id, double arrivalNs)
{
    _pendingDecode.emplace_back(id, arrivalNs);
}

void
ReplicaEngine::maybeStart(double nowNs)
{
    if (_halted || _busy || nowNs >= _cfg.horizonNs)
        return;

    if (_cfg.chunkTokens > 0) {
        // Sarathi-style: co-schedule one prompt chunk of the
        // head-of-line request with the running decode batch.
        if (_headChunksLeft == 0 && !_pending.empty() &&
            _active.size() <
                static_cast<std::size_t>(_cfg.maxActive) &&
            _kvBytes + _cfg.kvPerSeqBytes <= _cfg.kvCapacityBytes) {
            _headId = _pending.front().first;
            _headArrivalNs = _pending.front().second;
            _pending.pop_front();
            int prompt_tokens = _cfg.promptLen;
            if (_cfg.prefillFrac)
                prompt_tokens = std::max(
                    1, static_cast<int>(std::lround(
                           _cfg.promptLen *
                           std::clamp(_cfg.prefillFrac(_headId), 0.05,
                                      1.0))));
            _headChunksLeft =
                (prompt_tokens + _cfg.chunkTokens - 1) /
                _cfg.chunkTokens;
            _kvBytes += _cfg.kvPerSeqBytes;
            _peakKvBytes = std::max(_peakKvBytes, _kvBytes);
            if (_cb.onAdmit)
                _cb.onAdmit(1, nowNs);
            if (_cb.onAdmitRequest)
                _cb.onAdmitRequest(_headId, nowNs, 0.0, false);
        }
        if (_headChunksLeft == 0 && _active.empty())
            return;

        double base = 0.0;
        if (!_active.empty()) {
            base += _cfg.cost->decodeNs(
                static_cast<int>(_active.size()));
            _activeSizes.add(static_cast<double>(_active.size()));
        }
        _iterChunkSched = _headChunksLeft > 0;
        if (_headChunksLeft > 0) {
            base += _cfg.cost->chunkNs(_cfg.chunkTokens);
            --_headChunksLeft;
        }
        // Chunked mode: every iteration latency counts towards TPOT
        // (a co-scheduled chunk delays every decoding sequence).
        _iterLatency.add(startIteration(nowNs, base));
        return;
    }

    // Decode-pool entrants (disaggregated serving) join the decode
    // batch directly: their prefill happened in another pool.
    while (!_pendingDecode.empty() &&
           _active.size() + _prefilling.size() <
               static_cast<std::size_t>(_cfg.maxActive)) {
        std::size_t id = _pendingDecode.front().first;
        double stall_ns = 0.0;
        if (_cfg.kvAdmit) {
            Config::KvAdmission kv = _cfg.kvAdmit(id, nowNs, true);
            if (!kv.admitted)
                break;
            _pendingStallNs += kv.stallNs;
            stall_ns = kv.stallNs;
        } else if (_kvBytes + _cfg.kvPerSeqBytes <=
                   _cfg.kvCapacityBytes) {
            _kvBytes += _cfg.kvPerSeqBytes;
        } else {
            break;
        }
        _pendingDecode.pop_front();
        _active.emplace_back(id, _cfg.genTokens - 1);
        if (_cb.onAdmitRequest)
            _cb.onAdmitRequest(id, nowNs, stall_ns, true);
    }

    // Admit pending prefills while batch slots and KV budget allow;
    // what does not fit stays queued until completions release KV.
    while (!_pending.empty() &&
           _active.size() + _prefilling.size() <
               static_cast<std::size_t>(_cfg.maxActive)) {
        double stall_ns = 0.0;
        if (_cfg.kvAdmit) {
            Config::KvAdmission kv =
                _cfg.kvAdmit(_pending.front().first, nowNs, false);
            if (!kv.admitted)
                break;
            _pendingStallNs += kv.stallNs;
            stall_ns = kv.stallNs;
            _prefillShares.push_back(kv.prefillShare);
        } else if (_kvBytes + _cfg.kvPerSeqBytes <=
                   _cfg.kvCapacityBytes) {
            _kvBytes += _cfg.kvPerSeqBytes;
        } else {
            break;
        }
        if (_cb.onAdmitRequest)
            _cb.onAdmitRequest(_pending.front().first, nowNs, stall_ns,
                               false);
        _prefilling.push_back(_pending.front());
        _pending.pop_front();
    }
    _peakKvBytes = std::max(_peakKvBytes, _kvBytes);

    if (!_prefilling.empty()) {
        if (_cb.onAdmit)
            _cb.onAdmit(_prefilling.size(), nowNs);
        double base =
            _cfg.cost->prefillNs(static_cast<int>(_prefilling.size()));
        if (_cfg.kvAdmit) {
            // Residency-gated prefix hits: the admission hook already
            // decided each request's uncached share.
            double share = 0.0;
            for (double s : _prefillShares)
                share += std::clamp(s, 0.05, 1.0);
            base *= share / static_cast<double>(_prefilling.size());
        } else if (_cfg.prefillFrac) {
            // Prefix-cache hits skip the cached share of the prompt;
            // prefill time is near-linear in tokens, so the batch cost
            // scales by the mean uncached share.
            double share = 0.0;
            for (const auto &[id, arrival] : _prefilling)
                share += std::clamp(_cfg.prefillFrac(id), 0.05, 1.0);
            base *= share / static_cast<double>(_prefilling.size());
        }
        startIteration(nowNs, base);
    } else if (!_active.empty()) {
        _activeSizes.add(static_cast<double>(_active.size()));
        _iterLatency.add(startIteration(
            nowNs,
            _cfg.cost->decodeNs(static_cast<int>(_active.size()))));
    }
}

double
ReplicaEngine::startIteration(double nowNs, double baseNs)
{
    // Synchronous KV paging (external store) stalls the iteration it
    // admitted into: the GPU waits on the interconnect.
    baseNs += _pendingStallNs;
    _pendingStallNs = 0.0;
    double dur = _cb.scaleDuration ? _cb.scaleDuration(baseNs) : baseNs;
    _busy = true;
    ++_serial;
    _iterBeginNs = nowNs;
    _busyNs += dur;
    at(nowNs + dur, _cfg.iterPriority,
       [this, serial = _serial](double tNs) { onIterEnd(tNs, serial); });
    return dur;
}

void
ReplicaEngine::completeSeq(std::size_t id, double nowNs)
{
    if (_cfg.kvRelease)
        _cfg.kvRelease(id, nowNs);
    else
        _kvBytes -= _cfg.kvPerSeqBytes;
    if (_cb.onComplete)
        _cb.onComplete(id, nowNs);
}

void
ReplicaEngine::onIterEnd(double tNs, std::uint64_t serial)
{
    if (_halted || !_busy || serial != _serial)
        return; // cancelled by a crash
    _busy = false;

    IterationInfo info;
    info.beginNs = _iterBeginNs;
    info.endNs = tNs;
    if (_cfg.chunkTokens > 0) {
        info.decodeBatch = static_cast<int>(_active.size());
        info.chunk = _iterChunkSched;
        info.chunkFinished = _iterChunkSched && _headChunksLeft == 0 &&
            _headArrivalNs >= 0.0;
        info.tokens =
            info.decodeBatch + (info.chunkFinished ? 1 : 0);
    } else if (!_prefilling.empty()) {
        info.prefill = true;
        info.prefillBatch = static_cast<int>(_prefilling.size());
        info.tokens = info.prefillBatch;
    } else {
        info.decodeBatch = static_cast<int>(_active.size());
        info.tokens = info.decodeBatch;
    }
    _tokensEmitted += static_cast<std::size_t>(info.tokens);
    info.activeIds = &_active; // unmutated until after the callback
    if (_cb.onIteration)
        _cb.onIteration(info);

    if (info.prefill) {
        for (const auto &[id, arrival] : _prefilling) {
            if (_cb.onFirstToken)
                _cb.onFirstToken(id, tNs - arrival, tNs);
            if (_cfg.genTokens == 1 || _cfg.prefillOnly)
                completeSeq(id, tNs);
            else
                _active.emplace_back(id, _cfg.genTokens - 1);
        }
        _prefilling.clear();
        _prefillShares.clear();
    } else {
        // Decode first: a head finishing its last chunk this
        // iteration joins the batch afterwards, so it does not decode
        // in the very iteration that prefilled it.
        if (info.decodeBatch > 0) {
            std::vector<std::pair<std::size_t, int>> still;
            still.reserve(_active.size());
            for (auto &[id, left] : _active) {
                if (--left <= 0)
                    completeSeq(id, tNs);
                else
                    still.emplace_back(id, left);
            }
            _active.swap(still);
        }
        if (info.chunkFinished) {
            if (_cb.onFirstToken)
                _cb.onFirstToken(_headId, tNs - _headArrivalNs, tNs);
            if (_cfg.genTokens == 1)
                completeSeq(_headId, tNs);
            else
                _active.emplace_back(_headId, _cfg.genTokens - 1);
            _headArrivalNs = -1.0;
        }
    }

    maybeStart(tNs);
}

void
ReplicaEngine::halt()
{
    _halted = true;
    _busy = false;
    ++_serial; // invalidates the in-flight iteration-end event
}

std::vector<std::size_t>
ReplicaEngine::evictAll()
{
    std::vector<std::size_t> ids;
    ids.reserve(_pending.size() + _pendingDecode.size() +
                _prefilling.size() + _active.size() +
                (_headChunksLeft > 0 ? 1 : 0));
    for (const auto &[id, arrival] : _pending)
        ids.push_back(id);
    _pending.clear();
    for (const auto &[id, arrival] : _pendingDecode)
        ids.push_back(id);
    _pendingDecode.clear();
    for (const auto &[id, arrival] : _prefilling)
        ids.push_back(id);
    _prefilling.clear();
    _prefillShares.clear();
    _pendingStallNs = 0.0;
    if (_headChunksLeft > 0 || _headArrivalNs >= 0.0) {
        ids.push_back(_headId);
        _headChunksLeft = 0;
        _headArrivalNs = -1.0;
    }
    for (const auto &[id, left] : _active)
        ids.push_back(id);
    _active.clear();
    _kvBytes = 0.0;
    return ids;
}

} // namespace skipsim::serving
