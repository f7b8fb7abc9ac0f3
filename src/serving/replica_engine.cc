#include "serving/replica_engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace skipsim::serving
{

ReplicaEngine::ReplicaEngine(const Config &config, ReplicaHost &host,
                             std::size_t index)
    : _cfg(config), _host(host), _index(index)
{
    if (_cfg.cost == nullptr)
        fatal("ReplicaEngine: cost model is required");
    if (_cfg.maxActive <= 0)
        fatal("ReplicaEngine: maxActive must be positive");
    if (_cfg.genTokens <= 0)
        fatal("ReplicaEngine: genTokens must be positive");
    if (_cfg.chunkTokens < 0)
        fatal("ReplicaEngine: chunkTokens must be non-negative");
    if (_cfg.chunkTokens > 0 && _cfg.prefillOnly)
        fatal("ReplicaEngine: chunked prefill does not compose with "
              "prefill-only mode");
    if (_cfg.chunkTokens > 0)
        _chunkNs = _cfg.cost->chunkNs(_cfg.chunkTokens);
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

bool
ReplicaEngine::maybeStart(double nowNs)
{
    if (_halted || _busy || nowNs >= _cfg.horizonNs)
        return false;

    if (_cfg.chunkTokens > 0) {
        // Sarathi-style: co-schedule one prompt chunk of the
        // head-of-line request with the running decode batch.
        if (_headChunksLeft == 0 && !_pending.empty() &&
            _active.size() <
                static_cast<std::size_t>(_cfg.maxActive) &&
            admit(_pending.front().first, nowNs, false)) {
            _headId = _pending.front().first;
            _headArrivalNs = _pending.front().second;
            _pending.pop_front();
            _headChunksLeft =
                (_cfg.cost->promptLen() + _cfg.chunkTokens - 1) /
                _cfg.chunkTokens;
        }
        if (_headChunksLeft == 0 && _active.empty())
            return false;

        double base = 0.0;
        if (!_active.empty()) {
            base += _cfg.cost->decodeNs(
                static_cast<int>(_active.size()));
            _activeSizes.add(static_cast<double>(_active.size()));
        }
        _iterChunkSched = _headChunksLeft > 0;
        if (_headChunksLeft > 0) {
            base += _chunkNs;
            --_headChunksLeft;
        }
        // Chunked mode: every iteration latency counts towards TPOT
        // (a co-scheduled chunk delays every decoding sequence).
        _iterLatency.add(startIteration(nowNs, base));
        return true;
    }

    // Decode-pool entrants (disaggregated serving) join the decode
    // batch directly: their prefill happened in another pool.
    while (!_pendingDecode.empty() &&
           _active.size() + _prefilling.size() <
               static_cast<std::size_t>(_cfg.maxActive) &&
           admit(_pendingDecode.front().first, nowNs, true)) {
        _active.emplace_back(_pendingDecode.front().first,
                             _cfg.genTokens - 1);
        _pendingDecode.pop_front();
    }

    // Admit pending prefills while batch slots and the host allow;
    // what does not fit stays queued until completions release KV.
    while (!_pending.empty() &&
           _active.size() + _prefilling.size() <
               static_cast<std::size_t>(_cfg.maxActive)) {
        std::optional<double> share =
            admit(_pending.front().first, nowNs, false);
        if (!share)
            break;
        _prefillShares.push_back(*share);
        _prefilling.push_back(_pending.front());
        _pending.pop_front();
    }

    if (!_prefilling.empty()) {
        // Prefix-cache hits skip the cached share of the prompt;
        // prefill time is near-linear in tokens, so the batch cost
        // scales by the mean uncached share.
        double base =
            _cfg.cost->prefillNs(static_cast<int>(_prefilling.size()));
        double share = 0.0;
        for (double s : _prefillShares)
            share += std::clamp(s, 0.05, 1.0);
        base *= share / static_cast<double>(_prefilling.size());
        startIteration(nowNs, base);
    } else if (!_active.empty()) {
        _activeSizes.add(static_cast<double>(_active.size()));
        _iterLatency.add(startIteration(
            nowNs,
            _cfg.cost->decodeNs(static_cast<int>(_active.size()))));
    }
    return _busy;
}

std::optional<double>
ReplicaEngine::admit(std::size_t id, double nowNs, bool decodeEntry)
{
    const ReplicaHost::KvAdmission kv =
        _host.admit(_index, id, nowNs, decodeEntry);
    if (!kv.admitted)
        return std::nullopt;
    if (_cfg.chunkTokens > 0 &&
        (kv.stallNs != 0.0 || kv.prefillShare != 1.0))
        fatal("ReplicaEngine: chunked prefill does not compose with KV "
              "admission (a stall or a prefill share other than 1)");
    _pendingStallNs += kv.stallNs;
    _host.onAdmit(_index, id, nowNs, kv.stallNs, decodeEntry);
    return kv.prefillShare;
}

double
ReplicaEngine::startIteration(double nowNs, double baseNs)
{
    // Synchronous KV paging (a tiered store) stalls the iteration it
    // admitted into: the GPU waits on the interconnect.
    baseNs += _pendingStallNs;
    _pendingStallNs = 0.0;
    double dur = _host.scaleDuration(_index, baseNs);
    _busy = true;
    _iterBeginNs = nowNs;
    _iterEndNs = nowNs + dur;
    _busyNs += dur;
    return dur;
}

void
ReplicaEngine::completeSeq(std::size_t id, double nowNs)
{
    _host.release(_index, id, nowNs);
    _host.onComplete(_index, id, nowNs);
}

bool
ReplicaEngine::finishIteration(double tNs)
{
    if (_halted)
        return false; // cancelled by a crash; halt() is permanent
    _busy = false;

    // The co-scheduled chunk was the head request's last.
    const bool head_done =
        _iterChunkSched && _headChunksLeft == 0 && _headArrivalNs >= 0.0;
    IterationInfo info;
    info.beginNs = _iterBeginNs;
    info.endNs = tNs;
    if (_cfg.chunkTokens > 0) {
        info.decodeBatch = static_cast<int>(_active.size());
        info.chunk = _iterChunkSched;
        info.tokens = info.decodeBatch + (head_done ? 1 : 0);
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
    _host.onIteration(_index, info);

    if (info.prefill) {
        for (const auto &[id, arrival] : _prefilling) {
            _host.onFirstToken(_index, id, tNs - arrival, tNs);
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
            // Compact in place; completions fire in batch order.
            auto kept = _active.begin();
            for (auto &seq : _active) {
                if (--seq.second <= 0)
                    completeSeq(seq.first, tNs);
                else
                    *kept++ = seq;
            }
            _active.erase(kept, _active.end());
        }
        if (head_done) {
            _host.onFirstToken(_index, _headId, tNs - _headArrivalNs,
                               tNs);
            if (_cfg.genTokens == 1)
                completeSeq(_headId, tNs);
            else
                _active.emplace_back(_headId, _cfg.genTokens - 1);
            _headArrivalNs = -1.0;
        }
    }

    return maybeStart(tNs);
}

void
ReplicaEngine::halt()
{
    _halted = true;
    _busy = false;
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
    return ids;
}

} // namespace skipsim::serving
