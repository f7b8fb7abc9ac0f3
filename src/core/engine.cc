#include "core/engine.hh"

#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::core
{

namespace
{

/** Holds @p flag true for one scope, exceptions included. */
class FlagScope
{
  public:
    explicit FlagScope(bool &flag) : _flag(flag) { _flag = true; }
    ~FlagScope() { _flag = false; }
    FlagScope(const FlagScope &) = delete;
    FlagScope &operator=(const FlagScope &) = delete;

  private:
    bool &_flag;
};

} // namespace

EventKind
Engine::addHandler(Handler handler)
{
    if (!handler)
        panic("core::Engine: empty event handler");
    if (_running)
        panic("core::Engine: addHandler while the engine runs");
    _handlers.push_back(Entry{std::move(handler), 0, 0});
    return static_cast<EventKind>(_handlers.size() - 1);
}

std::size_t
Engine::peakPending(EventKind kind) const
{
    if (kind >= _handlers.size())
        unknownKind(kind);
    return _handlers[kind].peak;
}

void
Engine::unknownKind(EventKind kind) const
{
    panic(strprintf("core::Engine: unknown event kind %u (%zu handlers)",
                    kind, _handlers.size()));
}

std::size_t
Engine::run()
{
    FlagScope running(_running);
    std::size_t n = 0;
    for (; !_queue.empty(); ++n) {
        const Event ev = _queue.pop();
        if (_beforeEvent)
            _beforeEvent(ev.timeNs);
        _clock.advanceTo(ev.timeNs);
        ++_processed;
        Entry &entry = _handlers[ev.kind];
        --entry.pending;
        entry.fn(ev);
    }
    return n;
}

} // namespace skipsim::core
