#include "layers.hh"

#include <cstdio>

namespace skipbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Layers::Layers(bool enabled) : _enabled(enabled), _origin(Clock::now()) {}

Layers::Scope::~Scope()
{
    if (_index >= 0)
        _owner->close(_index);
}

std::int64_t
Layers::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _origin)
        .count();
}

Layers::Scope
Layers::span(const char *name)
{
    if (!_enabled)
        return Scope(this, -1);
    int parent = _open.empty() ? -1 : _open.back();
    _recs.push_back({name, nowNs(), 0, parent, _phase, _unit});
    int index = static_cast<int>(_recs.size()) - 1;
    _open.push_back(index);
    return Scope(this, index);
}

void
Layers::close(int index)
{
    _recs[static_cast<std::size_t>(index)].endNs = nowNs();
    _open.pop_back();
}

void
Layers::count(const char *name, double value)
{
    if (_enabled)
        _counters[name] += value;
}

void
Layers::beginUnit(Phase phase)
{
    _phase = phase;
    _unit = _units[static_cast<int>(phase)]++;
}

std::size_t
Layers::units(Phase phase) const
{
    return _units[static_cast<int>(phase)];
}

double
Layers::totalNs(const std::string &name) const
{
    double total = 0.0;
    for (const Rec &rec : _recs)
        if (name == rec.name)
            total += static_cast<double>(rec.endNs - rec.beginNs);
    return total;
}

std::size_t
Layers::calls(const std::string &name) const
{
    std::size_t n = 0;
    for (const Rec &rec : _recs)
        n += name == rec.name ? 1 : 0;
    return n;
}

double
Layers::counter(const std::string &name) const
{
    auto it = _counters.find(name);
    return it == _counters.end() ? 0.0 : it->second;
}

std::map<std::string, double>
Layers::selfNs(Phase phase) const
{
    std::map<std::string, double> self;
    for (const Rec &rec : _recs) {
        if (rec.phase != phase)
            continue;
        double dur = static_cast<double>(rec.endNs - rec.beginNs);
        self[rec.name] += dur;
        if (rec.parent >= 0)
            self[_recs[static_cast<std::size_t>(rec.parent)].name] -= dur;
    }
    return self;
}

bool
Layers::writeChrome(const std::string &path) const
{
    static const char *const phase_names[] = {"setup", "op", "extra"};
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    for (std::size_t i = 0; i < _recs.size(); ++i) {
        const Rec &rec = _recs[i];
        std::fprintf(out,
                     "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"layer\","
                     "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"phase\":\"%s\",\"unit\":%zu,"
                     "\"parent\":%d}}",
                     i == 0 ? "" : ",", rec.name,
                     static_cast<int>(rec.phase),
                     static_cast<double>(rec.beginNs) / 1e3,
                     static_cast<double>(rec.endNs - rec.beginNs) / 1e3,
                     phase_names[static_cast<int>(rec.phase)], rec.unit,
                     rec.parent);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace skipbench
