#include "json/builder.hh"

#include <iterator>

namespace skipsim::json
{

void
DomBuilder::endObject()
{
    Frame frame = std::move(_frames.back());
    _frames.pop_back();
    const auto first = _members.begin() + static_cast<long>(frame.base);
    std::vector<Member> members(std::make_move_iterator(first),
                                std::make_move_iterator(_members.end()));
    _members.erase(first, _members.end());
    deliver(frame.key, Object(std::move(members)));
}

void
DomBuilder::endArray()
{
    Frame frame = std::move(_frames.back());
    _frames.pop_back();
    deliver(frame.key, std::move(frame.items));
}

Value
DomBuilder::take()
{
    Value root = std::move(*_root);
    _root.reset();
    return root;
}

} // namespace skipsim::json
