#include "obs/registry.hpp"

#include "obs/json.hpp"
#include "util/log.hpp"

namespace triage::obs {

namespace {

/** Is @p outer a strict dot-prefix of @p inner ("a.b" of "a.b.c")? */
bool
nests_under(const std::string& outer, const std::string& inner)
{
    return inner.size() > outer.size() && inner[outer.size()] == '.' &&
           inner.compare(0, outer.size(), outer) == 0;
}

} // namespace

Registry::Stat&
Registry::insert(const std::string& name, StatKind kind)
{
    TRIAGE_ASSERT(!name.empty(), "stat name must be non-empty");
    // A name that is both a leaf and a dot-prefix of another ("a.b"
    // next to "a.b.c") would make write_json emit the same key twice —
    // once as a number, once as an object. Fail at registration time
    // instead of corrupting the dump.
    for (const auto& entry : stats_) {
        TRIAGE_ASSERT(!nests_under(entry.first, name) &&
                          !nests_under(name, entry.first),
                      "stat name nests under / over an existing one: '",
                      name, "' vs '", entry.first, "'");
    }
    auto [it, fresh] = stats_.try_emplace(name);
    TRIAGE_ASSERT(fresh, "duplicate stat registration: ", name);
    it->second.kind = kind;
    return it->second;
}

const Registry::Stat&
Registry::find(const std::string& name) const
{
    auto it = stats_.find(name);
    TRIAGE_ASSERT(it != stats_.end(), "unknown stat: ", name);
    return it->second;
}

void
Registry::bind_counter(const std::string& name, const std::uint64_t* src)
{
    TRIAGE_ASSERT(src != nullptr);
    insert(name, StatKind::Counter).bound_counter = src;
}

void
Registry::add_formula(const std::string& name, std::function<double()> fn)
{
    TRIAGE_ASSERT(fn != nullptr);
    insert(name, StatKind::Formula).formula = std::move(fn);
}

bool
Registry::contains(const std::string& name) const
{
    return stats_.find(name) != stats_.end();
}

double
Registry::read(const std::string& name) const
{
    const Stat& s = find(name);
    switch (s.kind) {
      case StatKind::Counter:
        return static_cast<double>(*s.bound_counter);
      case StatKind::Formula:
        return s.formula();
    }
    util::panic("unreachable stat kind");
}

StatKind
Registry::kind(const std::string& name) const
{
    return find(name).kind;
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto& [name, stat] : stats_)
        out.push_back(name);
    return out;
}

void
Registry::freeze()
{
    for (auto& [name, s] : stats_) {
        switch (s.kind) {
          case StatKind::Counter:
            if (s.bound_counter != &s.frozen_counter) {
                s.frozen_counter = *s.bound_counter;
                s.bound_counter = &s.frozen_counter;
            }
            break;
          case StatKind::Formula: {
            const double v = s.formula();
            s.formula = [v] { return v; };
            break;
          }
        }
    }
}

void
Registry::clear()
{
    stats_.clear();
}

void
Registry::write_json(json::Writer& w) const
{
    json::write_nested(w, stats_, [](json::Writer& out, const Stat& s) {
        if (s.kind == StatKind::Counter)
            out.value(*s.bound_counter);
        else
            out.value(s.formula());
    });
}

} // namespace triage::obs
