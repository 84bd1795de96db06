#include "obs/registry.hpp"

#include <cmath>
#include <ostream>

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

Counter&
Registry::counter(const std::string& name)
{
    Stat& s = insert(name, StatKind::Counter);
    s.owned = std::make_unique<Counter>();
    return *s.owned;
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
        return static_cast<double>(s.bound_counter != nullptr
                                       ? *s.bound_counter
                                       : s.owned->value());
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
Registry::reset()
{
    for (auto& [name, stat] : stats_) {
        if (stat.owned != nullptr)
            stat.owned->reset();
    }
}

void
Registry::freeze()
{
    for (auto& [name, s] : stats_) {
        switch (s.kind) {
          case StatKind::Counter:
            if (s.bound_counter != nullptr &&
                s.bound_counter != &s.frozen_counter) {
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

namespace {

/** JSON numbers cannot carry inf/nan; degrade them to 0. */
double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
write_number(std::ostream& os, double v)
{
    auto prec = os.precision(10);
    os << finite(v);
    os.precision(prec);
}

std::vector<std::string>
split_segments(const std::string& name)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(name.substr(start));
            return segs;
        }
        segs.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
}

void
pad(std::ostream& os, int depth)
{
    for (int i = 0; i < depth; ++i)
        os << "  ";
}

} // namespace

void
Registry::write_json(std::ostream& os, int indent) const
{
    // Sorted map order groups siblings; emit nested objects by tracking
    // the shared prefix depth between consecutive names.
    std::vector<std::string> open; // currently open path segments
    os << "{";
    bool first = true;
    for (const auto& [name, stat] : stats_) {
        auto segs = split_segments(name);
        // Close objects no longer shared with this name's path.
        std::size_t shared = 0;
        while (shared < open.size() && shared + 1 < segs.size() &&
               open[shared] == segs[shared])
            ++shared;
        for (std::size_t d = open.size(); d > shared; --d) {
            os << "\n";
            pad(os, indent + static_cast<int>(d));
            os << "}";
        }
        open.resize(shared);
        if (!first)
            os << ",";
        first = false;
        // Open any new intermediate objects.
        for (std::size_t d = shared; d + 1 < segs.size(); ++d) {
            os << "\n";
            pad(os, indent + static_cast<int>(d) + 1);
            os << "\"" << segs[d] << "\": {";
            open.push_back(segs[d]);
        }
        os << "\n";
        pad(os, indent + static_cast<int>(segs.size()));
        os << "\"" << segs.back() << "\": ";
        switch (stat.kind) {
          case StatKind::Counter:
            os << (stat.bound_counter != nullptr ? *stat.bound_counter
                                                 : stat.owned->value());
            break;
          case StatKind::Formula:
            write_number(os, stat.formula());
            break;
        }
    }
    for (std::size_t d = open.size(); d > 0; --d) {
        os << "\n";
        pad(os, indent + static_cast<int>(d));
        os << "}";
    }
    os << "\n";
    pad(os, indent);
    os << "}";
}

} // namespace triage::obs
