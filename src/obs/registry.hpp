/**
 * @file
 * Hierarchical statistics registry (gem5-style).
 *
 * Components register named stats under dot-separated hierarchical
 * names ("core0.l2.demand_misses"). Two stat flavours:
 *
 *  - bound counters: non-owning views of counters a component already
 *    keeps in its own stats struct (registration costs nothing on the
 *    simulation hot path — the registry reads the live field at dump
 *    time);
 *  - formulas: lazily evaluated derived metrics (hit rates, IPC).
 *
 * The registry serializes itself as nested JSON keyed by the name
 * segments, which is what `triagesim --stats-json` emits.
 */
#ifndef TRIAGE_OBS_REGISTRY_HPP
#define TRIAGE_OBS_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace triage::obs {

namespace json {
class Writer;
} // namespace json

/** Discriminates Registry entries. */
enum class StatKind : std::uint8_t {
    Counter, ///< monotonic integer bound to a component's field
    Formula, ///< derived metric, evaluated on read
};

/** The hierarchical registry. */
class Registry
{
  public:
    /** Bind a live counter field; @p src must outlive the registry use. */
    void bind_counter(const std::string& name, const std::uint64_t* src);
    /** Register a derived metric evaluated at read/dump time. */
    void add_formula(const std::string& name, std::function<double()> fn);

    bool contains(const std::string& name) const;
    std::size_t size() const { return stats_.size(); }

    /**
     * Numeric view of any stat: counters read their source, formulas
     * evaluate. Panics on an unknown name.
     */
    double read(const std::string& name) const;

    StatKind kind(const std::string& name) const;

    /** All registered names in sorted (hierarchical) order. */
    std::vector<std::string> names() const;

    /**
     * Snapshot every bound counter and formula into storage the
     * registry owns, so reads and dumps stay valid after the components
     * the stats were bound to are destroyed. Idempotent.
     */
    void freeze();

    /** Drop every registration (used when a system re-registers). */
    void clear();

    /**
     * Serialize as nested JSON: name segments become object keys, so
     * "core0.l2.demand_misses" lands at {"core0":{"l2":{...}}}.
     */
    void write_json(json::Writer& w) const;

  private:
    struct Stat {
        StatKind kind = StatKind::Counter;
        const std::uint64_t* bound_counter = nullptr;
        std::function<double()> formula;
        // freeze() target: a bound pointer is repointed here (map nodes
        // are pointer-stable, so this address never moves).
        std::uint64_t frozen_counter = 0;
    };

    Stat& insert(const std::string& name, StatKind kind);
    const Stat& find(const std::string& name) const;

    // std::map keeps names sorted, which both groups siblings for the
    // nested JSON writer and makes dumps deterministic.
    std::map<std::string, Stat> stats_;
};

/** Convenience prefix helper: Scope(reg, "core0").name("ipc") etc. */
class Scope
{
  public:
    Scope(Registry& reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix))
    {
    }

    std::string
    name(const std::string& leaf) const
    {
        return prefix_.empty() ? leaf : prefix_ + "." + leaf;
    }

    Registry& registry() const { return reg_; }

    void
    bind_counter(const std::string& leaf, const std::uint64_t* src) const
    {
        reg_.bind_counter(name(leaf), src);
    }
    void
    add_formula(const std::string& leaf, std::function<double()> fn) const
    {
        reg_.add_formula(name(leaf), std::move(fn));
    }

  private:
    Registry& reg_;
    std::string prefix_;
};

} // namespace triage::obs

#endif // TRIAGE_OBS_REGISTRY_HPP
