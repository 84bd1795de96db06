#include "verify/invariants.hpp"

#include "cache/hierarchy.hpp"
#include "obs/json.hpp"
#include "obs/lifecycle.hpp"
#include "triage/triage.hpp"

namespace triage::verify {

void
InvariantSuite::clear()
{
    checkers_.clear();
    partition_prev_.clear();
    checks_ = 0;
    violations_ = 0;
    recorded_.clear();
}

void
InvariantSuite::add_checker(std::string name, CheckFn fn)
{
    checkers_.push_back({std::move(name), std::move(fn)});
}

void
InvariantSuite::attach(cache::MemorySystem& mem)
{
    clear();
    cache::MemorySystem* m = &mem;

    for (unsigned i = 0; i < mem.num_cores(); ++i) {
        const std::string core = "core" + std::to_string(i);
        add_checker(core + ".l1.cache",
                    [m, i](const ReportFn& r) { m->l1(i).self_check(r); });
        add_checker(core + ".l2.cache",
                    [m, i](const ReportFn& r) { m->l2(i).self_check(r); });
    }
    add_checker("llc.cache",
                [m](const ReportFn& r) { m->llc().self_check(r); });

    partition_prev_.assign(mem.num_cores(), PartitionSnap{});
    for (unsigned i = 0; i < mem.num_cores(); ++i) {
        const auto* tri =
            dynamic_cast<const core::Triage*>(mem.prefetcher(i));
        if (tri == nullptr)
            continue;
        const std::string core = "core" + std::to_string(i);
        add_checker(core + ".triage.store", [tri](const ReportFn& r) {
            tri->store().self_check(r);
        });
        const core::PartitionController* pc = tri->partition();
        if (pc == nullptr)
            continue;
        add_checker(core + ".triage.partition",
                    [pc](const ReportFn& r) { pc->self_check(r); });
        // Cross-epoch transition legality: the controller can only move
        // the level through a counted change, and the cooldown clock
        // only rises when the utility gate fires.
        PartitionSnap* prev = &partition_prev_[i];
        add_checker(core + ".triage.partition.transitions",
                    [pc, prev](const ReportFn& r) {
            const auto& ds = pc->decision_stats();
            PartitionSnap cur;
            cur.valid = true;
            cur.level = pc->level();
            cur.cooldown = pc->cooldown();
            cur.epochs = pc->epochs();
            cur.changes = ds.changes;
            cur.gate_fires = ds.gate_fires;
            if (prev->valid) {
                if (cur.epochs < prev->epochs ||
                    cur.changes < prev->changes ||
                    cur.gate_fires < prev->gate_fires) {
                    r("partition counters moved backwards between "
                      "sweeps");
                }
                if (cur.level != prev->level &&
                    cur.changes == prev->changes) {
                    r("partition level moved " +
                      std::to_string(prev->level) + " -> " +
                      std::to_string(cur.level) +
                      " without a counted change");
                }
                if (cur.cooldown > prev->cooldown &&
                    cur.gate_fires == prev->gate_fires) {
                    r("partition cooldown rose " +
                      std::to_string(prev->cooldown) + " -> " +
                      std::to_string(cur.cooldown) +
                      " without a gate fire");
                }
            }
            *prev = cur;
        });
    }

    // Lifecycle conservation: every opened record is either closed or
    // still open, so the classes plus the open set always reconcile
    // with the issue count (the tracker header's core invariant).
    add_checker("lifecycle.class_sum", [m](const ReportFn& r) {
        const obs::LifecycleTracker* lc = m->lifecycle();
        if (lc == nullptr || !lc->enabled())
            return;
        const obs::LifecycleCounts t = lc->total();
        if (t.closed() + lc->open_records() != t.issued) {
            r("lifecycle classes (" + std::to_string(t.closed()) +
              " closed + " + std::to_string(lc->open_records()) +
              " open) do not sum to issued " +
              std::to_string(t.issued));
        }
        for (unsigned i = 0; i < lc->num_cores(); ++i) {
            const obs::LifecycleCounts& c = lc->core_counts(i);
            if (c.closed() > c.issued) {
                r("core " + std::to_string(i) + " closed " +
                  std::to_string(c.closed()) + " records but issued " +
                  std::to_string(c.issued));
            }
        }
    });
}

void
InvariantSuite::sweep()
{
    for (const Checker& c : checkers_) {
        ++checks_;
        const Checker* cp = &c;
        c.fn([this, cp](const std::string& msg) {
            ++violations_;
            if (recorded_.size() < MAX_RECORDED)
                recorded_.push_back({cp->name, msg});
        });
    }
}

void
InvariantSuite::write_json(obs::json::Writer& w) const
{
    w.begin_object().field("checks", checks_);
    w.field("violations", violations_).key("failures").begin_array();
    for (const Violation& v : recorded_) {
        w.begin_object(false).field("checker", v.checker);
        w.field("message", v.message).end();
    }
    w.end().end();
}

} // namespace triage::verify
