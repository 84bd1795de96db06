#include "obs/lifecycle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace triage::obs {

const char*
prefetch_class_name(PrefetchClass c)
{
    switch (c) {
      case PrefetchClass::Accurate: return "accurate";
      case PrefetchClass::Late: return "late";
      case PrefetchClass::EarlyEvicted: return "early_evicted";
      case PrefetchClass::Useless: return "useless";
      case PrefetchClass::Dropped: return "dropped";
      case PrefetchClass::NumClasses: break;
    }
    return "?";
}

void
LifecycleTracker::reset(unsigned n_cores)
{
    per_core_.assign(n_cores, PerCore{});
    by_pc_.clear();
    trigger_pc_ = 0;
    finalized_ = false;
}

void
LifecycleTracker::close(PerCore& pc, std::uint64_t trigger_pc,
                        PrefetchClass c)
{
    LifecycleCounts& by_pc = by_pc_[trigger_pc];
    switch (c) {
      case PrefetchClass::Accurate:
        ++pc.counts.accurate;
        ++by_pc.accurate;
        break;
      case PrefetchClass::Late:
        ++pc.counts.late;
        ++by_pc.late;
        break;
      case PrefetchClass::EarlyEvicted:
        ++pc.counts.early_evicted;
        ++by_pc.early_evicted;
        break;
      case PrefetchClass::Useless:
        ++pc.counts.useless;
        ++by_pc.useless;
        break;
      case PrefetchClass::Dropped:
      case PrefetchClass::NumClasses:
        break;
    }
}

void
LifecycleTracker::on_issue(unsigned core, std::uint64_t block)
{
    if (core >= per_core_.size() || finalized_)
        return;
    PerCore& pc = per_core_[core];
    ++pc.counts.issued;
    ++by_pc_[trigger_pc_].issued;
    auto [it, inserted] = pc.open.emplace(block, trigger_pc_);
    if (!inserted) {
        // The hierarchy's redundancy check makes a re-issue of a live
        // block impossible in real runs; tolerate direct host calls in
        // tests by retiring the stale record first.
        close(pc, it->second, PrefetchClass::Useless);
        it->second = trigger_pc_;
    }
}

void
LifecycleTracker::on_drop(unsigned core)
{
    if (core >= per_core_.size() || finalized_)
        return;
    ++per_core_[core].counts.dropped;
    ++by_pc_[trigger_pc_].dropped;
}

void
LifecycleTracker::on_use(unsigned core, std::uint64_t block, bool late)
{
    if (core >= per_core_.size() || finalized_)
        return;
    PerCore& pc = per_core_[core];
    auto it = pc.open.find(block);
    if (it == pc.open.end())
        return; // prefetched before tracking started (warmup)
    close(pc, it->second,
          late ? PrefetchClass::Late : PrefetchClass::Accurate);
    pc.open.erase(it);
}

void
LifecycleTracker::on_evict(unsigned core, std::uint64_t block)
{
    if (core >= per_core_.size() || finalized_)
        return;
    PerCore& pc = per_core_[core];
    auto it = pc.open.find(block);
    if (it == pc.open.end())
        return;
    close(pc, it->second, PrefetchClass::EarlyEvicted);
    pc.open.erase(it);
}

void
LifecycleTracker::finalize()
{
    if (finalized_)
        return;
    for (PerCore& pc : per_core_) {
        for (const auto& [block, trigger_pc] : pc.open) {
            (void)block;
            close(pc, trigger_pc, PrefetchClass::Useless);
        }
        pc.open.clear();
    }
    finalized_ = true;
}

const LifecycleCounts&
LifecycleTracker::core_counts(unsigned core) const
{
    TRIAGE_ASSERT(core < per_core_.size());
    return per_core_[core].counts;
}

LifecycleCounts
LifecycleTracker::total() const
{
    LifecycleCounts t;
    for (const PerCore& pc : per_core_) {
        t.issued += pc.counts.issued;
        t.accurate += pc.counts.accurate;
        t.late += pc.counts.late;
        t.early_evicted += pc.counts.early_evicted;
        t.useless += pc.counts.useless;
        t.dropped += pc.counts.dropped;
    }
    return t;
}

std::size_t
LifecycleTracker::open_records() const
{
    std::size_t n = 0;
    for (const PerCore& pc : per_core_)
        n += pc.open.size();
    return n;
}

std::vector<PcAttribution>
LifecycleTracker::ranked(bool by_coverage, std::size_t n) const
{
    std::vector<PcAttribution> rows;
    rows.reserve(by_pc_.size());
    auto score = [by_coverage](const LifecycleCounts& c) {
        return by_coverage ? c.covered() : c.polluting() + c.dropped;
    };
    for (const auto& [pc, counts] : by_pc_) {
        if (score(counts) == 0)
            continue;
        rows.push_back({pc, counts});
    }
    std::sort(rows.begin(), rows.end(),
              [&](const PcAttribution& a, const PcAttribution& b) {
                  std::uint64_t sa = score(a.counts);
                  std::uint64_t sb = score(b.counts);
                  if (sa != sb)
                      return sa > sb;
                  if (a.counts.issued != b.counts.issued)
                      return a.counts.issued > b.counts.issued;
                  return a.pc < b.pc; // deterministic tie-break
              });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

std::vector<PcAttribution>
LifecycleTracker::top_by_coverage(std::size_t n) const
{
    return ranked(true, n);
}

std::vector<PcAttribution>
LifecycleTracker::top_by_pollution(std::size_t n) const
{
    return ranked(false, n);
}

namespace {

void
write_counts(json::Writer& w, const LifecycleCounts& c)
{
    w.begin_object(false);
    w.field("issued", c.issued).field("accurate", c.accurate);
    w.field("late", c.late).field("early_evicted", c.early_evicted);
    w.field("useless", c.useless).field("dropped", c.dropped).end();
}

void
write_pc_table(json::Writer& w, const std::vector<PcAttribution>& rows)
{
    w.begin_array();
    for (const PcAttribution& row : rows) {
        w.begin_object(false).field("pc", row.pc).key("counts");
        write_counts(w, row.counts);
        w.end();
    }
    w.end();
}

/** Hit rates are written at 6 significant digits, the resolution the
 *  partition timeline has always carried (and the goldens pin). */
double
six_digits(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::strtod(buf, nullptr);
}

} // namespace

void
LifecycleTracker::write_json(json::Writer& w, std::size_t top_n) const
{
    w.begin_object().key("cores").begin_array();
    for (const PerCore& pc : per_core_)
        write_counts(w, pc.counts);
    w.end().key("total");
    write_counts(w, total());
    w.field("open", open_records());
    w.key("top_pcs_by_coverage");
    write_pc_table(w, top_by_coverage(top_n));
    w.key("top_pcs_by_pollution");
    write_pc_table(w, top_by_pollution(top_n));
    w.end();
}

const char*
partition_event_name(PartitionEvent e)
{
    switch (e) {
      case PartitionEvent::Warmup: return "warmup";
      case PartitionEvent::Hold: return "hold";
      case PartitionEvent::Pending: return "pending";
      case PartitionEvent::Changed: return "changed";
      case PartitionEvent::Cooldown: return "cooldown";
      case PartitionEvent::Gated: return "gated";
      case PartitionEvent::NumEvents: break;
    }
    return "?";
}

void
PartitionTimeline::reset(unsigned n_cores)
{
    n_cores_ = n_cores;
    samples_.clear();
    dropped_ = 0;
}

void
PartitionTimeline::record(PartitionSample s)
{
    if (samples_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    samples_.push_back(std::move(s));
}

void
PartitionTimeline::write_json(json::Writer& w) const
{
    w.begin_object().field("dropped", dropped_).key("cores").begin_array();
    for (unsigned c = 0; c < n_cores_; ++c) {
        w.begin_array();
        for (const PartitionSample& s : samples_) {
            if (s.core != c)
                continue;
            w.begin_object(false);
            w.field("epoch", s.epoch).field("level", s.level);
            w.field("verdict", s.verdict).field("size_bytes", s.size_bytes);
            w.field("event", partition_event_name(s.event));
            w.key("hit_rates").begin_array(false);
            for (double r : s.hit_rates)
                w.value(six_digits(r));
            w.end().end();
        }
        w.end();
    }
    w.end().end();
}

} // namespace triage::obs
