#include "cache/cache.hpp"

#include "obs/registry.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::cache {

SetAssocCache::SetAssocCache(const CacheGeometry& geom,
                             std::unique_ptr<ReplacementPolicy> repl)
    : name_(geom.name), assoc_(geom.assoc), data_ways_(geom.assoc),
      repl_(std::move(repl))
{
    TRIAGE_ASSERT(geom.assoc > 0);
    TRIAGE_ASSERT(geom.size_bytes % (sim::BLOCK_SIZE * geom.assoc) == 0,
                  "cache size must be a whole number of sets");
    sets_ = static_cast<std::uint32_t>(
        geom.size_bytes / (sim::BLOCK_SIZE * geom.assoc));
    TRIAGE_ASSERT(util::is_pow2(sets_), "set count must be a power of two");
    tags_.assign(static_cast<std::size_t>(sets_) * assoc_, INVALID_TAG);
    hot_.assign(static_cast<std::size_t>(sets_) * assoc_, 0);
    owners_.assign(static_cast<std::size_t>(sets_) * assoc_, nullptr);
    TRIAGE_ASSERT(repl_ != nullptr);
    if (!repl_->lru_fast_view(&lru_))
        lru_ = {};
}

std::uint32_t
SetAssocCache::set_of(sim::Addr block) const
{
    return static_cast<std::uint32_t>(block & (sets_ - 1));
}

std::uint32_t
SetAssocCache::find_way(std::size_t base, sim::Addr block) const
{
    // Invalid ways hold INVALID_TAG (never a real block), so validity
    // needs no separate test: one compare per way (util/row_scan.hpp;
    // NPOS and NO_WAY are both all-ones).
    return util::find_first_eq(tags_.data() + base, data_ways_, block);
}

LookupResult
SetAssocCache::access(sim::Addr block, sim::Pc pc, sim::Cycle now,
                      bool is_write, bool is_prefetch_probe)
{
    const std::uint32_t set = set_of(block);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const std::uint32_t way = find_way(base, block);
    if (way == NO_WAY) {
        if (is_prefetch_probe)
            ++stats_.pf_probe_misses;
        else
            ++stats_.demand_misses;
        repl_miss(set, block, pc);
        return {};
    }
    std::uint64_t& h = hot_[base + way];
    LookupResult res{true, false, false, h & HOT_READY_MASK, nullptr};
    if (is_prefetch_probe) {
        ++stats_.pf_probe_hits;
        repl_touch(set, way, block, pc, true, false);
        return res;
    }
    ++stats_.demand_hits;
    if ((h & HOT_PREFETCHED) != 0) {
        ++stats_.prefetch_hits;
        res.first_prefetch_use = true;
        res.pf_owner = owners_[base + way];
        if ((h & HOT_READY_MASK) > now) {
            ++stats_.late_prefetch_hits;
            res.late_prefetch = true;
        }
        h &= ~HOT_PREFETCHED;
        owners_[base + way] = nullptr;
    }
    if (is_write)
        h |= HOT_DIRTY;
    repl_touch(set, way, block, pc, false, false);
    return res;
}

bool
SetAssocCache::contains(sim::Addr block) const
{
    const std::size_t base =
        static_cast<std::size_t>(set_of(block)) * assoc_;
    return find_way(base, block) != NO_WAY;
}

std::optional<LineState>
SetAssocCache::peek(sim::Addr block) const
{
    const std::size_t base =
        static_cast<std::size_t>(set_of(block)) * assoc_;
    const std::uint32_t way = find_way(base, block);
    if (way == NO_WAY)
        return std::nullopt;
    const std::uint64_t h = hot_[base + way];
    return LineState{(h & HOT_DIRTY) != 0, (h & HOT_PREFETCHED) != 0,
                     h & HOT_READY_MASK, owners_[base + way]};
}

bool
SetAssocCache::mark_dirty(sim::Addr block)
{
    const std::size_t base =
        static_cast<std::size_t>(set_of(block)) * assoc_;
    const std::uint32_t way = find_way(base, block);
    if (way == NO_WAY)
        return false;
    hot_[base + way] |= HOT_DIRTY;
    return true;
}

Eviction
SetAssocCache::insert(sim::Addr block, sim::Pc pc, sim::Cycle ready_time,
                      bool dirty, bool is_prefetch,
                      prefetch::Prefetcher* pf_owner)
{
    const std::uint32_t set = set_of(block);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    sim::Addr* row = tags_.data() + base;

    // Re-insertion of a resident block just refreshes its state; only
    // a miss needs the first invalid way (preferred fill target). One
    // fused tag-or-invalid scan covers the steady state (full set, no
    // holes); only when a hole precedes the probe point can the block
    // still sit behind it, needing a second look at the tail.
    std::uint32_t resident = NO_WAY;
    std::uint32_t victim_way = NO_WAY;
    const std::uint32_t probe = util::find_first_eq_either(
        row, data_ways_, block, INVALID_TAG);
    if (probe != NO_WAY) {
        if (row[probe] == block) {
            resident = probe;
        } else {
            victim_way = probe;
            const std::uint32_t rest = util::find_first_eq(
                row + probe + 1, data_ways_ - probe - 1, block);
            if (rest != NO_WAY)
                resident = probe + 1 + rest;
        }
    }
    if (resident != NO_WAY) {
        std::uint64_t& h = hot_[base + resident];
        if (dirty)
            h |= HOT_DIRTY;
        if (ready_time < (h & HOT_READY_MASK))
            h = (h & ~HOT_READY_MASK) | ready_time;
        return {};
    }

    Eviction ev;
    if (victim_way == NO_WAY) {
        victim_way = repl_victim(set, 0, data_ways_);
        TRIAGE_ASSERT(victim_way < data_ways_, "victim outside partition");
        const std::uint64_t v = hot_[base + victim_way];
        ev.valid = true;
        ev.block = row[victim_way];
        ev.dirty = (v & HOT_DIRTY) != 0;
        ev.prefetched = (v & HOT_PREFETCHED) != 0;
        ++stats_.evictions;
        if (ev.dirty)
            ++stats_.dirty_evictions;
        if (ev.prefetched)
            ++stats_.unused_prefetch_evictions;
        repl_invalidate(set, victim_way);
        --live_lines_;
    }
    row[victim_way] = block;
    hot_[base + victim_way] = ready_time | (dirty ? HOT_DIRTY : 0) |
                              (is_prefetch ? HOT_PREFETCHED : 0);
    owners_[base + victim_way] = is_prefetch ? pf_owner : nullptr;
    ++live_lines_;
    repl_touch(set, victim_way, block, pc, is_prefetch, true);
    return ev;
}

bool
SetAssocCache::invalidate(sim::Addr block)
{
    const std::uint32_t set = set_of(block);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const std::uint32_t way = find_way(base, block);
    if (way == NO_WAY)
        return false;
    repl_invalidate(set, way);
    tags_[base + way] = INVALID_TAG;
    --live_lines_;
    return true;
}

void
SetAssocCache::set_data_ways(std::uint32_t n, std::uint64_t* flushed_dirty)
{
    TRIAGE_ASSERT(n >= 1 && n <= assoc_, "data partition out of range");
    if (n < data_ways_) {
        // Shrinking: hand ways [n, data_ways_) to metadata; invalidate.
        std::uint64_t dirty_count = 0;
        for (std::uint32_t set = 0; set < sets_; ++set) {
            const std::size_t base =
                static_cast<std::size_t>(set) * assoc_;
            for (std::uint32_t w = n; w < data_ways_; ++w) {
                if (tags_[base + w] != INVALID_TAG) {
                    if ((hot_[base + w] & HOT_DIRTY) != 0)
                        ++dirty_count;
                    repl_invalidate(set, w);
                    tags_[base + w] = INVALID_TAG;
                    --live_lines_;
                }
            }
        }
        if (flushed_dirty != nullptr)
            *flushed_dirty = dirty_count;
    } else if (flushed_dirty != nullptr) {
        *flushed_dirty = 0;
    }
    // Growing needs no work: reclaimed ways are already invalid.
    data_ways_ = n;
}

std::uint64_t
SetAssocCache::count_valid_lines_slow() const
{
    std::uint64_t n = 0;
    for (const auto& t : tags_)
        n += t != INVALID_TAG ? 1 : 0;
    return n;
}

void
SetAssocCache::self_check(
    const std::function<void(const std::string&)>& report) const
{
    const std::uint64_t slow = count_valid_lines_slow();
    if (slow != live_lines_) {
        report(name_ + ": live-line counter " +
               std::to_string(live_lines_) + " != tag scan " +
               std::to_string(slow));
    }
    for (std::uint32_t set = 0; set < sets_; ++set) {
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const sim::Addr tag = tags_[base + w];
            if (tag == INVALID_TAG)
                continue;
            if (w >= data_ways_) {
                report(name_ + ": set " + std::to_string(set) + " way " +
                       std::to_string(w) +
                       " holds a line outside the data partition (" +
                       std::to_string(data_ways_) + " ways)");
            }
            if (set_of(tag) != set) {
                report(name_ + ": set " + std::to_string(set) +
                       " holds block mapping to set " +
                       std::to_string(set_of(tag)));
            }
            for (std::uint32_t v = w + 1; v < assoc_; ++v) {
                if (tags_[base + v] == tag) {
                    report(name_ + ": set " + std::to_string(set) +
                           " holds duplicate tag in ways " +
                           std::to_string(w) + " and " +
                           std::to_string(v));
                }
            }
        }
        if (lru_.stamps == nullptr)
            continue;
        // Inline-LRU stamp discipline: 0 marks an invalid way, valid
        // ways carry a stamp the global clock has already passed.
        const std::uint64_t* row =
            lru_.stamps + static_cast<std::size_t>(set) * lru_.assoc;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const bool valid = tags_[base + w] != INVALID_TAG;
            if (!valid && row[w] != 0) {
                report(name_ + ": set " + std::to_string(set) + " way " +
                       std::to_string(w) + " invalid but LRU stamp " +
                       std::to_string(row[w]) + " nonzero");
            }
            if (valid && (row[w] == 0 || row[w] > *lru_.clock)) {
                report(name_ + ": set " + std::to_string(set) + " way " +
                       std::to_string(w) + " valid with LRU stamp " +
                       std::to_string(row[w]) + " outside (0, clock=" +
                       std::to_string(*lru_.clock) + "]");
            }
        }
    }
}

void
SetAssocCache::register_stats(obs::Registry& reg,
                              const std::string& prefix) const
{
    obs::Scope s(reg, prefix);
    s.bind_counter("demand_hits", &stats_.demand_hits);
    s.bind_counter("demand_misses", &stats_.demand_misses);
    s.bind_counter("pf_probe_hits", &stats_.pf_probe_hits);
    s.bind_counter("pf_probe_misses", &stats_.pf_probe_misses);
    s.bind_counter("prefetch_hits", &stats_.prefetch_hits);
    s.bind_counter("late_prefetch_hits", &stats_.late_prefetch_hits);
    s.bind_counter("evictions", &stats_.evictions);
    s.bind_counter("dirty_evictions", &stats_.dirty_evictions);
    s.bind_counter("unused_prefetch_evictions",
                   &stats_.unused_prefetch_evictions);
    const CacheStats* st = &stats_;
    s.add_formula("demand_miss_rate", [st] {
        const double acc = static_cast<double>(st->demand_accesses());
        return acc > 0.0 ? static_cast<double>(st->demand_misses) / acc : 0.0;
    });
}

void
SetAssocCache::checkpoint(sim::Snapshot& s, const PfOwnerCodec& codec)
{
    s.section("cache");
    std::uint32_t sets = sets_, assoc = assoc_;
    s.io(sets);
    s.io(assoc);
    TRIAGE_ASSERT(sets == sets_ && assoc == assoc_,
                  "cache geometry mismatch on restore");
    s.io(data_ways_);
    s.io_pod_vec(tags_);
    s.io(live_lines_);
    std::uint64_t n = hot_.size();
    s.io(n);
    TRIAGE_ASSERT(n == hot_.size(), "cache state size mismatch");
    // Field-for-field the same stream as the old LineState loop (bool
    // dirty, bool prefetched, u64 ready_time, u32 owner id), so
    // snapshots written before the hot/cold split load unchanged.
    for (std::size_t i = 0; i < hot_.size(); ++i) {
        bool dirty = (hot_[i] & HOT_DIRTY) != 0;
        bool prefetched = (hot_[i] & HOT_PREFETCHED) != 0;
        sim::Cycle ready_time = hot_[i] & HOT_READY_MASK;
        s.io(dirty);
        s.io(prefetched);
        s.io(ready_time);
        std::uint32_t owner = s.saving() ? codec.encode(owners_[i]) : 0;
        s.io(owner);
        if (s.loading()) {
            hot_[i] = (ready_time & HOT_READY_MASK) |
                      (dirty ? HOT_DIRTY : 0) |
                      (prefetched ? HOT_PREFETCHED : 0);
            owners_[i] = codec.decode(owner);
        }
    }
    repl_->checkpoint(s);
    s.io_pod(stats_);
    if (s.loading()) {
        // Defensive: the fast view aliases the policy's storage; its
        // vectors were resized in place (same size, no realloc), but
        // re-fetch anyway so a policy that reallocates stays correct.
        lru_ = {};
        repl_->lru_fast_view(&lru_);
    }
}

} // namespace triage::cache
