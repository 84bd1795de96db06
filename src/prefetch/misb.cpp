#include "prefetch/misb.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::prefetch {

MetadataCache::MetadataCache(std::uint32_t entries, std::uint32_t ways)
    : sets_(entries / ways), ways_(ways),
      entries_(static_cast<std::size_t>(entries))
{
    TRIAGE_ASSERT(util::is_pow2(sets_), "metadata cache sets");
}

std::optional<std::uint64_t>
MetadataCache::find(std::uint64_t key)
{
    std::size_t set = util::mix64(key) & (sets_ - 1);
    Entry* row = &entries_[set * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].key == key) {
            row[w].lru = ++clock_;
            ++hits_;
            return row[w].value;
        }
    }
    ++misses_;
    return std::nullopt;
}

MetadataCache::Evicted
MetadataCache::insert(std::uint64_t key, std::uint64_t value, bool dirty)
{
    std::size_t set = util::mix64(key) & (sets_ - 1);
    Entry* row = &entries_[set * ways_];
    Entry* victim = &row[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].key == key) {
            row[w].value = value;
            row[w].dirty |= dirty;
            row[w].lru = ++clock_;
            return {};
        }
        if (!row[w].valid)
            victim = &row[w];
        else if (victim->valid && row[w].lru < victim->lru)
            victim = &row[w];
    }
    Evicted ev;
    if (victim->valid)
        ev = {true, victim->dirty, victim->key, victim->value};
    *victim = {key, value, ++clock_, dirty, true};
    return ev;
}

GranuleTable::GranuleTable(std::uint32_t width)
    : width_(width), shift_(util::log2_exact(width))
{
    TRIAGE_ASSERT(util::is_pow2(width), "granule width");
}

std::uint64_t&
GranuleTable::ref(std::uint64_t key)
{
    std::uint32_t& r = index_.ref(key >> shift_);
    if (r == 0) {
        const std::size_t rows = pool_.size() / width_;
        TRIAGE_ASSERT(rows < ~std::uint32_t{0}, "granule pool full");
        r = static_cast<std::uint32_t>(rows + 1);
        pool_.resize(pool_.size() + width_, ABSENT);
    }
    std::uint64_t& v = pool_[slot(r, key)];
    if (v == ABSENT) {
        v = 0;
        ++size_;
    }
    return v;
}

void
GranuleTable::checkpoint(sim::Snapshot& s)
{
    std::uint64_t entries = size_;
    std::uint64_t granules = index_.size();
    s.io(entries);
    s.io(granules);
    if (s.saving()) {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
        order.reserve(index_.size());
        index_.for_each([&](std::uint64_t g, std::uint32_t r) {
            order.emplace_back(g, r);
        });
        std::sort(order.begin(), order.end());
        for (auto& [g, r] : order) {
            s.io(g);
            std::uint64_t* row = &pool_[slot(r, 0)];
            for (std::uint32_t i = 0; i < width_; ++i)
                s.io_pod(row[i]);
        }
        return;
    }
    index_.clear();
    index_.reserve(static_cast<std::size_t>(granules));
    pool_.assign(static_cast<std::size_t>(granules) * width_, ABSENT);
    size_ = 0;
    for (std::uint64_t r = 0; r < granules; ++r) {
        std::uint64_t g = 0;
        s.io(g);
        index_.ref(g) = static_cast<std::uint32_t>(r + 1);
        for (std::size_t i = r * width_; i < (r + 1) * width_; ++i) {
            s.io_pod(pool_[i]);
            size_ += pool_[i] != ABSENT;
        }
    }
    TRIAGE_ASSERT(size_ == entries, "granule table entry count");
}

MisbConfig
isb_config(std::uint32_t degree)
{
    MisbConfig cfg;
    cfg.degree = degree;
    cfg.granule_entries = 64; // page-granular metadata movement
    cfg.metadata_prefetch = false;
    cfg.stream_ps_charge = false; // page residency covers the stream
    cfg.display_name = "isb";
    return cfg;
}

Misb::Misb(MisbConfig cfg)
    : cfg_(cfg),
      ps_backing_(cfg.granule_entries),
      sp_backing_(cfg.granule_entries),
      ps_cache_(cfg.ps_cache_entries, cfg.cache_ways),
      sp_cache_(cfg.sp_cache_entries, cfg.cache_ways),
      tu_(cfg.training_unit_entries),
      streams_(32),
      name_(cfg.display_name)
{
}

void
Misb::handle_eviction(const MetadataCache::Evicted& ev_entry,
                      const TrainEvent& ev, PrefetchHost& host)
{
    if (!ev_entry.valid || !ev_entry.dirty)
        return;
    // Fine-grained metadata management (MISB's central idea): dirty
    // 4-byte entries coalesce in a write buffer and drain to DRAM one
    // 64 B burst per granule_entries evictions, instead of a full line
    // per entry.
    if (++pending_dirty_ >= cfg_.granule_entries) {
        pending_dirty_ = 0;
        ++stats_.meta_offchip_writes;
        host.offchip_metadata_access(ev.core, ev.now, sim::BLOCK_SIZE,
                                     true, cfg_.charge_time);
    }
}

std::uint64_t
Misb::new_stream()
{
    const std::uint64_t s = next_structural_;
    next_structural_ += cfg_.stream_length;
    TRIAGE_ASSERT(next_structural_ < CONFIDENT,
                  "structural space overlaps the PS confidence bit");
    return s;
}

std::uint64_t&
Misb::ps_entry(sim::Addr phys)
{
    std::uint64_t* v = ps_backing_.find(phys);
    TRIAGE_ASSERT(v != nullptr, "confidence bit on an unmapped PS entry");
    return *v;
}

sim::Cycle
Misb::fetch_granule(bool is_ps, std::uint64_t first_key,
                    const TrainEvent& ev, PrefetchHost& host)
{
    // A granule of granule_entries 4-byte entries moves in 64 B bursts
    // (one burst for MISB's 16-entry granules, four for ISB's pages).
    std::uint64_t base =
        first_key / cfg_.granule_entries * cfg_.granule_entries;
    std::uint32_t bursts =
        std::max(1u, cfg_.granule_entries * 4 / 64);
    stats_.meta_offchip_reads += bursts;
    sim::Cycle done = host.offchip_metadata_access(
        ev.core, ev.now, bursts * sim::BLOCK_SIZE, false,
        cfg_.charge_time);
    const GranuleTable& backing = is_ps ? ps_backing_ : sp_backing_;
    MetadataCache& mcache = is_ps ? ps_cache_ : sp_cache_;
    const std::uint64_t* row = backing.row(base / cfg_.granule_entries);
    if (row == nullptr)
        return done;
    // Only PS values carry the confidence bit.
    const std::uint64_t mask = is_ps ? ~CONFIDENT : ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < cfg_.granule_entries; ++i) {
        if (row[i] == GranuleTable::ABSENT)
            continue;
        handle_eviction(mcache.insert(base + i, row[i] & mask, false), ev,
                        host);
    }
    return done;
}

std::uint64_t
Misb::ps_lookup(sim::Addr phys, const TrainEvent& ev, PrefetchHost& host,
                sim::Cycle& avail)
{
    avail = ev.now;
    if (auto v = ps_cache_.find(phys))
        return *v;
    // Bloom filter: untracked addresses never go off chip.
    const std::uint64_t* v = ps_backing_.find(phys);
    if (v == nullptr)
        return INVALID;
    const std::uint64_t structural = *v & ~CONFIDENT;
    avail = fetch_granule(true, phys, ev, host);
    return structural;
}

sim::Addr
Misb::sp_lookup(std::uint64_t structural, const TrainEvent& ev,
                PrefetchHost& host, sim::Cycle& avail)
{
    avail = ev.now;
    if (auto v = sp_cache_.find(structural))
        return *v;
    const std::uint64_t* v = sp_backing_.find(structural);
    if (v == nullptr)
        return INVALID;
    const sim::Addr phys = *v;
    avail = fetch_granule(false, structural, ev, host);
    return phys;
}

void
Misb::ps_update(sim::Addr phys, std::uint64_t structural,
                const TrainEvent& ev, PrefetchHost& host)
{
    ps_backing_.ref(phys) = structural;
    handle_eviction(ps_cache_.insert(phys, structural, true), ev, host);
}

void
Misb::sp_update(std::uint64_t structural, sim::Addr phys,
                const TrainEvent& ev, PrefetchHost& host)
{
    sp_backing_.ref(structural) = phys;
    handle_eviction(sp_cache_.insert(structural, phys, true), ev, host);
}

void
Misb::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // --- Predict from the current access. An active stream buffer
    // supplies the structural address without any PS access; only
    // stream starts pay for a PS lookup.
    sim::Cycle ps_avail = ev.now;
    std::uint64_t s = INVALID;
    ActiveStream* stream = nullptr;
    for (auto& st : streams_) {
        if (st.valid && st.expected_phys == ev.block) {
            s = st.structural;
            st.lru = ++stream_clock_;
            stream = &st;
            break;
        }
        if (stream == nullptr || !st.valid ||
            (stream->valid && st.lru < stream->lru)) {
            stream = &st; // LRU fallback for allocation below
        }
    }
    bool from_stream = s != INVALID;
    if (from_stream) {
        // The stream advanced onto this trigger. MISB's metadata
        // prefetcher staged the trigger's PS entry ahead of time —
        // which hides the latency (the prediction below proceeds at
        // ev.now) but not the traffic: PS entries live in physical
        // address space with no locality, so each staged trigger cost
        // one off-chip burst unless it was still cached.
        if (!ps_cache_.find(ev.block)) {
            if (cfg_.stream_ps_charge) {
                ++stats_.meta_offchip_reads;
                host.offchip_metadata_access(ev.core, ev.now,
                                             sim::BLOCK_SIZE, false,
                                             cfg_.charge_time);
            }
            handle_eviction(ps_cache_.insert(ev.block, s, false), ev,
                            host);
        }
    } else {
        s = ps_lookup(ev.block, ev, host, ps_avail);
    }
    if (s != INVALID) {
        sim::Addr first_target = INVALID;
        for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
            sim::Cycle sp_avail = ps_avail;
            sim::Addr target = sp_lookup(s + d, ev, host, sp_avail);
            if (target == INVALID)
                break;
            if (d == 1)
                first_target = target;
            if (target != ev.block)
                send(ev, host, target, std::max(ps_avail, sp_avail));
        }
        // Arm / advance the stream buffer for the predicted successor.
        if (first_target != INVALID) {
            stream->expected_phys = first_target;
            stream->structural = s + 1;
            stream->lru = ++stream_clock_;
            stream->valid = true;
        } else if (from_stream) {
            stream->valid = false; // stream ran off its mapped chunk
        }
        if (cfg_.metadata_prefetch &&
            (s + cfg_.degree + 1) % cfg_.granule_entries ==
                cfg_.granule_entries / 2) {
            // Walk-ahead metadata prefetch, once per granule per
            // stream: stage the next SP granule so upcoming lookups
            // hit on chip.
            std::uint64_t key =
                (s / cfg_.granule_entries + 1) * cfg_.granule_entries;
            if (sp_backing_.find(key) != nullptr &&
                !sp_cache_.find(key)) {
                fetch_granule(false, key, ev, host);
            }
        }
    }

    // --- Train on the PC-localized pair (last, current).
    TuEntry* e = nullptr;
    TuEntry* victim = &tu_[0];
    for (auto& t : tu_) {
        if (t.valid && t.pc == ev.pc) {
            e = &t;
            break;
        }
        if (!t.valid)
            victim = &t;
        else if (victim->valid && t.lru < victim->lru)
            victim = &t;
    }
    if (e == nullptr) {
        *victim = {ev.pc, ev.block, ++tu_clock_, true};
        return;
    }
    sim::Addr a = e->last;
    sim::Addr b = ev.block;
    e->last = b;
    e->lru = ++tu_clock_;
    if (a == b)
        return;

    sim::Cycle t_ignore = ev.now;
    std::uint64_t sa = ps_lookup(a, ev, host, t_ignore);
    if (sa == INVALID) {
        // Start a new structural stream for this correlation.
        sa = new_stream();
        ps_update(a, sa, ev, host);
        sp_update(sa, a, ev, host);
    }
    std::uint64_t expected = sa + 1;
    if (expected % cfg_.stream_length == 0) {
        // Stream chunk exhausted: B begins a new stream.
        expected = new_stream();
    }
    std::uint64_t sb = ps_lookup(b, ev, host, t_ignore);
    if (sb == expected) {
        ps_entry(b) |= CONFIDENT;
    } else if (sb != INVALID && sb % cfg_.stream_length == 0) {
        // B anchors its own stream chunk (a loop header or stream
        // head). Re-mapping it would shift its whole stream one slot
        // every lap of a cyclic structure; ISB leaves heads in place
        // and lets A's chunk simply end here.
    } else if (sb != INVALID && (ps_entry(b) & CONFIDENT) != 0) {
        // First disagreement: keep the existing mapping but clear its
        // confidence bit; a second one will trigger the remap.
        ps_entry(b) &= ~CONFIDENT;
    } else {
        ps_update(b, expected, ev, host);
        sp_update(expected, b, ev, host);
        ps_entry(b) |= CONFIDENT;
    }
}

} // namespace triage::prefetch
