#include "prefetch/misb.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::prefetch {

std::uint32_t
meta_set(const MetaCache& cache, std::uint64_t key)
{
    return static_cast<std::uint32_t>(util::mix64(key) &
                                      (cache.sets() - 1));
}

namespace {

/** Probe @p cache for @p key (an LRU touch on a hit). */
const MetaLine*
meta_find(MetaCache& cache, std::uint64_t key)
{
    return cache.find(meta_set(cache, key), key);
}

} // namespace

std::optional<MetaCache::Entry>
meta_write(MetaCache& cache, std::uint64_t key, std::uint64_t value,
           bool dirty)
{
    const std::uint32_t set = meta_set(cache, key);
    if (MetaLine* line = cache.find(set, key)) {
        line->value = value;
        line->dirty |= dirty;
        return std::nullopt;
    }
    return cache.insert(set, key, {value, dirty});
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
      ps_cache_(PS_CACHE_ENTRIES / CACHE_WAYS, CACHE_WAYS),
      sp_cache_(SP_CACHE_ENTRIES / CACHE_WAYS, CACHE_WAYS),
      tu_(TRAINING_UNIT_ENTRIES),
      streams_(32),
      name_(cfg.display_name)
{
}

void
Misb::cache_write(MetaCache& cache, std::uint64_t key, std::uint64_t value,
                  bool dirty, const TrainEvent& ev, PrefetchHost& host)
{
    const auto evicted = meta_write(cache, key, value, dirty);
    if (!evicted || !evicted->value.dirty)
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
    MetaCache& mcache = is_ps ? ps_cache_ : sp_cache_;
    const std::uint64_t* row = backing.row(base / cfg_.granule_entries);
    if (row == nullptr)
        return done;
    // Only PS values carry the confidence bit.
    const std::uint64_t mask = is_ps ? ~CONFIDENT : ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < cfg_.granule_entries; ++i) {
        if (row[i] == GranuleTable::ABSENT)
            continue;
        cache_write(mcache, base + i, row[i] & mask, false, ev, host);
    }
    return done;
}

std::uint64_t
Misb::ps_lookup(sim::Addr phys, const TrainEvent& ev, PrefetchHost& host,
                sim::Cycle& avail)
{
    avail = ev.now;
    if (const MetaLine* line = meta_find(ps_cache_, phys))
        return line->value;
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
    if (const MetaLine* line = meta_find(sp_cache_, structural))
        return line->value;
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
    cache_write(ps_cache_, phys, structural, true, ev, host);
}

void
Misb::sp_update(std::uint64_t structural, sim::Addr phys,
                const TrainEvent& ev, PrefetchHost& host)
{
    sp_backing_.ref(structural) = phys;
    cache_write(sp_cache_, structural, phys, true, ev, host);
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
        if (meta_find(ps_cache_, ev.block) == nullptr) {
            if (cfg_.stream_ps_charge) {
                ++stats_.meta_offchip_reads;
                host.offchip_metadata_access(ev.core, ev.now,
                                             sim::BLOCK_SIZE, false,
                                             cfg_.charge_time);
            }
            cache_write(ps_cache_, ev.block, s, false, ev, host);
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
                meta_find(sp_cache_, key) == nullptr) {
                fetch_granule(false, key, ev, host);
            }
        }
    }

    // --- Train on the PC-localized pair (last, current).
    const std::optional<sim::Addr> last = tu_.update(ev.pc, ev.block);
    if (!last)
        return;
    const sim::Addr a = *last;
    const sim::Addr b = ev.block;

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
