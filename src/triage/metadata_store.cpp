#include "triage/metadata_store.hpp"

#include "obs/event_trace.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::core {

MetadataStore::MetadataStore(MetadataStoreConfig cfg)
    : cfg_(cfg), capacity_bytes_(0)
{
    set_geometry(cfg.capacity_bytes);
    rebuild_policy();
}

std::uint32_t
MetadataStore::sets_for(std::uint64_t bytes) const
{
    const std::uint64_t n_sets = bytes / ENTRY_BYTES / LINE_ENTRIES;
    // Round down to a power of two for cheap indexing.
    return n_sets == 0 ? 0
                       : static_cast<std::uint32_t>(util::floor_pow2(n_sets));
}

void
MetadataStore::set_geometry(std::uint64_t bytes)
{
    capacity_bytes_ = bytes;
    sets_ = sets_for(bytes);
    // resize() keeps the capacity on a shrink and fills only the new
    // tail with empty slots on a grow.
    const std::size_t n = static_cast<std::size_t>(sets_) * LINE_ENTRIES;
    entries_.resize(n);
    keys_.resize(n, INVALID_KEY);
    next_ctags_.resize(n, 0);
}

void
MetadataStore::rebuild_policy()
{
    // Release the old policy before building the new one, so its
    // arrays can be reused for the new geometry's.
    repl_.reset();
    if (sets_ == 0)
        return;
    repl_ = cache::make_policy(static_cast<sim::ReplPolicy>(cfg_.repl),
                               sets_, LINE_ENTRIES);
    // Counters live in the store so the policy rebuild keeps them.
    repl_->bind_stats(&repl_stats_);
}

std::uint32_t
MetadataStore::set_of(sim::Addr trigger) const
{
    return static_cast<std::uint32_t>(util::mix64(trigger)) & (sets_ - 1);
}

std::uint32_t
MetadataStore::find_way(std::size_t base, sim::Addr trigger,
                        std::uint32_t key) const
{
    // Scan of the packed key row (NPOS and NO_WAY are both all-ones),
    // matching the cache tag scan.
    const std::uint32_t* row = keys_.data() + base;
    std::uint32_t way = util::find_first_eq(row, LINE_ENTRIES, key);
    if (cfg_.compressed_tags)
        return way;
    // A folded key can be shared: skip to the next match until the
    // entry holds the trigger itself.
    while (way != NO_WAY && entries_[base + way].full_trigger != trigger) {
        const std::uint32_t rest = util::find_first_eq(
            row + way + 1, LINE_ENTRIES - way - 1, key);
        way = rest == util::NPOS ? NO_WAY : way + 1 + rest;
    }
    return way;
}

std::uint32_t
MetadataStore::find_empty(std::size_t base) const
{
    return util::find_first_eq(keys_.data() + base, LINE_ENTRIES, INVALID_KEY);
}

std::uint32_t
MetadataStore::key_of(sim::Addr trigger, std::uint16_t ctag) const
{
    if (cfg_.compressed_tags)
        return (std::uint32_t{compressor_.set_of(trigger)} << 16) | ctag;
    const auto fold = static_cast<std::uint32_t>(trigger ^ (trigger >> 32));
    return fold == INVALID_KEY ? INVALID_KEY - 1 : fold;
}

void
MetadataStore::prefetch_hint(sim::Addr trigger) const
{
    if (sets_ == 0)
        return;
    const std::uint32_t set = set_of(trigger);
    const std::size_t base = static_cast<std::size_t>(set) * LINE_ENTRIES;
    // A 16-entry key row is 64 bytes, which straddles two host lines
    // unless 64-byte aligned: pull both ends.
    const std::uint32_t* row = keys_.data() + base;
    __builtin_prefetch(row);
    __builtin_prefetch(row + LINE_ENTRIES - 1);
    // A probe hit or update dereferences the matching Entry; the way is
    // unknown until the key scan, so pull the front of the entry row
    // (16-byte entries: the first two lines cover ways 0-7).
    const Entry* erow = entries_.data() + base;
    __builtin_prefetch(erow, 1);
    __builtin_prefetch(erow + 4, 1);
    if (repl_ != nullptr)
        repl_->prefetch_hint(set);
    if (cfg_.compressed_tags) {
        // A hit decodes the successor ctag (a 16-way row is 32 bytes).
        __builtin_prefetch(next_ctags_.data() + base, 1);
        compressor_.prefetch_hint(compressor_.tag_of(trigger));
    }
}

MetaLookup
MetadataStore::probe(sim::Addr trigger)
{
    ++stats_.lookups;
    MetaLookup lk;
    if (sets_ == 0)
        return lk;
    const std::uint32_t set = set_of(trigger);
    const std::size_t base = static_cast<std::size_t>(set) * LINE_ENTRIES;
    std::uint16_t ctag = 0;
    if (cfg_.compressed_tags) {
        // Sub-tag match: compressed tag plus the trigger's set id
        // (implicit in a real set-associative layout, explicit here
        // because we hash rather than slice the index).
        auto id = compressor_.find(compressor_.tag_of(trigger));
        if (!id.has_value())
            return lk;
        ctag = *id;
    }
    const std::uint32_t way = find_way(base, trigger, key_of(trigger, ctag));
    if (way == NO_WAY)
        return lk;
    const Entry& e = entries_[base + way];
    if (e.full_trigger != trigger)
        ++stats_.tag_alias_drops;
    const sim::Addr next = e.full_next & ~CONFIDENT;
    lk.hit = true;
    lk.confident = (e.full_next & CONFIDENT) != 0;
    lk.set = set;
    lk.way = way;
    lk.next = cfg_.compressed_tags
                  ? compressor_.combine(
                        compressor_.decompress(next_ctags_[base + way]),
                        compressor_.set_of(next))
                  : next;
    ++stats_.hits;
    if (trace_ != nullptr)
        trace_->emit(obs::EventKind::MetaHit, trigger, lk.next);
    return lk;
}

void
MetadataStore::commit_access(sim::Addr trigger, const MetaLookup& lk,
                             sim::Pc pc, bool visible)
{
    if (repl_ == nullptr)
        return;
    ++(visible ? repl_stats_.visible_events : repl_stats_.hidden_events);
    // Predict, then train: a hit's RRPV comes from the predictor as it
    // stood before this access, and only a visible access (one whose
    // prefetch went to memory) reaches OPTgen and the predictor.
    if (lk.hit) {
        repl_->on_hit(
            {.set = lk.set, .way = lk.way, .tag = trigger, .pc = pc,
             .train = false});
    }
    if (visible)
        repl_->on_miss(set_of(trigger), trigger, pc);
}

void
MetadataStore::update(sim::Addr trigger, sim::Addr next, sim::Pc pc)
{
    if (sets_ == 0)
        return;
    TRIAGE_ASSERT(trigger < BLOCK_LIMIT && next < BLOCK_LIMIT,
                  "metadata store takes block addresses");
    ++stats_.updates;
    const std::uint32_t set = set_of(trigger);
    const std::size_t base = static_cast<std::size_t>(set) * LINE_ENTRIES;
    std::uint64_t trig_tag = 0;
    std::uint32_t way = NO_WAY;
    if (cfg_.compressed_tags) {
        trig_tag = compressor_.tag_of(trigger);
        auto id = compressor_.find(trig_tag);
        if (id.has_value())
            way = find_way(base, trigger, key_of(trigger, *id));
    } else {
        way = find_way(base, trigger, key_of(trigger, 0));
    }
    if (way != NO_WAY) {
        Entry& e = entries_[base + way];
        if (e.full_trigger != trigger)
            ++stats_.tag_alias_drops;
        if ((e.full_next & ~CONFIDENT) == next) {
            e.full_next = next | CONFIDENT;
        } else if ((e.full_next & CONFIDENT) != 0) {
            e.full_next &= ~CONFIDENT; // first disagreement: keep successor
        } else {
            // Second disagreement: adopt the new successor (it must
            // confirm once more before prefetching).
            ++stats_.confidence_flips;
            e.full_next = next;
            if (cfg_.compressed_tags) {
                next_ctags_[base + way] =
                    compressor_.compress(compressor_.tag_of(next));
            }
        }
        // A metadata write refreshes recency but is invisible to the
        // filtered Hawkeye training (only prefetch-producing reads are).
        ++repl_stats_.hidden_events;
        repl_->on_hit({.set = set, .way = way, .tag = trigger, .pc = pc,
                       .train = false});
        return;
    }

    // Install a fresh correlation, preferring the first empty way.
    std::uint32_t target = find_empty(base);
    if (target == NO_WAY) {
        target = repl_->victim(set, 0, LINE_ENTRIES);
        TRIAGE_ASSERT(target < LINE_ENTRIES);
        repl_->on_invalidate(set, target);
        ++stats_.evictions;
        --live_entries_;
        if (trace_ != nullptr)
            trace_->emit(obs::EventKind::MetaEvict, set, target);
    }
    entries_[base + target] = {trigger, next};
    std::uint16_t trig_ctag = 0;
    if (cfg_.compressed_tags) {
        trig_ctag = compressor_.compress(trig_tag);
        next_ctags_[base + target] =
            compressor_.compress(compressor_.tag_of(next));
    }
    keys_[base + target] = key_of(trigger, trig_ctag);
    ++live_entries_;
    repl_->on_insert({.set = set, .way = target, .tag = trigger, .pc = pc});
    ++stats_.inserts;
    if (trace_ != nullptr)
        trace_->emit(obs::EventKind::MetaInsert, trigger, next);
}

void
MetadataStore::resize(std::uint64_t bytes)
{
    if (bytes == capacity_bytes_)
        return;
    if (trace_ != nullptr)
        trace_->emit(obs::EventKind::MetaResize, bytes, capacity_bytes_);
    TRIAGE_LOG_DEBUG("metadata store: resize ", capacity_bytes_ >> 10,
                     " KB -> ", bytes >> 10, " KB (", valid_entries(),
                     " live entries)");
    const std::uint32_t old_sets = sets_;
    const std::uint32_t new_sets = sets_for(bytes);
    const std::size_t ways = LINE_ENTRIES;
    // Grow the arrays before the rehash and shrink them after it, so
    // the slots of both geometries exist while entries move.
    if (new_sets > old_sets)
        set_geometry(bytes);
    sets_ = new_sets;
    // Rehash in place, in old slot order, into the new geometry;
    // overflow is discarded (the paper invalidates repartitioned lines
    // — we are slightly kinder and keep whatever still fits). Both set
    // counts are powers of two, so an old set s feeds only new sets
    // congruent to s modulo the smaller count. New set s's row, for s
    // below both counts, is old set s's own row: it takes entries from
    // old set s and, on a shrink, from old sets past new_sets, visited
    // later. Every other new row lies past old_sets (a grow) and is
    // never a source. So the first empty way an entry finds never
    // holds an entry still to be moved. A search key does not depend
    // on the store geometry, so it moves as is.
    const std::size_t old_slots = static_cast<std::size_t>(old_sets) * ways;
    if (new_sets == 0)
        live_entries_ = 0;
    for (std::size_t i = 0; new_sets != 0 && i < old_slots; ++i) {
        if (keys_[i] == INVALID_KEY)
            continue;
        const Entry e = entries_[i];
        const std::uint32_t key = keys_[i];
        const std::uint16_t ctag = next_ctags_[i];
        entries_[i] = {};
        keys_[i] = INVALID_KEY;
        next_ctags_[i] = 0;
        const std::size_t base =
            static_cast<std::size_t>(set_of(e.full_trigger)) * ways;
        const std::uint32_t to = find_empty(base);
        if (to == NO_WAY) {
            --live_entries_;
            continue;
        }
        entries_[base + to] = e;
        keys_[base + to] = key;
        next_ctags_[base + to] = ctag;
    }
    set_geometry(bytes);
    rebuild_policy();
    // Replay the survivors' inserts in slot order, which is each new
    // set's insertion order.
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == INVALID_KEY)
            continue;
        repl_->on_insert(
            {.set = static_cast<std::uint32_t>(i / ways),
             .way = static_cast<std::uint32_t>(i % ways),
             .tag = entries_[i].full_trigger});
    }
}

std::uint64_t
MetadataStore::capacity_entries() const
{
    return static_cast<std::uint64_t>(sets_) * LINE_ENTRIES;
}

std::uint64_t
MetadataStore::count_valid_entries_slow() const
{
    std::uint64_t n = 0;
    for (std::uint32_t k : keys_)
        n += k != INVALID_KEY ? 1 : 0;
    return n;
}

void
MetadataStore::self_check(
    const std::function<void(const std::string&)>& report) const
{
    const std::uint64_t slow = count_valid_entries_slow();
    if (slow != live_entries_) {
        report("metadata store: live-entry counter " +
               std::to_string(live_entries_) + " != table scan " +
               std::to_string(slow));
    }
    if (live_entries_ > capacity_entries()) {
        report("metadata store: " + std::to_string(live_entries_) +
               " live entries exceed capacity " +
               std::to_string(capacity_entries()));
    }
    if (keys_.size() != entries_.size() ||
        next_ctags_.size() != entries_.size()) {
        report("metadata store: parallel arrays disagree in size");
        return;
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const std::uint32_t key = keys_[i];
        if (key == INVALID_KEY) {
            if (e.full_trigger != 0 || e.full_next != 0 ||
                next_ctags_[i] != 0) {
                report("metadata store: empty slot " + std::to_string(i) +
                       " holds a stale entry or successor ctag");
            }
            continue;
        }
        const std::uint32_t expect =
            key_of(e.full_trigger, static_cast<std::uint16_t>(key));
        if (key != expect) {
            report("metadata store: slot " + std::to_string(i) +
                   " search key " + std::to_string(key) +
                   " does not mirror its entry (expect " +
                   std::to_string(expect) + ")");
        }
    }
}

} // namespace triage::core
