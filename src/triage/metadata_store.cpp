#include "triage/metadata_store.hpp"

#include "obs/event_trace.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::core {

MetadataStore::MetadataStore(MetadataStoreConfig cfg)
    : cfg_(cfg), capacity_bytes_(0)
{
    TRIAGE_ASSERT(cfg_.line_entries > 0);
    TRIAGE_ASSERT(cfg_.entry_bytes > 0);
    if (cfg_.repl != sim::ReplPolicy::Lru &&
        cfg_.repl != sim::ReplPolicy::Hawkeye) {
        util::fatal("MetadataStore: replacement policy must be Lru or "
                    "Hawkeye (SRRIP, DRRIP and SHiP are data-cache "
                    "policies only)");
    }
    build(cfg.capacity_bytes);
}

void
MetadataStore::build(std::uint64_t bytes)
{
    capacity_bytes_ = bytes;
    std::uint64_t n_entries = bytes / cfg_.entry_bytes;
    std::uint64_t n_sets = n_entries / cfg_.line_entries;
    live_entries_ = 0;
    // Fresh exact-size arrays, so a shrink hands its pages back (an
    // assign() would keep the old capacity).
    repl_.reset();
    // Round down to a power of two for cheap indexing.
    sets_ = n_sets == 0
                ? 0
                : static_cast<std::uint32_t>(util::floor_pow2(n_sets));
    const std::size_t n = static_cast<std::size_t>(sets_) * cfg_.line_entries;
    entries_ = std::vector<Entry>(n);
    keys_ = std::vector<std::uint64_t>(n, INVALID_KEY);
    next_ctags_ = std::vector<std::uint16_t>(n, 0);
    if (sets_ == 0)
        return;
    repl_ = cache::make_policy(cfg_.repl, sets_, cfg_.line_entries);
    // Counters live in the store so the policy rebuild keeps them.
    repl_->bind_stats(&repl_stats_);
}

std::uint32_t
MetadataStore::set_of(sim::Addr trigger) const
{
    return static_cast<std::uint32_t>(util::mix64(trigger)) & (sets_ - 1);
}

std::uint32_t
MetadataStore::find_way(std::size_t base, std::uint64_t key) const
{
    // Scan of the packed key row (NPOS and NO_WAY are both all-ones),
    // matching the cache tag scan.
    return util::find_first_eq(keys_.data() + base, cfg_.line_entries,
                               key);
}

std::uint64_t
MetadataStore::key_of(sim::Addr trigger, std::uint16_t ctag) const
{
    if (cfg_.compressed_tags)
        return (std::uint64_t{compressor_.set_of(trigger)} << 16) | ctag;
    return trigger;
}

void
MetadataStore::prefetch_hint(sim::Addr trigger) const
{
    if (sets_ == 0)
        return;
    const std::uint32_t set = set_of(trigger);
    const std::size_t base =
        static_cast<std::size_t>(set) * cfg_.line_entries;
    const std::uint64_t* row = keys_.data() + base;
    __builtin_prefetch(row);
    if (cfg_.line_entries > 8) // a 16-entry key row spans two 64 B lines
        __builtin_prefetch(row + 8);
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
    const std::size_t base =
        static_cast<std::size_t>(set) * cfg_.line_entries;
    std::uint64_t key;
    if (cfg_.compressed_tags) {
        // Sub-tag match: compressed tag plus the trigger's set id
        // (implicit in a real set-associative layout, explicit here
        // because we hash rather than slice the index).
        auto id = compressor_.find(compressor_.tag_of(trigger));
        if (!id.has_value())
            return lk;
        key = key_of(trigger, *id);
    } else {
        key = trigger;
    }
    const std::uint32_t way = find_way(base, key);
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
    const std::size_t base =
        static_cast<std::size_t>(set) * cfg_.line_entries;
    std::uint64_t trig_tag = 0;
    std::uint32_t way = NO_WAY;
    if (cfg_.compressed_tags) {
        trig_tag = compressor_.tag_of(trigger);
        auto id = compressor_.find(trig_tag);
        if (id.has_value())
            way = find_way(base, key_of(trigger, *id));
    } else {
        way = find_way(base, trigger);
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
            // confirm once more before prefetching when entries start
            // unconfident).
            ++stats_.confidence_flips;
            e.full_next = next | (cfg_.insert_confident ? CONFIDENT : 0);
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
    std::uint32_t target = find_way(base, INVALID_KEY);
    if (target == NO_WAY) {
        target = repl_->victim(set, 0, cfg_.line_entries);
        TRIAGE_ASSERT(target < cfg_.line_entries);
        repl_->on_invalidate(set, target);
        ++stats_.evictions;
        --live_entries_;
        if (trace_ != nullptr)
            trace_->emit(obs::EventKind::MetaEvict, set, target);
    }
    entries_[base + target] = {
        trigger, next | (cfg_.insert_confident ? CONFIDENT : 0)};
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
    const std::vector<Entry> old_entries = std::move(entries_);
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint16_t> old_ctags = std::move(next_ctags_);
    build(bytes);
    if (sets_ == 0)
        return;
    // Rehash live entries, in old slot order, into the new geometry;
    // overflow is discarded (the paper invalidates repartitioned lines
    // — we are slightly kinder and keep whatever still fits). A search
    // key does not depend on the store geometry, so it moves as is.
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (old_keys[i] == INVALID_KEY)
            continue;
        const sim::Addr trigger = old_entries[i].full_trigger;
        const std::uint32_t set = set_of(trigger);
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.line_entries;
        const std::uint32_t w = find_way(base, INVALID_KEY);
        if (w == NO_WAY)
            continue;
        entries_[base + w] = old_entries[i];
        keys_[base + w] = old_keys[i];
        next_ctags_[base + w] = old_ctags[i];
        ++live_entries_;
        repl_->on_insert({.set = set, .way = w, .tag = trigger});
    }
}

std::uint64_t
MetadataStore::capacity_entries() const
{
    return static_cast<std::uint64_t>(sets_) * cfg_.line_entries;
}

std::uint64_t
MetadataStore::count_valid_entries_slow() const
{
    std::uint64_t n = 0;
    for (std::uint64_t k : keys_)
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
        const std::uint64_t key = keys_[i];
        if (key == INVALID_KEY) {
            if (e.full_trigger != 0 || e.full_next != 0 ||
                next_ctags_[i] != 0) {
                report("metadata store: empty slot " + std::to_string(i) +
                       " holds a stale entry or successor ctag");
            }
            continue;
        }
        const std::uint64_t expect =
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
