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
    build(cfg.capacity_bytes);
}

void
MetadataStore::build(std::uint64_t bytes)
{
    capacity_bytes_ = bytes;
    std::uint64_t n_entries = bytes / cfg_.entry_bytes;
    std::uint64_t n_sets = n_entries / cfg_.line_entries;
    live_entries_ = 0;
    if (n_sets == 0) {
        sets_ = 0;
        entries_.clear();
        keys_.clear();
        repl_.reset();
        return;
    }
    // Round down to a power of two for cheap indexing.
    sets_ = static_cast<std::uint32_t>(util::floor_pow2(n_sets));
    entries_.assign(static_cast<std::size_t>(sets_) * cfg_.line_entries,
                    Entry{});
    keys_.assign(static_cast<std::size_t>(sets_) * cfg_.line_entries,
                 INVALID_KEY);
    repl_ = make_meta_repl(cfg_.repl, sets_, cfg_.line_entries);
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
MetadataStore::key_of_entry(const Entry& e) const
{
    if (cfg_.compressed_tags) {
        return (std::uint64_t{compressor_.set_of(e.full_trigger)} << 16) |
               e.trigger_ctag;
    }
    return e.full_trigger;
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
    // (32-byte entries: the first two lines cover ways 0-3).
    const Entry* erow = entries_.data() + base;
    __builtin_prefetch(erow, 1);
    __builtin_prefetch(reinterpret_cast<const char*>(erow) + 64, 1);
    if (repl_ != nullptr)
        repl_->prefetch_hint(set);
    if (cfg_.compressed_tags)
        compressor_.prefetch_hint(compressor_.tag_of(trigger));
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
        key = (std::uint64_t{compressor_.set_of(trigger)} << 16) | *id;
    } else {
        key = trigger;
    }
    const std::uint32_t way = find_way(base, key);
    if (way == NO_WAY)
        return lk;
    const Entry& e = entries_[base + way];
    if (e.full_trigger != trigger)
        ++stats_.tag_alias_drops;
    lk.hit = true;
    lk.confident = e.confident;
    lk.set = set;
    lk.way = way;
    lk.next = cfg_.compressed_tags
                  ? compressor_.combine(compressor_.decompress(e.next_ctag),
                                        e.next_set)
                  : e.full_next;
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
    if (lk.hit)
        repl_->on_hit(lk.set, lk.way, trigger, pc, visible);
    else
        repl_->on_miss(set_of(trigger), trigger, pc, visible);
}

void
MetadataStore::update(sim::Addr trigger, sim::Addr next, sim::Pc pc)
{
    if (sets_ == 0)
        return;
    ++stats_.updates;
    const std::uint32_t set = set_of(trigger);
    const std::size_t base =
        static_cast<std::size_t>(set) * cfg_.line_entries;
    std::uint64_t trig_tag = 0;
    std::uint32_t way = NO_WAY;
    if (cfg_.compressed_tags) {
        trig_tag = compressor_.tag_of(trigger);
        auto id = compressor_.find(trig_tag);
        if (id.has_value()) {
            way = find_way(base,
                           (std::uint64_t{compressor_.set_of(trigger)}
                            << 16) |
                               *id);
        }
    } else {
        way = find_way(base, trigger);
    }
    if (way != NO_WAY) {
        Entry& e = entries_[base + way];
        if (e.full_trigger != trigger)
            ++stats_.tag_alias_drops;
        if (e.full_next == next) {
            e.confident = true;
        } else if (e.confident) {
            e.confident = false; // first disagreement: keep successor
        } else {
            // Second disagreement: adopt the new successor (it must
            // confirm once more before prefetching when entries start
            // unconfident).
            ++stats_.confidence_flips;
            e.full_next = next;
            if (cfg_.compressed_tags) {
                e.next_ctag =
                    compressor_.compress(compressor_.tag_of(next));
                e.next_set = compressor_.set_of(next);
            }
            e.confident = cfg_.insert_confident;
        }
        // A metadata write refreshes recency but is invisible to the
        // filtered Hawkeye training (only prefetch-producing reads are).
        repl_->on_hit(set, way, trigger, pc, false);
        return;
    }

    // Install a fresh correlation, preferring the first empty way.
    std::uint32_t target = find_way(base, INVALID_KEY);
    if (target == NO_WAY) {
        target = repl_->victim(set);
        TRIAGE_ASSERT(target < cfg_.line_entries);
        repl_->on_invalidate(set, target);
        ++stats_.evictions;
        --live_entries_;
        if (trace_ != nullptr)
            trace_->emit(obs::EventKind::MetaEvict, set, target);
    }
    Entry& n = entries_[base + target];
    n.full_trigger = trigger;
    n.full_next = next;
    n.confident = cfg_.insert_confident;
    n.valid = true;
    if (cfg_.compressed_tags) {
        n.trigger_ctag = compressor_.compress(trig_tag);
        n.next_ctag = compressor_.compress(compressor_.tag_of(next));
        n.next_set = compressor_.set_of(next);
    }
    keys_[base + target] = key_of_entry(n);
    ++live_entries_;
    repl_->on_insert(set, target, trigger, pc);
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
    std::vector<Entry> survivors;
    survivors.reserve(valid_entries());
    for (const auto& e : entries_) {
        if (e.valid)
            survivors.push_back(e);
    }
    build(bytes);
    if (sets_ == 0)
        return;
    // Rehash survivors into the new geometry; overflow is discarded
    // (the paper invalidates repartitioned lines — we are slightly
    // kinder and keep whatever still fits).
    for (const auto& s : survivors) {
        std::uint32_t set = set_of(s.full_trigger);
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.line_entries;
        std::uint32_t w = find_way(base, INVALID_KEY);
        if (w == NO_WAY)
            continue;
        entries_[base + w] = s;
        keys_[base + w] = key_of_entry(s);
        ++live_entries_;
        repl_->on_insert(set, w, s.full_trigger, 0);
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
    for (const auto& e : entries_)
        n += e.valid ? 1 : 0;
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
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        if (e.valid && keys_[i] != key_of_entry(e)) {
            report("metadata store: slot " + std::to_string(i) +
                   " search key " + std::to_string(keys_[i]) +
                   " does not mirror its entry (expect " +
                   std::to_string(key_of_entry(e)) + ")");
        }
        if (!e.valid && keys_[i] != INVALID_KEY) {
            report("metadata store: slot " + std::to_string(i) +
                   " invalid but search key " +
                   std::to_string(keys_[i]) + " live");
        }
    }
}

} // namespace triage::core
