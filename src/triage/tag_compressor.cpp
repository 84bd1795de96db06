#include "triage/tag_compressor.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::core {

TagCompressor::TagCompressor(TagCompressorConfig cfg)
    : cfg_(cfg), slots_(1u << cfg.id_bits),
      map_tags_(std::size_t{1} << (cfg.id_bits + 2), MAP_EMPTY),
      map_ids_(std::size_t{1} << (cfg.id_bits + 2), 0),
      lru_prev_(slots_.size(), LRU_NIL), lru_next_(slots_.size(), LRU_NIL)
{
    TRIAGE_ASSERT(cfg.id_bits >= 1 && cfg.id_bits <= 16);
    map_mask_ = map_tags_.size() - 1;
}

std::size_t
TagCompressor::map_home(std::uint64_t tag) const
{
    return static_cast<std::size_t>(util::mix64(tag)) & map_mask_;
}

std::size_t
TagCompressor::map_probe(std::uint64_t tag) const
{
    // Linear probe == "first slot holding my tag or the empty
    // sentinel, scanning from home with wraparound" — one
    // find-first-of-two per contiguous region (at most two regions).
    const std::uint64_t* t = map_tags_.data();
    const std::size_t n = map_tags_.size();
    const std::size_t home = map_home(tag);
    std::uint32_t r = util::find_first_eq_either(
        t + home, static_cast<std::uint32_t>(n - home), tag, MAP_EMPTY);
    if (r != util::NPOS)
        return home + r;
    r = util::find_first_eq_either(
        t, static_cast<std::uint32_t>(home), tag, MAP_EMPTY);
    TRIAGE_ASSERT(r != util::NPOS,
                  "probe table full (load is capped at 25%)");
    return r;
}

const std::uint16_t*
TagCompressor::id_lookup(std::uint64_t tag) const
{
    if (tag == MAP_EMPTY)
        return empty_tag_valid_ ? &empty_tag_id_ : nullptr;
    const std::size_t i = map_probe(tag);
    return map_tags_[i] == tag ? &map_ids_[i] : nullptr;
}

void
TagCompressor::map_insert(std::uint64_t tag, std::uint16_t id)
{
    if (tag == MAP_EMPTY) { // side slot: sentinel-valued tag
        empty_tag_valid_ = true;
        empty_tag_id_ = id;
        return;
    }
    const std::size_t i = map_probe(tag);
    map_tags_[i] = tag;
    map_ids_[i] = id;
}

void
TagCompressor::map_erase(std::uint64_t tag)
{
    if (tag == MAP_EMPTY) {
        empty_tag_valid_ = false;
        return;
    }
    const std::size_t i0 = map_probe(tag);
    if (map_tags_[i0] != tag)
        return;
    std::size_t i = i0;
    // Backward-shift deletion (Knuth 6.4 R): pull later cluster
    // members whose home slot precedes the hole back over it, so
    // probes never need tombstones.
    std::size_t j = i;
    while (true) {
        map_tags_[i] = MAP_EMPTY;
        std::size_t home;
        do {
            j = (j + 1) & map_mask_;
            if (map_tags_[j] == MAP_EMPTY)
                return;
            home = map_home(map_tags_[j]);
        } while (i <= j ? (i < home && home <= j)
                        : (i < home || home <= j));
        map_tags_[i] = map_tags_[j];
        map_ids_[i] = map_ids_[j];
        i = j;
    }
}

void
TagCompressor::map_rebuild()
{
    map_tags_.assign(map_tags_.size(), MAP_EMPTY);
    map_ids_.assign(map_ids_.size(), 0);
    empty_tag_valid_ = false;
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id].valid)
            map_insert(slots_[id].tag, static_cast<std::uint16_t>(id));
    }
}

void
TagCompressor::lru_unlink(std::uint32_t id)
{
    const std::uint32_t p = lru_prev_[id];
    const std::uint32_t n = lru_next_[id];
    (p == LRU_NIL ? lru_head_ : lru_next_[p]) = n;
    (n == LRU_NIL ? lru_tail_ : lru_prev_[n]) = p;
}

void
TagCompressor::lru_append(std::uint32_t id)
{
    lru_prev_[id] = lru_tail_;
    lru_next_[id] = LRU_NIL;
    (lru_tail_ == LRU_NIL ? lru_head_ : lru_next_[lru_tail_]) = id;
    lru_tail_ = id;
}

void
TagCompressor::lru_rebuild()
{
    lru_head_ = lru_tail_ = LRU_NIL;
    std::vector<std::uint32_t> order;
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id].valid)
            order.push_back(id);
    }
    // Ties (only a hand-built snapshot has them) go to the lower id,
    // as the scan's strict less-than did.
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return slots_[a].lru < slots_[b].lru;
                     });
    for (std::uint32_t id : order)
        lru_append(id);
    next_free_ = 0;
    while (next_free_ < slots_.size() && slots_[next_free_].valid)
        ++next_free_;
}

std::uint16_t
TagCompressor::compress(std::uint64_t tag)
{
    if (const std::uint16_t* hit = id_lookup(tag)) {
        slots_[*hit].lru = ++clock_;
        lru_unlink(*hit);
        lru_append(*hit);
        return *hit;
    }
    // Fill the lowest never-used id, then recycle the LRU one. 32-bit
    // ids: at id_bits = 16, slots_.size() is 65536, which a 16-bit
    // index never reaches.
    std::uint32_t victim;
    if (next_free_ < slots_.size()) {
        victim = next_free_;
        do
            ++next_free_;
        while (next_free_ < slots_.size() && slots_[next_free_].valid);
    } else {
        victim = lru_head_;
        lru_unlink(victim);
        map_erase(slots_[victim].tag);
        ++recycles_;
    }
    slots_[victim] = {tag, ++clock_, true};
    lru_append(victim);
    const auto id = static_cast<std::uint16_t>(victim);
    map_insert(tag, id);
    return id;
}

std::optional<std::uint16_t>
TagCompressor::find(std::uint64_t tag) const
{
    if (const std::uint16_t* hit = id_lookup(tag))
        return *hit;
    return std::nullopt;
}

std::uint64_t
TagCompressor::decompress(std::uint16_t id) const
{
    TRIAGE_ASSERT(id < slots_.size());
    return slots_[id].tag;
}

} // namespace triage::core
