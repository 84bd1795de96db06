#include "triage/tag_compressor.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace triage::core {

TagCompressor::TagCompressor(TagCompressorConfig cfg)
    : cfg_(cfg), slots_(1u << cfg.id_bits),
      lru_prev_(slots_.size(), LRU_NIL), lru_next_(slots_.size(), LRU_NIL)
{
    TRIAGE_ASSERT(cfg.id_bits >= 1 && cfg.id_bits <= 16);
    ids_.reserve(capacity());
}

const std::uint16_t*
TagCompressor::id_lookup(std::uint64_t tag) const
{
    if (tag == EMPTY_TAG)
        return empty_tag_valid_ ? &empty_tag_id_ : nullptr;
    return ids_.find(tag);
}

void
TagCompressor::bind_id(std::uint64_t tag, std::uint16_t id)
{
    if (tag == EMPTY_TAG) {
        empty_tag_valid_ = true;
        empty_tag_id_ = id;
        return;
    }
    ids_.ref(tag) = id;
}

void
TagCompressor::unbind_id(std::uint64_t tag)
{
    if (tag == EMPTY_TAG)
        empty_tag_valid_ = false;
    else
        ids_.erase(tag);
}

void
TagCompressor::rebuild_ids()
{
    ids_.clear();
    empty_tag_valid_ = false;
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id].valid)
            bind_id(slots_[id].tag, static_cast<std::uint16_t>(id));
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
        unbind_id(slots_[victim].tag);
        ++recycles_;
    }
    slots_[victim] = {tag, ++clock_, true};
    lru_append(victim);
    const auto id = static_cast<std::uint16_t>(victim);
    bind_id(tag, id);
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
