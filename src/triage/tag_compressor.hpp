/**
 * @file
 * Compressed-tag lookup table (paper Section 3.2).
 *
 * Each metadata entry must fit in 4 bytes, but a block address carries
 * a tag far wider than 10 bits. Triage interposes a lookup table that
 * assigns each distinct full tag a 10-bit id; entries store ids and the
 * table expands them back. The table is finite, so hot tags can evict
 * cold ones — metadata that still references the recycled id silently
 * decodes to the *new* tag and yields an inaccurate prefetch, exactly
 * the failure mode real hardware would have.
 */
#ifndef TRIAGE_CORE_TAG_COMPRESSOR_HPP
#define TRIAGE_CORE_TAG_COMPRESSOR_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "util/flat_map.hpp"

namespace triage::core {

/** Width of the compressed id. */
struct TagCompressorConfig {
    std::uint32_t id_bits = 10; ///< 1024 live tags
};

/** Bidirectional full-tag <-> compressed-id table with LRU recycling. */
class TagCompressor
{
  public:
    /** Low bits of a block address kept uncompressed: the set index
     *  of the Table 1 LLC. */
    static constexpr std::uint32_t SET_BITS = 11;

    explicit TagCompressor(TagCompressorConfig cfg = {});

    /** Split helpers. */
    static std::uint64_t tag_of(sim::Addr block) { return block >> SET_BITS; }
    static std::uint32_t
    set_of(sim::Addr block)
    {
        return static_cast<std::uint32_t>(block & ((1u << SET_BITS) - 1));
    }
    static sim::Addr
    combine(std::uint64_t tag, std::uint32_t set)
    {
        return (tag << SET_BITS) | set;
    }

    /** Allocating compression: returns the id for @p tag (may recycle). */
    std::uint16_t compress(std::uint64_t tag);

    /** Non-allocating probe: id only if the tag is currently mapped. */
    std::optional<std::uint16_t> find(std::uint64_t tag) const;

    /** Request the cache line of @p tag's probe slot ahead of a find()
     *  (pure latency hint, no architectural effect). */
    void
    prefetch_hint(std::uint64_t tag) const
    {
        ids_.prefetch_hint(tag);
    }

    /** Expand an id back to whatever full tag currently owns it. */
    std::uint64_t decompress(std::uint16_t id) const;

    std::uint64_t recycles() const { return recycles_; }
    std::uint32_t capacity() const { return 1u << cfg_.id_bits; }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("triage.tags");
        s.io_vec(slots_, [](sim::Snapshot& a, Slot& e) {
            a.io(e.tag);
            a.io(e.lru);
            a.io(e.valid);
        });
        s.io(clock_);
        s.io(recycles_);
        // The tag -> id map and the recency list are pure acceleration
        // state over slots_ (tag -> id for every valid slot; valid ids
        // in lru-stamp order), so they are rebuilt rather than
        // serialized: lookups are layout-independent, and the snapshot
        // stays smaller and trivially byte-deterministic.
        if (s.loading()) {
            rebuild_ids();
            lru_rebuild();
        }
    }

  private:
    struct Slot {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /** Pointer to @p tag's id, or nullptr when unmapped. */
    const std::uint16_t* id_lookup(std::uint64_t tag) const;
    void bind_id(std::uint64_t tag, std::uint16_t id);
    void unbind_id(std::uint64_t tag);
    /** Repopulate ids_ from the valid slots_ entries. */
    void rebuild_ids();

    /**
     * Victim selection in O(1), picking what a scan of slots_ would:
     * the lowest-index invalid slot while any remain (slots are never
     * invalidated, so next_free_ only moves forward), else the valid
     * slot with the smallest lru stamp — the head of an intrusive
     * list kept in stamp order (every stamp is a fresh ++clock_, so
     * a touched slot moves to the tail).
     */
    static constexpr std::uint32_t LRU_NIL = ~std::uint32_t{0};
    void lru_unlink(std::uint32_t id);
    void lru_append(std::uint32_t id);
    /** Rebuild next_free_ and the list from slots_ (checkpoint load). */
    void lru_rebuild();

    TagCompressorConfig cfg_;
    std::vector<Slot> slots_;             ///< id -> tag
    /**
     * tag -> id direction, on the metadata lookup hot path. Reserved
     * at capacity() ids, so compress() (erase before insert) never
     * rehashes. The all-ones tag, FlatMap's empty sentinel, is
     * unreachable from real block addresses but legal through the
     * public API (the property suite compresses it), so it lives in a
     * one-entry side slot and every 64-bit tag stays representable.
     */
    using TagMap = util::FlatMap<std::uint64_t, std::uint16_t>;
    static constexpr std::uint64_t EMPTY_TAG = TagMap::EMPTY;
    TagMap ids_;
    bool empty_tag_valid_ = false; ///< side slot: the all-ones tag
    std::uint16_t empty_tag_id_ = 0;
    std::vector<std::uint32_t> lru_prev_; ///< parallel to slots_
    std::vector<std::uint32_t> lru_next_;
    std::uint32_t lru_head_ = LRU_NIL; ///< least recently used
    std::uint32_t lru_tail_ = LRU_NIL;
    std::uint32_t next_free_ = 0; ///< lowest invalid slot (or size)
    std::uint64_t clock_ = 0;
    std::uint64_t recycles_ = 0;
};

} // namespace triage::core

#endif // TRIAGE_CORE_TAG_COMPRESSOR_HPP
