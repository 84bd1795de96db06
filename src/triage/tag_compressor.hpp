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

namespace triage::core {

/** Width of the compressed id and the address split it implies. */
struct TagCompressorConfig {
    std::uint32_t id_bits = 10;  ///< 1024 live tags
    std::uint32_t set_bits = 11; ///< low bits of a block address (Table 1 LLC)
};

/** Bidirectional full-tag <-> compressed-id table with LRU recycling. */
class TagCompressor
{
  public:
    explicit TagCompressor(TagCompressorConfig cfg = {});

    /** Split helpers. */
    std::uint64_t tag_of(sim::Addr block) const { return block >> cfg_.set_bits; }
    std::uint32_t
    set_of(sim::Addr block) const
    {
        return static_cast<std::uint32_t>(block &
                                          ((1u << cfg_.set_bits) - 1));
    }
    sim::Addr
    combine(std::uint64_t tag, std::uint32_t set) const
    {
        return (tag << cfg_.set_bits) | set;
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
        __builtin_prefetch(map_tags_.data() + map_home(tag));
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
        // The probe table is pure acceleration state over slots_
        // (tag -> id for every valid slot), so it is rebuilt rather
        // than serialized: lookups are layout-independent, and the
        // snapshot stays smaller and trivially byte-deterministic.
        if (s.loading())
            map_rebuild();
    }

  private:
    struct Slot {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /**
     * tag -> id direction, an open-addressing linear-probe table
     * (docs/performance.md): find() is on the metadata lookup hot
     * path and a flat probe sequence beats the node-based
     * unordered_map it replaced. Structure-of-arrays: the packed tag
     * array (MAP_EMPTY all-ones sentinel for free slots) is what the
     * probe scans for tag-or-empty in one pass; ids sit in a
     * parallel array read only on a match. The all-ones tag itself —
     * unreachable from real block addresses but legal through the
     * public API, and the property suite compresses it — lives in a
     * one-entry side slot instead of the probe array, so every 64-bit
     * tag stays representable. Sized at 4x id
     * capacity, so load stays under 25% and probes terminate quickly;
     * erase uses the classic backward-shift so no tombstones
     * accumulate.
     */
    static constexpr std::uint64_t MAP_EMPTY = ~std::uint64_t{0};

    std::size_t map_home(std::uint64_t tag) const;
    /** Index of the first probe slot holding @p tag or MAP_EMPTY. */
    std::size_t map_probe(std::uint64_t tag) const;
    /** Pointer to @p tag's id, or nullptr when unmapped. */
    const std::uint16_t* id_lookup(std::uint64_t tag) const;
    void map_insert(std::uint64_t tag, std::uint16_t id);
    void map_erase(std::uint64_t tag);
    /** Repopulate the probe table from the valid slots_ entries. */
    void map_rebuild();

    TagCompressorConfig cfg_;
    std::vector<Slot> slots_;             ///< id -> tag
    std::vector<std::uint64_t> map_tags_; ///< probe array (hot)
    std::vector<std::uint16_t> map_ids_;  ///< parallel ids (cold)
    bool empty_tag_valid_ = false;  ///< side slot: the all-ones tag
    std::uint16_t empty_tag_id_ = 0;
    std::size_t map_mask_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t recycles_ = 0;
};

} // namespace triage::core

#endif // TRIAGE_CORE_TAG_COMPRESSOR_HPP
