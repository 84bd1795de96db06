/**
 * @file
 * LruTable: the set-associative, LRU-by-stamp key -> value table behind
 * the small on-chip tables: the TLB's two levels, MISB's PS/SP metadata
 * caches, the training unit, Markov's correlation table and SMS's
 * pattern, filter and accumulation tables.
 *
 * Geometry is `sets x ways`; the caller passes the set index, so each
 * user keeps its own hash. Storage is three parallel arrays: a packed
 * key row per set (what a lookup scans, as in `SetAssocCache`), then
 * the LRU stamps and the values, touched only on a match or an insert.
 * Every stamp is a fresh `++clock`, so stamps are unique and their
 * order is the recency order. Stamp 0 marks an empty way, whose key is
 * EMPTY_KEY, so any 64-bit key is storable.
 *
 * Victim = the first empty way, else the first minimum stamp: one
 * min_index over the stamp row (empty ways hold the minimum, 0). A key
 * is inserted only after a failed lookup, so keys are unique within a
 * set and the first key match is the only one.
 */
#ifndef TRIAGE_UTIL_LRU_TABLE_HPP
#define TRIAGE_UTIL_LRU_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::util {

/** Value type of a table that stores keys only (the TLB). */
struct NoValue {};

template <typename V = NoValue>
class LruTable
{
  public:
    /** Key held by an empty way (not reserved: emptiness is stamp 0). */
    static constexpr std::uint64_t EMPTY_KEY = ~std::uint64_t{0};

    /** A valid entry displaced by insert(). */
    struct Entry {
        std::uint64_t key;
        V value;
    };

    LruTable(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways),
          keys_(static_cast<std::size_t>(sets) * ways, EMPTY_KEY),
          stamps_(keys_.size(), 0), values_(keys_.size())
    {
        TRIAGE_ASSERT(sets > 0 && ways > 0, "LruTable geometry");
    }

    std::uint32_t sets() const { return sets_; }

    /** @p key's value in @p set, made most recently used; else nullptr. */
    V*
    find(std::uint32_t set, std::uint64_t key)
    {
        const std::size_t i = slot_of(set, key);
        if (i == NONE)
            return nullptr;
        stamps_[i] = ++clock_;
        return &values_[i];
    }

    /** @p key's value in @p set without an LRU touch; else nullptr. */
    const V*
    peek(std::uint32_t set, std::uint64_t key) const
    {
        const std::size_t i = slot_of(set, key);
        return i == NONE ? nullptr : &values_[i];
    }

    /**
     * Install @p key (absent from @p set) as most recently used.
     * @return the valid entry it replaced, if any.
     */
    std::optional<Entry>
    insert(std::uint32_t set, std::uint64_t key, const V& value = {})
    {
        const std::size_t base = row(set);
        const std::size_t i = base + min_index(&stamps_[base], ways_);
        std::optional<Entry> evicted;
        if (stamps_[i] != 0)
            evicted = Entry{keys_[i], values_[i]};
        keys_[i] = key;
        stamps_[i] = ++clock_;
        values_[i] = value;
        return evicted;
    }

    /** Remove @p key from @p set. @return it was present. */
    bool
    erase(std::uint32_t set, std::uint64_t key)
    {
        const std::size_t i = slot_of(set, key);
        if (i == NONE)
            return false;
        keys_[i] = EMPTY_KEY;
        stamps_[i] = 0;
        values_[i] = V{};
        return true;
    }

    /**
     * Save/restore through any archive with io / io_pod_vec / io_vec
     * (sim::Snapshot); @p io_value(archive, V&) does one value.
     */
    template <typename Archive, typename F>
    void
    checkpoint(Archive& s, F&& io_value)
    {
        s.io_pod_vec(keys_);
        s.io_pod_vec(stamps_);
        s.io_vec(values_, io_value);
        s.io(clock_);
    }

    /** As above, for values saved whole (or nothing, for NoValue). */
    template <typename Archive>
    void
    checkpoint(Archive& s)
    {
        checkpoint(s, [](Archive& a, V& v) {
            if constexpr (!std::is_empty_v<V>)
                a.io_pod(v);
        });
    }

  private:
    static constexpr std::size_t NONE = ~std::size_t{0};

    std::size_t
    row(std::uint32_t set) const
    {
        TRIAGE_ASSERT(set < sets_, "LruTable set index");
        return static_cast<std::size_t>(set) * ways_;
    }

    /** Slot of @p key in @p set, or NONE. */
    std::size_t
    slot_of(std::uint32_t set, std::uint64_t key) const
    {
        const std::size_t base = row(set);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t hit =
                find_first_eq(&keys_[base + w], ways_ - w, key);
            if (hit == NPOS)
                return NONE;
            w += hit;
            // Only an EMPTY_KEY lookup can match an empty way.
            if (stamps_[base + w] != 0)
                return base + w;
        }
        return NONE;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<std::uint64_t> keys_;   ///< hot: scanned per lookup
    std::vector<std::uint64_t> stamps_; ///< 0 = empty way
    std::vector<V> values_;
    std::uint64_t clock_ = 0;
};

} // namespace triage::util

#endif // TRIAGE_UTIL_LRU_TABLE_HPP
