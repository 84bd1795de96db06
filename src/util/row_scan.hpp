/**
 * @file
 * Row scans over the packed unsigned word arrays on the hot path: cache
 * tag rows (`SetAssocCache::tags_`), LruTable key and stamp rows and
 * FlatMap's key array (64-bit words), and the metadata store's search
 * keys (`MetadataStore::keys_`, 32-bit words). Most hold an all-ones
 * "empty" sentinel, so one compare per word decides a probe.
 *
 *  - find_first_eq       : index of the first word equal to a key
 *  - find_first_eq_either: first word equal to either of two keys
 *                          (linear-probe loops: key-or-empty)
 *  - min_index           : index of the first minimum (LRU victim scans)
 *
 * Each scan is templated on the word type W and deduces it from the
 * row alone, so a key of another integer type converts to W. Plain
 * inline loops: the rows are short or exit early, so the compiler's
 * code beats any out-of-line vector kernel here (docs/performance.md
 * §8). Every scan returns the *first* match, which is what the
 * simulated decisions depend on.
 */
#ifndef TRIAGE_UTIL_ROW_SCAN_HPP
#define TRIAGE_UTIL_ROW_SCAN_HPP

#include <cstdint>
#include <type_traits>

namespace triage::util {

/** "Not found" result, matching the NO_WAY convention of the callers. */
inline constexpr std::uint32_t NPOS = ~std::uint32_t{0};

/** Index of the first element of row[0..n) equal to @p key, or NPOS. */
template <typename W>
inline std::uint32_t
find_first_eq(const W* row, std::uint32_t n, std::type_identity_t<W> key)
{
    static_assert(std::is_unsigned_v<W>);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (row[i] == key)
            return i;
    }
    return NPOS;
}

/**
 * Index of the first element equal to @p key_a *or* @p key_b, or NPOS.
 * The caller distinguishes which matched by re-reading the element —
 * linear-probe loops use this as "my tag or an empty slot, whichever
 * comes first".
 */
template <typename W>
inline std::uint32_t
find_first_eq_either(const W* row, std::uint32_t n,
                     std::type_identity_t<W> key_a,
                     std::type_identity_t<W> key_b)
{
    static_assert(std::is_unsigned_v<W>);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (row[i] == key_a || row[i] == key_b)
            return i;
    }
    return NPOS;
}

/**
 * Index of the first minimum of row[0..n) (unsigned compare): the
 * earliest minimum wins, as in an LRU victim scan.
 * @pre n >= 1.
 */
template <typename W>
inline std::uint32_t
min_index(const W* row, std::uint32_t n)
{
    static_assert(std::is_unsigned_v<W>);
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (row[i] < row[best])
            best = i;
    }
    return best;
}

} // namespace triage::util

#endif // TRIAGE_UTIL_ROW_SCAN_HPP
