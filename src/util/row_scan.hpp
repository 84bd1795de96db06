/**
 * @file
 * Row scans over the packed 64-bit word arrays on the hot path: cache
 * tag rows (`SetAssocCache::tags_`), metadata search keys
 * (`MetadataStore::keys_`), training-unit PCs and LRU stamps, the
 * tag-compressor probe table and FlatMap's key array. Each holds an
 * all-ones "empty" sentinel, so one compare per word decides a probe.
 *
 *  - find_first_eq       : index of the first word equal to a key
 *  - find_first_eq_either: first word equal to either of two keys
 *                          (linear-probe loops: key-or-empty)
 *  - min_index           : index of the first minimum (LRU victim scans)
 *
 * Plain inline loops: the rows are short or exit early, so the
 * compiler's code beats any out-of-line vector kernel here
 * (docs/performance.md §8). Every scan returns the *first* match,
 * which is what the simulated decisions depend on.
 */
#ifndef TRIAGE_UTIL_ROW_SCAN_HPP
#define TRIAGE_UTIL_ROW_SCAN_HPP

#include <cstdint>

namespace triage::util {

/** "Not found" result, matching the NO_WAY convention of the callers. */
inline constexpr std::uint32_t NPOS = ~std::uint32_t{0};

/** Index of the first element of row[0..n) equal to @p key, or NPOS. */
inline std::uint32_t
find_first_eq(const std::uint64_t* row, std::uint32_t n, std::uint64_t key)
{
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
inline std::uint32_t
find_first_eq_either(const std::uint64_t* row, std::uint32_t n,
                     std::uint64_t key_a, std::uint64_t key_b)
{
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
inline std::uint32_t
min_index(const std::uint64_t* row, std::uint32_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (row[i] < row[best])
            best = i;
    }
    return best;
}

} // namespace triage::util

#endif // TRIAGE_UTIL_ROW_SCAN_HPP
