/**
 * @file
 * Tests for the packed-word row scans (util/row_scan.hpp). The hot-path
 * structures depend on exactly these semantics: the first minimum wins
 * ties (LRU victim determinism), words order as unsigned 64-bit, the
 * first of duplicate matches is returned, and an empty or keyless row
 * reports NPOS.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/row_scan.hpp"

namespace util = triage::util;

namespace {

constexpr std::uint64_t SENTINEL = ~std::uint64_t{0};

} // namespace

TEST(RowScan, MinIndexTiesGoToFirst)
{
    for (std::uint32_t n : {1u, 2u, 3u, 4u, 7u, 8u, 16u, 33u}) {
        std::vector<std::uint64_t> v(n, 42);
        EXPECT_EQ(util::min_index(v.data(), n), 0u) << "n=" << n;
        // Minimum duplicated at positions 1 and n-1.
        if (n >= 3) {
            v[1] = 7;
            v[n - 1] = 7;
            EXPECT_EQ(util::min_index(v.data(), n), 1u) << "n=" << n;
        }
    }
}

TEST(RowScan, MinIndexUnsignedOrdering)
{
    // Values straddling the sign bit must order as unsigned 64-bit.
    std::vector<std::uint64_t> v = {
        0x8000000000000000ull, 0x7fffffffffffffffull, SENTINEL, 0, 5};
    EXPECT_EQ(util::min_index(v.data(), 5), 3u);
    v[3] = SENTINEL - 1;
    EXPECT_EQ(util::min_index(v.data(), 5), 4u);
}

TEST(RowScan, FirstMatchWinsOnDuplicates)
{
    std::vector<std::uint64_t> v(64, 9);
    v[5] = 3;
    v[40] = 3;
    EXPECT_EQ(util::find_first_eq(v.data(), 64, 3), 5u);
    EXPECT_EQ(util::find_first_eq_either(v.data(), 64, 3, SENTINEL), 5u);
    v[2] = SENTINEL;
    EXPECT_EQ(util::find_first_eq_either(v.data(), 64, 3, SENTINEL), 2u);
}

TEST(RowScan, NposOnEmptyOrAbsent)
{
    std::vector<std::uint64_t> v(16, 9);
    EXPECT_EQ(util::find_first_eq(v.data(), 0, 9), util::NPOS);
    EXPECT_EQ(util::find_first_eq_either(v.data(), 0, 9, 9), util::NPOS);
    EXPECT_EQ(util::find_first_eq(v.data(), 16, 3), util::NPOS);
    EXPECT_EQ(util::find_first_eq_either(v.data(), 16, 3, SENTINEL),
              util::NPOS);
    // A match past n does not count.
    v[15] = 3;
    EXPECT_EQ(util::find_first_eq(v.data(), 15, 3), util::NPOS);
}
