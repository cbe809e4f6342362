// radix_sort() against std::stable_sort: the same keys in the same order,
// equal keys kept in input order, on sizes from empty and one item (left
// as they are) through a few items to tens of thousands, and on key sets
// that share leading, trailing or middle bytes, or span the whole 64-bit
// range.
#include "common/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mrcp {
namespace {

/// Sorts `keys` (tagged with their positions) both ways and compares.
void expect_matches_stable_sort(const std::vector<std::uint64_t>& keys,
                                std::vector<KeyedIndex>& scratch) {
  std::vector<KeyedIndex> got(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    got[i] = KeyedIndex{keys[i], static_cast<std::uint32_t>(i)};
  }
  std::vector<KeyedIndex> want = got;
  std::stable_sort(want.begin(), want.end(),
                   [](const KeyedIndex& a, const KeyedIndex& b) {
                     return a.key < b.key;
                   });
  radix_sort(std::span<KeyedIndex>(got), scratch);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "position " << i;
    ASSERT_EQ(got[i].index, want[i].index) << "position " << i;
  }
}

/// `n` keys drawn from a pool of about n / 3 values, so most keys tie.
/// `mask` keeps the bits that may vary; `fixed` supplies the others.
std::vector<std::uint64_t> keys_with_ties(RandomStream& rng, std::size_t n,
                                          std::uint64_t mask,
                                          std::uint64_t fixed) {
  std::vector<std::uint64_t> pool(std::max<std::size_t>(1, n / 3));
  for (std::uint64_t& k : pool) k = (rng.engine()() & mask) | (fixed & ~mask);
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& k : keys) {
    k = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }
  return keys;
}

const std::vector<std::size_t> kSizes = {0,  1,  2,   3,   7,    31,   32,
                                         33, 64, 100, 257, 1000, 60000};

TEST(RadixSort, FullRangeKeysWithTiesMatchStableSort) {
  RandomStream rng(41, 0);
  std::vector<KeyedIndex> scratch;  // shared: sizes grow and shrink
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::vector<std::uint64_t> keys =
        keys_with_ties(rng, n, ~std::uint64_t{0}, 0);
    expect_matches_stable_sort(keys, scratch);
  }
}

TEST(RadixSort, SharedBytesAreSkippedWithoutLosingOrder) {
  RandomStream rng(42, 0);
  std::vector<KeyedIndex> scratch;
  // Varying bytes only in the middle, only at the top, only at the
  // bottom, and a sparse mask whose set bits straddle byte borders.
  const std::vector<std::uint64_t> masks = {
      0x0000'00FF'FF00'0000, 0xFF00'0000'0000'0000, 0x0000'0000'0000'00FF,
      0x8001'0000'0180'0001};
  for (const std::uint64_t mask : masks) {
    for (const std::size_t n : kSizes) {
      SCOPED_TRACE("mask " + std::to_string(mask) + ", n = " +
                   std::to_string(n));
      const std::vector<std::uint64_t> keys =
          keys_with_ties(rng, n, mask, 0xA5A5'A5A5'A5A5'A5A5);
      expect_matches_stable_sort(keys, scratch);
    }
  }
}

TEST(RadixSort, ExtremeAndEqualKeys) {
  std::vector<KeyedIndex> scratch;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    // All equal: the input order must survive untouched.
    expect_matches_stable_sort(std::vector<std::uint64_t>(n, kMax), scratch);
    // Only the two extremes, alternating.
    std::vector<std::uint64_t> ends(n);
    for (std::size_t i = 0; i < n; ++i) ends[i] = i % 2 == 0 ? kMax : 0;
    expect_matches_stable_sort(ends, scratch);
    // Already sorted descending.
    std::vector<std::uint64_t> down(n);
    for (std::size_t i = 0; i < n; ++i) down[i] = kMax - i * 977;
    expect_matches_stable_sort(down, scratch);
  }
}

TEST(RadixSort, SignedValuesThroughRadixKey) {
  RandomStream rng(43, 0);
  std::vector<std::int64_t> scratch;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<std::int64_t> values(n);
    for (std::int64_t& v : values) {
      switch (rng.uniform_int(0, 3)) {
        case 0: v = kMin; break;
        case 1: v = kMax; break;
        case 2: v = rng.uniform_int(-3, 3); break;
        default: v = static_cast<std::int64_t>(rng.engine()()); break;
      }
    }
    std::vector<std::int64_t> want = values;
    std::sort(want.begin(), want.end());
    radix_sort(std::span<std::int64_t>(values), scratch,
               [](std::int64_t v) { return radix_key(v); });
    EXPECT_EQ(values, want);
  }
}

}  // namespace
}  // namespace mrcp
