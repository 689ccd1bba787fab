#include "src/spatial/flat_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace casper::spatial {
namespace {

const Rect kSpace(0.0, 0.0, 1.0, 1.0);

std::vector<Entry> RandomRectEntries(size_t n, Rng* rng,
                                     double max_extent) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(kSpace);
    const double w = rng->Uniform(0.0, max_extent);
    const double h = rng->Uniform(0.0, max_extent);
    entries.push_back({Rect(c.x, c.y, c.x + w, c.y + h), i});
  }
  return entries;
}

std::vector<uint64_t> SortedIds(std::vector<Entry> entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Brute-force oracles over an entry list.

std::vector<uint64_t> BruteRange(const std::vector<Entry>& entries,
                                 const Rect& window) {
  std::vector<Entry> hits;
  for (const auto& e : entries) {
    if (e.box.Intersects(window)) hits.push_back(e);
  }
  return SortedIds(hits);
}

/// The k smallest (distance, id) pairs in ascending order. The tree
/// breaks distance ties by ascending id, so this is its exact answer
/// even for rectangles, whose MinDist ties at 0 around the query point.
std::vector<std::pair<double, uint64_t>> BruteKnn(
    const std::vector<Entry>& entries, const Point& q, size_t k,
    Metric metric) {
  std::vector<std::pair<double, uint64_t>> all;
  for (const auto& e : entries) {
    all.emplace_back(
        metric == Metric::kMinDist ? MinDist(q, e.box) : MaxDist(q, e.box),
        e.id);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

/// (distance, id) pairs in the order the tree returned them.
std::vector<std::pair<double, uint64_t>> Pairs(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(neighbors.size());
  for (const auto& n : neighbors) out.emplace_back(n.distance, n.id);
  return out;
}

TEST(FlatRTreeTest, EmptyTree) {
  FlatRTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  std::vector<Entry> hits;
  tree.RangeQuery(kSpace, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(tree.RangeCount(kSpace), 0u);
  EXPECT_TRUE(tree.KNearest(Point{0.5, 0.5}, 3).empty());
  EXPECT_FALSE(tree.Nearest(Point{0.5, 0.5}).found);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(FlatRTreeTest, SingleEntry) {
  FlatRTree tree = FlatRTree::Build({{Rect(0.2, 0.2, 0.4, 0.4), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  auto nn = tree.Nearest(Point{0.0, 0.0});
  ASSERT_TRUE(nn.found);
  EXPECT_EQ(nn.neighbor.id, 7u);
  EXPECT_EQ(tree.RangeCount(Rect(0.0, 0.0, 0.25, 0.25)), 1u);
  EXPECT_EQ(tree.RangeCount(Rect(0.5, 0.5, 0.6, 0.6)), 0u);
}

TEST(FlatRTreeTest, InvariantsAcrossSizesAndFanouts) {
  Rng rng(20260807);
  for (size_t n : {2u, 5u, 16u, 17u, 64u, 257u, 1000u}) {
    for (int fanout : {4, 8, 16}) {
      const std::vector<Entry> entries = RandomRectEntries(n, &rng, 0.05);
      FlatRTree tree = FlatRTree::Build(entries, fanout);
      EXPECT_EQ(tree.size(), n);
      EXPECT_TRUE(tree.CheckInvariants()) << "n=" << n << " M=" << fanout;
      for (const auto& e : entries) EXPECT_TRUE(tree.bounds().Contains(e.box));
      // STR packing is near-full, so the height is logarithmic.
      EXPECT_LE(tree.height(),
                static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                           std::log(fanout))) +
                    1)
          << "n=" << n << " M=" << fanout;
      EXPECT_EQ(tree.KNearest(Point{0.5, 0.5}, n + 10).size(), n);
    }
  }
}

/// A tree packed from the survivors of randomized inserts and removes
/// answers every range and k-NN query — under both metrics — exactly
/// like a brute-force scan of those survivors.
TEST(FlatRTreeTest, DifferentialAgainstBruteForceAfterRandomizedMutations) {
  Rng rng(42);
  std::vector<Entry> alive;
  for (size_t i = 0; i < 600; ++i) {
    Entry e = RandomRectEntries(1, &rng, 0.08)[0];
    e.id = i;
    alive.push_back(e);
  }
  // Remove a random third.
  for (size_t i = 0; i < 200; ++i) {
    const size_t victim = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(alive.size())));
    alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
  }

  FlatRTree flat = FlatRTree::Build(alive, 8);
  ASSERT_EQ(flat.size(), alive.size());
  ASSERT_TRUE(flat.CheckInvariants());

  for (int trial = 0; trial < 50; ++trial) {
    const Point a = rng.PointIn(kSpace);
    const Point b = rng.PointIn(kSpace);
    const Rect window(std::min(a.x, b.x), std::min(a.y, b.y),
                      std::max(a.x, b.x), std::max(a.y, b.y));
    std::vector<Entry> flat_hits;
    flat.RangeQuery(window, &flat_hits);
    const std::vector<uint64_t> expected = BruteRange(alive, window);
    EXPECT_EQ(expected, SortedIds(flat_hits));
    EXPECT_EQ(expected.size(), flat.RangeCount(window));

    const Point q = rng.PointIn(kSpace);
    for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
      for (size_t k : {1u, 5u, 23u}) {
        EXPECT_EQ(BruteKnn(alive, q, k, metric),
                  Pairs(flat.KNearest(q, k, metric)))
            << "metric=" << static_cast<int>(metric) << " k=" << k;
      }
      const auto exact = BruteKnn(alive, q, 1, metric);
      const auto packed = flat.Nearest(q, metric);
      ASSERT_TRUE(packed.found);
      EXPECT_EQ(exact.front().first, packed.neighbor.distance);
      EXPECT_EQ(exact.front().second, packed.neighbor.id);
    }
  }
}

/// Point entries never tie, so the k-NN id sequences must match
/// exactly, under both metrics (which coincide for points).
TEST(FlatRTreeTest, DifferentialPointEntriesExactIds) {
  Rng rng(1234);
  std::vector<Entry> entries;
  for (size_t i = 0; i < 500; ++i) {
    const Point p = rng.PointIn(kSpace);
    entries.push_back({Rect::FromPoint(p), i});
  }
  FlatRTree flat = FlatRTree::Build(entries, 16);
  ASSERT_TRUE(flat.CheckInvariants());
  for (int trial = 0; trial < 40; ++trial) {
    const Point q = rng.PointIn(kSpace);
    for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
      for (size_t k : {1u, 10u}) {
        EXPECT_EQ(BruteKnn(entries, q, k, metric),
                  Pairs(flat.KNearest(q, k, metric)));
      }
    }
  }
}

TEST(FlatRTreeTest, VisitorEarlyStopAndFilteredKnn) {
  Rng rng(7);
  FlatRTree tree = FlatRTree::Build(RandomRectEntries(200, &rng, 0.05), 8);
  size_t seen = 0;
  tree.RangeQuery(kSpace, [&seen](const Entry&) {
    ++seen;
    return seen < 10;
  });
  EXPECT_EQ(seen, 10u);

  // Filtering away even ids must yield the odd-id k-NN answer.
  const Point q{0.5, 0.5};
  auto odd_only = tree.KNearestFiltered(
      q, 8, Metric::kMinDist,
      [](const Entry& e) { return e.id % 2 == 1; });
  ASSERT_EQ(odd_only.size(), 8u);
  for (const auto& n : odd_only) EXPECT_EQ(n.id % 2, 1u);
  // Ascending distance, and no unfiltered entry closer than the last.
  for (size_t i = 1; i < odd_only.size(); ++i) {
    EXPECT_LE(odd_only[i - 1].distance, odd_only[i].distance);
  }
}

TEST(FlatRTreeTest, BatchedKernelsMatchScalar) {
  Rng rng(99);
  std::vector<Entry> entries = RandomRectEntries(100, &rng, 0.1);
  std::vector<double> xlo, ylo, xhi, yhi;
  for (const auto& e : entries) {
    xlo.push_back(e.box.min.x);
    ylo.push_back(e.box.min.y);
    xhi.push_back(e.box.max.x);
    yhi.push_back(e.box.max.y);
  }
  const RectSoA soa{xlo.data(), ylo.data(), xhi.data(), yhi.data()};
  std::vector<double> batched(entries.size());
  for (int trial = 0; trial < 20; ++trial) {
    const Point q = rng.PointIn(kSpace);
    BatchedMinDist(q, soa, entries.size(), batched.data());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(batched[i], MinDist(q, entries[i].box)) << i;
    }
    BatchedMaxDist(q, soa, entries.size(), batched.data());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(batched[i], MaxDist(q, entries[i].box)) << i;
    }
  }
}

}  // namespace
}  // namespace casper::spatial
