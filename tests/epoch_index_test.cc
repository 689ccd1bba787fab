#include "src/spatial/epoch_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace casper::spatial {
namespace {

const Rect kSpace(0.0, 0.0, 1.0, 1.0);

std::vector<Entry> RandomRectEntries(size_t n, Rng* rng, double max_extent,
                                     uint64_t first_id = 0) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const Point c = rng->PointIn(kSpace);
    const double w = rng->Uniform(0.0, max_extent);
    const double h = rng->Uniform(0.0, max_extent);
    entries.push_back({Rect(c.x, c.y, c.x + w, c.y + h), first_id + i});
  }
  return entries;
}

std::vector<uint64_t> SortedIds(const std::vector<Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Brute-force oracles over the live (box, id) multiset.

std::vector<uint64_t> BruteRange(const std::vector<Entry>& live,
                                 const Rect& window) {
  std::vector<Entry> hits;
  for (const auto& e : live) {
    if (e.box.Intersects(window)) hits.push_back(e);
  }
  return SortedIds(hits);
}

/// The k smallest (distance, id) pairs in ascending order — the
/// canonical answer every index returns, ties broken by id.
std::vector<std::pair<double, uint64_t>> BruteKnn(
    const std::vector<Entry>& live, const Point& q, size_t k, Metric metric) {
  std::vector<std::pair<double, uint64_t>> all;
  for (const auto& e : live) {
    all.emplace_back(
        metric == Metric::kMinDist ? MinDist(q, e.box) : MaxDist(q, e.box),
        e.id);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<std::pair<double, uint64_t>> Pairs(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<double, uint64_t>> out;
  for (const auto& n : neighbors) out.emplace_back(n.distance, n.id);
  return out;
}

std::vector<uint64_t> SnapshotRangeIds(const EpochIndex& index,
                                       const Rect& window) {
  std::vector<Entry> hits;
  index.Acquire()->RangeQuery(window, &hits);
  return SortedIds(hits);
}

TEST(EpochIndexTest, EmptyIndexPublishesUsableSnapshot) {
  EpochIndex index;
  auto snap = index.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->empty());
  EXPECT_EQ(snap->RangeCount(kSpace), 0u);
  EXPECT_FALSE(snap->Nearest(Point{0.5, 0.5}).found);
}

/// Every mutation publishes a new epoch, and queries on the current
/// snapshot always match a brute-force scan of the live entries, across
/// delta cancellations, tombstones and repacks.
TEST(EpochIndexTest, SnapshotMatchesBruteForceAfterEachMutation) {
  Rng rng(1);
  EpochIndex index(8, /*rebuild_threshold=*/16);
  std::vector<Entry> alive;
  for (size_t step = 0; step < 300; ++step) {
    if (alive.empty() || rng.Uniform(0.0, 1.0) < 0.65) {
      Entry e = RandomRectEntries(1, &rng, 0.05, step)[0];
      index.Insert(e.box, e.id);
      alive.push_back(e);
    } else {
      const size_t victim = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(alive.size())));
      ASSERT_TRUE(index.Remove(alive[victim].box, alive[victim].id));
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (step % 10 != 0) continue;  // Deep-compare every 10th step.
    auto snap = index.Acquire();
    ASSERT_EQ(snap->size(), alive.size());
    const Point a = rng.PointIn(kSpace);
    const Point b = rng.PointIn(kSpace);
    const Rect window(std::min(a.x, b.x), std::min(a.y, b.y),
                      std::max(a.x, b.x), std::max(a.y, b.y));
    std::vector<Entry> from_snap;
    snap->RangeQuery(window, &from_snap);
    const std::vector<uint64_t> expected = BruteRange(alive, window);
    EXPECT_EQ(expected, SortedIds(from_snap));
    EXPECT_EQ(expected.size(), snap->RangeCount(window));

    const Point q = rng.PointIn(kSpace);
    for (auto metric : {Metric::kMinDist, Metric::kMaxDist}) {
      EXPECT_EQ(BruteKnn(alive, q, 5, metric),
                Pairs(snap->KNearest(q, 5, metric)));
    }
  }
}

/// Remove deletes one live occurrence and reports false — publishing
/// nothing — when there is none: a never-stored pair, a wrong box, a
/// base entry already tombstoned, or a delta entry already cancelled.
TEST(EpochIndexTest, RemoveExistingAndMissing) {
  Rng rng(11);
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 200; ++i) {
    entries.push_back({Rect::FromPoint(rng.PointIn(kSpace)), i});
  }
  EpochIndex index(8, /*rebuild_threshold=*/16);
  for (const auto& e : entries) index.Insert(e.box, e.id);

  // Remove half across several repacks.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(index.Remove(entries[i].box, entries[i].id));
  }
  EXPECT_EQ(index.size(), 100u);
  const uint64_t published = index.stats().published;
  EXPECT_FALSE(index.Remove(entries[0].box, entries[0].id));  // Gone.
  EXPECT_FALSE(index.Remove(Rect(0.999, 0.999, 0.9999, 0.9999),
                            entries[150].id));  // Wrong box.
  EXPECT_FALSE(index.Remove(entries[150].box, 9999));  // Wrong id.
  EXPECT_EQ(index.stats().published, published);
  EXPECT_EQ(index.size(), 100u);

  const std::vector<Entry> rest(entries.begin() + 100, entries.end());
  for (int i = 0; i < 20; ++i) {
    const Point q = rng.PointIn(kSpace);
    EXPECT_EQ(BruteKnn(rest, q, 1, Metric::kMinDist),
              Pairs(index.Acquire()->KNearest(q, 1)));
  }

  // A base entry already tombstoned is missing.
  EpochIndex packed =
      EpochIndex::BulkLoad(rest, 8, /*rebuild_threshold=*/1000);
  ASSERT_TRUE(packed.Remove(rest[0].box, rest[0].id));
  EXPECT_EQ(packed.stats().tombstones, 1u);
  EXPECT_FALSE(packed.Remove(rest[0].box, rest[0].id));
  EXPECT_EQ(packed.stats().tombstones, 1u);

  // A delta entry already cancelled is missing, and cancelling one
  // never tombstones the base.
  const Rect fresh = Rect::FromPoint({0.5, 0.25});
  packed.Insert(fresh, 777);
  ASSERT_TRUE(packed.Remove(fresh, 777));
  EXPECT_EQ(packed.stats().delta_entries, 0u);
  EXPECT_FALSE(packed.Remove(fresh, 777));
  EXPECT_EQ(packed.stats().tombstones, 1u);
  EXPECT_EQ(packed.size(), rest.size() - 1);
  EXPECT_EQ(packed.Acquire()->RangeCount(kSpace), rest.size() - 1);
}

/// Removing every entry leaves an empty index that still works, both
/// when the entries sit in the delta and when they are tombstones over
/// a packed base.
TEST(EpochIndexTest, RemoveAllLeavesEmptyUsableIndex) {
  Rng rng(12);
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 64; ++i) {
    entries.push_back({Rect::FromPoint(rng.PointIn(kSpace)), i});
  }
  for (size_t threshold : {8u, 1000u}) {
    EpochIndex index = EpochIndex::BulkLoad(entries, 4, threshold);
    for (const auto& e : entries) index.Insert(e.box, e.id + 100);
    for (const auto& e : entries) {
      ASSERT_TRUE(index.Remove(e.box, e.id));
      ASSERT_TRUE(index.Remove(e.box, e.id + 100));
    }
    EXPECT_TRUE(index.empty());
    auto snap = index.Acquire();
    EXPECT_TRUE(snap->empty());
    EXPECT_EQ(snap->RangeCount(kSpace), 0u);
    EXPECT_FALSE(snap->Nearest(Point{0.5, 0.5}).found);

    index.Insert(Rect::FromPoint({0.5, 0.5}), 1);
    EXPECT_EQ(index.size(), 1u);
    const auto nn = index.Acquire()->Nearest(Point{0.0, 0.0});
    ASSERT_TRUE(nn.found);
    EXPECT_EQ(nn.neighbor.id, 1u);
  }
}

/// The index is a multiset: several ids may share one box, and the same
/// (box, id) pair may be stored twice; each Remove takes away exactly
/// one occurrence, before and after a repack moves them into the base.
TEST(EpochIndexTest, DuplicatePairsAndSharedBoxes) {
  const Rect box = Rect::FromPoint({0.5, 0.5});
  for (size_t threshold : {4u, 1000u}) {
    EpochIndex index(4, threshold);
    for (uint64_t i = 0; i < 20; ++i) index.Insert(box, i);
    index.Insert(box, 7);  // Duplicate pair.
    EXPECT_EQ(index.size(), 21u);
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < 20; ++i) expected.push_back(i);
    expected.insert(expected.begin() + 8, 7);
    EXPECT_EQ(SnapshotRangeIds(index, box), expected);

    ASSERT_TRUE(index.Remove(box, 7));
    expected.erase(expected.begin() + 8);
    EXPECT_EQ(SnapshotRangeIds(index, box), expected);  // Twin survives.
    ASSERT_TRUE(index.Remove(box, 7));
    expected.erase(expected.begin() + 7);
    EXPECT_EQ(SnapshotRangeIds(index, box), expected);
    EXPECT_FALSE(index.Remove(box, 7));
    EXPECT_FALSE(index.Remove(Rect::FromPoint({0.5, 0.6}), 3));
    EXPECT_EQ(index.size(), 19u);

    // Shared-box ties rank by id.
    const auto knn = index.Acquire()->KNearest(Point{0.0, 0.0}, 3);
    ASSERT_EQ(knn.size(), 3u);
    EXPECT_EQ(knn[0].id, 0u);
    EXPECT_EQ(knn[1].id, 1u);
    EXPECT_EQ(knn[2].id, 2u);
  }
}

/// Random interleaved inserts and removes, checked at the end against a
/// brute-force scan.
TEST(EpochIndexTest, MixedInsertRemoveChurn) {
  Rng rng(17);
  EpochIndex index(6, /*rebuild_threshold=*/16);
  std::vector<Entry> live;
  uint64_t next_id = 0;
  for (int round = 0; round < 1000; ++round) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      Entry e{Rect::FromPoint(rng.PointIn(kSpace)), next_id++};
      index.Insert(e.box, e.id);
      live.push_back(e);
    } else {
      const size_t idx = rng.UniformInt(0, live.size() - 1);
      ASSERT_TRUE(index.Remove(live[idx].box, live[idx].id));
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
  }
  EXPECT_EQ(index.size(), live.size());
  EXPECT_GT(index.stats().rebuilds, 10u);
  const Rect window(0.1, 0.1, 0.9, 0.4);
  EXPECT_EQ(SnapshotRangeIds(index, window), BruteRange(live, window));
  EXPECT_EQ(index.Acquire()->RangeCount(kSpace), live.size());
}

/// A reader's snapshot is frozen at acquisition: later writes neither
/// change its answers nor invalidate it.
TEST(EpochIndexTest, AcquiredSnapshotIsImmuneToLaterWrites) {
  Rng rng(2);
  EpochIndex index = EpochIndex::BulkLoad(RandomRectEntries(100, &rng, 0.05));
  auto old_snap = index.Acquire();
  const size_t old_size = old_snap->size();
  const size_t old_count = old_snap->RangeCount(kSpace);
  const uint64_t old_epoch = old_snap->epoch();

  for (const auto& e : RandomRectEntries(50, &rng, 0.05, 1000)) {
    index.Insert(e.box, e.id);
  }

  EXPECT_EQ(old_snap->size(), old_size);
  EXPECT_EQ(old_snap->RangeCount(kSpace), old_count);
  auto new_snap = index.Acquire();
  EXPECT_GT(new_snap->epoch(), old_epoch);
  EXPECT_EQ(new_snap->size(), 150u);
  EXPECT_EQ(new_snap->RangeCount(kSpace), 150u);
}

TEST(EpochIndexTest, StatsCountPublicationsRebuildsAndReclamation) {
  Rng rng(3);
  EpochIndex index(16, /*rebuild_threshold=*/8);
  const auto entries = RandomRectEntries(32, &rng, 0.05);
  {
    auto snap = index.Acquire();  // Hold epoch 1 while writing.
    for (const auto& e : entries) index.Insert(e.box, e.id);
  }
  EpochIndex::Stats stats = index.stats();
  // 1 initial publication + one per insert.
  EXPECT_EQ(stats.published, 1u + entries.size());
  // 32 inserts at threshold 8 force repacks; the live delta stays small.
  EXPECT_GE(stats.rebuilds, 3u);
  EXPECT_LT(stats.delta_entries, 8u);
  EXPECT_EQ(stats.tombstones, 0u);
  // Every superseded snapshot was released (ours included); only the
  // currently-published epoch is still alive.
  EXPECT_EQ(stats.reclaimed, stats.published - 1u);

  // Tombstones accumulate on removes of base entries, then clear on the
  // next repack.
  size_t removed = 0;
  for (const auto& e : entries) {
    index.Remove(e.box, e.id);
    if (++removed == 4) break;
  }
  stats = index.stats();
  EXPECT_EQ(index.size(), entries.size() - removed);
  EXPECT_EQ(index.Acquire()->size(), entries.size() - removed);
}

/// Readers acquire and query snapshots while a writer churns — the
/// TSan-labeled guarantee that the read path is safe without locks.
TEST(EpochIndexTest, ConcurrentReadersSeeConsistentSnapshots) {
  Rng rng(4);
  std::vector<Entry> alive = RandomRectEntries(200, &rng, 0.05);
  EpochIndex index = EpochIndex::BulkLoad(alive, 16, 32);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &stop, &reads, t] {
      Rng reader_rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = index.Acquire();
        const size_t snapshot_size = snap->size();
        // A snapshot is internally consistent: a full-space range count
        // equals its size no matter what the writer does meanwhile.
        ASSERT_EQ(snap->RangeCount(kSpace), snapshot_size);
        const Point q = reader_rng.PointIn(kSpace);
        auto nn = snap->KNearest(q, 3, Metric::kMaxDist);
        ASSERT_LE(nn.size(), std::min<size_t>(3, snapshot_size));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    Entry e = RandomRectEntries(1, &rng, 0.05, 5000 + round)[0];
    index.Insert(e.box, e.id);
    const size_t victim = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(alive.size())));
    if (index.Remove(alive[victim].box, alive[victim].id)) {
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  // Let the readers observe the final state too.
  while (reads.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(index.stats().published, 51u);
}

}  // namespace
}  // namespace casper::spatial
