#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"
#include "src/spatial/epoch_index.h"

/// Differential testing of the spatial index under churn: a randomized
/// point workload of inserts, removes and moves drives an EpochIndex
/// with a low rebuild threshold, so the churn crosses many repacks of
/// its packed base, and every range, NN and k-NN probe must match a
/// brute-force scan of the live points exactly.

namespace casper::spatial {
namespace {

// gtest names each instance after the raw bytes of its parameter, so the
// struct must have no padding: padding bytes are uninitialized and would
// make the test names differ from run to run. Every field is 8 bytes wide.
struct WorkloadParams {
  size_t initial;
  int64_t rounds;
  int64_t rebuild_threshold;
  int64_t fanout;
  uint64_t seed;
};
static_assert(sizeof(WorkloadParams) == 5 * 8,
              "WorkloadParams must have no padding");

class DifferentialSpatialTest
    : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(DifferentialSpatialTest, IndexesAgreeUnderChurn) {
  const WorkloadParams params = GetParam();
  Rng rng(params.seed);
  const Rect space(0, 0, 1, 1);

  EpochIndex index(static_cast<int>(params.fanout),
                   static_cast<size_t>(params.rebuild_threshold));
  std::unordered_map<uint64_t, Point> live;
  uint64_t next_id = 0;

  auto insert = [&]() {
    const Point p = rng.PointIn(space);
    const uint64_t id = next_id++;
    index.Insert(Rect::FromPoint(p), id);
    live[id] = p;
  };
  for (size_t i = 0; i < params.initial; ++i) insert();

  for (int round = 0; round < params.rounds; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.4 || live.size() < 5) {
      insert();
    } else if (action < 0.6) {
      // Remove a random live id.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      ASSERT_TRUE(index.Remove(Rect::FromPoint(it->second), it->first));
      live.erase(it);
    } else if (action < 0.8) {
      // Move a random live id.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(0, live.size() - 1)));
      const Point p = rng.PointIn(space);
      ASSERT_TRUE(index.Remove(Rect::FromPoint(it->second), it->first));
      index.Insert(Rect::FromPoint(p), it->first);
      it->second = p;
    } else {
      // Cross-check queries against a brute-force scan.
      const auto snap = index.Acquire();
      const Point c = rng.PointIn(space);
      const Rect window(c.x, c.y, std::min(c.x + rng.Uniform(0, 0.3), 1.0),
                        std::min(c.y + rng.Uniform(0, 0.3), 1.0));
      std::vector<uint64_t> from_index;
      snap->RangeQuery(window, [&](const Entry& e) {
        from_index.push_back(e.id);
        return true;
      });
      std::vector<uint64_t> expected;
      for (const auto& [id, p] : live) {
        if (window.Contains(p)) expected.push_back(id);
      }
      std::sort(from_index.begin(), from_index.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(from_index, expected) << "round " << round;
      ASSERT_EQ(snap->RangeCount(window), expected.size()) << "round " << round;

      const Point q = rng.PointIn(space);
      std::vector<std::pair<double, uint64_t>> brute;
      for (const auto& [id, p] : live) {
        brute.emplace_back(MinDist(q, Rect::FromPoint(p)), id);
      }
      std::sort(brute.begin(), brute.end());
      const auto nn = snap->Nearest(q);
      ASSERT_EQ(nn.found, !brute.empty());
      if (nn.found) {
        ASSERT_EQ(nn.neighbor.id, brute.front().second) << "round " << round;
        ASSERT_EQ(nn.neighbor.distance, brute.front().first)
            << "round " << round;
      }
      const auto knn = snap->KNearest(q, 5);
      ASSERT_EQ(knn.size(), std::min<size_t>(5, brute.size()));
      for (size_t i = 0; i < knn.size(); ++i) {
        ASSERT_EQ(knn[i].id, brute[i].second) << "round " << round;
      }
    }
  }
  EXPECT_EQ(index.size(), live.size());
  EXPECT_EQ(index.Acquire()->RangeCount(space), live.size());
  EXPECT_GT(index.stats().rebuilds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialSpatialTest,
    ::testing::Values(WorkloadParams{50, 400, 8, 4, 1},
                      WorkloadParams{200, 400, 16, 8, 2},
                      WorkloadParams{500, 300, 32, 16, 3},
                      WorkloadParams{5, 500, 4, 4, 4},
                      WorkloadParams{1000, 200, 64, 12, 5}));

}  // namespace
}  // namespace casper::spatial
