#include "src/server/id_window.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>

#include "src/common/rng.h"
#include "src/server/query_server.h"
#include "src/storage/memory_storage.h"

/// Unit tests of the server's flat idempotency windows: FIFO eviction,
/// ring wrap-around, backward-shift deletion when ids collide in the
/// index, capacity 0, failed outcomes replayed with their messages, and
/// the reset on Load / Open.

namespace casper::server {
namespace {

// Hashes that force collisions: every id homes to slot 0, every id homes
// to the last slot (so each probe run wraps the end of the index), or
// three overlapping homes.
struct FirstSlotHash {
  uint64_t operator()(uint64_t) const { return 0; }
};
struct LastSlotHash {
  uint64_t operator()(uint64_t) const { return ~uint64_t{0}; }
};
struct ThreeHomesHash {
  uint64_t operator()(uint64_t id) const { return id % 3; }
};

TEST(FifoIdWindowTest, EvictsInArrivalOrderAtCapacity) {
  FifoIdWindow<> window(4);
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(window.Insert(id, static_cast<uint8_t>(id)));
  }
  EXPECT_EQ(window.size(), 4u);
  for (uint64_t id = 5; id <= 8; ++id) {
    std::optional<FifoIdWindow<>::Entry> evicted;
    ASSERT_TRUE(window.Insert(id, static_cast<uint8_t>(id), &evicted));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->id, id - 4) << "the oldest id leaves first";
    EXPECT_EQ(evicted->tag, static_cast<uint8_t>(id - 4));
    EXPECT_EQ(window.Find(id - 4), nullptr);
    EXPECT_EQ(window.size(), 4u);
  }
  for (uint64_t id = 5; id <= 8; ++id) {
    ASSERT_NE(window.Find(id), nullptr);
    EXPECT_EQ(*window.Find(id), static_cast<uint8_t>(id));
  }
}

TEST(FifoIdWindowTest, ReinsertAfterEvictionAndDuplicates) {
  FifoIdWindow<> window(2);
  ASSERT_TRUE(window.Insert(1, 10));
  EXPECT_FALSE(window.Insert(1, 11)) << "a present id is not re-recorded";
  EXPECT_EQ(*window.Find(1), 10);
  ASSERT_TRUE(window.Insert(2, 20));
  ASSERT_TRUE(window.Insert(3, 30));  // Evicts 1.
  EXPECT_EQ(window.Find(1), nullptr);
  std::optional<FifoIdWindow<>::Entry> evicted;
  ASSERT_TRUE(window.Insert(1, 12, &evicted));  // Back, as the newest.
  EXPECT_EQ(evicted->id, 2u);
  EXPECT_EQ(*window.Find(1), 12);
  EXPECT_EQ(*window.Find(3), 30);
  EXPECT_EQ(window.Find(2), nullptr);
}

TEST(FifoIdWindowTest, LookupsAcrossRingWrapAround) {
  constexpr uint64_t kCapacity = 5;
  FifoIdWindow<> window(kCapacity);
  for (uint64_t id = 1; id <= 6 * kCapacity + 3; ++id) {
    ASSERT_TRUE(window.Insert(id, static_cast<uint8_t>(id % 251)));
    for (uint64_t past = 1; past <= id; ++past) {
      const bool live = past + kCapacity > id;
      const uint8_t* tag = window.Find(past);
      ASSERT_EQ(tag != nullptr, live) << "id " << past << " after " << id;
      if (live) {
        EXPECT_EQ(*tag, static_cast<uint8_t>(past % 251));
      }
    }
  }
}

/// Differential check against a deque-plus-map model under random
/// inserts (duplicates included) for every collision-forcing hash and a
/// range of capacities, so backward-shift deletion runs at the start,
/// middle and wrapped end of probe runs.
template <typename Hash>
void CheckAgainstModel(uint64_t seed) {
  for (const size_t capacity : {1u, 2u, 3u, 7u, 64u}) {
    FifoIdWindow<Hash> window(capacity);
    std::deque<uint64_t> order;
    std::map<uint64_t, uint8_t> model;
    Rng rng(seed + capacity);
    for (int op = 0; op < 600; ++op) {
      const uint64_t id = rng.UniformInt(1, 3 * capacity + 2);
      const auto tag = static_cast<uint8_t>(rng.UniformInt(0, 255));
      const bool fresh = model.count(id) == 0;
      ASSERT_EQ(window.Insert(id, tag), fresh) << "op " << op;
      if (fresh) {
        if (order.size() == capacity) {
          model.erase(order.front());
          order.pop_front();
        }
        order.push_back(id);
        model[id] = tag;
      }
      ASSERT_EQ(window.size(), order.size());
      for (uint64_t probe = 1; probe <= 3 * capacity + 2; ++probe) {
        const uint8_t* found = window.Find(probe);
        auto it = model.find(probe);
        ASSERT_EQ(found != nullptr, it != model.end())
            << "capacity " << capacity << " op " << op << " id " << probe;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
  }
}

TEST(FifoIdWindowTest, BackwardShiftDeletionUnderForcedCollisions) {
  CheckAgainstModel<FirstSlotHash>(0xC011);
  CheckAgainstModel<LastSlotHash>(0xC012);
  CheckAgainstModel<ThreeHomesHash>(0xC013);
  CheckAgainstModel<IdWindowHash>(0xC014);
}

TEST(FifoIdWindowTest, CapacityZeroHoldsNothing) {
  FifoIdWindow<> window(0);
  EXPECT_FALSE(window.Insert(1, 0));
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.Find(1), nullptr);

  OutcomeWindow outcomes(0);
  outcomes.Record(1, Status::Internal("lost"));
  EXPECT_EQ(outcomes.size(), 0u);
  EXPECT_EQ(outcomes.failure_count(), 0u);
  EXPECT_FALSE(outcomes.Find(1).has_value());
}

TEST(FifoIdWindowTest, ClearForgetsEverythingAndStaysUsable) {
  FifoIdWindow<FirstSlotHash> window(3);
  for (uint64_t id = 1; id <= 5; ++id) ASSERT_TRUE(window.Insert(id, 1));
  window.Clear();
  EXPECT_EQ(window.size(), 0u);
  for (uint64_t id = 1; id <= 5; ++id) EXPECT_EQ(window.Find(id), nullptr);
  for (uint64_t id = 4; id <= 9; ++id) ASSERT_TRUE(window.Insert(id, 2));
  for (uint64_t id = 7; id <= 9; ++id) EXPECT_NE(window.Find(id), nullptr);
  EXPECT_EQ(window.Find(6), nullptr);
}

TEST(OutcomeWindowTest, FailedOutcomeReplaysWithItsMessage) {
  OutcomeWindow outcomes(2);
  outcomes.Record(5, Status::Internal("stored region missing"));
  outcomes.Record(6, Status::OK());
  outcomes.Record(5, Status::OK());  // Already recorded: ignored.

  std::optional<Status> failed = outcomes.Find(5);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->code(), StatusCode::kInternal);
  EXPECT_EQ(failed->message(), "stored region missing");
  ASSERT_TRUE(outcomes.Find(6).has_value());
  EXPECT_TRUE(outcomes.Find(6)->ok());
  EXPECT_FALSE(outcomes.Find(7).has_value());
  EXPECT_EQ(outcomes.failure_count(), 1u);

  // Evicting the failure drops its message with it.
  outcomes.Record(7, Status::OK());
  EXPECT_FALSE(outcomes.Find(5).has_value());
  EXPECT_EQ(outcomes.failure_count(), 0u);
  EXPECT_EQ(outcomes.size(), 2u);
}

RegionUpsertMsg Upsert(uint64_t request_id, uint64_t handle) {
  RegionUpsertMsg msg;
  msg.request_id = request_id;
  msg.handle = handle;
  msg.region = Rect(0.1, 0.1, 0.2, 0.2);
  return msg;
}

/// Load and Open start a new process lifetime: recorded outcomes and
/// retired handles are both forgotten, so a pre-reset request re-executes
/// against the new store.
TEST(QueryServerIdWindowTest, LoadAndOpenResetBothWindows) {
  QueryServerOptions options;
  options.idempotency_window = 8;
  for (const bool reopen : {false, true}) {
    QueryServer server(options);
    storage::MemoryStorageManager sm;
    ASSERT_TRUE(server.Save(&sm).ok());  // Empty checkpoint.
    ASSERT_TRUE(server.Apply(Upsert(1, 100)).ok());
    RegionUpsertMsg rotate = Upsert(2, 101);
    rotate.has_replaces = true;
    rotate.replaces = 100;  // Retires handle 100.
    ASSERT_TRUE(server.Apply(rotate).ok());
    ASSERT_EQ(server.applied_request_count(), 2u);

    if (reopen) {
      ASSERT_TRUE(server.Open(&sm).ok());
    } else {
      ASSERT_TRUE(server.Load(SnapshotMsg{}).ok());
    }
    EXPECT_EQ(server.applied_request_count(), 0u);
    // Neither a recorded outcome nor the retirement mark survives: the
    // old upsert of handle 100 applies again.
    ASSERT_TRUE(server.Apply(Upsert(1, 100)).ok());
    EXPECT_EQ(server.private_store().size(), 1u);
    EXPECT_EQ(server.applied_request_count(), 1u);
  }
}

}  // namespace
}  // namespace casper::server
