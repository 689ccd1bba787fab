#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/casper/messages.h"

/// Golden-file tests of the wire format: one fixed message of every
/// payload kind and every message type is encoded and compared byte for
/// byte with hex frames checked in under tests/golden/, so any change to
/// field order, widths, record layout or the checksum trailer shows up
/// as a reviewable diff (and is a format-version bump). The goldens
/// decode back to the same fixtures, and record blocks decode correctly
/// from frames placed at odd addresses. Regenerate with:
///
///   CASPER_REGEN_GOLDEN=1 ./tests/messages_golden_test

namespace casper {
namespace {

const char* const kGoldenFile = "messages.hex";

processor::ExtendedArea FixtureArea() {
  processor::ExtendedArea area;
  area.a_ext = Rect(0.25, 0.375, 0.625, 0.75);
  for (size_t i = 0; i < area.edges.size(); ++i) {
    area.edges[i].max_d = 0.0625 * static_cast<double>(i + 1);
    area.edges[i].has_middle = i % 2 == 0;
    area.edges[i].middle = Point{0.3 + 0.01 * static_cast<double>(i), 0.4};
  }
  return area;
}

std::vector<processor::PublicTarget> FixturePublicTargets() {
  return {{101, Point{0.125, 0.5}},
          {0xFFFFFFFFFFFFFFF0ull, Point{-0.25, 1e-9}},
          {7, Point{0.3, 0.7}}};
}

std::vector<processor::PrivateTarget> FixturePrivateTargets() {
  return {{0xC0FFEE, Rect(0.1, 0.2, 0.3, 0.4)},
          {2, Rect(0.5, 0.5, 0.5, 0.5)},
          {0x123456789ABCDEF0ull, Rect(-1.0, -2.0, 3.0, 4.0)}};
}

CandidateListMsg FixtureAnswer(QueryKind kind) {
  CandidateListMsg msg;
  msg.kind = kind;
  msg.request_id = 0x0102030405060708ull + static_cast<uint64_t>(kind);
  msg.degraded = kind == QueryKind::kNearestPublic;
  msg.processor_seconds = 0.000125;
  switch (kind) {
    case QueryKind::kNearestPublic:
      msg.payload = processor::PublicCandidateList{
          FixturePublicTargets(), FixtureArea(),
          processor::FilterPolicy::kTwoFilters};
      break;
    case QueryKind::kKNearestPublic:
      msg.payload = processor::KnnCandidateList{
          FixturePublicTargets(), Rect(0.0, 0.0, 0.5, 0.5), 3};
      break;
    case QueryKind::kRangePublic:
      msg.payload = processor::PublicRangeCandidates{
          FixturePublicTargets(), Rect(0.1, 0.1, 0.9, 0.9)};
      break;
    case QueryKind::kNearestPrivate:
      msg.payload = processor::PrivateCandidateList{
          FixturePrivateTargets(), FixtureArea(),
          processor::FilterPolicy::kFourFilters};
      break;
    case QueryKind::kPublicNearest: {
      processor::PublicNNCandidates list;
      for (const processor::PrivateTarget& t : FixturePrivateTargets()) {
        list.candidates.push_back(
            {t, 0.01 * static_cast<double>(t.id % 7), 0.5});
      }
      list.minimax_bound = 0.4375;
      msg.payload = list;
      break;
    }
    case QueryKind::kPublicRange:
      msg.payload =
          processor::RangeCountResult{1, 3, 2.5, FixturePrivateTargets()};
      break;
    case QueryKind::kDensity:
      msg.payload = processor::DensityMap::FromCells(
                        Rect(0.0, 0.0, 1.0, 1.0), 3, 2,
                        {0.0, 0.5, 1.0, 1.5, 2.0, 0.25})
                        .value();
      break;
  }
  return msg;
}

CloakedQueryMsg FixtureQuery() {
  CloakedQueryMsg msg;
  msg.kind = QueryKind::kNearestPrivate;
  msg.request_id = 42;
  msg.cloak = Rect(0.2, 0.3, 0.4, 0.5);
  msg.k = 5;
  msg.radius = 0.0625;
  msg.has_exclude = true;
  msg.exclude_handle = 0xABCDEF;
  msg.point = Point{0.6, 0.7};
  msg.region = Rect(0.1, 0.1, 0.2, 0.2);
  msg.cols = 16;
  msg.rows = -3;
  return msg;
}

RegionUpsertMsg FixtureUpsert() {
  RegionUpsertMsg msg;
  msg.request_id = 9001;
  msg.handle = 0x5555;
  msg.has_replaces = true;
  msg.replaces = 0x4444;
  msg.region = Rect(0.05, 0.15, 0.25, 0.35);
  return msg;
}

RegionRemoveMsg FixtureRemove() {
  RegionRemoveMsg msg;
  msg.request_id = 9002;
  msg.handle = 0x6666;
  return msg;
}

SnapshotMsg FixtureSnapshot() {
  SnapshotMsg msg;
  msg.regions = FixturePrivateTargets();
  return msg;
}

AckMsg FixtureAck() {
  return AckMsg::For(77, Status::FailedPrecondition("store is stale"));
}

const char* const kKindNames[] = {
    "candidate_list.nearest_public", "candidate_list.knearest_public",
    "candidate_list.range_public",   "candidate_list.nearest_private",
    "candidate_list.public_nearest", "candidate_list.public_range",
    "candidate_list.density"};

/// Every fixture frame, by golden name.
std::vector<std::pair<std::string, std::string>> EncodeFixtures() {
  std::vector<std::pair<std::string, std::string>> frames;
  for (int k = 0; k <= static_cast<int>(QueryKind::kDensity); ++k) {
    frames.emplace_back(kKindNames[k],
                        Encode(FixtureAnswer(static_cast<QueryKind>(k))));
  }
  frames.emplace_back("cloaked_query", Encode(FixtureQuery()));
  frames.emplace_back("region_upsert", Encode(FixtureUpsert()));
  frames.emplace_back("region_remove", Encode(FixtureRemove()));
  frames.emplace_back("snapshot", Encode(FixtureSnapshot()));
  frames.emplace_back("ack", Encode(FixtureAck()));
  return frames;
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::string GoldenPath() {
  return std::string(CASPER_SOURCE_DIR) + "/tests/golden/" + kGoldenFile;
}

/// The checked-in frames, by name (empty when the file is missing).
std::map<std::string, std::string> ReadGoldens() {
  std::map<std::string, std::string> frames;
  std::ifstream in(GoldenPath());
  std::string name, hex;
  while (in >> name >> hex) frames[name] = FromHex(hex);
  return frames;
}

TEST(MessagesGoldenTest, EncodersMatchGoldenFrames) {
  const auto frames = EncodeFixtures();
  if (std::getenv("CASPER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    for (const auto& [name, frame] : frames) {
      out << name << ' ' << ToHex(frame) << '\n';
    }
    ASSERT_TRUE(out.good()) << "failed to write " << GoldenPath();
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  const auto goldens = ReadGoldens();
  ASSERT_EQ(goldens.size(), frames.size()) << "missing or stale "
                                           << GoldenPath();
  for (const auto& [name, frame] : frames) {
    auto it = goldens.find(name);
    ASSERT_NE(it, goldens.end()) << "no golden frame for " << name;
    EXPECT_EQ(ToHex(frame), ToHex(it->second))
        << name << " drifted from " << GoldenPath()
        << " (CASPER_REGEN_GOLDEN=1 to update)";
  }
}

TEST(MessagesGoldenTest, GoldenFramesDecodeToTheFixtures) {
  auto goldens = ReadGoldens();
  ASSERT_FALSE(goldens.empty()) << "missing golden file " << GoldenPath();
  for (int k = 0; k <= static_cast<int>(QueryKind::kDensity); ++k) {
    const CandidateListMsg expected = FixtureAnswer(static_cast<QueryKind>(k));
    const std::string& frame = goldens[kKindNames[k]];
    auto owning = DecodeCandidateList(frame);
    ASSERT_TRUE(owning.ok()) << kKindNames[k] << ": "
                             << owning.status().ToString();
    EXPECT_TRUE(owning.value() == expected) << kKindNames[k];
    auto view = DecodeCandidateListView(frame);
    ASSERT_TRUE(view.ok()) << kKindNames[k];
    EXPECT_TRUE(view->Materialize() == expected) << kKindNames[k];
  }
  auto query = DecodeCloakedQuery(goldens["cloaked_query"]);
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query.value() == FixtureQuery());
  auto upsert = DecodeRegionUpsert(goldens["region_upsert"]);
  ASSERT_TRUE(upsert.ok());
  EXPECT_TRUE(upsert.value() == FixtureUpsert());
  auto remove = DecodeRegionRemove(goldens["region_remove"]);
  ASSERT_TRUE(remove.ok());
  EXPECT_TRUE(remove.value() == FixtureRemove());
  auto snapshot = DecodeSnapshot(goldens["snapshot"]);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value() == FixtureSnapshot());
  auto ack = DecodeAck(goldens["ack"]);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value() == FixtureAck());
}

/// Byte offset of the first record in a candidate-list frame: tag, kind,
/// request id, degraded, processor seconds, payload index, count.
constexpr size_t kCandidateBlockOffset = 1 + 1 + 8 + 1 + 8 + 1 + 8;
/// Density cells follow the payload index, extent, cols and rows.
constexpr size_t kDensityBlockOffset = 1 + 1 + 8 + 1 + 8 + 1 + 32 + 4 + 4;
/// Snapshot records follow the tag and the count.
constexpr size_t kSnapshotBlockOffset = 1 + 8;

/// `frame` copied into a buffer at an offset that puts its record block
/// (`block_offset` bytes in) at an odd address.
std::string_view AtOddBlockAddress(const std::string& frame,
                                   size_t block_offset, std::string* buf) {
  buf->assign(frame.size() + 2, '\0');
  for (size_t shift = 0; shift < 2; ++shift) {
    const auto block =
        reinterpret_cast<uintptr_t>(buf->data() + shift + block_offset);
    if (block % 2 == 1) {
      buf->replace(shift, frame.size(), frame);
      return std::string_view(*buf).substr(shift, frame.size());
    }
  }
  ADD_FAILURE() << "no odd offset found";
  return {};
}

/// memcpy record reads must not assume alignment: each record type
/// decodes the same from a frame whose block starts at an odd address,
/// through both the owning decoder and the view's per-record access.
TEST(MessagesGoldenTest, RecordBlocksDecodeAtOddAddresses) {
  std::string buf;
  for (const QueryKind kind :
       {QueryKind::kNearestPublic, QueryKind::kNearestPrivate,
        QueryKind::kPublicNearest, QueryKind::kDensity}) {
    const CandidateListMsg expected = FixtureAnswer(kind);
    const std::string frame = Encode(expected);
    const size_t offset = kind == QueryKind::kDensity ? kDensityBlockOffset
                                                      : kCandidateBlockOffset;
    const std::string_view odd = AtOddBlockAddress(frame, offset, &buf);
    auto owning = DecodeCandidateList(odd);
    ASSERT_TRUE(owning.ok()) << owning.status().ToString();
    EXPECT_TRUE(owning.value() == expected);
    auto view = DecodeCandidateListView(odd);
    ASSERT_TRUE(view.ok());
    if (kind == QueryKind::kNearestPublic) {
      const auto& span = std::get<PublicCandidateListView>(view->payload);
      const auto& want =
          std::get<processor::PublicCandidateList>(expected.payload);
      ASSERT_EQ(span.candidates.size(), want.candidates.size());
      for (size_t i = 0; i < want.candidates.size(); ++i) {
        EXPECT_TRUE(span.candidates[i] == want.candidates[i]);
      }
    } else if (kind == QueryKind::kNearestPrivate) {
      const auto& span = std::get<PrivateCandidateListView>(view->payload);
      const auto& want =
          std::get<processor::PrivateCandidateList>(expected.payload);
      ASSERT_EQ(span.candidates.size(), want.candidates.size());
      for (size_t i = 0; i < want.candidates.size(); ++i) {
        EXPECT_TRUE(span.candidates[i] == want.candidates[i]);
      }
    } else if (kind == QueryKind::kPublicNearest) {
      const auto& span = std::get<PublicNNCandidatesView>(view->payload);
      const auto& want =
          std::get<processor::PublicNNCandidates>(expected.payload);
      ASSERT_EQ(span.candidates.size(), want.candidates.size());
      for (size_t i = 0; i < want.candidates.size(); ++i) {
        EXPECT_TRUE(span.candidates[i] == want.candidates[i]);
      }
    } else {
      const auto& span = std::get<DensityMapView>(view->payload);
      const auto& want = std::get<processor::DensityMap>(expected.payload);
      ASSERT_EQ(span.cells.size(), 6u);
      for (size_t i = 0; i < span.cells.size(); ++i) {
        EXPECT_EQ(span.cells[i], want.At(static_cast<int>(i % 3),
                                         static_cast<int>(i / 3)));
      }
    }
  }
  const SnapshotMsg snapshot = FixtureSnapshot();
  const std::string frame = Encode(snapshot);
  const std::string_view odd =
      AtOddBlockAddress(frame, kSnapshotBlockOffset, &buf);
  auto owning = DecodeSnapshot(odd);
  ASSERT_TRUE(owning.ok());
  EXPECT_TRUE(owning.value() == snapshot);
  auto view = DecodeSnapshotView(odd);
  ASSERT_TRUE(view.ok());
  for (size_t i = 0; i < snapshot.regions.size(); ++i) {
    EXPECT_TRUE(view->regions[i] == snapshot.regions[i]);
  }
}

}  // namespace
}  // namespace casper
