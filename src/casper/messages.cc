#include "src/casper/messages.h"

#include <tuple>

#include "src/common/codec.h"

namespace casper {
namespace {

// Leading message tags: a decoder handed the wrong message type (or
// arbitrary bytes) fails fast instead of misinterpreting the payload.
constexpr uint8_t kTagCloakedQuery = 0xC1;
constexpr uint8_t kTagRegionUpsert = 0xC2;
constexpr uint8_t kTagRegionRemove = 0xC3;
constexpr uint8_t kTagSnapshot = 0xC4;
constexpr uint8_t kTagCandidateList = 0xC5;
constexpr uint8_t kTagAck = 0xC6;

// --- Frame integrity -------------------------------------------------------
//
// Every encoded message carries a trailing FNV-1a-64 checksum of the
// frame body (wire::Writer::Seal / wire::Unseal, shared with the storage tier
// via src/common/codec.h). Without it, a transport-corrupted byte
// inside a raw double (a coordinate, a distance) is indistinguishable
// from a different valid measurement and would decode as a *different
// valid message* — the one class of corruption field validation cannot
// catch. With it, a corrupted frame fails decode, the endpoint acks
// kDataLoss, and the resilient client re-sends: corruption is converted
// into a retryable transport failure instead of a silent wrong answer.

using wire::Reader;
using wire::Unseal;
using wire::Writer;

bool ValidKind(uint8_t kind) {
  return kind <= static_cast<uint8_t>(QueryKind::kDensity);
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kDataLoss);
}

bool ValidPolicy(uint8_t policy) {
  return policy == 1 || policy == 2 || policy == 4;
}

// Encoded sizes. A frame's size is known before its first byte is
// written, so every encoder makes exactly one allocation.
constexpr size_t kRectBytes = 32;
constexpr size_t kEdgeBytes = 8 + 1 + 16;  // max_d, has_middle, middle.
constexpr size_t kExtendedAreaBytes =
    kRectBytes +
    std::tuple_size_v<decltype(processor::ExtendedArea::edges)> * kEdgeBytes;
constexpr size_t kCountBytes = 8;

/// Body bytes of a container of `n` fixed-layout records.
template <typename T>
constexpr size_t BlockBytes(size_t n) {
  return kCountBytes + n * sizeof(T);
}

template <typename T>
void PutBlock(Writer& w, const std::vector<T>& records) {
  w.Count(records.size());
  w.Block(records.data(), records.size());
}

/// A length-prefixed record block, left in the frame as a span.
template <typename T>
WireSpan<T> GetBlock(Reader& r) {
  const size_t n = r.Count(sizeof(T));
  return WireSpan<T>(r.Skip(n * sizeof(T)), n);
}

void Put(Writer& w, const processor::ExtendedArea& area) {
  w.R(area.a_ext);
  for (const processor::EdgeExtension& e : area.edges) {
    w.F64(e.max_d);
    w.Bool(e.has_middle);
    w.P(e.middle);
  }
}

processor::ExtendedArea GetExtendedArea(Reader& r) {
  processor::ExtendedArea area;
  area.a_ext = r.R();
  for (processor::EdgeExtension& e : area.edges) {
    e.max_d = r.F64();
    e.has_middle = r.Bool();
    e.middle = r.P();
  }
  return area;
}

/// Encoded size of a payload: its index byte plus the fields PutPayload
/// writes for that alternative.
size_t PayloadBytes(const ServerPayload& payload) {
  using processor::PrivateTarget;
  using processor::PublicTarget;
  const size_t body = std::visit(
      [](const auto& p) -> size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, processor::PublicCandidateList>) {
          return BlockBytes<PublicTarget>(p.candidates.size()) +
                 kExtendedAreaBytes + 1;
        } else if constexpr (std::is_same_v<T, processor::KnnCandidateList>) {
          return BlockBytes<PublicTarget>(p.candidates.size()) + kRectBytes +
                 8;
        } else if constexpr (std::is_same_v<T,
                                            processor::PublicRangeCandidates>) {
          return BlockBytes<PublicTarget>(p.candidates.size()) + kRectBytes;
        } else if constexpr (std::is_same_v<T,
                                            processor::PrivateCandidateList>) {
          return BlockBytes<PrivateTarget>(p.candidates.size()) +
                 kExtendedAreaBytes + 1;
        } else if constexpr (std::is_same_v<T,
                                            processor::PublicNNCandidates>) {
          return BlockBytes<processor::PublicNNCandidates::Candidate>(
                     p.candidates.size()) +
                 8;
        } else if constexpr (std::is_same_v<T, processor::RangeCountResult>) {
          return 3 * 8 + BlockBytes<PrivateTarget>(p.overlapping.size());
        } else {
          static_assert(std::is_same_v<T, processor::DensityMap>);
          return kRectBytes + 4 + 4 + p.cells().size() * sizeof(double);
        }
      },
      payload);
  return 1 + body;
}

void PutPayload(Writer& w, const ServerPayload& payload) {
  w.U8(static_cast<uint8_t>(payload.index()));
  if (const auto* p = std::get_if<processor::PublicCandidateList>(&payload)) {
    PutBlock(w, p->candidates);
    Put(w, p->area);
    w.U8(static_cast<uint8_t>(p->policy));
  } else if (const auto* p =
                 std::get_if<processor::KnnCandidateList>(&payload)) {
    PutBlock(w, p->candidates);
    w.R(p->a_ext);
    w.U64(p->k);
  } else if (const auto* p =
                 std::get_if<processor::PublicRangeCandidates>(&payload)) {
    PutBlock(w, p->candidates);
    w.R(p->search_window);
  } else if (const auto* p =
                 std::get_if<processor::PrivateCandidateList>(&payload)) {
    PutBlock(w, p->candidates);
    Put(w, p->area);
    w.U8(static_cast<uint8_t>(p->policy));
  } else if (const auto* p =
                 std::get_if<processor::PublicNNCandidates>(&payload)) {
    PutBlock(w, p->candidates);
    w.F64(p->minimax_bound);
  } else if (const auto* p =
                 std::get_if<processor::RangeCountResult>(&payload)) {
    w.U64(p->certain);
    w.U64(p->possible);
    w.F64(p->expected);
    PutBlock(w, p->overlapping);
  } else if (const auto* p = std::get_if<processor::DensityMap>(&payload)) {
    w.R(p->extent());
    w.I32(p->cols());
    w.I32(p->rows());
    w.Block(p->cells().data(), p->cells().size());  // Row-major.
  }
}

Result<ServerPayloadView> GetPayloadView(Reader& r) {
  const uint8_t index = r.U8();
  if (r.failed()) return Status::InvalidArgument("truncated payload");
  switch (index) {
    case 0: {
      PublicCandidateListView view;
      view.candidates = GetBlock<processor::PublicTarget>(r);
      view.area = GetExtendedArea(r);
      const uint8_t policy = r.U8();
      if (r.failed()) return Status::InvalidArgument("truncated payload");
      if (!ValidPolicy(policy)) {
        return Status::InvalidArgument("bad filter policy");
      }
      view.policy = static_cast<processor::FilterPolicy>(policy);
      return ServerPayloadView(view);
    }
    case 1: {
      KnnCandidateListView view;
      view.candidates = GetBlock<processor::PublicTarget>(r);
      view.a_ext = r.R();
      view.k = r.U64();
      return ServerPayloadView(view);
    }
    case 2: {
      PublicRangeCandidatesView view;
      view.candidates = GetBlock<processor::PublicTarget>(r);
      view.search_window = r.R();
      return ServerPayloadView(view);
    }
    case 3: {
      PrivateCandidateListView view;
      view.candidates = GetBlock<processor::PrivateTarget>(r);
      view.area = GetExtendedArea(r);
      const uint8_t policy = r.U8();
      if (r.failed()) return Status::InvalidArgument("truncated payload");
      if (!ValidPolicy(policy)) {
        return Status::InvalidArgument("bad filter policy");
      }
      view.policy = static_cast<processor::FilterPolicy>(policy);
      return ServerPayloadView(view);
    }
    case 4: {
      PublicNNCandidatesView view;
      view.candidates = GetBlock<processor::PublicNNCandidates::Candidate>(r);
      view.minimax_bound = r.F64();
      return ServerPayloadView(view);
    }
    case 5: {
      RangeCountResultView view;
      view.certain = r.U64();
      view.possible = r.U64();
      view.expected = r.F64();
      view.overlapping = GetBlock<processor::PrivateTarget>(r);
      return ServerPayloadView(view);
    }
    case 6: {
      DensityMapView view;
      view.extent = r.R();
      view.cols = r.I32();
      view.rows = r.I32();
      if (r.failed() || view.cols < 1 || view.rows < 1 ||
          static_cast<uint64_t>(view.cols) * static_cast<uint64_t>(view.rows) >
              r.Remaining() / sizeof(double)) {
        return Status::InvalidArgument("bad density grid");
      }
      const size_t n =
          static_cast<size_t>(view.cols) * static_cast<size_t>(view.rows);
      view.cells = WireSpan<double>(r.Skip(n * sizeof(double)), n);
      return ServerPayloadView(view);
    }
    default:
      return Status::InvalidArgument("unknown payload kind");
  }
}

// Fixed message bodies, tag byte included.
constexpr size_t kCloakedQueryBytes =
    1 + 1 + 8 + kRectBytes + 8 + 8 + 1 + 8 + 16 + kRectBytes + 4 + 4;
constexpr size_t kRegionUpsertBytes = 1 + 8 + 8 + 1 + 8 + kRectBytes;
constexpr size_t kRegionRemoveBytes = 1 + 8 + 8;
constexpr size_t kCandidateListHeaderBytes = 1 + 1 + 8 + 1 + 8;
constexpr size_t kAckHeaderBytes = 1 + 8 + 1 + kCountBytes;

/// A writer for a sealed frame of `body_bytes` plus its checksum.
Writer FrameWriter(size_t body_bytes) {
  return Writer(body_bytes + wire::kChecksumBytes);
}

}  // namespace

size_t RecordCount(const ServerPayload& payload) {
  return std::visit(
      [](const auto& p) -> size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, processor::PublicRangeCandidates>) {
          return p.candidates.size();
        } else if constexpr (std::is_same_v<T,
                                            processor::PublicNNCandidates>) {
          return p.candidates.size();
        } else if constexpr (std::is_same_v<T, processor::RangeCountResult>) {
          return p.overlapping.size();
        } else if constexpr (std::is_same_v<T, processor::DensityMap>) {
          return static_cast<size_t>(p.cols()) * static_cast<size_t>(p.rows());
        } else {
          return p.size();
        }
      },
      payload);
}

std::string Encode(const CloakedQueryMsg& msg) {
  Writer w = FrameWriter(kCloakedQueryBytes);
  w.U8(kTagCloakedQuery);
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U64(msg.request_id);
  w.R(msg.cloak);
  w.U64(msg.k);
  w.F64(msg.radius);
  w.Bool(msg.has_exclude);
  w.U64(msg.exclude_handle);
  w.P(msg.point);
  w.R(msg.region);
  w.I32(msg.cols);
  w.I32(msg.rows);
  return w.Seal();
}

Result<CloakedQueryMsg> DecodeCloakedQuery(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "CloakedQuery"));
  Reader r(body);
  if (!r.Tag(kTagCloakedQuery)) {
    return Status::InvalidArgument("not a CloakedQueryMsg");
  }
  CloakedQueryMsg msg;
  const uint8_t kind = r.U8();
  if (r.failed() || !ValidKind(kind)) {
    return Status::InvalidArgument("bad query kind");
  }
  msg.kind = static_cast<QueryKind>(kind);
  msg.request_id = r.U64();
  msg.cloak = r.R();
  msg.k = r.U64();
  msg.radius = r.F64();
  msg.has_exclude = r.Bool();
  msg.exclude_handle = r.U64();
  msg.point = r.P();
  msg.region = r.R();
  msg.cols = r.I32();
  msg.rows = r.I32();
  CASPER_RETURN_IF_ERROR(r.Finish("CloakedQuery"));
  return msg;
}

std::string Encode(const RegionUpsertMsg& msg) {
  Writer w = FrameWriter(kRegionUpsertBytes);
  w.U8(kTagRegionUpsert);
  w.U64(msg.request_id);
  w.U64(msg.handle);
  w.Bool(msg.has_replaces);
  w.U64(msg.replaces);
  w.R(msg.region);
  return w.Seal();
}

Result<RegionUpsertMsg> DecodeRegionUpsert(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "RegionUpsert"));
  Reader r(body);
  if (!r.Tag(kTagRegionUpsert)) {
    return Status::InvalidArgument("not a RegionUpsertMsg");
  }
  RegionUpsertMsg msg;
  msg.request_id = r.U64();
  msg.handle = r.U64();
  msg.has_replaces = r.Bool();
  msg.replaces = r.U64();
  msg.region = r.R();
  CASPER_RETURN_IF_ERROR(r.Finish("RegionUpsert"));
  return msg;
}

std::string Encode(const RegionRemoveMsg& msg) {
  Writer w = FrameWriter(kRegionRemoveBytes);
  w.U8(kTagRegionRemove);
  w.U64(msg.request_id);
  w.U64(msg.handle);
  return w.Seal();
}

Result<RegionRemoveMsg> DecodeRegionRemove(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "RegionRemove"));
  Reader r(body);
  if (!r.Tag(kTagRegionRemove)) {
    return Status::InvalidArgument("not a RegionRemoveMsg");
  }
  RegionRemoveMsg msg;
  msg.request_id = r.U64();
  msg.handle = r.U64();
  CASPER_RETURN_IF_ERROR(r.Finish("RegionRemove"));
  return msg;
}

std::string Encode(const SnapshotMsg& msg) {
  Writer w = FrameWriter(
      1 + BlockBytes<processor::PrivateTarget>(msg.regions.size()));
  w.U8(kTagSnapshot);
  PutBlock(w, msg.regions);
  return w.Seal();
}

Result<SnapshotMsg> DecodeSnapshot(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(view, DecodeSnapshotView(bytes));
  return view.Materialize();
}

std::string Encode(const CandidateListMsg& msg) {
  Writer w =
      FrameWriter(kCandidateListHeaderBytes + PayloadBytes(msg.payload));
  w.U8(kTagCandidateList);
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U64(msg.request_id);
  w.Bool(msg.degraded);
  w.F64(msg.processor_seconds);
  PutPayload(w, msg.payload);
  return w.Seal();
}

Result<CandidateListMsg> DecodeCandidateList(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(view, DecodeCandidateListView(bytes));
  return view.Materialize();
}

Status AckMsg::ToStatus() const {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kAlreadyExists: return Status::AlreadyExists(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kOutOfRange: return Status::OutOfRange(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kUnavailable: return Status::Unavailable(message);
    case StatusCode::kDataLoss: return Status::DataLoss(message);
  }
  return Status::Internal("unknown status code in ack");
}

AckMsg AckMsg::For(uint64_t request_id, const Status& status) {
  AckMsg ack;
  ack.request_id = request_id;
  ack.code = status.code();
  ack.message = status.message();
  return ack;
}

std::string Encode(const AckMsg& msg) {
  Writer w = FrameWriter(kAckHeaderBytes + msg.message.size());
  w.U8(kTagAck);
  w.U64(msg.request_id);
  w.U8(static_cast<uint8_t>(msg.code));
  w.Str(msg.message);
  return w.Seal();
}

Result<AckMsg> DecodeAck(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "Ack"));
  Reader r(body);
  if (!r.Tag(kTagAck)) {
    return Status::InvalidArgument("not an AckMsg");
  }
  AckMsg msg;
  msg.request_id = r.U64();
  const uint8_t code = r.U8();
  if (r.failed() || !ValidStatusCode(code)) {
    return Status::InvalidArgument("bad status code");
  }
  msg.code = static_cast<StatusCode>(code);
  msg.message = r.Str();
  CASPER_RETURN_IF_ERROR(r.Finish("Ack"));
  return msg;
}

size_t RecordCount(const ServerPayloadView& payload) {
  return std::visit(
      [](const auto& p) -> size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RangeCountResultView>) {
          return p.overlapping.size();
        } else if constexpr (std::is_same_v<T, DensityMapView>) {
          return static_cast<size_t>(p.cols) * static_cast<size_t>(p.rows);
        } else {
          return p.candidates.size();
        }
      },
      payload);
}

processor::PublicCandidateList PublicCandidateListView::Materialize() const {
  return {candidates.Materialize(), area, policy};
}

processor::KnnCandidateList KnnCandidateListView::Materialize() const {
  return {candidates.Materialize(), a_ext, static_cast<size_t>(k)};
}

processor::PublicRangeCandidates PublicRangeCandidatesView::Materialize()
    const {
  return {candidates.Materialize(), search_window};
}

processor::PrivateCandidateList PrivateCandidateListView::Materialize() const {
  return {candidates.Materialize(), area, policy};
}

processor::PublicNNCandidates PublicNNCandidatesView::Materialize() const {
  return {candidates.Materialize(), minimax_bound};
}

processor::RangeCountResult RangeCountResultView::Materialize() const {
  return {static_cast<size_t>(certain), static_cast<size_t>(possible),
          expected, overlapping.Materialize()};
}

processor::DensityMap DensityMapView::Materialize() const {
  // The view decoder already enforced FromCells' preconditions
  // (cols >= 1, rows >= 1, cells.size() == cols * rows), so this
  // cannot fail.
  return processor::DensityMap::FromCells(extent, cols, rows,
                                          cells.Materialize())
      .value();
}

CandidateListMsg CandidateListView::Materialize() const {
  CandidateListMsg msg;
  msg.kind = kind;
  msg.request_id = request_id;
  msg.degraded = degraded;
  msg.processor_seconds = processor_seconds;
  msg.payload = std::visit(
      [](const auto& p) -> ServerPayload { return p.Materialize(); }, payload);
  return msg;
}

SnapshotMsg SnapshotView::Materialize() const {
  SnapshotMsg msg;
  msg.regions = regions.Materialize();
  return msg;
}

Result<CandidateListView> DecodeCandidateListView(std::string_view frame) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(frame, "CandidateList"));
  Reader r(body);
  if (!r.Tag(kTagCandidateList)) {
    return Status::InvalidArgument("not a CandidateListMsg");
  }
  const uint8_t kind = r.U8();
  if (r.failed() || !ValidKind(kind)) {
    return Status::InvalidArgument("bad query kind");
  }
  CandidateListView view;
  view.kind = static_cast<QueryKind>(kind);
  view.request_id = r.U64();
  view.degraded = r.Bool();
  view.processor_seconds = r.F64();
  CASPER_ASSIGN_OR_RETURN(payload, GetPayloadView(r));
  CASPER_RETURN_IF_ERROR(r.Finish("CandidateList"));
  view.payload = payload;
  return view;
}

Result<SnapshotView> DecodeSnapshotView(std::string_view frame) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(frame, "Snapshot"));
  Reader r(body);
  if (!r.Tag(kTagSnapshot)) {
    return Status::InvalidArgument("not a SnapshotMsg");
  }
  SnapshotView view;
  view.regions = GetBlock<processor::PrivateTarget>(r);
  CASPER_RETURN_IF_ERROR(r.Finish("Snapshot"));
  return view;
}

Result<MessageTag> TagOf(std::string_view bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty message");
  const auto tag = static_cast<uint8_t>(bytes[0]);
  switch (tag) {
    case kTagCloakedQuery: return MessageTag::kCloakedQuery;
    case kTagRegionUpsert: return MessageTag::kRegionUpsert;
    case kTagRegionRemove: return MessageTag::kRegionRemove;
    case kTagSnapshot: return MessageTag::kSnapshot;
    case kTagCandidateList: return MessageTag::kCandidateList;
    case kTagAck: return MessageTag::kAck;
  }
  return Status::InvalidArgument("unknown message tag");
}

uint64_t RequestIdOf(std::string_view bytes) {
  Result<MessageTag> tag = TagOf(bytes);
  if (!tag.ok()) return 0;
  size_t offset = 0;
  switch (tag.value()) {
    case MessageTag::kCloakedQuery:
      offset = 2;  // tag u8, kind u8
      break;
    case MessageTag::kRegionUpsert:
    case MessageTag::kRegionRemove:
      offset = 1;  // tag u8
      break;
    default:
      return 0;  // Snapshots and responses are unkeyed.
  }
  if (bytes.size() < offset + 8) return 0;
  uint64_t id = 0;
  std::memcpy(&id, bytes.data() + offset, sizeof(id));
  return id;
}

}  // namespace casper
