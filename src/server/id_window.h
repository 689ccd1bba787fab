#ifndef CASPER_SERVER_ID_WINDOW_H_
#define CASPER_SERVER_ID_WINDOW_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

/// \file
/// The server tier's idempotency bookkeeping. Both of its windows — the
/// maintenance request ids whose outcome is replayed, and the retired
/// pseudonym handles — are bounded FIFO sets of 64-bit ids, stored flat:
/// a ring of ids in arrival order plus an open-addressing index from id
/// to ring position. That is about 17 bytes per remembered id, against
/// one hash node plus one deque cell (~128 bytes) in a node-based map.

namespace casper::server {

/// splitmix64's finalizer: request ids are sequential, so the index
/// needs a mixing hash to spread them over its slots.
struct IdWindowHash {
  uint64_t operator()(uint64_t id) const {
    id ^= id >> 30;
    id *= 0xbf58476d1ce4e5b9ull;
    id ^= id >> 27;
    id *= 0x94d049bb133111ebull;
    return id ^ (id >> 31);
  }
};

/// A FIFO set of at most `capacity` ids, each carrying a one-byte tag.
/// Inserting into a full window evicts the oldest id. The index probes
/// linearly and deletes by backward shift, so it never holds tombstones
/// and stays at most half full. Storage grows with the ids actually
/// held, up to the capacity.
template <typename Hash = IdWindowHash>
class FifoIdWindow {
 public:
  struct Entry {
    uint64_t id = 0;
    uint8_t tag = 0;
  };

  explicit FifoIdWindow(size_t capacity) : capacity_(capacity) {
    CASPER_DCHECK(capacity < kEmpty);
  }

  size_t size() const { return ids_.size(); }
  size_t capacity() const { return capacity_; }

  /// The tag recorded for `id`, or null when `id` is not in the window.
  const uint8_t* Find(uint64_t id) const {
    if (ids_.empty()) return nullptr;
    const uint32_t pos = index_[Probe(id)];
    return pos == kEmpty ? nullptr : &tags_[pos];
  }

  /// Record `id` with `tag`. Returns false, changing nothing, when `id`
  /// is already in the window (or the capacity is 0). A full window
  /// first evicts its oldest entry, copied to `evicted` when non-null.
  bool Insert(uint64_t id, uint8_t tag,
              std::optional<Entry>* evicted = nullptr) {
    if (capacity_ == 0) return false;
    if (ids_.size() < capacity_ && 2 * (ids_.size() + 1) > index_.size()) {
      Rehash(index_.empty() ? 16 : 2 * index_.size());
    }
    size_t slot = Probe(id);
    if (index_[slot] != kEmpty) return false;
    size_t pos = ids_.size();
    if (pos < capacity_) {
      ids_.push_back(id);
      tags_.push_back(tag);
    } else {
      pos = head_;
      head_ = (head_ + 1) % capacity_;
      if (evicted != nullptr) *evicted = Entry{ids_[pos], tags_[pos]};
      EraseSlot(Probe(ids_[pos]));
      ids_[pos] = id;
      tags_[pos] = tag;
      slot = Probe(id);  // The backward shift may have moved the gap.
    }
    index_[slot] = static_cast<uint32_t>(pos);
    return true;
  }

  /// Forget every id; the storage is kept for reuse.
  void Clear() {
    ids_.clear();
    tags_.clear();
    head_ = 0;
    index_.assign(index_.size(), kEmpty);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Next(size_t slot) const { return (slot + 1) & (index_.size() - 1); }
  size_t Home(uint64_t id) const {
    return static_cast<size_t>(Hash{}(id)) & (index_.size() - 1);
  }

  /// The index slot holding `id`, or the empty slot ending its probe.
  size_t Probe(uint64_t id) const {
    size_t slot = Home(id);
    while (index_[slot] != kEmpty && ids_[index_[slot]] != id) {
      slot = Next(slot);
    }
    return slot;
  }

  /// Empty `slot` by backward shift: each later member of its probe run
  /// whose home is not cyclically inside (gap, member] moves into the
  /// gap, so every remaining id stays reachable from its home slot.
  void EraseSlot(size_t slot) {
    const size_t mask = index_.size() - 1;
    size_t gap = slot;
    for (size_t next = Next(gap); index_[next] != kEmpty; next = Next(next)) {
      const size_t home = Home(ids_[index_[next]]);
      if (((next - home) & mask) >= ((next - gap) & mask)) {
        index_[gap] = index_[next];
        gap = next;
      }
    }
    index_[gap] = kEmpty;
  }

  /// Rebuild the index at `slots` (a power of two) from the ring.
  void Rehash(size_t slots) {
    index_.assign(slots, kEmpty);
    for (size_t pos = 0; pos < ids_.size(); ++pos) {
      index_[Probe(ids_[pos])] = static_cast<uint32_t>(pos);
    }
  }

  size_t capacity_;
  std::vector<uint64_t> ids_;  ///< Ring; the oldest id sits at head_.
  std::vector<uint8_t> tags_;  ///< Parallel to ids_.
  size_t head_ = 0;
  std::vector<uint32_t> index_;  ///< Ring positions; kEmpty when free.
};

/// Maintenance outcomes remembered for replay, FIFO-bounded: each
/// outcome's status code rides inline as its id's tag, and the full
/// Status (with its message) is kept only for the rare failure.
class OutcomeWindow {
 public:
  explicit OutcomeWindow(size_t capacity) : ids_(capacity) {}

  size_t size() const { return ids_.size(); }
  /// Failed outcomes currently held with their messages.
  size_t failure_count() const { return failures_.size(); }

  /// The outcome recorded for `request_id`, or nullopt when the id was
  /// never recorded or has been evicted.
  std::optional<Status> Find(uint64_t request_id) const {
    const uint8_t* code = ids_.Find(request_id);
    if (code == nullptr) return std::nullopt;
    if (*code == kOkCode) return Status::OK();
    return failures_.at(request_id);
  }

  /// Remember `outcome` for `request_id` unless one is already held.
  void Record(uint64_t request_id, const Status& outcome) {
    std::optional<FifoIdWindow<>::Entry> evicted;
    if (!ids_.Insert(request_id, static_cast<uint8_t>(outcome.code()),
                     &evicted)) {
      return;
    }
    if (evicted.has_value() && evicted->tag != kOkCode) {
      failures_.erase(evicted->id);
    }
    if (!outcome.ok()) failures_.emplace(request_id, outcome);
  }

  void Clear() {
    ids_.Clear();
    failures_.clear();
  }

 private:
  static constexpr uint8_t kOkCode = static_cast<uint8_t>(StatusCode::kOk);

  FifoIdWindow<> ids_;
  std::unordered_map<uint64_t, Status> failures_;
};

}  // namespace casper::server

#endif  // CASPER_SERVER_ID_WINDOW_H_
