#ifndef CASPER_COMMON_CODEC_H_
#define CASPER_COMMON_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/geometry.h"
#include "src/common/result.h"

/// \file
/// The little-endian byte-codec substrate shared by the wire-message
/// protocol (src/casper/messages.cc) and the page-based storage tier
/// (src/storage/): a Writer/Reader pair over length-prefixed,
/// fixed-width little-endian fields, plus the FNV-1a-64 frame seal.
/// Every sealed frame — a wire message or a storage header — carries a
/// trailing checksum of its body, so a corrupted byte inside a raw
/// double is a typed decode failure instead of a silently different
/// valid value. Decoders validate every length prefix and that the
/// buffer is fully consumed; truncated or mistyped buffers fail with
/// InvalidArgument instead of crashing.
///
/// Fixed-width fields and fixed-layout record blocks are copied with
/// memcpy in host byte order, which is the wire order only on a
/// little-endian host — hence the assertion below rather than per-field
/// byte swaps.

static_assert(std::endian::native == std::endian::little,
              "the codec copies fields in host byte order; the wire and "
              "page formats are little-endian");

namespace casper::wire {

inline constexpr size_t kChecksumBytes = 8;

inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Verify and strip the trailing checksum, returning the frame body.
/// `what` names the frame type in the error message.
inline Result<std::string_view> Unseal(std::string_view frame,
                                       const char* what) {
  if (frame.size() < kChecksumBytes + 1) {
    return Status::InvalidArgument(std::string("truncated ") + what +
                                   " frame");
  }
  const std::string_view body =
      frame.substr(0, frame.size() - kChecksumBytes);
  uint64_t sum = 0;
  std::memcpy(&sum, frame.data() + body.size(), kChecksumBytes);
  if (sum != Fnv1a64(body)) {
    return Status::InvalidArgument(std::string("checksum mismatch in ") +
                                   what + " frame");
  }
  return body;
}

/// Writes exactly `bytes` bytes into one allocation made up front: the
/// caller computes the encoded size (checksum trailer included for a
/// sealed frame), nothing grows while fields are appended, and
/// Take()/Seal() check that the fields filled the reservation exactly.
class Writer {
 public:
  explicit Writer(size_t bytes) : bytes_(bytes) { out_.reserve(bytes); }

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void P(const Point& p) {
    F64(p.x);
    F64(p.y);
  }
  void R(const Rect& r) {
    P(r.min);
    P(r.max);
  }
  void Count(size_t n) { U64(static_cast<uint64_t>(n)); }
  void Str(std::string_view s) {
    Count(s.size());
    Raw(s.data(), s.size());
  }

  /// `n` records whose host layout is their wire layout, in one copy.
  template <typename T>
  void Block(const T* records, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(records, n * sizeof(T));
  }

  /// The written bytes, unsealed (storage pages).
  std::string Take() {
    CASPER_DCHECK(out_.size() == bytes_);
    return std::move(out_);
  }

  /// Append the body's checksum, little-endian, and return the frame.
  std::string Seal() {
    CASPER_DCHECK(out_.size() + kChecksumBytes == bytes_);
    U64(Fnv1a64(out_));
    return std::move(out_);
  }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  size_t bytes_;
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8() {
    const char* p = Skip(1);
    return p != nullptr ? static_cast<uint8_t>(*p) : 0;
  }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  int32_t I32() { return Fixed<int32_t>(); }
  double F64() { return Fixed<double>(); }
  bool Bool() {
    const uint8_t v = U8();
    if (v > 1) failed_ = true;
    return v != 0;
  }
  Point P() {
    Point p;
    p.x = F64();
    p.y = F64();
    return p;
  }
  Rect R() {
    Rect r;
    r.min = P();
    r.max = P();
    return r;
  }

  /// Length prefix for a container whose records occupy at least
  /// `min_record_bytes` each — a hostile length cannot force an
  /// allocation larger than the buffer itself.
  size_t Count(size_t min_record_bytes) {
    const uint64_t n = U64();
    if (failed_ || n > Remaining() / min_record_bytes) {
      failed_ = true;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  std::string Str() {
    const size_t n = Count(1);
    const char* p = Skip(n);
    return p != nullptr ? std::string(p, n) : std::string();
  }

  bool Tag(uint8_t expected) { return U8() == expected && !failed_; }

  /// Advance past `n` bytes and return their start — the decoders'
  /// window onto a record block. Null (and failed) when fewer than `n`
  /// bytes remain.
  const char* Skip(size_t n) {
    if (n > Remaining()) {
      failed_ = true;
      return nullptr;
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool failed() const { return failed_; }

  Status Finish(const char* what) {
    if (failed_ || pos_ != bytes_.size()) {
      return Status::InvalidArgument(std::string("malformed ") + what +
                                     " message");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  T Fixed() {
    T v{};
    if (const char* p = Skip(sizeof(T))) std::memcpy(&v, p, sizeof(T));
    return v;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace casper::wire

#endif  // CASPER_COMMON_CODEC_H_
