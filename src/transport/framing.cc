#include "src/transport/framing.h"

#include "src/common/codec.h"

namespace casper::transport {

std::string EncodeFrame(std::string_view payload) {
  wire::Writer frame(kFrameHeaderBytes + payload.size());
  frame.U32(kFrameMagic);
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.Block(payload.data(), payload.size());
  return frame.Take();
}

FrameDecoder::FrameDecoder(size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Append(std::string_view bytes) {
  if (poisoned_) return;  // The stream is already condemned.
  // Compact once the consumed prefix dominates, so a long-lived
  // connection doesn't grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (poisoned_) return Status::DataLoss("frame stream lost sync");
  if (buffered() < kFrameHeaderBytes) return std::optional<std::string>();
  wire::Reader header(std::string_view(buf_).substr(pos_, kFrameHeaderBytes));
  const uint32_t magic = header.U32();
  const uint32_t length = header.U32();
  if (magic != kFrameMagic) {
    poisoned_ = true;
    return Status::DataLoss("bad frame magic");
  }
  // Reject a hostile announcement from the 8-byte header alone — before
  // buffering the announced body, and before any allocation sized by it.
  if (length == 0 || length > max_frame_bytes_) {
    poisoned_ = true;
    return Status::DataLoss("frame length outside protocol bounds");
  }
  if (buffered() < kFrameHeaderBytes + length) {
    return std::optional<std::string>();  // Body still in flight.
  }
  std::string payload = buf_.substr(pos_ + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;
  return std::optional<std::string>(std::move(payload));
}

}  // namespace casper::transport
