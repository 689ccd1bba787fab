#ifndef CASPERBENCH_LAYER_TRACE_H_
#define CASPERBENCH_LAYER_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/geometry.h"
#include "src/obs/casper_metrics.h"
#include "src/transport/channel.h"
#include "src/transport/listener.h"

/// \file
/// The traced run's spans. Every span is taken from outside the library,
/// around a call into one of the seams it already exposes:
///
///  - ClientChannel wraps the anonymizer->server channel
///    (CasperOptions::channel_decorator): channel call span, response
///    and snapshot bytes, captured traffic for re-timing the codec.
///  - TracedHandler stands in for ServerEndpoint::Handle /
///    ShardEndpoint::Handle on the query path, behind the ClientChannel
///    (for the shard tier, inside SerializedHandler, the handler wrapper
///    SocketListener::Start is given): it runs the same public calls —
///    DecodeCloakedQueryView, QueryServer::Execute or
///    ShardRouter::Execute, Encode — and times each. Other frames go to
///    the real endpoint and are timed whole.
///  - ShardCallChannel wraps each shard's channel
///    (ShardRouterOptions::channel_decorator): per-shard call spans and
///    the private-store rebuild gauge after each maintenance frame.
///
/// Spans of one query meet through thread-locals on the thread that ran
/// them; client and handler spans also meet by request id (RequestIdOf),
/// which would carry them across a socket.

namespace casperbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Server-side spans of one query frame.
struct HandlerSpan {
  casper::QueryKind kind = casper::QueryKind::kNearestPublic;
  double handler_us = 0.0;
  double decode_us = 0.0;
  double execute_us = 0.0;
  double encode_us = 0.0;
  double shard_us = 0.0;  ///< Sum of the per-shard call spans.
  std::vector<double> shard_call_us;
};

/// Client-side spans of one query, filled by ClientChannel on the
/// client's thread while CasperService::Evaluate runs.
struct ClientScratch {
  double channel_us = 0.0;
  size_t answer_bytes = 0;
  bool has_handler = false;
  HandlerSpan handler;
  bool capture = false;  ///< Keep the frames for re-timing.
  std::string request_bytes;
  std::string response_bytes;
};

/// Channel time spent inside one maintenance call (UpdateUserLocation,
/// SyncPrivateData) on the calling thread.
struct MaintenanceScratch {
  double channel_us = 0.0;
};

inline thread_local ClientScratch* t_client = nullptr;
inline thread_local MaintenanceScratch* t_maintenance = nullptr;
inline thread_local HandlerSpan* t_handler = nullptr;
/// Set only by the planted-defect check: the exact position of the user
/// whose NN answer the defective channel tampers with.
inline thread_local const casper::Point* t_oracle_position = nullptr;

/// Process-wide collector. `on` is flipped only between phases, when no
/// call is in flight.
class Tracer {
 public:
  std::atomic<bool> on{false};

  /// Starts a fresh deployment: forgets the shard rebuild baselines and
  /// every recorded span.
  void Reset(casper::obs::CasperMetrics* metrics, size_t shards) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
    last_rebuilds_.assign(shards, -1.0);
    handlers_.clear();
    upsert_call_us.clear();
    server_upsert_us.clear();
    server_load_ms.clear();
    snapshot_bytes.clear();
    shard_rebuilds = 0;
    shard_upserts = 0;
  }

  void PutHandler(uint64_t request_id, HandlerSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    handlers_[request_id] = std::move(span);
  }

  bool TakeHandler(uint64_t request_id, HandlerSpan* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(request_id);
    if (it == handlers_.end()) return false;
    *out = std::move(it->second);
    handlers_.erase(it);
    return true;
  }

  /// A maintenance frame took `us` on the client side of the channel.
  void NoteMaintenanceCall(casper::MessageTag tag, size_t request_bytes,
                           double us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tag == casper::MessageTag::kSnapshot) {
      snapshot_bytes.push_back(static_cast<double>(request_bytes));
    } else {
      upsert_call_us.push_back(us);
    }
  }

  /// The server handled a non-query frame in `us`.
  void NoteHandled(casper::MessageTag tag, double us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tag == casper::MessageTag::kSnapshot) {
      server_load_ms.push_back(us / 1e3);
    } else if (tag == casper::MessageTag::kRegionUpsert) {
      server_upsert_us.push_back(us);
    }
  }

  /// Shard `shard` finished a maintenance frame. Every shard mirrors its
  /// own absolute rebuild count into the one shared gauge, so the gauge
  /// read right after the shard's own call is that shard's count.
  /// Maintenance runs exclusively (SerializedHandler), so nothing
  /// overwrites the gauge in between.
  void NoteShardMaintenance(size_t shard, casper::MessageTag tag) {
    std::lock_guard<std::mutex> lock(mu_);
    if (metrics_ == nullptr || shard >= last_rebuilds_.size()) return;
    const double now = metrics_->store_rebuilds[1]->Value();
    const double last = last_rebuilds_[shard];
    last_rebuilds_[shard] = now;
    if (!on.load(std::memory_order_relaxed)) return;
    if (tag == casper::MessageTag::kRegionUpsert) ++shard_upserts;
    if (tag != casper::MessageTag::kSnapshot && last >= 0.0) {
      // A bulk load replaces the shard's index and restarts its count.
      shard_rebuilds += static_cast<uint64_t>(now >= last ? now - last : now);
    }
  }

  // Maintenance aggregates; read after the run.
  std::vector<double> upsert_call_us;
  std::vector<double> server_upsert_us;
  std::vector<double> server_load_ms;
  std::vector<double> snapshot_bytes;
  uint64_t shard_rebuilds = 0;
  uint64_t shard_upserts = 0;

 private:
  std::mutex mu_;
  casper::obs::CasperMetrics* metrics_ = nullptr;
  std::vector<double> last_rebuilds_;
  std::unordered_map<uint64_t, HandlerSpan> handlers_;
};

/// Removes the candidate nearest to t_oracle_position from an NN answer
/// and re-encodes it: the planted inclusiveness defect.
inline std::string DropTrueNearest(std::string bytes) {
  casper::Result<casper::CandidateListMsg> msg =
      casper::DecodeCandidateList(bytes);
  if (!msg.ok() || msg->kind != casper::QueryKind::kNearestPublic) {
    return bytes;
  }
  auto& candidates =
      std::get<casper::processor::PublicCandidateList>(msg->payload)
          .candidates;
  if (candidates.empty()) return bytes;
  auto nearest = std::min_element(
      candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
        return casper::SquaredDistance(a.position, *t_oracle_position) <
               casper::SquaredDistance(b.position, *t_oracle_position);
      });
  candidates.erase(nearest);
  return casper::Encode(msg.value());
}

/// Client side of the tier seam.
class ClientChannel : public casper::transport::Channel {
 public:
  ClientChannel(std::unique_ptr<casper::transport::Channel> inner,
                Tracer* tracer, bool drop_nearest)
      : inner_(std::move(inner)),
        tracer_(tracer),
        drop_nearest_(drop_nearest) {}

  casper::Result<std::string> Call(
      std::string_view request,
      const casper::transport::CallContext& context) override {
    const bool traced =
        tracer_ != nullptr && tracer_->on.load(std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    casper::Result<std::string> response = inner_->Call(request, context);
    const double us = MicrosSince(start);
    if (drop_nearest_ && t_oracle_position != nullptr && response.ok()) {
      response = DropTrueNearest(std::move(response).value());
    }
    if (!traced) return response;
    casper::Result<casper::MessageTag> tag = casper::TagOf(request);
    if (!tag.ok()) return response;
    if (tag.value() == casper::MessageTag::kCloakedQuery) {
      if (t_client != nullptr) {
        t_client->channel_us += us;
        if (response.ok()) {
          t_client->answer_bytes += response->size();
          if (t_client->capture) {
            t_client->request_bytes.assign(request);
            t_client->response_bytes = response.value();
          }
        }
        HandlerSpan span;
        if (tracer_->TakeHandler(casper::RequestIdOf(request), &span)) {
          t_client->handler = std::move(span);
          t_client->has_handler = true;
        }
      }
    } else {
      tracer_->NoteMaintenanceCall(tag.value(), request.size(), us);
      if (t_maintenance != nullptr) t_maintenance->channel_us += us;
    }
    return response;
  }

 private:
  std::unique_ptr<casper::transport::Channel> inner_;
  Tracer* tracer_;
  bool drop_nearest_;
};

/// The traced stand-in for the server endpoint (see the file comment).
class TracedHandler {
 public:
  using ExecuteFn = std::function<casper::Result<casper::CandidateListMsg>(
      const casper::CloakedQueryMsg&, const casper::transport::CallContext&)>;

  TracedHandler(Tracer* tracer, ExecuteFn execute,
                casper::transport::SocketHandler endpoint)
      : tracer_(tracer),
        execute_(std::move(execute)),
        endpoint_(std::move(endpoint)) {}

  casper::Result<std::string> operator()(
      std::string_view request,
      const casper::transport::CallContext& context) const {
    if (!tracer_->on.load(std::memory_order_relaxed)) {
      return endpoint_(request, context);
    }
    const Clock::time_point start = Clock::now();
    casper::Result<casper::MessageTag> tag = casper::TagOf(request);
    if (!tag.ok() || tag.value() != casper::MessageTag::kCloakedQuery) {
      casper::Result<std::string> response = endpoint_(request, context);
      if (tag.ok()) tracer_->NoteHandled(tag.value(), MicrosSince(start));
      return response;
    }
    HandlerSpan span;
    Clock::time_point step = Clock::now();
    casper::Result<casper::CloakedQueryView> query =
        casper::DecodeCloakedQueryView(request);
    span.decode_us = MicrosSince(step);
    if (!query.ok()) return endpoint_(request, context);
    span.kind = query->kind;

    t_handler = &span;
    step = Clock::now();
    casper::Result<casper::CandidateListMsg> answer =
        execute_(query.value(), context);
    span.execute_us = MicrosSince(step);
    t_handler = nullptr;

    step = Clock::now();
    std::string bytes;
    if (answer.ok()) {
      answer->request_id = query->request_id;
      bytes = casper::Encode(answer.value());
    } else {
      bytes = casper::Encode(
          casper::AckMsg::For(query->request_id, answer.status()));
    }
    span.encode_us = MicrosSince(step);
    span.handler_us = MicrosSince(start);
    tracer_->PutHandler(query->request_id, std::move(span));
    return bytes;
  }

 private:
  Tracer* tracer_;
  ExecuteFn execute_;
  casper::transport::SocketHandler endpoint_;
};

/// A Channel over a SocketHandler: puts the traced handler behind the
/// in-process seam.
class HandlerChannel : public casper::transport::Channel {
 public:
  explicit HandlerChannel(casper::transport::SocketHandler handler)
      : handler_(std::move(handler)) {}

  casper::Result<std::string> Call(
      std::string_view request,
      const casper::transport::CallContext& context) override {
    return handler_(request, context);
  }

 private:
  casper::transport::SocketHandler handler_;
};

/// Wraps one shard's channel inside the router.
class ShardCallChannel : public casper::transport::Channel {
 public:
  ShardCallChannel(casper::transport::Channel* inner, size_t shard,
                   Tracer* tracer)
      : inner_(inner), shard_(shard), tracer_(tracer) {}

  casper::Result<std::string> Call(
      std::string_view request,
      const casper::transport::CallContext& context) override {
    const Clock::time_point start = Clock::now();
    casper::Result<std::string> response = inner_->Call(request, context);
    const double us = MicrosSince(start);
    casper::Result<casper::MessageTag> tag = casper::TagOf(request);
    if (!tag.ok()) return response;
    if (tag.value() == casper::MessageTag::kCloakedQuery) {
      if (t_handler != nullptr) {
        t_handler->shard_us += us;
        t_handler->shard_call_us.push_back(us);
      }
    } else {
      tracer_->NoteShardMaintenance(shard_, tag.value());
    }
    return response;
  }

 private:
  casper::transport::Channel* inner_;
  size_t shard_;
  Tracer* tracer_;
};

}  // namespace casperbench

#endif  // CASPERBENCH_LAYER_TRACE_H_
