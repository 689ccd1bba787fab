// The Casper benchmark program: one process builds a deployment, drives it
// with closed-loop clients for a fixed wall time, checks every answer
// class it can, and prints the end-to-end (or, traced, the per-layer)
// metrics. run.py builds and invokes it; README.md documents the
// workloads and every metric.
//
//   casper_bench --workload lunch_nn|rush_hour_sync|sharded_churn
//                --seed N --seconds S --trace 0|1
//                [--scale F] [--plant none|drop_nearest|small_cloak]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "casperbench/layer_trace.h"
#include "src/casper/casper.h"
#include "src/casper/messages.h"
#include "src/casper/workload.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/processor/concurrent_query_cache.h"
#include "src/scenarios/oracles.h"
#include "src/sharding/shard_endpoint.h"
#include "src/sharding/shard_router.h"
#include "src/transport/listener.h"

namespace casperbench {
namespace {

using casper::QueryKind;
using casper::QueryRequest;
using casper::Rect;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct MixEntry {
  QueryKind kind;
  double weight;
  bool cached = false;  ///< Passes the benchmark-owned cache to Evaluate.
};

struct WorkloadSpec {
  std::string name;
  size_t users = 0;
  size_t targets = 0;
  size_t queries_per_phase = 0;
  /// Every `move_stride`-th user moves per tick (1 = all); 0 = static.
  size_t move_stride = 0;
  bool sync_each_tick = false;
  /// 4-shard server tier behind SerializedHandler, auto-synced private
  /// data.
  bool sharded = false;
  std::vector<MixEntry> mix;
};

constexpr size_t kShards = 4;
/// Pre-computed simulator ticks; movement walks them forth and back so
/// every update is a real one-tick step and memory stays fixed.
constexpr size_t kTicks = 16;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Brute-force NN inclusiveness checks between query phases.
constexpr size_t kNnChecksPerTick = 4;
/// Captured query frames re-timed after a traced run.
constexpr size_t kCaptures = 256;
constexpr int kDensityGrid = 16;
/// sharded_churn never syncs in its loop; that many syncs are timed
/// after it, on the deployment's own state. They span about two seconds,
/// so a short burst of host load cannot decide their median.
constexpr int kProbeSyncs = 151;

std::optional<WorkloadSpec> SpecFor(const std::string& name, double scale) {
  auto scaled = [scale](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(n * scale));
  };
  WorkloadSpec spec;
  spec.name = name;
  if (name == "lunch_nn") {
    spec.users = scaled(20000);
    spec.targets = scaled(200000);
    spec.queries_per_phase = scaled(4000);
    spec.mix = {{QueryKind::kNearestPublic, 0.50},
                {QueryKind::kKNearestPublic, 0.25},
                {QueryKind::kRangePublic, 0.25}};
  } else if (name == "rush_hour_sync") {
    spec.users = scaled(20000);
    spec.targets = scaled(50000);
    spec.queries_per_phase = scaled(2000);
    spec.move_stride = 1;
    spec.sync_each_tick = true;
    spec.mix = {{QueryKind::kNearestPrivate, 0.30},
                {QueryKind::kPublicNearest, 0.20},
                {QueryKind::kPublicRange, 0.20},
                {QueryKind::kDensity, 0.10},
                {QueryKind::kNearestPublic, 0.20, /*cached=*/true}};
  } else if (name == "sharded_churn") {
    spec.users = scaled(5000);
    spec.targets = scaled(50000);
    spec.queries_per_phase = scaled(2000);
    spec.move_stride = 10;
    spec.sharded = true;
    spec.mix = {{QueryKind::kNearestPublic, 0.25},
                {QueryKind::kKNearestPublic, 0.15},
                {QueryKind::kRangePublic, 0.15},
                {QueryKind::kNearestPrivate, 0.15},
                {QueryKind::kPublicNearest, 0.10},
                {QueryKind::kPublicRange, 0.10},
                {QueryKind::kDensity, 0.10}};
  } else {
    return std::nullopt;
  }
  // k goes up to 50: the population must be able to satisfy it.
  spec.users = std::max<size_t>(spec.users, 100);
  return spec;
}

struct Op {
  QueryRequest request;
  bool cloaked = false;
  bool cached = false;
};

std::vector<Op> MakeOps(const WorkloadSpec& spec, const Rect& space,
                        casper::Rng* rng) {
  double total = 0.0;
  for (const MixEntry& m : spec.mix) total += m.weight;
  const double radius = space.width() * 0.01;
  std::vector<Op> ops;
  ops.reserve(spec.queries_per_phase);
  for (size_t i = 0; i < spec.queries_per_phase; ++i) {
    double pick = rng->Uniform(0.0, total);
    const MixEntry* entry = &spec.mix.back();
    for (const MixEntry& m : spec.mix) {
      if (pick < m.weight) {
        entry = &m;
        break;
      }
      pick -= m.weight;
    }
    const uint64_t uid = rng->UniformInt(0, spec.users - 1);
    Op op;
    op.cached = entry->cached;
    op.cloaked = casper::IsCloakedKind(entry->kind);
    switch (entry->kind) {
      case QueryKind::kNearestPublic:
        op.request = casper::NearestPublicQ{uid};
        break;
      case QueryKind::kKNearestPublic:
        op.request = casper::KNearestPublicQ{uid, 5};
        break;
      case QueryKind::kRangePublic:
        op.request = casper::RangePublicQ{uid, radius};
        break;
      case QueryKind::kNearestPrivate:
        op.request = casper::NearestPrivateQ{uid};
        break;
      case QueryKind::kPublicNearest:
        op.request = casper::PublicNearestQ{rng->PointIn(space)};
        break;
      case QueryKind::kPublicRange: {
        const casper::Point corner = rng->PointIn(space);
        const double side = space.width() * rng->Uniform(0.01, 0.05);
        op.request = casper::PublicRangeQ{
            Rect(corner.x, corner.y, std::min(space.max.x, corner.x + side),
                 std::min(space.max.y, corner.y + side))};
        break;
      }
      case QueryKind::kDensity:
        op.request = casper::DensityQ{kDensityGrid, kDensityGrid};
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Candidate records shipped for one answer (RecordCount's rule).
size_t CandidateCount(const casper::QueryResponse& response) {
  return std::visit(
      [](const auto& r) -> size_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, casper::processor::RangeCountResult>) {
          return r.overlapping.size();
        } else if constexpr (std::is_same_v<T,
                                            casper::processor::DensityMap>) {
          return static_cast<size_t>(r.cols()) * static_cast<size_t>(r.rows());
        } else if constexpr (std::is_same_v<
                                 T, casper::processor::PublicNNCandidates>) {
          return r.candidates.size();
        } else {
          return r.server_answer.candidates.size();
        }
      },
      response);
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

struct Plant {
  bool drop_nearest = false;
  bool small_cloak = false;
};

Tracer g_tracer;

/// One deployment of a workload. Members are destroyed bottom-up: the
/// cache and service before the router they call into.
struct Stack {
  casper::obs::MetricsRegistry registry;
  std::unique_ptr<casper::obs::CasperMetrics> metrics;
  std::unique_ptr<casper::bench::SimulatedCity> city;
  const std::vector<std::vector<casper::network::LocationUpdate>>* ticks =
      nullptr;
  std::vector<casper::processor::PublicTarget> targets;
  std::vector<casper::anonymizer::PrivacyProfile> profiles;
  /// Registered positions (lunch_nn's probe moves users back to them).
  std::vector<std::pair<uint64_t, casper::Point>> home;
  Rect space;
  /// Filled once the service exists; read by the in-process traced
  /// handler.
  std::unique_ptr<casper::server::QueryServer*> server_slot =
      std::make_unique<casper::server::QueryServer*>(nullptr);
  std::unique_ptr<casper::sharding::ShardRouter> router;
  std::unique_ptr<casper::sharding::ShardEndpoint> shard_endpoint;
  std::unique_ptr<casper::CasperService> service;
  std::unique_ptr<casper::processor::ConcurrentQueryCache> cache;
};

casper::Status BuildStack(const WorkloadSpec& spec, uint64_t seed,
                          bool traced, const Plant& plant,
                          std::unique_ptr<Stack>* out) {
  auto stack = std::make_unique<Stack>();
  stack->metrics =
      std::make_unique<casper::obs::CasperMetrics>(&stack->registry);
  casper::obs::CasperMetrics* metrics = stack->metrics.get();
  g_tracer.Reset(metrics, spec.sharded ? kShards : 0);

  casper::CasperOptions options;
  options.metrics = metrics;
  options.resilience.metrics = metrics;
  stack->space = options.pyramid.space;
  const Rect space = stack->space;

  stack->city = std::make_unique<casper::bench::SimulatedCity>(spec.users,
                                                              seed);
  stack->ticks = &stack->city->Ticks(kTicks);
  casper::Rng target_rng(seed ^ 0x7a67e7ULL);
  stack->targets =
      casper::workload::UniformPublicTargets(spec.targets, space, &target_rng);

  if (spec.sharded) {
    casper::sharding::ShardRouterOptions router_options;
    router_options.num_shards = kShards;
    router_options.partition_level = 4;
    router_options.space = space;
    router_options.server.density_extent = space;
    router_options.server.metrics = metrics;
    router_options.resilience.metrics = metrics;
    router_options.registry = &stack->registry;
    if (traced) {
      router_options.channel_decorator =
          [](casper::transport::Channel* inner, size_t shard)
          -> std::unique_ptr<casper::transport::Channel> {
        return std::make_unique<ShardCallChannel>(inner, shard, &g_tracer);
      };
    }
    stack->router =
        std::make_unique<casper::sharding::ShardRouter>(router_options);
    stack->router->SetPublicTargets(stack->targets);
    stack->shard_endpoint =
        std::make_unique<casper::sharding::ShardEndpoint>(stack->router.get());

    casper::sharding::ShardEndpoint* endpoint = stack->shard_endpoint.get();
    casper::transport::SocketHandler handler =
        [endpoint](std::string_view request,
                   const casper::transport::CallContext& context) {
          return endpoint->Handle(request, context);
        };
    if (traced) {
      casper::sharding::ShardRouter* router = stack->router.get();
      handler = TracedHandler(
          &g_tracer,
          [router](const casper::CloakedQueryMsg& query,
                   const casper::transport::CallContext&) {
            return router->Execute(query);
          },
          std::move(handler));
    }
    // The tier `casper_cli serve --shards=4` runs, in process:
    // SerializedHandler runs maintenance exclusively and queries shared.
    handler = casper::transport::SerializedHandler(std::move(handler));
    const bool drop = plant.drop_nearest;
    options.auto_sync_private_data = true;
    options.channel_decorator =
        [handler, traced, drop](casper::transport::Channel*)
        -> std::unique_ptr<casper::transport::Channel> {
      auto channel = std::make_unique<HandlerChannel>(handler);
      if (!traced && !drop) return channel;
      return std::make_unique<ClientChannel>(
          std::move(channel), traced ? &g_tracer : nullptr, drop);
    };
  } else if (traced || plant.drop_nearest) {
    casper::server::QueryServer** slot = stack->server_slot.get();
    const bool drop = plant.drop_nearest;
    options.channel_decorator =
        [slot, traced, drop](casper::transport::Channel* direct)
        -> std::unique_ptr<casper::transport::Channel> {
      casper::transport::SocketHandler handler =
          [direct](std::string_view request,
                   const casper::transport::CallContext& context) {
            return direct->Call(request, context);
          };
      if (traced) {
        handler = TracedHandler(
            &g_tracer,
            [slot](const casper::CloakedQueryMsg& query,
                   const casper::transport::CallContext& context) {
              return (*slot)->Execute(query, context.cache);
            },
            std::move(handler));
      }
      return std::make_unique<ClientChannel>(
          std::make_unique<HandlerChannel>(std::move(handler)),
          traced ? &g_tracer : nullptr, drop);
    };
  }

  stack->service = std::make_unique<casper::CasperService>(options);
  *stack->server_slot = &stack->service->query_server();
  if (!spec.sharded) stack->service->SetPublicTargets(stack->targets);

  casper::Rng profile_rng(seed ^ 0x9f0f11eULL);
  const casper::workload::ProfileDistribution profiles;  // Paper defaults.
  stack->profiles.reserve(spec.users);
  for (uint64_t uid = 0; uid < spec.users; ++uid) {
    stack->profiles.push_back(
        casper::workload::SampleProfile(profiles, space.Area(), &profile_rng));
    const casper::Point position = casper::ClampToRect(
        stack->city->simulator().PositionOf(uid), space);
    CASPER_RETURN_IF_ERROR(stack->service->RegisterUser(
        uid, stack->profiles.back(), position));
    stack->home.emplace_back(uid, position);
  }
  CASPER_RETURN_IF_ERROR(stack->service->SyncPrivateData());

  if (std::any_of(spec.mix.begin(), spec.mix.end(),
                  [](const MixEntry& m) { return m.cached; })) {
    stack->cache = std::make_unique<casper::processor::ConcurrentQueryCache>(
        &stack->service->public_store(), 4096);
    stack->cache->AttachMetrics(metrics->cache_hits_total,
                                metrics->cache_misses_total);
  }
  *out = std::move(stack);
  return casper::Status::OK();
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One traced query, as the client saw it.
struct QuerySample {
  QueryKind kind = QueryKind::kNearestPublic;
  double total_us = 0.0;
  double wait_us = 0.0;
  double cloak_us = 0.0;
  double evaluate_us = 0.0;
  ClientScratch scratch;
};

struct Capture {
  QueryRequest request;
  casper::anonymizer::CloakingResult cloak;
  std::string request_bytes;
  std::string response_bytes;
};

struct CensusRecord {
  uint64_t uid = 0;
  uint64_t users_in_region = 0;
  double area = 0.0;
};

/// What one client thread saw in one query phase.
struct ClientOut {
  std::vector<double> latency_us;  ///< Successful queries.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t candidates = 0;
  std::vector<double> wait_us;
  std::vector<CensusRecord> census;
  std::vector<QuerySample> samples;  ///< Traced phases only.
  std::vector<Capture> captures;
};

void RunClient(Stack* stack, const std::vector<Op>* ops,
               std::atomic<size_t>* next, std::mutex* anonymizer_mu,
               bool traced, size_t capture_every, const Plant& plant,
               ClientOut* out) {
  casper::CasperService& service = *stack->service;
  for (size_t i = next->fetch_add(1); i < ops->size();
       i = next->fetch_add(1)) {
    const Op& op = (*ops)[i];
    ++out->attempted;
    QuerySample sample;
    if (traced) {
      sample.kind = casper::KindOf(op.request);
      sample.scratch.capture = capture_every > 0 && i % capture_every == 0;
      t_client = &sample.scratch;
    }
    const Clock::time_point start = Clock::now();
    casper::anonymizer::CloakingResult cloak;
    bool ok = true;
    if (op.cloaked) {
      std::unique_lock<std::mutex> lock(*anonymizer_mu);
      sample.wait_us = MicrosSince(start);
      const Clock::time_point cloak_start = Clock::now();
      auto cloaked =
          service.anonymizer_tier().Cloak(casper::UidOf(op.request));
      sample.cloak_us = MicrosSince(cloak_start);
      lock.unlock();
      ok = cloaked.ok();
      if (ok) cloak = cloaked.value();
      if (ok && plant.small_cloak) {
        const casper::Point c = cloak.region.Center();
        const double half = cloak.region.width() * 1e-3;
        cloak.region = Rect(c.x - half, c.y - half, c.x + half, c.y + half);
      }
    }
    std::optional<casper::Result<casper::QueryResponse>> response;
    if (ok) {
      const Clock::time_point evaluate_start = Clock::now();
      response = service.Evaluate(op.request, cloak,
                                  op.cached ? stack->cache.get() : nullptr);
      sample.evaluate_us = MicrosSince(evaluate_start);
      ok = response->ok();
    }
    sample.total_us = MicrosSince(start);
    t_client = nullptr;

    if (!ok) {
      ++out->failed;
      continue;
    }
    out->latency_us.push_back(sample.total_us);
    out->candidates += CandidateCount(response->value());
    if (op.cloaked) {
      out->wait_us.push_back(sample.wait_us);
      out->census.push_back(CensusRecord{casper::UidOf(op.request),
                                         cloak.users_in_region,
                                         cloak.region.Area()});
    }
    if (traced) {
      if (sample.scratch.capture && !sample.scratch.response_bytes.empty()) {
        out->captures.push_back(Capture{op.request, cloak,
                                        sample.scratch.request_bytes,
                                        sample.scratch.response_bytes});
        sample.scratch.request_bytes.clear();
        sample.scratch.response_bytes.clear();
      }
      out->samples.push_back(std::move(sample));
    }
  }
}

casper::SummaryStats Summary(const std::vector<double>& values) {
  casper::SummaryStats stats;
  for (double v : values) stats.Add(v);
  return stats;
}

double Quantile(const std::vector<double>& values, double q) {
  return Summary(values).Quantile(q);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  return Summary(values).mean();
}

/// Everything a run accumulates across its phases.
struct RunTotals {
  // Queries, split by whether tracing was on in their phase.
  std::vector<double> latency_us[2];
  uint64_t failed_queries[2] = {0, 0};
  uint64_t attempted_queries = 0;
  uint64_t candidates = 0;
  uint64_t answered = 0;
  // Per untraced phase. The e2e latency and rate metrics reduce these by
  // the quartile on the better side (25th percentile of times, 75th of
  // rates): host noise only ever slows a phase down, and a change in
  // the stack moves every phase, so that quartile tracks the stack.
  std::vector<double> phase_qps;
  std::vector<double> phase_p50;
  std::vector<double> phase_p99;
  size_t latency_samples = 0;
  size_t beyond_p99 = 0;
  std::vector<double> wait_us;
  std::vector<QuerySample> samples;
  std::vector<Capture> captures;

  uint64_t attempted_updates = 0;
  uint64_t failed_updates = 0;
  // updates_per_s divides every update of the run by the summed time of
  // its movement phases: one phase holds too few updates to time alone.
  size_t movement_phases = 0;
  double movement_us = 0.0;
  std::vector<double> update_self_us;  ///< Traced.
  uint64_t traced_updates = 0;
  uint64_t traced_splits = 0;
  uint64_t traced_merges = 0;

  std::vector<double> sync_ms;
  std::vector<double> snapshot_self_ms;  ///< Traced.
  uint64_t failed_syncs = 0;

  uint64_t traced_cache_hits = 0;
  uint64_t traced_cache_lookups = 0;

  uint64_t census_checks = 0;
  uint64_t census_violations = 0;
  casper::scenarios::OracleStats oracle;
  uint64_t ticks = 0;
};

using Moves = std::vector<std::pair<uint64_t, casper::Point>>;

/// The pre-computed tick a user stands on after `step` moves. Users
/// register at the last pre-computed tick; each move walks one tick back
/// or forth through them.
size_t WalkIndex(uint64_t step) {
  const size_t period = 2 * kTicks - 2;
  const size_t index = (kTicks - 1 + step) % period;
  return index < kTicks ? index : period - index;
}

/// The moves of tick `tick`: every `stride`-th user, each taking its
/// next one-tick step (a user moves on one tick in `stride`).
Moves TickMoves(const WorkloadSpec& spec, const Stack& stack, uint64_t tick,
                size_t stride) {
  const size_t index = WalkIndex(tick / stride + 1);
  Moves moves;
  for (const casper::network::LocationUpdate& u : (*stack.ticks)[index]) {
    if (u.uid >= spec.users || u.uid % stride != tick % stride) continue;
    moves.emplace_back(u.uid, casper::ClampToRect(u.position, stack.space));
  }
  return moves;
}

void MovementPhase(const Moves& moves, Stack* stack, bool traced,
                   RunTotals* totals) {
  casper::CasperService& service = *stack->service;
  casper::obs::CasperMetrics& metrics = *stack->metrics;
  const uint64_t splits = metrics.pyramid_splits_total->Value();
  const uint64_t merges = metrics.pyramid_merges_total->Value();
  const Clock::time_point start = Clock::now();
  for (const auto& [uid, position] : moves) {
    casper::Status status;
    if (traced) {
      MaintenanceScratch scratch;
      t_maintenance = &scratch;
      const Clock::time_point update_start = Clock::now();
      status = service.UpdateUserLocation(uid, position);
      totals->update_self_us.push_back(MicrosSince(update_start) -
                                       scratch.channel_us);
      t_maintenance = nullptr;
    } else {
      status = service.UpdateUserLocation(uid, position);
    }
    if (!status.ok()) ++totals->failed_updates;
  }
  totals->movement_us += MicrosSince(start);
  ++totals->movement_phases;
  totals->attempted_updates += moves.size();
  if (traced) {
    totals->traced_updates += moves.size();
    totals->traced_splits += metrics.pyramid_splits_total->Value() - splits;
    totals->traced_merges += metrics.pyramid_merges_total->Value() - merges;
  }
}

void SyncPhase(Stack* stack, bool traced, RunTotals* totals) {
  MaintenanceScratch scratch;
  if (traced) t_maintenance = &scratch;
  const Clock::time_point start = Clock::now();
  const casper::Status status = stack->service->SyncPrivateData();
  const double us = MicrosSince(start);
  t_maintenance = nullptr;
  if (!status.ok()) {
    ++totals->failed_syncs;
    return;
  }
  totals->sync_ms.push_back(us / 1e3);
  if (traced) totals->snapshot_self_ms.push_back((us - scratch.channel_us) / 1e3);
}

void QueryPhase(const WorkloadSpec& spec, Stack* stack, uint64_t seed,
                uint64_t tick, bool traced, size_t clients,
                const Plant& plant, RunTotals* totals) {
  casper::Rng rng(seed * 0x9E3779B97F4A7C15ULL + tick + 1);
  const std::vector<Op> ops = MakeOps(spec, stack->space, &rng);
  const size_t capture_every =
      traced ? std::max<size_t>(1, ops.size() * 16 / kCaptures) : 0;
  const uint64_t hits = stack->metrics->cache_hits_total->Value();
  const uint64_t misses = stack->metrics->cache_misses_total->Value();

  std::atomic<size_t> next{0};
  std::mutex anonymizer_mu;
  std::vector<ClientOut> outs(clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, stack, &ops, &next, &anonymizer_mu, traced,
                         capture_every, std::cref(plant), &outs[c]);
  }
  for (std::thread& t : threads) t.join();
  const double phase_us = MicrosSince(start);

  const int slot = traced ? 1 : 0;
  size_t answered = 0;
  std::vector<double> latency;
  for (ClientOut& out : outs) {
    answered += out.latency_us.size();
    latency.insert(latency.end(), out.latency_us.begin(),
                   out.latency_us.end());
    // A failed query counts as slower than every success of its phase.
    latency.insert(latency.end(), out.failed, phase_us);
    totals->latency_us[slot].insert(totals->latency_us[slot].end(),
                                    out.latency_us.begin(),
                                    out.latency_us.end());
    totals->failed_queries[slot] += out.failed;
    totals->attempted_queries += out.attempted;
    totals->candidates += out.candidates;
    totals->answered += out.latency_us.size();
    totals->wait_us.insert(totals->wait_us.end(), out.wait_us.begin(),
                           out.wait_us.end());
    for (CensusRecord& r : out.census) {
      const casper::anonymizer::PrivacyProfile& p = stack->profiles[r.uid];
      ++totals->census_checks;
      if (r.users_in_region < p.k || r.area < p.a_min * (1.0 - 1e-9)) {
        ++totals->census_violations;
      }
    }
    for (QuerySample& s : out.samples) totals->samples.push_back(std::move(s));
    for (Capture& c : out.captures) {
      if (totals->captures.size() < kCaptures) {
        totals->captures.push_back(std::move(c));
      }
    }
  }
  if (!traced) {
    totals->phase_qps.push_back(answered * 1e6 / phase_us);
    const double p99 = Quantile(latency, 0.99);
    totals->phase_p50.push_back(Quantile(latency, 0.5));
    totals->phase_p99.push_back(p99);
    totals->latency_samples += latency.size();
    totals->beyond_p99 += static_cast<size_t>(std::count_if(
        latency.begin(), latency.end(), [p99](double v) { return v > p99; }));
  }
  if (traced) {
    totals->traced_cache_hits += stack->metrics->cache_hits_total->Value() - hits;
    totals->traced_cache_lookups +=
        stack->metrics->cache_hits_total->Value() - hits +
        stack->metrics->cache_misses_total->Value() - misses;
  }
}

void NnChecks(Stack* stack, uint64_t seed, uint64_t tick, const Plant& plant,
              RunTotals* totals) {
  casper::Rng rng(seed ^ (0xC0FFEEULL + tick * 7919));
  for (size_t i = 0; i < kNnChecksPerTick; ++i) {
    const uint64_t uid = rng.UniformInt(0, stack->profiles.size() - 1);
    auto position = stack->service->ClientPosition(uid);
    if (plant.drop_nearest && position.ok()) t_oracle_position = &*position;
    casper::scenarios::CheckNnInclusiveness(stack->service.get(),
                                            stack->targets, uid,
                                            &totals->oracle);
    t_oracle_position = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool on_path = true;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.on_path) {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-34s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    }
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) line += ", ";
    // The line's format needs a number; an off-path layer reads 0 here
    // and n/a in the table.
    line += "\"" + m.name + "\": {\"value\": " +
            FormatNumber(m.on_path ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string plant = "none";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--scale") {
      args->scale = std::atof(value);
    } else if (flag == "--plant") {
      args->plant = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->scale > 0.0 && (args->trace == 0 || args->trace == 1) &&
         (args->plant == "none" || args->plant == "drop_nearest" ||
          args->plant == "small_cloak");
}

int Run(const Args& args) {
  const std::optional<WorkloadSpec> found = SpecFor(args.workload, args.scale);
  if (!found.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const bool traced = args.trace == 1;
  Plant plant;
  plant.drop_nearest = args.plant == "drop_nearest";
  plant.small_cloak = args.plant == "small_cloak";
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t clients = std::min<size_t>(4, nproc);

  // --- Set-up, several times; the last deployment is measured. ---------
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    const casper::Status status =
        BuildStack(spec, args.seed, traced, plant, &stack);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MicrosSince(start) / 1e6);
  }

  // --- Measured loop: movement, sync, queries per tick; checks between. -
  RunTotals totals;
  const uint64_t retries_before =
      stack->metrics->transport_retries_total->Value();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (uint64_t tick = 0; tick == 0 || Clock::now() < deadline; ++tick) {
    // A traced run alternates traced and untraced ticks, so both halves
    // see the same state; the untraced half is trace.overhead_pct's base.
    const bool traced_tick = traced && tick % 2 == 1;
    if (spec.move_stride > 0) {
      g_tracer.on.store(traced_tick);
      MovementPhase(TickMoves(spec, *stack, tick, spec.move_stride),
                    stack.get(), traced_tick, &totals);
      if (spec.sync_each_tick) SyncPhase(stack.get(), traced_tick, &totals);
    } else {
      // Static users: between query phases, move everyone one tick and
      // back and sync, so updates_per_s and sync_ms are sampled across
      // the whole run while every query phase sees the same population.
      MovementPhase(TickMoves(spec, *stack, 0, 1), stack.get(), false,
                    &totals);
      MovementPhase(stack->home, stack.get(), false, &totals);
      SyncPhase(stack.get(), false, &totals);
    }
    g_tracer.on.store(false);
    if (spec.sync_each_tick || spec.move_stride > 0) {
      casper::scenarios::CheckRegionPerUser(stack->service.get(),
                                            &totals.oracle);
    }
    g_tracer.on.store(traced_tick);
    QueryPhase(spec, stack.get(), args.seed, tick, traced_tick, clients, plant,
               &totals);
    g_tracer.on.store(false);
    NnChecks(stack.get(), args.seed, tick, plant, &totals);
    ++totals.ticks;
  }
  const uint64_t retries =
      stack->metrics->transport_retries_total->Value() - retries_before;
  if (spec.sharded) {
    for (int i = 0; i < kProbeSyncs; ++i) SyncPhase(stack.get(), false, &totals);
  }

  // --- Re-time captured traffic (traced runs). --------------------------
  std::vector<double> encode_query_us, decode_answer_us, refine_us;
  for (const Capture& c : totals.captures) {
    auto query = casper::DecodeCloakedQuery(c.request_bytes);
    if (!query.ok()) continue;
    Clock::time_point t = Clock::now();
    const std::string encoded = casper::Encode(query.value());
    encode_query_us.push_back(MicrosSince(t));
    t = Clock::now();
    auto answer = casper::DecodeCandidateList(c.response_bytes);
    decode_answer_us.push_back(MicrosSince(t));
    if (!answer.ok() || encoded != c.request_bytes) continue;
    t = Clock::now();
    auto refined = stack->service->anonymizer_tier().RefineForClient(
        c.request, c.cloak, std::move(answer).value(),
        stack->service->options().transmission);
    refine_us.push_back(MicrosSince(t));
    (void)refined;
  }

  // --- Checks. ----------------------------------------------------------
  const uint64_t failed_queries =
      totals.failed_queries[0] + totals.failed_queries[1];
  const bool nn_ok = totals.oracle.nn_violations == 0;
  const bool region_ok = totals.oracle.region_violations == 0;
  const bool census_ok = totals.census_violations == 0;
  const bool correct = nn_ok && region_ok && census_ok &&
                       totals.oracle.nn_checks > 0 && totals.answered > 0;

  std::printf("workload %s  seed %llu  clients %zu (closed loop)  nproc %u  "
              "seconds %.1f  scale %g  trace %d  plant %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              clients, nproc, args.seconds, args.scale, args.trace,
              args.plant.c_str());
  std::printf("inputs: %zu users, %zu public targets, %zu queries/phase, "
              "%llu ticks\n",
              spec.users, spec.targets, spec.queries_per_phase,
              static_cast<unsigned long long>(totals.ticks));
  std::printf("queries: %llu attempted, %llu failed; untraced latency "
              "samples %zu in %zu phases, %zu beyond their phase's p99\n",
              static_cast<unsigned long long>(totals.attempted_queries),
              static_cast<unsigned long long>(failed_queries),
              totals.latency_samples, totals.phase_p99.size(),
              totals.beyond_p99);
  std::printf("updates: %llu attempted, %llu failed; syncs: %zu timed, "
              "%llu failed\n",
              static_cast<unsigned long long>(totals.attempted_updates),
              static_cast<unsigned long long>(totals.failed_updates),
              totals.sync_ms.size(),
              static_cast<unsigned long long>(totals.failed_syncs));
  std::printf("checks: nn_inclusiveness %llu checked / %llu violations; "
              "region_per_user %llu / %llu; census(k, A_min) %llu / %llu  "
              "-> %s\n",
              static_cast<unsigned long long>(totals.oracle.nn_checks),
              static_cast<unsigned long long>(totals.oracle.nn_violations),
              static_cast<unsigned long long>(totals.oracle.region_checks),
              static_cast<unsigned long long>(totals.oracle.region_violations),
              static_cast<unsigned long long>(totals.census_checks),
              static_cast<unsigned long long>(totals.census_violations),
              correct ? "PASS" : "FAIL");

  const bool has_moves = spec.move_stride > 0;
  const bool has_syncs = spec.sync_each_tick;
  std::vector<Metric> end_to_end = {
      {"query_p50_us", "us", Quantile(totals.phase_p50, 0.25)},
      {"query_p99_us", "us", Quantile(totals.phase_p99, 0.25)},
      {"query_qps", "1/s", Quantile(totals.phase_qps, 0.75)},
      {"updates_per_s", "1/s",
       static_cast<double>(totals.attempted_updates) * 1e6 /
           std::max(1.0, totals.movement_us)},
      {"sync_ms", "ms", Median(totals.sync_ms)},
      {"candidates_mean", "records",
       static_cast<double>(totals.candidates) /
           static_cast<double>(std::max<uint64_t>(1, totals.answered))},
      {"setup_s", "s", Median(setup_s)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  std::printf("sync_ms samples %zu: q1 %.3f  median %.3f  q3 %.3f\n",
              totals.sync_ms.size(), Quantile(totals.sync_ms, 0.25),
              Median(totals.sync_ms), Quantile(totals.sync_ms, 0.75));
  std::printf("query_p99_us over phases: q1 %.1f  median %.1f  q3 %.1f\n",
              Quantile(totals.phase_p99, 0.25), Median(totals.phase_p99),
              Quantile(totals.phase_p99, 0.75));
  std::printf("updates_per_s over %zu movement phases: %llu updates in "
              "%.1f ms\n",
              totals.movement_phases,
              static_cast<unsigned long long>(totals.attempted_updates),
              totals.movement_us / 1e3);
  std::printf("sources: updates_per_s from %s, sync_ms from %s\n",
              has_moves ? "movement phases" : "per-tick probe moves",
              has_syncs ? "per-tick syncs"
                        : (spec.sharded ? "syncs after the loop"
                                       : "per-tick probe syncs"));

  if (!traced) {
    PrintTable("end-to-end", end_to_end);
    PrintJson(correct, totals.attempted_queries + totals.attempted_updates,
              failed_queries + totals.failed_updates, end_to_end);
    return correct ? 0 : 1;
  }

  // --- Per-layer metrics from the traced ticks. -------------------------
  std::vector<double> cloak_us, evaluate_self_us, transport_self_us,
      server_decode_us, server_execute_us, server_encode_us, shard_call_us,
      merge_self_us, answer_bytes;
  std::vector<double> kind_execute_us[casper::obs::kQueryKindCount];
  double total_sum = 0.0, covered_sum = 0.0;
  uint64_t shard_calls = 0;
  size_t with_handler = 0;
  for (const QuerySample& s : totals.samples) {
    if (casper::IsCloakedKind(s.kind)) cloak_us.push_back(s.cloak_us);
    evaluate_self_us.push_back(s.evaluate_us - s.scratch.channel_us);
    answer_bytes.push_back(static_cast<double>(s.scratch.answer_bytes));
    total_sum += s.total_us;
    covered_sum += s.wait_us + s.cloak_us;
    if (!s.scratch.has_handler) continue;
    const HandlerSpan& h = s.scratch.handler;
    ++with_handler;
    transport_self_us.push_back(s.scratch.channel_us - h.handler_us);
    server_decode_us.push_back(h.decode_us);
    server_execute_us.push_back(h.execute_us);
    server_encode_us.push_back(h.encode_us);
    kind_execute_us[static_cast<size_t>(h.kind)].push_back(h.execute_us);
    covered_sum += s.scratch.channel_us;  // transport.self + handler.
    if (spec.sharded) {
      shard_calls += h.shard_call_us.size();
      shard_call_us.insert(shard_call_us.end(), h.shard_call_us.begin(),
                           h.shard_call_us.end());
      merge_self_us.push_back(h.execute_us - h.shard_us);
    }
  }
  const double sampled = static_cast<double>(
      std::max<size_t>(1, totals.samples.size()));
  // Evaluate's own work outside the channel, by its re-timed parts.
  covered_sum += sampled * (Mean(encode_query_us) + Mean(decode_answer_us) +
                            Mean(refine_us));
  const double untraced_p50 = Median(totals.latency_us[0]);
  const double traced_p50 = Median(totals.latency_us[1]);

  const bool has_cache = stack->cache != nullptr;
  const bool has_upserts = spec.sharded;
  std::vector<Metric> layers = {
      {"anonymizer.cloak_us", "us", Median(cloak_us)},
      {"anonymizer.cloak_wait_us", "us", Quantile(totals.wait_us, 0.99)},
      {"anonymizer.update_us", "us", Mean(totals.update_self_us), has_moves},
      {"anonymizer.snapshot_ms", "ms", Median(totals.snapshot_self_ms),
       has_syncs},
      {"anonymizer.splits_per_update", "splits/update",
       static_cast<double>(totals.traced_splits) /
           static_cast<double>(std::max<uint64_t>(1, totals.traced_updates)),
       has_moves},
      {"anonymizer.merges_per_update", "merges/update",
       static_cast<double>(totals.traced_merges) /
           static_cast<double>(std::max<uint64_t>(1, totals.traced_updates)),
       has_moves},
      {"casper.evaluate_self_us", "us", Median(evaluate_self_us)},
      {"casper.encode_query_us", "us", Median(encode_query_us)},
      {"casper.decode_answer_us", "us", Median(decode_answer_us)},
      {"casper.refine_us", "us", Median(refine_us)},
      {"casper.answer_bytes", "bytes", Mean(answer_bytes)},
      {"casper.snapshot_bytes", "bytes", Mean(g_tracer.snapshot_bytes),
       has_syncs},
      {"transport.self_us", "us", Median(transport_self_us)},
      {"transport.upsert_call_us", "us", Median(g_tracer.upsert_call_us),
       has_upserts},
      {"transport.retries", "count", static_cast<double>(retries)},
      {"server.decode_us", "us", Median(server_decode_us)},
      {"server.execute_us", "us", Median(server_execute_us)},
      {"server.encode_us", "us", Median(server_encode_us)},
  };
  const char* kind_names[casper::obs::kQueryKindCount] = {
      "nn", "knn", "range", "buddy", "public_nn", "public_range", "density"};
  for (size_t k = 0; k < casper::obs::kQueryKindCount; ++k) {
    bool runs = false;
    for (const MixEntry& m : spec.mix) {
      runs = runs || static_cast<size_t>(m.kind) == k;
    }
    layers.push_back({std::string("server.execute_us.") + kind_names[k], "us",
                      Median(kind_execute_us[k]), runs});
  }
  const std::vector<Metric> tail = {
      {"server.load_ms", "ms", Median(g_tracer.server_load_ms), has_syncs},
      {"server.upsert_us", "us", Median(g_tracer.server_upsert_us),
       has_upserts},
      {"server.cache_hit_ratio", "ratio",
       static_cast<double>(totals.traced_cache_hits) /
           static_cast<double>(
               std::max<uint64_t>(1, totals.traced_cache_lookups)),
       has_cache},
      {"spatial.rebuilds_per_1k_upserts", "count/1k",
       1000.0 * static_cast<double>(g_tracer.shard_rebuilds) /
           static_cast<double>(std::max<uint64_t>(1, g_tracer.shard_upserts)),
       has_upserts},
      {"sharding.shard_call_us", "us", Median(shard_call_us), spec.sharded},
      {"sharding.calls_per_query", "calls/query",
       static_cast<double>(shard_calls) /
           static_cast<double>(std::max<size_t>(1, with_handler)),
       spec.sharded},
      {"sharding.merge_self_us", "us", Median(merge_self_us), spec.sharded},
      {"query.residual_us", "us", (total_sum - covered_sum) / sampled},
      {"trace.overhead_pct", "%",
       untraced_p50 > 0.0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                          : 0.0},
  };
  layers.insert(layers.end(), tail.begin(), tail.end());

  std::printf("traced: %zu queries (%zu with server spans), %zu captured "
              "frames re-timed; cache base %llu hits / %llu lookups; "
              "rebuilds %llu over %llu shard upserts; untraced p50 %.2f us, "
              "traced p50 %.2f us\n",
              totals.samples.size(), with_handler, totals.captures.size(),
              static_cast<unsigned long long>(totals.traced_cache_hits),
              static_cast<unsigned long long>(totals.traced_cache_lookups),
              static_cast<unsigned long long>(g_tracer.shard_rebuilds),
              static_cast<unsigned long long>(g_tracer.shard_upserts),
              untraced_p50, traced_p50);
  PrintTable("end-to-end (both halves of the traced run)", end_to_end);
  PrintTable("per-layer (traced ticks)", layers);
  PrintJson(correct, totals.attempted_queries + totals.attempted_updates,
            failed_queries + totals.failed_updates, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace casperbench

int main(int argc, char** argv) {
  casperbench::Args args;
  if (!casperbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload lunch_nn|rush_hour_sync|sharded_churn "
                 "--seed N --seconds S --trace 0|1 [--scale F] "
                 "[--plant none|drop_nearest|small_cloak]\n",
                 argv[0]);
    return 2;
  }
  return casperbench::Run(args);
}
