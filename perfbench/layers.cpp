#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <queue>

#include "outputs.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/batch_former.h"
#include "serve/cluster.h"
#include "serve/server_pool.h"
#include "serve/serve_stats.h"

namespace perfbench {

namespace serve = nsflow::serve;
using Clock = SpanLog::Clock;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------------ spans

int SpanLog::Begin(std::string name, int parent) {
  const double now = Offset(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span) {
  spans_[static_cast<std::size_t>(span)].end_s = Offset(Clock::now());
}

void SpanLog::Add(std::string name, Clock::time_point start,
                  Clock::time_point end, int parent) {
  spans_.push_back(Span{std::move(name), Offset(start), Offset(end), parent});
}

std::string SpanLog::ToJson() const {
  std::string out = "{\"spans\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_s, s.end_s,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Since(Clock::time_point start) { return Seconds(Clock::now() - start); }

/// Cost of one timed section with nothing in it (two clock reads). The
/// per-call figures below subtract it, so they read as the call's own cost;
/// a call cheaper than the clock's jitter can then read slightly below 0.
double ClockPairSeconds() {
  constexpr int kPairs = 1 << 18;
  Clock::duration total{};
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point t0 = Clock::now();
    total += Clock::now() - t0;
  }
  return Seconds(total) / kPairs;
}

struct CallTimer {
  std::int64_t calls = 0;
  Clock::duration total{};

  double Seconds(double clock_pair_s) const {
    return perfbench::Seconds(total) -
           clock_pair_s * static_cast<double>(calls);
  }
  double Nanos(double clock_pair_s) const {
    return calls > 0 ? Seconds(clock_pair_s) * 1e9 / static_cast<double>(calls)
                     : 0.0;
  }
};

/// Times the enclosing block into `timer` (kTimed) or compiles to nothing.
/// A non-null `spans` also records the block as a span under `parent`.
template <bool kTimed>
class Probe {
 public:
  Probe(CallTimer& timer, SpanLog* spans, const char* name, int parent)
      : timer_(timer), spans_(spans), name_(name), parent_(parent) {
    if constexpr (kTimed) {
      start_ = Clock::now();
    }
  }
  ~Probe() {
    if constexpr (kTimed) {
      const Clock::time_point end = Clock::now();
      timer_.total += end - start_;
      ++timer_.calls;
      if (spans_ != nullptr) {
        spans_->Add(name_, start_, end, parent_);
      }
    }
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  CallTimer& timer_;
  SpanLog* spans_;
  const char* name_;
  int parent_;
  Clock::time_point start_{};
};

struct ReplayStats {
  CallTimer offer;          // AdmissionController::Offer + its live scan.
  CallTimer sweep;          // AdmissionController::SweepExpired.
  CallTimer earliest_free;  // ServerPool::EarliestFree.
  CallTimer add;            // MultiBatchFormer::Add.
  CallTimer route;          // ClusterPool::Route.
  CallTimer dispatch;       // ServerPool::Dispatch.
  double summarize_s = 0.0;
  double warm_s = 0.0;      // ServerPool construction + WarmBatchSizes.
  std::int64_t batches = 0;
  std::int64_t batched_requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double wall_s = 0.0;      // Whole replay, pool set-up excluded.
};

// Per-call spans are kept for the first arrivals only, so the span log
// stays small on million-request runs; the per-call timers cover them all.
constexpr std::size_t kSpanWindow = 256;

/// Replays `arrivals` through the engine's hot-path calls in the engine's
/// order (docs/ENGINE.md), without autoscaler ticks or admission retries;
/// replica failures are applied (see below). On a workload with no
/// admission or no cluster, a pass-through controller (`none`) and a
/// one-node router are called beside the path and timed, so their
/// per-call cost is measured everywhere; their decisions are not used.
template <bool kTimed>
ReplayStats Replay(const Setup& setup,
                   const std::vector<serve::Request>& arrivals,
                   SpanLog* spans, int parent) {
  ReplayStats out;
  const serve::ServeOptions& options = setup.options;
  const serve::WorkloadRegistry& registry = *setup.registry;
  const int workloads = registry.size();

  std::vector<serve::BatchPolicy> policies(
      static_cast<std::size_t>(workloads),
      serve::BatchPolicy{options.max_batch, options.max_wait_s});
  for (std::size_t w = 0; w < options.per_workload_max_batch.size(); ++w) {
    if (options.per_workload_max_batch[w] > 0) {
      policies[w].max_batch = options.per_workload_max_batch[w];
    }
  }

  const Clock::time_point warm_start = Clock::now();
  serve::ServerPool pool(setup.replicas, registry.Dataflows(),
                         options.worker_threads);
  std::map<std::int64_t, std::vector<serve::WorkloadId>> by_cap;
  for (serve::WorkloadId w = 0; w < workloads; ++w) {
    by_cap[policies[static_cast<std::size_t>(w)].max_batch].push_back(w);
  }
  for (const auto& [cap, ids] : by_cap) {
    pool.WarmBatchSizes(cap, ids);
  }
  out.warm_s = Since(warm_start);

  serve::MultiBatchFormer former(policies);
  serve::ServeStats stats(pool.size(), workloads);
  for (serve::WorkloadId w = 0; w < workloads; ++w) {
    stats.SetWorkloadName(w, registry.NameOf(w));
  }

  const bool admission_on = options.admission.enabled();
  std::vector<serve::AdmissionController::TenantConfig> tenants;
  const std::vector<double> shares = MixShares(setup);
  double total_share = 0.0;
  for (const double share : shares) {
    total_share += share;
  }
  const double offered_rps = serve::EffectiveOfferedRps(
      options, static_cast<std::int64_t>(arrivals.size()));
  for (serve::WorkloadId w = 0; w < workloads; ++w) {
    serve::AdmissionController::TenantConfig tenant;
    tenant.name = registry.NameOf(w);
    tenant.tier = options.tiers.empty()
                      ? serve::SlaTier::kStandard
                      : options.tiers[static_cast<std::size_t>(w)];
    tenant.offered_rps =
        offered_rps * shares[static_cast<std::size_t>(w)] / total_share;
    if (admission_on) {
      stats.SetWorkloadTier(w, tenant.tier);
    }
    tenants.push_back(std::move(tenant));
  }
  serve::AdmissionController admission(
      admission_on ? options.admission : serve::AdmissionSpec{}, tenants);
  if (admission_on) {
    for (serve::WorkloadId w = 0; w < workloads; ++w) {
      former.SetLanePriority(w, static_cast<int>(admission.TierOf(w)));
    }
  }

  const bool cluster_on = options.cluster.enabled();
  serve::ClusterPool cluster(
      cluster_on ? options.cluster
                 : serve::ClusterSpec::Parse("least-loaded:nodes=1"),
      pool, registry.Dataflows(),
      cluster_on ? options.cluster_nodes : std::vector<int>{});
  stats.Reserve(static_cast<std::int64_t>(arrivals.size()));

  // Admitted requests in dispatched batches whose start is still ahead of
  // the offer clock (the engine's admission backlog signal).
  using Start = std::pair<double, std::int64_t>;
  std::priority_queue<Start, std::vector<Start>, std::greater<Start>>
      scheduled;
  std::int64_t scheduled_backlog = 0;
  std::int64_t started = 0;
  std::vector<double> busy_until(static_cast<std::size_t>(workloads), 0.0);
  SpanLog* call_spans = nullptr;

  auto dispatch = [&](serve::Batch&& batch) {
    int node = -1;
    double tail_s = 0.0;
    {
      Probe<kTimed> probe(out.route, call_spans, "cluster.route", parent);
      const serve::RouteDecision route = cluster.Route(batch);
      if (cluster_on) {
        node = route.node;
        if (route.remote) {
          batch.formed_s += route.ingress_s;
          tail_s = route.egress_s;
        }
        cluster.RecordDispatch(route);
      }
    }
    double free_s = 0.0;
    {
      Probe<kTimed> probe(out.earliest_free, call_spans,
                          "pool.earliest_free", parent);
      free_s = node >= 0 ? pool.EarliestFree(batch.workload, node)
                         : pool.EarliestFree(batch.workload);
    }
    const double start = std::max(batch.formed_s, free_s);
    if (admission_on) {
      Probe<kTimed> probe(out.sweep, call_spans, "admission.sweep", parent);
      admission.SweepExpired(&batch, start);
    }
    if (batch.requests.empty()) {
      former.Recycle(std::move(batch.requests));
      return;
    }
    const auto arrived = static_cast<std::int64_t>(
        std::upper_bound(arrivals.begin(), arrivals.end(), start,
                         [](double t, const serve::Request& r) {
                           return t < r.arrival_s;
                         }) -
        arrivals.begin());
    const std::int64_t depth = arrived - started - admission.removed();
    serve::DispatchRecord record;
    {
      Probe<kTimed> probe(out.dispatch, call_spans, "pool.dispatch", parent);
      record = pool.Dispatch(batch, &stats, depth, node, tail_s);
    }
    ++out.batches;
    out.batched_requests += batch.size();
    started += batch.size();
    if (admission_on) {
      scheduled.push({record.start_s, batch.size()});
      scheduled_backlog += batch.size();
    }
    former.Recycle(std::move(batch.requests));
  };

  // Replica failures are applied to the pool when their time comes, so
  // dispatch routes around them and admission sees the live fraction the
  // engine sees. Unlike the engine, the replay does not abort and
  // re-enqueue batches already booked on a failing replica.
  std::vector<serve::AdversityEvent> faults;
  for (const serve::AdversityEvent& e :
       serve::BuildAdversityTimeline(options.adversity, options.duration_s)) {
    if (e.kind == serve::AdversityEventKind::kReplicaFail) {
      faults.push_back(e);
    }
  }
  std::size_t next_fault = 0;
  auto fail = [&](const serve::AdversityEvent& e, int requested) {
    const int target =
        pool.ResolveFaultTarget(requested, e.t_s, /*for_failure=*/true);
    if (target >= 0) {
      pool.FailReplica(target, e.t_s, e.until_s, e.warmup_s);
    }
  };

  const Clock::time_point replay_start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    serve::Request request = arrivals[i];
    for (; next_fault < faults.size() &&
           faults[next_fault].t_s <= request.arrival_s;
         ++next_fault) {
      const serve::AdversityEvent& e = faults[next_fault];
      if (e.node < 0) {
        fail(e, e.replica);
        continue;
      }
      for (int r = 0; cluster_on && r < pool.size(); ++r) {
        if (pool.NodeOf(r) == e.node) {
          fail(e, r);
        }
      }
    }
    call_spans = kTimed && i < kSpanWindow ? spans : nullptr;
    bool admitted = true;
    {
      Probe<kTimed> probe(out.offer, call_spans, "admission.offer", parent);
      double live_fraction = 1.0;
      if (admission_on) {
        const double t = request.arrival_s;
        const int provisioned = pool.ActiveReplicas(t);
        int failed = 0;
        for (int r = 0; r < pool.size(); ++r) {
          failed += pool.Failed(r, t) ? 1 : 0;
        }
        live_fraction =
            provisioned > 0
                ? static_cast<double>(std::max(0, provisioned - failed)) /
                      static_cast<double>(provisioned)
                : 1.0;
        while (!scheduled.empty() && scheduled.top().first <= t) {
          scheduled_backlog -= scheduled.top().second;
          scheduled.pop();
        }
      }
      admitted = admission.Offer(
          &request, former.total_pending() + scheduled_backlog,
          live_fraction);
    }
    if (!admitted) {
      continue;
    }
    for (serve::WorkloadId w = 0; w < workloads; ++w) {
      Probe<kTimed> probe(out.earliest_free, call_spans,
                          "pool.earliest_free", parent);
      busy_until[static_cast<std::size_t>(w)] = pool.EarliestFree(w);
    }
    std::vector<serve::Batch> closed;
    {
      Probe<kTimed> probe(out.add, call_spans, "former.add", parent);
      closed = former.Add(request, busy_until);
    }
    for (serve::Batch& batch : closed) {
      dispatch(std::move(batch));
    }
  }
  call_spans = nullptr;
  for (serve::Batch& batch :
       former.Flush(options.duration_s + options.max_wait_s)) {
    dispatch(std::move(batch));
  }
  const Clock::time_point summarize_start = Clock::now();
  stats.Summarize(offered_rps, options.duration_s);
  out.summarize_s = Since(summarize_start);
  out.wall_s = Since(replay_start);
  out.cache_hits = pool.cache_hits();
  out.cache_misses = pool.cache_misses();
  return out;
}

struct TimedServe {
  double seconds = 0.0;
  serve::ServeReport report;
};

/// One whole serve run. With `arrivals` (the schedule `options`
/// generates), the run is checked against it.
TimedServe Serve(const Setup& setup, const serve::ServeOptions& options,
                 const std::vector<serve::Request>* arrivals, bool fault_free,
                 LayerReport* out) {
  TimedServe timed;
  const Clock::time_point start = Clock::now();
  timed.report = serve::RunSyntheticServe(*setup.registry, setup.replicas,
                                          setup.mix, options);
  timed.seconds = Since(start);
  ++out->serve_runs;
  if (arrivals != nullptr) {
    CheckRun(timed.report, *arrivals, setup.registry->Names(), fault_free,
             &out->failures);
  }
  return timed;
}

/// Median over rounds of one replayed quantity.
template <typename F>
double MedianOf(const std::vector<ReplayStats>& rounds, F quantity) {
  std::vector<double> values;
  for (const ReplayStats& round : rounds) {
    values.push_back(quantity(round));
  }
  return Median(std::move(values));
}

// Rounds of the engine run, the autoscale-off run, the timed replay and the
// untimed replay, interleaved so that every figure samples the same
// stretch of host time; each figure is the median over the rounds.
constexpr int kRounds = 5;

}  // namespace

LayerReport MeasureLayers(const WorkloadSpec& spec, std::uint64_t seed,
                          SpanLog* spans) {
  LayerReport out;
  auto metric = [&](const char* name, double value, const char* unit) {
    out.metrics.push_back(LayerMetric{name, value, unit});
  };
  const double clock_pair_s = ClockPairSeconds();
  const int root = spans->Begin("traced." + spec.name);

  // ---- dse + planner (isolated calls; median of three set-ups).
  int span = spans->Begin("setup", root);
  std::vector<double> compile_s;
  Setup setup;
  for (int i = 0; i < 3; ++i) {
    setup = BuildSetup(spec, seed);
    compile_s.push_back(setup.compile_s);
  }
  spans->End(span);
  std::int64_t evaluated_points = 0;
  for (serve::WorkloadId w = 0; w < setup.registry->size(); ++w) {
    evaluated_points += setup.registry->compiled(w).dse.evaluated_points;
  }
  const serve::ServeOptions& options = setup.options;
  const bool fault_free = options.adversity.kind == serve::AdversityKind::kNone;

  span = spans->Begin("planner.plan", root);
  const serve::PlanOptions problem = PlanProblem(spec);
  std::vector<double> plan_s;
  int planned_replicas = 0;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    const serve::PoolPlan plan =
        serve::PlanCapacity(*setup.registry, setup.mix, problem);
    plan_s.push_back(Since(start));
    planned_replicas = plan.TotalReplicas();
  }
  spans->End(span);
  span = spans->Begin("planner.replan", root);
  const serve::PlanFrontier frontier =
      serve::BuildPlanFrontier(*setup.registry, setup.mix, problem);
  std::vector<double> replan_s;
  for (int i = 0; i < 21; ++i) {
    const Clock::time_point start = Clock::now();
    serve::PlanCapacity(*setup.registry, setup.mix, problem, frontier);
    replan_s.push_back(Since(start));
  }
  spans->End(span);

  // ---- arrivals (isolated).
  span = spans->Begin("arrivals", root);
  const std::vector<double> shares = MixShares(setup);
  std::vector<double> arrivals_s;
  std::vector<serve::Request> arrivals;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    arrivals = serve::SyntheticArrivals(options, shares,
                                        setup.registry->Names());
    arrivals_s.push_back(Since(start));
  }
  spans->End(span);
  const double requests = static_cast<double>(arrivals.size());

  // ---- engine runs, the autoscale on/off pair, and the replays.
  serve::ServeOptions untraced = options;
  untraced.trace = {};
  serve::ServeOptions fixed = untraced;
  fixed.autoscale = false;
  std::vector<double> engine_s, fixed_s, plain_s;
  std::vector<ReplayStats> replays;
  serve::ServeReport run;
  for (int i = 0; i < kRounds; ++i) {
    span = spans->Begin("round", root);
    TimedServe engine = Serve(setup, untraced, &arrivals, fault_free, &out);
    engine_s.push_back(engine.seconds);
    if (i == 0) {
      run = std::move(engine.report);
    }
    if (options.autoscale) {
      fixed_s.push_back(
          Serve(setup, fixed, &arrivals, fault_free, &out).seconds);
    }
    // Per-call spans come from the first round only.
    replays.push_back(
        Replay<true>(setup, arrivals, i == 0 ? spans : nullptr, span));
    plain_s.push_back(Replay<false>(setup, arrivals, nullptr, span).wall_s);
    spans->End(span);
  }
  const double engine_seconds = Median(engine_s);
  const double autoscale_share =
      options.autoscale ? (engine_seconds - Median(fixed_s)) / engine_seconds
                        : 0.0;
  const ReplayStats& replay = replays.front();  // Counts repeat exactly.
  auto seconds_of = [&](CallTimer ReplayStats::*timer) {
    return MedianOf(replays, [&](const ReplayStats& r) {
      return (r.*timer).Seconds(clock_pair_s);
    });
  };
  auto nanos_of = [&](CallTimer ReplayStats::*timer) {
    return MedianOf(replays, [&](const ReplayStats& r) {
      return (r.*timer).Nanos(clock_pair_s);
    });
  };
  const double summarize_s =
      MedianOf(replays, [](const ReplayStats& r) { return r.summarize_s; });

  // ---- obs: tracing on/off pair on the obs horizon, then the exports.
  serve::ServeOptions obs_off = untraced;
  obs_off.duration_s = spec.obs_duration_s;
  serve::ServeOptions obs_on = obs_off;
  obs_on.trace.enabled = true;
  obs_on.trace.detail = nsflow::obs::TraceDetail::kSpans;
  span = spans->Begin("obs.pair", root);
  std::vector<double> obs_off_s, obs_on_s;
  TimedServe traced;
  for (int i = 0; i < 3; ++i) {
    obs_off_s.push_back(
        Serve(setup, obs_off, nullptr, fault_free, &out).seconds);
    traced = Serve(setup, obs_on, nullptr, fault_free, &out);
    obs_on_s.push_back(traced.seconds);
  }
  spans->End(span);
  const double off_s = Median(obs_off_s);
  const double on_s = Median(obs_on_s);
  const nsflow::obs::Observability& obs = *traced.report.obs;
  const nsflow::obs::TraceData drained = obs.recorder.Drain();
  const double records = static_cast<double>(
      drained.requests.size() + drained.batches.size() +
      drained.instants.size() + drained.counters.size());

  span = spans->Begin("obs.export.chrome", root);
  Clock::time_point start = Clock::now();
  std::string chrome = obs.ChromeTraceJson();
  const double export_s = Since(start);
  spans->End(span);
  const double trace_mb = static_cast<double>(chrome.size()) / 1e6;
  if (spec.traced) {
    CheckChromeTrace(chrome, traced.report.summary.completed, &out.failures);
  }
  chrome = std::string();
  span = spans->Begin("obs.export.binary", root);
  start = Clock::now();
  const std::size_t binary_bytes = obs.BinaryTrace().size();
  const double binary_s = Since(start);
  spans->End(span);
  span = spans->Begin("obs.export.metrics", root);
  start = Clock::now();
  const std::size_t metrics_bytes = obs.MetricsJson().size();
  const double metrics_s = Since(start);
  spans->End(span);
  spans->End(root);

  // ---- the per-layer metrics, in BENCHMARK.json order.
  const double engine_ns = engine_seconds * 1e9 / requests;
  const serve::PoolDeltaCounts deltas = serve::CountDeltas(run.deltas);
  std::int64_t offered = 0, admitted = 0, shed = 0, expired = 0, retried = 0;
  if (run.admission.empty()) {
    // No admission layer: every arrival enters the forming lanes.
    offered = admitted = run.generated_requests;
  }
  for (const serve::AdmissionTenantSummary& row : run.admission) {
    offered += row.offered;
    admitted += row.admitted;
    shed += row.shed();
    expired += row.expired;
    retried += row.retried;
  }
  std::int64_t remote_batches = 0;
  double network_s = 0.0;
  for (const serve::NodeSummary& node : run.summary.per_node) {
    remote_batches += node.remote_batches;
    network_s += node.network_s;
  }
  double utilization = 0.0;
  for (const double u : run.summary.replica_utilization) {
    utilization += u;
  }
  utilization /= static_cast<double>(
      std::max<std::size_t>(1, run.summary.replica_utilization.size()));

  const double arrivals_total_s = Median(arrivals_s);
  const double offer_total_s =
      seconds_of(&ReplayStats::offer) + seconds_of(&ReplayStats::sweep);
  const double pool_total_s = seconds_of(&ReplayStats::earliest_free) +
                              seconds_of(&ReplayStats::dispatch);
  const double former_total_s = seconds_of(&ReplayStats::add);
  const double route_total_s = seconds_of(&ReplayStats::route);
  // The layers the untraced engine run actually passes through.
  const double replayed_s =
      arrivals_total_s + pool_total_s + former_total_s + summarize_s +
      (options.admission.enabled() ? offer_total_s : 0.0) +
      (options.cluster.enabled() ? route_total_s : 0.0);

  metric("dse.compile_s", Median(compile_s), "s");
  metric("dse.evaluated_points", static_cast<double>(evaluated_points),
         "count");
  metric("planner.plan_s", Median(plan_s), "s");
  metric("planner.replan_us", Median(replan_s) * 1e6, "us");
  metric("planner.replicas",
         setup.plan.has_value() ? setup.plan->TotalReplicas()
                                : planned_replicas,
         "count");
  metric("autoscaler.wall_share", autoscale_share, "share");
  metric("autoscaler.adds", deltas.adds, "count");
  metric("autoscaler.retires", deltas.retires, "count");
  metric("autoscaler.refits", deltas.refits, "count");
  metric("arrivals.ns_per_request", arrivals_total_s * 1e9 / requests, "ns");
  metric("former.add_ns", nanos_of(&ReplayStats::add), "ns");
  metric("former.batches", static_cast<double>(replay.batches), "count");
  metric("former.mean_batch",
         static_cast<double>(replay.batched_requests) /
             static_cast<double>(std::max<std::int64_t>(1, replay.batches)),
         "requests");
  metric("pool.earliest_free_ns", nanos_of(&ReplayStats::earliest_free),
         "ns");
  metric("pool.earliest_free_calls",
         static_cast<double>(replay.earliest_free.calls), "count");
  metric("pool.dispatch_ns", nanos_of(&ReplayStats::dispatch), "ns");
  metric("pool.warm_s",
         MedianOf(replays, [](const ReplayStats& r) { return r.warm_s; }),
         "s");
  metric("pool.cache_hits", static_cast<double>(replay.cache_hits), "count");
  metric("pool.cache_misses", static_cast<double>(replay.cache_misses),
         "count");
  metric("pool.utilization", utilization, "share");
  metric("cluster.route_ns", nanos_of(&ReplayStats::route), "ns");
  metric("cluster.remote_batches", static_cast<double>(remote_batches),
         "count");
  metric("cluster.network_s", network_s, "virtual_s");
  metric("admission.offer_ns", nanos_of(&ReplayStats::offer), "ns");
  metric("admission.offered", static_cast<double>(offered), "count");
  metric("admission.admitted", static_cast<double>(admitted), "count");
  metric("admission.shed", static_cast<double>(shed), "count");
  metric("admission.expired", static_cast<double>(expired), "count");
  metric("admission.retried", static_cast<double>(retried), "count");
  metric("admission.admit_share",
         static_cast<double>(admitted) /
             static_cast<double>(std::max<std::int64_t>(1, offered)),
         "share");
  metric("stats.summarize_ms", summarize_s * 1e3, "ms");
  metric("engine.ns_per_request", engine_ns, "ns");
  metric("engine.unattributed_share", 1.0 - replayed_s / engine_seconds,
         "share");
  metric("obs.record_ratio", on_s / off_s, "ratio");
  metric("obs.records", records, "count");
  metric("obs.export_s", export_s, "s");
  metric("obs.export_mb_per_s", trace_mb / export_s, "MB/s");
  metric("obs.trace_mb", trace_mb, "MB");
  metric("obs.binary_export_s", binary_s, "s");
  metric("obs.metrics_export_s", metrics_s, "s");
  metric("bench.trace_overhead",
         MedianOf(replays, [](const ReplayStats& r) { return r.wall_s; }) -
             Median(plain_s),
         "s");

  // ---- attribution of the user-visible run's host time.
  // The user-visible run is the untraced serve, plus on a traced workload
  // the tracing cost (scaled from the obs pair) and the two exports.
  double obs_s = 0.0;
  if (spec.traced) {
    obs_s = (on_s - off_s) + export_s + metrics_s;
  }
  const double run_s = engine_seconds + obs_s;
  std::vector<std::pair<std::string, double>> layers = {
      {"arrivals", arrivals_total_s},
      {"pool (earliest_free + dispatch)", pool_total_s},
      {"former", former_total_s},
      {"stats", summarize_s},
  };
  if (options.admission.enabled()) {
    layers.push_back({"admission", offer_total_s});
  }
  if (options.cluster.enabled()) {
    layers.push_back({"cluster", route_total_s});
  }
  if (options.autoscale) {
    layers.push_back({"autoscaler (on/off pair)",
                      autoscale_share * engine_seconds});
  }
  if (spec.traced) {
    layers.push_back({"obs (record + export)", obs_s});
  }
  double attributed = 0.0;
  for (const auto& layer : layers) {
    attributed += layer.second;
  }
  std::sort(layers.begin(), layers.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  char line[200];
  std::snprintf(line, sizeof(line),
                "attribution of %.3f s user-visible run (%lld requests):",
                run_s, static_cast<long long>(requests));
  out.table.push_back(line);
  for (const auto& [name, seconds] : layers) {
    std::snprintf(line, sizeof(line), "  %-34s %9.3f s  %5.1f%%",
                  name.c_str(), seconds, 100.0 * seconds / run_s);
    out.table.push_back(line);
  }
  std::snprintf(line, sizeof(line), "  %-34s %9.3f s  %5.1f%%",
                "unattributed", run_s - attributed,
                100.0 * (run_s - attributed) / run_s);
  out.table.push_back(line);
  std::snprintf(line, sizeof(line), "largest layer: %s (%.1f%% of the run)",
                layers.front().first.c_str(),
                100.0 * layers.front().second / run_s);
  out.table.push_back(line);
  std::snprintf(line, sizeof(line),
                "replay: batches=%lld engine_batches=%lld",
                static_cast<long long>(replay.batches),
                static_cast<long long>(run.summary.batches));
  out.table.push_back(line);
  std::snprintf(line, sizeof(line),
                "exports: chrome %.1f MB, binary %.1f MB, metrics %.1f MB",
                trace_mb, static_cast<double>(binary_bytes) / 1e6,
                static_cast<double>(metrics_bytes) / 1e6);
  out.table.push_back(line);
  out.correct = out.failures.empty();
  return out;
}

}  // namespace perfbench
