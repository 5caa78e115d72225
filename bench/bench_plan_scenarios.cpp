// Capacity-planner / traffic-scenario smoke bench — the source of
// BENCH_plan.json (docs/PLANNING.md).
//
// One SLO-driven plan *per arrival scenario* for the standard serving mix
// (the planner provisions against each pattern's peak rate), followed by a
// validation run: the planned pool is instantiated exactly as `nsflow
// serve --plan` would run it and driven at the planning qps under that
// pattern. The artifact records, per scenario x workload, the plan's
// predicted p99 next to the measured p99 and their ratio; any ratio
// outside the tolerance documented in docs/PLANNING.md ([0.25x, 1.25x]
// under the planning assumptions) makes the bench exit non-zero, which is
// what the CI bench-smoke job keys on.
//
// The artifact's `autoscale` section is the elastic-vs-static headline
// (docs/AUTOSCALING.md): the diurnal scenario planned statically for its
// peak, then served twice — once with the fixed plan pool and once with
// `ServeOptions::autoscale` — and gated on the autoscaled run meeting the
// same p99 SLO with at most 70% of the static pool's replica-seconds.
//
// The `adversity` section is the hardening gate (docs/SCENARIOS.md): the
// same elastic diurnal run with a single replica failing at the crest,
// gated on the p99 SLO holding at <= 15% extra replica-seconds versus the
// fault-free elastic run.
//
// The `admission` section is the overload-shedding headline
// (docs/ADMISSION.md): the planned pool driven at 3x its planning rate
// (spike scenario) with one replica failed, gated on the critical tenant
// holding its 50 ms p99 with only batch-tier traffic shed, zero
// expired-but-dispatched requests, and bit-identical same-seed repeats.
//
// The `cluster` section is the multi-node survival gate (docs/CLUSTER.md):
// the two-tenant mix planned across a 2-node cluster and served through
// the cluster router while one whole node fails at the diurnal crest,
// gated on the critical tenant holding its p99 SLO, every cross-node
// dispatch carrying non-zero modeled network time, same-seed
// bit-identity, and the shared trace invariants (tests/trace_invariants.h)
// on the traced repeat — per-tenant conservation among them.
//
// The adversity, admission and cluster rows each carry their run's
// conservation ledger as `per_tier`: offered, admitted, shed, expired and
// completed requests per SLA tier.
//
// Usage: bench_plan_scenarios [--out BENCH_plan.json] [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "../tests/trace_invariants.h"

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A gate run's conservation ledger: offered, admitted, shed, expired and
/// completed requests per SLA tier, printed and returned as the row's
/// `per_tier` object. A run without an admission frontend offers and
/// admits every generated request, all in the `standard` tier.
nsflow::Json TierLedger(const nsflow::serve::ServeReport& report) {
  using namespace nsflow;
  JsonObject ledger;
  const auto row = [&](const std::string& name, std::int64_t offered,
                       std::int64_t admitted, std::int64_t shed,
                       std::int64_t expired, std::int64_t completed) {
    JsonObject accounting;
    accounting["offered"] = Json(offered);
    accounting["admitted"] = Json(admitted);
    accounting["shed"] = Json(shed);
    accounting["expired"] = Json(expired);
    accounting["completed"] = Json(completed);
    ledger[name] = Json(std::move(accounting));
    std::printf("  %-8s offered %lld, admitted %lld, shed %lld, expired "
                "%lld, completed %lld\n",
                name.c_str(), static_cast<long long>(offered),
                static_cast<long long>(admitted),
                static_cast<long long>(shed),
                static_cast<long long>(expired),
                static_cast<long long>(completed));
  };
  if (report.admission.empty()) {
    row(serve::TierName(serve::SlaTier::kStandard), report.generated_requests,
        report.generated_requests, 0, 0, report.summary.completed);
    return Json(std::move(ledger));
  }
  for (const serve::TierSummary& tier : report.summary.per_tier) {
    std::int64_t offered = 0;
    std::int64_t admitted = 0;
    std::int64_t shed = 0;
    std::int64_t expired = 0;
    for (const serve::AdmissionTenantSummary& tenant : report.admission) {
      if (tenant.tier == tier.tier) {
        offered += tenant.offered;
        admitted += tenant.admitted;
        shed += tenant.shed();
        expired += tenant.expired;
      }
    }
    row(tier.name, offered, admitted, shed, expired, tier.completed);
  }
  return Json(std::move(ledger));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nsflow;

  std::string out_path = "BENCH_plan.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out BENCH_plan.json] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  // Virtual seconds are cheap (engine wall clock scales with request
  // count); long horizons keep every per-workload p99 a real quantile.
  const double duration_s = smoke ? 16.0 : 60.0;
  constexpr double kToleranceHigh = 1.25;  // docs/PLANNING.md.
  constexpr double kToleranceLow = 0.25;

  std::printf("=== NSFlow capacity planner: scenario smoke ===\n\n");

  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  registry.RegisterBuiltin("nvsa");
  const std::vector<serve::WorkloadShare> mix = {
      {"mlp", 0.6}, {"resnet18", 0.3}, {"nvsa", 0.1}};

  const std::vector<std::string> scenarios = {
      "poisson",
      "diurnal:depth=0.8",
      "bursty:on=0.05,off=0.15,idle=0.1",
      "ramp:from=0.2,to=1.8",
      "spike:mult=4",
  };

  int violations = 0;
  JsonArray scenario_rows;
  for (const std::string& scenario_text : scenarios) {
    serve::PlanOptions plan_options;
    plan_options.qps = 200.0;
    plan_options.p99_slo_s = 50e-3;
    plan_options.device = "u250";
    plan_options.devices = 16;  // Enough boards for every crest.
    plan_options.scenario = serve::ScenarioSpec::Parse(scenario_text);

    const auto plan_start = Clock::now();
    const serve::PoolPlan plan =
        serve::PlanCapacity(registry, mix, plan_options);
    const double plan_ms = ElapsedMs(plan_start);
    if (!plan.feasible) {
      std::fprintf(stderr, "error: %s plan infeasible: %s\n",
                   scenario_text.c_str(), plan.note.c_str());
      return 1;
    }
    std::printf("%s: %d replicas for %.0f rps peak, planned in %.1f ms\n",
                scenario_text.c_str(), plan.TotalReplicas(),
                plan.planning_rate, plan_ms);

    serve::ServeOptions serve_options;
    serve_options.qps = plan.qps;
    serve_options.duration_s = duration_s;
    serve_options.seed = 42;
    serve_options.max_batch = plan.max_batch;
    serve_options.max_wait_s = plan.max_wait_s;
    serve_options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
    serve_options.scenario = serve::ScenarioSpec::Parse(scenario_text);

    const auto run_start = Clock::now();
    const serve::ServeReport report =
        serve::RunSyntheticServe(registry, plan.Replicas(), mix,
                                 serve_options);
    const double run_ms = ElapsedMs(run_start);

    JsonObject row;
    row["scenario"] = Json(scenario_text);
    row["replicas"] = Json(plan.TotalReplicas());
    row["planning_rate_rps"] = Json(plan.planning_rate);
    row["planning_wall_ms"] = Json(plan_ms);
    row["dsp"] = Json(plan.resources.dsp);
    row["requests"] = Json(report.generated_requests);
    row["wall_ms"] = Json(run_ms);
    row["throughput_rps"] = Json(report.summary.throughput_rps);
    JsonArray workloads;
    for (const serve::GroupPlan& group : plan.groups) {
      const auto w = static_cast<std::size_t>(group.workload_id);
      const double predicted_ms = group.predicted_p99_s * 1e3;
      const double measured_ms = report.summary.per_workload[w].p99_ms;
      const double ratio =
          predicted_ms > 0.0 ? measured_ms / predicted_ms : 0.0;
      if (ratio < kToleranceLow || ratio > kToleranceHigh) {
        ++violations;
        std::fprintf(stderr,
                     "TOLERANCE VIOLATION: %s/%s measured %.3f ms vs "
                     "predicted %.3f ms (ratio %.2f)\n",
                     scenario_text.c_str(), group.workload.c_str(),
                     measured_ms, predicted_ms, ratio);
      }
      JsonObject entry;
      entry["workload"] = Json(group.workload);
      entry["predicted_p99_ms"] = Json(predicted_ms);
      entry["measured_p99_ms"] = Json(measured_ms);
      entry["ratio"] = Json(ratio);
      workloads.push_back(Json(std::move(entry)));
      std::printf("  %-10s pred %8.3f ms  meas %8.3f ms  ratio %.2f\n",
                  group.workload.c_str(), predicted_ms, measured_ms, ratio);
    }
    row["per_workload"] = Json(std::move(workloads));
    scenario_rows.push_back(Json(std::move(row)));
  }

  // ---- bench_autoscale: elastic vs static on the diurnal pattern. A
  // utilization-bound mix (the resnet18 group's replica count tracks the
  // offered rate) at a rate high enough for fine-grained scaling.
  std::printf("\n--- autoscale: diurnal elastic vs static ---\n");
  constexpr double kReplicaSecondsGate = 0.70;
  // Its own registry: a partitioned pool must cover every registered
  // workload, and this comparison serves only the two-tenant mix.
  serve::WorkloadRegistry elastic_registry;
  elastic_registry.RegisterBuiltin("mlp");
  elastic_registry.RegisterBuiltin("resnet18");
  const std::vector<serve::WorkloadShare> elastic_mix = {
      {"mlp", 0.2}, {"resnet18", 0.8}};
  serve::PlanOptions elastic_plan_options;
  elastic_plan_options.qps = 2000.0;
  elastic_plan_options.p99_slo_s = 50e-3;
  elastic_plan_options.device = "u250";
  elastic_plan_options.devices = 128;
  elastic_plan_options.max_replicas_per_workload = 64;
  elastic_plan_options.scenario =
      serve::ScenarioSpec::Parse("diurnal:depth=0.8");
  const serve::PoolPlan elastic_plan =
      serve::PlanCapacity(elastic_registry, elastic_mix, elastic_plan_options);
  if (!elastic_plan.feasible) {
    std::fprintf(stderr, "error: autoscale baseline plan infeasible: %s\n",
                 elastic_plan.note.c_str());
    return 1;
  }

  serve::ServeOptions elastic_options;
  elastic_options.qps = elastic_plan_options.qps;
  elastic_options.duration_s = duration_s;
  elastic_options.seed = 42;
  elastic_options.max_batch = elastic_plan.max_batch;
  elastic_options.max_wait_s = elastic_plan.max_wait_s;
  elastic_options.per_workload_max_batch =
      elastic_plan.PerWorkloadMaxBatch();
  elastic_options.scenario = elastic_plan_options.scenario;

  const auto static_start = Clock::now();
  const serve::ServeReport static_report = serve::RunSyntheticServe(
      elastic_registry, elastic_plan.Replicas(), elastic_mix, elastic_options);
  const double static_ms = ElapsedMs(static_start);

  // The tuned control knobs (tests/autoscaler_test.cpp pins the same
  // configuration; docs/AUTOSCALING.md documents the trade).
  elastic_options.autoscale = true;
  elastic_options.autoscale_opts.p99_slo_s = elastic_plan.p99_slo_s;
  elastic_options.autoscale_opts.devices = elastic_plan.devices;
  elastic_options.autoscale_opts.max_replicas = 64;
  elastic_options.autoscale_opts.headroom = 0.10;
  elastic_options.autoscale_opts.up_band = 1.05;
  elastic_options.autoscale_opts.down_band = 0.85;
  elastic_options.autoscale_opts.cooldown_s = 0.5;
  const auto elastic_start = Clock::now();
  const serve::ServeReport elastic_report = serve::RunSyntheticServe(
      elastic_registry, elastic_plan.Replicas(), elastic_mix, elastic_options);
  const double elastic_ms = ElapsedMs(elastic_start);

  const double replica_seconds_ratio =
      static_report.replica_seconds > 0.0
          ? elastic_report.replica_seconds / static_report.replica_seconds
          : 0.0;
  const serve::PoolDeltaCounts deltas =
      serve::CountDeltas(elastic_report.deltas);
  std::printf(
      "static  %2d replicas: p99 %7.3f ms, %8.1f replica-s (%.1f ms wall)\n",
      elastic_plan.TotalReplicas(), static_report.summary.p99_ms,
      static_report.replica_seconds, static_ms);
  std::printf(
      "elastic %2d deltas:   p99 %7.3f ms, %8.1f replica-s (%.1f ms wall) "
      "-> %.0f%% of static\n",
      deltas.total(), elastic_report.summary.p99_ms,
      elastic_report.replica_seconds, elastic_ms,
      100.0 * replica_seconds_ratio);
  const double slo_ms = elastic_plan.p99_slo_s * 1e3;
  if (elastic_report.summary.p99_ms > slo_ms) {
    ++violations;
    std::fprintf(stderr,
                 "AUTOSCALE VIOLATION: elastic p99 %.3f ms misses the %.1f "
                 "ms SLO the static plan meets\n",
                 elastic_report.summary.p99_ms, slo_ms);
  }
  if (replica_seconds_ratio > kReplicaSecondsGate) {
    ++violations;
    std::fprintf(stderr,
                 "AUTOSCALE VIOLATION: elastic pool used %.0f%% of the "
                 "static replica-seconds (gate: %.0f%%)\n",
                 100.0 * replica_seconds_ratio,
                 100.0 * kReplicaSecondsGate);
  }

  JsonObject autoscale;
  autoscale["scenario"] = Json("diurnal:depth=0.8");
  autoscale["mix"] = Json("mlp=0.2,resnet18=0.8");
  autoscale["qps"] = Json(elastic_plan_options.qps);
  autoscale["p99_slo_ms"] = Json(slo_ms);
  autoscale["static_replicas"] = Json(elastic_plan.TotalReplicas());
  autoscale["static_p99_ms"] = Json(static_report.summary.p99_ms);
  autoscale["static_replica_seconds"] =
      Json(static_report.replica_seconds);
  autoscale["elastic_p99_ms"] = Json(elastic_report.summary.p99_ms);
  autoscale["elastic_replica_seconds"] =
      Json(elastic_report.replica_seconds);
  autoscale["replica_seconds_ratio"] = Json(replica_seconds_ratio);
  autoscale["replica_seconds_gate"] = Json(kReplicaSecondsGate);
  autoscale["deltas_add"] = Json(deltas.adds);
  autoscale["deltas_retire"] = Json(deltas.retires);
  autoscale["deltas_refit"] = Json(deltas.refits);
  autoscale["deltas_batch_cap"] = Json(deltas.batch_caps);
  autoscale["static_wall_ms"] = Json(static_ms);
  autoscale["elastic_wall_ms"] = Json(elastic_ms);

  // ---- bench_adversity: the hardening gate (docs/SCENARIOS.md
  // "Adversity"). The same elastic diurnal run, now with the busiest
  // replica failing at the crest (replica-fail defaults: at = 0.25 x D).
  // The autoscaler must replan around the loss: same p99 SLO held, at most
  // 15% extra replica-seconds versus the fault-free elastic run above.
  std::printf("\n--- adversity: single replica loss at the diurnal peak ---\n");
  constexpr double kFaultOverheadGate = 1.15;
  serve::ServeOptions fault_options = elastic_options;
  fault_options.adversity = serve::AdversitySpec::Parse("replica-fail");
  const auto fault_start = Clock::now();
  const serve::ServeReport fault_report = serve::RunSyntheticServe(
      elastic_registry, elastic_plan.Replicas(), elastic_mix, fault_options);
  const double fault_ms = ElapsedMs(fault_start);
  const double fault_overhead =
      elastic_report.replica_seconds > 0.0
          ? fault_report.replica_seconds / elastic_report.replica_seconds
          : 0.0;
  const serve::PoolDeltaCounts fault_deltas =
      serve::CountDeltas(fault_report.deltas);
  std::printf(
      "no-fault: p99 %7.3f ms, %8.1f replica-s\n",
      elastic_report.summary.p99_ms, elastic_report.replica_seconds);
  std::printf(
      "fault:    p99 %7.3f ms, %8.1f replica-s (%.1f ms wall) -> "
      "%.1f%% overhead, %d deltas\n",
      fault_report.summary.p99_ms, fault_report.replica_seconds, fault_ms,
      100.0 * (fault_overhead - 1.0), fault_deltas.total());
  Json fault_ledger = TierLedger(fault_report);
  if (fault_report.summary.p99_ms > slo_ms) {
    ++violations;
    std::fprintf(stderr,
                 "ADVERSITY VIOLATION: p99 %.3f ms misses the %.1f ms SLO "
                 "through a single replica loss\n",
                 fault_report.summary.p99_ms, slo_ms);
  }
  if (fault_overhead > kFaultOverheadGate) {
    ++violations;
    std::fprintf(stderr,
                 "ADVERSITY VIOLATION: fault run spent %.1f%% extra "
                 "replica-seconds (gate: %.0f%%)\n",
                 100.0 * (fault_overhead - 1.0),
                 100.0 * (kFaultOverheadGate - 1.0));
  }
  if (fault_report.summary.completed != fault_report.generated_requests) {
    ++violations;
    std::fprintf(stderr,
                 "ADVERSITY VIOLATION: %lld of %lld requests completed — "
                 "the failure lost or duplicated work\n",
                 static_cast<long long>(fault_report.summary.completed),
                 static_cast<long long>(fault_report.generated_requests));
  }

  JsonObject adversity;
  adversity["pattern"] = Json(fault_options.adversity.ToString());
  adversity["scenario"] = Json("diurnal:depth=0.8");
  adversity["mix"] = Json("mlp=0.2,resnet18=0.8");
  adversity["qps"] = Json(elastic_plan_options.qps);
  adversity["p99_slo_ms"] = Json(slo_ms);
  adversity["nofault_p99_ms"] = Json(elastic_report.summary.p99_ms);
  adversity["nofault_replica_seconds"] =
      Json(elastic_report.replica_seconds);
  adversity["fault_p99_ms"] = Json(fault_report.summary.p99_ms);
  adversity["fault_replica_seconds"] = Json(fault_report.replica_seconds);
  adversity["replica_seconds_overhead"] = Json(fault_overhead);
  adversity["overhead_gate"] = Json(kFaultOverheadGate);
  adversity["deltas_add"] = Json(fault_deltas.adds);
  adversity["deltas_retire"] = Json(fault_deltas.retires);
  adversity["deltas_refit"] = Json(fault_deltas.refits);
  adversity["completed"] = Json(fault_report.summary.completed);
  adversity["generated"] = Json(fault_report.generated_requests);
  adversity["per_tier"] = std::move(fault_ledger);
  adversity["fault_wall_ms"] = Json(fault_ms);

  // ---- bench_admission: the overload-shedding headline (docs/ADMISSION.md).
  // The same planned 2000-qps pool, now driven at 3x its planning rate by a
  // spike scenario with one replica failed — an overload no static pool
  // absorbs. The admission frontend must hold the critical tenant's 50 ms
  // p99 by shedding *only* batch-tier traffic: zero critical sheds or
  // expiries, zero expired-but-dispatched requests, and the whole guarded
  // run bit-identical across two same-seed repeats.
  std::printf("\n--- admission: 3x spike + replica loss, guarded ---\n");
  serve::ServeOptions admission_options = elastic_options;
  admission_options.autoscale = false;
  admission_options.scenario = serve::ScenarioSpec::Parse("spike:mult=3");
  admission_options.adversity = serve::AdversitySpec::Parse("replica-fail");
  // An absolute per-tenant rate well above the 3x crest: the token bucket
  // never bites, so every shed is the overload path protecting the pool.
  admission_options.admission =
      serve::AdmissionSpec::Parse("guard:rate=6000");
  admission_options.tiers = {serve::SlaTier::kCritical,
                             serve::SlaTier::kBatch};
  const auto admission_start = Clock::now();
  const serve::ServeReport guarded = serve::RunSyntheticServe(
      elastic_registry, elastic_plan.Replicas(), elastic_mix,
      admission_options);
  const double admission_ms = ElapsedMs(admission_start);
  const serve::ServeReport guarded_again = serve::RunSyntheticServe(
      elastic_registry, elastic_plan.Replicas(), elastic_mix,
      admission_options);

  double critical_p99_ms = 0.0;
  for (const serve::TierSummary& tier : guarded.summary.per_tier) {
    if (tier.tier == serve::SlaTier::kCritical) {
      critical_p99_ms = tier.p99_ms;
    }
  }
  std::int64_t protected_loss = 0;  // Critical/standard sheds + expiries.
  std::int64_t batch_shed = 0;
  std::int64_t offered_total = 0;
  for (const serve::AdmissionTenantSummary& row : guarded.admission) {
    offered_total += row.offered;
    if (row.tier == serve::SlaTier::kBatch) {
      batch_shed += row.shed();
    } else {
      protected_loss += row.shed() + row.expired;
    }
  }
  const bool bit_identical =
      guarded.generated_requests == guarded_again.generated_requests &&
      guarded.summary.completed == guarded_again.summary.completed &&
      guarded.summary.p99_ms == guarded_again.summary.p99_ms &&
      critical_p99_ms ==
          [&] {
            for (const serve::TierSummary& tier :
                 guarded_again.summary.per_tier) {
              if (tier.tier == serve::SlaTier::kCritical) {
                return tier.p99_ms;
              }
            }
            return -1.0;
          }();
  std::printf(
      "guarded:  critical p99 %7.3f ms (SLO %.1f ms), %lld batch shed, "
      "%lld protected-tier losses, %lld offered (%.1f ms wall)\n",
      critical_p99_ms, slo_ms, static_cast<long long>(batch_shed),
      static_cast<long long>(protected_loss),
      static_cast<long long>(offered_total), admission_ms);
  Json guarded_ledger = TierLedger(guarded);
  if (critical_p99_ms > slo_ms) {
    ++violations;
    std::fprintf(stderr,
                 "ADMISSION VIOLATION: critical p99 %.3f ms misses the "
                 "%.1f ms SLO through the 3x spike\n",
                 critical_p99_ms, slo_ms);
  }
  if (protected_loss != 0) {
    ++violations;
    std::fprintf(stderr,
                 "ADMISSION VIOLATION: %lld critical/standard requests "
                 "shed or expired (only batch may shed)\n",
                 static_cast<long long>(protected_loss));
  }
  if (batch_shed == 0) {
    ++violations;
    std::fprintf(stderr,
                 "ADMISSION VIOLATION: the 3x spike shed no batch traffic "
                 "— the overload gate was not exercised\n");
  }
  if (guarded.expired_dispatched != 0) {
    ++violations;
    std::fprintf(stderr,
                 "ADMISSION VIOLATION: %lld expired request(s) were "
                 "dispatched\n",
                 static_cast<long long>(guarded.expired_dispatched));
  }
  if (!bit_identical) {
    ++violations;
    std::fprintf(stderr,
                 "ADMISSION VIOLATION: two same-seed guarded runs "
                 "diverged\n");
  }

  JsonObject admission;
  admission["policy"] = Json(admission_options.admission.ToString());
  admission["scenario"] = Json("spike:mult=3");
  admission["adversity"] = Json(admission_options.adversity.ToString());
  admission["mix"] = Json("mlp=0.2,resnet18=0.8");
  admission["tiers"] = Json("mlp=critical,resnet18=batch");
  admission["qps"] = Json(elastic_plan_options.qps);
  admission["p99_slo_ms"] = Json(slo_ms);
  admission["critical_p99_ms"] = Json(critical_p99_ms);
  admission["batch_shed"] = Json(batch_shed);
  admission["protected_tier_losses"] = Json(protected_loss);
  admission["expired_dispatched"] = Json(guarded.expired_dispatched);
  admission["offered"] = Json(offered_total);
  admission["completed"] = Json(guarded.summary.completed);
  admission["generated"] = Json(guarded.generated_requests);
  admission["bit_identical"] = Json(bit_identical);
  admission["per_tier"] = std::move(guarded_ledger);
  admission["wall_ms"] = Json(admission_ms);

  // ---- bench_cluster: the multi-node survival gate (docs/CLUSTER.md).
  // The same two-tenant mix planned across a 2-node cluster (the planner
  // splits the boards and places every replica), then served through the
  // cluster router with the guard frontend while one whole node fails at
  // the diurnal crest. Gated on the critical tenant holding its p99 SLO
  // through the outage, every cross-node dispatch carrying non-zero
  // modeled network time, and two same-seed runs staying bit-identical.
  std::printf("\n--- cluster: 2-node plan through a node failure ---\n");
  serve::PlanOptions cluster_plan_options = elastic_plan_options;
  cluster_plan_options.nodes = 2;
  const serve::PoolPlan cluster_plan = serve::PlanCapacity(
      elastic_registry, elastic_mix, cluster_plan_options);
  if (!cluster_plan.feasible) {
    std::fprintf(stderr, "error: cluster plan infeasible: %s\n",
                 cluster_plan.note.c_str());
    return 1;
  }

  serve::ServeOptions cluster_options = elastic_options;
  cluster_options.autoscale = false;
  cluster_options.per_workload_max_batch =
      cluster_plan.PerWorkloadMaxBatch();
  cluster_options.cluster =
      serve::ClusterSpec::Parse("least-loaded:nodes=2");
  cluster_options.cluster_nodes = cluster_plan.Placement();
  // Node 1 goes fully dark at the crest for a quarter of the run; the
  // per-replica orphan guard keeps each tenant's last capable replica, so
  // the survivors on node 0 absorb the cluster's whole load.
  cluster_options.adversity = serve::AdversitySpec::Parse(
      "replica-fail:at=" + std::to_string(duration_s * 0.25) +
      ",down=" + std::to_string(duration_s * 0.25) + ",node=1");
  cluster_options.admission = serve::AdmissionSpec::Parse("guard:rate=6000");
  cluster_options.tiers = {serve::SlaTier::kCritical,
                           serve::SlaTier::kBatch};
  const auto cluster_start = Clock::now();
  const serve::ServeReport clustered = serve::RunSyntheticServe(
      elastic_registry, cluster_plan.Replicas(), elastic_mix,
      cluster_options);
  const double cluster_ms = ElapsedMs(cluster_start);
  // The repeat runs traced (tracing never changes virtual results) so the
  // trace invariants can check it.
  serve::ServeOptions traced_cluster_options = cluster_options;
  traced_cluster_options.trace.enabled = true;
  const serve::ServeReport clustered_again = serve::RunSyntheticServe(
      elastic_registry, cluster_plan.Replicas(), elastic_mix,
      traced_cluster_options);
  const std::vector<std::string> cluster_invariants =
      serve::CheckServeInvariants(clustered_again,
                                  clustered_again.obs->recorder.Drain());

  double cluster_critical_p99_ms = 0.0;
  for (const serve::TierSummary& tier : clustered.summary.per_tier) {
    if (tier.tier == serve::SlaTier::kCritical) {
      cluster_critical_p99_ms = tier.p99_ms;
    }
  }
  std::int64_t remote_batches = 0;
  double bytes_moved = 0.0;
  double network_s = 0.0;
  for (const serve::NodeSummary& node : clustered.summary.per_node) {
    remote_batches += node.remote_batches;
    bytes_moved += node.bytes_in + node.bytes_out;
    network_s += node.network_s;
  }
  const bool cluster_bit_identical =
      clustered.generated_requests == clustered_again.generated_requests &&
      clustered.summary.completed == clustered_again.summary.completed &&
      clustered.summary.p99_ms == clustered_again.summary.p99_ms;
  std::printf(
      "clustered: critical p99 %7.3f ms (SLO %.1f ms), %lld remote "
      "batch(es), %.0f bytes moved, %.3f ms network (%.1f ms wall)\n",
      cluster_critical_p99_ms, slo_ms,
      static_cast<long long>(remote_batches), bytes_moved, network_s * 1e3,
      cluster_ms);
  if (cluster_critical_p99_ms > slo_ms) {
    ++violations;
    std::fprintf(stderr,
                 "CLUSTER VIOLATION: critical p99 %.3f ms misses the %.1f "
                 "ms SLO through the node failure\n",
                 cluster_critical_p99_ms, slo_ms);
  }
  if (remote_batches <= 0 || network_s <= 0.0) {
    ++violations;
    std::fprintf(stderr,
                 "CLUSTER VIOLATION: no priced cross-node dispatch (%lld "
                 "remote, %.6f s network) — the router never left home\n",
                 static_cast<long long>(remote_batches), network_s);
  }
  if (!cluster_bit_identical) {
    ++violations;
    std::fprintf(stderr,
                 "CLUSTER VIOLATION: two same-seed clustered runs "
                 "diverged\n");
  }
  if (!cluster_invariants.empty()) {
    ++violations;
    std::fprintf(stderr,
                 "CLUSTER VIOLATION: %zu trace invariant(s) broken, first: "
                 "%s\n",
                 cluster_invariants.size(), cluster_invariants[0].c_str());
  }

  JsonObject cluster;
  cluster["spec"] = Json(cluster_options.cluster.ToString());
  cluster["nodes"] = Json(cluster_plan.nodes);
  cluster["scenario"] = Json("diurnal:depth=0.8");
  cluster["adversity"] = Json(cluster_options.adversity.ToString());
  cluster["mix"] = Json("mlp=0.2,resnet18=0.8");
  cluster["tiers"] = Json("mlp=critical,resnet18=batch");
  cluster["qps"] = Json(elastic_plan_options.qps);
  cluster["p99_slo_ms"] = Json(slo_ms);
  cluster["replicas"] = Json(cluster_plan.TotalReplicas());
  cluster["critical_p99_ms"] = Json(cluster_critical_p99_ms);
  cluster["remote_batches"] = Json(remote_batches);
  cluster["bytes_moved"] = Json(bytes_moved);
  cluster["network_s"] = Json(network_s);
  cluster["completed"] = Json(clustered.summary.completed);
  cluster["generated"] = Json(clustered.generated_requests);
  cluster["bit_identical"] = Json(cluster_bit_identical);
  cluster["per_tier"] = TierLedger(clustered);
  cluster["invariant_violations"] =
      Json(static_cast<std::int64_t>(cluster_invariants.size()));
  cluster["wall_ms"] = Json(cluster_ms);

  JsonObject tolerance;
  tolerance["low"] = Json(kToleranceLow);
  tolerance["high"] = Json(kToleranceHigh);
  tolerance["violations"] = Json(violations);

  JsonObject setup;
  setup["mix"] = Json("mlp=0.6,resnet18=0.3,nvsa=0.1");
  setup["qps"] = Json(200.0);
  setup["p99_slo_ms"] = Json(50.0);
  setup["budget"] = Json("16 x u250");
  setup["virtual_duration_s"] = Json(duration_s);

  JsonObject root;
  root["setup"] = Json(std::move(setup));
  root["scenarios"] = Json(std::move(scenario_rows));
  root["autoscale"] = Json(std::move(autoscale));
  root["adversity"] = Json(std::move(adversity));
  root["admission"] = Json(std::move(admission));
  root["cluster"] = Json(std::move(cluster));
  root["tolerance"] = Json(std::move(tolerance));

  std::ofstream out(out_path, std::ios::binary);
  out << Json(std::move(root)).Dump(2) << "\n";
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (violations != 0) {
    std::fprintf(stderr, "%d tolerance violation(s)\n", violations);
    return 1;
  }
  return 0;
}
