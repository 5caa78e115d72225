#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace serve = nsflow::serve;
using Clock = std::chrono::steady_clock;

namespace {

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// The elastic-cluster planning and autoscale bound: the planner's
// per-workload replica ceiling and the autoscaler's replan ceiling are one
// knob (`nsflow plan/serve --max-replicas` sets both). 128 covers the
// resnet18 group's diurnal crest at 8000 rps.
constexpr int kElasticMaxReplicas = 128;

serve::ScenarioSpec ElasticScenario(const WorkloadSpec& spec) {
  // The period is spelled out (it defaults to the run length) so a shorter
  // horizon replays a prefix of the same traffic shape.
  return serve::ScenarioSpec::Parse("diurnal:depth=0.8,period=" +
                                    Num(spec.duration_s));
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"wide-pool", "traced-narrow", "elastic-cluster"};
}

WorkloadSpec FindWorkload(const std::string& name, double scale) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "wide-pool") {
    // ~252k requests over 512 + 512 replicas; ~72% utilization on the
    // resnet18 half.
    spec.qps = 90000.0;
    spec.duration_s = 2.8;
    spec.pool_replicas = 1024;
    spec.obs_duration_s = 2.8;
  } else if (name == "traced-narrow") {
    // ~63k requests over 8 + 8 replicas at the same utilization; the
    // Chrome export is ~19 MB.
    spec.qps = 1400.0;
    spec.duration_s = 45.0;
    spec.pool_replicas = 16;
    spec.traced = true;
    spec.obs_duration_s = 45.0;
  } else if (name == "elastic-cluster") {
    // ~480k requests through one diurnal cycle; the batch tier's p99 is
    // set by the outage and the autoscaler's reaction, so a shorter run
    // leaves it too few tail samples to repeat across seeds.
    spec.qps = 8000.0;
    spec.duration_s = 60.0;
    spec.elastic = true;
    spec.obs_duration_s = 12.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.duration_s *= scale;
  spec.obs_duration_s *= scale;
  return spec;
}

serve::PlanOptions PlanProblem(const WorkloadSpec& spec) {
  serve::PlanOptions plan;
  plan.qps = spec.qps;
  plan.device = "u250";
  if (spec.elastic) {
    plan.p99_slo_s = 50e-3;
    plan.devices = 512;
    plan.nodes = 2;
    plan.max_replicas_per_workload = kElasticMaxReplicas;
    plan.scenario = ElasticScenario(spec);
  } else {
    // The hand-sized pools serve resnet18 batches of 8 at ~66 ms, so the
    // comparable plan targets 100 ms on the same board count.
    plan.p99_slo_s = 100e-3;
    plan.devices = spec.pool_replicas;
    plan.max_replicas_per_workload = spec.pool_replicas / 2;
  }
  return plan;
}

Setup BuildSetup(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup setup;
  const Clock::time_point compile_start = Clock::now();
  setup.registry = std::make_unique<serve::WorkloadRegistry>();
  const serve::WorkloadId mlp = setup.registry->RegisterBuiltin("mlp");
  const serve::WorkloadId resnet18 =
      setup.registry->RegisterBuiltin("resnet18");
  setup.compile_s = Since(compile_start);
  setup.mix = {{"mlp", 0.5}, {"resnet18", 0.5}};

  serve::ServeOptions& options = setup.options;
  options.qps = spec.qps;
  options.duration_s = spec.duration_s;
  options.seed = seed;
  // 0 would mean "every core"; the benchmark is a single-process batch
  // job, so the pool's warm-up runs on one thread.
  options.worker_threads = 1;

  if (!spec.elastic) {
    setup.replicas = setup.registry->ReplicaSpecs(spec.pool_replicas,
                                                  /*partitioned=*/true);
    if (spec.traced) {
      options.trace.enabled = true;
      options.trace.detail = nsflow::obs::TraceDetail::kSpans;
    }
    return setup;
  }

  const serve::PlanOptions plan_options = PlanProblem(spec);
  const Clock::time_point plan_start = Clock::now();
  serve::PoolPlan plan =
      serve::PlanCapacity(*setup.registry, setup.mix, plan_options);
  setup.replicas = plan.Replicas();
  setup.plan_s = Since(plan_start);
  if (!plan.feasible) {
    throw std::runtime_error("elastic-cluster plan infeasible: " + plan.note);
  }

  options.scenario = plan_options.scenario;
  options.max_batch = plan.max_batch;
  options.max_wait_s = plan.max_wait_s;
  options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  options.cluster = serve::ClusterSpec::Parse("least-loaded:nodes=2");
  options.cluster_nodes = plan.Placement();

  // Autoscale with the bench_plan_scenarios control knobs; the replan
  // target comes from the plan, as `nsflow serve --plan --autoscale` does.
  options.autoscale = true;
  serve::AutoscaleOptions& autoscale = options.autoscale_opts;
  autoscale.p99_slo_s = plan.p99_slo_s;
  autoscale.device = plan.device_name;
  autoscale.devices = plan.devices;
  autoscale.dse.clock_hz = plan.dse_clock_hz;
  autoscale.dse.enable_phase2 = plan.dse_enable_phase2;
  autoscale.dse.max_pes = plan.dse_max_pes;
  autoscale.dictionary_bytes = plan.dictionary_bytes;
  autoscale.max_replicas = kElasticMaxReplicas;
  autoscale.headroom = 0.10;
  autoscale.up_band = 1.05;
  autoscale.down_band = 0.85;
  autoscale.cooldown_s = 0.5;

  // Node 1 goes dark for the second quarter of the run.
  options.adversity = serve::AdversitySpec::Parse(
      "replica-fail:at=" + Num(spec.duration_s * 0.25) +
      ",down=" + Num(spec.duration_s * 0.25) + ",node=1");
  options.admission =
      serve::AdmissionSpec::Parse("guard:rate=" + Num(3.0 * spec.qps));
  options.tiers.assign(2, serve::SlaTier::kStandard);
  options.tiers[static_cast<std::size_t>(mlp)] = serve::SlaTier::kCritical;
  options.tiers[static_cast<std::size_t>(resnet18)] = serve::SlaTier::kBatch;
  setup.plan = std::move(plan);
  return setup;
}

std::vector<double> MixShares(const Setup& setup) {
  std::vector<double> shares(
      static_cast<std::size_t>(setup.registry->size()), 0.0);
  for (const serve::WorkloadShare& entry : setup.mix) {
    shares[static_cast<std::size_t>(setup.registry->IdOf(entry.workload))] =
        entry.share;
  }
  return shares;
}

}  // namespace perfbench
