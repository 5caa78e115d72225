// Tests for the SLO-driven capacity planner (serve/capacity_planner.h):
// budget respect, SLO feasibility logic, PoolPlan JSON round-trips through
// the deterministic DSE rebuild, and — the acceptance gate — measured p99 on
// a planned pool within the tolerance documented in docs/PLANNING.md of the
// plan's prediction, across scenario x mix combinations — plus bit-exact
// equivalence of the O(K) capacity search with the O(K^2) one it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "fpga/resource_model.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/scenario.h"

namespace nsflow::serve {
namespace {

/// docs/PLANNING.md "Prediction tolerance": on a feasible plan driven at
/// its planning assumptions, measured per-workload p99 must sit within
/// [0.25x, 1.25x] of the predicted p99.
constexpr double kToleranceHigh = 1.25;
constexpr double kToleranceLow = 0.25;

/// A registry holding exactly the mix's workloads (ServerPool requires
/// every registered workload to be servable, and planned pools are
/// partitioned per mix entry). Registries are memoized by mix names —
/// workload compiles dominate the suite's wall clock.
WorkloadRegistry& RegistryFor(const std::vector<WorkloadShare>& mix) {
  static std::map<std::string, std::unique_ptr<WorkloadRegistry>> cache;
  std::string key;
  for (const WorkloadShare& entry : mix) {
    key += entry.workload + ",";
  }
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_unique<WorkloadRegistry>();
    for (const WorkloadShare& entry : mix) {
      slot->RegisterBuiltin(entry.workload);
    }
  }
  return *slot;
}

PlanOptions BaseOptions() {
  PlanOptions options;
  options.qps = 200.0;
  options.p99_slo_s = 50e-3;
  options.device = "u250";
  options.devices = 8;
  return options;
}

TEST(PlannerTest, PlanRespectsResourceBudget) {
  const std::vector<WorkloadShare> mix = {
      {"mlp", 0.6}, {"resnet18", 0.3}, {"nvsa", 0.1}};
  const PoolPlan plan = PlanCapacity(RegistryFor(mix), mix, BaseOptions());
  ASSERT_TRUE(plan.feasible) << plan.note;

  // Re-derive the totals independently and check them against the
  // aggregate inventory; every replica must also fit a single board.
  const FpgaDevice device = DeviceByName(plan.device_name);
  double dsp = 0.0;
  double lut = 0.0;
  double bram = 0.0;
  double uram = 0.0;
  for (const GroupPlan& group : plan.groups) {
    ASSERT_GE(group.replicas, 1);
    const ResourceReport report = EstimateResources(group.design, device);
    EXPECT_TRUE(report.fits) << group.workload;
    dsp += group.replicas * report.dsp;
    lut += group.replicas * report.lut;
    bram += group.replicas * report.bram18;
    uram += group.replicas * report.uram;
  }
  const double budget = plan.devices;
  EXPECT_LE(dsp, budget * static_cast<double>(device.dsp));
  EXPECT_LE(lut, budget * static_cast<double>(device.lut));
  EXPECT_LE(bram, budget * static_cast<double>(device.bram18));
  EXPECT_LE(uram, budget * static_cast<double>(device.uram));
  EXPECT_TRUE(plan.resources.fits);
  EXPECT_NEAR(plan.resources.dsp, dsp, 1e-6);
}

TEST(PlannerTest, PlanMeetsSloOrReportsInfeasible) {
  const std::vector<WorkloadShare> mix = {{"mlp", 0.7}, {"nvsa", 0.3}};
  const PoolPlan plan = PlanCapacity(RegistryFor(mix), mix, BaseOptions());
  ASSERT_TRUE(plan.feasible) << plan.note;
  for (const GroupPlan& group : plan.groups) {
    EXPECT_LE(group.predicted_p99_s, plan.p99_slo_s) << group.workload;
    EXPECT_LE(group.utilization, 0.85) << group.workload;
    EXPECT_GT(group.replicas, 0) << group.workload;
  }

  // An SLO below the forming deadline + service floor is unreachable: the
  // planner must say so rather than emit a plan that cannot hold it.
  PlanOptions impossible = BaseOptions();
  impossible.p99_slo_s = 1e-6;
  const PoolPlan bad = PlanCapacity(RegistryFor(mix), mix, impossible);
  EXPECT_FALSE(bad.feasible);
  EXPECT_FALSE(bad.note.empty());
}

TEST(PlannerTest, TighterSloNeverShrinksThePool) {
  const std::vector<WorkloadShare> mix = {{"nvsa", 1.0}};
  PlanOptions relaxed = BaseOptions();
  relaxed.qps = 100.0;
  relaxed.p99_slo_s = 120e-3;
  PlanOptions tight = relaxed;
  tight.p99_slo_s = 46e-3;
  const PoolPlan a = PlanCapacity(RegistryFor(mix), mix, relaxed);
  const PoolPlan b = PlanCapacity(RegistryFor(mix), mix, tight);
  ASSERT_TRUE(a.feasible) << a.note;
  ASSERT_TRUE(b.feasible) << b.note;
  // Tighter SLO costs at least as much area (the planner minimizes area).
  EXPECT_GE(b.resources.dsp + b.resources.lut,
            a.resources.dsp + a.resources.lut);
}

TEST(PlannerTest, PeakRatePlanningScalesWithScenario) {
  const std::vector<WorkloadShare> mix = {{"resnet18", 1.0}};
  PlanOptions stationary = BaseOptions();
  stationary.qps = 60.0;
  PlanOptions spiky = stationary;
  spiky.scenario = ScenarioSpec::Parse("spike:mult=6");
  const PoolPlan a = PlanCapacity(RegistryFor(mix), mix, stationary);
  const PoolPlan b = PlanCapacity(RegistryFor(mix), mix, spiky);
  ASSERT_TRUE(a.feasible) << a.note;
  ASSERT_TRUE(b.feasible) << b.note;
  EXPECT_NEAR(b.planning_rate, 6.0 * a.planning_rate, 1e-9);
  // Provisioning for the 6x crest needs strictly more service capacity:
  // replicas x (planned_batch / batch_service) per group.
  const auto capacity = [](const PoolPlan& plan) {
    double total = 0.0;
    for (const GroupPlan& group : plan.groups) {
      total += group.replicas * group.planned_batch / group.batch_service_s;
    }
    return total;
  };
  EXPECT_GT(capacity(b), capacity(a));
}

TEST(PlannerTest, PoolPlanJsonRoundTripsAndRebuildsDesignsBitExact) {
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"nvsa", 0.5}};
  const PoolPlan plan = PlanCapacity(RegistryFor(mix), mix, BaseOptions());
  ASSERT_TRUE(plan.feasible) << plan.note;

  const std::string json_text = plan.ToJson().Dump(2);
  WorkloadRegistry fresh;
  const PoolPlan loaded = LoadPlan(Json::Parse(json_text), fresh);

  EXPECT_EQ(loaded.feasible, plan.feasible);
  EXPECT_EQ(loaded.device_name, plan.device_name);
  EXPECT_EQ(loaded.max_batch, plan.max_batch);
  // Predictions travel as milliseconds in the JSON; the unit conversion
  // costs at most an ULP or two.
  EXPECT_DOUBLE_EQ(loaded.predicted_p99_s, plan.predicted_p99_s);
  ASSERT_EQ(loaded.groups.size(), plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const GroupPlan& a = plan.groups[g];
    const GroupPlan& b = loaded.groups[g];
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.replicas, b.replicas);
    EXPECT_EQ(a.pe_budget, b.pe_budget);
    // The rebuilt design must be the planner's design, bit for bit: the
    // deterministic DSE at the recorded budget is the serialization.
    EXPECT_TRUE(SameServingDesign(a.design, b.design)) << a.workload;
    EXPECT_EQ(a.design.nl, b.design.nl) << a.workload;
    EXPECT_EQ(a.design.nv, b.design.nv) << a.workload;
    EXPECT_DOUBLE_EQ(a.predicted_p99_s, b.predicted_p99_s);
  }

  // And the loaded plan instantiates: same replica layout.
  const auto specs_a = plan.Replicas();
  const auto specs_b = loaded.Replicas();
  ASSERT_EQ(specs_a.size(), specs_b.size());
  for (std::size_t r = 0; r < specs_a.size(); ++r) {
    EXPECT_TRUE(SameServingDesign(specs_a[r].design, specs_b[r].design));
    EXPECT_EQ(specs_a[r].workloads, specs_b[r].workloads);
  }
}

TEST(PlannerTest, RoundTripPreservesNonDefaultDseOptions) {
  // A plan made with Phase II disabled must rebuild with it disabled —
  // otherwise the rebuilt pool is not the pool the predictions were
  // computed for.
  const std::vector<WorkloadShare> mix = {{"nvsa", 1.0}};
  PlanOptions options = BaseOptions();
  options.qps = 50.0;
  options.p99_slo_s = 200e-3;
  options.dse.enable_phase2 = false;
  const PoolPlan plan = PlanCapacity(RegistryFor(mix), mix, options);
  ASSERT_TRUE(plan.feasible) << plan.note;

  WorkloadRegistry fresh;
  const PoolPlan loaded = LoadPlan(Json::Parse(plan.ToJson().Dump(2)), fresh);
  EXPECT_FALSE(loaded.dse_enable_phase2);
  ASSERT_EQ(loaded.groups.size(), plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    EXPECT_TRUE(
        SameServingDesign(plan.groups[g].design, loaded.groups[g].design));
    EXPECT_EQ(plan.groups[g].design.nl, loaded.groups[g].design.nl);
    EXPECT_EQ(plan.groups[g].design.nv, loaded.groups[g].design.nv);
  }
}

TEST(PlannerTest, PlannerRejectsBadInputs) {
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  PlanOptions options = BaseOptions();
  options.p99_slo_s = 0.0;
  EXPECT_THROW(PlanCapacity(RegistryFor(mix), mix, options), Error);
  options = BaseOptions();
  options.scenario = ScenarioSpec::Parse("closed");
  EXPECT_THROW(PlanCapacity(RegistryFor(mix), mix, options), Error);
  options = BaseOptions();
  EXPECT_THROW(PlanCapacity(RegistryFor(mix), {}, options), Error);
  EXPECT_THROW(DeviceByName("u9999"), Error);
}

// ------------------------------------ O(K) search vs the O(K^2) reference

/// The queueing bound as the planner evaluated it before the search carried
/// Erlang B across k: Erlang C rerun from n = 1 at every k, and every
/// k-independent term recomputed per k.
double ReferenceErlangC(int k, double a) {
  double b = 1.0;
  for (int n = 1; n <= k; ++n) {
    b = a * b / (static_cast<double>(n) + a * b);
  }
  const double rho = a / static_cast<double>(k);
  return b / (1.0 - rho * (1.0 - b));
}

int ReferencePoissonQuantile(double mean, double q) {
  double pmf = std::exp(-mean);
  double cdf = pmf;
  int n = 0;
  while (cdf < q && n < 4096) {
    ++n;
    pmf *= mean / static_cast<double>(n);
    cdf += pmf;
  }
  return n;
}

struct ReferenceEval {
  bool stable = false;
  int planned_batch = 1;
  double batch_service_s = 0.0;
  double utilization = 0.0;
  double wait_p99_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
};

ReferenceEval ReferenceEvaluateQueue(double lambda_rps, int k,
                                     const arch::ServingModel& model,
                                     std::int64_t cap, double max_wait_s,
                                     double max_utilization) {
  ReferenceEval eval;
  const auto batch = static_cast<std::int64_t>(
      std::clamp(std::ceil(lambda_rps * max_wait_s), 1.0,
                 static_cast<double>(cap)));
  eval.planned_batch = static_cast<int>(batch);
  eval.batch_service_s = model.BatchSeconds(eval.planned_batch);
  const double job_rate = lambda_rps / static_cast<double>(batch);
  const double a = job_rate * eval.batch_service_s;
  eval.utilization = a / static_cast<double>(k);
  eval.stable = eval.utilization <= max_utilization;
  double forming_s = 0.0;
  if (cap != 1) {
    forming_s = batch >= cap ? std::min(max_wait_s,
                                        static_cast<double>(cap) / lambda_rps)
                             : max_wait_s;
  }
  double wait_p50_s = std::numeric_limits<double>::infinity();
  eval.wait_p99_s = std::numeric_limits<double>::infinity();
  if (eval.utilization < 1.0) {
    const double p_wait = ReferenceErlangC(k, a);
    const double theta = (static_cast<double>(k) - a) / eval.batch_service_s;
    eval.wait_p99_s = p_wait > 0.01 ? std::log(p_wait / 0.01) / theta +
                                          eval.batch_service_s
                                    : 0.0;
    wait_p50_s = p_wait > 0.5
                     ? std::log(p_wait / 0.5) / theta + eval.batch_service_s
                     : 0.0;
  }
  const auto tail_batch = [&](double q, double span_s) {
    if (cap == 1) {
      return 1;
    }
    return static_cast<int>(std::min(
        cap, 1 + static_cast<std::int64_t>(
                     ReferencePoissonQuantile(lambda_rps * span_s, q))));
  };
  const double residence_p99_s = model.BatchSeconds(
      tail_batch(0.99, max_wait_s + eval.batch_service_s));
  const double residence_p50_s =
      model.BatchSeconds(tail_batch(0.5, max_wait_s));
  eval.p50_s = forming_s + wait_p50_s + residence_p50_s;
  eval.p99_s = forming_s + eval.wait_p99_s + residence_p99_s;
  return eval;
}

/// Which branch of the planner's per-workload outcome a group took.
enum class Branch { kFeasible, kFallback, kOverCap };

/// The planner's (design x cap x k) search for one workload over the
/// reference evaluation: the cheapest SLO-meeting configuration, else the
/// lowest-p99 stable one at max replicas, else an unplaceable group.
GroupPlan ReferenceSearch(const PlanFrontier::WorkloadEntry& swept,
                          double lambda, const PlanOptions& options,
                          Branch* branch) {
  GroupPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  GroupPlan fallback;
  bool have_fallback = false;
  for (std::size_t p = 0; p < swept.points.size(); ++p) {
    const ResourceReport& report = swept.resources[p];
    if (!report.fits) {
      continue;
    }
    const double bottleneck =
        std::max({report.dsp_util, report.lut_util, report.ff_util,
                  report.bram_util, report.uram_util});
    const arch::ServingModel& model = swept.models[p];
    const auto fill = [&](GroupPlan& group, std::int64_t cap, int k,
                          const ReferenceEval& eval) {
      group.pe_budget = swept.points[p].pe_budget;
      group.pes = swept.points[p].pes;
      group.replicas = k;
      group.batch_cap = cap;
      group.planned_batch = eval.planned_batch;
      group.service_s = model.BatchSeconds(1);
      group.batch_service_s = eval.batch_service_s;
      group.utilization = eval.utilization;
      group.wait_p99_s = eval.wait_p99_s;
      group.predicted_p50_s = eval.p50_s;
      group.predicted_p99_s = eval.p99_s;
    };
    std::vector<std::int64_t> caps;
    for (std::int64_t c = 1; c < options.max_batch; c *= 2) {
      caps.push_back(c);
    }
    caps.push_back(options.max_batch);
    for (const std::int64_t cap : caps) {
      for (int k = 1; k <= options.max_replicas_per_workload; ++k) {
        const ReferenceEval eval =
            ReferenceEvaluateQueue(lambda, k, model, cap, options.max_wait_s,
                                   options.max_utilization);
        if (k == options.max_replicas_per_workload && eval.stable &&
            (!have_fallback || eval.p99_s < fallback.predicted_p99_s)) {
          fill(fallback, cap, k, eval);
          have_fallback = true;
        }
        if (eval.stable && eval.p99_s <= options.p99_slo_s) {
          const double cost = bottleneck * static_cast<double>(k);
          if (cost < best_cost ||
              (cost == best_cost && eval.p99_s < best.predicted_p99_s)) {
            best_cost = cost;
            fill(best, cap, k, eval);
          }
          break;
        }
      }
    }
  }
  if (std::isfinite(best_cost)) {
    *branch = Branch::kFeasible;
    return best;
  }
  *branch = have_fallback ? Branch::kFallback : Branch::kOverCap;
  return have_fallback ? fallback : GroupPlan{};
}

/// Plan `mix` against `frontier` over a grid of rates, batch caps, replica
/// bounds and SLOs, asserting every group field-by-field equal to the
/// reference search, and counting in `branches` the groups per branch.
void ExpectSearchMatchesReference(const std::vector<WorkloadShare>& mix,
                                  const PlanFrontier& frontier,
                                  std::map<Branch, int>& branches) {
  for (const double qps : {20.0, 400.0, 6000.0}) {
    for (std::int64_t max_batch = 1; max_batch <= 8; ++max_batch) {
      for (const int max_replicas : {1, 8, 128}) {
        for (const double slo_s : {1e-6, 8e-3, 50e-3, 1.0}) {
          PlanOptions options = BaseOptions();
          options.qps = qps;
          options.max_batch = max_batch;
          options.max_replicas_per_workload = max_replicas;
          options.p99_slo_s = slo_s;
          const PoolPlan plan =
              PlanCapacity(RegistryFor(mix), mix, options, frontier);
          ASSERT_EQ(plan.groups.size(), mix.size());
          double total_share = 0.0;
          for (const WorkloadShare& entry : mix) {
            total_share += entry.share;
          }
          for (std::size_t g = 0; g < mix.size(); ++g) {
            const std::string where =
                mix[g].workload + " qps " + std::to_string(qps) +
                " max_batch " + std::to_string(max_batch) + " K " +
                std::to_string(max_replicas) + " slo " +
                std::to_string(slo_s);
            const double lambda =
                plan.planning_rate * mix[g].share / total_share;
            Branch branch = Branch::kFeasible;
            const GroupPlan want = ReferenceSearch(
                frontier.Entry(mix[g].workload), lambda, options, &branch);
            ++branches[branch];
            const GroupPlan& got = plan.groups[g];
            EXPECT_EQ(got.lambda_rps, lambda) << where;
            EXPECT_EQ(got.replicas, want.replicas) << where;
            EXPECT_EQ(got.pe_budget, want.pe_budget) << where;
            EXPECT_EQ(got.pes, want.pes) << where;
            EXPECT_EQ(got.batch_cap, want.batch_cap) << where;
            EXPECT_EQ(got.planned_batch, want.planned_batch) << where;
            EXPECT_EQ(got.service_s, want.service_s) << where;
            EXPECT_EQ(got.batch_service_s, want.batch_service_s) << where;
            EXPECT_EQ(got.utilization, want.utilization) << where;
            EXPECT_EQ(got.wait_p99_s, want.wait_p99_s) << where;
            EXPECT_EQ(got.predicted_p50_s, want.predicted_p50_s) << where;
            EXPECT_EQ(got.predicted_p99_s, want.predicted_p99_s) << where;
            if (branch != Branch::kFeasible) {
              EXPECT_FALSE(plan.feasible) << where;
            }
            if (::testing::Test::HasFailure()) {
              return;  // One divergence is enough.
            }
          }
        }
      }
    }
  }
}

TEST(PlannerTest, CarriedErlangSearchMatchesPerKReferenceBitForBit) {
  const std::vector<WorkloadShare> mix = {{"mlp", 0.6}, {"resnet18", 0.4}};
  const PlanFrontier frontier =
      BuildPlanFrontier(RegistryFor(mix), mix, BaseOptions());
  std::map<Branch, int> branches;
  ExpectSearchMatchesReference(mix, frontier, branches);
  // The grid reaches all three outcomes, so each is compared at least once.
  EXPECT_GT(branches.count(Branch::kFeasible), 0u);
  EXPECT_GT(branches.count(Branch::kFallback), 0u);
  EXPECT_GT(branches.count(Branch::kOverCap), 0u);
}

TEST(PlannerTest, CarriedErlangSearchMatchesReferenceOnOnePointFrontier) {
  // The autoscaler's replan shape: one workload, its frontier cut down to
  // the group's current point.
  const std::vector<WorkloadShare> mix = {{"resnet18", 1.0}};
  const PlanFrontier full =
      BuildPlanFrontier(RegistryFor(mix), mix, BaseOptions());
  const PlanFrontier::WorkloadEntry& entry = full.Entry("resnet18");
  ASSERT_FALSE(entry.points.empty());
  PlanFrontier one;
  one.device = full.device;
  PlanFrontier::WorkloadEntry point;
  point.workload = entry.workload;
  point.workload_id = entry.workload_id;
  point.points = {entry.points.back()};
  point.models = {entry.models.back()};
  point.resources = {entry.resources.back()};
  one.workloads.push_back(std::move(point));
  std::map<Branch, int> branches;
  ExpectSearchMatchesReference(mix, one, branches);
  EXPECT_GT(branches.count(Branch::kFeasible), 0u);
  EXPECT_GT(branches.count(Branch::kFallback), 0u);
  EXPECT_GT(branches.count(Branch::kOverCap), 0u);
}

// ----------------------------------------------- predicted vs measured p99

/// The acceptance gate (ISSUE 4): run the planned pool under the planning
/// assumptions and require measured per-workload p99 within the documented
/// tolerance of the prediction. Exercised on 3+ scenario x mix combos.
void ExpectMeasuredWithinTolerance(const std::vector<WorkloadShare>& mix,
                                   const std::string& scenario,
                                   double qps) {
  PlanOptions options = BaseOptions();
  options.qps = qps;
  options.scenario = ScenarioSpec::Parse(scenario);
  const PoolPlan plan = PlanCapacity(RegistryFor(mix), mix, options);
  ASSERT_TRUE(plan.feasible) << scenario << ": " << plan.note;

  ServeOptions serve;
  serve.qps = qps;
  // Virtual seconds are cheap (the engine's wall clock scales with request
  // count, not horizon); a long horizon keeps every per-workload nearest-
  // rank p99 a real quantile instead of a small-sample max.
  serve.duration_s = 10.0;
  serve.seed = 42;
  serve.max_batch = plan.max_batch;
  serve.max_wait_s = plan.max_wait_s;
  serve.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  serve.scenario = options.scenario;
  const ServeReport report =
      RunSyntheticServe(RegistryFor(mix), plan.Replicas(), mix, serve);

  for (const GroupPlan& group : plan.groups) {
    const auto w = static_cast<std::size_t>(group.workload_id);
    ASSERT_LT(w, report.summary.per_workload.size());
    const WorkloadSummary& measured = report.summary.per_workload[w];
    ASSERT_GT(measured.completed, 0)
        << scenario << "/" << group.workload << ": no traffic reached it";
    const double predicted_ms = group.predicted_p99_s * 1e3;
    EXPECT_LE(measured.p99_ms, predicted_ms * kToleranceHigh)
        << scenario << "/" << group.workload;
    EXPECT_GE(measured.p99_ms, predicted_ms * kToleranceLow)
        << scenario << "/" << group.workload;
  }
}

TEST(PlannerTest, MeasuredP99WithinToleranceStationaryMixedPool) {
  ExpectMeasuredWithinTolerance(
      {{"mlp", 0.6}, {"resnet18", 0.3}, {"nvsa", 0.1}}, "poisson", 200.0);
}

TEST(PlannerTest, MeasuredP99WithinToleranceDiurnalTwoTenants) {
  ExpectMeasuredWithinTolerance({{"mlp", 0.5}, {"resnet18", 0.5}},
                                "diurnal:depth=0.8", 150.0);
}

TEST(PlannerTest, MeasuredP99WithinToleranceBurstySingleTenant) {
  ExpectMeasuredWithinTolerance({{"resnet18", 1.0}},
                                "bursty:on=0.05,off=0.15,idle=0.1", 120.0);
}

TEST(PlannerTest, MeasuredP99WithinToleranceRampedMlp) {
  ExpectMeasuredWithinTolerance({{"mlp", 1.0}}, "ramp:from=0.2,to=1.8",
                                400.0);
}

}  // namespace
}  // namespace nsflow::serve
