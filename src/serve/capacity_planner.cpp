#include "serve/capacity_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "arch/fastpath.h"
#include "common/error.h"
#include "common/table.h"
#include "fpga/resource_model.h"

namespace nsflow::serve {
namespace {

/// Smallest n with P(Poisson(mean) <= n) >= q.
int PoissonQuantile(double mean, double q) {
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

/// The replica-count-independent half of the queueing bound for one
/// replica group under batch cap `c` (see the header comment for the model
/// and docs/PLANNING.md for its assumptions): computed once per (design,
/// cap), then shared by every k the search tries.
struct GroupShape {
  int planned_batch = 1;         // b*.
  double batch_service_s = 0.0;  // S(b*).
  double erlangs = 0.0;          // Offered load a = (lambda / b*) S(b*).
  double forming_s = 0.0;        // Forming-delay bound on both quantiles.
  double residence_p50_s = 0.0;  // Batch-tail residence per quantile.
  double residence_p99_s = 0.0;
};

GroupShape ShapeGroup(double lambda_rps, const arch::ServingModel& model,
                      std::int64_t cap, double max_wait_s) {
  GroupShape shape;
  // The former coalesces roughly one deadline window of arrivals per
  // launch, bounded by the lane's size cap.
  const auto batch = static_cast<std::int64_t>(
      std::clamp(std::ceil(lambda_rps * max_wait_s), 1.0,
                 static_cast<double>(cap)));
  shape.planned_batch = static_cast<int>(batch);
  shape.batch_service_s = model.BatchSeconds(shape.planned_batch);

  // Jobs are whole batches: rate lambda/b*, deterministic service S(b*).
  const double job_rate = lambda_rps / static_cast<double>(batch);
  shape.erlangs = job_rate * shape.batch_service_s;

  // Forming delay: a cap-1 lane closes every batch at its own arrival and
  // pays nothing. In the deadline-close regime a thin batch's requests
  // wait out the full max_wait deadline; once size closes dominate (b* at
  // the cap), a batch fills in cap/lambda.
  if (cap == 1) {
    shape.forming_s = 0.0;
  } else {
    shape.forming_s =
        batch >= cap
            ? std::min(max_wait_s, static_cast<double>(cap) / lambda_rps)
            : max_wait_s;
  }

  // Batch-tail residence: the quantile request rides the batch its
  // co-arrival cluster formed. Residence on these designs is nearly linear
  // in batch size, and the busy-horizon deadline stretch lets a cluster
  // spanning a forming window plus one service keep feeding the same lane,
  // so the q-quantile batch is 1 + Q_q(Poisson co-arrivals in that span),
  // clamped to the cap. A cap-1 lane never batches.
  const auto tail_batch = [&](double q, double span_s) {
    if (cap == 1) {
      return 1;
    }
    return static_cast<int>(
        std::min(cap, 1 + static_cast<std::int64_t>(PoissonQuantile(
                          lambda_rps * span_s, q))));
  };
  shape.residence_p99_s = model.BatchSeconds(
      tail_batch(0.99, max_wait_s + shape.batch_service_s));
  shape.residence_p50_s = model.BatchSeconds(tail_batch(0.5, max_wait_s));
  return shape;
}

/// The queueing bound for a group of `shape` at k replicas.
struct QueueEval {
  bool stable = false;      // rho under the utilization cap.
  double utilization = 0.0;
  double wait_p50_s = 0.0;
  double wait_p99_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
};

/// `erlang_b` is the Erlang B blocking probability B(k) at the shape's
/// offered load, which the caller carries across k through the numerically
/// stable recursion B(n) = a·B(n−1) / (n + a·B(n−1)), B(0) = 1: one step
/// per k, so a search over k = 1…K costs O(K).
QueueEval EvaluateQueue(const GroupShape& shape, int k, double erlang_b,
                        double max_utilization) {
  QueueEval eval;
  const double a = shape.erlangs;
  eval.utilization = a / static_cast<double>(k);
  eval.stable = eval.utilization <= max_utilization;

  if (eval.utilization < 1.0) {
    // Erlang C, the probability an arriving job waits in an M/M/k queue,
    // from Erlang B at the same k.
    const double p_wait =
        erlang_b / (1.0 - eval.utilization * (1.0 - erlang_b));
    // M/M/k wait tail P(W > t) = C · e^{−θt}, θ = (k − a)/S. Service is
    // deterministic and batch-quantized here, so whenever tail waits occur
    // at all (P_wait above the quantile), the quantile request additionally
    // sits behind one full batch in service — waits come in service-sized
    // quanta. The exponential term covers the queue ahead of that batch.
    const double theta = (static_cast<double>(k) - a) / shape.batch_service_s;
    eval.wait_p99_s =
        p_wait > 0.01
            ? std::log(p_wait / 0.01) / theta + shape.batch_service_s
            : 0.0;
    eval.wait_p50_s =
        p_wait > 0.5 ? std::log(p_wait / 0.5) / theta + shape.batch_service_s
                     : 0.0;
  } else {
    // Unstable queue: report divergence, not numbers.
    eval.wait_p99_s = std::numeric_limits<double>::infinity();
    eval.wait_p50_s = std::numeric_limits<double>::infinity();
  }

  eval.p50_s = shape.forming_s + eval.wait_p50_s + shape.residence_p50_s;
  eval.p99_s = shape.forming_s + eval.wait_p99_s + shape.residence_p99_s;
  return eval;
}

/// Mix-weighted aggregate latency quantile: the smallest per-group
/// q-quantile t such that groups covering a q-share of the traffic predict
/// their own q-quantile <= t. A conservative composition — the true mixed
/// quantile is never above it when every group meets its own prediction —
/// that avoids widening GroupPlan with tail parameters for a display-only
/// aggregate.
double AggregateQuantile(const std::vector<GroupPlan>& groups,
                         const std::vector<double>& shares, double q) {
  std::vector<std::pair<double, double>> by_quantile;  // (quantile, share).
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // An unplaceable group (no replicas) has no latency at all — infinite,
    // not zero, or an infeasible plan's aggregate would read as passing.
    const double quantile =
        groups[i].replicas == 0
            ? std::numeric_limits<double>::infinity()
            : (q >= 0.99 ? groups[i].predicted_p99_s
                         : groups[i].predicted_p50_s);
    by_quantile.emplace_back(quantile, shares[i]);
  }
  std::sort(by_quantile.begin(), by_quantile.end());
  double covered = 0.0;
  for (const auto& [quantile, share] : by_quantile) {
    covered += share;
    if (covered >= q) {
      return quantile;
    }
  }
  return by_quantile.empty() ? 0.0 : by_quantile.back().first;
}

double BottleneckShare(const ResourceReport& report) {
  return std::max({report.dsp_util, report.lut_util, report.ff_util,
                   report.bram_util, report.uram_util});
}

}  // namespace

int PoolPlan::TotalReplicas() const {
  int total = 0;
  for (const GroupPlan& group : groups) {
    total += group.replicas;
  }
  return total;
}

std::vector<std::int64_t> PoolPlan::PerWorkloadMaxBatch() const {
  WorkloadId max_id = 0;
  for (const GroupPlan& group : groups) {
    max_id = std::max(max_id, group.workload_id);
  }
  std::vector<std::int64_t> caps(static_cast<std::size_t>(max_id) + 1, 0);
  for (const GroupPlan& group : groups) {
    caps[static_cast<std::size_t>(group.workload_id)] = group.batch_cap;
  }
  return caps;
}

std::vector<int> PoolPlan::Placement() const {
  std::vector<int> nodes_out;
  nodes_out.reserve(static_cast<std::size_t>(TotalReplicas()));
  for (const GroupPlan& group : groups) {
    for (int r = 0; r < group.replicas; ++r) {
      nodes_out.push_back(
          static_cast<std::size_t>(r) < group.placement.size()
              ? group.placement[static_cast<std::size_t>(r)]
              : 0);
    }
  }
  return nodes_out;
}

std::vector<ReplicaSpec> PoolPlan::Replicas() const {
  std::vector<ReplicaSpec> specs;
  specs.reserve(static_cast<std::size_t>(TotalReplicas()));
  for (const GroupPlan& group : groups) {
    for (int r = 0; r < group.replicas; ++r) {
      ReplicaSpec spec;
      spec.design = group.design;
      spec.workloads = {group.workload_id};
      spec.tuned_for = group.workload_id;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

const PlanFrontier::WorkloadEntry& PlanFrontier::Entry(
    const std::string& workload) const {
  for (const WorkloadEntry& entry : workloads) {
    if (entry.workload == workload) {
      return entry;
    }
  }
  throw Error("plan frontier was not built over workload '" + workload +
              "' (rebuild it with the full mix)");
}

PlanFrontier BuildPlanFrontier(const WorkloadRegistry& registry,
                               const std::vector<WorkloadShare>& mix,
                               const PlanOptions& options) {
  NSF_CHECK_MSG(!mix.empty(), "workload mix cannot be empty");
  PlanFrontier frontier;
  frontier.device = DeviceByName(options.device);

  DseOptions base = options.dse;
  base.dictionary_bytes = options.dictionary_bytes;
  for (const WorkloadShare& entry : mix) {
    PlanFrontier::WorkloadEntry workload;
    workload.workload = entry.workload;
    workload.workload_id = registry.IdOf(entry.workload);
    const DataflowGraph& dfg = registry.dataflow(workload.workload_id);
    workload.points = ParetoDesigns(dfg, base, options.frontier_points);
    workload.models.reserve(workload.points.size());
    workload.resources.reserve(workload.points.size());
    for (const ParetoPoint& point : workload.points) {
      workload.models.push_back(
          arch::BuildServingModel(point.design, dfg, /*tuned=*/true));
      workload.resources.push_back(
          EstimateResources(point.design, frontier.device));
    }
    frontier.workloads.push_back(std::move(workload));
  }
  return frontier;
}

PoolPlan PlanCapacity(const WorkloadRegistry& registry,
                      const std::vector<WorkloadShare>& mix,
                      const PlanOptions& options) {
  return PlanCapacity(registry, mix, options,
                      BuildPlanFrontier(registry, mix, options));
}

PoolPlan PlanCapacity(const WorkloadRegistry& registry,
                      const std::vector<WorkloadShare>& mix,
                      const PlanOptions& options,
                      const PlanFrontier& frontier) {
  NSF_CHECK_MSG(!mix.empty(), "workload mix cannot be empty");
  NSF_CHECK_MSG(options.p99_slo_s > 0.0, "p99 SLO must be positive");
  NSF_CHECK_MSG(options.qps > 0.0, "qps must be positive");
  NSF_CHECK_MSG(options.devices >= 1, "need at least one device");
  NSF_CHECK_MSG(options.nodes >= 1, "need at least one node");
  NSF_CHECK_MSG(options.devices % options.nodes == 0,
                "devices must split evenly across nodes (" +
                    std::to_string(options.devices) + " boards over " +
                    std::to_string(options.nodes) + " nodes)");
  NSF_CHECK_MSG(options.max_replicas_per_workload >= 1,
                "need at least one replica per workload");
  NSF_CHECK_MSG(
      options.max_utilization > 0.0 && options.max_utilization < 1.0,
      "utilization cap must be in (0, 1)");
  NSF_CHECK_MSG(options.max_batch >= 1, "max_batch must be positive");
  NSF_CHECK_MSG(options.max_wait_s >= 0.0, "max_wait_s must be non-negative");
  NSF_CHECK_MSG(options.scenario.kind != ScenarioKind::kClosedLoop,
                "closed-loop scenarios size their own load from the client "
                "count — plan with the open-loop pattern the clients "
                "approximate instead");

  const FpgaDevice& device = frontier.device;
  NSF_CHECK_MSG(DeviceByName(options.device).name == device.name,
                "plan frontier was built for a different budget device — "
                "rebuild it for '" + options.device + "'");

  PoolPlan plan;
  plan.mix = mix;
  plan.qps = options.qps;
  plan.planning_rate =
      ScenarioPeakRate(options.scenario, options.qps, /*duration_s=*/1.0);
  plan.p99_slo_s = options.p99_slo_s;
  plan.device_name = options.device;
  plan.devices = options.devices;
  plan.nodes = options.nodes;
  plan.max_batch = options.max_batch;
  plan.max_wait_s = options.max_wait_s;
  plan.scenario = options.scenario;
  plan.dse_clock_hz = options.dse.clock_hz;
  plan.dse_enable_phase2 = options.dse.enable_phase2;
  plan.dse_max_pes = options.dse.max_pes;
  plan.dictionary_bytes = options.dictionary_bytes;
  plan.feasible = true;

  double total_share = 0.0;
  for (const WorkloadShare& entry : mix) {
    NSF_CHECK_MSG(entry.share > 0.0, "mix shares must be positive");
    total_share += entry.share;
  }

  std::vector<double> shares_norm;
  for (const WorkloadShare& entry : mix) {
    shares_norm.push_back(entry.share / total_share);
    const WorkloadId id = registry.IdOf(entry.workload);
    const PlanFrontier::WorkloadEntry& swept = frontier.Entry(entry.workload);
    NSF_CHECK_MSG(swept.workload_id == id,
                  "plan frontier ids disagree with the registry — rebuild "
                  "the frontier against this registry");
    const double lambda = plan.planning_rate * entry.share / total_share;

    GroupPlan best;
    double best_cost = std::numeric_limits<double>::infinity();
    GroupPlan fallback;  // Lowest-p99 configuration at max replicas.
    bool have_fallback = false;
    bool any_design_fits = false;  // Distinguishes "doesn't fit a board"
                                   // from "overloaded at max replicas".

    for (std::size_t p = 0; p < swept.points.size(); ++p) {
      const ParetoPoint& point = swept.points[p];
      const ResourceReport& report = swept.resources[p];
      if (!report.fits) {
        continue;  // A single replica must fit one board.
      }
      any_design_fits = true;
      const double bottleneck = BottleneckShare(report);
      const arch::ServingModel& model = swept.models[p];

      const auto fill = [&](GroupPlan& group, std::int64_t cap, int k,
                            const GroupShape& shape, const QueueEval& eval) {
        group.workload = entry.workload;
        group.workload_id = id;
        group.design = point.design;
        group.pe_budget = point.pe_budget;
        group.pes = point.pes;
        group.replicas = k;
        group.lambda_rps = lambda;
        group.batch_cap = cap;
        group.planned_batch = shape.planned_batch;
        group.service_s = model.BatchSeconds(1);
        group.batch_service_s = shape.batch_service_s;
        group.utilization = eval.utilization;
        group.wait_p99_s = eval.wait_p99_s;
        group.predicted_p50_s = eval.p50_s;
        group.predicted_p99_s = eval.p99_s;
      };

      // Candidate batch caps: powers of two up to the policy bound (the
      // bound itself always included) — batching trades tail latency
      // (residence ~ linear in batch size) for throughput on
      // batch-amortizing workloads; the search makes the trade per
      // workload instead of hard-coding either answer.
      std::vector<std::int64_t> caps;
      for (std::int64_t c = 1; c < options.max_batch; c *= 2) {
        caps.push_back(c);
      }
      caps.push_back(options.max_batch);
      for (const std::int64_t cap : caps) {
        const GroupShape shape =
            ShapeGroup(lambda, model, cap, options.max_wait_s);
        double erlang_b = 1.0;  // B(0); advanced to B(k) at each k.
        for (int k = 1; k <= options.max_replicas_per_workload; ++k) {
          erlang_b = shape.erlangs * erlang_b /
                     (static_cast<double>(k) + shape.erlangs * erlang_b);
          const QueueEval eval =
              EvaluateQueue(shape, k, erlang_b, options.max_utilization);
          if (k == options.max_replicas_per_workload && eval.stable &&
              (!have_fallback || eval.p99_s < fallback.predicted_p99_s)) {
            // Best-effort answer when no configuration meets the SLO.
            fill(fallback, cap, k, shape, eval);
            have_fallback = true;
          }
          if (eval.stable && eval.p99_s <= options.p99_slo_s) {
            // Smallest replica count for this (design, cap) meeting the
            // SLO; cost is the FPGA area it ties up (bottleneck share x
            // count).
            const double cost = bottleneck * static_cast<double>(k);
            if (cost < best_cost ||
                (cost == best_cost && eval.p99_s < best.predicted_p99_s)) {
              best_cost = cost;
              fill(best, cap, k, shape, eval);
            }
            break;
          }
        }
      }
    }

    if (std::isfinite(best_cost)) {
      plan.groups.push_back(std::move(best));
    } else {
      plan.feasible = false;
      plan.note += (plan.note.empty() ? "" : "; ");
      if (have_fallback) {
        plan.note += "workload '" + entry.workload +
                     "' cannot meet the SLO within " +
                     std::to_string(options.max_replicas_per_workload) +
                     " replicas";
        plan.groups.push_back(std::move(fallback));
      } else {
        // No usable configuration at all: either nothing fits one board,
        // or every fitting design stays over the utilization cap even at
        // max replicas (overload) — distinct problems, distinct advice.
        if (any_design_fits) {
          plan.note += "workload '" + entry.workload +
                       "' exceeds the utilization cap even at " +
                       std::to_string(options.max_replicas_per_workload) +
                       " replicas (raise --max-replicas or reduce load)";
        } else {
          plan.note += "no frontier design of workload '" + entry.workload +
                       "' fits a single " + device.name;
        }
        GroupPlan unplaceable;
        unplaceable.workload = entry.workload;
        unplaceable.workload_id = id;
        unplaceable.lambda_rps = lambda;
        plan.groups.push_back(std::move(unplaceable));
      }
    }
  }

  // Budget accounting: summed per-replica resources against the aggregate
  // inventory (each replica already individually fits one board).
  for (const GroupPlan& group : plan.groups) {
    if (group.replicas == 0) {
      continue;
    }
    const ResourceReport report = EstimateResources(group.design, device);
    const auto k = static_cast<double>(group.replicas);
    plan.resources.dsp += k * report.dsp;
    plan.resources.lut += k * report.lut;
    plan.resources.ff += k * report.ff;
    plan.resources.bram18 += k * report.bram18;
    plan.resources.uram += k * report.uram;
  }
  const auto budget = static_cast<double>(plan.devices);
  plan.resources.fits =
      plan.resources.dsp <= budget * static_cast<double>(device.dsp) &&
      plan.resources.lut <= budget * static_cast<double>(device.lut) &&
      plan.resources.ff <= budget * static_cast<double>(device.ff) &&
      plan.resources.bram18 <= budget * static_cast<double>(device.bram18) &&
      plan.resources.uram <= budget * static_cast<double>(device.uram);
  if (!plan.resources.fits) {
    plan.feasible = false;
    plan.note += (plan.note.empty() ? "" : "; ");
    plan.note += "plan needs more FPGA area than " +
                 std::to_string(plan.devices) + " x " + device.name +
                 " provides (add --devices or relax the SLO)";
  }

  // Cross-node placement (docs/CLUSTER.md): the boards split evenly
  // across the nodes, and replicas land greedily in group order on the
  // node carrying the least accumulated bottleneck-share load (ties to
  // the lowest node) — tenants shard across the cluster instead of
  // packing node 0. Each node's summed resources must then fit its own
  // devices/nodes board slice, checked exactly like the aggregate.
  if (plan.nodes > 1) {
    const double per_node_boards =
        static_cast<double>(plan.devices) / static_cast<double>(plan.nodes);
    std::vector<double> load(static_cast<std::size_t>(plan.nodes), 0.0);
    std::vector<PlanResources> node_use(
        static_cast<std::size_t>(plan.nodes));
    for (GroupPlan& group : plan.groups) {
      if (group.replicas == 0) {
        continue;
      }
      const ResourceReport report = EstimateResources(group.design, device);
      const double bottleneck = BottleneckShare(report);
      group.placement.assign(static_cast<std::size_t>(group.replicas), 0);
      for (int r = 0; r < group.replicas; ++r) {
        int target = 0;
        for (int n = 1; n < plan.nodes; ++n) {
          if (load[static_cast<std::size_t>(n)] <
              load[static_cast<std::size_t>(target)]) {
            target = n;
          }
        }
        group.placement[static_cast<std::size_t>(r)] = target;
        const auto t = static_cast<std::size_t>(target);
        load[t] += bottleneck;
        node_use[t].dsp += report.dsp;
        node_use[t].lut += report.lut;
        node_use[t].ff += report.ff;
        node_use[t].bram18 += report.bram18;
        node_use[t].uram += report.uram;
      }
    }
    for (int n = 0; n < plan.nodes; ++n) {
      const PlanResources& use = node_use[static_cast<std::size_t>(n)];
      const bool node_fits =
          use.dsp <= per_node_boards * static_cast<double>(device.dsp) &&
          use.lut <= per_node_boards * static_cast<double>(device.lut) &&
          use.ff <= per_node_boards * static_cast<double>(device.ff) &&
          use.bram18 <=
              per_node_boards * static_cast<double>(device.bram18) &&
          use.uram <= per_node_boards * static_cast<double>(device.uram);
      if (!node_fits) {
        plan.feasible = false;
        plan.note += (plan.note.empty() ? "" : "; ");
        plan.note += "node " + std::to_string(n) +
                     " overflows its per-node budget of " +
                     std::to_string(plan.devices / plan.nodes) + " x " +
                     device.name + " (add --devices or --nodes)";
      }
    }
  }

  plan.predicted_p50_s = AggregateQuantile(plan.groups, shares_norm, 0.5);
  plan.predicted_p99_s = AggregateQuantile(plan.groups, shares_norm, 0.99);
  return plan;
}

Json PoolPlan::ToJson() const {
  JsonObject root;
  root["version"] = Json(1);

  JsonArray mix_json;
  for (const WorkloadShare& entry : mix) {
    JsonObject m;
    m["workload"] = Json(entry.workload);
    m["share"] = Json(entry.share);
    mix_json.push_back(Json(std::move(m)));
  }
  root["mix"] = Json(std::move(mix_json));

  JsonObject traffic;
  traffic["qps"] = Json(qps);
  traffic["scenario"] = Json(scenario.ToString());
  traffic["planning_rate_rps"] = Json(planning_rate);
  root["traffic"] = Json(std::move(traffic));

  JsonObject slo;
  slo["p99_ms"] = Json(p99_slo_s * 1e3);
  root["slo"] = Json(std::move(slo));

  JsonObject budget;
  budget["device"] = Json(device_name);
  budget["devices"] = Json(devices);
  root["budget"] = Json(std::move(budget));

  // Cluster shape and placement are emitted only for multi-node plans, so
  // a single-node plan's JSON stays byte-identical to the pre-cluster
  // schema (and pre-cluster readers keep loading it).
  if (nodes > 1) {
    JsonObject cluster;
    cluster["nodes"] = Json(nodes);
    root["cluster"] = Json(std::move(cluster));
  }

  JsonObject batching;
  batching["max_batch"] = Json(max_batch);
  batching["max_wait_ms"] = Json(max_wait_s * 1e3);
  root["batching"] = Json(std::move(batching));

  JsonObject dse;
  dse["clock_hz"] = Json(dse_clock_hz);
  dse["enable_phase2"] = Json(dse_enable_phase2);
  dse["max_pes"] = Json(dse_max_pes);
  dse["dictionary_bytes"] = Json(dictionary_bytes);
  root["dse"] = Json(std::move(dse));

  JsonArray groups_json;
  for (const GroupPlan& group : groups) {
    JsonObject g;
    g["workload"] = Json(group.workload);
    g["replicas"] = Json(group.replicas);
    g["pe_budget"] = Json(group.pe_budget);
    g["pes"] = Json(group.pes);
    g["lambda_rps"] = Json(group.lambda_rps);
    g["batch_cap"] = Json(group.batch_cap);
    g["planned_batch"] = Json(group.planned_batch);
    g["service_ms_batch1"] = Json(group.service_s * 1e3);
    g["service_ms_planned_batch"] = Json(group.batch_service_s * 1e3);
    JsonObject predicted;
    predicted["p50_ms"] = Json(group.predicted_p50_s * 1e3);
    predicted["p99_ms"] = Json(group.predicted_p99_s * 1e3);
    predicted["wait_p99_ms"] = Json(group.wait_p99_s * 1e3);
    predicted["utilization"] = Json(group.utilization);
    g["predicted"] = Json(std::move(predicted));
    if (nodes > 1 && !group.placement.empty()) {
      JsonArray placement;
      for (const int node : group.placement) {
        placement.push_back(Json(node));
      }
      g["placement"] = Json(std::move(placement));
    }
    groups_json.push_back(Json(std::move(g)));
  }
  root["groups"] = Json(std::move(groups_json));

  JsonObject resources;
  resources["dsp"] = Json(this->resources.dsp);
  resources["lut"] = Json(this->resources.lut);
  resources["ff"] = Json(this->resources.ff);
  resources["bram18"] = Json(this->resources.bram18);
  resources["uram"] = Json(this->resources.uram);
  resources["fits"] = Json(this->resources.fits);
  root["resources"] = Json(std::move(resources));

  JsonObject predicted;
  predicted["p50_ms"] = Json(predicted_p50_s * 1e3);
  predicted["p99_ms"] = Json(predicted_p99_s * 1e3);
  root["predicted"] = Json(std::move(predicted));

  root["feasible"] = Json(feasible);
  root["note"] = Json(note);
  return Json(std::move(root));
}

PoolPlan LoadPlan(const Json& plan_json, WorkloadRegistry& registry) {
  NSF_CHECK_MSG(plan_json.At("version").AsInt() == 1,
                "unsupported PoolPlan version");
  PoolPlan plan;
  for (const Json& entry : plan_json.At("mix").AsArray()) {
    WorkloadShare share;
    share.workload = entry.At("workload").AsString();
    share.share = entry.At("share").AsDouble();
    if (!registry.Contains(share.workload)) {
      registry.RegisterBuiltin(share.workload);
    }
    plan.mix.push_back(std::move(share));
  }

  const Json& traffic = plan_json.At("traffic");
  plan.qps = traffic.At("qps").AsDouble();
  plan.scenario = ScenarioSpec::Parse(traffic.At("scenario").AsString());
  plan.planning_rate = traffic.At("planning_rate_rps").AsDouble();
  plan.p99_slo_s = plan_json.At("slo").At("p99_ms").AsDouble() * 1e-3;
  plan.device_name = plan_json.At("budget").At("device").AsString();
  plan.devices = static_cast<int>(plan_json.At("budget").At("devices").AsInt());
  // Cluster shape joined the schema in PR 10; single-node plans omit it.
  if (plan_json.Contains("cluster")) {
    plan.nodes =
        static_cast<int>(plan_json.At("cluster").At("nodes").AsInt());
  }
  plan.max_batch = plan_json.At("batching").At("max_batch").AsInt();
  plan.max_wait_s =
      plan_json.At("batching").At("max_wait_ms").AsDouble() * 1e-3;
  plan.dse_clock_hz = plan_json.At("dse").At("clock_hz").AsDouble();
  plan.dse_enable_phase2 = plan_json.At("dse").At("enable_phase2").AsBool();
  // max_pes joined the schema in PR 5; plans written before it keep the
  // default sweep base.
  if (plan_json.At("dse").Contains("max_pes")) {
    plan.dse_max_pes = plan_json.At("dse").At("max_pes").AsInt();
  }
  plan.dictionary_bytes = plan_json.At("dse").At("dictionary_bytes").AsDouble();
  plan.feasible = plan_json.At("feasible").AsBool();
  plan.note = plan_json.At("note").AsString();
  plan.predicted_p50_s =
      plan_json.At("predicted").At("p50_ms").AsDouble() * 1e-3;
  plan.predicted_p99_s =
      plan_json.At("predicted").At("p99_ms").AsDouble() * 1e-3;

  const Json& resources = plan_json.At("resources");
  plan.resources.dsp = resources.At("dsp").AsDouble();
  plan.resources.lut = resources.At("lut").AsDouble();
  plan.resources.ff = resources.At("ff").AsDouble();
  plan.resources.bram18 = resources.At("bram18").AsDouble();
  plan.resources.uram = resources.At("uram").AsDouble();
  plan.resources.fits = resources.At("fits").AsBool();

  // Rebuild each group's design by re-running the deterministic DSE at the
  // recorded PE budget — bit-identical to the planner's design, with no
  // design serialization in the JSON. Assumes default DseOptions apart
  // from the recorded clock, Phase II switch, and dictionary reserve
  // (docs/PLANNING.md).
  DseOptions base;
  base.clock_hz = plan.dse_clock_hz;
  base.enable_phase2 = plan.dse_enable_phase2;
  base.dictionary_bytes = plan.dictionary_bytes;
  for (const Json& entry : plan_json.At("groups").AsArray()) {
    GroupPlan group;
    group.workload = entry.At("workload").AsString();
    group.workload_id = registry.IdOf(group.workload);
    group.replicas = static_cast<int>(entry.At("replicas").AsInt());
    group.pe_budget = entry.At("pe_budget").AsInt();
    group.pes = entry.At("pes").AsInt();
    group.lambda_rps = entry.At("lambda_rps").AsDouble();
    group.batch_cap = entry.At("batch_cap").AsInt();
    group.planned_batch =
        static_cast<int>(entry.At("planned_batch").AsInt());
    group.service_s = entry.At("service_ms_batch1").AsDouble() * 1e-3;
    group.batch_service_s =
        entry.At("service_ms_planned_batch").AsDouble() * 1e-3;
    const Json& predicted = entry.At("predicted");
    group.predicted_p50_s = predicted.At("p50_ms").AsDouble() * 1e-3;
    group.predicted_p99_s = predicted.At("p99_ms").AsDouble() * 1e-3;
    group.wait_p99_s = predicted.At("wait_p99_ms").AsDouble() * 1e-3;
    group.utilization = predicted.At("utilization").AsDouble();
    if (entry.Contains("placement")) {
      for (const Json& node : entry.At("placement").AsArray()) {
        group.placement.push_back(static_cast<int>(node.AsInt()));
      }
      NSF_CHECK_MSG(
          static_cast<int>(group.placement.size()) == group.replicas,
          "plan group '" + group.workload +
              "' records a placement for a different replica count — the "
              "plan is stale; re-run nsflow plan");
    }
    if (group.replicas > 0) {
      DseOptions options = base;
      options.max_pes = group.pe_budget;
      group.design =
          RunTwoPhaseDse(registry.dataflow(group.workload_id), options)
              .design;
      // Guard against stale or hand-edited plans: the rebuilt design must
      // be the one the recorded predictions describe.
      const std::int64_t rebuilt_pes = group.design.array.height *
                                       group.design.array.width *
                                       group.design.array.count;
      NSF_CHECK_MSG(rebuilt_pes == group.pes,
                    "plan group '" + group.workload +
                        "' rebuilds to a different design (" +
                        std::to_string(rebuilt_pes) + " PEs vs recorded " +
                        std::to_string(group.pes) +
                        ") — the plan is stale; re-run nsflow plan");
    }
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

std::string PlanValidationTable(const PoolPlan& plan,
                                const StatsSummary& measured) {
  TablePrinter table({"workload", "replicas x PEs", "pred p50 (ms)",
                      "meas p50 (ms)", "pred p99 (ms)", "meas p99 (ms)",
                      "meas/pred p99"});
  for (const GroupPlan& group : plan.groups) {
    const auto w = static_cast<std::size_t>(group.workload_id);
    double measured_p50 = 0.0;
    double measured_p99 = 0.0;
    if (w < measured.per_workload.size()) {
      measured_p50 = measured.per_workload[w].p50_ms;
      measured_p99 = measured.per_workload[w].p99_ms;
    } else if (measured.per_workload.size() <= 1 && plan.groups.size() == 1) {
      measured_p50 = measured.p50_ms;
      measured_p99 = measured.p99_ms;
    }
    const double predicted_p99_ms = group.predicted_p99_s * 1e3;
    table.AddRow({group.workload,
                  std::to_string(group.replicas) + " x " +
                      std::to_string(group.pes),
                  TablePrinter::Num(group.predicted_p50_s * 1e3, 3),
                  TablePrinter::Num(measured_p50, 3),
                  TablePrinter::Num(predicted_p99_ms, 3),
                  TablePrinter::Num(measured_p99, 3),
                  predicted_p99_ms > 0.0
                      ? TablePrinter::Num(measured_p99 / predicted_p99_ms, 2)
                      : "-"});
  }
  table.AddRow({"aggregate", std::to_string(plan.TotalReplicas()) + " total",
                TablePrinter::Num(plan.predicted_p50_s * 1e3, 3),
                TablePrinter::Num(measured.p50_ms, 3),
                TablePrinter::Num(plan.predicted_p99_s * 1e3, 3),
                TablePrinter::Num(measured.p99_ms, 3),
                plan.predicted_p99_s > 0.0
                    ? TablePrinter::Num(
                          measured.p99_ms / (plan.predicted_p99_s * 1e3), 2)
                    : "-"});
  return table.ToString();
}

}  // namespace nsflow::serve
