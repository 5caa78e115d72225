// The benchmark's three serve workloads and their set-up.
//
// Every workload serves the two built-in tenants `mlp` and `resnet18` at a
// 50/50 mix from an open-loop, seeded arrival schedule in virtual time.
// They differ in which layer dominates the simulator's host time:
//
//   wide-pool        1024-replica partitioned pool at 90k rps: the
//                    per-arrival replica scans in the pool dominate.
//   traced-narrow    16-replica partitioned pool at 1400 rps with product
//                    tracing on and the Chrome + metrics export after the
//                    run: the obs layer dominates.
//   elastic-cluster  a planned 2-node pool under autoscaling, admission,
//                    and a whole-node outage: the control plane runs on
//                    top of the same pool and former.
//
// README.md gives each workload's reason and the measured layer shares.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  double qps = 0.0;
  double duration_s = 0.0;  // Virtual length of one serve run.
  int pool_replicas = 0;    // Hand-sized partitioned pool (0 = planned).
  bool traced = false;      // Product tracing on, exported after the run.
  bool elastic = false;     // Planned 2-node pool + autoscale/admission/fault.
  /// Virtual horizon of the tracing on/off pair in the traced mode: the
  /// full run where it is the product (traced-narrow), else a prefix short
  /// enough that the Chrome export stays near 250k requests in memory.
  double obs_duration_s = 0.0;
};

/// Names in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// The named workload with its virtual durations multiplied by `scale`
/// (1 = the measured size; the self-test runs a small fraction). Throws on
/// an unknown name.
WorkloadSpec FindWorkload(const std::string& name, double scale);

/// Everything `RunSyntheticServe` takes, built the way a user would: the
/// registry compile (DSE), the capacity plan where the workload is
/// planned, and the replica specs.
struct Setup {
  std::unique_ptr<nsflow::serve::WorkloadRegistry> registry;
  std::vector<nsflow::serve::WorkloadShare> mix;
  std::vector<nsflow::serve::ReplicaSpec> replicas;
  nsflow::serve::ServeOptions options;
  std::optional<nsflow::serve::PoolPlan> plan;  // Elastic workloads only.
  double compile_s = 0.0;  // Registry construction + both registrations.
  double plan_s = 0.0;     // PlanCapacity (0 when the pool is hand-sized).
};

Setup BuildSetup(const WorkloadSpec& spec, std::uint64_t seed);

/// The capacity-planning problem of a workload: its own planned pool on
/// elastic-cluster; on the hand-sized workloads, what a user would ask the
/// planner for the same rate and mix within the same board count. The
/// traced mode times the planner layer on it.
nsflow::serve::PlanOptions PlanProblem(const WorkloadSpec& spec);

/// Per-workload-id share weights and names of `setup.mix` (the
/// `SyntheticArrivals` multi-tenant overload's inputs).
std::vector<double> MixShares(const Setup& setup);

}  // namespace perfbench
