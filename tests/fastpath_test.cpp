// Fast-path estimator contract (docs/PERFORMANCE.md): the timing-only
// estimator must report *bit-identical* cycle counts and seconds to the
// functional cycle-level simulator — exact double equality, not a
// tolerance — for every builtin workload, batch size, and allocation
// (tuned and refit), and it must do so without materializing a single
// tensor buffer. This is what lets ServerPool::BatchSeconds, the DSE
// sweep, and the serve engine run on the estimator while the functional
// simulator remains the cross-checked reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "arch/controller.h"
#include "arch/fastpath.h"
#include "common/tensor.h"
#include "runtime/host_runtime.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

namespace nsflow {
namespace {

const std::vector<int> kBatchSizes = {1, 2, 8, 32};

/// One registry shared by every test: six builtin compiles (each a full
/// two-phase DSE) are paid once per binary, not once per test.
serve::WorkloadRegistry& Registry() {
  static serve::WorkloadRegistry* registry = [] {
    auto* r = new serve::WorkloadRegistry();
    for (const std::string& name : serve::WorkloadRegistry::BuiltinNames()) {
      r->RegisterBuiltin(name);
    }
    return r;
  }();
  return *registry;
}

TEST(FastPathContract, EstimateLoopBitMatchesRunLoopReport) {
  auto& registry = Registry();
  for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
    SCOPED_TRACE(registry.NameOf(w));
    const AcceleratorDesign& design = registry.compiled(w).design();
    const DataflowGraph& dfg = registry.dataflow(w);

    arch::Controller controller(design, dfg);
    const arch::SimReport est = controller.EstimateLoop();
    const arch::SimReport sim = controller.RunLoop();  // Fresh controller.

    EXPECT_EQ(est.nn_lane_cycles, sim.nn_lane_cycles);
    EXPECT_EQ(est.vsa_lane_cycles, sim.vsa_lane_cycles);
    EXPECT_EQ(est.array_cycles, sim.array_cycles);
    EXPECT_EQ(est.simd_cycles, sim.simd_cycles);
    EXPECT_EQ(est.simd_exposed_cycles, sim.simd_exposed_cycles);
    EXPECT_EQ(est.dram_cycles, sim.dram_cycles);
    EXPECT_EQ(est.dram_stall_cycles, sim.dram_stall_cycles);
    EXPECT_EQ(est.total_cycles, sim.total_cycles);
    // A fresh controller's cumulative AXI traffic is exactly one loop.
    EXPECT_EQ(est.dram_bytes, sim.dram_bytes);
    EXPECT_EQ(est.mem_a_swaps, sim.mem_a_swaps);
    EXPECT_EQ(est.kernels_executed, sim.kernels_executed);
  }
}

TEST(FastPathContract, EstimateBitMatchesFunctionalTunedAllBuiltins) {
  auto& registry = Registry();
  for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
    SCOPED_TRACE(registry.NameOf(w));
    const AcceleratorDesign& design = registry.compiled(w).design();
    const DataflowGraph& dfg = registry.dataflow(w);
    runtime::Accelerator accel(design, dfg);

    EXPECT_EQ(accel.EstimateWorkload(), accel.RunWorkload());
    for (const int batch : kBatchSizes) {
      SCOPED_TRACE(batch);
      // Exact double equality — the contract, not a tolerance.
      EXPECT_EQ(accel.EstimateWorkloadBatch(batch),
                accel.RunWorkloadBatch(batch));
      // The free function (what the serving stack calls) agrees too.
      EXPECT_EQ(arch::EstimateWorkloadBatchSeconds(design, dfg, batch),
                accel.RunWorkloadBatch(batch));
      EXPECT_EQ(
          arch::EstimateServingBatchSeconds(design, dfg, batch, true),
          accel.RunWorkloadBatch(batch));
    }
  }
}

TEST(FastPathContract, EstimateBitMatchesFunctionalRefitCrossTenant) {
  auto& registry = Registry();
  // Every design serving every *other* tenant's graph: the refit schedule
  // the multi-tenant pool applies must estimate to exactly what deploying
  // RefitDesign functionally reports. Hardware is provisioned the way a
  // shared pool provisions it (memory grown to the worst tenant) — a raw
  // tuned design rightly fails the filter-fit check on foreign graphs, in
  // both the functional and the estimated path.
  for (serve::WorkloadId owner = 0; owner < registry.size(); ++owner) {
    const AcceleratorDesign hardware = registry.ProvisionDesign(owner);
    for (serve::WorkloadId tenant = 0; tenant < registry.size(); ++tenant) {
      if (tenant == owner) {
        continue;
      }
      SCOPED_TRACE(registry.NameOf(owner) + " serving " +
                   registry.NameOf(tenant));
      const DataflowGraph& dfg = registry.dataflow(tenant);
      runtime::Accelerator functional(serve::RefitDesign(hardware, dfg), dfg);
      for (const int batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EXPECT_EQ(
            arch::EstimateServingBatchSeconds(hardware, dfg, batch, false),
            functional.RunWorkloadBatch(batch));
      }
    }
  }
}

TEST(FastPathContract, ServerPoolBatchSecondsMatchesFunctionalSim) {
  auto& registry = Registry();
  // Shared multi-tenant pool: replica 0 carries workload 0's provisioned
  // design and serves every tenant — workload 0 tuned, the rest refit.
  const std::vector<serve::ReplicaSpec> specs =
      registry.ReplicaSpecs(/*replicas=*/2, /*partitioned=*/false);
  serve::ServerPool pool(specs, registry.Dataflows());
  const AcceleratorDesign& hardware = specs[0].design;

  for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
    SCOPED_TRACE(registry.NameOf(w));
    const DataflowGraph& dfg = registry.dataflow(w);
    const bool tuned = (w == specs[0].tuned_for);
    runtime::Accelerator functional(
        tuned ? hardware : serve::RefitDesign(hardware, dfg), dfg);
    for (const int batch : kBatchSizes) {
      SCOPED_TRACE(batch);
      EXPECT_EQ(pool.BatchSeconds(0, w, batch),
                functional.RunWorkloadBatch(batch));
    }
  }

  // The latency table against the estimator, on a pool of several kinds:
  // one partitioned replica per workload, then two shared replicas of one
  // spec (one kind). `deployed` mirrors each replica's spec.
  const int workloads = registry.size();
  constexpr std::int64_t kMaxBatch = 8;
  std::vector<serve::ReplicaSpec> deployed =
      registry.ReplicaSpecs(workloads, /*partitioned=*/true);
  // The builtins' own DSE allocations price the same as the refit schedule,
  // so nvsa's replica gets a hand-set one (one sub-array per kernel) for
  // its tuned_for provenance to show in the seconds.
  serve::ReplicaSpec& hand_set =
      deployed[static_cast<std::size_t>(registry.IdOf("nvsa"))];
  std::fill(hand_set.design.nl.begin(), hand_set.design.nl.end(), 1);
  std::fill(hand_set.design.nv.begin(), hand_set.design.nv.end(), 1);
  const int shared = workloads;  // First of the two shared replicas.
  deployed.push_back(specs[0]);
  deployed.push_back(specs[0]);
  serve::ServerPool table(deployed, registry.Dataflows());
  // Every capable (replica, workload, batch) triple, to twice the cap,
  // equals the estimator. The first lookup of a triple hits when its batch
  // size is within `warmed_cap`; a repeat always hits.
  const auto expect_estimates = [&](std::int64_t warmed_cap) {
    for (int r = 0; r < table.size(); ++r) {
      const serve::ReplicaSpec& spec = deployed[static_cast<std::size_t>(r)];
      for (serve::WorkloadId w = 0; w < workloads; ++w) {
        if (!table.CanServe(r, w)) {
          continue;
        }
        const DataflowGraph& dfg = registry.dataflow(w);
        for (int batch = 1; batch <= 2 * kMaxBatch; ++batch) {
          SCOPED_TRACE("replica " + std::to_string(r) + ", " +
                       registry.NameOf(w) + ", batch " +
                       std::to_string(batch));
          const double estimate = arch::EstimateServingBatchSeconds(
              spec.design, dfg, batch, spec.tuned_for == w);
          const std::int64_t misses = table.cache_misses();
          EXPECT_EQ(table.BatchSeconds(r, w, batch), estimate);
          if (batch <= warmed_cap) {
            EXPECT_EQ(table.cache_misses(), misses);
          }
          const std::int64_t hits = table.cache_hits();
          EXPECT_EQ(table.BatchSeconds(r, w, batch), estimate);
          EXPECT_EQ(table.cache_hits(), hits + 1);
        }
      }
    }
  };

  // Warm-up fills the table up to the cap and counts neither hits nor
  // misses.
  table.WarmBatchSizes(kMaxBatch);
  EXPECT_EQ(table.cache_hits(), 0);
  EXPECT_EQ(table.cache_misses(), 0);
  // A warmed triple hits. The first lookup of an unwarmed one misses, its
  // repeats hit, and so does the same triple on a replica of the same kind.
  table.BatchSeconds(shared, 1, kMaxBatch);
  EXPECT_EQ(table.cache_hits(), 1);
  EXPECT_EQ(table.cache_misses(), 0);
  table.BatchSeconds(shared, 1, kMaxBatch + 1);
  EXPECT_EQ(table.cache_hits(), 1);
  EXPECT_EQ(table.cache_misses(), 1);
  table.BatchSeconds(shared, 1, kMaxBatch + 1);
  table.BatchSeconds(shared + 1, 1, kMaxBatch + 1);
  EXPECT_EQ(table.cache_hits(), 3);
  EXPECT_EQ(table.cache_misses(), 1);
  expect_estimates(kMaxBatch);

  // A replica of a new kind (no provenance: every workload refit) starts
  // with an empty row of slots.
  serve::ReplicaSpec fresh = specs[1];
  fresh.tuned_for = serve::kTunedForNone;
  deployed.push_back(fresh);
  const int added = table.AddReplica(fresh, /*ready_s=*/0.0);
  const std::int64_t misses_before_add = table.cache_misses();
  table.BatchSeconds(added, 0, 1);
  EXPECT_EQ(table.cache_misses(), misses_before_add + 1);
  expect_estimates(0);

  // A refit to another workload set, on the shared replicas' spec, moves
  // the replica to their kind: it reads their filled slots.
  serve::ReplicaSpec refit = specs[0];
  refit.workloads = {2, 3};
  deployed[0] = refit;
  table.RefitInPlace(0, refit, /*ready_s=*/0.0);
  ASSERT_TRUE(table.CanServe(0, 2));
  ASSERT_FALSE(table.CanServe(0, 0));
  const std::int64_t misses_before_refit = table.cache_misses();
  expect_estimates(2 * kMaxBatch);
  EXPECT_EQ(table.cache_misses(), misses_before_refit);
}

TEST(FastPathContract, EstimatorNeverAllocatesATensor) {
  auto& registry = Registry();
  // Pre-touch everything so lazy setup outside the estimator is excluded.
  const AcceleratorDesign& design = registry.compiled(0).design();
  const DataflowGraph& dfg = registry.dataflow(0);
  arch::Controller controller(design, dfg);

  const std::int64_t before = Tensor::allocation_count();
  for (int i = 0; i < 100; ++i) {
    for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
      const AcceleratorDesign& d = registry.compiled(w).design();
      const DataflowGraph& g = registry.dataflow(w);
      (void)arch::EstimateLoop(d, g);
      (void)arch::EstimateWorkloadSeconds(d, g);
      (void)arch::EstimateWorkloadBatchSeconds(d, g, 32);
      (void)arch::EstimateServingBatchSeconds(d, g, 32, false);
    }
    (void)controller.EstimateLoop();
    (void)controller.EstimateWorkloadBatch(8);
  }
  EXPECT_EQ(Tensor::allocation_count(), before)
      << "the timing-only fast path materialized a tensor buffer";
}

TEST(TensorReshape, RvalueReshapeMovesStorage) {
  Tensor t({4, 8});
  t.at2(2, 3) = 42.0f;
  const float* storage = t.data();
  Tensor reshaped = std::move(t).Reshaped({8, 4});
  // Move-aware reshape: same buffer, new shape, no copy.
  EXPECT_EQ(reshaped.data(), storage);
  EXPECT_EQ(reshaped.at2(4, 3), 42.0f);

  Tensor source({2, 2});
  const float* original = source.data();
  Tensor copy = source.Reshaped({4});
  // Lvalue reshape still copies; the source keeps its storage.
  EXPECT_NE(copy.data(), original);
  EXPECT_EQ(source.data(), original);
}

TEST(TensorRow, RowPointersAliasStorage) {
  Tensor t({3, 5});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t.row(0), t.data());
  EXPECT_EQ(t.row(1)[2], 7.0f);
  const Tensor& ct = t;
  EXPECT_EQ(ct.row(2), ct.data() + 10);
}

}  // namespace
}  // namespace nsflow
