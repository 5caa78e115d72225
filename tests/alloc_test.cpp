// The serve path's allocation gate (docs/ENGINE.md, "Zero-allocation
// contract"). This binary replaces the global operator new with a counting
// one, so it sees every heap allocation, not only the event core's.
//
// A fault run exercises the whole dispatch path: a two-node cluster with
// least-loaded routing, a whole-node outage (deferred commits, aborts and
// re-dispatch), guard admission with tiers, and the autoscaler. Forming,
// routing, replica selection and settlement must run on storage planned
// before the run, so what remains is set-up and amortized growth: a small
// budget per generated request, and a longer run may not allocate more
// per request than a shorter one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "serve/engine.h"
#include "serve/workload_registry.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nsflow::serve {
namespace {

std::string Num(double v) { return std::to_string(v); }

// Node 1 goes dark for the second quarter of the run, as in the
// elastic-cluster benchmark workload.
ServeOptions FaultRunOptions(double duration_s) {
  ServeOptions options;
  options.qps = 20000.0;
  options.duration_s = duration_s;
  options.seed = 7;
  options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
  options.adversity = AdversitySpec::Parse(
      "replica-fail:at=" + Num(duration_s * 0.25) +
      ",down=" + Num(duration_s * 0.25) + ",node=1");
  options.admission = AdmissionSpec::Parse("guard");
  options.tiers = {SlaTier::kCritical, SlaTier::kBatch};
  options.autoscale = true;
  return options;
}

struct CountedRun {
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  double per_request = 0.0;
};

CountedRun CountedServe(const WorkloadRegistry& registry,
                        const std::vector<ReplicaSpec>& replicas,
                        const std::vector<WorkloadShare>& mix,
                        double duration_s) {
  const ServeOptions options = FaultRunOptions(duration_s);
  const std::int64_t before = g_allocations.load();
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  const std::int64_t allocations = g_allocations.load() - before;
  CountedRun run;
  run.generated = report.generated_requests;
  run.completed = report.summary.completed;
  run.per_request = static_cast<double>(allocations) /
                    static_cast<double>(report.generated_requests);
  return run;
}

TEST(AllocationGate, FaultRunDispatchPathIsAllocationFree) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas =
      registry.ReplicaSpecs(16, /*partitioned=*/true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.9}, {"resnet18", 0.1}};

  const CountedRun base = CountedServe(registry, replicas, mix, 5.0);
  const CountedRun twice = CountedServe(registry, replicas, mix, 10.0);
  ASSERT_GE(base.generated, 100000);
  ASSERT_GT(base.completed, base.generated / 2);
  EXPECT_LE(base.per_request, 0.25)
      << "the serve path allocates per request";
  EXPECT_LE(twice.per_request, base.per_request)
      << "allocations grow faster than the request count";
  std::printf("allocations per generated request: %.4f at %lld requests, "
              "%.4f at %lld\n",
              base.per_request, static_cast<long long>(base.generated),
              twice.per_request, static_cast<long long>(twice.generated));
}

}  // namespace
}  // namespace nsflow::serve
