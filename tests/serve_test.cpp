// Tests for NSFlow-Serve: batch forming, stat percentiles, batched cycle
// accounting, and multi-replica dispatch determinism under a fixed RNG
// seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "dse/dse.h"
#include "nsflow/framework.h"
#include "runtime/host_runtime.h"
#include "serve/batch_former.h"
#include "serve/engine.h"
#include "serve/serve_stats.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"
#include "workloads/builders.h"

namespace nsflow::serve {
namespace {

Request At(std::int64_t id, double arrival_s) { return Request{id, arrival_s}; }

// ---------------------------------------------------------------- former
//
// The single-workload forming contract, on a one-lane MultiBatchFormer
// (`busy_until` is that lane's horizon).

TEST(BatchFormerTest, ClosesAtMaxBatchSize) {
  MultiBatchFormer former(BatchPolicy{3, 1.0}, 1);
  EXPECT_TRUE(former.Add(At(0, 0.00), {0.0}).empty());
  EXPECT_TRUE(former.Add(At(1, 0.01), {0.0}).empty());
  const std::vector<Batch> closed = former.Add(At(2, 0.02), {0.0});
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].size(), 3);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.02);  // Closed by the last arrival.
  EXPECT_EQ(former.pending(0), 0);
}

TEST(BatchFormerTest, ClosesAtMaxWaitDeadline) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 1);
  EXPECT_TRUE(former.Add(At(0, 0.000), {0.0}).empty());
  EXPECT_TRUE(former.Add(At(1, 0.001), {0.0}).empty());
  // Arrival after the oldest request's deadline closes the pending batch at
  // the deadline, not at the new arrival.
  const std::vector<Batch> closed = former.Add(At(2, 0.050), {0.0});
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].size(), 2);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.005);
  // The late request seeds the next batch.
  EXPECT_EQ(former.pending(0), 1);
}

TEST(BatchFormerTest, PreservesFifoOrderWithinBatch) {
  MultiBatchFormer former(BatchPolicy{4, 1.0}, 1);
  former.Add(At(10, 0.0), {0.0});
  former.Add(At(11, 0.1), {0.0});
  former.Add(At(12, 0.2), {0.0});
  const std::vector<Batch> closed = former.Add(At(13, 0.3), {0.0});
  ASSERT_EQ(closed.size(), 1u);
  ASSERT_EQ(closed[0].size(), 4);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(closed[0].requests[static_cast<std::size_t>(i)].id, 10 + i);
  }
}

TEST(BatchFormerTest, BusyPoolStretchesWaitDeadline) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 1);
  former.Add(At(0, 0.000), {0.0});
  // Every replica is busy until t=0.100: arrivals past the nominal 5 ms
  // deadline keep accumulating instead of closing a tiny batch.
  EXPECT_TRUE(former.Add(At(1, 0.020), /*busy_until=*/{0.100}).empty());
  EXPECT_TRUE(former.Add(At(2, 0.050), /*busy_until=*/{0.100}).empty());
  // First arrival past the busy horizon closes the batch at that horizon.
  const std::vector<Batch> closed =
      former.Add(At(3, 0.120), /*busy_until=*/{0.100});
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].size(), 3);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.100);
  EXPECT_EQ(former.pending(0), 1);
}

TEST(BatchFormerTest, FlushDrainsTail) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 1);
  former.Add(At(0, 0.100), {0.0});
  former.Add(At(1, 0.101), {0.0});
  const std::vector<Batch> tail = former.Flush(1.0);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].size(), 2);
  // Flush clamps to the wait deadline of the oldest request.
  EXPECT_DOUBLE_EQ(tail[0].formed_s, 0.105);
  EXPECT_TRUE(former.Flush(2.0).empty());
}

// ----------------------------------------------------------------- stats

TEST(ServeStatsTest, NearestRankPercentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile({5.0}, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile({}, 50.0), 0.0);
}

// Sort-based nearest-rank reference, independent of ServeStats.
double SortedPercentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(static_cast<std::size_t>(std::max(1.0, rank)) - 1,
               values.size() - 1);
  return values[index];
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Populations for the selection checks. Summarize samples large
// populations to bracket each rank, so beside plain and tie-heavy ones
// this includes the shapes that defeat a sample: one value spanning a
// pivot, and populations whose period aliases with the sample's stride at
// n = 16384 (every 16th value is sampled). In the first the sampled
// values are tiny outliers, so the median misses its bracket; in the
// second they skew high above the median, so p95 misses the tail bracket.
enum class Shape {
  kUniform,
  kFourValues,
  kSpanningTie,
  kAliasedBody,
  kAliasedTail
};

std::vector<double> MakePopulation(std::size_t n, Shape shape, Rng& rng) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    double& v = values[i];
    switch (shape) {
      case Shape::kUniform:
        v = rng.Uniform(0.0, 0.1);
        break;
      case Shape::kFourValues:
        v = 0.25 * static_cast<double>(rng.UniformInt(0, 3));
        break;
      case Shape::kSpanningTie:
        v = rng.Bernoulli(0.6) ? 0.0125 : rng.Uniform(0.0, 0.1);
        break;
      case Shape::kAliasedBody:
        v = i % 16 == 8 ? 1e-6 * static_cast<double>(i)
                        : 1.0 + rng.Uniform(0.0, 0.1);
        break;
      case Shape::kAliasedTail:
        v = i % 16 != 8        ? rng.Uniform(0.0, 1.0)
            : rng.Bernoulli(0.5) ? rng.Uniform(0.0, 0.5)
                                 : rng.Uniform(0.96, 1.0);
        break;
    }
  }
  return values;
}

TEST(ServeStatsTest, PercentileSelectionMatchesSort) {
  Rng rng(2024);
  for (const std::size_t n : {0, 1, 2, 19, 20, 21, 99, 100, 101, 1000, 1023,
                              8191, 8192, 16384, 40000}) {
    for (const Shape shape :
         {Shape::kUniform, Shape::kFourValues, Shape::kSpanningTie,
          Shape::kAliasedBody, Shape::kAliasedTail}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                   std::to_string(static_cast<int>(shape)));
      const std::vector<double> values = MakePopulation(n, shape, rng);
      for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_EQ(Bits(ServeStats::Percentile(values, p)),
                  Bits(SortedPercentile(values, p)))
            << "p=" << p;
      }
      // Summarize's selection over the same population, recorded as
      // latencies from arrival 0.
      ServeStats stats(1);
      for (const double v : values) {
        stats.RecordRequest(0.0, v);
      }
      const StatsSummary s = stats.Summarize(0.0, 1.0);
      EXPECT_EQ(Bits(s.p50_ms), Bits(SortedPercentile(values, 50.0) * 1e3));
      EXPECT_EQ(Bits(s.p95_ms), Bits(SortedPercentile(values, 95.0) * 1e3));
      EXPECT_EQ(Bits(s.p99_ms), Bits(SortedPercentile(values, 99.0) * 1e3));
      EXPECT_EQ(Bits(s.max_ms), Bits(SortedPercentile(values, 100.0) * 1e3));
    }
  }
}

// Three tenants — one never completes anything — tiered so every tier slice
// exists, with requests and batches interleaved across tenants. Every
// summary field must equal, bit for bit, what sorting each population and
// std::accumulate-ing it in record order reports.
//
// At 30,000 requests the populations are large enough to be sampled, and
// their 41 coarse latency values put ties across every pivot.
void CheckSummaryAgainstSortReference(int requests) {
  SCOPED_TRACE("requests=" + std::to_string(requests));
  constexpr int kWorkloads = 3;
  const SlaTier tiers[kWorkloads] = {SlaTier::kCritical, SlaTier::kStandard,
                                     SlaTier::kBatch};
  ServeStats stats(2, kWorkloads);
  for (WorkloadId w = 0; w < kWorkloads; ++w) {
    stats.SetWorkloadName(w, "w" + std::to_string(w));
    stats.SetWorkloadTier(w, tiers[w]);
  }
  stats.Reserve(std::vector<std::int64_t>{requests, 0, requests});

  std::vector<double> all;
  std::vector<double> latencies[kWorkloads];
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> depths;
  std::vector<std::int64_t> sizes_of[kWorkloads];
  double last_completion = 0.0;
  Rng rng(7);
  for (int i = 0; i < requests; ++i) {
    const WorkloadId w = rng.Bernoulli(0.4) ? 0 : 2;
    const double arrival = rng.Uniform(0.0, 2.0);
    // Coarse latencies so the populations carry ties.
    const double complete =
        arrival + 1e-3 * static_cast<double>(rng.UniformInt(0, 40));
    stats.RecordRequest(w, arrival, complete);
    all.push_back(complete - arrival);
    latencies[w].push_back(complete - arrival);
    last_completion = std::max(last_completion, complete);
    if (i % 7 == 0) {
      const std::int64_t size = rng.UniformInt(1, 8);
      const std::int64_t depth = rng.UniformInt(-3, 50);
      stats.RecordBatch(w, size, depth);
      sizes.push_back(size);
      depths.push_back(std::max<std::int64_t>(0, depth));
      sizes_of[w].push_back(size);
    }
  }
  stats.RecordReplicaBusy(0, 0.5);

  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size()) * 1e3;
  };
  auto mean_batch = [](const std::vector<std::int64_t>& v) {
    return v.empty() ? 0.0
                     : static_cast<double>(std::accumulate(
                           v.begin(), v.end(), std::int64_t{0})) /
                           static_cast<double>(v.size());
  };
  auto max_ms = [](std::vector<double> v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()) * 1e3;
  };

  const StatsSummary s = stats.Summarize(500.0, 1.0);
  const double horizon = std::max(1.0, last_completion);
  EXPECT_EQ(s.completed, requests);
  EXPECT_EQ(s.batches, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(Bits(s.horizon_s), Bits(horizon));
  EXPECT_EQ(Bits(s.throughput_rps),
            Bits(static_cast<double>(requests) / horizon));
  EXPECT_EQ(Bits(s.offered_qps), Bits(500.0));
  EXPECT_EQ(Bits(s.p50_ms), Bits(SortedPercentile(all, 50.0) * 1e3));
  EXPECT_EQ(Bits(s.p95_ms), Bits(SortedPercentile(all, 95.0) * 1e3));
  EXPECT_EQ(Bits(s.p99_ms), Bits(SortedPercentile(all, 99.0) * 1e3));
  EXPECT_EQ(Bits(s.mean_ms), Bits(mean(all)));
  EXPECT_EQ(Bits(s.max_ms), Bits(max_ms(all)));
  EXPECT_EQ(Bits(s.mean_batch), Bits(mean_batch(sizes)));
  EXPECT_EQ(Bits(s.mean_queue_depth), Bits(mean_batch(depths)));
  EXPECT_EQ(s.max_queue_depth, *std::max_element(depths.begin(), depths.end()));
  ASSERT_EQ(s.replica_utilization.size(), 2u);
  EXPECT_EQ(Bits(s.replica_utilization[0]), Bits(0.5 / horizon));
  EXPECT_EQ(Bits(s.replica_utilization[1]), Bits(0.0));

  ASSERT_EQ(s.per_workload.size(), 3u);
  for (int w = 0; w < kWorkloads; ++w) {
    const WorkloadSummary& slice = s.per_workload[static_cast<std::size_t>(w)];
    const std::vector<double>& v = latencies[w];
    SCOPED_TRACE(slice.name);
    EXPECT_EQ(slice.name, "w" + std::to_string(w));
    EXPECT_EQ(slice.completed, static_cast<std::int64_t>(v.size()));
    EXPECT_EQ(slice.batches, static_cast<std::int64_t>(sizes_of[w].size()));
    EXPECT_EQ(Bits(slice.throughput_rps),
              Bits(v.empty() ? 0.0
                             : static_cast<double>(v.size()) / horizon));
    EXPECT_EQ(Bits(slice.p50_ms), Bits(SortedPercentile(v, 50.0) * 1e3));
    EXPECT_EQ(Bits(slice.p95_ms), Bits(SortedPercentile(v, 95.0) * 1e3));
    EXPECT_EQ(Bits(slice.p99_ms), Bits(SortedPercentile(v, 99.0) * 1e3));
    EXPECT_EQ(Bits(slice.mean_ms), Bits(mean(v)));
    EXPECT_EQ(Bits(slice.max_ms), Bits(max_ms(v)));
    EXPECT_EQ(Bits(slice.mean_batch), Bits(mean_batch(sizes_of[w])));
  }
  EXPECT_EQ(s.per_workload[1].completed, 0);

  ASSERT_EQ(s.per_tier.size(), 3u);
  for (int w = 0; w < kWorkloads; ++w) {
    // One workload per tier, so each tier's population is that workload's.
    const TierSummary& slice = s.per_tier[static_cast<std::size_t>(w)];
    const std::vector<double>& v = latencies[w];
    EXPECT_EQ(slice.tier, tiers[w]);
    EXPECT_EQ(slice.name, TierName(tiers[w]));
    EXPECT_EQ(slice.completed, static_cast<std::int64_t>(v.size()));
    EXPECT_EQ(Bits(slice.p50_ms), Bits(SortedPercentile(v, 50.0) * 1e3));
    EXPECT_EQ(Bits(slice.p99_ms), Bits(SortedPercentile(v, 99.0) * 1e3));
  }
  EXPECT_TRUE(s.timeline.empty());
  EXPECT_TRUE(s.per_node.empty());
}

TEST(ServeStatsTest, SummarizeMatchesSortReference) {
  for (const int requests : {1000, 30000}) {
    CheckSummaryAgainstSortReference(requests);
  }
}

TEST(ServeStatsTest, ArrivalsStayOrderedAndCountPerWorkload) {
  ServeStats stats(1, 2);
  stats.RecordArrival(0, 0.1);
  stats.RecordArrival(1, 0.2);
  stats.RecordArrival(0, 0.2);  // Same instant is still in order.
  stats.RecordArrival(1, 0.5);
  stats.RecordArrival(0, 0.7);
  // Out of order across workloads: the check is run-wide, not per tenant.
  EXPECT_THROW(stats.RecordArrival(0, 0.6), CheckError);
  EXPECT_THROW(stats.RecordArrival(1, 0.0), CheckError);

  EXPECT_EQ(stats.ArrivalsInWindow(0, 0.0, 1.0), 3);
  EXPECT_EQ(stats.ArrivalsInWindow(1, 0.0, 1.0), 2);
  EXPECT_EQ(stats.ArrivalsInWindow(0, 0.1, 0.2), 1);  // [t0, t1): 0.2 out.
  EXPECT_EQ(stats.ArrivalsInWindow(0, 0.2, 0.7), 1);
  EXPECT_EQ(stats.ArrivalsInWindow(1, 0.2, 0.5), 1);
  EXPECT_EQ(stats.ArrivalsInWindow(1, 0.6, 2.0), 0);
  // The rejected stamps were not recorded.
  EXPECT_EQ(stats.ArrivalsInWindow(0, 0.6, 0.7), 0);
  EXPECT_EQ(stats.ArrivalsInWindow(1, 0.0, 0.1), 0);
  stats.RecordArrival(1, 0.7);
  EXPECT_EQ(stats.ArrivalsInWindow(1, 0.0, 1.0), 3);
}

TEST(ServeStatsTest, SummarizesLatencyAndUtilization) {
  ServeStats stats(2);
  stats.RecordRequest(0.0, 0.010);
  stats.RecordRequest(0.0, 0.020);
  stats.RecordRequest(0.0, 0.030);
  stats.RecordRequest(0.0, 0.040);
  stats.RecordBatch(4, 6);
  stats.RecordReplicaBusy(0, 0.02);
  stats.RecordReplicaBusy(1, 0.01);

  const StatsSummary s = stats.Summarize(100.0, 0.04);
  EXPECT_EQ(s.completed, 4);
  EXPECT_DOUBLE_EQ(s.p50_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 40.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 25.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_batch, 4.0);
  EXPECT_EQ(s.max_queue_depth, 6);
  ASSERT_EQ(s.replica_utilization.size(), 2u);
  EXPECT_DOUBLE_EQ(s.replica_utilization[0], 0.5);
  EXPECT_DOUBLE_EQ(s.replica_utilization[1], 0.25);
  // The rendered table mentions the headline metrics.
  const std::string table = ServeStats::ToTable(s);
  EXPECT_NE(table.find("latency p99"), std::string::npos);
  EXPECT_NE(table.find("throughput"), std::string::npos);
}

// ------------------------------------------------------- batched kernels

struct Deployed {
  std::unique_ptr<OperatorGraph> graph;
  std::unique_ptr<DataflowGraph> dfg;
  DseResult dse;
};

Deployed CompileNvsa() {
  Deployed d;
  d.graph = std::make_unique<OperatorGraph>(workloads::MakeNvsa());
  d.dfg = std::make_unique<DataflowGraph>(*d.graph);
  d.dse = RunTwoPhaseDse(*d.dfg, {});
  return d;
}

TEST(BatchedKernelTest, GemmBatchMatchesGoldenAndAmortizesCycles) {
  const Deployed d = CompileNvsa();
  runtime::Accelerator accel(d.dse.design, *d.dfg);
  Rng rng(3);
  Tensor b({12, 6});
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b.at(i) = static_cast<float>(rng.Gaussian());
  }
  std::vector<Tensor> as;
  for (int r = 0; r < 4; ++r) {
    Tensor a({5, 12});
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      a.at(i) = static_cast<float>(rng.Gaussian());
    }
    as.push_back(std::move(a));
  }

  const runtime::BatchedKernelRun batched = accel.RunGemmBatched(as, b);
  ASSERT_EQ(batched.outputs.size(), 4u);
  for (std::size_t r = 0; r < as.size(); ++r) {
    const Tensor golden = MatMul(as[r], b);
    ASSERT_EQ(batched.outputs[r].numel(), golden.numel());
    for (std::int64_t i = 0; i < golden.numel(); ++i) {
      EXPECT_NEAR(batched.outputs[r].at(i), golden.at(i), 1e-3);
    }
  }

  // One batched launch is cheaper than four singles (shared pipeline fill).
  runtime::Accelerator solo(d.dse.design, *d.dfg);
  double single_cycles = 0.0;
  for (const auto& a : as) {
    single_cycles += solo.RunGemm(a, b).device_cycles;
  }
  EXPECT_GT(batched.device_cycles, 0.0);
  EXPECT_LT(batched.device_cycles, single_cycles);
}

TEST(BatchedKernelTest, WorkloadBatchAmortizesWeightTraffic) {
  const Deployed d = CompileNvsa();
  runtime::Accelerator accel(d.dse.design, *d.dfg);
  const double single = accel.RunWorkloadBatch(1);
  EXPECT_DOUBLE_EQ(single, accel.RunWorkload());
  const double batch4 = accel.RunWorkloadBatch(4);
  const double batch8 = accel.RunWorkloadBatch(8);
  // Batching amortizes: total grows with batch size but stays below the
  // pay-per-request total, and the marginal request is cheaper than the
  // first (which carries the pipeline fill and the weight load).
  EXPECT_GT(batch4, single);
  EXPECT_GT(batch8, batch4);
  EXPECT_LT(batch4, 4.0 * single);
  EXPECT_LT(batch8, 8.0 * single);
  EXPECT_LT(batch8 - batch4, 4.0 * single);
}

// -------------------------------------------------------------- dispatch

std::vector<AcceleratorDesign> Pool(const Deployed& d, int replicas) {
  return std::vector<AcceleratorDesign>(static_cast<std::size_t>(replicas),
                                        d.dse.design);
}

TEST(ServerPoolTest, DispatchIsDeterministicUnderFixedSeed) {
  const Deployed d = CompileNvsa();
  ServeOptions options;
  options.qps = 150.0;
  options.duration_s = 0.5;
  options.max_batch = 8;
  options.seed = 1234;

  const ServeReport first = RunSyntheticServe(*d.dfg, Pool(d, 4), options);
  const ServeReport second = RunSyntheticServe(*d.dfg, Pool(d, 4), options);

  ASSERT_EQ(first.dispatches.size(), second.dispatches.size());
  for (std::size_t i = 0; i < first.dispatches.size(); ++i) {
    EXPECT_EQ(first.dispatches[i].replica, second.dispatches[i].replica);
    EXPECT_DOUBLE_EQ(first.dispatches[i].start_s,
                     second.dispatches[i].start_s);
    EXPECT_DOUBLE_EQ(first.dispatches[i].complete_s,
                     second.dispatches[i].complete_s);
    EXPECT_EQ(first.dispatches[i].size, second.dispatches[i].size);
  }
  EXPECT_DOUBLE_EQ(first.summary.p99_ms, second.summary.p99_ms);
  EXPECT_DOUBLE_EQ(first.summary.throughput_rps,
                   second.summary.throughput_rps);

  // A different seed produces a different arrival trace.
  options.seed = 99;
  const ServeReport other = RunSyntheticServe(*d.dfg, Pool(d, 4), options);
  EXPECT_NE(other.generated_requests, 0);
  EXPECT_NE(other.summary.p99_ms, first.summary.p99_ms);
}

TEST(ServerPoolTest, EarliestAvailableDispatchBalancesReplicas) {
  const Deployed d = CompileNvsa();
  // Four equal batches, all formed at t=0: each replica must take exactly
  // one (earliest-available with lowest-id tie-break = round robin here).
  std::vector<Batch> batches(4);
  for (int b = 0; b < 4; ++b) {
    batches[static_cast<std::size_t>(b)].formed_s = 0.0;
    batches[static_cast<std::size_t>(b)].requests = {At(b, 0.0)};
  }
  ServerPool pool(Pool(d, 4), *d.dfg);
  ServeStats stats(pool.size());
  const auto records = pool.Dispatch(batches, &stats);
  ASSERT_EQ(records.size(), 4u);
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(records[static_cast<std::size_t>(b)].replica, b);
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(b)].start_s, 0.0);
  }
}

TEST(ServerPoolTest, ReplicationScalesSaturatedThroughput) {
  const Deployed d = CompileNvsa();
  ServeOptions options;
  options.duration_s = 1.0;
  options.max_batch = 8;
  options.seed = 42;
  // Saturating load for even the largest pool.
  options.qps = 800.0;

  const double one =
      RunSyntheticServe(*d.dfg, Pool(d, 1), options).summary.throughput_rps;
  const double four =
      RunSyntheticServe(*d.dfg, Pool(d, 4), options).summary.throughput_rps;
  EXPECT_GT(one, 0.0);
  // Acceptance bar: 4 replicas at saturation >= 2x the single-replica
  // baseline (in practice close to 4x).
  EXPECT_GE(four, 2.0 * one);
}

TEST(ServerPoolTest, HeterogeneousParetoPoolServes) {
  const Deployed d = CompileNvsa();
  const auto frontier = ParetoDesigns(*d.dfg, DseOptions{}, 3);
  ASSERT_GE(frontier.size(), 1u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    // Largest budget first, strictly shrinking area along the frontier.
    EXPECT_LT(frontier[i].pes, frontier[i - 1].pes);
  }

  std::vector<AcceleratorDesign> designs;
  for (int r = 0; r < 3; ++r) {
    designs.push_back(frontier[static_cast<std::size_t>(r) % frontier.size()]
                          .design);
  }
  ServeOptions options;
  options.qps = 120.0;
  options.duration_s = 0.5;
  options.seed = 5;
  const ServeReport report = RunSyntheticServe(*d.dfg, designs, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  EXPECT_GT(report.summary.throughput_rps, 0.0);
  ASSERT_EQ(report.summary.replica_utilization.size(), 3u);
}

// ------------------------------------------------------ selection index

// What the replica-selection index must answer, by brute force: the
// non-draining replicas deployed for `workload` (on `node` when >= 0),
// argmin over (free_at, id).
struct Argmin {
  double free_at = std::numeric_limits<double>::infinity();
  int replica = -1;
};

Argmin BruteForceEarliest(const ServerPool& pool, WorkloadId workload,
                          int node) {
  Argmin best;
  for (int r = 0; r < pool.size(); ++r) {
    if (pool.draining(r) || !pool.CanServe(r, workload) ||
        (node >= 0 && pool.NodeOf(r) != node)) {
      continue;
    }
    if (best.replica < 0 || pool.FreeAt(r) < best.free_at) {
      best = {pool.FreeAt(r), r};  // Ascending ids: ties keep the lowest.
    }
  }
  return best;
}

// Whether `replica` can leave `workload`'s capable set without orphaning it.
bool HasOtherServer(const ServerPool& pool, int replica, WorkloadId w) {
  for (int r = 0; r < pool.size(); ++r) {
    if (r != replica && !pool.draining(r) && pool.CanServe(r, w)) {
      return true;
    }
  }
  return false;
}

// Random add / fail / drain / refit / node-move / dispatch sequences over a
// three-node, two-workload pool. After every step the index's answers —
// EarliestFree pool-wide and per node, NodeCanServe, and the replica the
// next Dispatch picks — must equal the brute-force argmin. Times sit on a
// coarse grid and equal designs finish equal batches together, so ties on
// free_at are common and the lowest-id tie order is exercised.
TEST(ServerPoolTest, SelectionIndexMatchesBruteForceArgmin) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> partitioned =
      registry.ReplicaSpecs(4, /*partitioned=*/true);
  // Deployment templates: dedicated to workload 0, to workload 1, or both
  // (on resnet18's design, whose memory also fits mlp).
  std::vector<ReplicaSpec> templates = {partitioned[0], partitioned[1]};
  templates.push_back(partitioned[1]);
  templates.back().workloads.clear();
  constexpr int kNodes = 3;
  constexpr int kWorkloads = 2;

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ServerPool pool(partitioned, registry.Dataflows());
    std::vector<double> up_at(partitioned.size(), 0.0);  // Outage warm-ups.
    double now = 0.0;
    std::int64_t next_id = 0;
    int applied[6] = {};  // Per step kind: add, fail, drain, refit, move,
                          // dispatch.
    for (int step = 0; step < 300; ++step) {
      now += 0.5 * static_cast<double>(rng.UniformInt(0, 1)) * 1e-3;
      const int r = static_cast<int>(rng.UniformInt(0, pool.size() - 1));
      const auto ri = static_cast<std::size_t>(r);
      switch (rng.UniformInt(0, 9)) {
        case 0: {  // Warm-add, ready on the grid.
          const auto& spec = templates[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(templates.size()) -
                                    1))];
          const int added = pool.AddReplica(spec, now + 1e-3);
          pool.SetReplicaNode(added,
                              static_cast<int>(rng.UniformInt(0, kNodes - 1)));
          up_at.push_back(0.0);
          ++applied[0];
          break;
        }
        case 1: {  // Fail, when the pool allows it.
          if (up_at[ri] <= now &&
              pool.ResolveFaultTarget(r, now, /*for_failure=*/true) == r) {
            pool.FailReplica(r, now, now + 2e-3, 0.5e-3);
            up_at[ri] = now + 2.5e-3;
            ++applied[1];
          }
          break;
        }
        case 2: {  // Drain, unless it would orphan a workload.
          bool safe = !pool.draining(r);
          for (WorkloadId w = 0; safe && w < kWorkloads; ++w) {
            safe = !pool.CanServe(r, w) || HasOtherServer(pool, r, w);
          }
          if (safe) {
            pool.DrainReplica(r, now);
            ++applied[2];
          }
          break;
        }
        case 3: {  // Refit to another template, unless it would orphan.
          const auto& spec = templates[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(templates.size()) -
                                    1))];
          bool safe = !pool.draining(r);
          for (WorkloadId w = 0; safe && w < kWorkloads; ++w) {
            const bool keeps =
                spec.workloads.empty() ||
                std::find(spec.workloads.begin(), spec.workloads.end(), w) !=
                    spec.workloads.end();
            safe = keeps || !pool.CanServe(r, w) ||
                   HasOtherServer(pool, r, w);
          }
          if (safe) {
            pool.RefitInPlace(r, spec, now + 1e-3);
            ++applied[3];
          }
          break;
        }
        case 4:  // Move to another node.
          pool.SetReplicaNode(r,
                              static_cast<int>(rng.UniformInt(0, kNodes - 1)));
          ++applied[4];
          break;
        default: {  // Dispatch, pool-wide or narrowed to a node.
          const auto w = static_cast<WorkloadId>(rng.UniformInt(0, 1));
          const int node = rng.Bernoulli(0.5)
                               ? static_cast<int>(rng.UniformInt(0, kNodes - 1))
                               : -1;
          const Argmin expect = BruteForceEarliest(pool, w, node);
          if (expect.replica < 0) {
            break;  // Nothing capable there: Dispatch would throw.
          }
          Batch batch;
          batch.workload = w;
          batch.formed_s = now;
          const auto size = rng.UniformInt(1, 4);
          for (std::int64_t i = 0; i < size; ++i) {
            batch.requests.push_back(Request{next_id++, now, w});
          }
          const DispatchRecord record = pool.Dispatch(batch, nullptr, 0, node);
          ASSERT_EQ(record.replica, expect.replica) << "step " << step;
          EXPECT_EQ(Bits(record.start_s),
                    Bits(std::max(now, expect.free_at)));
          ++applied[5];
          break;
        }
      }
      for (WorkloadId w = 0; w < kWorkloads; ++w) {
        const Argmin all = BruteForceEarliest(pool, w, -1);
        ASSERT_EQ(Bits(pool.EarliestFree(w)), Bits(all.free_at))
            << "step " << step << " workload " << w;
        for (int n = 0; n < kNodes + 1; ++n) {
          const Argmin on_node = BruteForceEarliest(pool, w, n);
          ASSERT_EQ(Bits(pool.EarliestFree(w, n)), Bits(on_node.free_at))
              << "step " << step << " workload " << w << " node " << n;
          ASSERT_EQ(pool.NodeCanServe(w, n), on_node.replica >= 0)
              << "step " << step << " workload " << w << " node " << n;
        }
      }
    }
    for (const int count : applied) {
      EXPECT_GT(count, 0);
    }
    EXPECT_GT(applied[5], 100);
  }
}

}  // namespace
}  // namespace nsflow::serve
