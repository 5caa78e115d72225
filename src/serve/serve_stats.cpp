#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/table.h"
#include "obs/metrics.h"

namespace nsflow::serve {

ServeStats::ServeStats(int replicas, int workloads) {
  NSF_CHECK_MSG(replicas >= 1, "a serve pool needs at least one replica");
  NSF_CHECK_MSG(workloads >= 1, "stats need at least one workload slice");
  replica_busy_s_.assign(static_cast<std::size_t>(replicas), 0.0);
  replica_spans_.assign(
      static_cast<std::size_t>(replicas),
      {0.0, std::numeric_limits<double>::infinity()});
  workloads_.resize(static_cast<std::size_t>(workloads));
  for (int w = 0; w < workloads; ++w) {
    workloads_[static_cast<std::size_t>(w)].name =
        "workload " + std::to_string(w);
  }
}

void ServeStats::Reserve(const std::vector<std::int64_t>& per_workload) {
  for (std::size_t w = 0; w < per_workload.size(); ++w) {
    workloads_[Slot(static_cast<WorkloadId>(w))].latencies_s.reserve(
        static_cast<std::size_t>(std::max<std::int64_t>(0, per_workload[w])));
  }
}

void ServeStats::Reserve(std::int64_t expected_requests) {
  if (workloads_.size() == 1) {
    Reserve(std::vector<std::int64_t>{expected_requests});
  }
}

std::size_t ServeStats::Slot(WorkloadId w) const {
  NSF_CHECK_MSG(w >= 0 && w < static_cast<int>(workloads_.size()),
                "workload index out of range");
  return static_cast<std::size_t>(w);
}

void ServeStats::SetWorkloadName(WorkloadId w, std::string name) {
  workloads_[Slot(w)].name = std::move(name);
}

void ServeStats::SetWorkloadTier(WorkloadId w, SlaTier tier) {
  workloads_[Slot(w)].tier = tier;
  tiers_set_ = true;
  AttachTierHistograms();
}

void ServeStats::AttachTierHistograms() {
  if (registry_ == nullptr || !tiers_set_) {
    return;
  }
  for (int t = 0; t < 3; ++t) {
    tier_hists_[t] = registry_->GetHistogram(
        std::string("serve.latency_s.") + TierName(static_cast<SlaTier>(t)));
  }
}

void ServeStats::RecordRequest(WorkloadId workload, double arrival_s,
                               double complete_s) {
  NSF_CHECK_MSG(complete_s >= arrival_s,
                "completion cannot precede arrival");
  WorkloadRecord& record = workloads_[Slot(workload)];
  const double latency_s = complete_s - arrival_s;
  record.latencies_s.push_back(latency_s);
  record.latency_sum_s += latency_s;
  latency_sum_s_ += latency_s;
  ++completed_;
  last_completion_s_ = std::max(last_completion_s_, complete_s);
  if (latency_hist_ != nullptr) {
    latency_hist_->Observe(latency_s);
  }
  if (tiers_set_) {
    obs::Histogram* hist = tier_hists_[static_cast<int>(record.tier)];
    if (hist != nullptr) {
      hist->Observe(latency_s);
    }
  }
  if (completed_counter_ != nullptr) {
    completed_counter_->Increment();
  }
}

void ServeStats::RecordBatch(WorkloadId workload, std::int64_t size,
                             std::int64_t queue_depth) {
  NSF_CHECK_MSG(size >= 1, "batches are non-empty");
  WorkloadRecord& record = workloads_[Slot(workload)];
  ++record.batches;
  record.batched_requests += size;
  const std::int64_t depth = std::max<std::int64_t>(0, queue_depth);
  depth_sum_ += depth;
  max_depth_ = std::max(max_depth_, depth);
  if (batch_counter_ != nullptr) {
    batch_counter_->Increment();
  }
}

void ServeStats::RecordReplicaBusy(int index, double busy_s) {
  NSF_CHECK_MSG(index >= 0 &&
                    index < static_cast<int>(replica_busy_s_.size()),
                "replica index out of range");
  replica_busy_s_[static_cast<std::size_t>(index)] += busy_s;
}

void ServeStats::RecordArrival(WorkloadId workload, double arrival_s) {
  std::vector<double>& stamps = workloads_[Slot(workload)].arrivals_s;
  NSF_CHECK_MSG(arrival_s >= last_arrival_s_,
                "arrivals must be recorded in time order");
  last_arrival_s_ = arrival_s;
  stamps.push_back(arrival_s);
}

std::int64_t ServeStats::ArrivalsInWindow(WorkloadId workload, double t0,
                                          double t1) const {
  const std::vector<double>& stamps = workloads_[Slot(workload)].arrivals_s;
  return std::lower_bound(stamps.begin(), stamps.end(), t1) -
         std::lower_bound(stamps.begin(), stamps.end(), t0);
}

void ServeStats::RecordPoolEvent(PoolEvent event) {
  NSF_CHECK_MSG(timeline_.empty() || event.t_s >= timeline_.back().t_s,
                "timeline events must be recorded in time order");
  timeline_.push_back(std::move(event));
}

void ServeStats::AddReplicaSlot() {
  replica_busy_s_.push_back(0.0);
  replica_spans_.push_back({0.0, std::numeric_limits<double>::infinity()});
}

void ServeStats::SetReplicaSpan(int index, double added_s,
                                double retired_s) {
  NSF_CHECK_MSG(index >= 0 &&
                    index < static_cast<int>(replica_spans_.size()),
                "replica index out of range");
  NSF_CHECK_MSG(added_s >= 0.0 && retired_s >= added_s,
                "replica span must be a non-negative interval");
  replica_spans_[static_cast<std::size_t>(index)] = {added_s, retired_s};
}

void ServeStats::AttachMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    latency_hist_ = nullptr;
    completed_counter_ = nullptr;
    batch_counter_ = nullptr;
    tier_hists_[0] = tier_hists_[1] = tier_hists_[2] = nullptr;
    return;
  }
  latency_hist_ = registry->GetHistogram("serve.latency_s");
  completed_counter_ = registry->GetCounter("serve.completed");
  batch_counter_ = registry->GetCounter("serve.batches");
  AttachTierHistograms();
}

namespace {

// Nearest-rank index: the smallest value with at least p% of the `n`
// values at or below it sits at this position in ascending order.
std::size_t RankIndex(std::size_t n, double p) {
  NSF_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return std::min(index, n - 1);
}

struct Quantiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

// Nearest-rank p50/p95/p99 and the max of one population, by one
// nth_element cascade that reorders `*values` (all zero when it is empty).
// Selection returns the very element a full sort would put at each rank, so
// the quantiles are bit-identical to reading a sorted copy. The ranks are
// non-decreasing, and after each nth_element everything at or after the
// selected position is >= it, so every later rank lies in that tail.
Quantiles SelectQuantiles(std::vector<double>* values) {
  Quantiles q;
  if (values->empty()) {
    return q;
  }
  // Selects rank `p` within [from, end), then narrows `from` to it. The
  // value is read at once: the next step reorders [from, end).
  auto from = values->begin();
  auto select = [values, &from](double p) {
    const auto nth = values->begin() + static_cast<std::ptrdiff_t>(
                                           RankIndex(values->size(), p));
    std::nth_element(from, nth, values->end());
    from = nth;
    return *nth;
  };
  q.p50 = select(50.0);
  q.p95 = select(95.0);
  q.p99 = select(99.0);
  q.max = *std::max_element(from, values->end());
  return q;
}

// One population for SelectBracketed: the concatenation of `parts`, read in
// place.
using Population = std::vector<const std::vector<double>*>;

// The same quantiles as SelectQuantiles over the concatenated `parts`, by
// one read-only sweep instead of a copy and a cascade over everything.
//
// A strided sample, sorted, gives pivots for two brackets: a body bracket
// [lo, hi] around where the p50 rank should fall, and a tail bracket
// [tail_lo, +inf) starting below where the p95 rank should fall. The sweep
// counts the values below the body bracket, copies the ones inside either
// bracket, and needs nothing else. In ascending order the values below
// `lo` come first, so rank k lies in the body exactly when below <= k <
// below + inside, and is then the (k - below)-th smallest value inside
// it; the tail holds the top `tail` ranks, so p95, p99 and the max come
// from a cascade over it. Each answer is the very element a full sort puts
// at its rank. Ties are no exception — a value equal to a pivot is inside
// the bracket — and a body bracket whose two pivots are equal holds copies
// of one value, so it is counted, not copied. When a rank misses its
// bracket (an unlucky sample) or the population is too small to sample,
// the cascade over a copy answers.
Quantiles SelectBracketed(const Population& parts,
                          std::vector<double>* scratch) {
  constexpr std::size_t kSample = 1024;
  constexpr std::size_t kChunk = 4096;  // Values swept per room check.
  std::size_t n = 0;
  for (const std::vector<double>* part : parts) {
    n += part->size();
  }
  const auto cascade = [&] {
    scratch->clear();
    for (const std::vector<double>* part : parts) {
      scratch->insert(scratch->end(), part->begin(), part->end());
    }
    return SelectQuantiles(scratch);
  };
  if (n < 8 * kSample) {
    return cascade();
  }

  // The sample: the midpoints of kSample equal strides over the
  // concatenation.
  std::vector<double> sample;
  sample.reserve(kSample);
  std::size_t part = 0;
  std::size_t part_start = 0;
  for (std::size_t i = 0; i < kSample; ++i) {
    const std::size_t at = (2 * i + 1) * n / (2 * kSample);
    while (at >= part_start + parts[part]->size()) {
      part_start += parts[part]->size();
      ++part;
    }
    sample.push_back((*parts[part])[at - part_start]);
  }
  std::sort(sample.begin(), sample.end());

  // A rank's pivot positions in the sample: its expected position, widened
  // by four standard deviations of the binomial count of sample values
  // below it (plus two for rounding).
  const std::size_t k50 = RankIndex(n, 50.0);
  const std::size_t k95 = RankIndex(n, 95.0);
  const std::size_t k99 = RankIndex(n, 99.0);
  const auto pivot = [&](std::size_t rank, double side) {
    const double q =
        (static_cast<double>(rank) + 0.5) / static_cast<double>(n);
    const double kS = static_cast<double>(kSample);
    const double at = q * kS + side * (4.0 * std::sqrt(kS * q * (1.0 - q)) +
                                       2.0);
    return std::clamp(side < 0.0 ? std::floor(at) : std::ceil(at), 0.0,
                      kS - 1.0);
  };
  const double lo_at = pivot(k50, -1.0);
  const double hi_at = pivot(k50, 1.0);
  const double tail_at = pivot(k95, -1.0);
  const double lo = sample[static_cast<std::size_t>(lo_at)];
  const double hi = sample[static_cast<std::size_t>(hi_at)];
  const double tail_lo = sample[static_cast<std::size_t>(tail_at)];
  const auto expected = [&](double from_at, double to_at) {
    return static_cast<std::size_t>((to_at - from_at + 1.0) /
                                    static_cast<double>(kSample) *
                                    static_cast<double>(n) * 1.25) +
           kChunk;
  };
  const bool copy_body = lo != hi;
  std::vector<double> body(copy_body ? expected(lo_at, hi_at) : kChunk);
  std::vector<double> tail(expected(tail_at, static_cast<double>(kSample)));

  // Branch-free sweep: each value is written to both brackets' next free
  // slots, which only advance when it is inside. A counting body bracket
  // never advances. Room for a whole chunk is checked once per chunk.
  const std::size_t body_step = copy_body ? 1 : 0;
  std::size_t below = 0;      // Values < lo.
  std::size_t not_above = 0;  // Values <= hi.
  std::size_t body_n = 0;     // Copied into `body`.
  std::size_t tail_n = 0;     // Copied into `tail` (values >= tail_lo).
  for (const std::vector<double>* values : parts) {
    for (std::size_t from = 0; from < values->size(); from += kChunk) {
      if (body.size() - body_n < kChunk) {
        body.resize(2 * body.size());
      }
      if (tail.size() - tail_n < kChunk) {
        tail.resize(2 * tail.size());
      }
      const std::size_t to = std::min(values->size(), from + kChunk);
      double* body_out = body.data();
      double* tail_out = tail.data();
      for (std::size_t i = from; i < to; ++i) {
        const double v = (*values)[i];
        const std::size_t lt = v < lo;
        const std::size_t le = v <= hi;
        below += lt;
        not_above += le;
        body_out[body_n] = v;
        body_n += (le - lt) * body_step;
        tail_out[tail_n] = v;
        tail_n += static_cast<std::size_t>(!(v < tail_lo));
      }
    }
  }

  Quantiles q;
  if (k50 < below || k50 >= not_above) {
    return cascade();
  }
  if (copy_body) {
    const auto nth =
        body.begin() + static_cast<std::ptrdiff_t>(k50 - below);
    std::nth_element(body.begin(), nth,
                     body.begin() + static_cast<std::ptrdiff_t>(body_n));
    q.p50 = *nth;
  } else {
    q.p50 = lo;
  }
  // The tail holds ranks [n - tail_n, n): select p95 and p99 there by the
  // same cascade as SelectQuantiles, then the max of what is left.
  const std::size_t tail_from = n - tail_n;
  if (k95 < tail_from) {
    return cascade();
  }
  const auto end = tail.begin() + static_cast<std::ptrdiff_t>(tail_n);
  const auto nth95 =
      tail.begin() + static_cast<std::ptrdiff_t>(k95 - tail_from);
  std::nth_element(tail.begin(), nth95, end);
  q.p95 = *nth95;
  const auto nth99 =
      tail.begin() + static_cast<std::ptrdiff_t>(k99 - tail_from);
  std::nth_element(nth95, nth99, end);
  q.p99 = *nth99;
  q.max = *std::max_element(nth99, end);
  return q;
}

}  // namespace

double ServeStats::Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(RankIndex(values.size(), p));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

StatsSummary ServeStats::Summarize(double offered_qps,
                                   double run_duration_s) const {
  StatsSummary s;
  s.completed = completed_;
  s.offered_qps = offered_qps;
  s.horizon_s = std::max(run_duration_s, last_completion_s_);
  if (s.horizon_s > 0.0 && s.completed > 0) {
    s.throughput_rps = static_cast<double>(s.completed) / s.horizon_s;
  }

  // Every population — the aggregate (all workloads together), each
  // workload slice, and each tier slice — is read in place; one scratch
  // buffer serves the copies a cascade fallback needs. Means divide
  // record-order running sums, which equal std::accumulate over the
  // record-order population bit for bit.
  std::vector<double> scratch;
  std::int64_t batched_requests = 0;
  Population population;
  for (const WorkloadRecord& record : workloads_) {
    population.push_back(&record.latencies_s);
    s.batches += record.batches;
    batched_requests += record.batched_requests;
  }
  const Quantiles all = SelectBracketed(population, &scratch);
  s.p50_ms = all.p50 * 1e3;
  s.p95_ms = all.p95 * 1e3;
  s.p99_ms = all.p99 * 1e3;
  s.max_ms = all.max * 1e3;
  if (completed_ > 0) {
    s.mean_ms = latency_sum_s_ / static_cast<double>(completed_) * 1e3;
  }
  if (s.batches > 0) {
    s.mean_batch = static_cast<double>(batched_requests) /
                   static_cast<double>(s.batches);
    s.mean_queue_depth =
        static_cast<double>(depth_sum_) / static_cast<double>(s.batches);
    s.max_queue_depth = max_depth_;
  }

  s.replica_utilization.reserve(replica_busy_s_.size());
  for (std::size_t r = 0; r < replica_busy_s_.size(); ++r) {
    // Busy share of the replica's *active span* within the horizon: a
    // warm-added or drained replica is judged against the time it was
    // actually provisioned, not the whole run (spans default to the full
    // horizon for static pools).
    const double span =
        std::min(replica_spans_[r].second, s.horizon_s) -
        std::min(replica_spans_[r].first, s.horizon_s);
    s.replica_utilization.push_back(
        span > 0.0 ? replica_busy_s_[r] / span : 0.0);
  }
  s.timeline = timeline_;

  s.per_workload.reserve(workloads_.size());
  for (const WorkloadRecord& record : workloads_) {
    WorkloadSummary slice;
    slice.name = record.name;
    slice.completed = static_cast<std::int64_t>(record.latencies_s.size());
    if (s.horizon_s > 0.0 && slice.completed > 0) {
      slice.throughput_rps =
          static_cast<double>(slice.completed) / s.horizon_s;
    }
    // A single workload's population is the aggregate: reuse its quantiles.
    const Quantiles q =
        workloads_.size() > 1
            ? SelectBracketed({&record.latencies_s}, &scratch)
            : all;
    slice.p50_ms = q.p50 * 1e3;
    slice.p95_ms = q.p95 * 1e3;
    slice.p99_ms = q.p99 * 1e3;
    slice.max_ms = q.max * 1e3;
    if (slice.completed > 0) {
      slice.mean_ms = record.latency_sum_s /
                      static_cast<double>(slice.completed) * 1e3;
    }
    slice.batches = record.batches;
    if (record.batches > 0) {
      slice.mean_batch = static_cast<double>(record.batched_requests) /
                         static_cast<double>(record.batches);
    }
    s.per_workload.push_back(std::move(slice));
  }

  // Tier slices (admission-tiered runs): each tier's percentiles over its
  // own population, so batch-tier latencies cannot dilute the critical
  // tier's p99.
  if (tiers_set_) {
    for (int t = 0; t < 3; ++t) {
      const SlaTier tier = static_cast<SlaTier>(t);
      population.clear();
      std::int64_t completed = 0;
      for (const WorkloadRecord& record : workloads_) {
        if (record.tier == tier) {
          population.push_back(&record.latencies_s);
          completed += static_cast<std::int64_t>(record.latencies_s.size());
        }
      }
      if (population.empty()) {
        continue;  // No tenant mapped to this tier: no slice row.
      }
      TierSummary slice;
      slice.name = TierName(tier);
      slice.tier = tier;
      slice.completed = completed;
      const Quantiles q = SelectBracketed(population, &scratch);
      slice.p50_ms = q.p50 * 1e3;
      slice.p99_ms = q.p99 * 1e3;
      s.per_tier.push_back(std::move(slice));
    }
  }
  return s;
}

std::string ServeStats::ToTable(const StatsSummary& s) {
  TablePrinter table({"metric", "value"});
  table.AddRow({"requests completed", std::to_string(s.completed)});
  table.AddRow({"batches dispatched", std::to_string(s.batches)});
  table.AddRow({"offered load", TablePrinter::Num(s.offered_qps, 1) + " rps"});
  table.AddRow(
      {"throughput", TablePrinter::Num(s.throughput_rps, 1) + " rps"});
  table.AddRow({"latency p50", TablePrinter::Num(s.p50_ms, 3) + " ms"});
  table.AddRow({"latency p95", TablePrinter::Num(s.p95_ms, 3) + " ms"});
  table.AddRow({"latency p99", TablePrinter::Num(s.p99_ms, 3) + " ms"});
  table.AddRow({"latency mean", TablePrinter::Num(s.mean_ms, 3) + " ms"});
  table.AddRow({"latency max", TablePrinter::Num(s.max_ms, 3) + " ms"});
  table.AddRow({"mean batch size", TablePrinter::Num(s.mean_batch, 2)});
  table.AddRow(
      {"mean queue depth", TablePrinter::Num(s.mean_queue_depth, 2)});
  table.AddRow({"max queue depth", std::to_string(s.max_queue_depth)});
  for (std::size_t i = 0; i < s.replica_utilization.size(); ++i) {
    table.AddRow({"replica " + std::to_string(i) + " utilization",
                  TablePrinter::Percent(s.replica_utilization[i])});
  }
  std::string out = table.ToString();

  // Per-workload breakdown, only meaningful for multi-tenant runs.
  if (s.per_workload.size() >= 2) {
    TablePrinter breakdown({"workload", "completed", "throughput (rps)",
                            "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean batch"});
    for (const WorkloadSummary& w : s.per_workload) {
      breakdown.AddRow({w.name, std::to_string(w.completed),
                        TablePrinter::Num(w.throughput_rps, 1),
                        TablePrinter::Num(w.p50_ms, 3),
                        TablePrinter::Num(w.p95_ms, 3),
                        TablePrinter::Num(w.p99_ms, 3),
                        TablePrinter::Num(w.mean_batch, 2)});
    }
    out += "\n" + breakdown.ToString();
  }

  // Per-node cluster slices (clustered runs only, docs/CLUSTER.md).
  if (!s.per_node.empty()) {
    TablePrinter nodes({"node", "replicas", "batches", "remote", "bytes in",
                        "bytes out", "network (ms)"});
    for (const NodeSummary& n : s.per_node) {
      nodes.AddRow({"node " + std::to_string(n.node),
                    std::to_string(n.replicas), std::to_string(n.batches),
                    std::to_string(n.remote_batches),
                    TablePrinter::Num(n.bytes_in, 0),
                    TablePrinter::Num(n.bytes_out, 0),
                    TablePrinter::Num(n.network_s * 1e3, 3)});
    }
    out += "\n" + nodes.ToString();
  }

  // SLA-tier breakdown (admission-tiered runs only).
  if (!s.per_tier.empty()) {
    TablePrinter tiers({"tier", "completed", "p50 (ms)", "p99 (ms)"});
    for (const TierSummary& t : s.per_tier) {
      tiers.AddRow({t.name, std::to_string(t.completed),
                    TablePrinter::Num(t.p50_ms, 3),
                    TablePrinter::Num(t.p99_ms, 3)});
    }
    out += "\n" + tiers.ToString();
  }
  return out;
}

}  // namespace nsflow::serve
