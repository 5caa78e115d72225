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

  // One scratch buffer serves every population: the aggregate (all
  // workloads concatenated), each workload slice, and each tier slice.
  // Means divide record-order running sums, which equal std::accumulate
  // over the record-order population bit for bit.
  std::vector<double> scratch;
  scratch.reserve(static_cast<std::size_t>(completed_));
  std::int64_t batched_requests = 0;
  for (const WorkloadRecord& record : workloads_) {
    scratch.insert(scratch.end(), record.latencies_s.begin(),
                   record.latencies_s.end());
    s.batches += record.batches;
    batched_requests += record.batched_requests;
  }
  const Quantiles all = SelectQuantiles(&scratch);
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
    Quantiles q = all;
    if (workloads_.size() > 1) {
      scratch.assign(record.latencies_s.begin(), record.latencies_s.end());
      q = SelectQuantiles(&scratch);
    }
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
      scratch.clear();
      bool any = false;
      for (const WorkloadRecord& record : workloads_) {
        if (record.tier != tier) {
          continue;
        }
        any = true;
        scratch.insert(scratch.end(), record.latencies_s.begin(),
                       record.latencies_s.end());
      }
      if (!any) {
        continue;  // No tenant mapped to this tier: no slice row.
      }
      TierSummary slice;
      slice.name = TierName(tier);
      slice.tier = tier;
      slice.completed = static_cast<std::int64_t>(scratch.size());
      const Quantiles q = SelectQuantiles(&scratch);
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
