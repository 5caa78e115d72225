// The traced mode: per-layer host time, measured from outside the program.
//
// Nothing inside the library records spans; the benchmark times each
// layer's own public functions on the workload's seeded inputs, in three
// ways:
//   - isolated calls: SyntheticArrivals, PlanCapacity (with and without a
//     pre-built PlanFrontier), ServerPool construction + WarmBatchSizes,
//     and the three trace/metrics exports;
//   - a replay of the arrival stream through the engine's hot-path calls
//     (AdmissionController::Offer, ServerPool::EarliestFree,
//     MultiBatchFormer::Add, ClusterPool::Route, ServerPool::Dispatch,
//     ServeStats::Summarize), each call timed on its own;
//   - on/off pairs of the same serve run: tracing on vs off, and
//     autoscaling on vs off.
// The benchmark's own spans (name, start, end, parent) are kept in memory
// around these calls and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Median of host-time samples (the benchmark's estimator throughout).
double Median(std::vector<double> values);

/// The benchmark's own spans, on a steady clock whose origin is the
/// SpanLog's construction.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  // Index of the enclosing span; -1 = root.
  };

  SpanLog() : origin_(Clock::now()) {}

  int Begin(std::string name, int parent = -1);
  void End(int span);
  /// A span whose interval was already timed.
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent);
  const std::vector<Span>& spans() const { return spans_; }
  /// {"spans": [{"name", "start_s", "end_s", "parent"}, ...]}.
  std::string ToJson() const;

 private:
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One named metric of the traced mode.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerReport {
  std::vector<LayerMetric> metrics;  // In BENCHMARK.json's per_layer order.
  /// Human-readable attribution table: each layer's host time and share of
  /// the user-visible run, largest first.
  std::vector<std::string> table;
  bool correct = true;
  std::vector<std::string> failures;
  std::int64_t serve_runs = 0;  // Whole serve runs made (for `attempted`).
};

/// Runs the traced mode for one workload. Every serve run it makes passes
/// the same output checks as the untraced mode.
LayerReport MeasureLayers(const WorkloadSpec& spec, std::uint64_t seed,
                          SpanLog* spans);

}  // namespace perfbench
