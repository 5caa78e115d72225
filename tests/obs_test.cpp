// Observability tests (docs/OBSERVABILITY.md): pinned histogram bucket
// boundaries, bit-exact Chrome/binary trace round trips, ring-buffer
// eviction accounting, fixed-seed trace determinism of an autoscaled
// diurnal run, the shared trace invariants (trace_invariants.h) on that
// run, and the structured logger's sink injection + level filter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"
#include "trace_invariants.h"

namespace nsflow::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(ObsHistogramTest, BucketBoundariesArePinned) {
  // The schema is a versioned contract: these exact boundaries must hold
  // across commits or serialized histograms stop being comparable.
  EXPECT_EQ(Histogram::kSchemaVersion, 1);
  EXPECT_EQ(Histogram::kBucketsPerOctave, 4);
  EXPECT_EQ(Histogram::kBucketCount, 112);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(0), 1e-6);
  // Whole octaves are exact powers of two of the base.
  EXPECT_DOUBLE_EQ(Histogram::Boundary(4), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(8), 4e-6);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(40), 1024e-6);
  // Quarter-octave steps are monotone with ~19% relative width.
  for (int i = 1; i < Histogram::kBucketCount; ++i) {
    const double ratio =
        Histogram::Boundary(i) / Histogram::Boundary(i - 1);
    EXPECT_NEAR(ratio, std::exp2(0.25), 1e-12);
  }
  // BucketFor agrees with the boundaries, including the exact edges.
  EXPECT_EQ(Histogram::BucketFor(1e-6), 0);
  EXPECT_EQ(Histogram::BucketFor(2e-6), 4);
  EXPECT_EQ(Histogram::BucketFor(2e-6 - 1e-12), 3);
  EXPECT_EQ(Histogram::BucketFor(0.5e-6), -1);  // Underflow.
  EXPECT_EQ(Histogram::BucketFor(1e9), Histogram::kBucketCount - 1);
}

TEST(ObsHistogramTest, ObserveMergeAndPercentileBracket) {
  Histogram a;
  for (int i = 0; i < 90; ++i) {
    a.Observe(1e-3);  // 1 ms.
  }
  for (int i = 0; i < 10; ++i) {
    a.Observe(50e-3);  // 50 ms tail.
  }
  EXPECT_EQ(a.count(), 100);
  EXPECT_NEAR(a.sum_s(), 90 * 1e-3 + 10 * 50e-3, 1e-12);
  EXPECT_DOUBLE_EQ(a.min_s(), 1e-3);
  EXPECT_DOUBLE_EQ(a.max_s(), 50e-3);
  // The bucketed percentile brackets the true value within one bucket
  // (<= 2^(1/4) relative error on the upper edge it reports).
  EXPECT_GE(a.ValueAtPercentile(50.0), 1e-3);
  EXPECT_LE(a.ValueAtPercentile(50.0), 1e-3 * std::exp2(0.25) + 1e-12);
  EXPECT_GE(a.ValueAtPercentile(99.0), 50e-3);
  EXPECT_LE(a.ValueAtPercentile(99.0), 50e-3 * std::exp2(0.25) + 1e-12);

  Histogram b;
  b.Observe(0.1e-6);  // Underflow slot.
  b.Merge(a);
  EXPECT_EQ(b.count(), 101);
  EXPECT_EQ(b.underflow(), 1);
  EXPECT_DOUBLE_EQ(b.max_s(), 50e-3);
  EXPECT_DOUBLE_EQ(b.min_s(), 0.1e-6);
}

TEST(ObsMetricsTest, RegistryPointersAreStableAndSnapshotsAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("serve.completed");
  EXPECT_EQ(c, registry.GetCounter("serve.completed"));
  c->Increment(3);
  registry.GetGauge("pool.rate")->Set(123.5);
  registry.GetHistogram("serve.latency_s")->Observe(2e-3);
  registry.TakeSnapshot(0.25);
  c->Increment();
  registry.TakeSnapshot(0.5);
  ASSERT_EQ(registry.timeline().size(), 2u);
  EXPECT_DOUBLE_EQ(registry.timeline()[0].t_s, 0.25);
  const std::string doc = registry.TimelineJson().Dump(0);
  EXPECT_NE(doc.find("\"nsflow-metrics\""), std::string::npos);
  EXPECT_NE(doc.find("serve.completed"), std::string::npos);
}

// ------------------------------------------------------------- round trips

TraceData SampleTrace() {
  TraceData data;
  RequestSpan r;
  r.request_id = 7;
  r.workload = 1;
  r.close = BatchClose::kSizeCap;
  r.arrival_s = 0.001;
  r.formed_s = 0.002;
  r.start_s = 0.0025;
  r.complete_s = 0.004;
  r.batch_index = 3;
  r.replica = 2;
  r.batch_size = 4;
  r.seq = 0;
  data.requests.push_back(r);
  BatchSpan b;
  b.batch_index = 3;
  b.workload = 1;
  b.replica = 2;
  b.close = BatchClose::kSizeCap;
  b.formed_s = 0.002;
  b.start_s = 0.0025;
  b.complete_s = 0.004;
  b.size = 4;
  b.seq = 1;
  data.batches.push_back(b);
  InstantEvent i;
  i.t_s = 0.25;
  i.kind = InstantKind::kReplicaAdded;
  i.replica = 5;
  i.workload = 1;
  i.detail = "add replica 5: demand above band";
  i.seq = 2;
  data.instants.push_back(i);
  CounterSample s;
  s.t_s = 0.25;
  s.window_rate_rps = 212.5;
  s.active_replicas = 6;
  s.queue_depth = 11;
  s.seq = 3;
  data.counters.push_back(s);
  return data;
}

TraceMeta SampleMeta() {
  TraceMeta meta;
  meta.workload_names = {"mlp", "resnet18"};
  meta.replicas = 6;
  meta.duration_s = 2.0;
  return meta;
}

TEST(ObsChromeTraceTest, SerializeParseReserializeIsBitExact) {
  for (const TraceDetail detail : {TraceDetail::kSpans, TraceDetail::kFull}) {
    const std::string text =
        WriteChromeTrace(SampleTrace(), SampleMeta(), detail);
    const std::vector<ChromeEvent> parsed = ParseChromeTrace(text);
    EXPECT_EQ(SerializeChromeTrace(parsed), text);
  }
}

TEST(ObsChromeTraceTest, FullDetailNestsPhaseSpans) {
  const auto spans = ParseChromeTrace(
      WriteChromeTrace(SampleTrace(), SampleMeta(), TraceDetail::kSpans));
  const auto full = ParseChromeTrace(
      WriteChromeTrace(SampleTrace(), SampleMeta(), TraceDetail::kFull));
  // One request: "form" and "execute" each add a "b"/"e" pair.
  EXPECT_EQ(full.size(), spans.size() + 4);
}

TEST(ObsChromeTraceTest, FullDetailBytesArePinned) {
  // The matrix golden digest exports at kSpans only; this pins every key,
  // fragment and number of the kFull layout, one event per line.
  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"args":{"name":"requests"},"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0},)"
      R"({"args":{"name":"replicas"},"name":"process_name","ph":"M","pid":2,"tid":0,"ts":0},)"
      R"({"args":{"name":"autoscaler"},"name":"process_name","ph":"M","pid":3,"tid":0,"ts":0},)"
      R"({"args":{"name":"mlp"},"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0},)"
      R"({"args":{"name":"resnet18"},"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0},)"
      R"({"args":{"name":"replica 0"},"name":"thread_name","ph":"M","pid":2,"tid":0,"ts":0},)"
      R"({"args":{"name":"replica 1"},"name":"thread_name","ph":"M","pid":2,"tid":1,"ts":0},)"
      R"({"args":{"name":"replica 2"},"name":"thread_name","ph":"M","pid":2,"tid":2,"ts":0},)"
      R"({"args":{"name":"replica 3"},"name":"thread_name","ph":"M","pid":2,"tid":3,"ts":0},)"
      R"({"args":{"name":"replica 4"},"name":"thread_name","ph":"M","pid":2,"tid":4,"ts":0},)"
      R"({"args":{"name":"replica 5"},"name":"thread_name","ph":"M","pid":2,"tid":5,"ts":0},)"
      R"({"args":{"name":"control loop"},"name":"thread_name","ph":"M","pid":3,"tid":0,"ts":0},)"
      R"({"args":{"rps":212.5},"cat":"autoscaler","name":"window_rate_rps","ph":"C","pid":3,"tid":0,"ts":250000},)"
      R"({"args":{"replicas":6},"cat":"autoscaler","name":"active_replicas","ph":"C","pid":3,"tid":0,"ts":250000},)"
      R"({"args":{"depth":11},"cat":"autoscaler","name":"queue_depth","ph":"C","pid":3,"tid":0,"ts":250000},)"
      R"({"args":{"detail":"add replica 5: demand above band","workload":"resnet18"},"cat":"replica","name":"added","ph":"i","pid":2,"s":"t","tid":5,"ts":250000},)"
      R"({"args":{"batch":3,"close":"size_cap","size":4},"cat":"batch","dur":1500,"name":"resnet18","ph":"X","pid":2,"tid":2,"ts":2500},)"
      R"({"cat":"request","id":"7","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":1000},)"
      R"({"cat":"request","id":"7","name":"form","ph":"b","pid":1,"tid":1,"ts":1000},)"
      R"({"cat":"request","id":"7","name":"form","ph":"e","pid":1,"tid":1,"ts":2000},)"
      R"({"cat":"request","id":"7","name":"execute","ph":"b","pid":1,"tid":1,"ts":2500},)"
      R"({"cat":"request","id":"7","name":"execute","ph":"e","pid":1,"tid":1,"ts":4000},)"
      R"({"args":{"batch":3,"batch_size":4,"close":"size_cap","replica":2},"cat":"request","id":"7","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})"
      R"(]})";
  EXPECT_EQ(WriteChromeTrace(SampleTrace(), SampleMeta(), TraceDetail::kFull),
            expected);
}

TEST(ObsBinaryTraceTest, EncodeDecodeReencodeIsByteExact) {
  const TraceData data = SampleTrace();
  const std::string bytes = SerializeBinaryTrace(data);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "NSFT");
  const TraceData decoded = ParseBinaryTrace(bytes);
  ASSERT_EQ(decoded.requests.size(), 1u);
  EXPECT_EQ(decoded.requests[0].request_id, 7);
  EXPECT_EQ(decoded.requests[0].close, BatchClose::kSizeCap);
  ASSERT_EQ(decoded.instants.size(), 1u);
  EXPECT_EQ(decoded.instants[0].detail, data.instants[0].detail);
  EXPECT_EQ(SerializeBinaryTrace(decoded), bytes);
}

TEST(ObsBinaryTraceTest, RejectsBadMagicAndTruncation) {
  const std::string bytes = SerializeBinaryTrace(SampleTrace());
  std::string corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_THROW(ParseBinaryTrace(corrupted), std::exception);
  EXPECT_THROW(ParseBinaryTrace(bytes.substr(0, bytes.size() / 2)),
               std::exception);
}

// ---------------------------------------------------------------- recorder

TEST(ObsRecorderTest, RingModeDropsOldestAndCounts) {
  TraceRecorder recorder(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    RequestSpan span;
    span.request_id = i;
    span.complete_s = static_cast<double>(i);
    recorder.RecordRequest(span);
  }
  const TraceData data = recorder.Drain();
  ASSERT_EQ(data.requests.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6);
  EXPECT_EQ(data.dropped, 6);
  // The retained window is the newest records, in time order.
  EXPECT_EQ(data.requests.front().request_id, 6);
  EXPECT_EQ(data.requests.back().request_id, 9);
  // Control-plane instants are never ring-evicted.
  for (int i = 0; i < 10; ++i) {
    InstantEvent event;
    event.t_s = static_cast<double>(i);
    recorder.RecordInstant(event);
  }
  EXPECT_EQ(recorder.Drain().instants.size(), 10u);
}

TEST(ObsRecorderTest, DrainOrdersByTimestampThenSeq) {
  TraceRecorder recorder;
  for (int i = 0; i < 3; ++i) {
    BatchSpan span;
    span.batch_index = i;
    span.start_s = 0.5;  // Identical stamps: seq breaks the tie.
    recorder.RecordBatch(span);
  }
  const TraceData data = recorder.Drain();
  ASSERT_EQ(data.batches.size(), 3u);
  EXPECT_LT(data.batches[0].seq, data.batches[1].seq);
  EXPECT_LT(data.batches[1].seq, data.batches[2].seq);
}

// ------------------------------------------------- traced serve invariants

serve::ServeReport TracedDiurnalRun(serve::WorkloadRegistry& registry) {
  const std::vector<serve::WorkloadShare> mix = {{"mlp", 0.3},
                                                 {"resnet18", 0.7}};
  const std::vector<serve::ReplicaSpec> replicas =
      registry.ReplicaSpecs(2, /*partition=*/true);
  serve::ServeOptions options;
  options.qps = 300.0;
  options.duration_s = 1.5;
  options.seed = 42;
  options.scenario = serve::ScenarioSpec::Parse("diurnal:depth=0.8");
  options.autoscale = true;
  options.autoscale_opts.max_replicas = 8;
  options.autoscale_opts.devices = 64;
  options.trace.enabled = true;
  options.trace.detail = TraceDetail::kFull;
  return serve::RunSyntheticServe(registry, replicas, mix, options);
}

TEST(ObsServeTest, FixedSeedTraceIsBitIdenticalAcrossRuns) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const serve::ServeReport first = TracedDiurnalRun(registry);
  const serve::ServeReport second = TracedDiurnalRun(registry);
  ASSERT_NE(first.obs, nullptr);
  ASSERT_NE(second.obs, nullptr);
  EXPECT_EQ(first.obs->ChromeTraceJson(), second.obs->ChromeTraceJson());
  EXPECT_EQ(first.obs->BinaryTrace(), second.obs->BinaryTrace());
  EXPECT_EQ(first.obs->MetricsJson(), second.obs->MetricsJson());
}

TEST(ObsServeTest, SpansSatisfyLifecycleInvariants) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const serve::ServeReport report = TracedDiurnalRun(registry);
  ASSERT_NE(report.obs, nullptr);
  const TraceData data = report.obs->recorder.Drain();

  // Span counts, lifecycle order, span/batch agreement, and conservation
  // come from the shared checker.
  const std::vector<std::string> violations =
      serve::CheckServeInvariants(report, data);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: " << violations.front();
  EXPECT_GT(data.counters.size(), 0u);  // Periodic autoscaler samples.
  // The autoscaled run recorded decision instants, and every applied delta
  // is mirrored as one.
  std::int64_t decisions = 0;
  for (const InstantEvent& instant : data.instants) {
    if (instant.kind == InstantKind::kAutoscalerDecision) {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, static_cast<std::int64_t>(report.deltas.size()));
}

// A fault run defers every batch's stats until the clock passes its
// completion. The serve.completed counter in each metrics snapshot must
// therefore track the virtual clock: never decreasing, already counting
// before the first fault, never ahead of the batches completed by the
// snapshot instant, and ending at the run's completed count.
TEST(ObsServeTest, FaultRunSnapshotsCountCompletionsAsTheClockPasses) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<serve::WorkloadShare> mix = {{"mlp", 0.6},
                                                 {"resnet18", 0.4}};
  serve::ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 2.0;
  options.seed = 7;
  options.adversity =
      serve::AdversitySpec::Parse("replica-fail:at=1,down=0.5,replica=0");
  options.trace.enabled = true;
  options.trace.snapshot_interval_s = 0.125;  // Exact multiples.
  const serve::ServeReport report = serve::RunSyntheticServe(
      registry, registry.ReplicaSpecs(4, /*partition=*/true), mix, options);
  ASSERT_NE(report.obs, nullptr);

  double first_fault_s = -1.0;
  for (const serve::PoolEvent& event : report.summary.timeline) {
    if (event.kind == serve::PoolEventKind::kFault) {
      first_fault_s = event.t_s;
      break;
    }
  }
  ASSERT_DOUBLE_EQ(first_fault_s, 1.0);

  const auto& timeline = report.obs->metrics.timeline();
  ASSERT_GE(timeline.size(), 10u);
  std::int64_t previous = 0;
  bool counted_before_fault = false;
  for (const MetricsSnapshot& snapshot : timeline) {
    std::int64_t completed = -1;
    for (const auto& [name, value] : snapshot.counters) {
      if (*name == "serve.completed") {
        completed = value;
      }
    }
    ASSERT_GE(completed, 0) << "no serve.completed at " << snapshot.t_s;
    std::int64_t done_by_then = 0;
    for (const serve::DispatchRecord& record : report.dispatches) {
      if (record.complete_s <= snapshot.t_s) {
        done_by_then += record.size;
      }
    }
    EXPECT_GE(completed, previous) << "at " << snapshot.t_s;
    EXPECT_LE(completed, done_by_then) << "at " << snapshot.t_s;
    counted_before_fault = counted_before_fault ||
                           (snapshot.t_s < first_fault_s && completed > 0);
    previous = completed;
  }
  EXPECT_TRUE(counted_before_fault);
  EXPECT_EQ(previous, report.summary.completed);
}

// ------------------------------------------------------------------ logger

// Periodic snapshot k is stamped at exactly k x interval. At an interval that is not
// a binary fraction, stepping the clock by repeated addition drifts: ten
// steps of 0.1 reach 0.99999999999999989, not 1.
TEST(ObsServeTest, SnapshotStampsAreWholeMultiplesOfTheInterval) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  serve::ServeOptions options;
  options.qps = 200.0;
  options.duration_s = 1.5;
  options.seed = 7;
  options.trace.enabled = true;
  options.trace.snapshot_interval_s = 0.1;
  const serve::ServeReport report = serve::RunSyntheticServe(
      registry, registry.ReplicaSpecs(2, /*partition=*/false),
      {{"mlp", 1.0}}, options);
  ASSERT_NE(report.obs, nullptr);

  // The last point is the run's horizon, not a periodic snapshot.
  const auto& timeline = report.obs->metrics.timeline();
  ASSERT_GE(timeline.size(), 11u);
  for (std::size_t i = 0; i + 1 < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].t_s, static_cast<double>(i + 1) * 0.1)
        << "snapshot " << i + 1;
  }
  EXPECT_EQ(timeline[9].t_s, 1.0);
}

TEST(ObsLoggingTest, SinkInjectionAndLevelFilter) {
  std::vector<LogRecord> captured;
  std::vector<std::string> messages;
  const LogLevel level = GetLogLevel();
  LogSink previous = SetLogSink([&](const LogRecord& record) {
    captured.push_back(record);
    messages.push_back(record.message);
  });
  SetLogLevel(LogLevel::kInfo);
  NSF_LOG(kDebug) << "filtered out";
  NSF_LOG(kInfo) << "count " << 42;
  NSF_LOG(kError) << "boom";
  SetLogSink(std::move(previous));
  SetLogLevel(level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(messages[0], "count 42");
  EXPECT_EQ(captured[0].level, LogLevel::kInfo);
  EXPECT_EQ(captured[1].level, LogLevel::kError);
  EXPECT_GT(captured[0].line, 0);
  EXPECT_NE(std::string(LogBasename(captured[0].file)), "");
  EXPECT_EQ(std::string(LogLevelName(LogLevel::kWarning)), "WARN");
}

}  // namespace
}  // namespace nsflow::obs
