#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace nsflow::obs {

namespace {

constexpr int kRequestsPid = 1;
constexpr int kReplicasPid = 2;
constexpr int kAutoscalerPid = 3;
static_assert(kRequestsPid == 1 && kReplicasPid == 2 && kAutoscalerPid == 3,
              "ChromeWriter's constant fragments spell the pids out");

constexpr double kUsPerSecond = 1e6;

const char* CloseName(BatchClose close) {
  switch (close) {
    case BatchClose::kNone:
      return "";
    case BatchClose::kSizeCap:
      return "size_cap";
    case BatchClose::kDeadline:
      return "deadline";
    case BatchClose::kFlush:
      return "flush";
  }
  return "";
}

/// How an instant kind renders: its name, category and track.
struct InstantStyle {
  const char* name;
  const char* cat;
  int pid;
  bool on_replica;  // tid = the record's replica (else 0).
};

InstantStyle StyleOf(InstantKind kind) {
  switch (kind) {
    case InstantKind::kAutoscalerDecision:
      return {"decision", "autoscaler", kAutoscalerPid, false};
    case InstantKind::kAutoscalerDeferred:
      return {"add deferred", "autoscaler", kAutoscalerPid, false};
    case InstantKind::kReplicaAdded:
      return {"added", "replica", kReplicasPid, true};
    case InstantKind::kReplicaDraining:
      return {"draining", "replica", kReplicasPid, true};
    case InstantKind::kReplicaRetired:
      return {"retired", "replica", kReplicasPid, true};
    case InstantKind::kReplicaRefit:
      return {"refit", "replica", kReplicasPid, true};
    case InstantKind::kReplicaFailed:
      return {"failed", "replica", kReplicasPid, true};
    case InstantKind::kReplicaRecovered:
      return {"recovered", "replica", kReplicasPid, true};
    case InstantKind::kReplicaDerated:
      return {"derated", "replica", kReplicasPid, true};
    case InstantKind::kEnvironment:
      return {"environment", "adversity", kAutoscalerPid, false};
    case InstantKind::kAdmissionShed:
      return {"shed", "admission", kAutoscalerPid, false};
    case InstantKind::kAdmissionRetry:
      return {"retry", "admission", kAutoscalerPid, false};
    case InstantKind::kAdmissionExpired:
      return {"expired", "admission", kAutoscalerPid, false};
    case InstantKind::kClusterRoute:
      return {"route", "cluster", kAutoscalerPid, false};
  }
  return {"", "", kAutoscalerPid, false};
}

/// Workload track names, quoted and escaped once per export.
class WorkloadNames {
 public:
  explicit WorkloadNames(const TraceMeta& meta) {
    quoted_.reserve(meta.workload_names.size());
    for (const std::string& name : meta.workload_names) {
      AppendJsonString(quoted_.emplace_back(), name);
      longest_ = std::max(longest_, quoted_.back().size());
    }
  }

  /// The JSON string naming `workload` ("workload <id>" past the table).
  std::string_view operator()(std::int32_t workload) {
    if (workload >= 0 &&
        workload < static_cast<std::int32_t>(quoted_.size())) {
      return quoted_[static_cast<std::size_t>(workload)];
    }
    fallback_.clear();
    AppendJsonString(fallback_, "workload " + std::to_string(workload));
    return fallback_;
  }

  /// The longest quoted name in the table.
  std::size_t longest() const { return longest_; }

 private:
  std::vector<std::string> quoted_;
  std::size_t longest_ = 0;
  std::string fallback_;
};

/// Streams the trace_event document into one string. This is the single
/// owner of the key layout: every event writes its keys in sorted order
///   args, cat, dur, id, name, ph, pid, s, tid, ts
/// and args keys sorted as well — the order Json::Dump gives a parsed
/// document, which is what keeps Parse -> Serialize bit-exact. The record
/// kinds write their constant fragments whole; Event() is the general
/// form, used only to re-serialize parsed events.
class ChromeWriter {
 public:
  explicit ChromeWriter(std::string& out) : out_(out) {
    Put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  }

  void Finish() { Put("]}"); }

  void Event(const ChromeEvent& event) {
    Open();
    if (!event.args.empty()) {
      Put("\"args\":{");
      bool first = true;
      for (const auto& [key, value] : event.args) {
        if (!first) {
          out_.push_back(',');
        }
        first = false;
        AppendJsonString(out_, key);
        out_.push_back(':');
        out_ += value.Dump();
      }
      Put("},");
    }
    if (!event.cat.empty()) {
      Put("\"cat\":");
      AppendJsonString(out_, event.cat);
      out_.push_back(',');
    }
    if (event.dur_us >= 0.0) {
      Put("\"dur\":");
      Number(event.dur_us);
      out_.push_back(',');
    }
    if (!event.id.empty()) {
      Put("\"id\":");
      AppendJsonString(out_, event.id);
      out_.push_back(',');
    }
    Put("\"name\":");
    AppendJsonString(out_, event.name);
    Put(",\"ph\":");
    AppendJsonString(out_, event.ph);
    Put(",\"pid\":");
    Number(event.pid);
    if (!event.scope.empty()) {
      Put(",\"s\":");
      AppendJsonString(out_, event.scope);
    }
    Put(",\"tid\":");
    Number(event.tid);
    Put(",\"ts\":");
    Number(event.ts_us);
    out_.push_back('}');
  }

  /// A "process_name" / "thread_name" metadata event.
  void Metadata(const char* what, int pid, int tid, std::string_view name) {
    Open();
    Put("\"args\":{\"name\":");
    AppendJsonString(out_, name);
    Put("},\"name\":\"");
    out_ += what;
    Put("\",\"ph\":\"M\",\"pid\":");
    Number(pid);
    Put(",\"tid\":");
    Number(tid);
    Put(",\"ts\":0}");
  }

  /// One autoscaler-track counter series point: {"<key>": value}.
  void Counter(double t_s, const char* name, const char* key, double value) {
    Open();
    Put("\"args\":{\"");
    out_ += key;
    Put("\":");
    Number(value);
    Put("},\"cat\":\"autoscaler\",\"name\":\"");
    out_ += name;
    Put("\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":");
    Number(t_s * kUsPerSecond);
    out_.push_back('}');
  }

  void Instant(const InstantEvent& record, WorkloadNames& names) {
    const InstantStyle style = StyleOf(record.kind);
    Open();
    const bool has_detail = !record.detail.empty();
    const bool has_workload = record.workload >= 0;
    if (has_detail || has_workload) {
      Put("\"args\":{");
      if (has_detail) {
        Put("\"detail\":");
        AppendJsonString(out_, record.detail);
        if (has_workload) {
          out_.push_back(',');
        }
      }
      if (has_workload) {
        Put("\"workload\":");
        out_ += names(record.workload);
      }
      Put("},");
    }
    Put("\"cat\":\"");
    out_ += style.cat;
    Put("\",\"name\":\"");
    out_ += style.name;
    Put("\",\"ph\":\"i\",\"pid\":");
    Number(style.pid);
    Put(",\"s\":\"t\",\"tid\":");
    Number(style.on_replica ? record.replica : 0);
    Put(",\"ts\":");
    Number(record.t_s * kUsPerSecond);
    out_.push_back('}');
  }

  /// A batch's complete "X" event on its replica track.
  void Batch(const BatchSpan& batch, std::string_view name) {
    Open();
    Put("\"args\":{\"batch\":");
    Number(batch.batch_index);
    CloseArg(batch.close);
    Put(",\"size\":");
    Number(batch.size);
    Put("},\"cat\":\"batch\"");
    const double dur_us = (batch.complete_s - batch.start_s) * kUsPerSecond;
    if (dur_us >= 0.0) {
      Put(",\"dur\":");
      Number(dur_us);
    }
    Put(",\"name\":");
    out_ += name;
    Put(",\"ph\":\"X\",\"pid\":2,\"tid\":");
    Number(batch.replica);
    Put(",\"ts\":");
    Number(batch.start_s * kUsPerSecond);
    out_.push_back('}');
  }

  /// A request's async span on its workload track: "b" at arrival, "e" at
  /// completion carrying the batch placement. kFull nests the "form"
  /// (arrival -> batch close) and "execute" (dispatch -> completion)
  /// phases under the same id; the gap between them is the dispatch wait
  /// on a busy replica.
  void Request(const RequestSpan& span, std::string_view name,
               TraceDetail detail) {
    char buf[24];
    const std::string_view id(
        buf, std::to_chars(buf, buf + sizeof buf, span.request_id).ptr - buf);
    Open();
    Async(id, name, true, span.workload, span.arrival_s);
    if (detail == TraceDetail::kFull) {
      Open();
      Async(id, "\"form\"", true, span.workload, span.arrival_s);
      Open();
      Async(id, "\"form\"", false, span.workload, span.formed_s);
      Open();
      Async(id, "\"execute\"", true, span.workload, span.start_s);
      Open();
      Async(id, "\"execute\"", false, span.workload, span.complete_s);
    }
    Open();
    Put("\"args\":{\"batch\":");
    Number(span.batch_index);
    Put(",\"batch_size\":");
    Number(span.batch_size);
    CloseArg(span.close);
    Put(",\"replica\":");
    Number(span.replica);
    Put("},");
    Async(id, name, false, span.workload, span.complete_s);
  }

 private:
  template <std::size_t N>
  void Put(const char (&literal)[N]) {
    out_.append(literal, N - 1);
  }

  /// Integers and doubles alike go through the Json::Dump formatter.
  void Number(double value) { AppendJsonNumber(out_, value); }

  /// The optional "close" arg of batch and request-end events.
  void CloseArg(BatchClose close) {
    if (close != BatchClose::kNone) {
      Put(",\"close\":\"");
      out_ += CloseName(close);
      out_.push_back('"');
    }
  }

  /// Starts an event: the separating comma, then "{".
  void Open() {
    if (first_) {
      first_ = false;
      out_.push_back('{');
    } else {
      Put(",{");
    }
  }

  /// The keys after "args" of a request-track async event, through "}".
  void Async(std::string_view id, std::string_view name, bool begin,
             std::int32_t tid, double t_s) {
    Put("\"cat\":\"request\",\"id\":\"");
    out_ += id;
    Put("\",\"name\":");
    out_ += name;
    if (begin) {
      Put(",\"ph\":\"b\",\"pid\":1,\"tid\":");
    } else {
      Put(",\"ph\":\"e\",\"pid\":1,\"tid\":");
    }
    Number(tid);
    Put(",\"ts\":");
    Number(t_s * kUsPerSecond);
    out_.push_back('}');
  }

  std::string& out_;
  bool first_ = true;
};

/// An upper bound on the streamed document's size, so one reserve covers
/// the whole export (and a caller's trailing newline). Each constant is
/// its record kind's fragments plus 24 bytes per number — the longest
/// "%.17g" rendering — and 20 per request id; names and details are
/// counted at their escaped length (at most 6 bytes per input byte).
std::size_t ByteBound(const TraceData& data, const TraceMeta& meta,
                      TraceDetail detail, std::size_t name_bytes) {
  constexpr std::size_t kFrame = 64;           // Document header + footer.
  constexpr std::size_t kMetadataEvent = 160;  // + the track name.
  constexpr std::size_t kCounterSample = 480;  // Three counter events.
  constexpr std::size_t kInstantEvent = 256;   // + detail + workload name.
  constexpr std::size_t kBatchEvent = 288;     // + workload name.
  constexpr std::size_t kAsyncEvent = 160;     // + name; "e" adds args:
  constexpr std::size_t kRequestArgs = 160;
  const std::size_t tracks =
      4 + meta.workload_names.size() + static_cast<std::size_t>(meta.replicas);
  std::size_t bytes = kFrame + tracks * (kMetadataEvent + name_bytes) +
                      data.counters.size() * kCounterSample +
                      data.batches.size() * (kBatchEvent + name_bytes);
  for (const InstantEvent& instant : data.instants) {
    bytes += kInstantEvent + name_bytes + 6 * instant.detail.size();
  }
  const std::size_t async_events = detail == TraceDetail::kFull ? 6 : 2;
  bytes += data.requests.size() *
           (async_events * (kAsyncEvent + name_bytes) + kRequestArgs);
  return bytes;
}

}  // namespace

std::string WriteChromeTrace(const TraceData& data, const TraceMeta& meta,
                             TraceDetail detail) {
  WorkloadNames names(meta);
  // Phase names ("execute") and fallback names ("workload <id>") are
  // short; the bound covers them with a 32-byte floor.
  const std::size_t name_bytes = std::max<std::size_t>(names.longest(), 32);
  std::string out;
  out.reserve(ByteBound(data, meta, detail, name_bytes));
  ChromeWriter writer(out);
  // Deterministic section order: metadata, counters, instants, batches,
  // request spans. Each section preserves Drain()'s (time, seq) order.
  writer.Metadata("process_name", kRequestsPid, 0, "requests");
  writer.Metadata("process_name", kReplicasPid, 0, "replicas");
  writer.Metadata("process_name", kAutoscalerPid, 0, "autoscaler");
  for (std::size_t w = 0; w < meta.workload_names.size(); ++w) {
    writer.Metadata("thread_name", kRequestsPid, static_cast<int>(w),
                    meta.workload_names[w]);
  }
  for (int r = 0; r < meta.replicas; ++r) {
    writer.Metadata("thread_name", kReplicasPid, r,
                    "replica " + std::to_string(r));
  }
  writer.Metadata("thread_name", kAutoscalerPid, 0, "control loop");

  for (const CounterSample& sample : data.counters) {
    writer.Counter(sample.t_s, "window_rate_rps", "rps",
                   sample.window_rate_rps);
    writer.Counter(sample.t_s, "active_replicas", "replicas",
                   sample.active_replicas);
    writer.Counter(sample.t_s, "queue_depth", "depth",
                   static_cast<double>(sample.queue_depth));
  }
  for (const InstantEvent& instant : data.instants) {
    writer.Instant(instant, names);
  }
  for (const BatchSpan& batch : data.batches) {
    writer.Batch(batch, names(batch.workload));
  }
  for (const RequestSpan& span : data.requests) {
    writer.Request(span, names(span.workload), detail);
  }
  writer.Finish();
  return out;
}

std::string SerializeChromeTrace(const std::vector<ChromeEvent>& events) {
  std::string out;
  ChromeWriter writer(out);
  for (const ChromeEvent& event : events) {
    writer.Event(event);
  }
  writer.Finish();
  return out;
}

std::vector<ChromeEvent> ParseChromeTrace(std::string_view text) {
  const Json root = Json::Parse(text);
  const JsonArray& entries = root.At("traceEvents").AsArray();
  std::vector<ChromeEvent> events;
  events.reserve(entries.size());
  for (const Json& entry : entries) {
    ChromeEvent event;
    event.name = entry.At("name").AsString();
    event.ph = entry.At("ph").AsString();
    event.pid = static_cast<int>(entry.At("pid").AsInt());
    event.tid = static_cast<int>(entry.At("tid").AsInt());
    event.ts_us = entry.At("ts").AsDouble();
    event.cat = entry.GetStringOr("cat", "");
    event.dur_us = entry.GetNumberOr("dur", -1.0);
    event.id = entry.GetStringOr("id", "");
    event.scope = entry.GetStringOr("s", "");
    if (entry.Contains("args")) {
      event.args = entry.At("args").AsObject();
    }
    events.push_back(std::move(event));
  }
  return events;
}

// --------------------------------------------------------------- binary

namespace {

// "NSFT" packed little-endian.
constexpr std::uint32_t kMagic = 'N' | ('S' << 8) | ('F' << 16) |
                                 (static_cast<std::uint32_t>('T') << 24);
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void I64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
    }
  }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    I64(static_cast<std::int64_t>(bits));
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t U32() {
    Need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::int64_t I64() {
    Need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return static_cast<std::int64_t>(v);
  }
  double F64() {
    const auto bits = static_cast<std::uint64_t>(I64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    Need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  void Need(std::size_t n) {
    NSF_CHECK_MSG(pos_ + n <= bytes_.size(), "truncated binary trace");
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string SerializeBinaryTrace(const TraceData& data) {
  Writer w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.I64(static_cast<std::int64_t>(data.requests.size()));
  w.I64(static_cast<std::int64_t>(data.batches.size()));
  w.I64(static_cast<std::int64_t>(data.instants.size()));
  w.I64(static_cast<std::int64_t>(data.counters.size()));
  w.I64(data.dropped);
  for (const RequestSpan& r : data.requests) {
    w.I64(r.request_id);
    w.U32(static_cast<std::uint32_t>(r.workload));
    w.U32(static_cast<std::uint32_t>(r.close));
    w.F64(r.arrival_s);
    w.F64(r.formed_s);
    w.F64(r.start_s);
    w.F64(r.complete_s);
    w.I64(r.batch_index);
    w.U32(static_cast<std::uint32_t>(r.replica));
    w.U32(static_cast<std::uint32_t>(r.batch_size));
    w.I64(r.seq);
  }
  for (const BatchSpan& b : data.batches) {
    w.I64(b.batch_index);
    w.U32(static_cast<std::uint32_t>(b.workload));
    w.U32(static_cast<std::uint32_t>(b.replica));
    w.U32(static_cast<std::uint32_t>(b.close));
    w.F64(b.formed_s);
    w.F64(b.start_s);
    w.F64(b.complete_s);
    w.I64(b.size);
    w.I64(b.seq);
  }
  for (const InstantEvent& e : data.instants) {
    w.F64(e.t_s);
    w.U32(static_cast<std::uint32_t>(e.kind));
    w.U32(static_cast<std::uint32_t>(e.replica));
    w.U32(static_cast<std::uint32_t>(e.workload));
    w.Str(e.detail);
    w.I64(e.seq);
  }
  for (const CounterSample& c : data.counters) {
    w.F64(c.t_s);
    w.F64(c.window_rate_rps);
    w.U32(static_cast<std::uint32_t>(c.active_replicas));
    w.I64(c.queue_depth);
    w.I64(c.seq);
  }
  return w.Take();
}

TraceData ParseBinaryTrace(std::string_view bytes) {
  Reader r(bytes);
  const std::uint32_t magic = r.U32();
  NSF_CHECK_MSG(magic == kMagic, "not a binary nsflow trace (bad magic)");
  const std::uint32_t version = r.U32();
  NSF_CHECK_MSG(version == kVersion, "unsupported binary trace version " +
                                         std::to_string(version));
  TraceData data;
  const auto requests = static_cast<std::size_t>(r.I64());
  const auto batches = static_cast<std::size_t>(r.I64());
  const auto instants = static_cast<std::size_t>(r.I64());
  const auto counters = static_cast<std::size_t>(r.I64());
  data.dropped = r.I64();
  data.requests.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    RequestSpan s;
    s.request_id = r.I64();
    s.workload = static_cast<std::int32_t>(r.U32());
    s.close = static_cast<BatchClose>(r.U32());
    s.arrival_s = r.F64();
    s.formed_s = r.F64();
    s.start_s = r.F64();
    s.complete_s = r.F64();
    s.batch_index = r.I64();
    s.replica = static_cast<std::int32_t>(r.U32());
    s.batch_size = static_cast<std::int32_t>(r.U32());
    s.seq = r.I64();
    data.requests.push_back(s);
  }
  data.batches.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    BatchSpan b;
    b.batch_index = r.I64();
    b.workload = static_cast<std::int32_t>(r.U32());
    b.replica = static_cast<std::int32_t>(r.U32());
    b.close = static_cast<BatchClose>(r.U32());
    b.formed_s = r.F64();
    b.start_s = r.F64();
    b.complete_s = r.F64();
    b.size = r.I64();
    b.seq = r.I64();
    data.batches.push_back(b);
  }
  data.instants.reserve(instants);
  for (std::size_t i = 0; i < instants; ++i) {
    InstantEvent e;
    e.t_s = r.F64();
    e.kind = static_cast<InstantKind>(r.U32());
    e.replica = static_cast<std::int32_t>(r.U32());
    e.workload = static_cast<std::int32_t>(r.U32());
    e.detail = r.Str();
    e.seq = r.I64();
    data.instants.push_back(std::move(e));
  }
  data.counters.reserve(counters);
  for (std::size_t i = 0; i < counters; ++i) {
    CounterSample c;
    c.t_s = r.F64();
    c.window_rate_rps = r.F64();
    c.active_replicas = static_cast<std::int32_t>(r.U32());
    c.queue_depth = r.I64();
    c.seq = r.I64();
    data.counters.push_back(c);
  }
  NSF_CHECK_MSG(r.AtEnd(), "trailing bytes after binary trace");
  return data;
}

}  // namespace nsflow::obs
