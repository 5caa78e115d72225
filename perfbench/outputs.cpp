#include "outputs.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>

#include "obs/chrome_trace.h"

namespace perfbench {

namespace serve = nsflow::serve;

namespace {

std::string Str(long long value) { return std::to_string(value); }

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void Int(std::int64_t value) { Bytes(&value, sizeof(value)); }
  void Double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void Text(const std::string& text) {
    Int(static_cast<std::int64_t>(text.size()));
    Bytes(text.data(), text.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

void CheckRun(const serve::ServeReport& report,
              const std::vector<serve::Request>& arrivals,
              const std::vector<std::string>& workload_names,
              bool fault_free, CheckFailures* failures) {
  auto fail = [&](std::string what) { failures->push_back(std::move(what)); };

  if (report.generated_requests !=
      static_cast<std::int64_t>(arrivals.size())) {
    fail("generated_requests " + Str(report.generated_requests) +
         " != arrival schedule " +
         Str(static_cast<long long>(arrivals.size())));
  }
  std::map<std::string, std::int64_t> generated;
  for (const serve::Request& request : arrivals) {
    ++generated[workload_names[static_cast<std::size_t>(request.workload)]];
  }
  std::int64_t completed_total = 0;
  for (const std::string& tenant : workload_names) {
    std::int64_t completed = 0;
    for (const serve::WorkloadSummary& row : report.summary.per_workload) {
      if (row.name == tenant) {
        completed = row.completed;
      }
    }
    std::int64_t shed = 0;
    std::int64_t expired = 0;
    for (const serve::AdmissionTenantSummary& row : report.admission) {
      if (row.tenant == tenant) {
        shed = row.shed();
        expired = row.expired;
      }
    }
    completed_total += completed;
    if (generated[tenant] != completed + shed + expired) {
      fail("conservation " + tenant + ": generated " +
           Str(generated[tenant]) + " != completed " + Str(completed) +
           " + shed " + Str(shed) + " + expired " + Str(expired));
    }
  }
  if (completed_total != report.summary.completed) {
    fail("per-tenant completed " + Str(completed_total) + " != summary " +
         Str(report.summary.completed));
  }
  if (report.expired_dispatched != 0) {
    fail("expired_dispatched " + Str(report.expired_dispatched) + " != 0");
  }

  std::int64_t dispatched = 0;
  std::map<int, std::vector<const serve::DispatchRecord*>> by_replica;
  for (const serve::DispatchRecord& record : report.dispatches) {
    dispatched += record.size;
    if (!(record.complete_s >= record.start_s)) {
      fail("batch " + Str(record.batch_index) + " completes before it starts");
    }
    by_replica[record.replica].push_back(&record);
  }
  if (dispatched != report.summary.completed) {
    fail("dispatched requests " + Str(dispatched) + " != completed " +
         Str(report.summary.completed));
  }
  if (fault_free) {
    for (auto& [replica, records] : by_replica) {
      std::sort(records.begin(), records.end(),
                [](const serve::DispatchRecord* a,
                   const serve::DispatchRecord* b) {
                  return a->start_s < b->start_s;
                });
      for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i]->start_s < records[i - 1]->complete_s) {
          fail("replica " + Str(replica) + ": batch " +
               Str(records[i]->batch_index) + " overlaps batch " +
               Str(records[i - 1]->batch_index));
          break;
        }
      }
    }
  }
}

void CheckChromeTrace(std::string_view json, std::int64_t completed,
                      CheckFailures* failures) {
  std::vector<nsflow::obs::ChromeEvent> events;
  try {
    events = nsflow::obs::ParseChromeTrace(json);
  } catch (const std::exception& error) {
    failures->push_back(std::string("Chrome trace does not parse: ") +
                        error.what());
    return;
  }
  std::int64_t request_spans = 0;
  for (const nsflow::obs::ChromeEvent& event : events) {
    if (event.cat == "request" && event.ph == "b" && event.name != "form" &&
        event.name != "execute") {
      ++request_spans;
    }
  }
  if (request_spans != completed) {
    failures->push_back("Chrome trace holds " + Str(request_spans) +
                        " request spans, completed " + Str(completed));
  }
}

std::uint64_t Digest(const serve::ServeReport& report) {
  Fnv1a h;
  const serve::StatsSummary& s = report.summary;
  h.Int(report.generated_requests);
  h.Int(s.completed);
  h.Int(s.batches);
  for (const double v : {s.horizon_s, s.throughput_rps, s.offered_qps,
                         s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms,
                         s.mean_batch, s.mean_queue_depth}) {
    h.Double(v);
  }
  h.Int(s.max_queue_depth);
  for (const double u : s.replica_utilization) {
    h.Double(u);
  }
  for (const serve::WorkloadSummary& w : s.per_workload) {
    h.Text(w.name);
    h.Int(w.completed);
    h.Int(w.batches);
    for (const double v : {w.throughput_rps, w.p50_ms, w.p95_ms, w.p99_ms,
                           w.mean_ms, w.max_ms, w.mean_batch}) {
      h.Double(v);
    }
  }
  for (const serve::TierSummary& t : s.per_tier) {
    h.Text(t.name);
    h.Int(t.completed);
    h.Double(t.p50_ms);
    h.Double(t.p99_ms);
  }
  for (const serve::NodeSummary& n : s.per_node) {
    h.Int(n.node);
    h.Int(n.replicas);
    h.Int(n.batches);
    h.Int(n.remote_batches);
    h.Double(n.bytes_in);
    h.Double(n.bytes_out);
    h.Double(n.network_s);
  }
  h.Double(report.replica_seconds);
  h.Int(report.expired_dispatched);
  for (const serve::AdmissionTenantSummary& a : report.admission) {
    h.Text(a.tenant);
    for (const std::int64_t v : {a.offered, a.admitted, a.shed_quota,
                                 a.shed_overload, a.expired, a.retried}) {
      h.Int(v);
    }
  }
  for (const serve::PoolDelta& d : report.deltas) {
    h.Int(static_cast<std::int64_t>(d.kind));
    h.Double(d.t_s);
    h.Int(d.workload);
    h.Int(d.replica);
    h.Int(d.batch_cap);
    h.Int(d.node);
  }
  for (const serve::DispatchRecord& d : report.dispatches) {
    h.Int(d.batch_index);
    h.Int(d.replica);
    h.Int(d.workload);
    h.Double(d.start_s);
    h.Double(d.complete_s);
    h.Int(d.size);
  }
  return h.value();
}

}  // namespace perfbench
