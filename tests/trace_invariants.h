// Trace-invariant checker for one serve run (docs/ENGINE.md).
//
// CheckServeInvariants(report, trace) returns one human-readable string
// per violated invariant — empty when the run is sound. It needs no test
// framework, so the gtest suites and the bench gates share it. The checks
// hold on every toolchain: they compare a run against itself, not against
// recorded digests.
//
//   * conservation, per tenant: generated = completed + shed + expired,
//     and admitted = completed + expired;
//   * nothing is dispatched past its start deadline (expired_dispatched);
//   * dispatched requests = completed requests = request spans, and one
//     batch span per dispatch record;
//   * batches on one replica never overlap, and none overlaps a
//     [kReplicaFailed, recovery) interval on its replica;
//   * arrival <= formed <= start < complete for every request, and every
//     request span agrees with its batch span;
//   * a batch holds one workload, and its members' arrival_s never
//     decreases in batch order.
//
// Span checks that need every record are skipped when a ring-mode recorder
// evicted some (trace.dropped > 0).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_recorder.h"
#include "serve/engine.h"

namespace nsflow::serve {

namespace invariants_detail {

inline std::string Str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Str(std::int64_t v) { return std::to_string(v); }

// Recovery instant of the failure at `failed`: the next kReplicaRecovered
// instant on the same replica. A recovery the run never reached (it lies
// past the drain) is read back from the failure's "recovery at X s"
// detail, which is printed to 6 significant digits — hence the margin.
inline double RecoveryOf(const obs::InstantEvent& failed,
                         const std::vector<obs::InstantEvent>& instants) {
  for (const obs::InstantEvent& e : instants) {
    if (e.kind == obs::InstantKind::kReplicaRecovered &&
        e.replica == failed.replica && e.t_s >= failed.t_s) {
      return e.t_s;
    }
  }
  const std::string::size_type at = failed.detail.find("recovery at ");
  if (at == std::string::npos) {
    return failed.t_s;  // Unknown recovery: only the instant itself.
  }
  const double recover =
      std::strtod(failed.detail.c_str() + at + 12, nullptr);
  return recover - 1e-5 * std::max(1.0, recover);
}

}  // namespace invariants_detail

inline std::vector<std::string> CheckServeInvariants(
    const ServeReport& report, const obs::TraceData& trace) {
  using invariants_detail::Str;
  std::vector<std::string> violations;
  const auto fail = [&](std::string what) {
    violations.push_back(std::move(what));
  };

  // ---- conservation, per tenant.
  const StatsSummary& summary = report.summary;
  std::int64_t generated_total = 0;
  std::int64_t completed_total = 0;
  for (std::size_t w = 0; w < report.generated_by_workload.size(); ++w) {
    const std::int64_t generated = report.generated_by_workload[w];
    const std::int64_t completed =
        w < summary.per_workload.size() ? summary.per_workload[w].completed
                                        : 0;
    std::int64_t shed = 0;
    std::int64_t expired = 0;
    if (w < report.admission.size()) {
      const AdmissionTenantSummary& row = report.admission[w];
      shed = row.shed();
      expired = row.expired;
      if (row.admitted != completed + expired) {
        fail("tenant " + Str(static_cast<std::int64_t>(w)) + ": admitted " +
             Str(row.admitted) + " != completed " + Str(completed) +
             " + expired " + Str(expired));
      }
    }
    if (generated != completed + shed + expired) {
      fail("tenant " + Str(static_cast<std::int64_t>(w)) + ": generated " +
           Str(generated) + " != completed " + Str(completed) + " + shed " +
           Str(shed) + " + expired " + Str(expired));
    }
    generated_total += generated;
    completed_total += completed;
  }
  if (generated_total != report.generated_requests) {
    fail("per-tenant generated " + Str(generated_total) + " != " +
         Str(report.generated_requests) + " generated requests");
  }
  if (completed_total != summary.completed) {
    fail("per-tenant completed " + Str(completed_total) + " != " +
         Str(summary.completed) + " completed requests");
  }
  if (report.expired_dispatched != 0) {
    fail(Str(report.expired_dispatched) +
         " request(s) dispatched past their deadline");
  }

  // ---- dispatch records: counts and per-replica occupancy.
  std::int64_t dispatched = 0;
  std::map<int, std::vector<const DispatchRecord*>> by_replica;
  for (const DispatchRecord& d : report.dispatches) {
    dispatched += d.size;
    if (d.size < 1 || !(d.start_s < d.complete_s)) {
      fail("batch " + Str(d.batch_index) + ": size " + Str(d.size) +
           ", start " + Str(d.start_s) + ", complete " + Str(d.complete_s));
    }
    by_replica[d.replica].push_back(&d);
  }
  if (dispatched != summary.completed) {
    fail("dispatched requests " + Str(dispatched) + " != completed " +
         Str(summary.completed));
  }
  if (static_cast<std::int64_t>(report.dispatches.size()) !=
      summary.batches) {
    fail("dispatch records " +
         Str(static_cast<std::int64_t>(report.dispatches.size())) +
         " != batches " + Str(summary.batches));
  }
  for (auto& [replica, records] : by_replica) {
    std::sort(records.begin(), records.end(),
              [](const DispatchRecord* a, const DispatchRecord* b) {
                return a->start_s < b->start_s;
              });
    for (std::size_t i = 1; i < records.size(); ++i) {
      if (records[i]->start_s < records[i - 1]->complete_s) {
        fail("replica " + Str(static_cast<std::int64_t>(replica)) +
             ": batch " + Str(records[i]->batch_index) + " starts at " +
             Str(records[i]->start_s) + " before batch " +
             Str(records[i - 1]->batch_index) + " completes at " +
             Str(records[i - 1]->complete_s));
      }
    }
  }
  for (const obs::InstantEvent& e : trace.instants) {
    if (e.kind != obs::InstantKind::kReplicaFailed) {
      continue;
    }
    const double recover = invariants_detail::RecoveryOf(e, trace.instants);
    for (const DispatchRecord* d : by_replica[e.replica]) {
      if (d->start_s < recover && d->complete_s > e.t_s) {
        fail("replica " + Str(static_cast<std::int64_t>(e.replica)) +
             ": batch " + Str(d->batch_index) + " [" + Str(d->start_s) +
             ", " + Str(d->complete_s) + ") overlaps its failure [" +
             Str(e.t_s) + ", " + Str(recover) + ")");
      }
    }
  }

  // ---- spans.
  if (trace.dropped > 0) {
    return violations;
  }
  if (static_cast<std::int64_t>(trace.requests.size()) != summary.completed) {
    fail("request spans " +
         Str(static_cast<std::int64_t>(trace.requests.size())) +
         " != completed " + Str(summary.completed));
  }
  if (trace.batches.size() != report.dispatches.size()) {
    fail("batch spans " +
         Str(static_cast<std::int64_t>(trace.batches.size())) +
         " != dispatch records " +
         Str(static_cast<std::int64_t>(report.dispatches.size())));
  }
  std::map<std::int64_t, const obs::BatchSpan*> batches;
  for (const obs::BatchSpan& b : trace.batches) {
    if (!batches.emplace(b.batch_index, &b).second) {
      fail("batch " + Str(b.batch_index) + " has two batch spans");
    }
    if (!(b.formed_s <= b.start_s && b.start_s < b.complete_s) ||
        b.size < 1 || b.close == obs::BatchClose::kNone) {
      fail("batch " + Str(b.batch_index) + " span: formed " +
           Str(b.formed_s) + ", start " + Str(b.start_s) + ", complete " +
           Str(b.complete_s) + ", size " + Str(b.size));
    }
  }
  // Drain orders request spans by (complete_s, seq). A batch's members
  // share complete_s and are recorded in batch order, so they appear
  // contiguously in member order.
  std::map<std::int64_t, std::pair<std::int64_t, double>> members;
  for (const obs::RequestSpan& r : trace.requests) {
    if (!(r.arrival_s <= r.formed_s && r.formed_s <= r.start_s &&
          r.start_s < r.complete_s)) {
      fail("request " + Str(r.request_id) + ": arrival " + Str(r.arrival_s) +
           ", formed " + Str(r.formed_s) + ", start " + Str(r.start_s) +
           ", complete " + Str(r.complete_s));
    }
    const auto batch = batches.find(r.batch_index);
    if (batch == batches.end()) {
      fail("request " + Str(r.request_id) + " names unknown batch " +
           Str(r.batch_index));
      continue;
    }
    const obs::BatchSpan& b = *batch->second;
    if (r.workload != b.workload || r.replica != b.replica ||
        r.start_s != b.start_s || r.complete_s != b.complete_s ||
        r.batch_size != b.size) {
      fail("request " + Str(r.request_id) + " disagrees with batch " +
           Str(b.batch_index) + " (workload " +
           Str(static_cast<std::int64_t>(r.workload)) + " vs " +
           Str(static_cast<std::int64_t>(b.workload)) + ")");
    }
    auto [member, fresh] = members.try_emplace(r.batch_index, 0, r.arrival_s);
    if (!fresh && r.arrival_s < member->second.second) {
      fail("batch " + Str(r.batch_index) + ": request " +
           Str(r.request_id) + " arrived at " + Str(r.arrival_s) +
           ", before the member ahead of it");
    }
    ++member->second.first;
    member->second.second = r.arrival_s;
  }
  for (const auto& [index, batch] : batches) {
    const auto member = members.find(index);
    const std::int64_t count = member == members.end() ? 0
                                                       : member->second.first;
    if (count != batch->size) {
      fail("batch " + Str(index) + " holds " + Str(count) +
           " request span(s), size " + Str(batch->size));
    }
  }
  return violations;
}

}  // namespace nsflow::serve
