// Output checks and the determinism digest of one serve run, computed from
// the run's public outputs only (ServeReport, the arrival schedule, and
// the exported Chrome trace).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/engine.h"

namespace perfbench {

/// Failed checks of one run, one line each; empty = every check passed.
using CheckFailures = std::vector<std::string>;

/// Checks a finished run against its arrival schedule:
///   - per tenant, generated = completed + shed + expired (the admission
///     rows supply shed/expired where the run had admission);
///   - no request was dispatched past its deadline (expired_dispatched);
///   - every dispatch completes no earlier than it starts, and the
///     dispatched batch sizes add up to the completed count;
///   - with `fault_free`, the batches on one replica never overlap.
void CheckRun(const nsflow::serve::ServeReport& report,
              const std::vector<nsflow::serve::Request>& arrivals,
              const std::vector<std::string>& workload_names,
              bool fault_free, CheckFailures* failures);

/// Checks that an exported Chrome trace parses and holds one request span
/// per completed request.
void CheckChromeTrace(std::string_view json, std::int64_t completed,
                      CheckFailures* failures);

/// FNV-1a over the run's virtual outputs: the summary (with its
/// per-tenant, per-tier and per-node slices), the admission ledger, the
/// autoscaler deltas, replica-seconds, and every dispatch record. Doubles
/// enter by bit pattern, so equal digests mean bit-identical outputs.
std::uint64_t Digest(const nsflow::serve::ServeReport& report);

}  // namespace perfbench
