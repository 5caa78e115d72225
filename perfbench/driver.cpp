// NSFlow repo benchmark driver.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale F] [--spans-out FILE]
//
// Untraced (--trace 0): builds the workload the way a user would
// (WorkloadRegistry, then PlanCapacity where the pool is planned), then
// repeats the user-visible serve run — RunSyntheticServe, plus the Chrome
// and metrics exports on a traced workload — for about S seconds. Every
// run is checked (outputs.h) and digested, and followed by the reference
// kernel (reference.h); the end-to-end metrics are medians over the runs,
// with host times in reference units. Traced (--trace 1): the per-layer
// metrics (layers.h). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where `attempted` counts whole serve runs and `failed` the runs whose
// output checks failed. --scale shrinks every virtual duration (the
// self-test); results at a scale other than 1 are not comparable.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "layers.h"
#include "outputs.h"
#include "reference.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

namespace serve = nsflow::serve;
using perfbench::LayerMetric;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string spans_out;
};

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = std::stod(value);
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0) || !(args.scale > 0.0)) {
    throw std::invalid_argument("--seconds and --scale must be positive");
  }
  return args;
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_FLAGS).find("-fsanitize") != std::string::npos;
#endif
}

/// Prints the run environment, flagging numbers that must not be compared
/// with those of other Release builds.
void PrintEnvironment(const Args& args) {
  const bool sanitized = Sanitized();
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  const bool comparable = release && !sanitized && args.scale == 1.0;
  std::printf(
      "env: {\"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": "
      "\"%s\", \"sanitizer\": %s, \"nproc\": %ld, \"seed\": %" PRIu64
      ", \"scale\": %g, \"comparable\": %s}\n",
      PERFBENCH_COMPILER, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE,
      sanitized ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN), args.seed,
      args.scale, comparable ? "true" : "false");
  if (!comparable) {
    std::fprintf(stderr,
                 "WARNING: not a Release, unsanitized, full-size run — do "
                 "not compare these numbers with Release numbers\n");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<LayerMetric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const serve::WorkloadSummary& Tenant(const serve::StatsSummary& summary,
                                     const std::string& name) {
  for (const serve::WorkloadSummary& row : summary.per_workload) {
    if (row.name == name) {
      return row;
    }
  }
  throw std::runtime_error("no per-workload row for " + name);
}

/// Set-up takes about a millisecond next to a serve run of a second, so a
/// few set-ups precede every serve run. The set-up samples then span the
/// same stretch of host time as the runs; the median is reported.
constexpr int kSetupsPerRun = 8;

int RunUntraced(const Args& args, const perfbench::WorkloadSpec& spec) {
  std::vector<double> setup_s;
  perfbench::Setup setup;
  auto set_up = [&] {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const Clock::time_point start = Clock::now();
      setup = perfbench::BuildSetup(spec, args.seed);
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
  };
  set_up();
  const std::vector<std::string> names = setup.registry->Names();
  const std::vector<serve::Request> arrivals = serve::SyntheticArrivals(
      setup.options, perfbench::MixShares(setup), names);
  const bool fault_free =
      setup.options.adversity.kind == serve::AdversityKind::kNone;

  std::vector<double> run_s;
  std::vector<double> reference_s;
  // Host times over the reference kernel timed right after each run; a
  // run's set-ups pair with that run's kernel.
  std::vector<double> run_in_reference;
  std::vector<double> setup_in_reference;
  std::int64_t failed_runs = 0;
  std::uint64_t first_digest = 0;
  serve::ServeReport first;
  const Clock::time_point measure_start = Clock::now();
  double longest_s = 0.0;
  double peak_rss_mb = 0.0;
  while (run_s.empty() ||
         std::chrono::duration<double>(Clock::now() - measure_start).count() +
                 longest_s <=
             args.seconds) {
    if (!run_s.empty()) {
      set_up();
    }
    const Clock::time_point start = Clock::now();
    serve::ServeReport report = serve::RunSyntheticServe(
        *setup.registry, setup.replicas, setup.mix, setup.options);
    std::string chrome;
    std::size_t metrics_bytes = 0;
    if (spec.traced) {
      // What `nsflow serve --trace-out --metrics-out` renders.
      chrome = report.obs->ChromeTraceJson();
      metrics_bytes = report.obs->MetricsJson().size();
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    run_s.push_back(seconds);
    reference_s.push_back(perfbench::TimeReference());
    run_in_reference.push_back(seconds / reference_s.back());
    for (std::size_t i = setup_in_reference.size(); i < setup_s.size(); ++i) {
      setup_in_reference.push_back(setup_s[i] / reference_s.back());
    }
    longest_s = std::max(longest_s, seconds + reference_s.back());

    // The first run is checked in full; every later run of the same seed
    // must reproduce its digest.
    perfbench::CheckFailures failures;
    const std::uint64_t digest = perfbench::Digest(report);
    if (run_s.size() == 1) {
      // What one `nsflow serve` process peaks at. Later runs reuse a heap
      // that earlier runs fragmented, and the checks allocate too.
      peak_rss_mb = PeakRssMb();
      perfbench::CheckRun(report, arrivals, names, fault_free, &failures);
      if (spec.traced) {
        perfbench::CheckChromeTrace(chrome, report.summary.completed,
                                    &failures);
        std::printf("exports: chrome %.1f MB, metrics %.1f MB\n",
                    static_cast<double>(chrome.size()) / 1e6,
                    static_cast<double>(metrics_bytes) / 1e6);
      }
      first_digest = digest;
      first = std::move(report);
    } else if (digest != first_digest) {
      failures.push_back("same-seed rerun changed the digest");
    }
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "CHECK FAILED (run %zu): %s\n", run_s.size(),
                   failure.c_str());
    }
    failed_runs += failures.empty() ? 0 : 1;
  }

  const serve::StatsSummary& summary = first.summary;
  const serve::WorkloadSummary& mlp = Tenant(summary, "mlp");
  const serve::WorkloadSummary& resnet18 = Tenant(summary, "resnet18");
  const double generated = static_cast<double>(first.generated_requests);
  std::printf("digest: %016" PRIx64 " (seed %" PRIu64 ", %zu run(s))\n",
              first_digest, args.seed, run_s.size());
  std::printf(
      "samples: generated %lld, completed %lld (mlp %lld, resnet18 %lld), "
      "batches %lld\n",
      static_cast<long long>(first.generated_requests),
      static_cast<long long>(summary.completed),
      static_cast<long long>(mlp.completed),
      static_cast<long long>(resnet18.completed),
      static_cast<long long>(summary.batches));
  std::printf("run seconds:");
  for (const double seconds : run_s) {
    std::printf(" %.4f", seconds);
  }
  std::printf(
      "\nhost as timed: setup %.6f s, run %.1f ns/request; reference kernel "
      "%.4f s (nominal %.4f s)\n",
      perfbench::Median(setup_s), perfbench::Median(run_s) * 1e9 / generated,
      perfbench::Median(reference_s), perfbench::kReferenceNominalS);
  std::printf("checks: %s\n", failed_runs == 0 ? "passed" : "FAILED");

  // Host time first, then the modelled system's virtual-time outputs
  // (units prefixed `virtual_`), which a fixed seed pins bit-exactly. Host
  // times are in reference units — what they would read on a host where
  // the reference kernel takes its nominal time — which cancels the shared
  // host's drift in speed (reference.h).
  const double nominal_s = perfbench::kReferenceNominalS;
  const std::vector<LayerMetric> metrics = {
      {"setup_s", perfbench::Median(setup_in_reference) * nominal_s, "s"},
      {"run_ns_per_request",
       perfbench::Median(run_in_reference) * nominal_s * 1e9 / generated,
       "ref_ns"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"p99_ms", summary.p99_ms, "virtual_ms"},
      {"mlp_p50_ms", mlp.p50_ms, "virtual_ms"},
      {"mlp_p99_ms", mlp.p99_ms, "virtual_ms"},
      {"resnet18_p50_ms", resnet18.p50_ms, "virtual_ms"},
      {"resnet18_p99_ms", resnet18.p99_ms, "virtual_ms"},
      {"replica_seconds", first.replica_seconds, "virtual_s"},
      {"served_share", static_cast<double>(summary.completed) / generated,
       "share"},
  };
  PrintResult(failed_runs == 0, static_cast<std::int64_t>(run_s.size()),
              failed_runs, metrics);
  return failed_runs == 0 ? 0 : 1;
}

int RunTraced(const Args& args, const perfbench::WorkloadSpec& spec) {
  perfbench::SpanLog spans;
  const perfbench::LayerReport report =
      perfbench::MeasureLayers(spec, args.seed, &spans);
  for (const std::string& line : report.table) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out, std::ios::binary);
    out << spans.ToJson();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
      return 1;
    }
  }
  std::printf("checks: %s\n", report.correct ? "passed" : "FAILED");
  PrintResult(report.correct, report.serve_runs, report.correct ? 0 : 1,
              report.metrics);
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    const perfbench::WorkloadSpec spec =
        perfbench::FindWorkload(args.workload, args.scale);
    PrintEnvironment(args);
    return args.trace ? RunTraced(args, spec) : RunUntraced(args, spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 2;
  }
}
