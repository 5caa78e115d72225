// A fixed reference workload that measures how fast the host is right now.
//
// On a shared machine the speed available to one process drifts by tens of
// percent over minutes, which moves every host-time figure with it. The
// driver times this kernel beside every serve run and reports host time
// per request in reference units: the run's time over the kernel's time,
// scaled by the kernel's nominal time. The kernel mirrors the simulator's
// host work — an event heap, a sort, a JSON-style string build, and random
// updates into freshly mapped memory — so it slows down when the serve run
// does. It is part of the benchmark, never of the program under test, so a
// change to the program leaves it alone.
#pragma once

namespace perfbench {

/// Seconds the reference kernel takes on a quiet host: the scale of the
/// normalised host times (they read as ns on a host where the kernel runs
/// in this time).
inline constexpr double kReferenceNominalS = 0.06;

/// Runs the reference kernel once and returns its host seconds. The work
/// is the same on every call.
double TimeReference();

}  // namespace perfbench
