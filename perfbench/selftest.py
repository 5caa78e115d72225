#!/usr/bin/env python3
"""Small-size self-test of the benchmark driver (runs in seconds).

  python3 perfbench/selftest.py [--driver PATH]

Runs every workload at 10% of its measured size, untraced and traced, and
asserts:
  - every end-to-end and per-layer metric BENCHMARK.json names is emitted,
    with its unit, and nothing else;
  - every run passes its output checks (conservation, no expired dispatch,
    no overlapping batches on a fault-free replica, the Chrome trace's
    request-span count);
  - the same seed reproduces the run's digest and another seed changes it;
  - the traced replay forms within REPLAY_TOLERANCE of the engine's batch
    count.
Without --driver, the driver is built the way run.py builds it.
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = "0.1"
# The replay runs the engine's hot-path calls and replica failures but not
# the autoscaler or admission retries; on these workloads it forms the
# engine's batches exactly, and this is the stated margin.
REPLAY_TOLERANCE = 0.05


def drive(driver, workload, seed, trace):
    command = [str(driver), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", trace, "--scale", SCALE]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    where = f"{workload} seed {seed} trace {trace}"
    assert done.returncode == 0, (
        f"{where}: exit {done.returncode}\n{done.stderr}")
    assert "checks: passed" in lines, f"{where}: checks failed\n{done.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    return lines, result


def check_metrics(result, expected, where):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], (
        f"{where}: metric names differ from BENCHMARK.json")
    for m in expected:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(value["value"], (int, float)), where


def digest(lines):
    for line in lines:
        match = re.match(r"digest: ([0-9a-f]{16}) ", line)
        if match:
            return match.group(1)
    raise AssertionError("no digest line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver")
    args = parser.parse_args()
    if args.driver:
        driver = pathlib.Path(args.driver)
    else:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run as bench  # noqa: E402 — the benchmark's own build step.
        driver = bench.build(ROOT, ROOT / ".bench_build" / "perfbench")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        lines, first = drive(driver, workload, 7, "0")
        check_metrics(first, spec["end_to_end"], workload)
        again, _ = drive(driver, workload, 7, "0")
        other, _ = drive(driver, workload, 8, "0")
        assert digest(lines) == digest(again), (
            f"{workload}: same seed, different digest")
        assert digest(lines) != digest(other), (
            f"{workload}: different seed, same digest")

        seed_digest = digest(lines)
        lines, traced = drive(driver, workload, 7, "1")
        check_metrics(traced, spec["per_layer"], workload + " traced")
        replay = next(l for l in lines if l.startswith("replay: "))
        batches, engine = map(int, re.findall(r"=(\d+)", replay))
        assert abs(batches - engine) <= REPLAY_TOLERANCE * engine, (
            f"{workload}: replay formed {batches} batches, engine {engine}")
        assert any(l.startswith("largest layer: ") for l in lines), workload
        print(f"{workload}: ok (digest {seed_digest}, replay {batches} "
              f"vs engine {engine} batches)")
    print("selftest passed")


if __name__ == "__main__":
    main()
