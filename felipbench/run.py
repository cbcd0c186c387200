"""End-to-end FELIP benchmark: one workload (or all) from one seed.

Usage (from the repository root):

    python3 felipbench/run.py --workload batch-mixed --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` adds one cycle with every layer wrapped and reports the
per-layer metrics instead. Both run every correctness check. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``); the lines
before it give the host fingerprint, each check, and every metric with
its sample count. The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import host
import scenarios
from metrics import END_TO_END, PER_LAYER, UNITS, median

SETUP_SAMPLES = 3


def measure_setup(workload: str) -> list:
    """``(seconds, slowdown)`` of fresh interpreters made ready.

    Each sample is bracketed by a calibration in this process just
    before the start and one in the child right after it is ready.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = host.calibration_s()
        started = time.perf_counter()
        lines = host.setup_probe(workload)
        samples.append((float(lines[0]) - started,
                        host.slowdown(before, float(lines[1]))))
    return samples


def run_workload(args) -> int:
    os.environ["REPRO_KERNEL_CACHE"] = str(host.KERNEL_CACHE)
    for name in ("REPRO_NO_JIT", "REPRO_JIT"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(host.SRC))

    import workloads  # imports numpy; repro is imported lazily inside

    scenario = scenarios.SCENARIOS[args.workload]
    fingerprint = host.fingerprint(host.prebuild(args.workload))
    print(f"# felipbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host " + json.dumps(fingerprint, sort_keys=True))

    report = workloads.Report()
    if not args.trace:
        setup = measure_setup(args.workload)
        report.metric("setup_s", median([t / f for t, f in setup]),
                      len(setup))
        report.raw["setup_s"] = median([t for t, _ in setup])
        report.notes["setup_samples_s"] = [[round(t, 4), round(f, 3)]
                                           for t, f in setup]

    inputs = workloads.make_inputs(scenario, args.seed)
    cycles = workloads.run_cycles(scenario, inputs, args.seconds, report,
                                  with_singles=not args.trace)
    if args.trace:
        values = workloads.traced_cycle(report, scenario, inputs, cycles)
        for name, _, _ in PER_LAYER:
            report.metric(name, values[name], 1)
    else:
        workloads.report_cycles(report, inputs, cycles)
        report.metric("peak_rss_mb", workloads.peak_rss_mb(), 1)

    key = (f"{fingerprint['source_sha256'][:16]}-{args.workload}"
           f"-s{args.seed}-t{args.seconds}-tr{args.trace}")
    mismatch = host.check_counts(key, report.counts)
    report.check("counts_repeat_exactly_across_runs", mismatch is None,
                 mismatch or "")
    return emit(report, args.trace)


def emit(report, trace: int) -> int:
    names = ([name for name, _, _ in PER_LAYER] if trace
             else [name for name, _, _ in END_TO_END])
    for name, ok, detail in report.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    for name, value in sorted(report.counts.items()):
        print(f"# count {name} = {value}")
    for key, value in report.notes.items():
        print(f"# note {key} = {json.dumps(value)}")
    for name in names:
        raw = (f" raw={float(report.raw[name])!r}" if name in report.raw
               else "")
        print(f"# metric {name} = {report.metrics[name]!r} {UNITS[name]} "
              f"(samples={report.samples[name]}){raw}")
    correct = report.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name],
                           "unit": UNITS[name]} for name in names},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in scenarios.SCENARIOS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= bool(result["correct"]) and not proc.returncode
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*scenarios.SCENARIOS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (host.SRC / "repro" / "__init__.py").is_file():
        print(f"felipbench: the FELIP sources are missing "
              f"({host.SRC / 'repro'} not found); run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
