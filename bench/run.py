"""Benchmark of the shapcount command line, per verb and per layer.

    python3 bench/run.py --workload formula|circuit|lineage --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One process runs one workload as a closed loop: one case after
another, one thread.  One set-up is a fresh interpreter that imports the
program, writes the seeded corpus and computes the expected answers; it
runs SETUP_REPEATS times and setup_s is the median.  Passes over the
case list repeat until `--seconds` is used up; the first pass is a warm-up,
checked but not timed.

Every time reported is scaled to a fixed host speed (see `calibrate`):
a reference computation runs between cases, and each pass's times are
multiplied by REFERENCE_S over the mean reference time of that pass, each
set-up's by the same factor from the reference runs just before and after
it.  wall_s and the per-verb times sum, over their cases, each case's
median scaled time over the timed passes.  The report lines also give the
median and quartiles of the scaled pass totals, and the header those of
the unscaled ones and of the scale factors.

With `--trace 1` untraced and traced passes alternate in pairs; the traced
ones give per-layer self times (median over traced passes), sizes and
invariant counts, the untraced ones the per-verb times.

Stdout: a report of every metric (value, unit, sample count, median and
quartiles of its samples), the machine, and with `--trace 1` one size
record per case; the last line is the JSON result.  `--record-digests`
stores the output digests of the digest seed instead of measuring.  Exit 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# One set-up, run in a fresh interpreter: work the program does at import
# time shows in setup_s, and the memory the brute-force expected answers
# take does not show in the measured process's peak_rss_mb.
SETUP_PROGRAM = """
import pickle, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import corpus, harness
workload, seed, root, scale = sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), sys.argv[6]
cases = corpus.build(workload, seed, root, scale)
corpus.attach_expected(workload, cases, harness.run_cli)
(root / "cases.pickle").write_bytes(pickle.dumps(cases))
"""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup(workload: str, seed: int, work: Path, scale: str):
    """Set up SETUP_REPEATS times, timing each (scaled); keep the last
    copy.  One set-up is a fresh interpreter that imports the program,
    writes the corpus and attaches the expected answers."""
    import calibrate

    times = []
    before = [calibrate.timed_reference() for _ in range(2)]
    for i in range(SETUP_REPEATS):
        target = work / f"corpus{i}"
        start = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_PROGRAM, str(BENCH), str(ROOT / "src"),
                        workload, str(seed), str(target), scale],
                       stdin=subprocess.DEVNULL, check=True)
        elapsed = perf_counter() - start
        after = [calibrate.timed_reference() for _ in range(2)]
        times.append(elapsed * calibrate.scale(before + after))
        before = after
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return pickle.loads((target / "cases.pickle").read_bytes()), times


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scale: str = "full", work: Path | None = None):
    """Run one workload; returns (result dict, report lines)."""
    import harness

    spec = load_spec()
    work = work or ROOT / ".bench_run" / f"work-{os.getpid()}"
    try:
        cases, setup_times = setup(workload, seed, work, scale)
        digests = harness.load_digests(workload, seed) if scale == "full" else None
        untraced, traced_passes = [], []
        deadline = perf_counter() + seconds
        warmup = harness.run_pass(cases, digests)
        while True:
            # passes come in untraced/traced pairs whose order alternates
            pair, second = divmod(len(untraced) + len(traced_passes), 2)
            as_traced = traced and second != pair % 2
            result = harness.run_pass(cases, digests, traced=as_traced)
            (traced_passes if as_traced else untraced).append(result)
            longest = max(p.wall_s for p in untraced + traced_passes)
            if perf_counter() + longest > deadline and (traced_passes or not traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [warmup] + untraced + traced_passes
    attempted = len(cases) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    scales = [p.scale() for p in untraced]
    # samples give the report's quartiles; a metric's value is their median
    # unless `values` holds a sum of per-case medians for it
    samples: dict[str, list[float]] = {
        "setup_s": setup_times,
        "wall_s": [p.wall_s * k for p, k in zip(untraced, scales)],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "ok_frac": [1 - failed / attempted],
    }
    per_case = {c.name: statistics.median(p.times[c.name] * k for p, k in zip(untraced, scales))
                for c in cases}
    values = {"wall_s": sum(per_case.values())}
    for metric in {c.metric for c in cases}:
        names = [c.name for c in cases if c.metric == metric]
        samples[f"{metric}_s"] = [sum(p.times[name] for name in names) * k
                                  for p, k in zip(untraced, scales)]
        values[f"{metric}_s"] = sum(per_case[name] for name in names)
    if traced:
        samples.update(_layer_samples(spec, passes, untraced, traced_passes))
        _write_spans(workload, traced_passes[-1].tracer.spans)

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics, report = {}, _header(workload, seed, seconds, traced)
    median, q1, q3 = quartiles([p.wall_s for p in untraced])
    report.append(f"# unscaled pass: median={median:.6g} q1={q1:.6g} q3={q3:.6g}; "
                  f"scale: median={statistics.median(scales):.6g} "
                  f"min={min(scales):.6g} max={max(scales):.6g}")
    for entry in wanted:
        # a verb total stays 0 on a workload that does not run the verb
        name_samples = samples.get(entry["name"], [0.0])
        median, q1, q3 = quartiles(name_samples)
        value = values.get(entry["name"], median)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        report.append(f"{entry['name']:34} {entry['unit']:6} value={value:<10.6g} "
                      f"n={len(name_samples):<3} median={median:.6g} q1={q1:.6g} q3={q3:.6g}")
    if traced:
        report += _case_records(cases, per_case, traced_passes[-1])
    for p in passes:
        for name, problems in p.failures.items():
            report.append(f"# FAILED {name}: {'; '.join(problems)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def _layer_samples(spec, passes, untraced, traced_passes) -> dict[str, list[float]]:
    """Per-layer metrics, one sample per traced pass; invariant violations
    are totals over every pass."""
    import spans

    names = [m["name"] for m in spec["per_layer"]]
    named_layers = {n.rpartition(".")[0] for n in names if n.endswith(".self_s")}
    summaries = [spans.summarize(p.tracer.spans) for p in traced_passes]
    scales = [p.scale() for p in traced_passes]
    samples: dict[str, list[float]] = {}
    for name in names:
        layer, _, key = name.rpartition(".")
        if "." not in name:  # a verb total, from the untraced passes
            continue
        if layer == "invariants":
            samples[name] = [sum(p.violations[key] for p in passes)]
        elif name == "reductions.oracle_calls":
            samples[name] = [p.tracer.oracle_calls for p in traced_passes]
        elif name == "trace.overhead_frac":
            # each traced pass against the untraced pass of its pair
            samples[name] = [t.wall_s * t.scale() / (u.wall_s * u.scale()) - 1
                             for u, t in zip(untraced, traced_passes)]
        elif name == "other.self_s":
            samples[name] = [k * sum(v["self_s"] for layer, v in s.items() if layer not in named_layers)
                             for s, k in zip(summaries, scales)]
        else:
            # self times are scaled like every other time; counts are not
            samples[name] = [s.get(layer, {}).get(key, 0) * (k if key == "self_s" else 1)
                             for s, k in zip(summaries, scales)]
    return samples


def _header(workload, seed, seconds, traced) -> list[str]:
    return [
        f"# workload={workload} seed={seed} seconds={seconds} trace={int(traced)}",
        f"# nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu_model()}",
    ]


def _case_records(cases, per_case, traced_pass) -> list[str]:
    """n, gates in and out, largest integer and median time per case."""
    lines = ["# case n gates_in gates_out max_bits time_s"]
    spans_ = traced_pass.tracer.spans
    for case in cases:
        lo, hi = traced_pass.case_spans[case.name]
        gates_in = gates_out = bits = 0
        for layer, _, _, _, _, attrs in spans_[lo:hi]:
            attrs = attrs or {}
            if layer in ("circuit.parse", "lineage.compile"):
                gates_in = max(gates_in, attrs["gates"])
            gates_out = max(gates_out, attrs.get("gates_out", 0))
            bits = max(bits, attrs.get("bits", 0))
        lines.append(f"# case {case.name} {case.n} {gates_in} {gates_out} {bits} "
                     f"{per_case[case.name]:.6f}")
    return lines


def _write_spans(workload: str, recorded) -> None:
    out = ROOT / ".bench_run" / f"spans-{workload}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as handle:
        for layer, name, start, end, parent, attrs in recorded:
            handle.write(json.dumps({"layer": layer, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")


def record_digests(workload: str) -> int:
    import harness

    work = ROOT / ".bench_run" / f"work-{os.getpid()}"
    try:
        cases, _ = setup(workload, harness.DIGEST_SEED, work, "full")
        found = {}
        for case in cases:
            code, stdout, stderr = harness.invoke(case.argv)
            problems = harness.case_problems(case, code, stdout, stderr, None,
                                              dict.fromkeys(harness.INVARIANTS, 0))
            if problems:
                print(f"{case.name}: {problems}", file=sys.stderr)
                return 1
            found[case.name] = harness.output_digest(case, stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stored = json.loads(harness.DIGEST_FILE.read_text()) if harness.DIGEST_FILE.exists() else {}
    stored[workload] = found
    harness.DIGEST_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("formula", "circuit", "lineage"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "shapcount" / "cli.py").is_file():
        print(f"bench: no shapcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if ns.record_digests:
        return record_digests(ns.workload)
    result, report = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
