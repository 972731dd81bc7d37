"""Timed passes over a workload's cases, with the correctness gate.

Each case is one in-process call of `shapcount.cli.main(argv)` with stdout
and stderr captured.  A case fails when its exit code is not 0, the call
raises, its output disagrees with the expected answer, one of the paper's
invariants is broken, or (for the digest seed only) the sha256 of its
output differs from the digest stored with the benchmark.

Between cases, once at least REFERENCE_EVERY_S of case time has passed
and after the last case, a pass runs the reference computation of
`calibrate`, which gives the host's speed during that pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import shapcount.cli

import calibrate
from corpus import Case
from spans import CHECK_LAYER, Tracer

DIGEST_SEED = 0
DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"
INVARIANTS = ("growth", "efficiency", "range", "oracle_calls")
REFERENCE_EVERY_S = 0.5


def invoke(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of one CLI call; code None on a raise."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = shapcount.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_cli(argv: list[str]) -> str:
    """Stdout of a call that must succeed (used for expected answers)."""
    code, out, err = invoke(argv)
    if code != 0:
        raise RuntimeError(f"shapcount {' '.join(argv)} exited {code}: {err.strip()}")
    return out


def output_digest(case: Case, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    out_dir = case.expect.get("out")
    if out_dir:
        for path in sorted(Path(out_dir).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def load_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DIGEST_SEED:
        return None
    return json.loads(DIGEST_FILE.read_text()).get(workload, {})


# ---------------------------------------------------------------------------
# checks on one case's output


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.strip().split(",")]


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.strip().split(",")]


def _csv_fractions(text: str) -> list[Fraction]:
    return [Fraction(int(num), int(den))
            for _, _, num, den in (line.split(",") for line in text.splitlines())]


_CLAUSE = re.compile(r"\(and x(\d+) x(\d+)\)")


def check_output(case: Case, stdout: str, violations: dict[str, int]) -> list[str]:
    """Why the output is wrong (empty when it is right); counts invariant
    violations into `violations`."""
    expect = case.expect
    metric = case.metric
    problems = []
    if metric == "count":
        want = expect["count"] if "count" in expect else sum(expect["kcounts"])
        if int(stdout) != want:
            problems.append("model count differs from the expected count")
    elif metric in ("kcount_paper", "kcount_direct"):
        got = _ints(stdout)
        if len(got) != case.n + 1 or any(not 0 <= c <= comb(case.n, k) for k, c in enumerate(got)):
            violations["range"] += 1
            problems.append("a k-count lies outside [0, C(n,k)]")
        if tuple(got) != expect["kcounts"]:
            problems.append("k-counts differ from the expected k-counts")
    elif metric == "shapley":
        got = _csv_fractions(stdout) if "hier" in expect else _fractions(stdout)
        kc = expect["kcounts"]
        if sum(got, Fraction(0)) != kc[-1] - kc[0]:
            violations["efficiency"] += 1
            problems.append("Shapley values do not sum to f(1..1) - f(0..0)")
        if tuple(got) != expect["shapley"]:
            problems.append("Shapley values differ from the expected values")
    elif metric == "compare":
        if stdout.splitlines()[-1:] != ["agreement ok"]:
            problems.append("compare did not report agreement")
    elif metric == "lineage":
        formula = stdout.splitlines()[0]
        got = {frozenset(map(int, m)) for m in _CLAUSE.findall(formula)}
        if got != expect["clauses"] or formula.count("(and ") != len(expect["clauses"]):
            problems.append("lineage clauses differ from the homomorphisms")
    elif metric == "check":
        lines = stdout.splitlines()
        problems.extend(f"missing {want!r}" for want in expect["lines"] if want not in lines)
    elif metric == "stretch":
        problems.extend(_check_stretch(case))
    return problems


def _check_stretch(case: Case) -> list[str]:
    out = Path(case.expect["out"])
    arities = case.expect["arities"]
    r_rows = case.expect["hier"]["r_rows"]
    want = {"R": sum(arities[:r_rows]), "S": sum(arities[r_rows:]), "var_map": sum(arities)}
    problems = []
    for name, rows in want.items():
        got = len((out / f"{name}.csv").read_text().splitlines())
        if got != rows:
            problems.append(f"stretched {name}.csv has {got} rows, expected {rows}")
    return problems


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float
    times: dict[str, float]  # case name -> seconds
    failures: dict[str, list[str]]  # case name -> problems
    violations: dict[str, int]
    ref_times: list[float]  # seconds of each reference run
    tracer: Tracer | None = None
    case_spans: dict[str, tuple[int, int]] = field(default_factory=dict)

    def scale(self) -> float:
        """Factor taking this pass's times to the reference host speed."""
        return calibrate.scale(self.ref_times)


def run_pass(cases: list[Case], digests: dict[str, str] | None, traced: bool = False) -> PassResult:
    gc.collect()
    violations = dict.fromkeys(INVARIANTS, 0)
    times: dict[str, float] = {}
    failures: dict[str, list[str]] = {}
    tracer = Tracer() if traced else None
    case_spans = {}
    ref_times: list[float] = []
    since_ref = 0.0
    if tracer:
        tracer.install()
    try:
        for case in cases:
            if tracer:
                first = len(tracer.spans)
                broken = sum(tracer.violations.values())
                span = tracer.open("bench.case", case.name)
            start = perf_counter()
            code, stdout, stderr = invoke(case.argv)
            times[case.name] = perf_counter() - start
            if tracer:
                tracer.close(span)
                case_spans[case.name] = (first, len(tracer.spans))
                check = tracer.open(CHECK_LAYER, case.name)
            problems = case_problems(case, code, stdout, stderr, digests, violations)
            if tracer:
                tracer.close(check)
                if sum(tracer.violations.values()) != broken:
                    problems.append(f"invariant broken inside the program: {tracer.violations}")
            if problems:
                failures[case.name] = problems
            since_ref += times[case.name]
            if since_ref >= REFERENCE_EVERY_S or case is cases[-1]:
                ref_times.append(calibrate.timed_reference())
                since_ref = 0.0
    finally:
        if tracer:
            tracer.restore()
    if tracer:
        for key, count in tracer.violations.items():
            violations[key] += count
    return PassResult(sum(times.values()), times, failures, violations, ref_times, tracer,
                      case_spans)


def case_problems(case, code, stdout, stderr, digests, violations) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    if "error" in case.expect:
        return [case.expect["error"]]
    try:
        problems = check_output(case, stdout, violations)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if digests is not None and digests.get(case.name) != output_digest(case, stdout):
        problems.append("stdout differs from the stored digest")
    return problems
