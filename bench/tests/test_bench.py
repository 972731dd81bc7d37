"""Tests of the benchmark harness itself (not of shapcount).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_tiny_corpus_produces_every_named_metric(tmp_path):
    spec = run.load_spec()
    for workload in corpus.WORKLOADS:
        for traced in (False, True):
            result, report = run.measure(workload, 3, 0.0, traced, scale="tiny",
                                         work=tmp_path / f"{workload}-{traced}")
            assert result["correct"], "\n".join(report)
            assert result["failed"] == 0 and result["attempted"] > 0
            wanted = spec["per_layer" if traced else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            if not traced:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            else:
                assert all(result["metrics"][f"invariants.{k}"]["value"] == 0
                           for k in harness.INVARIANTS)


def test_scale_takes_times_to_the_reference_speed(tmp_path):
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([ref, ref, ref]) == 1
    assert calibrate.scale([2 * ref, 2 * ref]) == 0.5
    cases = corpus.build("formula", 1, tmp_path, "tiny")
    result = harness.run_pass(cases, None)
    assert result.ref_times and result.scale() > 0


def test_traced_pass_restores_every_binding(tmp_path):
    before = [(id(ns), key, value) for ns, key, value in spans.bindings()]
    cases = corpus.build("lineage", 1, tmp_path, "tiny")
    corpus.attach_expected("lineage", cases, harness.run_cli)
    result = harness.run_pass(cases, None, traced=True)
    assert not result.failures
    layers = {span[0] for span in result.tracer.spans}
    # reached through cli's verb table, lineage's own import and a module attribute
    assert {"cli.shapley", "circuit.pipeline", "lineage.compile"} <= layers
    assert [(id(ns), key, value) for ns, key, value in spans.bindings()] == before


def test_wrong_oracle_answer_counts_as_failure(tmp_path, monkeypatch):
    import shapcount.boolfunc as boolfunc

    original = boolfunc.or_substituted_count

    def off_by_one_at_width_two(func, arities, **kwargs):
        return original(func, arities, **kwargs) + (2 in arities)

    monkeypatch.setattr(boolfunc, "or_substituted_count", off_by_one_at_width_two)
    result, report = run.measure("formula", 3, 0.0, False, scale="tiny", work=tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 1 - result["failed"] / result["attempted"]
    assert any("kcount_paper" in line for line in report if line.startswith("# FAILED"))


def _brute_hierarchical(blocks):
    """k-counts and Shapley values of R(x), S(x,y) by enumeration, with the
    variables of block i laid out as R_i, then its S rows."""
    layout = []
    for i, b in enumerate(blocks):
        layout += [(i, True)] + [(i, False)] * b
    n = len(layout)

    def value(true):
        return int(any(true[j] and any(true[k] for k, (i2, r) in enumerate(layout)
                                       if i2 == i and not r)
                       for j, (i, r) in enumerate(layout) if r))

    table = {bits: value(bits) for bits in product((0, 1), repeat=n)}
    kcounts = [0] * (n + 1)
    for bits, v in table.items():
        kcounts[sum(bits)] += v
    shapley = []
    for var in range(n):
        total = Fraction(0)
        for bits, v in table.items():
            if bits[var]:
                k = sum(bits) - 1
                low = table[bits[:var] + (0,) + bits[var + 1:]]
                total += Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) * (v - low)
        shapley.append(total)
    return tuple(kcounts), tuple(shapley), layout


def test_closed_forms_match_enumeration():
    blocks = [1, 3, 2]
    kcounts, shapley, layout = _brute_hierarchical(blocks)
    assert corpus.hierarchical_kcounts(blocks) == kcounts
    assert corpus.hierarchical_count(blocks) == sum(kcounts)
    # the closed form expects R tuples first, then S tuples
    order = [j for j, (_, r) in enumerate(layout) if r] + [j for j, (_, r) in enumerate(layout) if not r]
    block_of_var = [blocks[layout[j][0]] for j in order]
    assert corpus.hierarchical_shapley(block_of_var, len(blocks)) == tuple(shapley[j] for j in order)
