"""Seeded input corpora for the three workloads, and the expected answers
each case is checked against.

`build(workload, seed, root)` writes the input files under `root` and
returns the case list.  `attach_expected` then fills in the expected
answers: brute-force CLI runs for formulas and circuits, closed forms and
the homomorphisms themselves for the lineage instances.  Together they
are the benchmark's set-up, timed as setup_s.

Sizes are fixed per case slot and only the structure is drawn from the
seed, so run times stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from shapcount import boolfunc, circuit, formats, gen

WORKLOADS = ("formula", "circuit", "lineage")

# (shape, n) per formula case: all three shapes of gen.random_boolfunc
FORMULA_SLOTS = {
    "full": [(shape, n) for n in (11, 12, 13) for shape in gen.SHAPES],
    "tiny": [(shape, 5) for shape in gen.SHAPES],
}
FORMULA_DENSITY = (0.35, 0.65)
FORMULA_MIN_SIZE = 6
# (n, min gates, max gates, variables used, costly verb) per circuit file.
# n straddles the exhaustive determinism bound of 20, so both the verified
# and the assumed paths run.  The substituted copies grow with the number
# of variables the circuit uses, so it is fixed too (None: any).  Every
# file gets the cheap verbs; the costly ones, `kcount` (paper) and
# `compare`, run on the n = 16 and n = 18 files, alternately, so that no
# single drawn circuit dominates the pass and its structure moves wall_s
# little from seed to seed.
CIRCUIT_SLOTS = {
    "full": [(16, 40, 50, 13, "kcount_paper"), (16, 40, 50, 13, "compare"),
             (16, 40, 50, 13, "kcount_paper"), (18, 40, 50, 14, "compare"),
             (18, 40, 50, 14, "kcount_paper"), (18, 40, 50, 14, "compare"),
             (21, 40, 50, 14, None), (21, 40, 50, 14, None)],
    "tiny": [(5, 8, 30, None, "kcount_paper"), (7, 8, 30, None, "compare")],
}
CIRCUIT_VERBS = {"count": ["count"], "kcount_direct": ["kcount", "--method", "direct"],
                 "shapley": ["shapley"], "kcount_paper": ["kcount"], "compare": ["compare"]}
CHEAP_CIRCUIT_VERBS = ("count", "kcount_direct", "shapley")
# hierarchical family R(x), S(x,y): (R rows, fewest and most S rows per R value)
LINEAGE_SIZES = {
    "full": {"big": (200, 17, 21), "mid": (50, 17, 21), "small": (10, 9, 13),
             "tiny": (2, 5, 7), "cmp": (4, 3, 5), "chain": 300, "tiny_chain": 7},
    "tiny": {"big": (6, 2, 4), "mid": (4, 2, 4), "small": (3, 2, 4),
             "tiny": (2, 2, 4), "cmp": (2, 2, 4), "chain": 8, "tiny_chain": 4},
}

HIER_QUERY = "Q :- R(x), S(x,y)\n"
CHAIN_QUERY = "Q :- R(x), S(x,y), T(y)\n"


@dataclass
class Case:
    """One CLI invocation.  `metric` names the verb total it is timed
    under; `expect` holds the answers its output must agree with."""

    name: str
    metric: str
    argv: list[str]
    n: int
    input: str
    expect: dict = field(default_factory=dict)


def build(workload: str, seed: int, root: Path, scale: str = "full") -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    builder = {"formula": _formula_cases, "circuit": _circuit_cases, "lineage": _lineage_cases}
    return builder[workload](rng, root, scale)


# ---------------------------------------------------------------------------
# formulas and circuits: expected answers from the brute-force methods


def _formula_cases(rng, root: Path, scale: str) -> list[Case]:
    """The oracles' cost grows with the share of satisfying assignments, so
    every formula keeps it within FORMULA_DENSITY; single literals and other
    tiny draws are discarded."""
    cases = []
    lo, hi = FORMULA_DENSITY
    for i, (shape, n) in enumerate(FORMULA_SLOTS[scale]):
        while True:
            func = gen.random_boolfunc(rng, max_vars=n, shape=shape)
            if (func.var_count == n and func.size() >= FORMULA_MIN_SIZE
                    and lo <= boolfunc.brute_count(func) / 2**n <= hi):
                break
        if shape == "tree":
            path = root / f"f{i:02d}.sexp"
            path.write_text(formats.format_sexpr(func) + "\n")
        else:
            path = root / f"f{i:02d}.{shape}"
            path.write_text(formats.format_dimacs(func, shape))
        stem = f"f{i:02d}-{shape}-n{n}"
        for metric, verb in (("count", ["count"]), ("kcount_paper", ["kcount"]),
                             ("shapley", ["shapley"]), ("compare", ["compare"])):
            cases.append(Case(f"{stem}.{metric}", metric, verb + [str(path)], n, str(path)))
    return cases


def _circuit_cases(rng, root: Path, scale: str) -> list[Case]:
    cases = []
    for i, (n, lo, hi, used, costly) in enumerate(CIRCUIT_SLOTS[scale]):
        while True:
            drawn = gen.random_decision_circuit(rng, max_vars=n, max_gates=hi + 20)
            if (drawn.var_count == n and lo <= drawn.size() <= hi
                    and used in (None, len({g.var for g in drawn.gates if g.kind == "var"}))):
                break
        path = root / f"c{i:02d}.nnf"
        path.write_text(circuit.to_nnf_text(drawn))
        stem = f"c{i:02d}-n{n}"
        kind = ["--kind", "circuit"]
        for metric in CHEAP_CIRCUIT_VERBS + ((costly,) if costly else ()):
            verb = CIRCUIT_VERBS[metric]
            cases.append(Case(f"{stem}.{metric}", metric, verb + [str(path)] + kind, n, str(path)))
    return cases


def attach_expected(workload: str, cases: list[Case], run_cli) -> None:
    if workload == "lineage":
        _attach_hierarchical(cases)
    else:
        _attach_brute(cases, run_cli)


def _attach_brute(cases: list[Case], run_cli) -> None:
    """Expected k-counts and Shapley values of each formula or circuit
    input, by the brute-force methods through the CLI."""
    by_input: dict[str, dict] = {}
    for case in cases:
        if case.input not in by_input:
            kind = case.argv[case.argv.index("--kind"):] if "--kind" in case.argv else []
            try:
                kc = run_cli(["kcount", "--method", "brute", case.input] + kind)
                sh = run_cli(["shapley", "--method", "brute", case.input] + kind)
                by_input[case.input] = {
                    "kcounts": tuple(int(c) for c in kc.split(",")),
                    "shapley": tuple(Fraction(v) for v in sh.split(",")),
                }
            except (RuntimeError, ValueError) as exc:
                by_input[case.input] = {"error": f"brute force failed: {exc}"}
        case.expect.update(by_input[case.input])


# ---------------------------------------------------------------------------
# lineage: a hierarchical family with closed-form answers, and a chain


def _write_db(directory: Path, schema: str, relations: dict[str, list[tuple[str, ...]]]) -> str:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.txt").write_text(schema)
    for name, rows in relations.items():
        (directory / f"{name}.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    return str(directory)


def _names(rng, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{v}" for v in rng.sample(range(10 * count + 1000), count)]


def _hierarchical(rng, root: Path, label: str, size) -> tuple[str, dict]:
    """R(x) with `a` rows; each R value joins b_x in lo..hi S rows, and the
    b_x sum to a * (lo + hi) / 2, so the tuple count is fixed.  Rows are
    shuffled, so variable numbering follows the seed."""
    a, lo, hi = size
    sizes = [(lo + hi) // 2] * a
    for _ in range(a):
        i, j = rng.randrange(a), rng.randrange(a)
        if sizes[i] > lo and sizes[j] < hi:
            sizes[i] -= 1
            sizes[j] += 1
    blocks = dict(zip(_names(rng, "x", a), sizes))
    r_rows = [(x,) for x in blocks]
    s_rows = [(x, y) for x, b in blocks.items() for y in _names(rng, "y", b)]
    rng.shuffle(r_rows)
    rng.shuffle(s_rows)
    path = _write_db(root / label, "R 1 endo\nS 2 endo\n", {"R": r_rows, "S": s_rows})
    block_of_var = [blocks[x] for (x,) in r_rows] + [blocks[x] for x, _ in s_rows]
    return path, {"blocks": sorted(blocks.values()), "r_rows": len(r_rows),
                  "block_of_var": block_of_var}


def _chain(rng, root: Path, label: str, m: int) -> tuple[str, set]:
    """Non-hierarchical R(x), S(x,y), T(y) with exogenous S: about 2m
    edges, a few of them dangling outside R or T."""
    us, vs = _names(rng, "u", m), _names(rng, "v", m)
    edges = {(rng.choice(us), rng.choice(vs)) for _ in range(2 * m)}
    edges |= {(f"w{i}", rng.choice(vs)) for i in range(max(1, m // 10))}
    s_rows = sorted(edges)
    rng.shuffle(s_rows)
    path = _write_db(root / label, "R 1 endo\nS 2 exo\nT 1 endo\n",
                     {"R": [(u,) for u in us], "S": s_rows, "T": [(v,) for v in vs]})
    var_r = {u: i for i, u in enumerate(us)}
    var_t = {v: m + i for i, v in enumerate(vs)}
    clauses = {frozenset((var_r[u], var_t[v])) for u, v in edges if u in var_r}
    return path, clauses


def _lineage_cases(rng, root: Path, scale: str) -> list[Case]:
    sizes = LINEAGE_SIZES[scale]
    hq = root / "hier.query"
    hq.write_text(HIER_QUERY)
    cq = root / "chain.query"
    cq.write_text(CHAIN_QUERY)
    kind = ["--kind", "lineage"]
    cases = []

    def add(name, metric, argv, n, expect, db=""):
        cases.append(Case(name, metric, argv, n, db, dict(expect)))

    hier = {label: _hierarchical(rng, root, label, sizes[label])
            for label in ("big", "mid", "small", "tiny", "cmp")}
    big, big_info = hier["big"]
    n_big = len(big_info["block_of_var"])
    add("big.count", "count", ["count", str(hq), big] + kind, n_big, {"hier": big_info}, big)
    add("big.stretch-dummy", "stretch",
        ["stretch", str(hq), big, "--out", str(root / "out-dummy")] + kind, n_big,
        {"hier": big_info, "out": str(root / "out-dummy"), "arities": [1] * n_big}, big)
    arities = [rng.randint(0, 2) for _ in range(n_big)]
    add("big.stretch-expand", "stretch",
        ["stretch", str(hq), big, "--out", str(root / "out-expand"),
         "--mode", "expand:" + ",".join(map(str, arities))] + kind, n_big,
        {"hier": big_info, "out": str(root / "out-expand"), "arities": arities}, big)
    for label, metric, verb in (("mid", "kcount_direct", ["kcount", "--method", "direct"]),
                                ("small", "shapley", ["shapley"]),
                                ("tiny", "kcount_paper", ["kcount"]),
                                ("cmp", "compare", ["compare"])):
        path, info = hier[label]
        add(f"{label}.{metric}", metric, verb + [str(hq), path] + kind,
            len(info["block_of_var"]), {"hier": info}, path)

    chain, clauses = _chain(rng, root, "chain", sizes["chain"])
    add("chain.lineage", "lineage", ["lineage", str(cq), chain] + kind,
        2 * sizes["chain"], {"clauses": clauses}, chain)
    tiny_chain, _ = _chain(rng, root, "tiny_chain", sizes["tiny_chain"])
    add("tiny_chain.compare", "compare", ["compare", str(cq), tiny_chain] + kind,
        2 * sizes["tiny_chain"], {}, tiny_chain)
    add("chain.check", "check", ["check", str(cq)], 0,
        {"lines": ["hierarchical: no", "branch: hard"]})
    add("hier.check", "check", ["check", str(hq)], 0,
        {"lines": ["hierarchical: yes", "branch: FP"]})
    return cases


def _attach_hierarchical(cases: list[Case]) -> None:
    """Closed-form answers for the hierarchical family, computed only as far
    as each case's verb needs them."""
    for case in cases:
        info = case.expect.get("hier")
        if info is None:
            continue
        if case.metric == "count":
            case.expect["count"] = hierarchical_count(info["blocks"])
        elif case.metric == "shapley":
            case.expect["shapley"] = hierarchical_shapley(info["block_of_var"], info["r_rows"])
            case.expect["kcounts"] = hierarchical_kcounts(info["blocks"])
        elif case.metric in ("kcount_paper", "kcount_direct"):
            case.expect["kcounts"] = hierarchical_kcounts(info["blocks"])


# Generating polynomials in t count assignments by their number of true
# tuples.  A block R(x) with its b S rows is false in (1+t)^b + t ways: R
# false and the S rows free, or R true and every S row false.  The query is
# false exactly when every block is.


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _binomial_poly(b: int) -> list[int]:
    return [comb(b, k) for k in range(b + 1)]


def _block_false(b: int) -> list[int]:
    poly = _binomial_poly(b)
    poly[1] += 1
    return poly


def _false_poly(blocks) -> list[int]:
    out = [1]
    for b in blocks:
        out = _mul(out, _block_false(b))
    return out


def hierarchical_count(blocks) -> int:
    n = sum(1 + b for b in blocks)
    false = 1
    for b in blocks:
        false *= (1 << b) + 1
    return (1 << n) - false


def hierarchical_kcounts(blocks) -> tuple[int, ...]:
    n = sum(1 + b for b in blocks)
    false = _false_poly(blocks)
    return tuple(comb(n, k) - (false[k] if k < len(false) else 0) for k in range(n + 1))


def hierarchical_shapley(block_of_var: list[int], r_rows: int) -> tuple[Fraction, ...]:
    """Shap_v = sum_k k!(n-1-k)!/n! * d_k, where d_k counts size-k models of
    the cofactor at 1 minus the cofactor at 0.  Only v's own block changes:
    its false polynomial becomes 1 (R true) vs (1+t)^b (R false) for an R
    tuple, and (1+t)^(b-1) (S true) vs (1+t)^(b-1) + t (S false) for an S
    tuple, so d = [others] * ((1+t)^b - 1) and [others] * t respectively."""
    n = len(block_of_var)
    blocks = sorted(block_of_var[:r_rows])
    weights = [Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) for k in range(n)]
    values: dict[tuple[bool, int], Fraction] = {}
    out = []
    for var, b in enumerate(block_of_var):
        key = (var < r_rows, b)
        if key not in values:
            others = list(blocks)
            others.remove(b)
            diff = _binomial_poly(b) if key[0] else [0, 1]
            if key[0]:
                diff[0] = 0
            poly = _mul(_false_poly(others), diff)
            values[key] = sum((w * c for w, c in zip(weights, poly)), Fraction(0))
        out.append(values[key])
    return tuple(out)
