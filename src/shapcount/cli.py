"""Command-line front end.

Verbs: count, kcount, shapley, stretch, check, lineage, pp2dnf, compare.
Inputs are formula files (s-expression or DIMACS), circuit files (nnf), or a
query file plus a database directory for --kind lineage.

Exit codes: 0 success, 2 input error, 3 capability refusal (enumeration
bounds, intractable branch, out of memory), 4 internal inconsistency.
Standard output is byte-identical for identical inputs and flags; timings
and notes go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import boolfunc, circuit, formats, gen, lineage, reductions
from .boolfunc import BoolFunc
from .errors import InconsistencyError, InputError, RefusalError, read_input

EXIT_INPUT = 2
EXIT_REFUSAL = 3
EXIT_INCONSISTENT = 4


def _fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load_formula(path: str) -> BoolFunc:
    return formats.parse_function(read_input(path))


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        target = Path(path)
        if target.is_dir():
            for child in sorted(target.rglob("*")):
                if child.is_file():
                    h.update(child.name.encode())
                    h.update(child.read_bytes())
        else:
            h.update(target.read_bytes())
    return h.hexdigest()[:16]


def _validated_circuit(path: str) -> circuit.Circuit:
    parsed = circuit.parse_nnf(read_input(path))
    if circuit.validate(parsed).determinism == "assumed":
        print("shapcount: note: assumed-deterministic (too many variables to verify)", file=sys.stderr)
    return parsed


def _load_instance(paths: list[str]) -> tuple[lineage.Query, lineage.Database]:
    if len(paths) != 2:
        raise InputError("--kind lineage takes a query file and a database directory")
    query = lineage.parse_query(read_input(paths[0]))
    return query, lineage.load_database(paths[1])


def _single(paths: list[str]) -> str:
    if len(paths) != 1:
        raise InputError("this input kind takes exactly one file")
    return paths[0]


def _bound(ns) -> int:
    return ns.max_vars if ns.max_vars is not None else boolfunc.ENUMERATION_BOUND


def _resolve(ns, method: str | None = None):
    """The input as a formula or a validated circuit, with a lineage input's
    database (None for the other kinds).  Lineage becomes its compiled
    circuit when the query is in FP and the method is not brute, else its
    formula, which only brute force reads: above the bound it is refused in
    the words of the verb's brute pass, before it is built.  Size-bucketed
    counts other than brute force are refused off FP."""
    if ns.kind == "formula":
        return _load_formula(_single(ns.inputs)), None
    if ns.kind == "circuit":
        return _validated_circuit(_single(ns.inputs)), None
    query, db = _load_instance(ns.inputs)
    if method != "brute" and lineage.dichotomy_branch(query) == "FP":
        return lineage.compile_hierarchical_lineage(query, db), db
    if ns.verb == "kcount" and method != "brute":
        raise RefusalError(
            "size-bucketed counting beyond brute force needs a hierarchical "
            "self-join-free query; pass --method brute"
        )
    what = "subset enumeration" if ns.verb == "shapley" else "exhaustive enumeration"
    return lineage.build_lineage(query, db, bound=_bound(ns), what=what).func, db


# ---------------------------------------------------------------------------
# Commands


def cmd_count(ns) -> str:
    func, _ = _resolve(ns)
    if isinstance(func, circuit.Circuit):
        return f"{circuit.model_count_dd(func)}\n"
    return f"{boolfunc.brute_count(func, bound=_bound(ns))}\n"


def cmd_kcount(ns) -> str:
    method = ns.method or "paper"
    func, _ = _resolve(ns, method)
    if method == "brute":
        counts = boolfunc.brute_kcounts(func, bound=_bound(ns))
    elif isinstance(func, circuit.Circuit) and method == "paper":
        counts = circuit.kcounts_circuit(func)
    elif isinstance(func, circuit.Circuit):
        counts = circuit.size_polynomial_count(func)
    elif method == "direct":
        raise InputError("--method direct needs a circuit or lineage input")
    else:
        counts = reductions.kcounts_from_counts(
            func.var_count, boolfunc.count_oracle(func, bound=_bound(ns))
        )
    return ",".join(str(c) for c in counts) + "\n"


def _shapley_csv(values, db) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for var, value in enumerate(values):
        rel, row = db.tuple_map[var]
        writer.writerow([rel, row, value.numerator, value.denominator])
    return buf.getvalue()


def cmd_shapley(ns) -> str:
    method = ns.method or "reduction"
    if ns.kind == "lineage" and method == "reduction":
        # the dichotomy pipeline, with its own refusals and its hard-branch fallback
        query, db = _load_instance(ns.inputs)
        return _shapley_csv(lineage.shapley_tuples(query, db, bound=_bound(ns)), db)
    func, db = _resolve(ns, method)
    if method == "brute":
        values = boolfunc.brute_shapley_subsets(func, bound=_bound(ns))
    elif isinstance(func, circuit.Circuit):
        values = circuit.shapley_direct(func)
    else:
        values = reductions.shapley_from_kcounts(
            func.var_count, boolfunc.kcount_oracle(func, bound=_bound(ns))
        )
    if db is not None:
        return _shapley_csv(values, db)
    return ",".join(_fraction(v) for v in values) + "\n"


def cmd_check(ns) -> str:
    query = lineage.parse_query(read_input(_single(ns.inputs)))
    hierarchical, witness = lineage.is_hierarchical(query)
    sjf = lineage.is_self_join_free(query)
    lines = [
        f"atoms: {query.size()}",
        f"variables: {','.join(query.variables())}",
        f"self_join_free: {'yes' if sjf else 'no'}",
        f"hierarchical: {'yes' if hierarchical else 'no'}",
    ]
    if witness:
        lines.append(f"witness: {witness[0]},{witness[1]}")
    lines.append(f"branch: {lineage.dichotomy_branch(query)}")
    return "\n".join(lines) + "\n"


def _parse_mode(mode: str, db) -> lineage.StretchedDatabase:
    if mode == "dummy":
        return lineage.stretch_database_dummy(db)
    if mode.startswith("expand:"):
        listed = mode[len("expand:") :]
        try:
            arities = [int(p) for p in listed.split(",")] if listed else []
        except ValueError:
            raise InputError(f"bad arity list {listed!r}") from None
        return lineage.stretch_database_expand(db, arities)
    raise InputError("--mode must be dummy or expand:<comma-separated arities>")


def cmd_stretch(ns) -> str:
    query, db = _load_instance(ns.inputs)
    stretched_query = lineage.stretch_query(query, db.schema)
    stretched = _parse_mode(ns.mode, db)
    if not ns.out:
        raise InputError("stretch writes a database directory; pass --out")
    out = Path(ns.out)
    lineage.write_database(stretched.database, out)
    (out / "query.txt").write_text(lineage.query_text(stretched_query))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for new_var in range(stretched.database.var_count):
        rel, row = stretched.database.tuple_map[new_var]
        writer.writerow(
            [new_var, rel, row, stretched.var_map[new_var], stretched.fresh_values[new_var]]
        )
    (out / "var_map.csv").write_text(buf.getvalue())
    return lineage.query_text(stretched_query)


def cmd_lineage(ns) -> str:
    query, db = _load_instance(ns.inputs)
    built = lineage.build_lineage(query, db)
    text = formats.format_sexpr(built.func) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for var, (rel, row) in enumerate(built.tuple_map):
        writer.writerow([var, rel, row])
    if ns.out:
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "lineage.txt").write_text(text)
        (out / "tuple_map.csv").write_text(buf.getvalue())
        return text
    return text + buf.getvalue()


def cmd_pp2dnf(ns) -> str:
    text = read_input(_single(ns.inputs))
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"edge line {lineno}: expected 'i j'")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise InputError(f"edge line {lineno}: bad indices") from None
    db, query = lineage.pp2dnf_instance(edges)
    if not ns.out:
        raise InputError("pp2dnf writes a database directory; pass --out")
    out = Path(ns.out)
    lineage.write_database(db, out)
    (out / "query.txt").write_text(lineage.query_text(query))
    return lineage.query_text(query)


def _timed(label: str, fn, timings: list[str]):
    start = time.perf_counter()
    result = fn()
    timings.append(f"{label}={time.perf_counter() - start:.4f}s")
    return result


def _compare_formula(func: BoolFunc, bound: int) -> list[str]:
    timings: list[str] = []
    lines = []
    n = func.var_count
    count_brute = _timed("count_brute", lambda: boolfunc.brute_count(func, bound=bound), timings)
    shap_oracle = reductions.CallCounter(boolfunc.shapley_oracle(func, bound=bound))
    zero = boolfunc.evaluate(func, ())
    count_shap = _timed(
        "count_via_shapley",
        lambda: reductions.count_from_shapley(n, zero, shap_oracle),
        timings,
    )
    kc_brute = _timed("kcounts_brute", lambda: boolfunc.brute_kcounts(func, bound=bound), timings)
    count_counter = reductions.CallCounter(boolfunc.count_oracle(func, bound=bound))
    kc_paper = _timed(
        "kcounts_paper", lambda: reductions.kcounts_from_counts(n, count_counter), timings
    )
    kc_and = _timed(
        "kcounts_and",
        lambda: reductions.kcounts_from_counts_and(n, boolfunc.and_count_oracle(func, bound=bound)),
        timings,
    )
    sh_brute = _timed(
        "shapley_brute", lambda: boolfunc.brute_shapley_subsets(func, bound=bound), timings
    )
    sh_red = _timed(
        "shapley_reduction",
        lambda: reductions.shapley_from_kcounts(n, boolfunc.kcount_oracle(func, bound=bound)),
        timings,
    )
    print("timing " + " ".join(timings), file=sys.stderr)
    lines.append(f"count brute={count_brute} via_shapley={count_shap}")
    lines.append(
        "kcounts brute=%s paper=%s and=%s"
        % tuple(",".join(str(c) for c in k) for k in (kc_brute, kc_paper, kc_and))
    )
    lines.append(
        "shapley brute=%s reduction=%s"
        % tuple(",".join(_fraction(v) for v in s) for s in (sh_brute, sh_red))
    )
    lines.append(
        f"oracle_calls kcount_pipeline={count_counter.calls} shapley_count_pipeline={shap_oracle.calls}"
    )
    ok = (
        count_brute == count_shap == sum(kc_brute)
        and kc_brute == kc_paper == kc_and
        and sh_brute == sh_red
        and sum(sh_red, Fraction(0))
        == boolfunc.evaluate(func, range(n)) - boolfunc.evaluate(func, ())
    )
    if n <= boolfunc.PERMUTATION_BOUND:
        sh_perm = boolfunc.brute_shapley_permutations(func)
        ok = ok and sh_perm == sh_brute
    if not ok:
        raise InconsistencyError("methods disagree:\n" + "\n".join(lines))
    return lines


def _witnessed(oracle, parsed: circuit.Circuit, count):
    """`oracle` on `parsed`, with each answer required to equal `count` of
    the copy `or_substitute_all` builds for the same query: the paper's
    closure witness, growth bound checked."""

    def witnessed(arities):
        answer = oracle(arities)
        if count(circuit.or_substitute_all(parsed, arities)) != answer:
            raise InconsistencyError(f"the substituted copy for arities {arities} counts otherwise")
        return answer

    return witnessed


def _compare_circuit(parsed: circuit.Circuit, bound: int) -> list[str]:
    n = parsed.var_count
    count_dd = circuit.model_count_dd(parsed)
    count_brute = boolfunc.brute_count(parsed, bound=bound)
    kc_direct = circuit.size_polynomial_count(parsed)
    kc_paper = reductions.kcounts_from_counts(
        n, _witnessed(circuit.count_oracle(parsed), parsed, circuit.model_count_dd)
    )
    kc_brute = boolfunc.brute_kcounts(parsed, bound=bound)
    sh_circ = reductions.shapley_from_kcounts(
        n, _witnessed(circuit.kcount_oracle(parsed), parsed, circuit.size_polynomial_count)
    )
    sh_direct = circuit.shapley_direct(parsed)
    sh_brute = boolfunc.brute_shapley_subsets(parsed, bound=bound)
    lines = [
        f"count dd={count_dd} brute={count_brute}",
        "kcounts direct=%s paper=%s brute=%s"
        % tuple(",".join(str(c) for c in k) for k in (kc_direct, kc_paper, kc_brute)),
        "shapley circuit=%s brute=%s"
        % tuple(",".join(_fraction(v) for v in s) for s in (sh_circ, sh_brute)),
    ]
    if not (
        count_dd == count_brute
        and kc_direct == kc_paper == kc_brute
        and sh_circ == sh_direct == sh_brute
    ):
        raise InconsistencyError("methods disagree:\n" + "\n".join(lines))
    return lines


def _compare_lineage(query: lineage.Query, db: lineage.Database, bound: int) -> list[str]:
    built = lineage.build_lineage(query, db, bound=bound)
    count_brute = boolfunc.brute_count(built.func, bound=bound)
    kc_brute = boolfunc.brute_kcounts(built.func, bound=bound)
    sh_brute = boolfunc.brute_shapley_subsets(built.func, bound=bound)
    branch = lineage.dichotomy_branch(query)
    compiled = lineage.compile_hierarchical_lineage(query, db) if branch == "FP" else None
    lines = [
        f"count brute={count_brute}",
        f"branch {branch}",
        "kcounts brute=" + ",".join(str(c) for c in kc_brute),
        "shapley brute=" + ",".join(_fraction(v) for v in sh_brute),
    ]
    ok = sum(kc_brute) == count_brute
    zero = boolfunc.evaluate(built.func, ())
    ones = boolfunc.evaluate(built.func, range(built.func.var_count))
    ok = ok and sum(sh_brute, Fraction(0)) == ones - zero
    if compiled is not None:
        count_dd = circuit.model_count_dd(compiled)
        kc_direct = circuit.size_polynomial_count(compiled)
        # the default `kcount` route, checked but not printed
        kc_paper = circuit.kcounts_circuit(compiled)
        sh_circuit = reductions.shapley_from_kcounts(
            compiled.var_count,
            _witnessed(circuit.kcount_oracle(compiled), compiled, circuit.size_polynomial_count),
        )
        sh_direct = circuit.shapley_direct(compiled)
        lines.append(f"count circuit={count_dd}")
        lines.append(
            "kcounts direct=%s brute=%s"
            % tuple(",".join(str(c) for c in k) for k in (kc_direct, kc_brute))
        )
        lines.append(
            "shapley circuit=%s brute=%s"
            % tuple(",".join(_fraction(v) for v in s) for s in (sh_circuit, sh_brute))
        )
        ok = (
            ok
            and count_dd == count_brute
            and kc_direct == kc_paper == kc_brute
            and sh_circuit == sh_direct == sh_brute
        )
    if not ok:
        raise InconsistencyError("methods disagree:\n" + "\n".join(lines))
    return lines


def cmd_compare(ns) -> str:
    bound = _bound(ns)
    if ns.fuzz:
        rng = random.Random(ns.seed)
        for case in range(ns.fuzz):
            if ns.kind == "circuit":
                _compare_circuit(gen.random_decision_circuit(rng, max_vars=6, max_gates=25), bound)
            elif ns.kind == "lineage":
                instance = gen.random_sjf_instance(rng, max_rows=5, hierarchical=case % 2 == 0)
                _compare_lineage(*instance, bound)
            else:
                _compare_formula(gen.random_boolfunc(rng, max_vars=6), bound)
        return f"fuzz cases={ns.fuzz} seed={ns.seed} agreement ok\n"
    header = f"compare kind={ns.kind} input=sha256:{_digest(ns.inputs)}"
    if ns.kind == "formula":
        lines = _compare_formula(_load_formula(_single(ns.inputs)), bound)
    elif ns.kind == "circuit":
        lines = _compare_circuit(_validated_circuit(_single(ns.inputs)), bound)
    else:
        lines = _compare_lineage(*_load_instance(ns.inputs), bound)
    return "\n".join([header] + lines + ["agreement ok"]) + "\n"


# ---------------------------------------------------------------------------


@functools.cache  # built on the first call; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapcount",
        description="Exact Shapley values, model counts, and size-bucketed model "
        "counts for Boolean functions, circuits, and query lineage.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, inputs=True):
        if inputs:
            p.add_argument("inputs", nargs="*", help="input path(s)")
        p.add_argument("--kind", choices=("formula", "circuit", "lineage"), default="formula")
        p.add_argument("--max-vars", type=int, default=None, help="enumeration bound override")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--seed", type=int, default=0, help="seed for generated corpora")

    p = sub.add_parser("count", help="model count")
    common(p)
    p = sub.add_parser("kcount", help="size-bucketed model counts")
    common(p)
    p.add_argument(
        "--method",
        choices=("paper", "direct", "brute"),
        default=None,
        help="paper: group-substitution counts plus an exact linear solve; "
        "direct: one-pass polynomial propagation; brute: exhaustive enumeration",
    )
    p = sub.add_parser("shapley", help="exact Shapley values")
    common(p)
    p.add_argument(
        "--method",
        choices=("reduction", "brute"),
        default=None,
        help="reduction: the polynomial route, the paper's reduction (size-bucketed counts "
        "of the variable-deleted cofactors) on formulas and the direct pass on circuits and "
        "FP lineage; brute: exhaustive enumeration",
    )
    p = sub.add_parser("stretch", help="stretch a query and database")
    common(p)
    p.add_argument("--mode", default="dummy", help="dummy or expand:<arities>")
    p = sub.add_parser("check", help="classify a query")
    common(p)
    p = sub.add_parser("lineage", help="emit lineage files")
    common(p)
    p = sub.add_parser("pp2dnf", help="emit a bipartite-DNF instance from an edge list")
    common(p)
    p = sub.add_parser("compare", help="run all applicable methods and require agreement")
    common(p)
    p.add_argument(
        "--fuzz",
        type=int,
        default=0,
        help="compare this many random formulas, d-D circuits with --kind circuit, "
        "or self-join-free query instances (alternately hierarchical) with --kind lineage",
    )
    return parser


_HANDLERS = {
    "count": cmd_count,
    "kcount": cmd_kcount,
    "shapley": cmd_shapley,
    "stretch": cmd_stretch,
    "check": cmd_check,
    "lineage": cmd_lineage,
    "pp2dnf": cmd_pp2dnf,
    "compare": cmd_compare,
}


# verbs whose --out is a directory they manage themselves
_DIRECTORY_VERBS = ("stretch", "pp2dnf", "lineage")


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    # exact answers may exceed CPython's cap on int-to-str conversion (4300
    # digits by default), which is lifted for the call
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if min(ns.max_vars or 0, getattr(ns, "fuzz", 0)) < 0:
            raise InputError("--max-vars and --fuzz take nonnegative counts")
        output = _HANDLERS[ns.verb](ns)
        if ns.out and ns.verb not in _DIRECTORY_VERBS:
            Path(ns.out).write_text(output)
            return 0
    except (InputError, OSError) as exc:
        # a path that cannot be read or written is bad input; an OSError's
        # message names its path
        print(f"shapcount: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RefusalError as exc:
        print(f"shapcount: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except InconsistencyError as exc:
        print(f"shapcount: inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except MemoryError:
        print("shapcount: refused: ran out of memory on this input", file=sys.stderr)
        return EXIT_REFUSAL
    except RecursionError:
        print("shapcount: refused: this input nests too deeply", file=sys.stderr)
        return EXIT_REFUSAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
