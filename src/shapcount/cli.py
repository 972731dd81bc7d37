"""Command-line front end.

Verbs: count, kcount, shapley, stretch, check, lineage, pp2dnf, compare.
Inputs are formula files (s-expression or DIMACS), circuit files (nnf), or a
query file plus a database directory for --kind lineage.

Exit codes: 0 success, 2 input error, 3 capability refusal (enumeration
bounds, intractable branch, out of memory), 4 internal inconsistency.
Standard output is byte-identical for identical inputs and flags; notes go
to standard error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import boolfunc, circuit, formats, gen, lineage, reductions
from .boolfunc import BoolFunc
from .errors import InconsistencyError, InputError, RefusalError, read_input

EXIT_INPUT = 2
EXIT_REFUSAL = 3
EXIT_INCONSISTENT = 4


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _fractions(values) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" for v in values)


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


def _load_instance(paths: list[str]) -> tuple[lineage.Query, lineage.Database]:
    if len(paths) != 2:
        raise InputError("--kind lineage takes a query file and a database directory")
    query = lineage.parse_query(read_input(paths[0]))
    return query, lineage.load_database(paths[1])


def _single(paths: list[str]) -> str:
    if len(paths) != 1:
        raise InputError("this input kind takes exactly one file")
    return paths[0]


def _note(text: str) -> None:
    print(f"shapcount: note: {text}", file=sys.stderr)


def _load(ns):
    """The input --kind names: a formula, a validated circuit, or a lineage
    query with its database."""
    if ns.kind == "formula":
        return formats.parse_function(read_input(_single(ns.inputs)))
    if ns.kind == "lineage":
        return _load_instance(ns.inputs)
    parsed = circuit.parse_nnf(read_input(_single(ns.inputs)))
    for note in circuit.validate(parsed).notes:
        _note(note)
    return parsed


def _bound(ns) -> int:
    return ns.max_vars if ns.max_vars is not None else boolfunc.ENUMERATION_BOUND


def _resolve(ns, method: str | None = None):
    """The input as a formula or a validated circuit, with a lineage input's
    database (None for the other kinds).  Lineage becomes its compiled
    circuit when the query is in FP and the method is not brute, else its
    formula, which only brute force reads: above the bound it is refused in
    the words of the verb's brute pass, before it is built.  Size-bucketed
    counts other than brute force are refused off FP."""
    loaded = _load(ns)
    if ns.kind != "lineage":
        return loaded, None
    query, db = loaded
    if method != "brute" and lineage.dichotomy_branch(query)[0] == "FP":
        return lineage.compile_hierarchical_lineage(query, db), db
    if ns.verb == "kcount" and method != "brute":
        raise RefusalError(
            "size-bucketed counting beyond brute force needs a hierarchical "
            "self-join-free query; pass --method brute"
        )
    what = "subset enumeration" if ns.verb == "shapley" else "exhaustive enumeration"
    lineage._check_query(query, db.schema)
    boolfunc._check_bound(db.var_count, _bound(ns), what)
    return lineage.build_lineage(query, db).func, db


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
    return _ints(counts) + "\n"


def _shapley_csv(values, db) -> str:
    rows = ((*entry, v.numerator, v.denominator) for entry, v in zip(db.tuple_map, values))
    return lineage._csv_text(rows)


def cmd_shapley(ns) -> str:
    method = ns.method or "reduction"
    if ns.kind == "lineage" and method == "reduction":
        query, db = _load_instance(ns.inputs)
        if lineage.dichotomy_branch(query)[0] == "FP":
            values = circuit.shapley_direct(lineage.compile_hierarchical_lineage(query, db))
        else:
            # the dichotomy pipeline's refusals, then its hard-branch enumeration
            values = lineage.shapley_tuples(query, db, bound=_bound(ns))
            _note("non-hierarchical query: falling back to exhaustive enumeration of the lineage")
        return _shapley_csv(values, db)
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
    return _fractions(values) + "\n"


def cmd_check(ns) -> str:
    query = lineage.parse_query(read_input(_single(ns.inputs)))
    branch, witness = lineage.dichotomy_branch(query)
    sjf = lineage.is_self_join_free(query)
    lines = [
        f"atoms: {query.size()}",
        f"variables: {','.join(query.variables())}",
        f"self_join_free: {'yes' if sjf else 'no'}",
        f"hierarchical: {'no' if witness else 'yes'}",
    ]
    if witness:
        lines.append(f"witness: {witness[0]},{witness[1]}")
    lines.append(f"branch: {branch}")
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


def _write_instance(ns, db: lineage.Database, query: lineage.Query) -> Path:
    """Write the database and its query.txt to the --out directory, and return it."""
    if not ns.out:
        raise InputError(f"{ns.verb} writes a database directory; pass --out")
    out = Path(ns.out)
    lineage.write_database(db, out)
    (out / "query.txt").write_text(lineage.query_text(query))
    return out


def cmd_stretch(ns) -> str:
    query, db = _load_instance(ns.inputs)
    stretched_query = lineage.stretch_query(query, db.schema)
    stretched = _parse_mode(ns.mode, db)
    out = _write_instance(ns, stretched.database, stretched_query)
    var_map = lineage._csv_text(
        (new_var, rel, row, stretched.var_map[new_var], stretched.fresh_values[new_var])
        for new_var, (rel, row) in enumerate(stretched.database.tuple_map)
    )
    (out / "var_map.csv").write_text(var_map)
    return lineage.query_text(stretched_query)


def cmd_lineage(ns) -> str:
    query, db = _load_instance(ns.inputs)
    built = lineage.build_lineage(query, db)
    text = formats.format_sexpr(built.func) + "\n"
    tuple_map = lineage._csv_text((var, *entry) for var, entry in enumerate(built.tuple_map))
    if ns.out:
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "lineage.txt").write_text(text)
        (out / "tuple_map.csv").write_text(tuple_map)
        return text
    return text + tuple_map


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
    _write_instance(ns, db, query)
    return lineage.query_text(query)


def _brute(func: BoolFunc | circuit.Circuit, bound: int):
    """Brute force's count, k-counts and Shapley vector, with the groups of
    values that must be equal: the k-counts sum to the count, and the
    Shapley values sum to f(1…1) − f(0…0)."""
    count = boolfunc.brute_count(func, bound=bound)
    kcounts = boolfunc.brute_kcounts(func, bound=bound)
    shapley = boolfunc.brute_shapley_subsets(func, bound=bound)
    gain = boolfunc.evaluate(func, range(func.var_count)) - boolfunc.evaluate(func, ())
    return count, kcounts, shapley, ((sum(kcounts), count), (sum(shapley, Fraction(0)), gain))


def _agree(lines: list[str], *groups) -> list[str]:
    """`lines`, once the values within each group are all equal."""
    if any(value != group[0] for group in groups for value in group[1:]):
        raise InconsistencyError("methods disagree:\n" + "\n".join(lines))
    return lines


def _compare_formula(func: BoolFunc, bound: int) -> list[str]:
    n = func.var_count
    count, kc_brute, sh_brute, invariants = _brute(func, bound)
    shap_oracle = reductions.CallCounter(boolfunc.shapley_oracle(func, bound=bound))
    count_shap = reductions.count_from_shapley(n, boolfunc.evaluate(func, ()), shap_oracle)
    count_oracle = reductions.CallCounter(boolfunc.count_oracle(func, bound=bound))
    kc_paper = reductions.kcounts_from_counts(n, count_oracle)
    kc_and = reductions.kcounts_from_counts_and(n, boolfunc.and_count_oracle(func, bound=bound))
    sh_red = reductions.shapley_from_kcounts(n, boolfunc.kcount_oracle(func, bound=bound))
    shapleys = [sh_brute, sh_red]
    if n <= boolfunc.PERMUTATION_BOUND:
        shapleys.append(boolfunc.brute_shapley_permutations(func))
    lines = [
        f"count brute={count} via_shapley={count_shap}",
        f"kcounts brute={_ints(kc_brute)} paper={_ints(kc_paper)} and={_ints(kc_and)}",
        f"shapley brute={_fractions(sh_brute)} reduction={_fractions(sh_red)}",
        f"oracle_calls kcount_pipeline={count_oracle.calls} shapley_count_pipeline={shap_oracle.calls}",
    ]
    return _agree(lines, *invariants, (count, count_shap), (kc_brute, kc_paper, kc_and), shapleys)


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


def _circuit_routes(c: circuit.Circuit):
    """A circuit's model count and k-counts, one pass each, and its Shapley
    vector through the paper's reduction over witnessed k-count queries and
    through the direct pass."""
    witnessed = _witnessed(circuit.kcount_oracle(c), c, circuit.size_polynomial_count)
    return (
        circuit.model_count_dd(c),
        circuit.size_polynomial_count(c),
        reductions.shapley_from_kcounts(c.var_count, witnessed),
        circuit.shapley_direct(c),
    )


def _compare_circuit(parsed: circuit.Circuit, bound: int) -> list[str]:
    # made first, so a circuit the passes cannot count is refused as such
    # before brute force checks the bound
    count_oracle = _witnessed(circuit.count_oracle(parsed), parsed, circuit.model_count_dd)
    count, kc_brute, sh_brute, invariants = _brute(parsed, bound)
    kc_paper = reductions.kcounts_from_counts(parsed.var_count, count_oracle)
    count_dd, kc_direct, sh_circ, sh_direct = _circuit_routes(parsed)
    lines = [
        f"count dd={count_dd} brute={count}",
        f"kcounts direct={_ints(kc_direct)} paper={_ints(kc_paper)} brute={_ints(kc_brute)}",
        f"shapley circuit={_fractions(sh_circ)} brute={_fractions(sh_brute)}",
    ]
    groups = ((count_dd, count), (kc_direct, kc_paper, kc_brute), (sh_circ, sh_direct, sh_brute))
    return _agree(lines, *invariants, *groups)


def _compare_lineage(instance: tuple[lineage.Query, lineage.Database], bound: int) -> list[str]:
    query, db = instance
    lineage._check_query(query, db.schema)
    boolfunc._check_bound(db.var_count, bound, "exhaustive enumeration")
    built = lineage.build_lineage(query, db)
    count, kc_brute, sh_brute, invariants = _brute(built.func, bound)
    branch = lineage.dichotomy_branch(query)[0]
    lines = [
        f"count brute={count}",
        f"branch {branch}",
        f"kcounts brute={_ints(kc_brute)}",
        f"shapley brute={_fractions(sh_brute)}",
    ]
    if branch != "FP":
        return _agree(lines, *invariants)
    compiled = lineage.compile_hierarchical_lineage(query, db)
    count_dd, kc_direct, sh_circ, sh_direct = _circuit_routes(compiled)
    # the default `kcount` route, checked but not printed
    kc_paper = circuit.kcounts_circuit(compiled)
    lines += [
        f"count circuit={count_dd}",
        f"kcounts direct={_ints(kc_direct)} brute={_ints(kc_brute)}",
        f"shapley circuit={_fractions(sh_circ)} brute={_fractions(sh_brute)}",
    ]
    groups = ((count_dd, count), (kc_direct, kc_paper, kc_brute), (sh_circ, sh_direct, sh_brute))
    return _agree(lines, *invariants, *groups)


# per kind: the comparison over one input, and the input --fuzz draws for a
# case (from `gen` as it is when called)
_COMPARES = {
    "formula": (_compare_formula, lambda rng, case: gen.random_boolfunc(rng, max_vars=6)),
    "circuit": (
        _compare_circuit,
        lambda rng, case: gen.random_decision_circuit(rng, max_vars=6, max_gates=25),
    ),
    "lineage": (
        _compare_lineage,
        lambda rng, case: gen.random_sjf_instance(rng, max_rows=5, hierarchical=case % 2 == 0),
    ),
}


def cmd_compare(ns) -> str:
    bound = _bound(ns)
    compare, draw = _COMPARES[ns.kind]
    if ns.fuzz:
        if ns.inputs:
            raise InputError("--fuzz draws its own inputs and takes no input paths")
        rng = random.Random(ns.seed)
        for case in range(ns.fuzz):
            compare(draw(rng, case), bound)
        return f"fuzz cases={ns.fuzz} seed={ns.seed} agreement ok\n"
    header = f"compare kind={ns.kind} input=sha256:{_digest(ns.inputs)}"
    return "\n".join([header, *compare(_load(ns), bound), "agreement ok"]) + "\n"


# ---------------------------------------------------------------------------


@functools.cache  # built on the first call; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapcount",
        description="Exact Shapley values, model counts, and size-bucketed model "
        "counts for Boolean functions, circuits, and query lineage.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("inputs", nargs="*", help="input path(s)")
        p.add_argument("--kind", choices=("formula", "circuit", "lineage"), default="formula")
        p.add_argument("--max-vars", type=int, default=None, help="enumeration bound override")
        p.add_argument("--out", default=None, help="output file or directory")

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
    p.add_argument("--seed", type=int, default=0, help="seed of the --fuzz cases")
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
