"""End-to-end acceptance: exact reproduction of the worked example plus
randomized cross-method equivalence, one test per criterion.

Every assertion is exact (integer or rational equality); each criterion
prints a PASS line with its measured runtime (visible with pytest -s).
"""

import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    EXAMPLE_NNF,
    chain_instance,
    example1,
    example1_circuit,
    or_substitute,
    shapley_circuit,
    substituted_clauses,
    unfold,
)
from shapcount import circuit as ct
from shapcount import gen
from shapcount import lineage as lg
from shapcount import reductions as rd
from shapcount.boolfunc import (
    and_count_oracle,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    count_oracle,
    evaluate,
    kcount_oracle,
    dnf_from_clauses,
    shapley_oracle,
    truth_table,
)
from shapcount.cli import main as cli_main
from shapcount.errors import RefusalError

EX1_COUNT = 3
EX1_KCOUNTS = (0, 1, 1, 1)
EX1_SHAPLEY = (Fraction(5, 6), Fraction(2, 6), Fraction(-1, 6))


def _finish(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_01_worked_example_every_pathway():
    started = time.perf_counter()
    f = example1()
    n = f.var_count

    assert brute_count(f) == EX1_COUNT
    assert brute_kcounts(f) == EX1_KCOUNTS
    assert brute_shapley_permutations(f) == EX1_SHAPLEY
    assert brute_shapley_subsets(f) == EX1_SHAPLEY

    assert rd.kcounts_from_counts(n, count_oracle(f)) == EX1_KCOUNTS
    assert rd.kcounts_from_counts_and(n, and_count_oracle(f)) == EX1_KCOUNTS
    assert rd.shapley_from_kcounts(n, kcount_oracle(f)) == EX1_SHAPLEY
    assert rd.count_from_shapley(n, evaluate(f, ()), shapley_oracle(f)) == EX1_COUNT

    circ = example1_circuit()
    assert ct.model_count_dd(circ) == EX1_COUNT
    assert ct.size_polynomial_count(circ) == EX1_KCOUNTS
    assert ct.kcounts_circuit(circ) == EX1_KCOUNTS
    assert shapley_circuit(circ) == EX1_SHAPLEY

    _finish(1, "worked example agrees on every pathway", started, 1.0)


def _mixed_corpus(seed: int, size: int, max_vars: int) -> list[ct.Circuit]:
    rng = random.Random(seed)
    shapes = ("tree", "dnf", "cnf")
    return [gen.random_boolfunc(rng, max_vars=max_vars, shape=shapes[i % 3]) for i in range(size)]


CORPUS_SEED = 20260808


def test_criterion_02_reduction_round_trips_500_functions():
    started = time.perf_counter()
    corpus = _mixed_corpus(CORPUS_SEED, 500, 8)
    for i, f in enumerate(corpus):
        n = f.var_count
        kcounts = brute_kcounts(f)
        assert rd.kcounts_from_counts(n, count_oracle(f)) == kcounts
        assert rd.kcounts_from_counts_and(n, and_count_oracle(f)) == kcounts
        shapley = brute_shapley_subsets(f)
        assert rd.shapley_from_kcounts(n, kcount_oracle(f)) == shapley
        if n <= 6 or i % 10 == 0:
            assert shapley == brute_shapley_permutations(f)
        assert rd.count_from_shapley(n, evaluate(f, ()), shapley_oracle(f)) == sum(kcounts)
    _finish(2, "reduction round-trips on 500 random functions", started, 60.0)


def test_criterion_03_shapley_values_sum_to_full_minus_empty():
    started = time.perf_counter()
    corpus = _mixed_corpus(CORPUS_SEED, 500, 8)
    for f in corpus:
        total = sum(brute_shapley_subsets(f), Fraction(0))
        assert total == evaluate(f, range(f.var_count)) - evaluate(f, ())
    _finish(3, "Shapley values sum to F[all 1] - F[all 0] on the corpus", started, 60.0)


GROWTH_CONSTANT = 6  # documented bound: growth <= size + 6 * occurrences * width


def test_criterion_04_substitution_preserves_circuit_properties():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    done = 0
    while done < 100:
        circ = gen.random_decision_circuit(rng, max_vars=10, max_gates=30)
        if circ.size() > 30:
            continue
        done += 1
        n = circ.var_count
        x = rng.randrange(n)
        ell = rng.randint(0, 3)
        widths = tuple(ell if i == x else 1 for i in range(n))
        sub = ct.or_substitute_all(circ, widths)

        ok, bad = ct.check_decomposable(sub)
        assert ok, bad
        assert ct.check_deterministic_exhaustive(sub) == ("verified", None)

        fn = or_substitute(unfold(circ), widths)
        assert truth_table(unfold(sub)) == truth_table(fn.func)

        k = ct._occurrences(circ)[x]
        if k and ell:
            assert sub.size() <= circ.size() + GROWTH_CONSTANT * k * ell
        else:
            assert sub.size() <= circ.size() + 2
    _finish(4, "variable replacement keeps circuits exclusive and disjoint", started, 60.0)


def test_criterion_05_circuit_counting_cross_checks():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 2)
    circuits = [example1_circuit(), ct.parse_nnf(EXAMPLE_NNF)]
    circuits += [gen.random_decision_circuit(rng, max_vars=12, max_gates=40) for _ in range(40)]
    for circ in circuits:
        f = unfold(circ)
        reference = brute_kcounts(f)
        assert ct.model_count_dd(circ) == sum(reference)
        assert ct.size_polynomial_count(circ) == reference
        assert ct.kcounts_circuit(circ) == reference
    _finish(5, "three counting routes agree with enumeration on circuits", started, 60.0)


def test_criterion_06_stretched_lineage_equals_substituted_lineage():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 3)
    done = 0
    while done < 200:
        query, db = gen.random_sjf_instance(rng, max_endo_vars=12)
        arities = tuple(rng.randint(0, 3) for _ in range(db.var_count))
        base = lg.build_lineage(query, db)
        done += 1
        stretched_query = lg.stretch_query(query, db.schema)

        dummy = lg.stretch_database_dummy(db)
        assert lg.build_lineage(stretched_query, dummy.database).clauses == base.clauses

        expanded = lg.stretch_database_expand(db, arities)
        grown = lg.build_lineage(stretched_query, expanded.database)
        substituted = or_substitute(base.func, arities)
        flattened = substituted_clauses(base.clauses, substituted.groups)
        counters: dict[int, int] = {}
        align = {}
        for z in range(expanded.database.var_count):
            src = expanded.var_map[z]
            align[z] = substituted.groups[src][counters.get(src, 0)]
            counters[src] = counters.get(src, 0) + 1
        assert {frozenset(align[z] for z in c) for c in grown.clauses} == flattened
    _finish(6, "stretching a database matches replacing lineage variables", started, 120.0)


def test_criterion_07_hierarchy_classification_and_stretching():
    started = time.perf_counter()

    def reference_hierarchical(query: lg.Query) -> bool:
        names = query.variables()
        atom_sets = {
            v: {i for i, a in enumerate(query.atoms)
                if any(isinstance(t, lg.QueryVar) and t.name == v for t in a.args)}
            for v in names
        }
        for x in names:
            for y in names:
                if x == y:
                    continue
                common = atom_sets[x] & atom_sets[y]
                if common and not atom_sets[x] <= atom_sets[y] and not atom_sets[y] <= atom_sets[x]:
                    return False
        return True

    rng = random.Random(CORPUS_SEED + 4)
    schemas = []
    for i in range(120):
        query, schema = gen.random_query(
            rng, max_atoms=4, max_arity=3, self_join_free=(i % 3 != 0)
        )
        schemas.append((query, schema))
    for query, schema in schemas:
        got, witness = lg.is_hierarchical(query)
        assert got == reference_hierarchical(query)
        if not got:
            x, y = witness
            ax = {i for i, a in enumerate(query.atoms)
                  if any(isinstance(t, lg.QueryVar) and t.name == x for t in a.args)}
            ay = {i for i, a in enumerate(query.atoms)
                  if any(isinstance(t, lg.QueryVar) and t.name == y for t in a.args)}
            assert ax & ay and not ax <= ay and not ay <= ax
        stretched = lg.stretch_query(query, schema)
        assert lg.is_hierarchical(stretched)[0] == got

    chain_query, _ = chain_instance()
    assert lg.is_hierarchical(chain_query) == (False, ("x", "y"))
    _finish(7, "hierarchy classification matches the direct checker and survives stretching", started, 60.0)


def test_criterion_08_dichotomy_pipeline():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 5)
    for _ in range(40):
        query, db = gen.random_sjf_instance(rng, hierarchical=True, max_endo_vars=12)
        built = lg.build_lineage(query, db)
        values = lg.shapley_tuples(query, db)
        assert values == brute_shapley_subsets(built.func)
        if db.var_count <= 8:
            assert values == brute_shapley_permutations(built.func)

    # the intractable branch refuses above the bound, with exit code 3
    query, db = chain_instance()
    with pytest.raises(RefusalError, match="non-hierarchical"):
        lg.shapley_tuples(query, db, bound=3)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "q.txt").write_text("Q :- R(x), S(x,y), T(y)\n")
        lg.write_database(db, base / "db")
        code = cli_main(
            ["shapley", str(base / "q.txt"), str(base / "db"), "--kind", "lineage", "--max-vars", "3"]
        )
        assert code == 3
    _finish(8, "hierarchical pipeline exact, hard branch refuses at the bound", started, 60.0)


def test_criterion_09_bipartite_instances():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 6)
    for _ in range(50):
        edges = {
            (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 10))
        }
        db, query = lg.pp2dnf_instance(edges)
        built = lg.build_lineage(query, db)
        xs = sorted({i for i, _ in edges})
        ys = sorted({j for _, j in edges})
        want = {frozenset({xs.index(i), len(xs) + ys.index(j)}) for i, j in edges}
        assert set(built.clauses) == want
        # counts agree with enumerating an independently built copy
        independent = dnf_from_clauses(want, built.func.var_count)
        assert truth_table(built.func) == truth_table(independent)
        assert brute_count(built.func) == truth_table(independent).bit_count()
    _finish(9, "bipartite DNF instances reproduce their edge sets exactly", started, 60.0)


def test_criterion_10_oracle_call_accounting():
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 7)
    for _ in range(20):
        f = gen.random_boolfunc(rng, max_vars=8)
        n = f.var_count
        counting = rd.CallCounter(count_oracle(f))
        rd.kcounts_from_counts(n, counting)
        assert counting.calls == n + 1
        shapley = rd.CallCounter(shapley_oracle(f))
        rd.count_from_shapley(n, evaluate(f, ()), shapley)
        assert shapley.calls == n * n
    _finish(10, "count pipeline uses n+1 calls, Shapley pipeline n*n calls", started, 60.0)
