import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from helpers import (
    EXAMPLE_NNF,
    and_substitute,
    cofactors,
    example1,
    example1_circuit,
    join_instance,
    merged_and_count,
    merged_or_count,
    merged_or_kcounts,
    merged_shapley,
    or_substitute,
    same_dag,
    substituted_clauses,
)
from shapcount import circuit as ct
from shapcount import formats, gen
from shapcount import lineage as lg
from shapcount.boolfunc import (
    AND,
    CONST1,
    OR,
    PERMUTATION_BOUND,
    VAR,
    Circuit,
    Gate,
    and_count_oracle,
    and_substituted_count,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    count_oracle,
    dnf_from_clauses,
    evaluate,
    kcount_oracle,
    or_substituted_count,
    or_substituted_kcounts,
    shapley_oracle,
    truth_table,
)
from shapcount.errors import InputError, RefusalError
from shapcount.formats import parse_sexpr


# each reference at any widths, and the package oracle it stands for
ORACLE_OF = {
    merged_or_count: or_substituted_count,
    merged_or_kcounts: or_substituted_kcounts,
    merged_and_count: and_substituted_count,
}


def three_tuples() -> lg.Database:
    schema = lg.Schema((lg.Relation("R", 1, True),))
    return lg.Database(schema, {"R": [("a",), ("b",), ("c",)]})


def pp2dnf_pairs() -> ct.Circuit:
    # (x0 and x2) or (x1 and x3)
    return parse_sexpr("(or (and x0 x2) (and x1 x3))")


def test_node_validation():
    # the circuit's gate check refuses a variable out of range, a one-child
    # connective and a negative variable count
    with pytest.raises(InputError, match="gate 0: variable 3 out of range"):
        Circuit([Gate(VAR, 3)], 3)
    with pytest.raises(InputError, match="gate 1: wrong arity for and"):
        Circuit([Gate(VAR, 0), Gate(AND, inputs=(0,))], 1)
    with pytest.raises(InputError, match="variable count must be nonnegative"):
        Circuit([Gate(CONST1)], -1)


def test_size_counts_variables_and_connectives():
    # the gate count: one gate per variable, connective and constant
    assert example1().size() == len(example1().gates) == 6  # three variables, and, or, not
    assert parse_sexpr("1").size() == 1


def test_every_function_is_one_gate_array_type():
    # formulas, circuits and lineage, parsed, drawn, built or compiled, are
    # all the one Circuit class
    rng = random.Random(31)
    query, db = join_instance()
    made = [
        formats.parse_sexpr("(and x0 (or x1 (not x2)))"),
        formats.parse_dimacs("p cnf 2 1\n1 -2 0\n"),
        ct.parse_nnf(EXAMPLE_NNF),
        gen.random_boolfunc(rng),
        gen.random_decision_circuit(rng),
        lg.build_lineage(query, db).func,
        lg.compile_hierarchical_lineage(query, db),
        ct.or_substitute_all(example1_circuit(), (2, 0, 1)),
    ]
    assert {type(func) for func in made} == {ct.Circuit}


def test_evaluate_worked_example():
    f = example1()
    assert evaluate(f, {0}) == 1
    assert evaluate(f, {2}) == 0
    assert evaluate(parse_sexpr("1"), ()) == 1
    # full behaviour: exactly {0}, {0,1}, {0,1,2} are models
    models = [frozenset(t) for t in ([0], [0, 1], [0, 1, 2])]
    for mask in range(8):
        trues = frozenset(v for v in range(3) if mask >> v & 1)
        assert evaluate(f, trues) == (1 if trues in models else 0)
    with pytest.raises(InputError):
        evaluate(f, {5})


def shared_tower(func: Circuit, levels: int) -> Circuit:
    """`func` ANDed with itself `levels` times over, each AND reading the
    one below twice: a tree of 2^levels copies from `levels` more gates."""
    gates = list(func.gates)
    for _ in range(levels):
        gates.append(Gate(AND, inputs=(len(gates) - 1,) * 2))
    return Circuit(gates, func.var_count)


def test_shared_dag_operations_are_linear():
    # (x0 or (x1 and 0) or not x1) = x0 or not x1, from 7 gates; 41 levels
    # make a tree of about 1.5e13 nodes from 48 gates
    base_text = "(or x0 (and x1 0) (not x1))"
    base = parse_sexpr(base_text)
    want = truth_table(base)
    tower = shared_tower(base, 41)
    tower_nodes = len(tower.gates)
    assert tower_nodes == 7 + 41

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return result

    assert timed(tower.size) == tower_nodes
    assert timed(lambda: truth_table(tower)) == want  # x and x is x
    # each variable's replacement is built once and shared by its
    # occurrences: the two x1 gates of the base become one
    padded = shared_tower(parse_sexpr(f"(vars 3 {base_text})"), 41)
    pinned = timed(lambda: cofactors(padded, 2)[0])
    pinned_table, pinned_nodes = truth_table(pinned), len(pinned.gates)
    assert pinned_table == want and pinned_nodes == tower_nodes - 1
    widened = timed(lambda: or_substitute(tower, (2, 3)).func)
    widened_nodes = len(widened.gates)
    assert widened_nodes == tower_nodes - 3 + 2 + 5
    assert merged_or_count(tower, (2, 3)) == truth_table(widened).bit_count()
    uniform = truth_table(or_substitute(tower, (3, 3)).func).bit_count()
    assert timed(lambda: or_substituted_count(tower, (3, 3))) == uniform
    many = Circuit([Gate(VAR, 0)] * 200 + [Gate(OR, inputs=tuple(range(200)))], 1)
    grouped_nodes = len(or_substitute(many, (3,)).func.gates)
    assert grouped_nodes == 1 + 4


def test_equality_hash_and_repr_read_the_gates():
    # a function compares, hashes and prints by identity, as any circuit
    # does; two functions are the same DAG when their flat gates are equal,
    # which compares without recursing on the chain and without walking the
    # tower's 1.5e13-node tree
    chain = "(not " * 3000 + "x0" + ")" * 3000
    tower = lambda: shared_tower(parse_sexpr("(or x0 (not x1))"), 41)
    for make, gates in ((lambda: parse_sexpr(chain), 3001), (tower, 4 + 41)):
        a, b = make(), make()  # built twice, so no gate is shared between them
        start = time.perf_counter()
        same, hashed, text = a.gates == b.gates, hash(a), repr(a)
        assert time.perf_counter() - start < 1.0
        assert same and hashed == object.__hash__(a) and a != b and a == a
        assert len(a.gates) == gates and a.output == gates - 1
        assert text.startswith("<shapcount.boolfunc.Circuit object at ")
    assert not same_dag(parse_sexpr(f"(vars 2 {chain})"), parse_sexpr(chain))
    # the same DAG means the same sharing: the same tree with less differs
    x0, x1 = Gate(VAR, 0), Gate(VAR, 1)
    shared = Circuit([x0, x1, Gate(OR, inputs=(0, 1)), Gate(AND, inputs=(0, 2))], 2)
    unshared = parse_sexpr("(and x0 (or x0 x1))")
    assert len(shared.gates) == 4 and len(unshared.gates) == 5
    assert shared.gates != unshared.gates and truth_table(shared) == truth_table(unshared)
    # a function is its gates, with no expression root kept beside them
    assert not hasattr(shared, "root")


def test_or_substitute_shapes():
    single = parse_sexpr("x0")
    assert same_dag(or_substitute(single, (3,)).func, parse_sexpr("(or x0 x1 x2)"))

    pair = parse_sexpr("(and x0 x1)")
    res = or_substitute(pair, (2, 2))
    assert res.func.var_count == 4
    assert res.groups == ((0, 1), (2, 3))
    assert same_dag(res.func, parse_sexpr("(and (or x0 x1) (or x2 x3))"))

    iso = or_substitute(example1(), (1, 1, 1))
    assert truth_table(iso.func) == truth_table(example1())

    # arity 0 leaves an explicit constant: no implicit folding
    zero = or_substitute(example1(), (0, 1, 1))
    assert zero.groups == ((), (0,), (1,))
    assert same_dag(zero.func, parse_sexpr("(vars 2 (and 0 (or x0 (not x1))))"))

    with pytest.raises(InputError):
        or_substitute(pair, (2,))


def test_and_substitute():
    single = parse_sexpr("x0")
    assert same_dag(and_substitute(single, (2,)).func, parse_sexpr("(and x0 x1)"))
    iso = and_substitute(example1(), (1, 1, 1))
    assert truth_table(iso.func) == truth_table(example1())
    # (x0 or x1) with widths (2, 1): models where both clones or the single one
    f = parse_sexpr("(or x0 x1)")
    assert brute_count(and_substitute(f, (2, 1)).func) == 5


def test_brute_count():
    assert brute_count(example1()) == 3
    assert brute_count(parse_sexpr("(vars 3 0)")) == 0
    assert brute_count(pp2dnf_pairs()) == 7
    with pytest.raises(RefusalError, match="bound of 4"):
        brute_count(parse_sexpr("(vars 5 x0)"), bound=4)


def test_kept_table_never_bypasses_the_bound(monkeypatch):
    from shapcount import boolfunc

    f = parse_sexpr("(or x0 x4)")
    assert truth_table(f) == truth_table(f, bound=5)  # built and kept
    refusal = "exhaustive enumeration over 5 variables exceeds the bound of 4"
    for call in (truth_table, brute_count, count_oracle, shapley_oracle):
        with pytest.raises(RefusalError, match=refusal):
            call(f, bound=4)
    # an oracle's queries read the table under the oracle's own bound, so a
    # bound above the default (--max-vars 30) holds past the factory
    bounds = []
    kept = boolfunc.truth_table

    def recording(func, *, bound=boolfunc.ENUMERATION_BOUND):
        bounds.append(bound)
        return kept(func, bound=bound)

    monkeypatch.setattr(boolfunc, "truth_table", recording)
    g = example1()
    # each oracle reads the table when it is made, and a count oracle on
    # each query too; the Shapley oracle's queries read what it took then
    queries = [
        (count_oracle, lambda oracle: oracle((2, 0, 2)), 2),
        (and_count_oracle, lambda oracle: oracle((2, 0, 2)), 2),
        (kcount_oracle, lambda oracle: oracle((2, 0, 2)), 2),
        (shapley_oracle, lambda oracle: oracle((1, 2, 2), 0), 1),
        (shapley_oracle, lambda oracle: [oracle((1, 2, 2), 0), oracle((3, 1, 3), 1)], 1),
    ]
    for make, ask, reads in queries:
        bounds.clear()
        ask(make(g, bound=30))
        assert bounds == [30] * reads, make.__name__


def test_brute_kcounts():
    assert brute_kcounts(example1()) == (0, 1, 1, 1)
    assert brute_kcounts(parse_sexpr("(vars 2 1)")) == (1, 2, 1)
    f = parse_sexpr("(and (or x0 x1) x2)")
    assert brute_kcounts(f) == (0, 0, 2, 1)


def test_brute_shapley_permutations():
    assert brute_shapley_permutations(example1()) == (
        Fraction(5, 6),
        Fraction(2, 6),
        Fraction(-1, 6),
    )
    assert brute_shapley_permutations(parse_sexpr("x0")) == (Fraction(1),)
    assert brute_shapley_permutations(parse_sexpr("(and x0 x1)")) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    with pytest.raises(RefusalError):
        brute_shapley_permutations(parse_sexpr(f"(vars {PERMUTATION_BOUND + 1} x0)"))


def test_brute_shapley_subsets():
    assert brute_shapley_subsets(example1())[0] == Fraction(5, 6)
    assert brute_shapley_subsets(parse_sexpr("(vars 3 1)")) == (Fraction(0),) * 3
    assert brute_shapley_subsets(parse_sexpr("(or x0 x1)")) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def _graded_position(trues: list[int], n: int) -> int:
    """The bit of a valuation in the graded table, from the layout's
    definition: the byte-aligned blocks of the smaller sizes, then the
    valuation's colex rank among those of its size."""
    block = 8 * sum((comb(n, k) + 7) // 8 for k in range(len(trues)))
    return block + sum(comb(v, i + 1) for i, v in enumerate(sorted(trues)))


def test_graded_table_matches_evaluation():
    # for formulas and circuits with n = 0..10: each valuation's bit sits
    # where the layout puts it, the per-size popcounts are the models
    # counted by size, and the padding bits are 0, so a function and its
    # negation split the 2^n valuations
    from shapcount.boolfunc import NOT, Gate, _profile

    rng = random.Random(27)
    funcs = [parse_sexpr("0"), parse_sexpr("1"), parse_sexpr("(vars 3 1)")]
    funcs += [gen.random_boolfunc(rng, max_vars=10) for _ in range(60)]
    funcs += [gen.random_decision_circuit(rng, max_vars=10) for _ in range(60)]
    assert {f.var_count for f in funcs} == set(range(11))
    for f in funcs:
        n, table = f.var_count, truth_table(f)
        by_size = [0] * (n + 1)
        for bits in range(1 << n):
            trues = [v for v in range(n) if bits >> v & 1]
            value = evaluate(f, trues)
            assert table >> _graded_position(trues, n) & 1 == value
            by_size[len(trues)] += value
        assert _profile(table, n) == by_size
        negation = ct.Circuit((*f.gates, Gate(NOT, inputs=(f.output,))), n)
        assert brute_count(f) + brute_count(negation) == 1 << n


def test_brute_shapley_subsets_takes_n_plus_one_profiles(monkeypatch):
    # T's own profile once, then T & x once per variable: the profile of
    # T & ~x is their difference
    from shapcount import boolfunc

    calls = []
    profile = boolfunc._profile

    def counting(table, n):
        calls.append(n)
        return profile(table, n)

    monkeypatch.setattr(boolfunc, "_profile", counting)
    rng = random.Random(28)
    for _ in range(20):
        f = gen.random_boolfunc(rng, max_vars=8)
        want = brute_shapley_permutations(f)
        calls.clear()
        assert brute_shapley_subsets(f) == want
        assert calls == [f.var_count] * (f.var_count + 1)


def test_zero_arity_substitutions_are_cofactors():
    # F[x_0:=1] and F[x_0:=0] over x1, x2, renumbered 0, 1
    f = example1()
    hi, lo = cofactors(f, 0)
    assert hi.var_count == lo.var_count == 2
    assert brute_kcounts(hi) == (1, 1, 1)
    assert brute_kcounts(lo) == (0, 0, 0)
    rng = random.Random(109)
    for _ in range(60):
        g = gen.random_boolfunc(rng, max_vars=6)
        i = rng.randrange(g.var_count)
        hi, lo = cofactors(g, i)
        for bits in range(1 << (g.var_count - 1)):
            trues = [v for v in range(g.var_count - 1) if bits >> v & 1]
            old = [v + (v >= i) for v in trues]
            assert evaluate(hi, trues) == evaluate(g, old + [i])
            assert evaluate(lo, trues) == evaluate(g, old)


def test_permutations_equal_subsets_on_random_functions():
    rng = random.Random(100)
    for _ in range(120):
        f = gen.random_boolfunc(rng, max_vars=8)
        assert brute_shapley_permutations(f) == brute_shapley_subsets(f)


def test_shapley_values_sum_to_full_minus_empty():
    rng = random.Random(101)
    for _ in range(150):
        f = gen.random_boolfunc(rng, max_vars=8)
        total = sum(brute_shapley_subsets(f), Fraction(0))
        assert total == evaluate(f, range(f.var_count)) - evaluate(f, ())


def test_uniform_or_substitution_count_identity():
    rng = random.Random(102)
    for _ in range(60):
        f = gen.random_boolfunc(rng, max_vars=6)
        kcounts = brute_kcounts(f)
        for ell in range(1, 5):
            if f.var_count * ell > 24:
                continue
            materialized = or_substitute(f, (ell,) * f.var_count).func
            want = sum(((1 << ell) - 1) ** k * c for k, c in enumerate(kcounts))
            assert brute_count(materialized) == want
            assert or_substituted_count(f, (ell,) * f.var_count) == want


def test_uniform_and_substitution_count_identity():
    rng = random.Random(103)
    for _ in range(60):
        f = gen.random_boolfunc(rng, max_vars=6)
        n = f.var_count
        kcounts = brute_kcounts(f)
        for ell in range(1, 5):
            if n * ell > 24:
                continue
            materialized = and_substitute(f, (ell,) * n).func
            want = sum(((1 << ell) - 1) ** (n - k) * c for k, c in enumerate(kcounts))
            assert brute_count(materialized) == want
            assert and_substituted_count(f, (ell,) * n) == want


def test_cofactor_splitting_identity():
    rng = random.Random(104)
    for _ in range(80):
        f = gen.random_boolfunc(rng, max_vars=7)
        n = f.var_count
        kc = brute_kcounts(f)
        for i in range(n):
            hi, lo = map(brute_kcounts, cofactors(f, i))
            for k in range(n - 1):
                assert kc[k + 1] == hi[k] + lo[k + 1]


def test_cofactor_sum_identities():
    rng = random.Random(105)
    for _ in range(80):
        f = gen.random_boolfunc(rng, max_vars=8)
        n = f.var_count
        kc = brute_kcounts(f)
        his, los = zip(*([brute_kcounts(c) for c in cofactors(f, i)] for i in range(n)))
        for k in range(n):
            assert sum(h[k] for h in his) == (k + 1) * kc[k + 1]
            assert sum(l[k] for l in los) == (n - k) * kc[k]


def test_substituted_oracles_match_materialized_functions():
    # the references merge the models at any widths; the oracles answer
    # one nonzero width, and refuse two distinct nonzero ones, which no
    # reduction asks
    rng = random.Random(106)
    mixed = 0
    for _ in range(80):
        f = gen.random_boolfunc(rng, max_vars=7)
        arities = tuple(rng.randint(0, 3) for _ in range(f.var_count))
        if sum(arities) > 16:
            continue
        is_mixed = len(set(arities) - {0}) > 1
        mixed += is_mixed
        materialized = or_substitute(f, arities).func
        and_materialized = and_substitute(f, arities).func
        checks = [
            (merged_or_count, brute_count(materialized)),
            (merged_or_kcounts, brute_kcounts(materialized)),
            (merged_and_count, brute_count(and_materialized)),
        ]
        for oracle, want in list(checks):
            checks.append((ORACLE_OF[oracle], want))
        for oracle, want in checks:
            if is_mixed and oracle in ORACLE_OF.values():
                with pytest.raises(InputError, match=re.escape(f"mixed-width query {arities}")):
                    oracle(f, arities)
            else:
                assert oracle(f, arities) == want, oracle.__name__
    assert mixed >= 20


def test_packed_kcount_digits_hold_binomial_rows():
    # the constant 1 has every valuation as a model: its bucket j is C(sum, j),
    # the largest a digit of the packed total has to hold; the oracle takes
    # one nonzero width, the reference any
    for arities in ((8, 7, 0, 5, 9), (9,) * 6, (0, 0, 3), (1,) * 7, (16,), (), (0, 12, 12)):
        total = sum(arities)
        want = tuple(comb(total, j) for j in range(total + 1))
        one = parse_sexpr(f"(vars {len(arities)} 1)")
        assert merged_or_kcounts(one, arities) == want
        if len(set(arities) - {0}) < 2:
            assert or_substituted_kcounts(one, arities) == want


@pytest.mark.parametrize(
    "substitution",
    [
        lambda widths: or_substitute(example1(), widths),
        lambda widths: or_substituted_count(example1(), widths),
        lambda widths: and_substituted_count(example1(), widths),
        lambda widths: or_substituted_kcounts(example1(), widths),
        lambda widths: shapley_oracle(example1())(widths, 1),
        lambda widths: ct.count_oracle(example1_circuit())(widths),
        lambda widths: ct.kcount_oracle(example1_circuit())(widths),
        lambda widths: lg.stretch_database_expand(three_tuples(), widths),
    ],
    ids=[
        "or_substitute",
        "or_count",
        "and_count",
        "or_kcounts",
        "or_shapley",
        "circuit_count",
        "circuit_kcounts",
        "stretch_expand",
    ],
)
def test_substitutions_reject_bad_arity_lists(substitution):
    with pytest.raises(InputError, match="arities must be nonnegative"):
        substitution((-1, 1, 1))
    with pytest.raises(InputError, match="one arity per variable of 3, got 2"):
        substitution((1, 1))


def test_substituted_shapley_matches_materialized():
    rng = random.Random(107)
    for _ in range(40):
        f = gen.random_boolfunc(rng, max_vars=4)
        n = f.var_count
        target = rng.randrange(n)
        arities = tuple(1 if i == target else rng.randint(0, 2) for i in range(n))
        if sum(arities) > 8:
            continue
        res = or_substitute(f, arities)
        z = res.groups[target][0]
        want = brute_shapley_permutations(res.func)[z]
        assert merged_shapley(f, arities, target) == want
        if len(set(arities[:target] + arities[target + 1 :])) > 1:
            with pytest.raises(InputError, match=re.escape(f"mixed-width query {arities}")):
                shapley_oracle(f)(arities, target)
        else:
            assert shapley_oracle(f)(arities, target) == want
    with pytest.raises(InputError):
        shapley_oracle(parse_sexpr("x0"))((2,), 0)


def test_mixed_width_shapley_matches_materialized():
    # draws whose other variables take at least two widths, which the
    # Shapley oracle refuses: the reference, the reductions' rule over the
    # k-counts of the replacement by merged models, answers them
    rng = random.Random(109)
    draws = 0
    while draws < 300:
        f = gen.random_boolfunc(rng, max_vars=5)
        n = f.var_count
        target = rng.randrange(n)
        arities = tuple(1 if i == target else rng.randint(0, 3) for i in range(n))
        if len(set(arities[:target] + arities[target + 1 :])) < 2 or sum(arities) > 12:
            continue
        res = or_substitute(f, arities)
        want = brute_shapley_subsets(res.func)[res.groups[target][0]]
        assert merged_shapley(f, arities, target) == want, (f, arities, target)
        with pytest.raises(InputError, match=re.escape(f"mixed-width query {arities}")):
            shapley_oracle(f)(arities, target)
        draws += 1


def test_clause_product_equals_or_substitution():
    # the clause-set product the stretching tests compare against
    rng = random.Random(108)
    for _ in range(60):
        clauses = [
            frozenset(rng.sample(range(4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        base = dnf_from_clauses(clauses, 4)
        arities = tuple(rng.randint(0, 3) for _ in range(4))
        if sum(arities) > 12:
            continue
        substituted = or_substitute(base, arities)
        flat = dnf_from_clauses(
            substituted_clauses(clauses, substituted.groups), substituted.func.var_count
        )
        assert truth_table(flat) == truth_table(substituted.func)


def test_positive_dnf_clause_round_trip():
    # an antichain of clauses is the set of minimal models of its DNF
    def minimal_models(func):
        n = func.var_count
        models = [m for m in range(1 << n) if evaluate(func, [v for v in range(n) if m >> v & 1])]
        return {
            frozenset(v for v in range(func.var_count) if m >> v & 1)
            for m in models
            if not any(o != m and o & m == o for o in models)
        }

    clauses = {frozenset({0, 2}), frozenset({1,})}
    f = dnf_from_clauses(clauses, 3)
    assert same_dag(f, parse_sexpr("(or (and x0 x2) x1)"))
    assert minimal_models(f) == clauses
    assert same_dag(dnf_from_clauses([], 2), parse_sexpr("(vars 2 0)"))
    assert minimal_models(dnf_from_clauses([], 2)) == set()
    assert same_dag(dnf_from_clauses([frozenset()], 2), parse_sexpr("(vars 2 1)"))
    assert minimal_models(dnf_from_clauses([frozenset(), frozenset({1})], 2)) == {frozenset()}
