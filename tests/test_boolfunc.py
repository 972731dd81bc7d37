import random
import time
from fractions import Fraction
from math import comb

import pytest

from helpers import (
    and_substitute,
    cofactors,
    example1,
    example1_circuit,
    or_substitute,
    substituted_clauses,
)
from shapcount import circuit as ct
from shapcount import gen
from shapcount import lineage as lg
from shapcount.boolfunc import (
    And,
    BoolFunc,
    Const,
    Node,
    Not,
    Or,
    PERMUTATION_BOUND,
    Var,
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
    or_substituted_shapley,
    shapley_oracle,
    truth_table,
)
from shapcount.errors import InputError, RefusalError


def three_tuples() -> lg.Database:
    schema = lg.Schema((lg.Relation("R", 1, True),))
    return lg.Database(schema, {"R": [("a",), ("b",), ("c",)]})


def pp2dnf_pairs() -> BoolFunc:
    # (x0 and x2) or (x1 and x3)
    return BoolFunc(Or((And((Var(0), Var(2))), And((Var(1), Var(3))))), 4)


def test_node_validation():
    with pytest.raises(InputError):
        BoolFunc(Var(3), 3)
    with pytest.raises(InputError):
        BoolFunc(And((Var(0),)), 1)
    with pytest.raises(InputError):
        BoolFunc(Const(2), 0)


def test_size_counts_variables_and_connectives():
    assert example1().size() == 6  # three variables, and, or, not
    assert BoolFunc(Const(1), 0).size() == 0


def test_evaluate_worked_example():
    f = example1()
    assert evaluate(f, {0}) == 1
    assert evaluate(f, {2}) == 0
    assert evaluate(BoolFunc(Const(1), 0), ()) == 1
    # full behaviour: exactly {0}, {0,1}, {0,1,2} are models
    models = [frozenset(t) for t in ([0], [0, 1], [0, 1, 2])]
    for mask in range(8):
        trues = frozenset(v for v in range(3) if mask >> v & 1)
        assert evaluate(f, trues) == (1 if trues in models else 0)
    with pytest.raises(InputError):
        evaluate(f, {5})


def shared_tower(node: Node, levels: int) -> Node:
    for _ in range(levels):
        node = And((node, node))
    return node


def test_shared_dag_operations_are_linear():
    # (x0 or (x1 and 0) or not x1) = x0 or not x1, from 7 distinct nodes; 41
    # levels make a tree of about 1.5e13 nodes from 48 distinct ones, and a
    # function holds one gate per distinct node
    base_node = Or((Var(0), And((Var(1), Const(0))), Not(Var(1))))
    base = BoolFunc(base_node, 2)
    want = truth_table(base)
    top = shared_tower(base_node, 41)
    tower = BoolFunc(top, 2)
    tower_nodes = len(tower.gates)
    assert tower_nodes == 7 + 41

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return result

    size = timed(tower.size)
    assert size == (1 << 41) * (base.size() + 1) - 1
    # each variable's replacement is built once and shared by its
    # occurrences: the two x1 nodes of the base become one
    pinned = timed(lambda: cofactors(BoolFunc(top, 3), 2)[0])
    pinned_table, pinned_nodes = truth_table(pinned), len(pinned.gates)
    assert pinned_table == want and pinned_nodes == tower_nodes - 1
    widened = timed(lambda: or_substitute(tower, (2, 3)).func)
    widened_nodes = len(widened.gates)
    assert widened_nodes == tower_nodes - 3 + 2 + 5
    assert or_substituted_count(tower, (2, 3)) == truth_table(widened).bit_count()
    many = BoolFunc(Or(tuple(Var(0) for _ in range(200))), 1)
    grouped_nodes = len(or_substitute(many, (3,)).func.gates)
    assert grouped_nodes == 1 + 4


def test_equality_hash_and_repr_read_the_gates():
    # methods that recursed through the nodes would pass the recursion limit
    # on the chain and walk a 1.5e13-node tree on the tower
    chain = Var(0)
    for _ in range(3000):
        chain = Not(chain)
    tower = shared_tower(Or((Var(0), Not(Var(1)))), 41)
    for root, n, gates in ((chain, 1, 3001), (tower, 2, 4 + 41)):
        a, b = BoolFunc(root, n), BoolFunc(root, n)
        start = time.perf_counter()
        same, hashes, text = a == b, hash(a) == hash(b), repr(a)
        assert time.perf_counter() - start < 1.0
        assert same and hashes and len(a.gates) == gates and a.output == gates - 1
        assert text.startswith(f"BoolFunc(var_count={n}, gates=(Gate(")
    assert BoolFunc(chain, 2) != BoolFunc(chain, 1)
    # equal means the same DAG: the same tree with less sharing differs
    x0 = Var(0)
    shared = BoolFunc(And((x0, Or((x0, Var(1))))), 2)
    unshared = BoolFunc(And((Var(0), Or((Var(0), Var(1))))), 2)
    assert len(shared.gates) == 4 and len(unshared.gates) == 5
    assert shared != unshared and truth_table(shared) == truth_table(unshared)
    # a function keeps its gates, not the node it was built from
    assert not hasattr(shared, "root")


def test_nodes_compare_by_identity_and_never_walk_their_tree():
    chain = Var(0)
    for _ in range(3000):
        chain = Not(chain)
    tower = shared_tower(Or((Var(0), Not(Var(1)))), 41)
    # each twin is built like its node from the same children: equal as trees
    for node, twin in ((chain, Not(chain.child)), (tower, And(tower.children))):
        for method in (lambda: node == twin, lambda: hash(node), lambda: repr(node)):
            start = time.perf_counter()
            method()
            assert time.perf_counter() - start < 0.01
        assert node == node and node != twin
        assert hash(node) == object.__hash__(node) and repr(node) == object.__repr__(node)
    # leaves keep their flat dataclass repr, and also compare by identity
    assert repr(Var(0)) == "Var(index=0)" and repr(Const(1)) == "Const(value=1)"
    assert Var(0) != Var(0) and len({Const(0), Const(0)}) == 2


def test_or_substitute_shapes():
    single = BoolFunc(Var(0), 1)
    assert or_substitute(single, (3,)).func == BoolFunc(Or((Var(0), Var(1), Var(2))), 3)

    pair = BoolFunc(And((Var(0), Var(1))), 2)
    res = or_substitute(pair, (2, 2))
    assert res.func.var_count == 4
    assert res.groups == ((0, 1), (2, 3))
    assert res.func == BoolFunc(And((Or((Var(0), Var(1))), Or((Var(2), Var(3))))), 4)

    iso = or_substitute(example1(), (1, 1, 1))
    assert truth_table(iso.func) == truth_table(example1())

    # arity 0 leaves an explicit constant: no implicit folding
    zero = or_substitute(example1(), (0, 1, 1))
    assert zero.groups == ((), (0,), (1,))
    assert zero.func == BoolFunc(And((Const(0), Or((Var(0), Not(Var(1)))))), 2)

    with pytest.raises(InputError):
        or_substitute(pair, (2,))


def test_and_substitute():
    single = BoolFunc(Var(0), 1)
    assert and_substitute(single, (2,)).func == BoolFunc(And((Var(0), Var(1))), 2)
    iso = and_substitute(example1(), (1, 1, 1))
    assert truth_table(iso.func) == truth_table(example1())
    # (x0 or x1) with widths (2, 1): models where both clones or the single one
    f = BoolFunc(Or((Var(0), Var(1))), 2)
    assert brute_count(and_substitute(f, (2, 1)).func) == 5


def test_brute_count():
    assert brute_count(example1()) == 3
    assert brute_count(BoolFunc(Const(0), 3)) == 0
    assert brute_count(pp2dnf_pairs()) == 7
    with pytest.raises(RefusalError, match="bound of 4"):
        brute_count(BoolFunc(Var(0), 5), bound=4)


def test_kept_table_never_bypasses_the_bound(monkeypatch):
    from shapcount import boolfunc

    f = BoolFunc(Or((Var(0), Var(4))), 5)
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
    queries = [
        (count_oracle, lambda oracle: oracle((1, 2, 3))),
        (and_count_oracle, lambda oracle: oracle((1, 2, 3))),
        (kcount_oracle, lambda oracle: oracle((1, 2, 3))),
        (shapley_oracle, lambda oracle: oracle((1, 2, 3), 0)),  # mixed widths: the digit route
    ]
    for make, ask in queries:
        oracle = make(g, bound=30)
        bounds.clear()
        ask(oracle)
        assert bounds == [30], make.__name__


def test_brute_kcounts():
    assert brute_kcounts(example1()) == (0, 1, 1, 1)
    assert brute_kcounts(BoolFunc(Const(1), 2)) == (1, 2, 1)
    f = BoolFunc(And((Or((Var(0), Var(1))), Var(2))), 3)
    assert brute_kcounts(f) == (0, 0, 2, 1)


def test_brute_shapley_permutations():
    assert brute_shapley_permutations(example1()) == (
        Fraction(5, 6),
        Fraction(2, 6),
        Fraction(-1, 6),
    )
    assert brute_shapley_permutations(BoolFunc(Var(0), 1)) == (Fraction(1),)
    assert brute_shapley_permutations(BoolFunc(And((Var(0), Var(1))), 2)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    with pytest.raises(RefusalError):
        brute_shapley_permutations(BoolFunc(Var(0), PERMUTATION_BOUND + 1))


def test_brute_shapley_subsets():
    assert brute_shapley_subsets(example1())[0] == Fraction(5, 6)
    assert brute_shapley_subsets(BoolFunc(Const(1), 3)) == (Fraction(0),) * 3
    assert brute_shapley_subsets(BoolFunc(Or((Var(0), Var(1))), 2)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


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
    rng = random.Random(106)
    mixed = 0
    for _ in range(80):
        f = gen.random_boolfunc(rng, max_vars=7)
        arities = tuple(rng.randint(0, 3) for _ in range(f.var_count))
        if sum(arities) > 16:
            continue
        # two distinct nonzero arities take the oracles' model-merging path
        mixed += len(set(arities) - {0}) > 1
        materialized = or_substitute(f, arities).func
        assert or_substituted_count(f, arities) == brute_count(materialized)
        assert or_substituted_kcounts(f, arities) == brute_kcounts(materialized)
        and_materialized = and_substitute(f, arities).func
        assert and_substituted_count(f, arities) == brute_count(and_materialized)
    assert mixed >= 20


def test_packed_kcount_digits_hold_binomial_rows():
    # the constant 1 has every valuation as a model: its bucket j is C(sum, j),
    # the largest a digit of the packed total has to hold
    for arities in ((8, 7, 0, 5, 9), (9,) * 6, (0, 0, 3), (1,) * 7, (16,), ()):
        total = sum(arities)
        want = tuple(comb(total, j) for j in range(total + 1))
        assert or_substituted_kcounts(BoolFunc(Const(1), len(arities)), arities) == want


@pytest.mark.parametrize(
    "substitution",
    [
        lambda widths: or_substitute(example1(), widths),
        lambda widths: or_substituted_count(example1(), widths),
        lambda widths: and_substituted_count(example1(), widths),
        lambda widths: or_substituted_kcounts(example1(), widths),
        lambda widths: or_substituted_shapley(example1(), widths, 1),
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
        assert or_substituted_shapley(f, arities, target) == want
    with pytest.raises(InputError):
        or_substituted_shapley(BoolFunc(Var(0), 1), (2,), 0)


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
        table = truth_table(func)
        models = [m for m in range(1 << func.var_count) if table >> m & 1]
        return {
            frozenset(v for v in range(func.var_count) if m >> v & 1)
            for m in models
            if not any(o != m and o & m == o for o in models)
        }

    clauses = {frozenset({0, 2}), frozenset({1,})}
    f = dnf_from_clauses(clauses, 3)
    assert f == BoolFunc(Or((And((Var(0), Var(2))), Var(1))), 3)
    assert minimal_models(f) == clauses
    assert dnf_from_clauses([], 2) == BoolFunc(Const(0), 2)
    assert minimal_models(dnf_from_clauses([], 2)) == set()
    assert dnf_from_clauses([frozenset()], 2) == BoolFunc(Const(1), 2)
    assert minimal_models(dnf_from_clauses([frozenset(), frozenset({1})], 2)) == {frozenset()}
