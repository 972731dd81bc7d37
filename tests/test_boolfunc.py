import random
import time
from fractions import Fraction

import pytest

from helpers import example1
from shapcount import gen
from shapcount.boolfunc import (
    And,
    BoolFunc,
    Const,
    Not,
    Or,
    Var,
    and_substitute,
    and_substituted_count,
    apply_substitution,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    constant_fold,
    dnf_distribute,
    dnf_from_clauses,
    evaluate,
    or_substitute,
    or_substituted_count,
    or_substituted_kcounts,
    or_substituted_shapley,
    positive_dnf_clauses,
    substitute_const,
    truth_table,
)
from shapcount.errors import InputError, RefusalError


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
    with pytest.raises(InputError):
        BoolFunc(Var(0), 2, labels=("a", "a"))


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


def test_apply_substitution_examples():
    f = example1()
    z1_or_z2 = BoolFunc(Or((Var(0), Var(1))), 2)
    res = apply_substitution(f, {1: z1_or_z2})
    # survivors x0, x2 become 0, 1; fresh pair becomes 2, 3
    assert res.old_to_new == {0: 0, 2: 1}
    assert res.fresh == {1: (2, 3)}
    assert res.func.var_count == 4
    assert res.func.root == And((Var(0), Or((Or((Var(2), Var(3))), Not(Var(1))))))

    # identity: every variable to a single fresh one, same truth table
    identity = apply_substitution(f, {i: BoolFunc(Var(0), 1) for i in range(3)})
    assert truth_table(identity.func) == truth_table(f)

    # empty disjunction: explicit constant, no implicit folding
    zero = apply_substitution(f, {0: BoolFunc(Const(0), 0)})
    assert isinstance(zero.func.root, And)
    assert zero.func.root.children[0] == Const(0)
    assert constant_fold(zero.func).root == Const(0)


def distinct_nodes(func: BoolFunc) -> int:
    seen, stack = set(), [func.root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "children", (getattr(node, "child", None),)))
    seen.discard(id(None))
    return len(seen)


def shared_tower(base: BoolFunc, levels: int) -> BoolFunc:
    node = base.root
    for _ in range(levels):
        node = And((node, node))
    return BoolFunc(node, base.var_count)


def test_shared_dag_operations_are_linear():
    # (x0 or (x1 and 0) or not x1) = x0 or not x1, from 7 distinct nodes; 41
    # levels make a tree of about 1.5e13 nodes from 48 distinct ones.  Only
    # numbers appear in the asserts: the dataclass repr of the DAG is a tree.
    base = BoolFunc(Or((Var(0), And((Var(1), Const(0))), Not(Var(1)))), 2)
    want = truth_table(base)
    tower = shared_tower(base, 41)
    tower_nodes = distinct_nodes(tower)
    assert tower_nodes == 7 + 41

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return result

    size = timed(tower.size)
    assert size == (1 << 41) * (base.size() + 1) - 1
    folded = timed(lambda: constant_fold(tower))
    folded_table, folded_nodes = truth_table(folded), distinct_nodes(folded)
    assert folded_table == want and folded_nodes == 4 + 41
    pinned = timed(lambda: substitute_const(BoolFunc(tower.root, 3), 2, 1))
    pinned_table = truth_table(pinned)
    assert pinned_table == want
    replaced = timed(lambda: apply_substitution(BoolFunc(Var(0), 1), {0: tower}))
    replaced_table = truth_table(replaced.func)
    assert replaced_table == want

    # a replacement used at many sites is built once and shared by all of them
    many = BoolFunc(Or(tuple(Var(0) for _ in range(200))), 1)
    spread = timed(lambda: apply_substitution(many, {0: tower}))
    spread_nodes = distinct_nodes(spread.func)
    assert spread_nodes == 1 + tower_nodes
    grouped_nodes = distinct_nodes(or_substitute(many, (3,)).func)
    assert grouped_nodes == 1 + 4


def test_or_substitute_shapes():
    single = BoolFunc(Var(0), 1)
    assert or_substitute(single, (3,)).func.root == Or((Var(0), Var(1), Var(2)))

    pair = BoolFunc(And((Var(0), Var(1))), 2)
    res = or_substitute(pair, (2, 2))
    assert res.func.var_count == 4
    assert res.groups == ((0, 1), (2, 3))
    assert res.func.root == And((Or((Var(0), Var(1))), Or((Var(2), Var(3)))))

    iso = or_substitute(example1(), (1, 1, 1))
    assert truth_table(iso.func) == truth_table(example1())

    with pytest.raises(InputError):
        or_substitute(pair, (2,))


def test_and_substitute():
    single = BoolFunc(Var(0), 1)
    assert and_substitute(single, (2,)).func.root == And((Var(0), Var(1)))
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
        brute_shapley_permutations(BoolFunc(Var(0), 5), bound=4)


def test_brute_shapley_subsets():
    assert brute_shapley_subsets(example1())[0] == Fraction(5, 6)
    assert brute_shapley_subsets(BoolFunc(Const(1), 3)) == (Fraction(0),) * 3
    assert brute_shapley_subsets(BoolFunc(Or((Var(0), Var(1))), 2)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_substitute_const_reindexes():
    f = example1()
    hi = substitute_const(f, 0, 1)
    assert hi.var_count == 2
    assert brute_kcounts(hi) == (1, 1, 1)
    assert brute_kcounts(substitute_const(f, 0, 0)) == (0, 0, 0)
    with pytest.raises(InputError):
        substitute_const(f, 7, 0)


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
            hi = brute_kcounts(substitute_const(f, i, 1))
            lo = brute_kcounts(substitute_const(f, i, 0))
            for k in range(n - 1):
                assert kc[k + 1] == hi[k] + lo[k + 1]


def test_cofactor_sum_identities():
    rng = random.Random(105)
    for _ in range(80):
        f = gen.random_boolfunc(rng, max_vars=8)
        n = f.var_count
        kc = brute_kcounts(f)
        his = [brute_kcounts(substitute_const(f, i, 1)) for i in range(n)]
        los = [brute_kcounts(substitute_const(f, i, 0)) for i in range(n)]
        for k in range(n):
            assert sum(h[k] for h in his) == (k + 1) * kc[k + 1]
            assert sum(l[k] for l in los) == (n - k) * kc[k]


def test_substituted_oracles_match_materialized_functions():
    rng = random.Random(106)
    for _ in range(60):
        f = gen.random_boolfunc(rng, max_vars=4)
        n = f.var_count
        arities = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(arities) > 12:
            continue
        materialized = or_substitute(f, arities).func
        assert or_substituted_count(f, arities) == brute_count(materialized)
        assert or_substituted_kcounts(f, arities) == brute_kcounts(materialized)
        and_materialized = and_substitute(f, arities).func
        assert and_substituted_count(f, arities) == brute_count(and_materialized)


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


def test_dnf_distribute_examples():
    f = BoolFunc(And((Or((Var(0), Var(1))), Var(2))), 3)
    out = dnf_distribute(f)
    assert positive_dnf_clauses(out) == {frozenset({0, 2}), frozenset({1, 2})}

    g = BoolFunc(And((Or((Var(0), Var(1))), Or((Var(2), Var(3))))), 4)
    dist = dnf_distribute(g)
    assert len(positive_dnf_clauses(dist)) == 4
    assert truth_table(dist) == truth_table(g)

    lone = BoolFunc(Var(0), 1)
    assert dnf_distribute(lone).root == Var(0)

    # constant conjuncts: a true one drops out, a false one kills the clause
    mixed = BoolFunc(Or((And((Const(1), Var(0))), And((Const(0), Var(1))))), 2)
    assert positive_dnf_clauses(dnf_distribute(mixed)) == {frozenset({0})}

    with pytest.raises(InputError):
        dnf_distribute(BoolFunc(Not(Var(0)), 1))
    with pytest.raises(RefusalError):
        dnf_distribute(g, max_clauses=3)


def test_dnf_distribute_equivalent_on_substituted_dnfs():
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
        substituted = or_substitute(base, arities).func
        flat = dnf_distribute(substituted)
        assert truth_table(flat) == truth_table(substituted)


def test_positive_dnf_clause_round_trip():
    clauses = {frozenset({0, 2}), frozenset({1,})}
    f = dnf_from_clauses(clauses, 3)
    assert positive_dnf_clauses(f) == clauses
    assert positive_dnf_clauses(BoolFunc(Const(0), 2)) == frozenset()
    assert positive_dnf_clauses(BoolFunc(Const(1), 2)) == {frozenset()}
    assert dnf_from_clauses([frozenset()], 2).root == Const(1)
