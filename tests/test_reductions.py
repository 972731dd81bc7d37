import random
from fractions import Fraction

import pytest

from helpers import cofactors, example1
from shapcount import gen
from shapcount.boolfunc import (
    BoolFunc,
    Const,
    Var,
    and_count_oracle,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    count_oracle,
    evaluate,
    kcount_oracle,
    or_substitute,
    or_substituted_shapley,
    shapley_oracle,
)
from shapcount.errors import InconsistencyError, InputError, RefusalError
from shapcount.reductions import (
    CallCounter,
    _back_solve,
    _factor,
    coefficients,
    count_from_shapley,
    expansion_weights,
    kcounts_from_counts,
    kcounts_from_counts_and,
    shapley_from_kcounts,
    vandermonde_solve,
)


def test_coefficients_values():
    assert coefficients(3) == (Fraction(2, 6), Fraction(1, 6), Fraction(2, 6))
    assert coefficients(1) == (Fraction(1),)
    assert coefficients(5) == (
        Fraction(24, 120),
        Fraction(6, 120),
        Fraction(4, 120),
        Fraction(6, 120),
        Fraction(24, 120),
    )
    with pytest.raises(InputError):
        coefficients(0)


def test_coefficient_identities_up_to_64():
    for n in range(1, 65):
        c = coefficients(n)
        assert c == tuple(reversed(c))
        assert n * c[0] == 1 and n * c[n - 1] == 1
        for k in range(n - 1):
            assert c[k] * (k + 1) == c[k + 1] * (n - k - 1)


def test_vandermonde_worked_case():
    assert vandermonde_solve((1, 3, 7, 15), (3, 39, 399, 3615)) == (
        Fraction(0),
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )
    assert vandermonde_solve((1,), (9,)) == (Fraction(9),)


def test_vandermonde_rejects_duplicates():
    with pytest.raises(InputError):
        vandermonde_solve((1, 3, 3), (1, 2, 3))
    with pytest.raises(InputError):
        vandermonde_solve((1, 3), (1, 2, 3))


def test_vandermonde_random_round_trips():
    rng = random.Random(5)
    for _ in range(40):
        size = rng.randint(1, 7)
        nodes = rng.sample(range(1, 40), size)
        solution = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
        rhs = [sum(Fraction(x) ** k * s for k, s in enumerate(solution)) for x in nodes]
        assert vandermonde_solve(nodes, rhs) == tuple(solution)


def test_vandermonde_equals_explicit_elimination():
    rng = random.Random(6)
    for _ in range(30):
        size = rng.randint(1, 20)
        nodes = rng.sample(range(-60, 61), size)
        matrix = [[Fraction(x) ** k for k in range(size)] for x in nodes]
        ints = [rng.randint(-10**6, 10**6) for _ in range(size)]
        fracs = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(size)]
        for rhs in (ints, fracs):
            assert vandermonde_solve(nodes, rhs) == tuple(_back_solve(_factor(matrix), rhs))


def test_factor_rejects_singular_matrices():
    with pytest.raises(InputError):
        _factor([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_kcounts_from_counts_worked_example():
    f = example1()
    assert kcounts_from_counts(3, count_oracle(f)) == (0, 1, 1, 1)
    two_true = BoolFunc(Const(1), 2)
    assert kcounts_from_counts(2, count_oracle(two_true)) == (1, 2, 1)
    from shapcount.boolfunc import And, Or

    pairs = BoolFunc(Or((And((Var(0), Var(2))), And((Var(1), Var(3))))), 4)
    assert kcounts_from_counts(4, count_oracle(pairs)) == (0, 0, 2, 4, 1)


def test_kcounts_from_counts_and_variant():
    f = example1()
    assert kcounts_from_counts_and(3, and_count_oracle(f)) == (0, 1, 1, 1)
    zero = BoolFunc(Const(0), 2)
    assert kcounts_from_counts_and(2, and_count_oracle(zero)) == (0, 0, 0)
    from shapcount.boolfunc import And

    both = BoolFunc(And((Var(0), Var(1))), 2)
    assert kcounts_from_counts_and(2, and_count_oracle(both)) == (0, 0, 1)


def test_shapley_from_kcounts_worked_example():
    f = example1()
    assert shapley_from_kcounts(3, kcount_oracle(f)) == (
        Fraction(5, 6),
        Fraction(2, 6),
        Fraction(-1, 6),
    )
    assert shapley_from_kcounts(3, kcount_oracle(BoolFunc(Const(0), 3))) == (Fraction(0),) * 3
    from shapcount.boolfunc import Or

    triple = BoolFunc(Or((Var(0), Var(1), Var(2))), 3)
    assert shapley_from_kcounts(3, kcount_oracle(triple)) == (Fraction(1, 3),) * 3


def test_count_from_shapley_worked_example():
    f = example1()
    assert count_from_shapley(3, 0, shapley_oracle(f)) == 3
    one = BoolFunc(Const(1), 1)
    assert count_from_shapley(1, 1, shapley_oracle(one)) == 2
    from shapcount.boolfunc import And, Or

    pairs = BoolFunc(Or((And((Var(0), Var(2))), And((Var(1), Var(3))))), 4)
    assert count_from_shapley(4, 0, shapley_oracle(pairs)) == 7


def test_expansion_weights_reduce_to_coefficients():
    for n in range(1, 10):
        assert expansion_weights(n, 1) == coefficients(n)


def test_expansion_weights_match_direct_shapley():
    # the weights tie the replaced function's Shapley value to the original
    # cofactor k-count differences; check against independent enumeration
    rng = random.Random(21)
    for _ in range(60):
        f = gen.random_boolfunc(rng, max_vars=5)
        n = f.var_count
        i = rng.randrange(n)
        hi, lo = map(brute_kcounts, cofactors(f, i))
        for ell in range(1, 4):
            arities = tuple(1 if p == i else ell for p in range(n))
            direct = or_substituted_shapley(f, arities, i)
            weights = expansion_weights(n, ell)
            assert direct == sum(w * (a - b) for w, a, b in zip(weights, hi, lo))
            if sum(arities) <= 8:
                res = or_substitute(f, arities)
                z = res.groups[i][0]
                assert direct == brute_shapley_permutations(res.func)[z]


def test_expansion_weight_systems_are_nonsingular():
    for n in range(1, 13):
        matrix = [expansion_weights(n, ell) for ell in range(1, n + 1)]
        _factor(matrix)  # raises on a singular matrix


def test_round_trips_on_random_functions():
    rng = random.Random(20)
    for _ in range(120):
        f = gen.random_boolfunc(rng, max_vars=6)
        n = f.var_count
        assert kcounts_from_counts(n, count_oracle(f)) == brute_kcounts(f)
        assert kcounts_from_counts_and(n, and_count_oracle(f)) == brute_kcounts(f)
        assert shapley_from_kcounts(n, kcount_oracle(f)) == brute_shapley_permutations(f)
        assert count_from_shapley(n, evaluate(f, ()), shapley_oracle(f)) == brute_count(f)


def test_oracle_call_counts():
    rng = random.Random(22)
    for _ in range(10):
        f = gen.random_boolfunc(rng, max_vars=6)
        n = f.var_count
        counting = CallCounter(count_oracle(f))
        kcounts_from_counts(n, counting)
        assert counting.calls == n + 1
        shap = CallCounter(shapley_oracle(f))
        count_from_shapley(n, evaluate(f, ()), shap)
        assert shap.calls == n * n


def test_shapley_oracle_builds_one_truth_table_per_call(monkeypatch):
    from shapcount import boolfunc

    calls = {"truth_table": 0, "_rebuild": 0}

    def counted(name):
        original = getattr(boolfunc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(boolfunc, name, counted(name))
    f = example1()
    assert count_from_shapley(3, 0, shapley_oracle(f)) == 3
    assert calls == {"truth_table": 9, "_rebuild": 0}


def test_shapley_oracle_refuses_over_the_function_bound():
    f = example1()
    assert or_substituted_shapley(f, (1, 2, 2), 0, bound=3) == Fraction(13, 15)
    with pytest.raises(RefusalError):
        or_substituted_shapley(f, (1, 2, 2), 0, bound=2)


def test_inconsistent_oracles_are_reported():
    f = example1()
    honest = count_oracle(f)
    with pytest.raises(InconsistencyError):
        # perturbing one equation of the system cannot look like any function
        kcounts_from_counts(3, lambda arities: honest(arities) + (arities[0] == 2))
    with pytest.raises(InconsistencyError):
        kcounts_from_counts(3, lambda arities: honest(arities) + 5)
    honest_shap = shapley_oracle(f)
    with pytest.raises(InconsistencyError):
        count_from_shapley(
            3, 0, lambda arities, i: honest_shap(arities, i) + (max(arities) == 2)
        )


def test_count_from_shapley_names_the_inconsistent_variable():
    f = example1()
    honest = shapley_oracle(f)

    def perturbed(arities, i):
        return honest(arities, i) + (i == 1 and max(arities) == 2)

    with pytest.raises(InconsistencyError, match="for variable 1,"):
        count_from_shapley(3, 0, perturbed)


def test_zero_variable_edge_cases():
    assert kcounts_from_counts(0, count_oracle(BoolFunc(Const(1), 0))) == (1,)
    assert kcounts_from_counts_and(0, and_count_oracle(BoolFunc(Const(0), 0))) == (0,)
    assert shapley_from_kcounts(0, kcount_oracle(BoolFunc(Const(1), 0))) == ()
    assert count_from_shapley(0, 1, shapley_oracle(BoolFunc(Const(1), 0))) == 1
