import random
from fractions import Fraction
from math import comb, factorial

import pytest

from helpers import (
    alternating_weights,
    binomial_moment_row,
    cofactors,
    example1,
    or_substitute,
)
from shapcount import boolfunc, formats, gen, reductions
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
    shapley_oracle,
)
from shapcount.errors import InconsistencyError, InputError, RefusalError
from shapcount.reductions import (
    CallCounter,
    _shapley_value,
    _solve_counts,
    _solve_fraction_free,
    count_from_shapley,
    expansion_weights,
    kcounts_from_counts,
    kcounts_from_counts_and,
    shapley_from_kcounts,
)


def digit_route(f, arities, target):
    """The target's Shapley value under the group replacement, by the
    reductions' rule over the k-counts of the replacement as asked and with
    the target set to 0: independent of _uniform_shapley_row."""
    kcounts = kcount_oracle(f)
    low = tuple(0 if p == target else m for p, m in enumerate(arities))
    return _shapley_value(kcounts(arities), kcounts(low))


def test_coefficients_values():
    assert expansion_weights(3, 1) == (Fraction(2, 6), Fraction(1, 6), Fraction(2, 6))
    assert expansion_weights(1, 1) == (Fraction(1),)
    assert expansion_weights(5, 1) == (
        Fraction(24, 120),
        Fraction(6, 120),
        Fraction(4, 120),
        Fraction(6, 120),
        Fraction(24, 120),
    )
    with pytest.raises(InputError):
        expansion_weights(0, 1)


def test_coefficient_identities_up_to_64():
    for n in range(1, 65):
        c = expansion_weights(n, 1)
        assert c == tuple(reversed(c))
        assert n * c[0] == 1 and n * c[n - 1] == 1
        for k in range(n - 1):
            assert c[k] * (k + 1) == c[k + 1] * (n - k - 1)


def test_vandermonde_worked_case():
    # nodes 2^ell - 1 = 1, 3, 7, 15: the counts of example 1
    assert _solve_counts(3, (3, 39, 399, 3615)) == (0, 1, 1, 1)


def test_vandermonde_random_round_trips():
    # a known integer and a known fractional solution come back exactly
    rng = random.Random(6)
    for _ in range(30):
        size = rng.randint(1, 20)
        nodes = rng.sample(range(-60, 61), size)
        matrix = [[x**k for k in range(size)] for x in nodes]
        ints = [rng.randint(-10**6, 10**6) for _ in range(size)]
        fracs = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(size)]
        columns = [
            [sum(a * s for a, s in zip(row, known)) for row in matrix] for known in (ints, fracs)
        ]
        pivot, scaled = _solve_fraction_free(matrix, columns)
        for known, solution in zip((ints, fracs), scaled):
            assert [Fraction(x, pivot) for x in solution] == known


def test_vandermonde_equals_explicit_elimination():
    # the digit solve of the 2^ell - 1 system agrees with eliminating it outright
    rng = random.Random(7)
    for n in range(13):
        nodes = [(1 << ell) - 1 for ell in range(1, n + 2)]
        matrix = [[x**k for k in range(n + 1)] for x in nodes]
        for _ in range(3):
            counts = tuple(rng.randint(0, comb(n, k)) for k in range(n + 1))
            rhs = [sum(a * s for a, s in zip(row, counts)) for row in matrix]
            pivot, (scaled,) = _solve_fraction_free(matrix, [rhs])
            assert _solve_counts(n, rhs) == tuple(Fraction(x, pivot) for x in scaled) == counts


def test_fraction_free_solve_rejects_singular_matrices():
    with pytest.raises(InputError):
        _solve_fraction_free([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[1, 2]])
    with pytest.raises(InputError):
        _solve_fraction_free([[0, 0], [0, 0]], [])


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
    for n in range(1, 25):
        coefficients = tuple(factorial(k) * factorial(n - 1 - k) for k in range(n))
        assert reductions._weight_table(n, 1) == (coefficients, factorial(n))
        assert boolfunc._uniform_shapley_row(n, 1) == (coefficients, factorial(n))
        closed = [Fraction(c, factorial(n)) for c in coefficients]
        assert expansion_weights(n, 1) == tuple(closed)


def test_closed_form_weights_match_their_defining_sums():
    # each side's closed form against its own defining sum
    for n in range(1, 25):
        for ell in range(1, n + 3):
            weights, denom = binomial_moment_row(n, ell)
            assert boolfunc._uniform_shapley_row(n, ell) == (tuple(weights), denom)
            assert expansion_weights(n, ell) == alternating_weights(n, ell)


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
            direct = digit_route(f, arities, i)
            weights = expansion_weights(n, ell)
            assert direct == sum(w * (a - b) for w, a, b in zip(weights, hi, lo))
            if sum(arities) <= 8:
                res = or_substitute(f, arities)
                z = res.groups[i][0]
                assert direct == brute_shapley_permutations(res.func)[z]


def test_expansion_weight_systems_are_nonsingular():
    for n in range(1, 13):
        matrix = [expansion_weights(n, ell) for ell in range(1, n + 1)]
        pivot, _ = _solve_fraction_free(matrix, [])  # raises on a singular matrix
        assert pivot != 0


def test_round_trips_on_random_functions():
    rng = random.Random(20)
    for _ in range(120):
        f = gen.random_boolfunc(rng, max_vars=6)
        n = f.var_count
        assert kcounts_from_counts(n, count_oracle(f)) == brute_kcounts(f)
        assert kcounts_from_counts_and(n, and_count_oracle(f)) == brute_kcounts(f)
        assert shapley_from_kcounts(n, kcount_oracle(f)) == brute_shapley_permutations(f)
        assert count_from_shapley(n, evaluate(f, ()), shapley_oracle(f)) == brute_count(f)


def test_count_from_shapley_at_benchmark_sizes():
    # 11-13 variables: the moment systems' integers run to thousands of bits
    rng = random.Random(23)
    for n, shape in zip((11, 12, 13), gen.SHAPES):
        f = gen.random_boolfunc(rng, max_vars=n, shape=shape)
        while f.var_count != n or brute_count(f) in (0, 2**n):
            f = gen.random_boolfunc(rng, max_vars=n, shape=shape)
        assert count_from_shapley(n, evaluate(f, ()), shapley_oracle(f)) == brute_count(f)


def test_oracle_call_counts():
    rng = random.Random(22)
    for _ in range(10):
        f = gen.random_boolfunc(rng, max_vars=6)
        n = f.var_count
        counting = CallCounter(count_oracle(f))
        kcounts_from_counts(n, counting)
        assert counting.calls == n + 1
        # the function's own k-counts, then one cofactor per variable: the
        # rule shared with the formula Shapley oracle adds no query
        kcounts = CallCounter(kcount_oracle(f))
        shapley_from_kcounts(n, kcounts)
        assert kcounts.calls == n + 1
        shap = CallCounter(shapley_oracle(f))
        count_from_shapley(n, evaluate(f, ()), shap)
        assert shap.calls == n * n


def test_shapley_oracle_builds_one_truth_table_per_call(monkeypatch):
    # each formula oracle builds the function's table when made, and nothing
    # after: its queries and a second oracle on the same function read the
    # table the function keeps
    from shapcount import boolfunc

    calls = {"_tables": 0}

    def counted(name):
        original = getattr(boolfunc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(boolfunc, name, counted(name))
    runs = [
        (count_oracle, lambda oracle: kcounts_from_counts(3, oracle) == (0, 1, 1, 1)),
        (and_count_oracle, lambda oracle: kcounts_from_counts_and(3, oracle) == (0, 1, 1, 1)),
        (kcount_oracle, lambda oracle: shapley_from_kcounts(3, oracle)[0] == Fraction(5, 6)),
        (shapley_oracle, lambda oracle: count_from_shapley(3, 0, oracle) == 3),
        # a query that widens both others to 2 reads the same table, and so
        # does a mixed-width query's k-count oracle
        (shapley_oracle, lambda oracle: oracle((1, 2, 2), 0) == Fraction(13, 15)),
        (shapley_oracle, lambda oracle: oracle((1, 3, 1), 0) == Fraction(19, 20)),
    ]
    for make, run in runs:
        f = example1()
        calls.update(_tables=0)
        oracle = make(f)
        assert calls == {"_tables": 1}, make.__name__
        assert run(oracle)
        assert calls == {"_tables": 1}, make.__name__
        assert run(make(f))
        assert calls == {"_tables": 1}, make.__name__


def test_shapley_oracle_equals_the_digit_route():
    rng = random.Random(24)
    draws = [gen.random_boolfunc(rng, max_vars=6) for _ in range(60)]
    draws += [gen.random_boolfunc(rng, max_vars=1) for _ in range(4)]
    for f in draws:
        n = f.var_count
        oracle = shapley_oracle(f)
        for target in range(n):
            queries = [tuple(1 if p == target else ell for p in range(n)) for ell in range(1, 5)]
            queries.append(tuple(1 if p == target else rng.randint(0, 3) for p in range(n)))
            for arities in queries:
                want = digit_route(f, arities, target)
                assert oracle(arities, target) == want, (f, arities, target)
    with pytest.raises(InputError):
        shapley_oracle(example1())((2, 1, 1), 0)
    with pytest.raises(InputError):
        shapley_oracle(example1())((1, 1, 1), 3)


def test_shapley_oracle_refuses_over_the_function_bound():
    f = example1()
    assert shapley_oracle(f, bound=3)((1, 2, 2), 0) == Fraction(13, 15)
    assert shapley_oracle(f, bound=3)((1, 2, 3), 0) == digit_route(f, (1, 2, 3), 0)
    with pytest.raises(RefusalError):
        shapley_oracle(f, bound=2)


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


def test_the_digit_solve_returns_every_in_range_vector():
    rng = random.Random(42)
    for n in range(41):
        nodes = [(1 << ell) - 1 for ell in range(1, n + 2)]
        maxima = tuple(comb(n, k) for k in range(n + 1))
        drawn = tuple(rng.randint(0, c) for c in maxima)
        for counts in ((0,) * (n + 1), maxima, drawn):
            rhs = []
            for x in nodes:
                value = 0
                for s in reversed(counts):
                    value = value * x + s
                rhs.append(value)
            assert _solve_counts(n, rhs) == counts


def test_a_count_off_by_one_is_an_inconsistency(tmp_path, capsys, monkeypatch):
    # the last count's digits solve the system only when every count is
    # right: one count off by one, at the last node or another, is exit 4
    from shapcount.cli import main

    rng = random.Random(43)
    for n in (1, 5, 13):
        f = gen.random_boolfunc(rng, max_vars=n)
        while f.var_count != n:
            f = gen.random_boolfunc(rng, max_vars=n)
        path = tmp_path / f"f{n}.bf"
        path.write_text(formats.format_sexpr(f))
        assert main(["compare", str(path)]) == 0
        for make, solve in (
            (count_oracle, kcounts_from_counts),
            (and_count_oracle, kcounts_from_counts_and),
        ):
            for node in (n + 1, n // 2 + 1):
                for delta in (1, -1):

                    def wrong(func, *, bound=boolfunc.ENUMERATION_BOUND, make=make):
                        honest = make(func, bound=bound)
                        return lambda arities: honest(arities) + delta * (arities[0] == node)

                    with pytest.raises(InconsistencyError):
                        solve(n, wrong(f))
                    with monkeypatch.context() as patch:
                        patch.setattr(boolfunc, make.__name__, wrong)
                        assert main(["compare", str(path)]) == 4, (n, make, node, delta)
        assert capsys.readouterr().out.count("agreement ok") == 1


def test_shapley_oracle_rows_answer_every_uniform_query(monkeypatch):
    # each target's row is taken on its first uniform query and serves every
    # width after it
    rng = random.Random(44)
    for _ in range(25):
        f = gen.random_boolfunc(rng, max_vars=8)
        n = f.var_count
        oracle = shapley_oracle(f)
        targets = rng.sample(range(n), n)
        for target in targets:
            for ell in rng.sample(range(1, n + 1), n):
                arities = tuple(1 if p == target else ell for p in range(n))
                assert oracle(arities, target) == digit_route(f, arities, target)
        if n < 3:
            continue
        # a mixed-width query after the cached ones still takes the digit route
        calls = []
        target = targets[0]
        others = [p for p in range(n) if p != target]
        arities = tuple(1 if p == target else 2 + (p == others[0]) for p in range(n))
        want = digit_route(f, arities, target)
        rule = reductions._shapley_value
        with monkeypatch.context() as patch:
            patch.setattr(
                boolfunc,
                "_shapley_value",
                lambda *args: calls.append(args) or rule(*args),
            )
            assert oracle(arities, target) == want
        assert len(calls) == 1


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
