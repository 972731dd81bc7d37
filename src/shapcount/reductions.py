"""Exact reductions between Shapley values, model counts, and size-bucketed
model counts.

All three reductions talk to abstract oracles, so the same code runs against
the brute-force enumerators, the circuit engine, and the lineage engine.  An
oracle is a callable taking the per-variable arities of a disjunctive group
replacement:

    count oracle   (arities)         -> model count of the replaced function
    k-count oracle (arities)         -> size-bucketed counts of the same
    Shapley oracle (arities, target) -> Shapley value of the one fresh
                                        variable standing in for `target`
                                        (arities[target] == 1)

Everything is exact rational arithmetic.  The Vandermonde systems are
solved by the Bjorck-Pereyra algorithm (Newton divided differences, then
monomial coefficients) and verified by re-substitution; the moment systems
of count_from_shapley share one matrix, which is factored once per call by
Gaussian elimination with partial pivoting over Fractions and back-solved
once per variable.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .errors import InconsistencyError, InputError

CountOracle = Callable[[tuple[int, ...]], int]
KCountOracle = Callable[[tuple[int, ...]], Sequence[int]]
ShapleyOracle = Callable[[tuple[int, ...], int], Fraction]


def coefficients(n: int) -> tuple[Fraction, ...]:
    """The weights k!(n-k-1)!/n! tying cofactor k-counts to Shapley values."""
    if n < 1:
        raise InputError("coefficients need at least one variable")
    denom = factorial(n)
    return tuple(
        Fraction(factorial(k) * factorial(n - k - 1), denom) for k in range(n)
    )


def _factor(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """PA = LU of a square rational matrix by Gaussian elimination with
    partial pivoting: U on and above the diagonal, L's multipliers below
    it, and the row order of P.  Raises InputError on a singular matrix."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    order = list(range(n))
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise InputError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        order[col], order[pivot] = order[pivot], order[col]
        for r in range(col + 1, n):
            if a[r][col]:
                a[r][col] = f = a[r][col] / a[col][col]
                for c in range(col + 1, n):
                    a[r][c] -= f * a[col][c]
    return a, order


def _back_solve(factors: tuple[list[list[Fraction]], list[int]], rhs: Sequence) -> list[Fraction]:
    """Solve A x = rhs from A's _factor output."""
    a, order = factors
    n = len(a)
    y: list[Fraction] = []
    for r in range(n):
        y.append(Fraction(rhs[order[r]]) - sum(a[r][c] * y[c] for c in range(r)))
    sol = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = y[r] - sum(a[r][c] * sol[c] for c in range(r + 1, n))
        sol[r] = acc / a[r][r]
    return sol


def vandermonde_solve(nodes: Sequence[int], rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve V s = rhs where V[j][k] = nodes[j]**k.

    Nodes must be pairwise distinct (the system is then nonsingular).
    Bjorck-Pereyra: Newton divided differences of the right-hand side, then
    their expansion into monomial coefficients, in O(n^2) operations.  The
    solution is re-substituted and must reproduce the right-hand side
    exactly; with rational arithmetic a mismatch can only mean a bug.
    """
    if len(set(nodes)) != len(nodes):
        raise InputError("duplicate nodes make the system singular")
    if len(nodes) != len(rhs):
        raise InputError("need one equation per node")
    n = len(nodes)
    sol = [Fraction(y) for y in rhs]
    for k in range(n - 1):
        for j in range(n - 1, k, -1):
            sol[j] = (sol[j] - sol[j - 1]) / (nodes[j] - nodes[j - k - 1])
    for k in range(n - 2, -1, -1):
        for j in range(k, n - 1):
            sol[j] -= nodes[k] * sol[j + 1]
    for x, want in zip(nodes, rhs):
        value = Fraction(0)
        for s in reversed(sol):
            value = value * x + s
        if value != want:
            raise InconsistencyError("back-substitution did not reproduce the right-hand side")
    return tuple(sol)


class CallCounter:
    """Wrap an oracle and count how often it is queried."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.oracle(*args)


def _as_count(value: Fraction, what: str, cap: int | None = None) -> int:
    if value.denominator != 1 or value < 0 or (cap is not None and value > cap):
        raise InconsistencyError(f"{what} must be an integer in [0, {cap}], got {value}")
    return int(value)


def kcounts_from_counts(n: int, oracle: CountOracle) -> tuple[int, ...]:
    """Recover the size-bucketed counts of an n-variable function from n+1
    total counts of the function with every variable replaced by a uniform
    disjunction of fresh variables.

    Replacing each variable by a disjunction of ell fresh ones multiplies
    the contribution of every size-k model by (2^ell - 1)^k, so the counts
    for ell = 1..n+1 form a Vandermonde system in the unknown k-counts.
    Makes exactly n + 1 oracle calls.
    """
    if n < 0:
        raise InputError("variable count must be nonnegative")
    nodes = [(1 << ell) - 1 for ell in range(1, n + 2)]
    rhs = [oracle(tuple([ell] * n)) for ell in range(1, n + 2)]
    sol = vandermonde_solve(nodes, rhs)
    return tuple(
        _as_count(x, f"the recovered size-{k} count", comb(n, k)) for k, x in enumerate(sol)
    )


def kcounts_from_counts_and(n: int, oracle: CountOracle) -> tuple[int, ...]:
    """As kcounts_from_counts, but the oracle counts the function with each
    variable replaced by a *conjunction* of fresh variables: a size-k model
    then contributes (2^ell - 1)^(n-k) assignments, so the same Vandermonde
    system is solved for the reversed index."""
    return tuple(reversed(kcounts_from_counts(n, oracle)))


def shapley_from_kcounts(n: int, oracle: KCountOracle) -> tuple[Fraction, ...]:
    """Shapley vector from size-bucketed counts of the function itself and of
    each variable-deleted cofactor.

    Uses the splitting of size-(k+1) models by whether they contain the
    distinguished variable:

        #_{k+1} F  =  #_k F[X_i:=1]  +  #_{k+1} F[X_i:=0]

    so only the cofactors at 0 are needed besides the function's own counts.
    The cofactor at 0 is the arity-0 group replacement of one variable (all
    others kept as single fresh variables).
    """
    if n < 0:
        raise InputError("variable count must be nonnegative")
    if n == 0:
        return ()
    coeff = coefficients(n)
    full = list(oracle(tuple([1] * n)))
    if len(full) != n + 1:
        raise InputError(f"oracle returned {len(full)} buckets, expected {n + 1}")
    values = []
    for i in range(n):
        arities = tuple(0 if p == i else 1 for p in range(n))
        low = list(oracle(arities))
        if len(low) != n:
            raise InputError(f"cofactor oracle returned {len(low)} buckets, expected {n}")
        low.append(0)  # the (n-1)-variable cofactor has no size-n models
        total = Fraction(0)
        for k in range(n):
            total += coeff[k] * (full[k + 1] - low[k + 1] - low[k])
        values.append(total)
    return tuple(values)


_WEIGHT_CACHE: dict[tuple[int, int], tuple[Fraction, ...]] = {}


def expansion_weights(n: int, ell: int) -> tuple[Fraction, ...]:
    """Weights w_k tying a distinguished variable's Shapley value, after every
    other variable is replaced by a disjunction of ell fresh ones, to the
    k-count differences d_k = #_k F[X_i:=1] - #_k F[X_i:=0] of the original:

        Shap = sum_k w_k d_k,   w_k = integral_0^1 (1-u^ell)^k u^(ell(n-1-k)) du

    The integral form comes from averaging the marginal contribution over a
    uniform random threshold: each clone group is true with probability
    1 - u^ell when each clone is false with probability u.  For ell = 1 the
    weights reduce to the plain coefficients k!(n-k-1)!/n!.
    """
    if n < 1 or ell < 1:
        raise InputError("weights need n >= 1 and ell >= 1")
    key = (n, ell)
    cached = _WEIGHT_CACHE.get(key)
    if cached is not None:
        return cached
    weights = []
    for k in range(n):
        total = Fraction(0)
        for j in range(k + 1):
            total += Fraction((-1) ** j * comb(k, j), ell * (n - 1 - k + j) + 1)
        weights.append(total)
    result = tuple(weights)
    _WEIGHT_CACHE[key] = result
    return result


def count_from_shapley(n: int, value_at_zero: int, oracle: ShapleyOracle) -> int:
    """Model count from a Shapley oracle on group-replaced copies.

    For each variable i and each ell in 1..n the oracle reports the Shapley
    value of a single fresh variable standing in for X_i while every other
    variable becomes a disjunction of ell fresh ones.  Those n values are a
    nonsingular linear system (see expansion_weights) in the cofactor
    k-count differences d_k^i.  Summing the differences over i gives

        sum_i d_k^i = (k+1) #_{k+1} F - (n-k) #_k F

    because a size-(k+1) model is counted once per member variable and a
    size-k model once per absent variable.  Starting from #_0 F, which is
    just the value on the all-zero valuation, the buckets follow
    inductively and their sum is the model count.

    Makes exactly n * n oracle calls.
    """
    if n < 0:
        raise InputError("variable count must be nonnegative")
    if value_at_zero not in (0, 1):
        raise InputError("the all-zero value must be 0 or 1")
    if n == 0:
        return value_at_zero
    factors = _factor([expansion_weights(n, ell) for ell in range(1, n + 1)])
    sums = [Fraction(0)] * n
    for i in range(n):
        rhs = [oracle(tuple(1 if p == i else ell for p in range(n)), i) for ell in range(1, n + 1)]
        diffs = _back_solve(factors, rhs)
        for k, d in enumerate(diffs):
            if d.denominator != 1:
                raise InconsistencyError(
                    f"cofactor count difference for variable {i}, size {k} is not an integer: {d}"
                )
            sums[k] += d
    counts = [value_at_zero]
    for k in range(n):
        nxt = (sums[k] + (n - k) * counts[k]) / (k + 1)
        counts.append(_as_count(nxt, f"the recovered size-{k + 1} count", comb(n, k + 1)))
    return sum(counts)
