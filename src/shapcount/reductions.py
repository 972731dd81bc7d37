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

Everything is exact.  The k-count Vandermonde system is solved in integers,
its solution read off the base-t digits of one answer and every equation
checked (Kronecker substitution; von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4).  One rule, `_shapley_value`, turns the k-counts of
a function and of a cofactor into a Shapley value over one denominator,
for shapley_from_kcounts and the formula Shapley oracle alike.  The n
moment systems of count_from_shapley share one matrix, so they are solved
together, after all n * n oracle answers are in, by one fraction-free
(Bareiss) Gauss-Jordan elimination over integers; each solution must be
divisible by the elimination's final pivot.  The matrix and the Shapley
coefficients are rows of `_weight_table`, a closed form the formula Shapley
oracle must not share: with one table, a wrong entry would cancel out.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Sequence

from .errors import InconsistencyError, InputError

CountOracle = Callable[[tuple[int, ...]], int]
KCountOracle = Callable[[tuple[int, ...]], Sequence[int]]
ShapleyOracle = Callable[[tuple[int, ...], int], Fraction]


def _solve_fraction_free(
    matrix: Sequence[Sequence], columns: Sequence[Sequence]
) -> tuple[int, list[list[int]]]:
    """Solve A x = b for a square rational matrix A and every right-hand
    side b in `columns` by one fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 22, 1968).

    Each row of [A | b...] is scaled by the lcm of its denominators, which
    leaves the solutions as they are.  Every division is then exact, and
    the diagonal ends up holding the final pivot p, plus or minus the
    determinant of the scaled matrix.  Returns p and, per right-hand side,
    the integers p * x.  Raises InputError on a singular matrix.
    """
    n = len(matrix)
    rows = []
    for r, row in enumerate(matrix):
        entries = [Fraction(x) for x in row] + [Fraction(b[r]) for b in columns]
        scale = lcm(*[x.denominator for x in entries])
        rows.append([x.numerator * (scale // x.denominator) for x in entries])
    pivot = 1
    for k in range(n):
        found = next((r for r in range(k, n) if rows[r][k]), None)
        if found is None:
            raise InputError("singular matrix")
        rows[k], rows[found] = rows[found], rows[k]
        top, prev, pivot = rows[k], pivot, rows[k][k]
        for r in range(n):
            if r != k:
                f = rows[r][k]
                rows[r] = [(pivot * x - f * y) // prev for x, y in zip(rows[r], top)]
    return pivot, [[row[n + c] for row in rows] for c in range(len(columns))]


class CallCounter:
    """Wrap an oracle and count how often it is queried."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.oracle(*args)


def _as_count(value: int | Fraction, what: str, cap: int) -> int:
    if value.denominator != 1 or not 0 <= value <= cap:
        raise InconsistencyError(f"{what} must be an integer in [0, {cap}], got {value}")
    return int(value)


def kcounts_from_counts(n: int, oracle: CountOracle) -> tuple[int, ...]:
    """Recover the size-bucketed counts of an n-variable function from n+1
    total counts of the function with every variable replaced by a uniform
    disjunction of fresh variables.

    Replacing each variable by a disjunction of ell fresh ones multiplies
    the contribution of every size-k model by (2^ell - 1)^k, so the counts
    for ell = 1..n+1 form a Vandermonde system in the unknown k-counts.
    Each k-count is at most C(n, k), below the last node t = 2^(n+1) - 1,
    so the last count, read in base t, spells them out; checking all n + 1
    equations exactly proves that these digits solve the system.
    Makes exactly n + 1 oracle calls.
    """
    return _kcounts(n, oracle)


def _kcounts(n: int, oracle: CountOracle) -> tuple[int, ...]:
    if n < 0:
        raise InputError("variable count must be nonnegative")
    return _solve_counts(n, [oracle(tuple([ell] * n)) for ell in range(1, n + 2)])


def _solve_counts(n: int, rhs: Sequence[int]) -> tuple[int, ...]:
    """The counts s_k in [0, C(n, k)] with sum_k s_k (2^ell - 1)^k = rhs[ell - 1]
    for ell = 1..n+1: the base-(2^(n+1) - 1) digits of rhs[n], the top one
    whatever the n lower ones leave, once every equation is checked."""
    counts, rest, t = [], rhs[n], (1 << (n + 1)) - 1
    for k in range(n + 1):
        rest, digit = divmod(rest, t) if k < n else (0, rest)
        counts.append(_as_count(digit, f"the recovered size-{k} count", comb(n, k)))
    for ell, want in enumerate(rhs, start=1):
        value = 0
        for s in reversed(counts):
            value = (value << ell) - value + s
        if value != want:
            raise InconsistencyError(f"no size-bucketed counts fit the count for width {ell}")
    return tuple(counts)


def kcounts_from_counts_and(n: int, oracle: CountOracle) -> tuple[int, ...]:
    """As kcounts_from_counts, but the oracle counts the function with each
    variable replaced by a *conjunction* of fresh variables: a size-k model
    then contributes (2^ell - 1)^(n-k) assignments, so the same Vandermonde
    system is solved for the reversed index."""
    return tuple(reversed(_kcounts(n, oracle)))


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
    full = oracle(tuple([1] * n))
    if len(full) != n + 1:
        raise InputError(f"oracle returned {len(full)} buckets, expected {n + 1}")
    values = []
    for i in range(n):
        low = oracle(tuple(0 if p == i else 1 for p in range(n)))
        if len(low) != n:
            raise InputError(f"cofactor oracle returned {len(low)} buckets, expected {n}")
        values.append(_shapley_value(full, low))
    return tuple(values)


@functools.cache
def _weight_table(n: int, ell: int) -> tuple[tuple[int, ...], int]:
    """The weights w_k of expansion_weights as integers w_k T!, k = 0..n-1,
    and T!, for T = 1 + (n-1) ell.  With v = u^ell the integral is a Beta
    integral, w_k = k! ell^k / prod_{i=0..k} (ell (n-1-k+i) + 1), whose factors
    are distinct integers at most T: w_0 T! = (T-1)!, and each next entry is
    the last times k ell / (ell (n-1-k) + 1), exactly.  At ell = 1 the row is
    the Shapley coefficients k! (n-1-k)! over n!."""
    total = 1 + (n - 1) * ell
    row = [factorial(total - 1)]
    for k in range(1, n):
        row.append(row[-1] * k * ell // (ell * (n - 1 - k) + 1))
    return tuple(row), total * row[0]


def _shapley_value(full: Sequence[int], low: Sequence[int]) -> Fraction:
    """Shap_x of an N-variable function F from the k-counts `full` of F and
    `low` of F[x:=0], which has no size-N models, by the splitting above:
    sum_k k! (N-1-k)! / N! (#_{k+1} F - #_{k+1} F[x:=0] - #_k F[x:=0])."""
    weights, denom = _weight_table(len(low), 1)
    above = [*low[1:], 0]
    total = sum(w * (full[k + 1] - above[k] - low[k]) for k, w in enumerate(weights))
    return Fraction(total, denom)


@functools.cache  # a refused call raises, and nothing is cached for it
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
    row, denom = _weight_table(n, ell)
    return tuple(Fraction(s, denom) for s in row)


def count_from_shapley(n: int, value_at_zero: int, oracle: ShapleyOracle) -> int:
    """Model count from a Shapley oracle on group-replaced copies.

    For each variable i and each ell in 1..n the oracle reports the Shapley
    value of a single fresh variable standing in for X_i while every other
    variable becomes a disjunction of ell fresh ones.  Those n values are a
    nonsingular linear system (see expansion_weights) in the cofactor
    k-count differences d_k^i; the n systems share their matrix and are
    solved together once every answer is in.  Summing the differences over
    i gives

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
    answers = [
        [oracle(tuple(1 if p == i else ell for p in range(n)), i) for ell in range(1, n + 1)]
        for i in range(n)
    ]
    weights = [expansion_weights(n, ell) for ell in range(1, n + 1)]
    pivot, scaled = _solve_fraction_free(weights, answers)
    sums = [0] * n
    for i, column in enumerate(scaled):
        for k, x in enumerate(column):
            d, rest = divmod(x, pivot)
            if rest:
                raise InconsistencyError(
                    f"cofactor count difference for variable {i}, size {k} is not an integer: "
                    f"{Fraction(x, pivot)}"
                )
            sums[k] += d
    counts = [value_at_zero]
    for k in range(n):
        nxt = Fraction(sums[k] + (n - k) * counts[k], k + 1)
        counts.append(_as_count(nxt, f"the recovered size-{k + 1} count", comb(n, k + 1)))
    return sum(counts)
