"""Boolean functions as gate DAGs, with exact enumeration oracles.

Every Boolean function is one `Circuit`: an array of `Gate`s over a dense
variable index space 0..n-1, children first, the output last.  Formulas,
d-D circuits and lineage differ only in the properties `circuit.validate`
proves of that one DAG, not in their type.  A function is written only as
gates, appended to a list passed to `Circuit(gates, n)`: clause sets (DIMACS
files, lineage DNFs from `dnf_from_clauses`, random CNF/DNF draws) by the
one clause writer `_clause_circuit`, s-expressions by their parser, random
trees by `gen.random_boolfunc`.  The d-D generator and the lineage compiler
add gates through `circuit.CircuitBuilder`, which also interns and folds
constants.  `formats.format_sexpr` renders a function, and `truth_table`
compares two semantically.  Every per-gate pass, here and in `circuit` and
`formats`, is one bottom-up walk of the gate array (`_fold`) that drops
each value after its last reader, so it accepts any nesting depth and
walks shared subterms once.  Everything is exact: counts are ints, Shapley
values Fractions.

The brute-force routines in this module are the ground truth the rest of the
package is checked against.  They enumerate the full valuation space as big
integer bitmasks, one bit per valuation, graded by size: the valuations with
k true variables fill one byte-aligned block, for k = 0..n, laid out by the
variable masks (`_variable_masks`) alone.  A table is read only through
those masks and popcounts, whole or per size of T or T & x_i (`_profile`,
one popcount per block), which keeps exhaustive enumeration fast up to the
configured bounds (bit-parallel tables as in Knuth, TAOCP 4A, 7.1.3).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate, permutations, repeat
from math import comb, factorial
from operator import mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, RefusalError

ENUMERATION_BOUND = 24
PERMUTATION_BOUND = 10

CONST0 = "const0"
CONST1 = "const1"
VAR = "var"
NOT = "not"
AND = "and"
OR = "or"


class Gate(NamedTuple):
    """One gate of a DAG; inputs are indices of earlier gates."""

    kind: str
    var: int = -1
    inputs: tuple[int, ...] = ()


class Circuit:
    """A Boolean function as a DAG of gates with one output: formulas,
    d-D circuits and lineage alike.

    Gate inputs always point at smaller indices, so index order is a
    topological order.  Exactly one gate (the output) feeds nothing; as
    nothing can read the last gate, that is the last one, never passed in.
    Variables carry dense indices 0..var_count-1; not every index has to
    occur.  The constructor checks all of this.  A circuit compares, hashes
    and prints by identity, and keeps its truth table and its
    `circuit.validate` report once built.
    """

    __slots__ = ("gates", "var_count", "deterministic_by_construction", "_report", "_table")

    def __init__(
        self,
        gates: Sequence[Gate],
        var_count: int,
        deterministic_by_construction: bool = False,
    ):
        self.gates = tuple(gates)
        self.var_count = var_count
        self.deterministic_by_construction = deterministic_by_construction
        self._report = None  # `circuit.validate`'s, made on its first call
        self._table: int | None = None
        self._validate()

    @property
    def output(self) -> int:
        return len(self.gates) - 1

    def _validate(self) -> None:
        gates, var_count = self.gates, self.var_count
        if not gates:
            raise InputError("a circuit needs at least one gate")
        if var_count < 0:
            raise InputError("variable count must be nonnegative")
        referenced = bytearray(len(gates))
        for idx, (kind, var, inputs) in enumerate(gates):
            if kind == AND or kind == OR:
                arity_ok = len(inputs) >= 2
            elif kind == NOT:
                arity_ok = len(inputs) == 1
            elif kind == VAR or kind == CONST0 or kind == CONST1:
                if kind == VAR and not 0 <= var < var_count:
                    raise InputError(f"gate {idx}: variable {var} out of range")
                arity_ok = not inputs
            else:
                raise InputError(f"gate {idx}: unknown kind {kind!r}")
            if not arity_ok:
                raise InputError(f"gate {idx}: wrong arity for {kind}")
            if inputs and (min(inputs) < 0 or max(inputs) >= idx):
                ref = next(r for r in inputs if not 0 <= r < idx)
                raise InputError(f"gate {idx}: input {ref} does not precede it")
            for ref in inputs:
                referenced[ref] = 1
        if referenced.count(0) != 1:
            sinks = [idx for idx, seen in enumerate(referenced) if not seen]
            raise InputError(
                f"expected the output to be the only unreferenced gate, found {sinks}"
            )

    def size(self) -> int:
        return len(self.gates)


def _fold(
    func: Circuit,
    var: Callable[[int], object],
    zero: object,
    one: object,
    neg: Callable,
    conj: Callable[[Iterator], object],
    disj: Callable[[Iterator], object],
    keep: Iterable[int] = (),
) -> list:
    """The one bottom-up walker over a gate array: each gate's value, in
    index order, from its inputs' values.  A variable gate takes var(its
    index), the constants `zero` and `one`, NOT neg(child), AND and OR
    conj/disj of an iterator over their children's values.  Every value but the
    output's and those of the gates in `keep` is dropped (None) once its
    last reader has been computed, so a pass holds only its frontier."""
    gates = func.gates
    last = list(range(len(gates)))
    for idx, gate in enumerate(gates):
        for r in gate.inputs:
            last[r] = idx
    for r in keep:
        last[r] = -1
    values: list = []
    append, get = values.append, values.__getitem__
    for idx, (kind, v, inputs) in enumerate(gates):
        if kind == VAR:
            append(var(v))
        elif kind == NOT:
            append(neg(values[inputs[0]]))
        elif kind == AND:
            append(conj(map(get, inputs)))
        elif kind == OR:
            append(disj(map(get, inputs)))
        else:
            append(one if kind == CONST1 else zero)
        for r in inputs:
            if last[r] == idx:
                values[r] = None
    return values


# ---------------------------------------------------------------------------
# Evaluation and exhaustive truth tables, for functions and circuits alike


def evaluate(func: Circuit, true_vars: Iterable[int]) -> int:
    """Value of the function under the valuation setting exactly `true_vars`."""
    trues = frozenset(true_vars)
    for v in trues:
        if not 0 <= v < func.var_count:
            raise InputError(f"valuation mentions variable {v}, function has {func.var_count}")
    return int(_fold(func, trues.__contains__, 0, 1, (1).__sub__, all, any)[func.output])


@functools.cache
def _blocks(n: int) -> tuple[slice, ...]:
    """The bytes of the size blocks of a truth table over n variables: block
    k, the valuations of size k, is bytes blocks[k] of the little-endian
    table."""
    ends = list(accumulate((comb(n, k) + 7) // 8 for k in range(n + 1)))
    return tuple(map(slice, [0, *ends], ends))


def _pack(rows: Iterable[int], n: int) -> int:
    """The table whose size blocks 0..n hold `rows`, each at its byte offset."""
    sizes = [block.stop - block.start for block in _blocks(n)]
    return int.from_bytes(b"".join(map(int.to_bytes, rows, sizes, repeat("little"))), "little")


@functools.cache
def _valid(n: int) -> int:
    """The mask of the valid positions, which is the table of the constant 1."""
    return _pack([(1 << comb(n, k)) - 1 for k in range(n + 1)], n)


@functools.cache
def _variable_masks(n: int) -> tuple[int, ...]:
    """masks[j] has the bit of each valuation that sets variable j."""
    masks = []
    for j in range(n):
        # block k over j + 1 variables: the C(j, k) valuations without j first
        rows = [0] + [((1 << comb(j, k - 1)) - 1) << comb(j, k) for k in range(1, j + 2)]
        for m in range(j + 1, n):
            # block k over m + 1 variables: block k over m, then block k - 1
            # with variable m true
            rows.append(0)
            rows = [0] + [rows[k] | (rows[k - 1] << comb(m, k)) for k in range(1, m + 2)]
        masks.append(_pack(rows, n))
    return tuple(masks)


def _profile(table: int, n: int) -> list[int]:
    """|T & W_k| for k = 0..n, for T a truth table over n variables and W_k
    the valuations of size k: T's models counted by size, one popcount of
    each size block."""
    blocks = _blocks(n)
    raw = table.to_bytes(blocks[-1].stop, "little")
    return [int.from_bytes(raw[block], "little").bit_count() for block in blocks]


def _check_bound(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise RefusalError(f"{what} over {n} variables exceeds the bound of {bound}")


def _intersect(tables: Iterable[int]) -> int:
    acc = -1  # every bit set; an AND has inputs, so the result is finite
    for t in tables:
        acc &= t
    return acc


def _union(tables: Iterable[int]) -> int:
    acc = 0
    for t in tables:
        acc |= t
    return acc


def _tables(func: Circuit, disj: Callable[[Iterator[int]], int] = _union) -> list:
    """The truth-table walk over the full variable space, ORs combined by
    `disj`; only the output's table is kept."""
    n = func.var_count
    full = _valid(n)
    return _fold(func, _variable_masks(n).__getitem__, 0, full, full.__xor__, _intersect, disj)


def truth_table(func: Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """All 2^n values as a bitmask in the graded layout, every padding bit
    0.  Built on the first call and kept on the function; every call checks
    the bound first, so a kept table never answers above it."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    if func._table is None:
        func._table = _tables(func)[func.output]
    return func._table


# ---------------------------------------------------------------------------
# Brute-force counting and Shapley oracles


def brute_count(func: Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """Model count by full enumeration."""
    return truth_table(func, bound=bound).bit_count()


def brute_kcounts(func: Circuit, *, bound: int = ENUMERATION_BOUND) -> tuple[int, ...]:
    """Model counts bucketed by valuation size, by full enumeration."""
    return tuple(_profile(truth_table(func, bound=bound), func.var_count))


def brute_shapley_permutations(func: Circuit) -> tuple[Fraction, ...]:
    """Shapley vector by averaging marginal contributions over all n! orders,
    refused above PERMUTATION_BOUND variables.  It finds the models by
    `evaluate` on each of the 2^n valuations, not in the truth table, so it
    shares nothing with the table's layout."""
    n = func.var_count
    _check_bound(n, PERMUTATION_BOUND, "permutation enumeration")
    if n == 0:
        return ()
    models = {i for i in range(1 << n) if evaluate(func, [v for v in range(n) if i >> v & 1])}
    totals = [0] * n
    for perm in permutations(range(n)):
        index = 0
        prev = 0 in models
        for v in perm:
            index |= 1 << v
            cur = index in models
            totals[v] += cur - prev
            prev = cur
    denom = factorial(n)
    return tuple(Fraction(t, denom) for t in totals)


def brute_shapley_subsets(func: Circuit, *, bound: int = ENUMERATION_BOUND) -> tuple[Fraction, ...]:
    """Shapley vector from size-bucketed counts of the two cofactors per
    variable, all read off one truth table T: the k-subsets S of the other
    variables with f(S + x_i) true number |T & x_i & W_(k+1)|, those with
    f(S) true |T & ~x_i & W_k|, for W_k the valuations of size k.  That
    takes T's profile once and T & x_i's once per variable, n + 1 in all.
    Must agree exactly with the permutation average."""
    n = func.var_count
    _check_bound(n, bound, "subset enumeration")
    if n == 0:
        return ()
    table = truth_table(func, bound=bound)
    whole = _profile(table, n)
    weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
    rows = (_cofactor_row(whole, _profile(table & mask, n)) for mask in _variable_masks(n))
    return tuple(Fraction(sum(map(mul, weights, row)), factorial(n)) for row in rows)


def _cofactor_row(whole: Sequence[int], hi: Sequence[int]) -> list[int]:
    """|T & x & W_(k+1)| - |T & ~x & W_k| for k = 0..n-1, from the profiles
    `whole` of a truth table T over n variables and `hi` of T & x, for x a
    variable's mask and W_k the valuations of size k: over the size-k
    subsets S of the other variables, the sum of f(S + x) - f(S).  Dotted
    with the Shapley weights, it gives x's value.  T & ~x needs no profile
    of its own, as |T & ~x & W_k| = |T & W_k| - |T & x & W_k|."""
    return list(map(sub, hi[1:], map(sub, whole, hi)))


# ---------------------------------------------------------------------------
# Enumeration oracles for the reductions' queries.
#
# A function whose n variables each become a group of fresh disjuncts has
# too many variables to enumerate.  These oracles instead answer from the
# profiles of the one truth table T the function keeps, of T or T & x_i,
# and take exactly the query shapes the reductions ask; any other shape is
# an input error.  Each factory builds T when the oracle is made.
# - Count: one width ell >= 1 at every variable.  A true group can be set
#   w = 2^ell - 1 ways and a false one one way, so a model of size k weighs
#   w^k (w^(n-k) for conjunctive groups): Horner's rule over T's profile.
# - k-count: width 1 everywhere, T's profile; or width 0 at one variable
#   x_i, the profile of f[x_i:=0], |T & W_k| - |T & x_i & W_k| for k < n.
# - Shapley: width 1 at the target, one width ell >= 1 at the others.  The
#   target's cofactor row is dotted with a row of integer weights, cached
#   per (n, ell), in a closed form of its own: count_from_shapley checks it
#   against the reductions' separate table.
# No oracle solves a linear system.


def _check_arities(arities: Sequence[int], var_count: int) -> None:
    """Every substitution takes one nonnegative width per variable."""
    if len(arities) != var_count:
        raise InputError(f"need one arity per variable of {var_count}, got {len(arities)}")
    if any(m < 0 for m in arities):
        raise InputError("arities must be nonnegative")


def _one_width(arities: Sequence[int], widths: set[int]) -> int:
    """The one width ell >= 1 a reduction's query gives the variables it
    widens, `widths`, or 1 if it widens none."""
    if len(widths) > 1:
        raise InputError(f"mixed-width query {tuple(arities)}: the formula oracles take one width")
    if 0 in widths:
        raise InputError(f"query {tuple(arities)} has width 0: the formula oracles take ell >= 1")
    return max(widths, default=1)


def _uniform_count(
    func: Circuit, arities: Sequence[int], bound: int, conjunctive: bool = False
) -> int:
    """Model count after replacing every variable by a disjunction (with
    `conjunctive`, a conjunction) of one width ell >= 1 of fresh ones: T's
    profile by Horner's rule at w = 2^ell - 1, reversed for disjunctions."""
    n = func.var_count
    _check_arities(arities, n)
    w = (1 << _one_width(arities, set(arities))) - 1
    profile = _profile(truth_table(func, bound=bound), n)
    total = 0
    for count in profile if conjunctive else reversed(profile):
        total = total * w + count
    return total


def or_substituted_count(
    func: Circuit, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> int:
    """Model count of the function after replacing every variable by a
    disjunction of one width arities[i] = ell >= 1 of fresh variables."""
    return _uniform_count(func, arities, bound)


def count_oracle(func: Circuit, *, bound: int = ENUMERATION_BOUND):
    """Count oracle for kcounts_from_counts: arities -> or_substituted_count.
    Like the other oracles here, it builds the function's truth table when
    made, so it refuses above the bound before a reduction spends time on
    its first call; its queries read the kept table under the same bound."""
    truth_table(func, bound=bound)
    return lambda arities: or_substituted_count(func, arities, bound=bound)


def and_count_oracle(func: Circuit, *, bound: int = ENUMERATION_BOUND):
    """As count_oracle, for the conjunctive groups of kcounts_from_counts_and:
    a false group can be set 2^ell - 1 ways, a true group one way."""
    truth_table(func, bound=bound)
    return lambda arities: _uniform_count(func, arities, bound, conjunctive=True)


def kcount_oracle(func: Circuit, *, bound: int = ENUMERATION_BOUND):
    """Size-bucketed count oracle for shapley_from_kcounts: width 1 at every
    variable gives T's profile, and width 0 at one variable x_i, 1 at the
    others, the profile of f[x_i:=0], from T's and that of T & x_i.  Made
    as count_oracle is."""
    n = func.var_count
    whole = _profile(truth_table(func, bound=bound), n)
    masks = _variable_masks(n)

    def query(arities: Sequence[int]) -> tuple[int, ...]:
        _check_arities(arities, n)
        deleted = [i for i, m in enumerate(arities) if not m]
        if _one_width(arities, set(arities) - {0}) != 1 or len(deleted) > 1:
            raise InputError(
                f"query {tuple(arities)}: the formula k-count oracle takes 1s, or one 0"
            )
        if not deleted:
            return tuple(whole)
        hi = _profile(truth_table(func, bound=bound) & masks[deleted[0]], n)
        return tuple(map(sub, whole[:n], hi))

    return query


@functools.cache
def _uniform_shapley_row(n: int, ell: int) -> tuple[tuple[int, ...], int]:
    """Integer weights S_j T! for j = 0..n-1, and T!, that turn the target's
    cofactor subset counts into its Shapley value when every other variable
    becomes a disjunction of ell fresh ones.

    The T = 1 + (n-1) ell fresh variables split the size-k subsets S of the
    target's partners by the base valuation that says which groups S
    meets: a base valuation with j true variables stands for
    [t^k] ((1+t)^ell - 1)^j of them, so

        S_j T! = sum_k k! (T-1-k)! [t^k] ((1+t)^ell - 1)^j,

    by the binomial theorem the j-th forward difference at 0 of the moments
    M_m = sum_k k! (T-1-k)! C(m ell, k) = T! / (T - m ell), closed by parallel
    summation (Concrete Mathematics, 5.1): with a = m ell, each term is
    a! (T-1-a)! C(T-1-k, a-k), and those binomials sum over k to C(T, a).
    """
    total = 1 + (n - 1) * ell
    denom = factorial(total)
    diffs = [denom // (total - m * ell) for m in range(n)]
    for j in range(1, n):  # diffs[j:] become the j-th differences
        diffs[j:] = map(sub, diffs[j:], diffs[j - 1 : -1])
    return tuple(diffs), denom


def shapley_oracle(func: Circuit, *, bound: int = ENUMERATION_BOUND):
    """Shapley oracle: (arities, target) -> Shapley value of the fresh
    variable standing in for `target` when every other variable becomes a
    disjunction of one width ell >= 1, the queries count_from_shapley asks:
    the target's _cofactor_row, built once per target from the profile of
    T & x and T's own, taken when the oracle is made, dotted with the
    weights of _uniform_shapley_row, cached per (n, ell).  Made as
    count_oracle is.
    """
    n = func.var_count
    table = truth_table(func, bound=bound)
    masks = _variable_masks(n)
    whole = _profile(table, n)
    diffs: dict[int, list[int]] = {}

    def query(arities: Sequence[int], target: int) -> Fraction:
        _check_arities(arities, n)
        if not 0 <= target < n:
            raise InputError(f"no variable {target}")
        if arities[target] != 1:
            raise InputError("the distinguished variable must keep arity 1")
        ell = _one_width(arities, {m for i, m in enumerate(arities) if i != target})
        if target not in diffs:
            diffs[target] = _cofactor_row(whole, _profile(table & masks[target], n))
        weights, denom = _uniform_shapley_row(n, ell)
        return Fraction(sum(map(mul, weights, diffs[target])), denom)

    return query


# ---------------------------------------------------------------------------
# Clause sets


def _clause_circuit(
    clauses: Iterable[Sequence[int]], inner: str, outer: str, var_count: int
) -> Circuit:
    """The `outer` (AND or OR) of the `inner`s of clauses of signed 1-based
    literals, in one pass: each literal's gates (a NOT over its VAR for a
    negative literal), then the clause's `inner` gate unless it has one
    literal, then the `outer` gate unless there is one clause.  The empty
    clauses share one constant, the empty `inner`; no clauses at all give
    the empty `outer`."""
    unit = {OR: CONST0, AND: CONST1}
    gates: list[Gate] = []
    parts: list[int] = []
    empty: int | None = None
    for clause in clauses:
        if not clause:
            if empty is None:
                empty = len(gates)
                gates.append(Gate(unit[inner]))
            parts.append(empty)
            continue
        literals = []
        for lit in clause:
            gates.append(Gate(VAR, abs(lit) - 1))
            if lit < 0:
                gates.append(Gate(NOT, inputs=(len(gates) - 1,)))
            literals.append(len(gates) - 1)
        if len(literals) > 1:
            gates.append(Gate(inner, inputs=tuple(literals)))
        parts.append(len(gates) - 1)
    if len(parts) > 1:
        gates.append(Gate(outer, inputs=tuple(parts)))
    return Circuit(gates or [Gate(unit[outer])], var_count)


def dnf_from_clauses(clauses: Iterable[frozenset[int]], var_count: int) -> Circuit:
    """Deterministic positive-DNF function for a set of clauses of 0-based
    variables: the constant 1 if one clause is empty, else `_clause_circuit`
    of the clauses, each and its literals sorted so the result is
    byte-stable (no clauses at all make the constant 0)."""
    clause_set = {frozenset(c) for c in clauses}
    if frozenset() in clause_set:
        return Circuit([Gate(CONST1)], var_count)
    terms = sorted(tuple(v + 1 for v in sorted(c)) for c in clause_set)
    return _clause_circuit(terms, AND, OR, var_count)
