"""Boolean functions as gate DAGs, with exact enumeration oracles.

Functions are built from expression nodes (shared subterms allowed) over a
dense variable index space 0..n-1.  A BoolFunc validates its nodes and
lowers them to the gate array a `circuit.Circuit` holds, one `Gate` per
distinct node, children first, and keeps only that array.  Nodes are for
construction only: they compare and hash by identity, and no method of
theirs walks a node tree.  `formats.format_sexpr` renders a function, and
`truth_table` compares two semantically.  Every per-gate pass, here and in
`circuit` and `formats`, is one bottom-up walk of the gate array (`_fold`)
that drops each value after its last reader, so it takes circuits too,
accepts any nesting depth and walks shared subterms once.  Everything is
exact: counts are ints, Shapley values Fractions.

The brute-force routines in this module are the ground truth the rest of the
package is checked against.  They enumerate the full valuation space as big
integer bitmasks, one bit per valuation, graded by size: the valuations with
k true variables fill one byte-aligned block, in increasing order of their
index (bit v set for each true variable v), for k = 0..n.  Every per-size
count is then the popcount of one byte slice, which keeps exhaustive
enumeration fast up to the configured bounds (bit-parallel tables as in
Knuth, TAOCP 4A, 7.1.3).
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import accumulate, permutations, repeat
from math import comb, factorial
from operator import mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, RefusalError
from .reductions import _shapley_value

if TYPE_CHECKING:
    from .circuit import Circuit

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


@dataclass(frozen=True, eq=False)
class Const:
    value: int


@dataclass(frozen=True, eq=False)
class Var:
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Not:
    child: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Or:
    children: tuple["Node", ...]


Node = Const | Var | Not | And | Or

TRUE = Const(1)
FALSE = Const(0)


def _collapse(children: Sequence[Node], empty: Node, connective: Callable[[tuple], Node]) -> Node:
    """`connective` over `children`, `empty` if there are none, the child
    itself if there is one."""
    items = tuple(children)
    if len(items) < 2:
        return items[0] if items else empty
    return connective(items)


def conjunction(children: Sequence[Node]) -> Node:
    """n-ary AND, collapsing the empty and single-child cases."""
    return _collapse(children, TRUE, And)


def disjunction(children: Sequence[Node]) -> Node:
    """n-ary OR, collapsing the empty and single-child cases."""
    return _collapse(children, FALSE, Or)


@dataclass(frozen=True)
class BoolFunc:
    """A Boolean function: its gate array and declared variable count.

    `BoolFunc(root, n)` lowers the expression node `root` and keeps only the
    gates.  Variables carry dense indices 0..var_count-1; not every index
    has to occur.  `gates` holds one gate per distinct node (by identity),
    children first, so the root is the last gate, `output`.  Equality,
    hashing and repr read the flat gates, so they do not recurse: two
    functions are equal when they are the same DAG.  `truth_table` keeps the
    function's table on it once built.
    """

    root: InitVar[Node]
    var_count: int
    gates: tuple[Gate, ...] = field(init=False)
    _table: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self, root: Node) -> None:
        if self.var_count < 0:
            raise InputError("variable count must be nonnegative")
        gates: list[Gate] = []
        index: dict[int, int] = {}  # id(node) -> its gate; -1 until its children have one
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, children_done = stack.pop()
            if not children_done and id(node) in index:
                continue
            if isinstance(node, Const):
                if node.value not in (0, 1):
                    raise InputError(f"constant must be 0 or 1, got {node.value!r}")
                gate = Gate(CONST1 if node.value else CONST0)
            elif isinstance(node, Var):
                if not 0 <= node.index < self.var_count:
                    raise InputError(
                        f"variable index {node.index} out of range for {self.var_count} variables"
                    )
                gate = Gate(VAR, node.index)
            elif not isinstance(node, (Not, And, Or)):
                raise InputError(f"not a function node: {node!r}")
            elif children_done:
                if isinstance(node, Not):
                    gate = Gate(NOT, inputs=(index[id(node.child)],))
                else:
                    inputs = tuple([index[id(c)] for c in node.children])
                    gate = Gate(AND if isinstance(node, And) else OR, inputs=inputs)
            else:
                children = (node.child,) if isinstance(node, Not) else node.children
                if len(children) < 2 and not isinstance(node, Not):
                    raise InputError("n-ary connectives need at least two children")
                index[id(node)] = -1
                stack.append((node, True))
                stack.extend([(c, False) for c in reversed(children)])
                continue
            index[id(node)] = len(gates)
            gates.append(gate)
        object.__setattr__(self, "gates", tuple(gates))

    @property
    def output(self) -> int:
        return len(self.gates) - 1

    def size(self) -> int:
        """Number of variable occurrences and connectives (constants free)."""
        connective = lambda sizes: 1 + sum(sizes)
        return _fold(self, lambda v: 1, 0, 0, (1).__add__, connective, connective)[self.output]


def _fold(
    func: BoolFunc | Circuit,
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


def evaluate(func: BoolFunc | Circuit, true_vars: Iterable[int]) -> int:
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


def _models(table: int, n: int) -> Iterator[int]:
    """The valuation index of each model of a truth table over n variables,
    by colex unranking: the rank-r valuation of size k sets the largest c
    with C(c, k) <= r, and below it the rank-(r - C(c, k)) one of size k - 1."""
    blocks = _blocks(n)
    raw = table.to_bytes(blocks[-1].stop, "little")
    columns = [[comb(c, k) for c in range(n)] for k in range(n + 1)]
    for size, block in enumerate(blocks):
        bits = bin(int.from_bytes(raw[block], "little"))[:1:-1]  # bits[r]: rank r
        rank = bits.find("1")
        while rank >= 0:
            index, rest = 0, rank
            for k in range(size, 0, -1):
                c = bisect_right(columns[k], rest) - 1
                index |= 1 << c
                rest -= columns[k][c]
            yield index
            rank = bits.find("1", rank + 1)


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


def _tables(func: BoolFunc | Circuit, disj: Callable[[Iterator[int]], int] = _union) -> list:
    """The truth-table walk over the full variable space, ORs combined by
    `disj`; only the output's table is kept."""
    n = func.var_count
    full = _valid(n)
    return _fold(func, _variable_masks(n).__getitem__, 0, full, full.__xor__, _intersect, disj)


def truth_table(func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """All 2^n values as a bitmask in the graded layout: the valuations of
    size k = 0..n fill one byte-aligned block each, in increasing order of
    their index (bit v set for each true variable v), and every padding
    bit is 0.  Built on the first call and kept on the function; every call
    checks the bound first, so a kept table never answers above it."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    if func._table is None:
        object.__setattr__(func, "_table", _tables(func)[func.output])
    return func._table


# ---------------------------------------------------------------------------
# Brute-force counting and Shapley oracles


def brute_count(func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """Model count by full enumeration."""
    return truth_table(func, bound=bound).bit_count()


def brute_kcounts(
    func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Model counts bucketed by valuation size, by full enumeration."""
    return tuple(_profile(truth_table(func, bound=bound), func.var_count))


def brute_shapley_permutations(func: BoolFunc | Circuit) -> tuple[Fraction, ...]:
    """Shapley vector by averaging marginal contributions over all n! orders,
    refused above PERMUTATION_BOUND variables."""
    n = func.var_count
    _check_bound(n, PERMUTATION_BOUND, "permutation enumeration")
    if n == 0:
        return ()
    models = frozenset(_models(truth_table(func), n))
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


def brute_shapley_subsets(
    func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND
) -> tuple[Fraction, ...]:
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
# Enumeration oracles for substituted functions.
#
# A function with n variables, each replaced by a group of m_i fresh
# disjuncts, has sum(m_i) variables; enumerating those directly is hopeless
# already at moderate n.  These oracles instead enumerate the 2^n base
# valuations and count group assignments combinatorially: a true group can
# be set 2^m - 1 ways, a false group exactly one way, so each base model
# weighs the product of its true variables' weights (of its false ones, for
# conjunctive groups).  With one weight for every variable that product
# depends only on the model's size, and the sum takes one popcount per
# size; otherwise the models are merged one variable at a time.
# Size-bucketed counts ride along as digits: the weight of a true group,
# evaluated at t = 2^B, is its size polynomial (1+t)^m - 1, and the counts
# are read off the total's base-2^B digits.  Every oracle reads the one
# truth table that `truth_table` keeps on the function; a factory builds it
# when the oracle is made.  The Shapley oracle answers a query that widens
# every other variable to one width ell from the per-size popcounts
# of the table and of its part that sets the target, dotted with a row
# of integer weights, cached per (n, ell), in a closed form of its own:
# count_from_shapley checks it against the reductions' separate table.  A
# query with mixed widths hands the function's own k-counts, with the
# widths as asked and with the target set to 0, to the rule of
# reductions.shapley_from_kcounts.  The oracles are still exhaustive
# enumeration over the base space and never solve any linear system.


def _check_arities(arities: Sequence[int], var_count: int) -> None:
    """Every substitution takes one nonnegative width per variable."""
    if len(arities) != var_count:
        raise InputError(f"need one arity per variable of {var_count}, got {len(arities)}")
    if any(m < 0 for m in arities):
        raise InputError("arities must be nonnegative")


def _weighted_count(table: int, n: int, weights: Sequence[int], falses: bool = False) -> int:
    """Sum over the models x of the truth table of the product of
    weights[i] over the variables i that x sets, or, with `falses`, over
    those that x leaves false."""
    masks = _variable_masks(n)
    for i, w in enumerate(weights):
        if not w:
            table &= masks[i] if falses else ~masks[i]
    w = max(weights, default=0)
    if all(x in (0, w) for x in weights):
        profile = _profile(table, n)  # a model of size k weighs w^k, or w^(n-k)
        total = 0
        for count in profile if falses else reversed(profile):
            total = total * w + count
        return total
    # sums[j] holds the weighted sum of the models whose index shifted right
    # by the merged variable count is j; the odd entry of each pair has the
    # next variable true and takes its weight (the even one, with `falses`)
    sums = dict.fromkeys(_models(table, n), 1)
    for w in weights:
        merged: dict[int, int] = {}
        for index, value in sums.items():
            key = index >> 1
            merged[key] = merged.get(key, 0) + (value * w if (index & 1) != falses else value)
        sums = merged
    return sums.get(0, 0)


def or_substituted_count(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> int:
    """Model count of the function after replacing variable i by a
    disjunction of arities[i] fresh variables."""
    _check_arities(arities, func.var_count)
    table = truth_table(func, bound=bound)
    return _weighted_count(table, func.var_count, [(1 << m) - 1 for m in arities])


def and_substituted_count(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> int:
    """Model count after replacing variable i by a conjunction of arities[i]
    fresh variables (false groups have 2^m - 1 assignments, true groups one)."""
    _check_arities(arities, func.var_count)
    table = truth_table(func, bound=bound)
    return _weighted_count(table, func.var_count, [(1 << m) - 1 for m in arities], True)


def or_substituted_kcounts(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Size-bucketed model counts of the function under a disjunctive
    group replacement, indexed 0..sum(arities), as base-2^B digits (see
    above).  No count exceeds 2^sum(arities), so B, the least multiple of 8
    above sum(arities), holds each without carrying into the next digit."""
    _check_arities(arities, func.var_count)
    table = truth_table(func, bound=bound)
    total = sum(arities)
    width = total // 8 + 1
    weights = [((1 << 8 * width) + 1) ** m - 1 for m in arities]
    raw = _weighted_count(table, func.var_count, weights).to_bytes(width * (total + 1), "little")
    return tuple(int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width))


def _check_target(arities: Sequence[int], target: int, var_count: int) -> None:
    """A Shapley query widens the others and keeps its target a single variable."""
    _check_arities(arities, var_count)
    if not 0 <= target < var_count:
        raise InputError(f"no variable {target}")
    if arities[target] != 1:
        raise InputError("the distinguished variable must keep arity 1")


def count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Count oracle for the reductions: arities -> model count of the
    disjunctive group replacement, by base-space enumeration.  Like the
    other oracles here, it builds the function's truth table when made, so
    it refuses above the bound before a reduction spends time on its first
    call; its queries read the kept table under the same bound."""
    truth_table(func, bound=bound)
    return lambda arities: or_substituted_count(func, arities, bound=bound)


def and_count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """As count_oracle, for conjunctive group replacements."""
    truth_table(func, bound=bound)
    return lambda arities: and_substituted_count(func, arities, bound=bound)


def kcount_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Size-bucketed count oracle for disjunctive group replacements."""
    truth_table(func, bound=bound)
    return lambda arities: or_substituted_kcounts(func, arities, bound=bound)


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


def shapley_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Shapley oracle: (arities, target) -> Shapley value of the fresh
    variable standing in for `target` under the group replacement.  A
    query that gives every other variable one width ell is the target's
    _cofactor_row, built once per target from the profile of T & x and
    T's own, taken when the oracle is made, dotted with the weights of
    _uniform_shapley_row, cached per (n, ell).  A query with mixed widths
    passes the answers of the function's kcount_oracle, made on the first
    such query, for the widths as asked and with the target set to 0, to
    reductions._shapley_value.  Made as count_oracle is.
    """
    n = func.var_count
    table = truth_table(func, bound=bound)
    masks = _variable_masks(n)
    whole = _profile(table, n)
    diffs: dict[int, list[int]] = {}
    kcounts = None  # the k-count oracle, made on the first mixed-width query

    def query(arities: Sequence[int], target: int) -> Fraction:
        nonlocal kcounts
        _check_target(arities, target, n)
        widths = {m for i, m in enumerate(arities) if i != target}
        if len(widths) > 1:
            if kcounts is None:
                kcounts = kcount_oracle(func, bound=bound)
            low = tuple(0 if i == target else m for i, m in enumerate(arities))
            return _shapley_value(kcounts(arities), kcounts(low))
        ell = widths.pop() if widths else 1  # one variable: T = 1 for any ell
        if target not in diffs:
            diffs[target] = _cofactor_row(whole, _profile(table & masks[target], n))
        weights, denom = _uniform_shapley_row(n, ell)
        return Fraction(sum(map(mul, weights, diffs[target])), denom)

    return query


# ---------------------------------------------------------------------------
# Positive DNF


def dnf_from_clauses(clauses: Iterable[frozenset[int]], var_count: int) -> BoolFunc:
    """Deterministic positive-DNF function for a clause set.

    An empty clause makes the whole function the constant 1; no clauses at
    all make it the constant 0.  Clauses and literals are sorted so the
    result is byte-stable.
    """
    clause_set = {frozenset(c) for c in clauses}
    if frozenset() in clause_set:
        return BoolFunc(TRUE, var_count)
    ordered = sorted(clause_set, key=lambda c: tuple(sorted(c)))
    terms = [conjunction([Var(v) for v in sorted(c)]) for c in ordered]
    return BoolFunc(disjunction(terms), var_count)
