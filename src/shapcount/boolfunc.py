"""Boolean functions as gate DAGs, with exact enumeration oracles.

Functions are built from expression nodes (shared subterms allowed) over a
dense variable index space 0..n-1.  A BoolFunc validates its nodes and
lowers them to the gate array a `circuit.Circuit` holds, one `Gate` per
distinct node, children first; every walker here reads only that array, so
it takes circuits too, accepts any nesting depth and walks shared subterms
once.  Everything is exact: counts are ints, Shapley values Fractions.

The brute-force routines in this module are the ground truth the rest of the
package is checked against.  They enumerate the full valuation space as big
integer bitmasks (one bit per valuation, bit index = set of true variables),
which keeps exhaustive enumeration fast up to the configured bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import InputError, RefusalError

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


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


Node = Const | Var | Not | And | Or

TRUE = Const(1)
FALSE = Const(0)


def conjunction(children: Sequence[Node]) -> Node:
    """n-ary AND, collapsing the empty and single-child cases."""
    items = tuple(children)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disjunction(children: Sequence[Node]) -> Node:
    """n-ary OR, collapsing the empty and single-child cases."""
    items = tuple(children)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


@dataclass(frozen=True)
class BoolFunc:
    """A Boolean function: expression nodes lowered to a gate array, plus
    its declared variable count.

    Variables carry dense indices 0..var_count-1; not every index has to
    occur.  `gates` holds one gate per distinct node (by identity), children
    first, so the root is the last gate, `output`.  Equality, hashing and
    repr read the flat gates, never the nodes, so they do not recurse: two
    functions are equal when they are the same DAG.
    """

    root: Node = field(compare=False, repr=False)
    var_count: int
    gates: tuple[Gate, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.var_count < 0:
            raise InputError("variable count must be nonnegative")
        gates: list[Gate] = []
        index: dict[int, int] = {}  # id(node) -> its gate; -1 until its children have one
        stack: list[tuple[Node, bool]] = [(self.root, False)]
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
        sizes: list[int] = []
        for gate in self.gates:
            free = gate.kind in (CONST0, CONST1)
            sizes.append(0 if free else 1 + sum(sizes[r] for r in gate.inputs))
        return sizes[-1]


def _rebuild(func: BoolFunc | Circuit, replace: Callable[[int], Node]) -> Node:
    """The output of `func` as nodes, each variable gate replaced by
    replace(its variable index).

    Connectives are rebuilt as they are, constants kept, and every gate is
    rebuilt once, so shared subterms stay shared.
    """
    nodes: list[Node] = []
    for gate in func.gates:
        if gate.kind == VAR:
            nodes.append(replace(gate.var))
        elif gate.kind == NOT:
            nodes.append(Not(nodes[gate.inputs[0]]))
        elif gate.kind == AND:
            nodes.append(And(tuple(nodes[r] for r in gate.inputs)))
        elif gate.kind == OR:
            nodes.append(Or(tuple(nodes[r] for r in gate.inputs)))
        else:
            nodes.append(TRUE if gate.kind == CONST1 else FALSE)
    return nodes[func.output]


# ---------------------------------------------------------------------------
# Evaluation and exhaustive truth tables, for functions and circuits alike


def evaluate(func: BoolFunc | Circuit, true_vars: Iterable[int]) -> int:
    """Value of the function under the valuation setting exactly `true_vars`."""
    trues = frozenset(true_vars)
    for v in trues:
        if not 0 <= v < func.var_count:
            raise InputError(f"valuation mentions variable {v}, function has {func.var_count}")
    vals: list[int] = []
    for gate in func.gates:
        if gate.kind == VAR:
            vals.append(1 if gate.var in trues else 0)
        elif gate.kind == NOT:
            vals.append(1 - vals[gate.inputs[0]])
        elif gate.kind == AND:
            vals.append(int(all(vals[r] for r in gate.inputs)))
        elif gate.kind == OR:
            vals.append(int(any(vals[r] for r in gate.inputs)))
        else:
            vals.append(1 if gate.kind == CONST1 else 0)
    return vals[func.output]


_MASK_CACHE: dict[int, tuple[int, ...]] = {}
_WEIGHT_CACHE: dict[int, tuple[int, ...]] = {}


def _variable_masks(n: int) -> tuple[int, ...]:
    """masks[j] has bit i set iff variable j is true in valuation index i."""
    cached = _MASK_CACHE.get(n)
    if cached is not None:
        return cached
    # grow the valuation space one variable at a time: doubling keeps every
    # step a single wide shift-or instead of a quadratic bignum division
    masks: list[int] = []
    for m in range(n):
        shift = 1 << m
        masks = [mask | (mask << shift) for mask in masks]
        masks.append(((1 << shift) - 1) << shift)
    result = tuple(masks)
    _MASK_CACHE[n] = result
    return result


def _weight_masks(n: int) -> tuple[int, ...]:
    """masks[k] has bit i set iff valuation index i sets exactly k variables."""
    cached = _WEIGHT_CACHE.get(n)
    if cached is not None:
        return cached
    rows = [1]  # n = 0: the empty valuation has weight 0
    for m in range(1, n + 1):
        shift = 1 << (m - 1)
        prev = rows
        rows = [prev[0]]
        for k in range(1, m):
            rows.append(prev[k] | (prev[k - 1] << shift))
        rows.append(prev[m - 1] << shift)
    result = tuple(rows)
    _WEIGHT_CACHE[n] = result
    return result


def _check_bound(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise RefusalError(f"{what} over {n} variables exceeds the bound of {bound}")


def gate_tables(func: BoolFunc | Circuit) -> list[int]:
    """Truth table bitmask of every gate over the full variable space."""
    n = func.var_count
    full = (1 << (1 << n)) - 1
    masks = _variable_masks(n)
    tables: list[int] = []
    for gate in func.gates:
        if gate.kind == VAR:
            tables.append(masks[gate.var])
        elif gate.kind == NOT:
            tables.append(full ^ tables[gate.inputs[0]])
        elif gate.kind == AND:
            acc = full
            for r in gate.inputs:
                acc &= tables[r]
            tables.append(acc)
        elif gate.kind == OR:
            acc = 0
            for r in gate.inputs:
                acc |= tables[r]
            tables.append(acc)
        else:
            tables.append(full if gate.kind == CONST1 else 0)
    return tables


def truth_table(func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """All 2^n values as a bitmask; bit i is the value on valuation index i."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    return gate_tables(func)[func.output]


# ---------------------------------------------------------------------------
# Brute-force counting and Shapley oracles


def brute_count(func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND) -> int:
    """Model count by full enumeration."""
    return truth_table(func, bound=bound).bit_count()


def brute_kcounts(
    func: BoolFunc | Circuit, *, bound: int = ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Model counts bucketed by valuation size, by full enumeration."""
    table = truth_table(func, bound=bound)
    weights = _weight_masks(func.var_count)
    return tuple((table & w).bit_count() for w in weights)


def brute_shapley_permutations(
    func: BoolFunc | Circuit, *, bound: int = PERMUTATION_BOUND
) -> tuple[Fraction, ...]:
    """Shapley vector by averaging marginal contributions over all n! orders."""
    n = func.var_count
    _check_bound(n, bound, "permutation enumeration")
    if n == 0:
        return ()
    table = truth_table(func, bound=max(bound, n))
    totals = [0] * n
    for perm in permutations(range(n)):
        index = 0
        prev = table & 1
        for v in perm:
            index |= 1 << v
            cur = (table >> index) & 1
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
    f(S) true |T & ~x_i & W_k|, for W_k the valuations of size k.  Must
    agree exactly with the permutation average."""
    n = func.var_count
    _check_bound(n, bound, "subset enumeration")
    if n == 0:
        return ()
    table = truth_table(func, bound=bound)
    sizes = _weight_masks(n)
    denom = factorial(n)
    weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
    values = []
    for mask in _variable_masks(n):
        hi = table & mask
        lo = table ^ hi
        num = sum(
            w * ((hi & sizes[k + 1]).bit_count() - (lo & sizes[k]).bit_count())
            for k, w in enumerate(weights)
        )
        values.append(Fraction(num, denom))
    return tuple(values)


# ---------------------------------------------------------------------------
# Substitutions


@dataclass(frozen=True, eq=False)
class GroupedSubstitution:
    """Function after replacing every variable by a group of fresh ones.

    groups[i] lists the new indices that replaced old variable i; the new
    index space is the concatenation of the groups in old-index order.
    """

    func: BoolFunc
    groups: tuple[tuple[int, ...], ...]


def _check_arities(arities: Sequence[int], var_count: int) -> None:
    """Every substitution takes one nonnegative width per variable."""
    if len(arities) != var_count:
        raise InputError(f"need one arity per variable of {var_count}, got {len(arities)}")
    if any(m < 0 for m in arities):
        raise InputError("arities must be nonnegative")


def _grouped_substitute(func: BoolFunc, arities: Sequence[int], connective) -> GroupedSubstitution:
    _check_arities(arities, func.var_count)
    groups = []
    offset = 0
    for m in arities:
        groups.append(tuple(range(offset, offset + m)))
        offset += m
    # one replacement node per variable, shared by all of its occurrences
    replacements = [connective([Var(z) for z in group]) for group in groups]
    root = _rebuild(func, lambda index: replacements[index])
    return GroupedSubstitution(BoolFunc(root, offset), tuple(groups))


def or_substitute(func: BoolFunc, arities: Sequence[int]) -> GroupedSubstitution:
    """Replace variable i by a disjunction of arities[i] fresh variables.

    Arity 0 replaces the variable by the constant 0.  Arity 1 everywhere
    yields an isomorphic copy.
    """
    return _grouped_substitute(func, arities, disjunction)


def and_substitute(func: BoolFunc, arities: Sequence[int]) -> GroupedSubstitution:
    """Replace variable i by a conjunction of arities[i] fresh variables
    (arity 0 gives the constant 1)."""
    return _grouped_substitute(func, arities, conjunction)


# ---------------------------------------------------------------------------
# Enumeration oracles for substituted functions.
#
# A function with n variables, each replaced by a group of m_i fresh
# disjuncts, has sum(m_i) variables; enumerating those directly is hopeless
# already at moderate n.  These oracles instead enumerate the 2^n base
# valuations and count group assignments combinatorially: a true group can
# be set 2^m - 1 ways, a false group exactly one way, so each base model
# weighs the product of its true variables' weights.  With one weight for
# every variable that product depends only on the model's size, and the
# sum takes one popcount per size; otherwise the models are merged one
# variable at a time.  Size-bucketed counts ride along as digits: the
# weight of a true group, evaluated at t = 2^B, is its size polynomial
# (1+t)^m - 1, and the counts are read off the total's base-2^B digits.
# The oracles are still exhaustive enumeration over the base space and
# never solve any linear system, so they stay independent of the
# reductions they feed.


def _weighted_count(table: int, n: int, weights: Sequence[int]) -> int:
    """Sum over the models x of the truth table of the product of
    weights[i] over the variables i that x sets."""
    masks = _variable_masks(n)
    for i, w in enumerate(weights):
        if not w:
            table &= ~masks[i]
    w = max(weights, default=0)
    if all(x in (0, w) for x in weights):
        total = 0
        for mask in reversed(_weight_masks(n)):
            total = total * w + (table & mask).bit_count()
        return total
    # block j holds the weighted sum of the models whose index shifted right
    # by the merged variable count is j; the odd block of each pair has the
    # next variable true
    blocks: dict[int, int] = {}
    while table:
        low = table & -table
        blocks[low.bit_length() - 1] = 1
        table ^= low
    for w in weights:
        merged: dict[int, int] = {}
        for index, value in blocks.items():
            key = index >> 1
            merged[key] = merged.get(key, 0) + (value * w if index & 1 else value)
        blocks = merged
    return blocks.get(0, 0)


def _size_digits(arities: Sequence[int]):
    """Group weights (1+t)^m - 1 at t = 2^B, and the reader of the size-
    bucketed counts 0..sum(arities) off a weighted count's base-2^B digits.
    No count exceeds 2^sum(arities), so B, the least multiple of 8 above
    sum(arities), holds each without carrying into the next digit."""
    total = sum(arities)
    width = total // 8 + 1

    def unpack(packed: int) -> tuple[int, ...]:
        raw = packed.to_bytes(width * (total + 1), "little")
        return tuple(
            int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)
        )

    return [((1 << 8 * width) + 1) ** m - 1 for m in arities], unpack


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
    # negate every input: swap the halves each variable splits the table into
    for i, mask in enumerate(_variable_masks(func.var_count)):
        table = ((table & mask) >> (1 << i)) | ((table & ~mask) << (1 << i))
    return _weighted_count(table, func.var_count, [(1 << m) - 1 for m in arities])


def or_substituted_kcounts(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Size-bucketed model counts of the function under a disjunctive
    group replacement, indexed 0..sum(arities)."""
    _check_arities(arities, func.var_count)
    table = truth_table(func, bound=bound)
    weights, unpack = _size_digits(arities)
    return unpack(_weighted_count(table, func.var_count, weights))


def or_substituted_shapley(
    func: BoolFunc,
    arities: Sequence[int],
    target: int,
    *,
    bound: int = ENUMERATION_BOUND,
) -> Fraction:
    """Shapley value of the single fresh variable standing in for `target`
    after the disjunctive group replacement (arities[target] must be 1)."""
    n = func.var_count
    _check_arities(arities, n)
    if not 0 <= target < n:
        raise InputError(f"no variable {target}")
    if arities[target] != 1:
        raise InputError("the distinguished variable must keep arity 1")
    table = truth_table(func, bound=bound)
    mask = _variable_masks(n)[target]
    # the cofactors' counts: the target weighs as the largest other group (or
    # 1), which keeps uniform weights uniform, and is divided out again
    weights, unpack = _size_digits([m for i, m in enumerate(arities) if i != target])
    weights.insert(target, max(weights, default=0) or 1)
    hi = unpack(_weighted_count(table & mask, n, weights) // weights[target])
    lo = unpack(_weighted_count(table & ~mask, n, weights))
    total = sum(arities)
    fact = [1]
    for j in range(1, total + 1):
        fact.append(fact[-1] * j)
    num = sum(
        fact[k] * fact[total - 1 - k] * (a - b) for k, (a, b) in enumerate(zip(hi, lo))
    )
    return Fraction(num, fact[total])


def count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Count oracle for the reductions: arities -> model count of the
    disjunctive group replacement, by base-space enumeration.  Like the
    other oracles here, it refuses above the bound when made, before a
    reduction spends time on its first call."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    return lambda arities: or_substituted_count(func, arities, bound=bound)


def and_count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """As count_oracle, for conjunctive group replacements."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    return lambda arities: and_substituted_count(func, arities, bound=bound)


def kcount_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Size-bucketed count oracle for disjunctive group replacements."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    return lambda arities: or_substituted_kcounts(func, arities, bound=bound)


def shapley_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Shapley oracle: (arities, target) -> Shapley value of the fresh
    variable standing in for `target` under the group replacement."""
    _check_bound(func.var_count, bound, "exhaustive enumeration")
    return lambda arities, target: or_substituted_shapley(func, arities, target, bound=bound)


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
