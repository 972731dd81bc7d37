"""Boolean function trees with exact enumeration oracles.

Functions are finite expression trees (shared subtrees allowed) over a dense
variable index space 0..n-1, built from constants, variables, negation and
n-ary connectives.  Everything is immutable and exact: model counts are
Python ints, Shapley values are Fractions.

Constructing a BoolFunc validates its nodes and records each distinct node
once, children first; every operation here is a loop over that order.  So
any nesting depth is accepted, shared subtrees are walked once (an
operation costs time linear in the distinct subterms) and results keep the
input's sharing.

The brute-force routines in this module are the ground truth the rest of the
package is checked against.  They enumerate the full valuation space as big
integer bitmasks (one bit per valuation, bit index = set of true variables),
which keeps exhaustive enumeration fast up to the configured bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, RefusalError

ENUMERATION_BOUND = 24
PERMUTATION_BOUND = 10


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
    """A Boolean function: expression tree plus its declared variable count.

    Variables carry dense indices 0..var_count-1; not every index has to
    occur in the tree.  Optional labels, when given, must be unique and
    cover every index.
    """

    root: Node
    var_count: int
    labels: tuple[str, ...] | None = None
    # every distinct node (by identity) once, children before parents
    _order: tuple[Node, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.var_count < 0:
            raise InputError("variable count must be nonnegative")
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if isinstance(node, Const):
                if node.value not in (0, 1):
                    raise InputError(f"constant must be 0 or 1, got {node.value!r}")
            elif isinstance(node, Var):
                if not 0 <= node.index < self.var_count:
                    raise InputError(
                        f"variable index {node.index} out of range for {self.var_count} variables"
                    )
            elif isinstance(node, Not):
                stack.append((node.child, False))
            elif isinstance(node, (And, Or)):
                if len(node.children) < 2:
                    raise InputError("n-ary connectives need at least two children")
                stack.extend((c, False) for c in reversed(node.children))
            else:
                raise InputError(f"not a function node: {node!r}")
        object.__setattr__(self, "_order", tuple(order))
        if self.labels is not None:
            if len(self.labels) != self.var_count:
                raise InputError("label count must equal variable count")
            if len(set(self.labels)) != len(self.labels):
                raise InputError("variable labels must be unique")

    def size(self) -> int:
        """Number of variable occurrences and connectives (constants free)."""
        sizes: dict[int, int] = {}
        for node in self._order:
            if isinstance(node, Const):
                val = 0
            elif isinstance(node, Var):
                val = 1
            elif isinstance(node, Not):
                val = 1 + sizes[id(node.child)]
            else:
                val = 1 + sum(sizes[id(c)] for c in node.children)
            sizes[id(node)] = val
        return sizes[id(self.root)]


def _rebuild(func: BoolFunc, replace: Callable[[Var], Node]) -> Node:
    """The root of `func` with each variable node replaced by replace(node).

    Connectives are rebuilt as they are, constants kept, and every distinct
    node is rebuilt once, so shared subterms stay shared.
    """
    out: dict[int, Node] = {}
    for node in func._order:
        if isinstance(node, Const):
            new: Node = node
        elif isinstance(node, Var):
            new = replace(node)
        elif isinstance(node, Not):
            new = Not(out[id(node.child)])
        elif isinstance(node, And):
            new = And(tuple(out[id(c)] for c in node.children))
        else:
            new = Or(tuple(out[id(c)] for c in node.children))
        out[id(node)] = new
    return out[id(func.root)]


# ---------------------------------------------------------------------------
# Evaluation and exhaustive truth tables


def evaluate(func: BoolFunc, true_vars: Iterable[int]) -> int:
    """Value of the function under the valuation setting exactly `true_vars`."""
    trues = frozenset(true_vars)
    for v in trues:
        if not 0 <= v < func.var_count:
            raise InputError(f"valuation mentions variable {v}, function has {func.var_count}")
    values: dict[int, int] = {}
    for node in func._order:
        if isinstance(node, Const):
            val = node.value
        elif isinstance(node, Var):
            val = 1 if node.index in trues else 0
        elif isinstance(node, Not):
            val = 1 - values[id(node.child)]
        elif isinstance(node, And):
            val = int(all(values[id(c)] for c in node.children))
        else:
            val = int(any(values[id(c)] for c in node.children))
        values[id(node)] = val
    return values[id(func.root)]


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


def truth_table(func: BoolFunc, *, bound: int = ENUMERATION_BOUND) -> int:
    """All 2^n values as a bitmask; bit i is the value on valuation index i."""
    n = func.var_count
    _check_bound(n, bound, "exhaustive enumeration")
    full = (1 << (1 << n)) - 1
    masks = _variable_masks(n)
    tables: dict[int, int] = {}
    for node in func._order:
        if isinstance(node, Const):
            val = full if node.value else 0
        elif isinstance(node, Var):
            val = masks[node.index]
        elif isinstance(node, Not):
            val = full ^ tables[id(node.child)]
        elif isinstance(node, And):
            val = full
            for c in node.children:
                val &= tables[id(c)]
        else:
            val = 0
            for c in node.children:
                val |= tables[id(c)]
        tables[id(node)] = val
    return tables[id(func.root)]


# ---------------------------------------------------------------------------
# Brute-force counting and Shapley oracles


def brute_count(func: BoolFunc, *, bound: int = ENUMERATION_BOUND) -> int:
    """Model count by full enumeration."""
    return truth_table(func, bound=bound).bit_count()


def brute_kcounts(func: BoolFunc, *, bound: int = ENUMERATION_BOUND) -> tuple[int, ...]:
    """Model counts bucketed by valuation size, by full enumeration."""
    table = truth_table(func, bound=bound)
    weights = _weight_masks(func.var_count)
    return tuple((table & w).bit_count() for w in weights)


def brute_shapley_permutations(
    func: BoolFunc, *, bound: int = PERMUTATION_BOUND
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
    func: BoolFunc, *, bound: int = ENUMERATION_BOUND
) -> tuple[Fraction, ...]:
    """Shapley vector from size-bucketed counts of the two cofactors per
    variable; must agree exactly with the permutation average."""
    n = func.var_count
    _check_bound(n, bound, "subset enumeration")
    if n == 0:
        return ()
    denom = factorial(n)
    weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
    values = []
    for i in range(n):
        hi = brute_kcounts(substitute_const(func, i, 1), bound=bound)
        lo = brute_kcounts(substitute_const(func, i, 0), bound=bound)
        num = sum(w * (a - b) for w, a, b in zip(weights, hi, lo))
        values.append(Fraction(num, denom))
    return tuple(values)


# ---------------------------------------------------------------------------
# Substitutions


def substitute_const(func: BoolFunc, var: int, value: int) -> BoolFunc:
    """Cofactor: pin one variable to a constant and re-densify the rest.

    Surviving variables keep their relative order, so old index j maps to
    j - 1 for j > var and stays j otherwise.
    """
    if not 0 <= var < func.var_count:
        raise InputError(f"no variable {var} to substitute")
    if value not in (0, 1):
        raise InputError("cofactor value must be 0 or 1")
    pinned = Const(value)

    def replace(node: Var) -> Node:
        if node.index == var:
            return pinned
        return Var(node.index - 1) if node.index > var else node

    return BoolFunc(_rebuild(func, replace), func.var_count - 1)


def constant_fold(func: BoolFunc) -> BoolFunc:
    """Simplify away constants.  Never applied implicitly by any other
    operation here, so expression sizes stay predictable."""
    out: dict[int, Node] = {}
    for node in func._order:
        if isinstance(node, (Const, Var)):
            new: Node = node
        elif isinstance(node, Not):
            child = out[id(node.child)]
            new = Const(1 - child.value) if isinstance(child, Const) else Not(child)
        else:
            kids = [out[id(c)] for c in node.children]
            absorbing = FALSE if isinstance(node, And) else TRUE
            if any(isinstance(k, Const) and k.value == absorbing.value for k in kids):
                new = absorbing
            else:
                kids = [k for k in kids if not isinstance(k, Const)]
                new = conjunction(kids) if isinstance(node, And) else disjunction(kids)
        out[id(node)] = new
    return BoolFunc(out[id(func.root)], func.var_count)


@dataclass(frozen=True, eq=False)
class SubstitutionResult:
    """Outcome of a general substitution, with the index bookkeeping.

    The result's variable space lists the surviving originals first (in
    their old order), then one block of fresh variables per replaced
    original (in old-index order).
    """

    func: BoolFunc
    old_to_new: dict[int, int]
    fresh: dict[int, tuple[int, ...]]


def apply_substitution(func: BoolFunc, mapping: Mapping[int, BoolFunc]) -> SubstitutionResult:
    """Replace selected variables by functions over fresh variables.

    Each replacement is expressed over its own private index space; its
    variables become fresh variables of the result, so they can never
    collide with the survivors.
    """
    for key in mapping:
        if not 0 <= key < func.var_count:
            raise InputError(f"substitution targets unknown variable {key}")
    survivors = [i for i in range(func.var_count) if i not in mapping]
    old_to_new = {old: new for new, old in enumerate(survivors)}
    fresh: dict[int, tuple[int, ...]] = {}
    shifted: dict[int, Node] = {}
    offset = len(survivors)
    for old in sorted(mapping):
        m = mapping[old].var_count
        fresh[old] = tuple(range(offset, offset + m))
        shifted[old] = _rebuild(mapping[old], lambda node, delta=offset: Var(node.index + delta))
        offset += m

    def replace(node: Var) -> Node:
        if node.index in shifted:
            return shifted[node.index]
        return Var(old_to_new[node.index])

    return SubstitutionResult(BoolFunc(_rebuild(func, replace), offset), old_to_new, fresh)


@dataclass(frozen=True, eq=False)
class GroupedSubstitution:
    """Function after replacing every variable by a group of fresh ones.

    groups[i] lists the new indices that replaced old variable i; the new
    index space is the concatenation of the groups in old-index order.
    """

    func: BoolFunc
    groups: tuple[tuple[int, ...], ...]


def _grouped_substitute(func: BoolFunc, arities: Sequence[int], connective) -> GroupedSubstitution:
    if len(arities) != func.var_count:
        raise InputError(
            f"need one arity per variable: got {len(arities)} for {func.var_count}"
        )
    if any(m < 0 for m in arities):
        raise InputError("arities must be nonnegative")
    groups = []
    offset = 0
    for m in arities:
        groups.append(tuple(range(offset, offset + m)))
        offset += m
    # one replacement node per variable, shared by all of its occurrences
    replacements = [connective([Var(z) for z in group]) for group in groups]
    root = _rebuild(func, lambda node: replacements[node.index])
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
# be set 2^m - 1 ways, a false group exactly one way.  They are still
# exhaustive enumeration over the base space and never solve any linear
# system, so they stay independent of the reductions they feed.


def _model_indices(table: int):
    while table:
        low = table & -table
        yield low.bit_length() - 1
        table ^= low


def or_substituted_count(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> int:
    """Model count of the function after replacing variable i by a
    disjunction of arities[i] fresh variables."""
    if len(arities) != func.var_count:
        raise InputError("need one arity per variable")
    table = truth_table(func, bound=bound)
    ways = [(1 << m) - 1 for m in arities]
    total = 0
    for idx in _model_indices(table):
        weight = 1
        rest = idx
        while rest and weight:
            low = rest & -rest
            weight *= ways[low.bit_length() - 1]
            rest ^= low
        total += weight
    return total


def and_substituted_count(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> int:
    """Model count after replacing variable i by a conjunction of arities[i]
    fresh variables (false groups have 2^m - 1 assignments, true groups one)."""
    if len(arities) != func.var_count:
        raise InputError("need one arity per variable")
    table = truth_table(func, bound=bound)
    ways = [(1 << m) - 1 for m in arities]
    n = func.var_count
    total = 0
    for idx in _model_indices(table):
        weight = 1
        for i in range(n):
            if not (idx >> i) & 1:
                weight *= ways[i]
                if not weight:
                    break
        total += weight
    return total


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _group_poly(m: int) -> list[int]:
    # size generating polynomial of a true group: (1+t)^m - 1
    return [comb(m, k) if k else 0 for k in range(m + 1)]


def or_substituted_kcounts(
    func: BoolFunc, arities: Sequence[int], *, bound: int = ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Size-bucketed model counts of the function under a disjunctive
    group replacement, indexed 0..sum(arities)."""
    n = func.var_count
    if len(arities) != n:
        raise InputError("need one arity per variable")
    total_vars = sum(arities)

    uniform = len(set(arities)) <= 1
    if uniform and (n == 0 or arities[0] == 1):
        return brute_kcounts(func, bound=bound)
    zeros = [i for i, m in enumerate(arities) if m == 0]
    if len(zeros) == 1 and all(m == 1 for i, m in enumerate(arities) if i != zeros[0]):
        return brute_kcounts(substitute_const(func, zeros[0], 0), bound=bound)
    if uniform:
        # lift k-counts through the shared group polynomial
        base = brute_kcounts(func, bound=bound)
        poly = _group_poly(arities[0]) if n else [1]
        out = [0] * (total_vars + 1)
        lifted = [1]
        for k, cnt in enumerate(base):
            if cnt:
                for j, coef in enumerate(lifted):
                    out[j] += cnt * coef
            if k < n:
                lifted = _poly_mul(lifted, poly)
        return tuple(out)

    table = truth_table(func, bound=bound)
    polys = [_group_poly(m) for m in arities]

    # size polynomials of the table's nonzero blocks, merged one variable at
    # a time: block j covers the valuations whose index shifted right by the
    # merged variable count is j, and the odd half of each pair has the next
    # variable's group true
    blocks = {index: [1] for index in _model_indices(table)}
    for poly in polys:
        merged: dict[int, list[int]] = {}
        for index, block in blocks.items():
            if index & 1:
                block = _poly_mul(block, poly)
            acc = merged.setdefault(index >> 1, [])
            acc.extend([0] * (len(block) - len(acc)))
            for j, coef in enumerate(block):
                acc[j] += coef
        blocks = merged
    counts = blocks.get(0, [0])
    counts.extend([0] * (total_vars + 1 - len(counts)))
    return tuple(counts[: total_vars + 1])


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
    if len(arities) != n:
        raise InputError("need one arity per variable")
    if not 0 <= target < n:
        raise InputError(f"no variable {target}")
    if arities[target] != 1:
        raise InputError("the distinguished variable must keep arity 1")
    rest = [m for i, m in enumerate(arities) if i != target]
    total = sum(arities)
    hi = or_substituted_kcounts(substitute_const(func, target, 1), rest, bound=bound)
    lo = or_substituted_kcounts(substitute_const(func, target, 0), rest, bound=bound)
    num = sum(
        factorial(k) * factorial(total - 1 - k) * (a - b)
        for k, (a, b) in enumerate(zip(hi, lo))
    )
    return Fraction(num, factorial(total))


def count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Count oracle for the reductions: arities -> model count of the
    disjunctive group replacement, by base-space enumeration."""
    return lambda arities: or_substituted_count(func, arities, bound=bound)


def and_count_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """As count_oracle, for conjunctive group replacements."""
    return lambda arities: and_substituted_count(func, arities, bound=bound)


def kcount_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Size-bucketed count oracle for disjunctive group replacements."""
    return lambda arities: or_substituted_kcounts(func, arities, bound=bound)


def shapley_oracle(func: BoolFunc, *, bound: int = ENUMERATION_BOUND):
    """Shapley oracle: (arities, target) -> Shapley value of the fresh
    variable standing in for `target` under the group replacement."""
    return lambda arities, target: or_substituted_shapley(func, arities, target, bound=bound)


# ---------------------------------------------------------------------------
# Positive DNF utilities


def positive_dnf_clauses(func: BoolFunc) -> frozenset[frozenset[int]]:
    """Clause set of a positive-DNF-shaped function.

    The constant 1 is the DNF containing the empty clause; the constant 0
    is the empty DNF.  Anything with negation or nesting is rejected.
    """

    def literal(node: Node) -> int:
        if isinstance(node, Var):
            return node.index
        raise InputError("positive DNF admits only plain variables in clauses")

    def clause(node: Node) -> frozenset[int]:
        if isinstance(node, And):
            return frozenset(literal(c) for c in node.children)
        return frozenset((literal(node),))

    root = func.root
    if isinstance(root, Const):
        return frozenset((frozenset(),)) if root.value else frozenset()
    if isinstance(root, Or):
        return frozenset(clause(c) for c in root.children)
    return frozenset((clause(root),))


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


def dnf_distribute(func: BoolFunc, *, max_clauses: int | None = None) -> BoolFunc:
    """Flatten a disjunction of conjunctions-of-disjunctions-of-variables
    into positive DNF by distributing the inner disjunctions.

    This is the shape a positive DNF takes after replacing each variable by
    a disjunction of fresh variables; the output has at most the product of
    the inner disjunction widths many clauses per input clause.  The
    optional max_clauses guard refuses blowups past the given size.
    """
    root = func.root
    if isinstance(root, Const):
        return BoolFunc(root, func.var_count)

    def group(node: Node) -> list[int] | None:
        # one conjunct of a clause: a disjunction of variables, a single
        # variable, or a constant (None = constant 0, [] = constant 1)
        if isinstance(node, Var):
            return [node.index]
        if isinstance(node, Const):
            return None if node.value == 0 else []
        if isinstance(node, Or):
            out = []
            for c in node.children:
                if not isinstance(c, Var):
                    raise InputError("inner disjunctions may only hold variables")
                out.append(c.index)
            return out
        raise InputError("clause conjuncts must be variables or disjunctions of variables")

    clause_nodes = root.children if isinstance(root, Or) else (root,)
    clauses: set[frozenset[int]] = set()
    for cnode in clause_nodes:
        parts = cnode.children if isinstance(cnode, And) else (cnode,)
        groups = []
        dead = False
        for p in parts:
            g = group(p)
            if g is None:
                dead = True
                break
            if g == []:
                continue  # a true conjunct drops out
            groups.append(g)
        if dead:
            continue
        width = 1
        for g in groups:
            width *= len(g)
        if max_clauses is not None and width > max_clauses:
            raise RefusalError(
                f"distribution would produce {width} clauses, above the guard of {max_clauses}"
            )
        chosen = [frozenset()]
        for g in groups:
            chosen = [c | {v} for c in chosen for v in g]
        clauses.update(chosen)
        if max_clauses is not None and len(clauses) > max_clauses:
            raise RefusalError(
                f"distribution exceeded the clause guard of {max_clauses}"
            )
    return dnf_from_clauses(clauses, func.var_count)
