"""Shared fixtures: the running worked example, small relational instances,
the embedding of the bipartite-DNF instance into any non-hierarchical
query, and the independent references the tests check the package against:
substitution by grouped fresh variables built as a formula, a circuit
unfolded into function nodes, lineage by the active-domain recursion, and
the widened Shapley weights by their defining sums."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import comb
from operator import mul
from typing import Callable, Mapping, Sequence

from shapcount import circuit as ct
from shapcount import lineage as lg
from shapcount.boolfunc import (
    FALSE,
    TRUE,
    And,
    BoolFunc,
    Const,
    Node,
    Not,
    Or,
    Var,
    _check_arities,
    _fold,
    conjunction,
    disjunction,
)
from shapcount.errors import InputError, RefusalError
from shapcount.lineage import (
    Atom,
    Database,
    Query,
    QueryConst,
    QueryVar,
    Relation,
    Schema,
    _check_query,
    is_hierarchical,
    is_self_join_free,
)


def example1() -> BoolFunc:
    # x0 and (x1 or not x2): models {0}, {0,1}, {0,1,2}
    return BoolFunc(And((Var(0), Or((Var(1), Not(Var(2)))))), 3)


def example1_circuit() -> ct.Circuit:
    # deterministic/decomposable encoding: x0 and (x1 or (not x1 and not x2))
    b = ct.CircuitBuilder(3)
    x0 = b.add(ct.VAR, var=0)
    x1 = b.add(ct.VAR, var=1)
    x2 = b.add(ct.VAR, var=2)
    n1 = b.add(ct.NOT, inputs=(x1,))
    n2 = b.add(ct.NOT, inputs=(x2,))
    both = b.add(ct.AND, inputs=(n1, n2))
    either = b.add(ct.OR, inputs=(x1, both))
    return b.build(b.add(ct.AND, inputs=(x0, either)))


# ---------------------------------------------------------------------------
# Formula-level substitution, the reference for the oracles that count it


def _rebuild(func: BoolFunc | ct.Circuit, replace: Callable[[int], Node]) -> Node:
    """The output of `func` as nodes, each variable gate replaced by
    replace(its variable index).

    Connectives are rebuilt as they are, constants kept, and every gate is
    rebuilt once, so shared subterms stay shared.
    """
    conj = lambda nodes: And(tuple(nodes))
    disj = lambda nodes: Or(tuple(nodes))
    return _fold(func, replace, FALSE, TRUE, Not, conj, disj)[func.output]


@dataclass(frozen=True, eq=False)
class GroupedSubstitution:
    """Function after replacing every variable by a group of fresh ones.

    groups[i] lists the new indices that replaced old variable i; the new
    index space is the concatenation of the groups in old-index order.
    """

    func: BoolFunc
    groups: tuple[tuple[int, ...], ...]


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


def unfold(circuit: ct.Circuit) -> BoolFunc:
    """The circuit as function nodes, one per gate, so shared gates stay
    shared and the result is as small as the circuit."""
    return BoolFunc(_rebuild(circuit, Var), circuit.var_count)


# ---------------------------------------------------------------------------
# Widened Shapley weights by their defining sums, the references for the
# closed forms of boolfunc._uniform_shapley_row and reductions._weight_table


def binomial_moment_row(n: int, ell: int) -> tuple[list[int], int]:
    """S_j T! for j = 0..n-1, and T! for T = 1 + (n-1) ell: the sum over k of
    k! (T-1-k)! [t^k] ((1+t)^ell - 1)^j, the coefficient expanded by the
    binomial theorem as sum_m (-1)^(j-m) C(j, m) C(m ell, k)."""
    total = 1 + (n - 1) * ell
    fact = list(accumulate(range(1, total + 1), mul, initial=1))
    coeff = [fact[k] * fact[total - 1 - k] for k in range(total)]
    # moments[m]: the coefficients summed over the subsets of the m * ell
    # clones of m true groups, by size
    moments = [
        sum(map(mul, coeff, map(comb, repeat(m * ell), range(m * ell + 1)))) for m in range(n)
    ]
    weights = [
        sum((-1) ** (j - m) * comb(j, m) * moments[m] for m in range(j + 1)) for j in range(n)
    ]
    return weights, fact[total]


def alternating_weights(n: int, ell: int) -> tuple[Fraction, ...]:
    """w_k = integral_0^1 (1-u^ell)^k u^(ell(n-1-k)) du for k = 0..n-1, with
    (1-u^ell)^k expanded by the binomial theorem and integrated termwise."""
    weights = []
    for k in range(n):
        total = Fraction(0)
        for j in range(k + 1):
            total += Fraction((-1) ** j * comb(k, j), ell * (n - 1 - k + j) + 1)
        weights.append(total)
    return tuple(weights)


# ---------------------------------------------------------------------------
# Lineage by its recursive definition, the reference for build_lineage


def active_domain(db: Database) -> tuple[str, ...]:
    values: set[str] = set()
    for rows in db.rows.values():
        for row in rows:
            values.update(row)
    return tuple(sorted(values))


def lineage_by_active_domain(query: Query, db: Database) -> BoolFunc:
    """Reference construction that follows the recursive definition of
    lineage literally: existential variables expand into disjunctions over
    the whole active domain.  Exponential; for cross-checks only."""
    _check_query(query, db.schema)
    adom = active_domain(db)
    variables = query.variables()
    row_index: dict[str, dict[tuple[str, ...], int]] = {
        rel.name: {row: i for i, row in enumerate(db.rows[rel.name])}
        for rel in db.schema.relations
    }

    def ground_atom(atom: Atom, binding: dict[str, str]) -> Node:
        values = tuple(
            t.value if isinstance(t, QueryConst) else binding[t.name] for t in atom.args
        )
        rel = db.schema.get(atom.relation)
        idx = row_index[atom.relation].get(values)
        if idx is None:
            return Const(0)
        if rel.endogenous:
            return Var(db.var_of(atom.relation, idx))
        return Const(1)

    def rec(binding: dict[str, str], remaining: tuple[str, ...]) -> Node:
        if not remaining:
            return conjunction([ground_atom(a, binding) for a in query.atoms])
        v, rest = remaining[0], remaining[1:]
        return disjunction([rec({**binding, v: a}, rest) for a in adom])

    return BoolFunc(rec({}, variables), db.var_count)


def cofactors(func: BoolFunc, var: int) -> tuple[BoolFunc, BoolFunc]:
    """F[x_var:=1] and F[x_var:=0] over the other variables in their order:
    the width-0 conjunctive and disjunctive substitutions at x_var."""
    widths = [0 if v == var else 1 for v in range(func.var_count)]
    return and_substitute(func, widths).func, or_substitute(func, widths).func


def substituted_clauses(clauses, groups) -> frozenset[frozenset[int]]:
    """Clause set of a positive DNF after replacing variable v by the
    disjunction of groups[v]: each clause distributes into one clause per
    choice of one fresh variable from each of its variables' groups."""
    return frozenset(
        frozenset(choice) for clause in clauses for choice in product(*(groups[v] for v in clause))
    )


# (not x0 and x1) or (x0 and x2); 8 internal gates, 4 models
EXAMPLE_NNF = """nnf 7 6 3
L -1
L 2
A 2 0 1
L 1
L 3
A 2 3 4
O 1 2 2 5
"""


def chain_instance() -> tuple[lg.Query, lg.Database]:
    """Unary-endo, binary-exo, unary-endo instance whose lineage is
    (v0 and v2) or (v1 and v3)."""
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, False), lg.Relation("T", 1, True))
    )
    db = lg.Database(
        schema,
        {
            "R": [("a1",), ("a2",)],
            "S": [("a1", "b1"), ("a2", "b2")],
            "T": [("b1",), ("b2",)],
        },
    )
    return lg.parse_query("Q :- R(x), S(x,y), T(y)"), db


def join_instance() -> tuple[lg.Query, lg.Database]:
    """Two unary endogenous relations joined on x; same lineage as
    chain_instance but from a hierarchical query."""
    schema = lg.Schema((lg.Relation("R1", 1, True), lg.Relation("R2", 1, True)))
    db = lg.Database(schema, {"R1": [("a1",), ("a2",)], "R2": [("a1",), ("a2",)]})
    return lg.parse_query("Q :- R1(x), R2(x)"), db


@dataclass(frozen=True, eq=False)
class EmbeddedInstance:
    database: Database
    var_map: dict[int, int]  # variable in the source database -> variable here


def embed_nonhierarchical(query: Query, db: Database) -> EmbeddedInstance:
    """Embed a two-endogenous-relation chain instance into any
    non-hierarchical self-join-free query, preserving the lineage.

    The database must have the chain shape: unary endogenous, binary
    exogenous, unary endogenous.  Two atoms witnessing non-hierarchy (one
    with x only, one with y only) become endogenous and carry the unary
    columns; every other relation is exogenous, holds the constant 1 in the
    positions of other variables, and copies the x/y columns so it filters
    nothing.
    """
    if not is_self_join_free(query):
        raise InputError("the embedding needs a self-join-free query")
    hierarchical, witness = is_hierarchical(query)
    if hierarchical:
        raise RefusalError("the query is hierarchical; there is nothing to embed")
    x, y = witness
    rels = db.schema.relations
    if (
        len(rels) != 3
        or rels[0].arity != 1
        or not rels[0].endogenous
        or rels[1].arity != 2
        or rels[1].endogenous
        or rels[2].arity != 1
        or not rels[2].endogenous
    ):
        raise InputError("the source database must be unary-endo, binary-exo, unary-endo")
    r_rows = db.rows[rels[0].name]
    s_rows = db.rows[rels[1].name]
    t_rows = db.rows[rels[2].name]

    def vars_of(atom: Atom) -> set[str]:
        return {t.name for t in atom.args if isinstance(t, QueryVar)}

    r_atom = next(a for a in query.atoms if x in vars_of(a) and y not in vars_of(a))
    t_atom = next(a for a in query.atoms if y in vars_of(a) and x not in vars_of(a))

    def fill(atom: Atom, assignment: Mapping[str, str]) -> tuple[str, ...]:
        out = []
        for term in atom.args:
            if isinstance(term, QueryConst):
                out.append(term.value)
            else:
                out.append(assignment.get(term.name, "1"))
        return tuple(out)

    relations = []
    rows: dict[str, list[tuple[str, ...]]] = {}
    for atom in query.atoms:
        endogenous = atom is r_atom or atom is t_atom
        relations.append(Relation(atom.relation, len(atom.args), endogenous))
        has_x, has_y = x in vars_of(atom), y in vars_of(atom)
        if atom is r_atom:
            rows[atom.relation] = [fill(atom, {x: a}) for (a,) in r_rows]
        elif atom is t_atom:
            rows[atom.relation] = [fill(atom, {y: b}) for (b,) in t_rows]
        elif has_x and has_y:
            rows[atom.relation] = [fill(atom, {x: a, y: b}) for a, b in s_rows]
        elif has_x:
            rows[atom.relation] = [fill(atom, {x: a}) for (a,) in r_rows]
        elif has_y:
            rows[atom.relation] = [fill(atom, {y: b}) for (b,) in t_rows]
        else:
            rows[atom.relation] = [fill(atom, {})]
    embedded = Database(Schema(tuple(relations)), rows)
    var_map: dict[int, int] = {}
    for row_index in range(len(r_rows)):
        var_map[db.var_of(rels[0].name, row_index)] = embedded.var_of(
            r_atom.relation, row_index
        )
    for row_index in range(len(t_rows)):
        var_map[db.var_of(rels[2].name, row_index)] = embedded.var_of(
            t_atom.relation, row_index
        )
    return EmbeddedInstance(embedded, var_map)
