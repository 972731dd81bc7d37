"""Shared fixtures: the running worked example, small relational instances,
and the embedding of the bipartite-DNF instance into any non-hierarchical
query."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from shapcount import circuit as ct
from shapcount import lineage as lg
from shapcount.boolfunc import And, BoolFunc, Not, Or, Var, and_substitute, or_substitute
from shapcount.errors import InputError, RefusalError
from shapcount.lineage import (
    Atom,
    Database,
    Query,
    QueryConst,
    QueryVar,
    Relation,
    Schema,
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
