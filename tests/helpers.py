"""Shared fixtures: the running worked example and small relational instances."""

from __future__ import annotations

from itertools import product

from shapcount import circuit as ct
from shapcount import lineage as lg
from shapcount.boolfunc import And, BoolFunc, Not, Or, Var, and_substitute, or_substitute


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
