"""Seeded random instance generators, shared by the test corpora and the
CLI fuzzer.  Everything is driven by a caller-supplied random.Random so runs
reproduce exactly.  Functions and circuits are built gate by gate with
`circuit.CircuitBuilder`: `random_boolfunc` adds one gate per draw, and
`random_decision_circuit` interns and folds."""

from __future__ import annotations

import random
from typing import Sequence

from .boolfunc import AND, CONST0, CONST1, NOT, OR, VAR, Circuit
from .circuit import CircuitBuilder
from .lineage import (
    Atom, Database, Query, QueryConst, QueryVar, Relation, Schema, build_lineage, is_hierarchical
)

SHAPES = ("tree", "dnf", "cnf")


def random_boolfunc(rng: random.Random, max_vars: int = 8, shape: str | None = None) -> Circuit:
    """A random function in one of three shapes: a free-form tree, a DNF of
    signed literals, or a CNF of signed literals.  Gates are added as they
    are drawn, each connective after its arguments."""
    n = rng.randint(1, max_vars)
    shape = shape or rng.choice(SHAPES)
    builder = CircuitBuilder(n)
    add = builder.add

    def signed(v: int, negated: bool) -> int:
        literal = add(VAR, v)
        return add(NOT, inputs=(literal,)) if negated else literal

    if shape in ("dnf", "cnf"):
        inner, outer = (AND, OR) if shape == "dnf" else (OR, AND)
        clauses = []
        for _ in range(rng.randint(1, max(2, n))):
            width = rng.randint(1, min(3, n))
            lits = [signed(v, rng.random() < 0.4) for v in rng.sample(range(n), width)]
            clauses.append(add(inner, inputs=lits) if width > 1 else lits[0])
        return builder.build(add(outer, inputs=clauses) if len(clauses) > 1 else clauses[0])

    def tree(depth: int) -> int:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.08:
                return add(CONST1 if rng.randint(0, 1) else CONST0)
            return signed(rng.randrange(n), rng.random() < 0.4)
        kind = rng.random()
        if kind < 0.15:
            return add(NOT, inputs=(tree(depth - 1),))
        children = [tree(depth - 1) for _ in range(rng.randint(2, 3))]
        return add(AND if kind < 0.6 else OR, inputs=children)

    return builder.build(tree(rng.randint(1, 3)))


def random_decision_circuit(
    rng: random.Random, max_vars: int = 10, max_gates: int = 30
) -> Circuit:
    """A random deterministic and decomposable circuit with negation only at
    the leaves, grown from exclusive variable decisions and variable-disjoint
    conjunctions."""
    n = rng.randint(1, max_vars)
    builder = CircuitBuilder(n)

    def leaf(pool: Sequence[int]) -> int:
        roll = rng.random()
        if not pool or roll < 0.1:
            return builder.const(rng.randint(0, 1))
        v = builder.var(rng.choice(pool))
        return builder.negate(v) if roll < 0.4 else v

    def grow(pool: tuple[int, ...], budget: int) -> int:
        if not pool or budget <= 2 or rng.random() < 0.2:
            return leaf(pool)
        if len(pool) >= 2 and rng.random() < 0.3:
            cut = rng.randint(1, len(pool) - 1)
            shuffled = list(pool)
            rng.shuffle(shuffled)
            left = grow(tuple(shuffled[:cut]), budget // 2)
            right = grow(tuple(shuffled[cut:]), budget // 2)
            return builder.and_([left, right])
        v = rng.choice(pool)
        rest = tuple(p for p in pool if p != v)
        hi = grow(rest, budget // 2)
        lo = grow(rest, budget // 2)
        var_gate = builder.var(v)
        return builder.or_(
            [builder.and_([var_gate, hi]), builder.and_([builder.negate(var_gate), lo])]
        )

    out = grow(tuple(range(n)), max_gates)
    return builder.build(out, deterministic_by_construction=True)


_DOMAIN = ("a", "b", "c")
_VAR_POOL = ("x", "y", "u", "w")


def random_query(
    rng: random.Random,
    *,
    max_atoms: int = 3,
    max_arity: int = 3,
    self_join_free: bool = True,
) -> tuple[Query, Schema]:
    """A random query with its schema; relation kinds are chosen at random."""
    atom_count = rng.randint(1, max_atoms)
    relations = []
    atoms = []
    for idx in range(atom_count):
        name = f"R{idx + 1}" if self_join_free else f"R{rng.randint(1, max(1, atom_count - 1))}"
        arity = min(max_arity, rng.choice((1, 1, 2, 2, 3)))
        args: list[QueryVar | QueryConst] = []
        for _ in range(arity):
            if rng.random() < 0.1:
                args.append(QueryConst(rng.choice(_DOMAIN)))
            else:
                args.append(QueryVar(rng.choice(_VAR_POOL)))
        atoms.append(Atom(name, tuple(args)))
        if all(r.name != name for r in relations):
            relations.append(Relation(name, arity, rng.random() < 0.7))
    # self-joins must agree on arity: each atom takes its relation's first
    # arity, cut short or padded with x
    arities = {r.name: r.arity for r in relations}
    atoms = [
        Atom(a.relation, (a.args + (QueryVar("x"),) * arities[a.relation])[: arities[a.relation]])
        for a in atoms
    ]
    return Query(tuple(atoms)), Schema(tuple(relations))


def random_database(
    rng: random.Random,
    schema: Schema,
    *,
    max_rows: int = 4,
    max_endo_vars: int = 12,
) -> Database:
    """Random rows over a tiny skewed domain (so joins actually meet),
    keeping the total number of endogenous tuples within max_endo_vars."""
    rows: dict[str, list[tuple[str, ...]]] = {}
    endo_left = max_endo_vars
    for rel in schema.relations:
        space_size = len(_DOMAIN) ** rel.arity
        count = rng.randint(1, min(max_rows, space_size))
        if rel.endogenous:
            count = min(count, endo_left)
        space = list(range(space_size))
        chosen: list[tuple[str, ...]] = []
        for point in rng.sample(space, count):
            row = []
            for _ in range(rel.arity):
                point, digit = divmod(point, len(_DOMAIN))
                row.append(_DOMAIN[digit])
            chosen.append(tuple(row))
        if rel.endogenous:
            endo_left -= len(chosen)
        rows[rel.name] = chosen
    return Database(schema, rows)


def random_sjf_instance(
    rng: random.Random,
    *,
    max_atoms: int = 3,
    max_arity: int = 3,
    max_rows: int = 3,
    max_endo_vars: int = 12,
    hierarchical: bool | None = None,
) -> tuple[Query, Database]:
    """A self-join-free query plus database whose lineage is not constant;
    optionally resample until the query lands on the requested side of the
    hierarchy split."""
    while True:
        query, schema = random_query(rng, max_atoms=max_atoms, max_arity=max_arity)
        if hierarchical is not None and is_hierarchical(query)[0] != hierarchical:
            continue
        db = random_database(rng, schema, max_rows=max_rows, max_endo_vars=max_endo_vars)
        if any(build_lineage(query, db).clauses):
            return query, db
