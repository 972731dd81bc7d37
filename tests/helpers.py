"""Shared fixtures: the running worked example, small relational instances,
the embedding of the bipartite-DNF instance into any non-hierarchical
query, and the independent references the tests check the package against:
substitution by grouped fresh variables built gate by gate, a circuit
rebuilt as a fresh copy, the oracle answers at mixed widths, the
circuit Shapley reduction, lineage by the active-domain recursion, and the
widened Shapley weights by their defining sums."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import comb
from operator import mul
from typing import Callable, Mapping, Sequence

from shapcount import circuit as ct
from shapcount import lineage as lg
from shapcount.boolfunc import AND, NOT, OR, _check_arities, _fold, _models, truth_table
from shapcount.errors import InputError, RefusalError
from shapcount.formats import parse_sexpr
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
from shapcount.reductions import _shapley_value, shapley_from_kcounts


def example1() -> ct.Circuit:
    # x0 and (x1 or not x2): models {0}, {0,1}, {0,1,2}
    return parse_sexpr("(and x0 (or x1 (not x2)))")


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


def same_dag(a: ct.Circuit, b: ct.Circuit) -> bool:
    """Whether two functions are the same DAG over as many variables:
    functions compare by identity, so tests compare their gates."""
    return a.gates == b.gates and a.var_count == b.var_count


# ---------------------------------------------------------------------------
# Formula-level substitution, the reference for the oracles that count it


def _rebuild(func: ct.Circuit, b: ct.CircuitBuilder, replace: Callable[[int], int]) -> int:
    """Add the gates of `func` to `b`, each variable gate replaced by the
    gate replace(its variable index), and return the output's gate.

    Connectives are added as they are, constants interned, and every gate
    is added once, so shared subterms stay shared.
    """
    neg = lambda gate: b.add(NOT, inputs=(gate,))
    conj = lambda gates: b.add(AND, inputs=gates)
    disj = lambda gates: b.add(OR, inputs=gates)
    return _fold(func, replace, b.const(0), b.const(1), neg, conj, disj)[func.output]


@dataclass(frozen=True, eq=False)
class GroupedSubstitution:
    """Function after replacing every variable by a group of fresh ones.

    groups[i] lists the new indices that replaced old variable i; the new
    index space is the concatenation of the groups in old-index order.
    """

    func: ct.Circuit
    groups: tuple[tuple[int, ...], ...]


def _grouped_substitute(
    func: ct.Circuit, arities: Sequence[int], connective
) -> GroupedSubstitution:
    _check_arities(arities, func.var_count)
    groups = []
    offset = 0
    for m in arities:
        groups.append(tuple(range(offset, offset + m)))
        offset += m
    # one replacement gate per variable, read by all of its occurrences;
    # `build` drops what nothing reads
    b = ct.CircuitBuilder(offset)
    replacements = [connective(b, [b.var(z) for z in group]) for group in groups]
    return GroupedSubstitution(b.build(_rebuild(func, b, replacements.__getitem__)), tuple(groups))


def or_substitute(func: ct.Circuit, arities: Sequence[int]) -> GroupedSubstitution:
    """Replace variable i by a disjunction of arities[i] fresh variables.

    Arity 0 replaces the variable by the constant 0.  Arity 1 everywhere
    yields an isomorphic copy.
    """
    return _grouped_substitute(func, arities, ct.CircuitBuilder.or_)


def and_substitute(func: ct.Circuit, arities: Sequence[int]) -> GroupedSubstitution:
    """Replace variable i by a conjunction of arities[i] fresh variables
    (arity 0 gives the constant 1)."""
    return _grouped_substitute(func, arities, ct.CircuitBuilder.and_)


def unfold(circuit: ct.Circuit) -> ct.Circuit:
    """A fresh copy of the circuit, rebuilt gate by gate, so shared gates
    stay shared and the copy computes its own truth table."""
    b = ct.CircuitBuilder(circuit.var_count)
    return b.build(_rebuild(circuit, b, b.var))


# ---------------------------------------------------------------------------
# Oracle answers at mixed widths, which no reduction asks and the package's
# formula oracles refuse, and the circuit Shapley reduction, which the CLI
# runs over witnessed queries of its own


def merged_count(func: ct.Circuit, weights: Sequence[int], falses: bool = False) -> int:
    """Sum over the models x of `func` of the product of weights[i] over the
    variables i that x sets, or, with `falses`, over those that x leaves
    false, the models merged one variable at a time."""
    # sums[j] holds the weighted sum of the models whose index shifted right
    # by the merged variable count is j; the odd entry of each pair has the
    # next variable true and takes its weight (the even one, with `falses`)
    sums = dict.fromkeys(_models(truth_table(func), func.var_count), 1)
    for w in weights:
        merged: dict[int, int] = {}
        for index, value in sums.items():
            key = index >> 1
            merged[key] = merged.get(key, 0) + (value * w if (index & 1) != falses else value)
        sums = merged
    return sums.get(0, 0)


def merged_or_count(func: ct.Circuit, arities: Sequence[int]) -> int:
    """Model count after replacing variable i by a disjunction of arities[i]
    fresh variables."""
    _check_arities(arities, func.var_count)
    return merged_count(func, [(1 << m) - 1 for m in arities])


def merged_and_count(func: ct.Circuit, arities: Sequence[int]) -> int:
    """Model count after replacing variable i by a conjunction of arities[i]
    fresh variables."""
    _check_arities(arities, func.var_count)
    return merged_count(func, [(1 << m) - 1 for m in arities], True)


def merged_or_kcounts(func: ct.Circuit, arities: Sequence[int]) -> tuple[int, ...]:
    """Size-bucketed counts under the disjunctive replacement, as the
    base-2^B digits of one merged sum, B the least multiple of 8 above
    sum(arities)."""
    _check_arities(arities, func.var_count)
    total = sum(arities)
    width = total // 8 + 1
    weights = [((1 << 8 * width) + 1) ** m - 1 for m in arities]
    raw = merged_count(func, weights).to_bytes(width * (total + 1), "little")
    return tuple(int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width))


def merged_shapley(func: ct.Circuit, arities: Sequence[int], target: int) -> Fraction:
    """The target's Shapley value under the disjunctive replacement, by the
    reductions' rule over the k-counts of the replacement as asked and with
    the target set to 0."""
    low = tuple(0 if i == target else m for i, m in enumerate(arities))
    return _shapley_value(merged_or_kcounts(func, arities), merged_or_kcounts(func, low))


def shapley_circuit(circuit: ct.Circuit) -> tuple[Fraction, ...]:
    """Exact Shapley vector through the k-count-oracle reduction; the
    variable-deleted cofactors are width-0 substitutions.
    `circuit.shapley_direct` must return the same vector."""
    return shapley_from_kcounts(circuit.var_count, ct.kcount_oracle(circuit))


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


def lineage_by_active_domain(query: Query, db: Database) -> ct.Circuit:
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

    b = ct.CircuitBuilder(db.var_count)

    def ground_atom(atom: Atom, binding: dict[str, str]) -> int:
        values = tuple(
            t.value if isinstance(t, QueryConst) else binding[t.name] for t in atom.args
        )
        rel = db.schema.get(atom.relation)
        idx = row_index[atom.relation].get(values)
        if idx is None:
            return b.const(0)
        if rel.endogenous:
            return b.var(db.var_of(atom.relation, idx))
        return b.const(1)

    def rec(binding: dict[str, str], remaining: tuple[str, ...]) -> int:
        if not remaining:
            return b.and_([ground_atom(a, binding) for a in query.atoms])
        v, rest = remaining[0], remaining[1:]
        return b.or_([rec({**binding, v: a}, rest) for a in adom])

    return b.build(rec({}, variables))


def cofactors(func: ct.Circuit, var: int) -> tuple[ct.Circuit, ct.Circuit]:
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
