"""Boolean conjunctive queries over relational data.

Every tuple of an endogenous relation carries a Boolean variable; the
lineage of a query over a database is the positive DNF over those variables
describing exactly which tuple subsets satisfy the query.  Exogenous
relations are fixed context: their tuples gate matches but contribute no
variables.

Variables are assigned in schema-then-row order, so all outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .boolfunc import (
    ENUMERATION_BOUND,
    _check_arities,
    brute_shapley_subsets,
    dnf_from_clauses,
)
from .circuit import Circuit, CircuitBuilder, shapley_direct
from .errors import InputError, RefusalError, read_input


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    endogenous: bool


@dataclass(frozen=True)
class Schema:
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise InputError("relation names must be unique")
        for r in self.relations:
            if r.arity < 1:
                raise InputError(f"relation {r.name} needs arity >= 1")

    def get(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise InputError(f"unknown relation {name}")


@dataclass(frozen=True)
class QueryVar:
    name: str


@dataclass(frozen=True)
class QueryConst:
    value: str


Term = QueryVar | QueryConst


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Query:
    atoms: tuple[Atom, ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                arg.name for atom in self.atoms for arg in atom.args if isinstance(arg, QueryVar)
            )
        )

    def size(self) -> int:
        return len(self.atoms)


class Database:
    """Relational instance with one Boolean variable per endogenous tuple."""

    __slots__ = ("schema", "rows", "tuple_map", "_var_ids")

    def __init__(self, schema: Schema, rows: Mapping[str, Iterable[Sequence[str]]]):
        self.schema = schema
        stored: dict[str, tuple[tuple[str, ...], ...]] = {}
        for name in rows:
            schema.get(name)
        for rel in schema.relations:
            seen: dict[tuple[str, ...], None] = {}  # insertion-ordered: first occurrence wins
            for row in rows.get(rel.name, ()):
                t = tuple(str(v) for v in row)
                if len(t) != rel.arity:
                    raise InputError(
                        f"relation {rel.name} has arity {rel.arity}, row {t} does not fit"
                    )
                seen[t] = None
            stored[rel.name] = tuple(seen)
        self.rows = stored
        tuple_map: list[tuple[str, int]] = []
        var_ids: dict[tuple[str, int], int] = {}
        for rel in schema.relations:
            if rel.endogenous:
                for idx in range(len(stored[rel.name])):
                    var_ids[(rel.name, idx)] = len(tuple_map)
                    tuple_map.append((rel.name, idx))
        self.tuple_map = tuple(tuple_map)
        self._var_ids = var_ids

    @property
    def var_count(self) -> int:
        return len(self.tuple_map)

    def var_of(self, relation: str, row_index: int) -> int:
        try:
            return self._var_ids[(relation, row_index)]
        except KeyError:
            raise InputError(f"no variable for {relation} row {row_index}") from None


# ---------------------------------------------------------------------------
# Text formats

# the head up to the first ":-" outside quotes, the comma (if any) after an
# atom, an atom's name and opening parenthesis, and one argument (a quoted
# constant, which may hold commas, parentheses and ":-", or else the text up
# to the next comma or parenthesis) with the comma or parenthesis ending it
_HEAD = re.compile(r"""\A(?:'[^']*'|"[^"]*"|[^'"])*?:-""")
_COMMA = re.compile(r"\s*(,?)\s*")
_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_ARG = re.compile(r"""(\s*(?:'[^']*'|"[^"]*")\s*(?=[,)])|[^(),]*)([,)])""")
_VAR = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def parse_schema(text: str) -> Schema:
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or fields[2] not in ("endo", "exo"):
            raise InputError(f"schema line {lineno}: expected 'name arity endo|exo'")
        try:
            arity = int(fields[1])
        except ValueError:
            raise InputError(f"schema line {lineno}: bad arity {fields[1]!r}") from None
        relations.append(Relation(fields[0], arity, fields[2] == "endo"))
    if not relations:
        raise InputError("empty schema")
    return Schema(tuple(relations))


def schema_text(schema: Schema) -> str:
    return "".join(
        f"{r.name} {r.arity} {'endo' if r.endogenous else 'exo'}\n"
        for r in schema.relations
    )


def parse_query(text: str) -> Query:
    """One-line queries like `Q :- R(x), S(x,'a'), T(y)`.

    Lowercase-leading identifiers are variables; quoted strings and
    anything else are constants.  One comma separates two atoms, and the
    head, if any, ends at the first `:-` outside quotes.
    """
    line = _HEAD.sub("", text, count=1).strip()
    if not line:
        raise InputError("a query needs at least one atom")
    atoms, pos = [], 0
    while True:
        name = _NAME.match(line, pos)
        if not name:
            raise InputError(f"unparsed query text: {line[pos:]!r}")
        args, end, pos = [], ",", name.end()
        while end == ",":
            arg = _ARG.match(line, pos)
            if not arg:
                raise InputError(f"unparsed query text: {line[name.start():]!r}")
            piece, end, pos = arg[1].strip(), arg[2], arg.end()
            if not piece and end == ")" and not args:
                raise InputError(f"atom {name.group(1)} has no arguments")
            if not piece:
                raise InputError(f"atom {name.group(1)}: empty argument")
            if (piece[0] == piece[-1] == "'") or (piece[0] == piece[-1] == '"'):
                args.append(QueryConst(piece[1:-1]))
            elif _VAR.match(piece):
                args.append(QueryVar(piece))
            else:
                args.append(QueryConst(piece))
        atoms.append(Atom(name.group(1), tuple(args)))
        gap = _COMMA.match(line, pos)
        pos = gap.end()
        if not gap[1]:
            if pos < len(line):
                raise InputError(f"expected a comma between atoms at {line[pos:]!r}")
            return Query(tuple(atoms))
        if pos == len(line):
            raise InputError(f"the query ends in a comma after atom {name.group(1)}")


def query_text(query: Query) -> str:
    def term(t: Term) -> str:
        return t.name if isinstance(t, QueryVar) else f"'{t.value}'"

    body = ", ".join(
        f"{a.relation}({', '.join(term(t) for t in a.args)})" for a in query.atoms
    )
    return f"Q :- {body}\n"


def load_database(directory: str | Path) -> Database:
    base = Path(directory)
    schema = parse_schema(read_input(base / "schema.txt"))
    rows: dict[str, list[tuple[str, ...]]] = {}
    for rel in schema.relations:
        path = base / f"{rel.name}.csv"
        if path.exists():
            handle = io.StringIO(read_input(path, newline=""), newline="")
            try:
                rows[rel.name] = [tuple(row) for row in csv.reader(handle) if row]
            except csv.Error as exc:
                raise InputError(f"{path}: {exc}") from None
        else:
            rows[rel.name] = []
    return Database(schema, rows)


def _csv_text(rows: Iterable[Iterable]) -> str:
    """Headerless CSV, one line per row, each ending in a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_database(db: Database, directory: str | Path) -> None:
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / "schema.txt").write_text(schema_text(db.schema))
    for rel in db.schema.relations:
        (base / f"{rel.name}.csv").write_text(_csv_text(db.rows[rel.name]))


# ---------------------------------------------------------------------------
# Lineage construction


def _check_query(query: Query, schema: Schema) -> None:
    for atom in query.atoms:
        rel = schema.get(atom.relation)
        if len(atom.args) != rel.arity:
            raise InputError(
                f"atom {atom.relation} has {len(atom.args)} arguments, relation has arity {rel.arity}"
            )


@dataclass(frozen=True, eq=False)
class Lineage:
    """Positive-DNF lineage with the variable-to-tuple correspondence."""

    func: Circuit
    clauses: tuple[frozenset[int], ...]
    tuple_map: tuple[tuple[str, int], ...]


def build_lineage(query: Query, db: Database) -> Lineage:
    """Lineage by enumerating all homomorphisms from the query into the
    database.  One clause per homomorphism (exogenous atoms contribute no
    literal); duplicates collapse, and a match using only exogenous atoms
    makes the lineage the constant 1.

    Atoms are joined left to right.  The variables bound before an atom are
    always those of the atoms to its left, so each atom is probed on fixed
    positions (its constants and those variables): one hash index per atom,
    from the values at those positions to row indices, built once, makes
    each step a lookup instead of a scan of the relation.
    """
    _check_query(query, db.schema)
    clauses: set[frozenset[int]] = set()
    # per atom: (relation, probe terms, free (position, variable) pairs, index)
    plans = []
    seen: set[str] = set()
    for atom in query.atoms:
        probe = [
            i for i, t in enumerate(atom.args) if isinstance(t, QueryConst) or t.name in seen
        ]
        free = [(i, t.name) for i, t in enumerate(atom.args) if i not in probe]
        index: dict[tuple[str, ...], list[int]] = {}
        for row_index, row in enumerate(db.rows[atom.relation]):
            index.setdefault(tuple(row[i] for i in probe), []).append(row_index)
        plans.append(
            (db.schema.get(atom.relation), [atom.args[i] for i in probe], free, index)
        )
        seen.update(name for _, name in free)

    def matches(plan, binding: dict[str, str], literals: frozenset[int]):
        """The partial matches one atom extends (binding, literals) to."""
        rel, probe, free, index = plan
        key = tuple(t.value if isinstance(t, QueryConst) else binding[t.name] for t in probe)
        rows = db.rows[rel.name]
        for row_index in index.get(key, ()):
            row = rows[row_index]
            new_binding = dict(binding)
            ok = True
            for position, name in free:
                # a variable repeated inside the atom must take one value
                bound = new_binding.setdefault(name, row[position])
                if bound != row[position]:
                    ok = False
                    break
            if not ok:
                continue
            lits = literals
            if rel.endogenous:
                lits = literals | {db.var_of(rel.name, row_index)}
            yield new_binding, lits

    # depth-first over the atoms with an explicit stack: stack[k] yields the
    # matches of the first k atoms, so any number of atoms fits
    stack = [iter([({}, frozenset())])]
    while stack:
        match = next(stack[-1], None)
        if match is None:
            stack.pop()
        elif len(stack) <= len(plans):
            stack.append(matches(plans[len(stack) - 1], *match))
        elif match[1]:
            clauses.add(match[1])
        else:
            clauses = {frozenset()}  # a match of exogenous atoms only: the constant 1
            break
    ordered = tuple(sorted(clauses, key=lambda c: tuple(sorted(c))))
    return Lineage(dnf_from_clauses(ordered, db.var_count), ordered, db.tuple_map)


# ---------------------------------------------------------------------------
# Query classification


def is_hierarchical(query: Query) -> tuple[bool, tuple[str, str] | None]:
    """True when every pair of variables has nested or disjoint atom sets;
    otherwise returns a witnessing pair."""
    variables = query.variables()
    at = dict.fromkeys(variables, 0)  # each variable's atoms, as a bitmask
    for idx, atom in enumerate(query.atoms):
        for arg in atom.args:
            if isinstance(arg, QueryVar):
                at[arg.name] |= 1 << idx
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            a, b = at[x], at[y]
            if a & b and a | b not in (a, b):
                return (False, (x, y))
    return (True, None)


def is_self_join_free(query: Query) -> bool:
    names = [a.relation for a in query.atoms]
    return len(set(names)) == len(names)


def dichotomy_branch(query: Query) -> tuple[str, tuple[str, str] | None]:
    """Where the query falls in the dichotomy, from one hierarchy scan, with
    its non-hierarchical witness pair (None when hierarchical): "FP" when it
    is self-join-free and hierarchical, "hard" when it is self-join-free but
    not, and outside the dichotomy when it has a self-join."""
    hierarchical, witness = is_hierarchical(query)
    if not is_self_join_free(query):
        return "outside the dichotomy (self-join)", witness
    return ("FP" if hierarchical else "hard"), witness


# ---------------------------------------------------------------------------
# Stretching


def _fresh_var_names(count: int, taken: Iterable[str]) -> list[str]:
    used = set(taken)
    names = []
    for j in range(1, count + 1):
        candidate = f"z{j}"
        while candidate in used:
            candidate = "z" + candidate
        used.add(candidate)
        names.append(candidate)
    return names


def stretch_query(query: Query, schema: Schema) -> Query:
    """Give every endogenous atom one fresh leading variable."""
    _check_query(query, schema)
    endo_atoms = sum(1 for a in query.atoms if schema.get(a.relation).endogenous)
    fresh = _fresh_var_names(endo_atoms, query.variables())
    out = []
    next_fresh = 0
    for atom in query.atoms:
        if schema.get(atom.relation).endogenous:
            out.append(Atom(atom.relation, (QueryVar(fresh[next_fresh]),) + atom.args))
            next_fresh += 1
        else:
            out.append(atom)
    return Query(tuple(out))


def _stretched_schema(schema: Schema) -> Schema:
    return Schema(
        tuple(
            Relation(r.name, r.arity + 1, True) if r.endogenous else r
            for r in schema.relations
        )
    )


@dataclass(frozen=True, eq=False)
class StretchedDatabase:
    """Database with one fresh leading attribute on each endogenous relation.

    var_map sends each new variable to the variable of the tuple it came
    from; fresh_values records the leading constant given to each new tuple.
    """

    database: Database
    var_map: dict[int, int]
    fresh_values: dict[int, str]


DUMMY_VALUE = "d"


def stretch_database_dummy(db: Database) -> StretchedDatabase:
    """Stretch with a single shared dummy value, preserving the lineage of
    any stretched query exactly (variable ids included): the width-1
    expansion with the constant leading value `DUMMY_VALUE`."""
    return _stretch(db, [1] * db.var_count, lambda relation, counter: DUMMY_VALUE)


def stretch_database_expand(db: Database, arities: Sequence[int]) -> StretchedDatabase:
    """Stretch and replicate: the tuple carrying variable v becomes
    arities[v] tuples with fresh namespaced leading values (0 deletes it).
    The lineage of a stretched query over the result is the original
    lineage with variable v replaced by the disjunction of its copies.
    """
    _check_arities(arities, db.var_count)
    return _stretch(db, arities, lambda relation, counter: f"z!{relation}!{counter}")


def _stretch(db: Database, arities: Sequence[int], leading) -> StretchedDatabase:
    """The tuple carrying variable v becomes arities[v] tuples, the c-th new
    tuple of relation R led by the value leading(R, c)."""
    rows: dict[str, list[tuple[str, ...]]] = {}
    origins: list[int] = []
    fresh_values: list[str] = []
    for rel in db.schema.relations:
        if not rel.endogenous:
            rows[rel.name] = list(db.rows[rel.name])
            continue
        counter = 0
        expanded = []
        for row_index, row in enumerate(db.rows[rel.name]):
            source = db.var_of(rel.name, row_index)
            for _ in range(arities[source]):
                counter += 1
                value = leading(rel.name, counter)
                expanded.append((value,) + row)
                origins.append(source)
                fresh_values.append(value)
        rows[rel.name] = expanded
    stretched = Database(_stretched_schema(db.schema), rows)
    var_map = {new: src for new, src in enumerate(origins)}
    fresh = {new: val for new, val in enumerate(fresh_values)}
    return StretchedDatabase(stretched, var_map, fresh)


# ---------------------------------------------------------------------------
# Hierarchical compilation


def compile_hierarchical_lineage(query: Query, db: Database) -> Circuit:
    """Compile the lineage of a hierarchical self-join-free query into a
    deterministic and decomposable circuit, in time linear in the size of
    the query plus the data, at any nesting depth.

    The query's variables form a forest (the safe plans of Dalvi and Suciu,
    VLDB J. 16, 2007), computed once: x sits above y when atoms(x) ⊋
    atoms(y), ties going to the smaller name.  An atom's variables lie on
    one path, and it becomes ground at the lowest.  The query is
    hierarchical exactly when each variable has the same predecessor on
    every path through it, which then holds all of its atoms; where one
    does not, the predecessor that lacks one of its atoms is the refusal's
    witness.  `conjoin` at a node ANDs the endogenous atoms ground there
    with one `decide` per child, in order of their first atom.  `decide`
    partitions its variable's atoms' rows by their value there in one pass,
    and chains the values all of them share into an exclusive OR
    (`CircuitBuilder.exclusive_or`),

        D(a_i..) = branch(a_i) or (not branch(a_i) and D(a_(i+1)..)),

    so negation sits above whole branches.  Both steps are generators that
    yield the arguments of the step below them, walked with an explicit
    stack.  A state is only each atom's surviving row indices: every atom's
    rows are first restricted to those matching its constants and agreeing
    on its repeated variables, so a row grouped under a value holds it at
    every position.
    """
    _check_query(query, db.schema)
    if not is_self_join_free(query):
        raise RefusalError("self-joins are outside the compiled fragment; use brute force")
    rels = [db.schema.get(atom.relation) for atom in query.atoms]
    # per atom: the first position of each of its variables
    positions: list[dict[str, int]] = [{} for _ in query.atoms]
    at: dict[str, list[int]] = {v: [] for v in query.variables()}
    for a, atom in enumerate(query.atoms):
        for i, term in enumerate(atom.args):
            if isinstance(term, QueryVar) and positions[a].setdefault(term.name, i) == i:
                at[term.name].append(a)
    # children[None] are the roots and ground[None] the atoms with no variable
    children: dict[str | None, list[str]] = {v: [] for v in (None, *at)}
    ground: dict[str | None, list[int]] = {v: [] for v in (None, *at)}
    above: dict[str, str | None] = {}  # each variable's parent on its first atom's path
    for a, rel in enumerate(rels):
        path = sorted(positions[a], key=lambda v: (-len(at[v]), v))
        for parent, child in zip((None, *path), path):
            first = above.setdefault(child, parent)
            if first != parent:
                # one of the two parents lacks an atom of the child
                other = first if first is not None and first not in positions[a] else parent
                raise RefusalError(
                    f"query is not hierarchical (witness variables {other}, {child}); "
                    "use brute force on the lineage"
                )
            if at[child][0] == a:
                children[parent].append(child)
        if rel.endogenous:
            ground[path[-1] if path else None].append(a)
    builder = CircuitBuilder(db.var_count)

    def restrict(a: int) -> list[int]:
        kept = []
        for row_index, row in enumerate(db.rows[rels[a].name]):
            seen: dict[str, str] = {}
            for term, value in zip(query.atoms[a].args, row):
                if isinstance(term, QueryConst):
                    if term.value != value:
                        break
                elif seen.setdefault(term.name, value) != value:
                    break
            else:
                kept.append(row_index)
        return kept

    def conjoin(rows: dict[int, list[int]], node: str | None):
        # deduplicated rows make each ground match unique
        parts = [builder.var(db.var_of(rels[a].name, rows[a][0])) for a in ground[node]]
        for child in children[node]:
            parts.append((yield rows, child))
        return builder.and_(parts)

    def decide(rows: dict[int, list[int]], v: str):
        groups: dict[int, dict[str, list[int]]] = {}
        for a in at[v]:
            data, position = db.rows[rels[a].name], positions[a][v]
            groups[a] = by_value = {}
            for r in rows[a]:
                by_value.setdefault(data[r][position], []).append(r)
        first, *rest = groups.values()
        branches = []
        # every group holds each value of the intersection, so no branch is empty
        for value in sorted(set(first).intersection(*rest)):
            branch = yield {a: group[value] for a, group in groups.items()}, v
            constant = builder.const_value(branch)
            if constant == 0:
                continue
            branches.append(branch)
            if constant == 1:
                break  # the chain never reaches the later values
        return builder.exclusive_or(branches)

    initial = {a: restrict(a) for a in range(len(rels))}
    if not all(initial.values()):
        return builder.build(builder.const(0), deterministic_by_construction=True)
    # a step yields the arguments of the step below it and is sent that
    # step's gate once it returns; the steps alternate, conjoin at the even
    # depths, so neither names the other and no reference cycle keeps the
    # builder and the database alive past the compile
    stack, result = [conjoin(initial, None)], None
    while stack:
        try:
            args = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append((decide if len(stack) % 2 else conjoin)(*args))
            result = None
    return builder.build(result, deterministic_by_construction=True)


# ---------------------------------------------------------------------------
# The dichotomy pipeline


def shapley_tuples(
    query: Query, db: Database, *, bound: int = ENUMERATION_BOUND, branch: str | None = None
) -> tuple[Fraction, ...]:
    """Shapley value of every endogenous tuple, indexed like db.tuple_map.

    Hierarchical queries go through the compiled circuit, whose Shapley
    vector one forward and one transposed pass give exactly at any size
    (`circuit.shapley_direct`); non-hierarchical ones are enumerated
    exhaustively, refusing above the bound (`dichotomy_branch` says which
    branch a query is on; a caller that has classified the query already
    passes its `branch`).  A query with a self-join is outside the
    dichotomy and is refused: only brute force answers it.
    """
    branch = branch or dichotomy_branch(query)[0]
    if branch == "FP":
        return shapley_direct(compile_hierarchical_lineage(query, db))
    if branch != "hard":
        raise RefusalError(
            "the dichotomy pipeline handles self-join-free queries only; pass --method brute"
        )
    _check_query(query, db.schema)
    if db.var_count > bound:
        raise RefusalError(
            f"non-hierarchical query: exact Shapley computation is intractable in "
            f"general, and {db.var_count} tuple variables exceed the exhaustive "
            f"bound of {bound}"
        )
    return brute_shapley_subsets(build_lineage(query, db).func, bound=bound)


# ---------------------------------------------------------------------------
# Hardness constructions


def pp2dnf_instance(edges: Iterable[tuple[int, int]]) -> tuple[Database, Query]:
    """Relational instance whose lineage is the positive bipartite DNF
    with one clause X_i and Y_j per edge (i, j)."""
    edge_list = sorted({(int(i), int(j)) for i, j in edges})
    if not edge_list:
        raise InputError("need at least one edge")
    xs = sorted({i for i, _ in edge_list})
    ys = sorted({j for _, j in edge_list})
    schema = Schema(
        (
            Relation("R", 1, True),
            Relation("S", 2, False),
            Relation("T", 1, True),
        )
    )
    db = Database(
        schema,
        {
            "R": [(str(i),) for i in xs],
            "S": [(str(i), str(j)) for i, j in edge_list],
            "T": [(str(j),) for j in ys],
        },
    )
    query = Query(
        (
            Atom("R", (QueryVar("x"),)),
            Atom("S", (QueryVar("x"), QueryVar("y"))),
            Atom("T", (QueryVar("y"),)),
        )
    )
    return db, query
