"""Deterministic and decomposable circuits.

A circuit is an indexed DAG of gates (constants, variables, NOT, n-ary
AND/OR) with a single output gate, the last one: the same `boolfunc.Gate`
array a `BoolFunc` lowers to, so `boolfunc`'s evaluator, truth tables and
brute-force routines take circuits as they are.  Counting is linear once
two properties hold: every AND combines subcircuits over disjoint variables,
and no valuation satisfies two children of the same OR.  Decomposability is
checked structurally; determinism is verified exhaustively up to a bound,
taken on faith ("assumed") above it, or certified by construction for
circuits built by this package.

Every pass is one bottom-up walk (`boolfunc._fold`), and none needs a
gate's scope or smoothing gates: the model count holds each gate's chance of
being true as an exact pair (c, w), meaning c / 2^w, and the size-bucketed
count works in the probability basis.  The same
probability-basis pass, followed by one transposed pass, gives the Shapley
value of every variable at once (`shapley_direct`).  `count_oracle` and
`kcount_oracle` answer the paper's oracle queries, counts of the circuit
with variables replaced by disjunctions of fresh ones, each by a weighted
pass over the circuit itself with no substituted copy built;
`kcounts_circuit` and `shapley_circuit` are the paper's reductions over
them.  `or_substitute_all` writes the substituted copy's gate array
directly, the closure witness that `compare` checks each query against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from . import reductions
from .boolfunc import AND, CONST0, CONST1, NOT, OR, VAR, Gate
from .boolfunc import _check_arities, _fold, _tables, _union, _variable_masks, evaluate
from .errors import InconsistencyError, InputError, RefusalError

DETERMINISM_BOUND = 20


class Circuit:
    """Immutable-by-convention gate DAG with one output.

    Gate inputs always point at smaller indices, so index order is a
    topological order.  Exactly one gate (the output) feeds nothing; as
    nothing can read the last gate, that is the last one, never passed in.
    """

    __slots__ = (
        "gates",
        "var_count",
        "deterministic_by_construction",
        "_report",
        "_table",
    )

    def __init__(
        self,
        gates: Sequence[Gate],
        var_count: int,
        deterministic_by_construction: bool = False,
    ):
        self.gates = tuple(gates)
        self.var_count = var_count
        self.deterministic_by_construction = deterministic_by_construction
        self._report: ValidationReport | None = None
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


class CircuitBuilder:
    """Bottom-up gate assembly; references must point at existing gates."""

    def __init__(self, var_count: int):
        self.var_count = var_count
        self._gates: list[Gate] = []
        self._interned: dict[tuple[str, int, tuple[int, ...]], int] = {}

    def add(self, kind: str, var: int = -1, inputs: Iterable[int] = ()) -> int:
        refs = tuple(inputs)
        for ref in refs:
            if not 0 <= ref < len(self._gates):
                raise InputError(f"reference to missing gate {ref}")
        self._gates.append(Gate(kind, var, refs))
        return len(self._gates) - 1

    # deduplicating, constant-folding convenience layer: constants, variables
    # and NOTs are interned, ANDs and ORs folded but never shared

    def _intern(self, kind: str, var: int = -1, inputs: tuple[int, ...] = ()) -> int:
        key = (kind, var, inputs)
        idx = self._interned.get(key)
        if idx is None:
            idx = self._interned[key] = self.add(kind, var, inputs)
        return idx

    def const(self, value: int) -> int:
        return self._intern(CONST1 if value else CONST0)

    def var(self, index: int) -> int:
        return self._intern(VAR, index)

    def const_value(self, idx: int) -> int | None:
        kind = self._gates[idx].kind
        if kind == CONST0:
            return 0
        if kind == CONST1:
            return 1
        return None

    def negate(self, idx: int) -> int:
        val = self.const_value(idx)
        if val is not None:
            return self.const(1 - val)
        return self._intern(NOT, inputs=(idx,))

    def _connective(self, kind: str, absorbing: int, inputs: Sequence[int]) -> int:
        """`kind` over the inputs that are not constants: the constant
        `absorbing` if one input is it, the other constant if none is left,
        the one input left itself."""
        kept = []
        for ref in inputs:
            val = self.const_value(ref)
            if val == absorbing:
                return self.const(absorbing)
            if val is None:
                kept.append(ref)
        if len(kept) < 2:
            return kept[0] if kept else self.const(1 - absorbing)
        return self.add(kind, inputs=kept)

    def and_(self, inputs: Sequence[int]) -> int:
        return self._connective(AND, 0, inputs)

    def or_(self, inputs: Sequence[int]) -> int:
        return self._connective(OR, 1, inputs)

    def exclusive_or(self, branches: Sequence[int]) -> int:
        """`_chain` over `branches` (constant 0 if none), NOTs from `negate`."""
        if not branches:
            return self.const(0)
        return _chain(self._gates, branches, self.negate)

    def build(self, output: int, *, deterministic_by_construction: bool = False) -> Circuit:
        keep = {output}  # inputs precede their gates: one downward sweep
        for idx in range(output, -1, -1):
            if idx in keep:
                keep.update(self._gates[idx].inputs)
        order = sorted(keep)
        remap = {old: new for new, old in enumerate(order)}
        gates = [
            Gate(kind, var, tuple(remap[r] for r in inputs))
            for kind, var, inputs in map(self._gates.__getitem__, order)
        ]
        return Circuit(gates, self.var_count, deterministic_by_construction)


def _chain(gates: list[Gate], branches: Sequence[int], negated: Callable[[int], int]) -> int:
    """Append b1 or (not b1 and (b2 or (not b2 and ...))) over the nonempty
    `branches` to `gates`, with not b from `negated(b)`, and return its top:
    true when some branch is, and no valuation satisfies two OR children."""
    acc = branches[-1]
    for branch in reversed(branches[:-1]):
        gates.append(Gate(AND, -1, (negated(branch), acc)))
        gates.append(Gate(OR, -1, (branch, len(gates) - 1)))
        acc = len(gates) - 1
    return acc


# ---------------------------------------------------------------------------
# Parsing and rendering


def parse_nnf(text: str) -> Circuit:
    """Parse the c2d-style format: header `nnf V E n`, then one gate per
    line (`L lit`, `A c i...`, `O j c i...`, `T`, `F`), children referenced
    by 0-based line index, last line being the output.

    Negative literals become NOT gates over variable gates that are
    synthesized on first use, so the internal gate count can exceed V.
    Unary and empty ANDs/ORs are rejected; constants must use T/F.
    """
    header: tuple[int, int, int] | None = None
    gates: list[Gate] = []
    line_gate: list[int] = []
    referenced_lines: set[int] = set()
    var_gate: dict[int, int] = {}
    edge_total = 0

    def fail(lineno: int, message: str):
        raise InputError(f"line {lineno}: {message}")

    def ints(lineno: int, fields: list[str]) -> list[int]:
        try:
            return [int(f) for f in fields]
        except ValueError:
            fail(lineno, f"expected integers, got {fields!r}")

    def child_refs(lineno: int, refs: list[int]) -> tuple[int, ...]:
        out = []
        for ref in refs:
            if not 0 <= ref < len(line_gate):
                fail(lineno, f"reference to undefined gate {ref} (cyclic or forward)")
            referenced_lines.add(ref)
            out.append(line_gate[ref])
        return tuple(out)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "nnf" or len(fields) != 4:
                fail(lineno, "expected header 'nnf V E n'")
            v, e, n = ints(lineno, fields[1:])
            if min(v, e, n) < 0:
                fail(lineno, "header counts must be nonnegative")
            header = (v, e, n)
            continue
        tag = fields[0]
        if tag == "L":
            if len(fields) != 2:
                fail(lineno, "literal lines are 'L lit'")
            (lit,) = ints(lineno, fields[1:])
            if lit == 0 or abs(lit) > header[2]:
                fail(lineno, f"literal {lit} out of range")
            index = abs(lit) - 1
            if lit > 0:
                gates.append(Gate(VAR, var=index))
                line_gate.append(len(gates) - 1)
                var_gate.setdefault(index, len(gates) - 1)
            else:
                if index not in var_gate:
                    gates.append(Gate(VAR, var=index))
                    var_gate[index] = len(gates) - 1
                gates.append(Gate(NOT, inputs=(var_gate[index],)))
                line_gate.append(len(gates) - 1)
        elif tag in ("A", "O"):
            body = ints(lineno, fields[1:])
            if tag == "O":
                if len(body) < 2:
                    fail(lineno, "disjunction lines are 'O j c i...'")
                if body[0] < 0:
                    fail(lineno, "the decision hint must be nonnegative")
                body = body[1:]  # the hint is ignored semantically
            if not body:
                fail(lineno, "conjunction lines are 'A c i...'")
            count, refs = body[0], body[1:]
            if count < 2:
                fail(lineno, "gates need at least two children; use T/F for constants")
            if len(refs) != count:
                fail(lineno, f"declared {count} children, found {len(refs)}")
            kind = AND if tag == "A" else OR
            gates.append(Gate(kind, inputs=child_refs(lineno, refs)))
            line_gate.append(len(gates) - 1)
            edge_total += count
        elif tag in ("T", "F"):
            if len(fields) != 1:
                fail(lineno, "constant lines carry no arguments")
            gates.append(Gate(CONST1 if tag == "T" else CONST0))
            line_gate.append(len(gates) - 1)
        else:
            fail(lineno, f"unknown gate tag {tag!r}")

    if header is None:
        raise InputError("missing 'nnf V E n' header")
    v, e, n = header
    if len(line_gate) != v:
        raise InputError(f"header declares {v} gates, found {len(line_gate)}")
    if edge_total != e:
        raise InputError(f"header declares {e} edges, found {edge_total}")
    if not line_gate:
        raise InputError("a circuit needs at least one gate")
    unreferenced = set(range(len(line_gate))) - referenced_lines
    if unreferenced != {len(line_gate) - 1}:
        raise InputError(
            "every gate but the last must feed another gate; "
            f"unreferenced lines: {sorted(unreferenced)}"
        )
    return Circuit(gates, n)


def to_nnf_text(circuit: Circuit) -> str:
    """Render back to the file format.  Variable gates consumed only by NOT
    gates fold into negative literals; NOT above anything else has no file
    representation and is rejected."""
    gates = circuit.gates
    parents: list[list[int]] = [[] for _ in gates]
    for idx, gate in enumerate(gates):
        for ref in gate.inputs:
            parents[ref].append(idx)

    def skip(idx: int) -> bool:
        gate = gates[idx]
        return (
            gate.kind == VAR
            and idx != circuit.output
            and parents[idx]
            and all(gates[p].kind == NOT for p in parents[idx])
        )

    lines: list[str] = []
    line_of: dict[int, int] = {}
    edge_total = 0
    for idx, gate in enumerate(gates):
        if skip(idx):
            continue
        if gate.kind == VAR:
            lines.append(f"L {gate.var + 1}")
        elif gate.kind == NOT:
            child = gates[gate.inputs[0]]
            if child.kind != VAR:
                raise InputError("only negated variables are representable in this format")
            lines.append(f"L -{child.var + 1}")
        elif gate.kind == CONST1:
            lines.append("T")
        elif gate.kind == CONST0:
            lines.append("F")
        else:
            refs = [line_of[r] for r in gate.inputs]
            edge_total += len(refs)
            body = f"{len(refs)} " + " ".join(str(r) for r in refs)
            lines.append(f"A {body}" if gate.kind == AND else f"O 0 {body}")
        line_of[idx] = len(lines) - 1
    header = f"nnf {len(lines)} {edge_total} {circuit.var_count}"
    return "\n".join([header] + lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def check_decomposable(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Structural check: each AND's children must have pairwise disjoint
    scopes, so no child's scope mask (bit v for each variable v below it)
    may meet the union of the children before it.  Returns the offending
    gate indices."""
    overlaps: list[bool] = []  # one flag per AND gate, in gate order

    def conj(masks: Iterator[int]) -> int:
        union = 0
        overlap = False
        for mask in masks:
            if union & mask:
                overlap = True
            union |= mask
        overlaps.append(overlap)
        return union

    _fold(circuit, (1).__lshift__, 0, 0, lambda mask: mask, conj, _union)
    ands = [idx for idx, gate in enumerate(circuit.gates) if gate.kind == AND]
    bad = tuple(idx for idx, overlap in zip(ands, overlaps) if overlap)
    return (not bad, bad)


def check_deterministic_exhaustive(circuit: Circuit) -> tuple[str, tuple[int, ...] | None]:
    """Exhaustively verify that no valuation satisfies two children of any
    OR gate.  Returns ("verified", None), ("refuted", witness) with the
    witness as a sorted tuple of true variables, or ("assumed", None) when
    the variable count exceeds DETERMINISM_BOUND.  The witness is the lowest
    conflicting valuation of the first conflicting OR in gate order."""
    if circuit.var_count > DETERMINISM_BOUND:
        return ("assumed", None)
    conflicts: list[int] = []

    def disj(tables: Iterator[int]) -> int:
        seen = conflict = 0
        for table in tables:
            conflict |= seen & table
            seen |= table
        if conflict and not conflicts:
            conflicts.append(conflict)
        return seen

    table = _tables(circuit, disj)[circuit.output]  # `disj` returns the union
    if circuit._table is None:
        circuit._table = table  # so `truth_table` need not walk again
    if not conflicts:
        return ("verified", None)
    # the lowest index leaves the top variable false if any conflict does,
    # then the next one down among those left
    conflict, witness, masks = conflicts[0], [], _variable_masks(circuit.var_count)
    for v in reversed(range(circuit.var_count)):
        high = conflict & masks[v]
        if high == conflict:
            witness.append(v)
        else:
            conflict ^= high
    return ("refuted", tuple(reversed(witness)))


@dataclass(frozen=True)
class ValidationReport:
    decomposable: bool
    violating_and_gates: tuple[int, ...]
    determinism: str  # "verified" | "assumed" | "refuted"
    witness: tuple[int, ...] | None
    notes: tuple[str, ...] = ()


def validate(circuit: Circuit) -> ValidationReport:
    """Decomposability and determinism report, computed once per circuit."""
    if circuit._report is not None:
        return circuit._report
    ok, bad = check_decomposable(circuit)
    notes: list[str] = []
    if circuit.deterministic_by_construction:
        status, witness = "verified", None
        notes.append("determinism certified by construction")
    else:
        status, witness = check_deterministic_exhaustive(circuit)
        if status == "assumed":
            notes.append(
                f"determinism assumed: {circuit.var_count} variables exceed the "
                f"exhaustive bound of {DETERMINISM_BOUND}"
            )
    circuit._report = ValidationReport(ok, bad, status, witness, tuple(notes))
    return circuit._report


def _countable(circuit: Circuit) -> ValidationReport:
    report = validate(circuit)
    if not report.decomposable:
        raise RefusalError(
            f"circuit is not decomposable (AND gates {list(report.violating_and_gates)}); refusing to count"
        )
    if report.determinism == "refuted":
        raise RefusalError(
            f"circuit is not deterministic (two OR children true on {report.witness}); refusing to count"
        )
    return report


# ---------------------------------------------------------------------------
# Counting


def count_oracle(circuit: Circuit):
    """Count oracle for the reductions: arities -> model count of
    C[x_v <- z_1 or ... or z_l], l = arities[v], over sum(arities) fresh
    variables, as one weighted pass over C itself.  The circuit is
    validated once, when the oracle is made."""
    _countable(circuit)
    return lambda arities: _count(circuit, arities)


def model_count_dd(circuit: Circuit) -> int:
    """Exact model count in one bottom-up pass."""
    return count_oracle(circuit)((1,) * circuit.var_count)


def _count(circuit: Circuit, arities: Sequence[int]) -> int:
    """Each gate holds the chance c / 2^w that it is true, as the exact pair
    (c, w): a variable is true on 2^l - 1 of its 2^l assignments, NOT is
    (2^w - c, w), decomposable AND the product, deterministic OR the sum
    over the children's largest w.  No w exceeds the arities summed over
    the gate's scope, so the count is the output's c << (sum(arities) - w)."""
    _check_arities(arities, circuit.var_count)

    def conj(pairs: Iterator[tuple[int, int]]) -> tuple[int, int]:
        count, width = 1, 0
        for c, w in pairs:
            count *= c
            width += w
        return count, width

    def disj(pairs: Iterator[tuple[int, int]]) -> tuple[int, int]:
        total, width = 0, 0  # the running sum, over the widest w so far
        for c, w in pairs:
            if w > width:
                total <<= w - width
                width = w
            total += c << (width - w)
        return total, width

    variable = [((1 << ell) - 1, ell) for ell in arities].__getitem__
    negation = lambda pair: ((1 << pair[1]) - pair[0], pair[1])
    pairs = _fold(circuit, variable, (0, 0), (1, 0), negation, conj, disj)
    count, width = pairs[circuit.output]
    return count << (sum(arities) - width)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = [o + x * y for o, y in zip(out[i : i + len(b)], b)]
    return out


def _probability_polys(
    circuit: Circuit, keep: frozenset[int] = frozenset(), arities: Sequence[int] | None = None
) -> list[list[int] | None]:
    """One bottom-up pass in the probability basis: a gate's list holds the
    coefficients a_j of Pr(p) = sum a_j p^j, the chance it is true when each
    variable is true with probability p.  NOT is 1 - Pr, decomposable AND
    the product, deterministic OR the sum, so no gate needs its scope.  With
    `arities`, variable v stands for a disjunction of arities[v] fresh ones,
    true with probability 1 - (1-p)^l.  Every list but the output's and
    those of the gates in `keep` is dropped (None) once its last reader has
    been computed."""

    def variable(v: int) -> list[int]:
        ell = 1 if arities is None else arities[v]
        return [0] + [(-1) ** (j + 1) * comb(ell, j) for j in range(1, ell + 1)]

    def conj(polys: Iterator[list[int]]) -> list[int]:
        acc = [1]
        for poly in polys:
            acc = _convolve(acc, poly)
        return acc

    negation = lambda poly: [1 - poly[0]] + [-c for c in poly[1:]]
    disj = lambda polys: [sum(c) for c in zip_longest(*polys, fillvalue=0)]
    return _fold(circuit, variable, [0], [1], negation, conj, disj, keep)


def kcount_oracle(circuit: Circuit):
    """Size-bucketed count oracle for the substitutions `count_oracle`
    counts, one probability-basis pass over C per query."""
    _countable(circuit)
    return lambda arities: _kcounts(circuit, arities)


def size_polynomial_count(circuit: Circuit) -> tuple[int, ...]:
    """Size-bucketed model counts from the probability-basis pass:
    K(t) = sum a_j t^j (1+t)^(n-j) has the number of size-k models as its
    t^k coefficient."""
    return kcount_oracle(circuit)((1,) * circuit.var_count)


def _kcounts(circuit: Circuit, arities: Sequence[int]) -> tuple[int, ...]:
    _check_arities(arities, circuit.var_count)
    coeffs = _probability_polys(circuit, arities=arities)[circuit.output]
    # Horner in (1+t): T_0 = a_0, T_m = (1+t) T_(m-1) + a_m t^m, K = T_n
    counts = [coeffs[0]]
    for m in range(1, sum(arities) + 1):
        counts = [x + y for x, y in zip(counts + [0], [0] + counts)]
        if m < len(coeffs):
            counts[m] += coeffs[m]
    return tuple(counts)


def _shapley_moments(circuit: Circuit) -> tuple[Fraction, ...]:
    """Owen's formula Shap_v = int_0^1 df/dx_v(p, ..., p) dp for f the
    multilinear extension, every v at once.

    The forward pass gives each gate's Pr_g(p) and need[g], the highest
    moment of its adjoint A_g(p) that any variable below it can reach (-1 at
    constants, 0 at variables, the child's at NOT, the children's maximum at
    OR, max_r need[r] + sum_(s != r) deg Pr_s at AND).  The reverse pass
    carries the moments mu_g[j] = L * int_0^1 p^j A_g(p) dp, j <= need[g],
    with L = lcm(1..need[output]+1) so they stay integers: the output starts
    at L/(j+1), OR hands mu to every child, NOT its negation, and AND hands
    child r the values sum_k c_k mu[j+k] for c = prod_(s != r) Pr_s.  A
    variable gate adds its mu[0] to its variable."""
    gates = circuit.gates
    feeds_and = frozenset(r for g in gates if g.kind == AND for r in g.inputs)
    polys = _probability_polys(circuit, feeds_and)

    # each gate's (need, deg Pr): deg Pr is 1 at a variable, 0 at a constant,
    # kept by NOT, summed by AND and maxed by OR, so it is len(Pr) - 1
    def conj(pairs: Iterator[tuple[int, int]]) -> tuple[int, int]:
        pairs = list(pairs)
        total = sum(d for _, d in pairs)
        return max((n + total - d for n, d in pairs if n >= 0), default=-1), total

    disj = lambda pairs: tuple(map(max, zip(*pairs)))
    every = range(len(gates))
    pairs = _fold(circuit, lambda v: (0, 1), (-1, 0), (-1, 0), lambda p: p, conj, disj, every)
    need = [n for n, _ in pairs]
    top = need[circuit.output]
    scale = lcm(*range(1, top + 2))
    values = [0] * circuit.var_count
    moments: list[list[int] | None] = [None] * len(gates)
    if top >= 0:
        moments[circuit.output] = [scale // (j + 1) for j in range(top + 1)]

    def hand(r: int, mu) -> None:
        if need[r] < 0:
            return
        if moments[r] is None:
            moments[r] = list(mu[: need[r] + 1])
        else:
            moments[r] = [x + y for x, y in zip(moments[r], mu)]

    for idx in range(len(gates) - 1, -1, -1):
        mu, moments[idx] = moments[idx], None
        if mu is None:
            continue
        gate = gates[idx]
        if gate.kind == VAR:
            values[gate.var] += mu[0]
        elif gate.kind == NOT:
            hand(gate.inputs[0], [-x for x in mu])
        elif gate.kind == OR:
            for r in gate.inputs:
                hand(r, mu)
        elif gate.kind == AND:
            kids = gate.inputs
            prefix = [[1]]
            for r in kids[:-1]:
                prefix.append(_convolve(prefix[-1], polys[r]))
            suffix = [1]
            for i in range(len(kids) - 1, -1, -1):
                r = kids[i]
                if need[r] >= 0:
                    c = _convolve(prefix[i], suffix)
                    hand(r, [sum(map(mul, c, mu[j : j + len(c)])) for j in range(need[r] + 1)])
                if i:
                    suffix = _convolve(suffix, polys[r])
    return tuple(Fraction(v, scale) for v in values)


def shapley_direct(circuit: Circuit) -> tuple[Fraction, ...]:
    """Exact Shapley vector in one forward and one transposed pass (see
    `_shapley_moments`), checked against the efficiency sum
    sum_v Shap_v = f(1...1) - f(0...0)."""
    _countable(circuit)
    values = _shapley_moments(circuit)
    n = circuit.var_count
    if sum(values, Fraction(0)) != evaluate(circuit, range(n)) - evaluate(circuit, ()):
        raise InconsistencyError("direct Shapley values break the efficiency sum")
    return values


# ---------------------------------------------------------------------------
# Substitution of variables by disjunctions of fresh variables


def _occurrences(circuit: Circuit) -> list[int]:
    """The k_v of the growth bound for every variable v: the number of edges
    into v's gates, the output counting as one edge."""
    gates = circuit.gates
    counts = [0] * circuit.var_count
    for r in [r for g in gates for r in g.inputs] + [circuit.output]:
        kind, var, _ = gates[r]
        if kind == VAR:
            counts[var] += 1
    return counts


def or_substitute_all(circuit: Circuit, arities: Sequence[int]) -> Circuit:
    """Replace variable v by a disjunction of arities[v] fresh variables in
    one pass, keeping determinism and decomposability.  Variable v's fresh
    block follows those of variables 0..v-1.

    The copy's gate array is written directly: a constant 0 first if a
    width-0 variable occurs, each occurring variable's fresh gates and
    exclusive chain (`_chain`) D(Z_i..Z_l) = Z_i or (not Z_i and
    D(Z_(i+1)..Z_l)), then every other gate, NOT included, over its rebuilt
    inputs.  A substitution maps valuations of the fresh variables onto
    valuations of the old ones and keeps scopes disjoint, so OR children
    stay exclusive and AND children independent wherever negation sits.
    The copy is certified deterministic exactly when the base's determinism
    is verified (checked or certified).  The paper's growth bound, gates
    added <= 6 * sum of k_v * l_v for k_v the edges into v's gates, is
    checked on it.
    """
    _check_arities(arities, circuit.var_count)
    occurrences = _occurrences(circuit)
    gates = [Gate(CONST0)] if any(k and not ell for k, ell in zip(occurrences, arities)) else []
    negated = lambda ref: gates.append(Gate(NOT, -1, (ref,))) or len(gates) - 1
    roots = [0] * circuit.var_count  # unread, or the constant 0 at gate 0
    fresh = 0
    for v, (k, ell) in enumerate(zip(occurrences, arities)):
        if k and ell:
            gates.extend(Gate(VAR, z) for z in range(fresh, fresh + ell))
            roots[v] = _chain(gates, range(len(gates) - ell, len(gates)), negated)
        fresh += ell
    mapping: list[int] = []
    for kind, var, inputs in circuit.gates:
        if kind != VAR:
            gates.append(Gate(kind, -1, tuple([mapping[r] for r in inputs])))
        mapping.append(roots[var] if kind == VAR else len(gates) - 1)
    certified = validate(circuit).determinism == "verified"
    result = Circuit(gates, fresh, certified)
    grown = result.size() - circuit.size()
    bound = 6 * sum(map(mul, occurrences, arities))
    if grown > bound:
        raise InconsistencyError(
            f"substitution added {grown} gates, over the bound 6*sum(k*l) = {bound}"
        )
    return result


# ---------------------------------------------------------------------------
# Pipelines


def kcounts_circuit(circuit: Circuit) -> tuple[int, ...]:
    """Size-bucketed counts through the count-oracle reduction: one total
    model count per uniform replacement width, then a Vandermonde solve.
    Must agree with size_polynomial_count."""
    return reductions.kcounts_from_counts(circuit.var_count, count_oracle(circuit))


def shapley_circuit(circuit: Circuit) -> tuple[Fraction, ...]:
    """Exact Shapley vector through the k-count-oracle reduction; the
    variable-deleted cofactors are width-0 substitutions.  `shapley_direct`
    returns the same vector and is the route `shapley` takes."""
    return reductions.shapley_from_kcounts(circuit.var_count, kcount_oracle(circuit))
