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

The model count scales by powers of 2 for variables absent from a gate's
scope instead of materializing smoothing gates; the size-bucketed count works
in the probability basis, which needs no smoothing at all.  The same
probability-basis pass, followed by one transposed pass, gives the Shapley
value of every variable at once (`shapley_direct`).  `count_oracle` and
`kcount_oracle` answer the paper's oracle queries, counts of the circuit
with variables replaced by disjunctions of fresh ones, each by a weighted
pass over the circuit itself with no substituted copy built;
`kcounts_circuit` and `shapley_circuit` are the paper's reductions over
them.  `or_substitute_all` builds the substituted copy, the closure witness
that `compare` checks each query against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, lcm
from operator import mul
from typing import Iterable, Sequence

from . import reductions
from .boolfunc import AND, CONST0, CONST1, NOT, OR, VAR, BoolFunc, Gate, Var
from .boolfunc import _check_arities, _rebuild, evaluate, gate_tables
from .errors import InconsistencyError, InputError, RefusalError

DETERMINISM_BOUND = 20


class Circuit:
    """Immutable-by-convention gate DAG with one output.

    Gate inputs always point at smaller indices, so index order is a
    topological order.  Exactly one gate (the output) feeds nothing; as
    nothing can read the last gate, that is the last one.
    """

    __slots__ = (
        "gates",
        "output",
        "var_count",
        "deterministic_by_construction",
        "_report",
    )

    def __init__(
        self,
        gates: Sequence[Gate],
        output: int,
        var_count: int,
        deterministic_by_construction: bool = False,
    ):
        self.gates = tuple(gates)
        self.output = output
        self.var_count = var_count
        self.deterministic_by_construction = deterministic_by_construction
        self._report: ValidationReport | None = None
        self._validate()

    def _validate(self) -> None:
        if not self.gates:
            raise InputError("a circuit needs at least one gate")
        if self.var_count < 0:
            raise InputError("variable count must be nonnegative")
        if not 0 <= self.output < len(self.gates):
            raise InputError("output gate index out of range")
        referenced: set[int] = set()
        for idx, gate in enumerate(self.gates):
            if gate.kind in (CONST0, CONST1):
                arity_ok = len(gate.inputs) == 0
            elif gate.kind == VAR:
                arity_ok = len(gate.inputs) == 0
                if not 0 <= gate.var < self.var_count:
                    raise InputError(f"gate {idx}: variable {gate.var} out of range")
            elif gate.kind == NOT:
                arity_ok = len(gate.inputs) == 1
            elif gate.kind in (AND, OR):
                arity_ok = len(gate.inputs) >= 2
            else:
                raise InputError(f"gate {idx}: unknown kind {gate.kind!r}")
            if not arity_ok:
                raise InputError(f"gate {idx}: wrong arity for {gate.kind}")
            for ref in gate.inputs:
                if not 0 <= ref < idx:
                    raise InputError(f"gate {idx}: input {ref} does not precede it")
                referenced.add(ref)
        sinks = set(range(len(self.gates))) - referenced
        if sinks != {self.output}:
            raise InputError(
                f"expected the output to be the only unreferenced gate, found {sorted(sinks)}"
            )

    def size(self) -> int:
        return len(self.gates)

class CircuitBuilder:
    """Bottom-up gate assembly; references must point at existing gates."""

    def __init__(self, var_count: int):
        self.var_count = var_count
        self._gates: list[Gate] = []
        self._consts: dict[int, int] = {}
        self._vars: dict[int, int] = {}
        self._nots: dict[int, int] = {}

    def add(self, kind: str, var: int = -1, inputs: Iterable[int] = ()) -> int:
        refs = tuple(inputs)
        for ref in refs:
            if not 0 <= ref < len(self._gates):
                raise InputError(f"reference to missing gate {ref}")
        self._gates.append(Gate(kind, var, refs))
        return len(self._gates) - 1

    # deduplicating, constant-folding convenience layer

    def const(self, value: int) -> int:
        if value not in self._consts:
            self._consts[value] = self.add(CONST1 if value else CONST0)
        return self._consts[value]

    def var(self, index: int) -> int:
        if index not in self._vars:
            self._vars[index] = self.add(VAR, var=index)
        return self._vars[index]

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
        if idx not in self._nots:
            self._nots[idx] = self.add(NOT, inputs=(idx,))
        return self._nots[idx]

    def and_(self, inputs: Sequence[int]) -> int:
        kept = []
        for ref in inputs:
            val = self.const_value(ref)
            if val == 0:
                return self.const(0)
            if val is None:
                kept.append(ref)
        if not kept:
            return self.const(1)
        if len(kept) == 1:
            return kept[0]
        return self.add(AND, inputs=kept)

    def or_(self, inputs: Sequence[int]) -> int:
        kept = []
        for ref in inputs:
            val = self.const_value(ref)
            if val == 1:
                return self.const(1)
            if val is None:
                kept.append(ref)
        if not kept:
            return self.const(0)
        if len(kept) == 1:
            return kept[0]
        return self.add(OR, inputs=kept)

    def exclusive_or(self, branches: Sequence[int]) -> int:
        """The chain b1 or (not b1 and (b2 or (not b2 and ...))): true when
        some branch is, with no valuation satisfying two children of an OR."""
        if not branches:
            return self.const(0)
        acc = branches[-1]
        for branch in reversed(branches[:-1]):
            acc = self.add(OR, inputs=(branch, self.add(AND, inputs=(self.negate(branch), acc))))
        return acc

    def build(self, output: int, *, deterministic_by_construction: bool = False) -> Circuit:
        keep = set()
        stack = [output]
        while stack:
            idx = stack.pop()
            if idx in keep:
                continue
            keep.add(idx)
            stack.extend(self._gates[idx].inputs)
        order = sorted(keep)
        remap = {old: new for new, old in enumerate(order)}
        gates = [
            Gate(g.kind, g.var, tuple(remap[r] for r in g.inputs))
            for g in (self._gates[i] for i in order)
        ]
        return Circuit(gates, remap[output], self.var_count, deterministic_by_construction)


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
    return Circuit(gates, line_gate[-1], n)


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


def _scopes(circuit: Circuit) -> list[int]:
    """Per-gate scope bitmasks: bit v is set when variable v lies below the
    gate.  Built in one pass for the caller's own pass and dropped with it;
    an int per gate costs a bit per variable where a set of ints cost tens
    of bytes per member."""
    masks: list[int] = []
    for gate in circuit.gates:
        if gate.kind == VAR:
            masks.append(1 << gate.var)
        else:
            acc = 0
            for r in gate.inputs:
                acc |= masks[r]
            masks.append(acc)
    return masks


def check_decomposable(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Structural check: each AND's children must have pairwise disjoint
    scopes, which holds exactly when their scope sizes sum to the size of
    the AND's own scope.  Returns the offending gate indices."""
    scopes = _scopes(circuit)
    bad = [
        idx
        for idx, gate in enumerate(circuit.gates)
        if gate.kind == AND
        and sum(scopes[r].bit_count() for r in gate.inputs) != scopes[idx].bit_count()
    ]
    return (not bad, tuple(bad))


def check_deterministic_exhaustive(
    circuit: Circuit, *, bound: int = DETERMINISM_BOUND
) -> tuple[str, tuple[int, ...] | None]:
    """Exhaustively verify that no valuation satisfies two children of any
    OR gate.  Returns ("verified", None), ("refuted", witness) with the
    witness as a sorted tuple of true variables, or ("assumed", None) when
    the variable count exceeds the bound."""
    if circuit.var_count > bound:
        return ("assumed", None)
    tables = gate_tables(circuit)
    for gate in circuit.gates:
        if gate.kind != OR:
            continue
        seen = 0
        conflict = 0
        for r in gate.inputs:
            conflict |= seen & tables[r]
            seen |= tables[r]
        if conflict:
            index = (conflict & -conflict).bit_length() - 1
            witness = tuple(v for v in range(circuit.var_count) if (index >> v) & 1)
            return ("refuted", witness)
    return ("verified", None)


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


def _widths(circuit: Circuit, sizes: list[int], arities: Sequence[int]) -> list[int]:
    """Per gate, the arities summed over its scope: the first arity times
    the scope's size, corrected by one masked popcount for each other
    arity.  Only a query with mixed arities builds the scope masks again,
    and drops them with it, so no mask is held while a pass runs."""
    base = arities[0] if arities else 0
    widths = [base * size for size in sizes]
    scopes = _scopes(circuit) if len(set(arities)) > 1 else []
    for ell in set(arities) - {base}:
        group = sum(1 << var for var, a in enumerate(arities) if a == ell)
        widths = [w + (ell - base) * (m & group).bit_count() for w, m in zip(widths, scopes)]
    return widths


def _last_readers(circuit: Circuit) -> list[int]:
    """The index of each gate's last reader (its own for the output)."""
    last = list(range(len(circuit.gates)))
    for idx, gate in enumerate(circuit.gates):
        for ref in gate.inputs:
            last[ref] = idx
    return last


def count_oracle(circuit: Circuit):
    """Count oracle for the reductions: arities -> model count of
    C[x_v <- z_1 or ... or z_l], l = arities[v], over sum(arities) fresh
    variables, as one weighted pass over C itself.  The circuit is
    validated and its scope sizes taken once, when the oracle is made."""
    _countable(circuit)
    sizes = [mask.bit_count() for mask in _scopes(circuit)]
    return lambda arities: _count(circuit, _widths(circuit, sizes, arities), arities)


def model_count_dd(circuit: Circuit) -> int:
    """Exact model count in one bottom-up pass."""
    return count_oracle(circuit)((1,) * circuit.var_count)


def _count(circuit: Circuit, widths: list[int], arities: Sequence[int]) -> int:
    """Each gate's count is taken over its width, the arities summed over
    its scope: a variable is true on 2^l - 1 of its 2^l assignments, OR
    children are scaled by 2^(width gap), and the output by 2^(sum(arities)
    - its width).  Counts are dropped after their last reader."""
    _check_arities(arities, circuit.var_count)
    last = _last_readers(circuit)
    counts: list[int | None] = []
    for idx, gate in enumerate(circuit.gates):
        if gate.kind == CONST0:
            counts.append(0)
        elif gate.kind == CONST1:
            counts.append(1)
        elif gate.kind == VAR:
            counts.append((1 << arities[gate.var]) - 1)
        elif gate.kind == NOT:
            child = gate.inputs[0]
            counts.append((1 << widths[child]) - counts[child])
        elif gate.kind == AND:
            acc = 1
            for r in gate.inputs:
                acc *= counts[r]
            counts.append(acc)
        else:
            acc = 0
            for r in gate.inputs:
                acc += counts[r] << (widths[idx] - widths[r])
            counts.append(acc)
        for r in gate.inputs:
            if last[r] == idx:
                counts[r] = None
    return counts[circuit.output] << (sum(arities) - widths[circuit.output])


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
    last = _last_readers(circuit)
    polys: list[list[int] | None] = []
    for idx, gate in enumerate(circuit.gates):
        if gate.kind == CONST0:
            polys.append([0])
        elif gate.kind == CONST1:
            polys.append([1])
        elif gate.kind == VAR:
            ell = 1 if arities is None else arities[gate.var]
            polys.append([0] + [(-1) ** (j + 1) * comb(ell, j) for j in range(1, ell + 1)])
        elif gate.kind == NOT:
            child = polys[gate.inputs[0]]
            polys.append([1 - child[0]] + [-c for c in child[1:]])
        elif gate.kind == AND:
            acc = [1]
            for r in gate.inputs:
                acc = _convolve(acc, polys[r])
            polys.append(acc)
        else:
            columns = zip_longest(*(polys[r] for r in gate.inputs), fillvalue=0)
            polys.append([sum(c) for c in columns])
        for r in gate.inputs:
            if last[r] == idx and r not in keep:
                polys[r] = None
    return polys


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
    need: list[int] = []
    for gate in gates:
        if gate.kind in (CONST0, CONST1):
            need.append(-1)
        elif gate.kind == VAR:
            need.append(0)
        elif gate.kind == AND:
            degrees = [len(polys[r]) - 1 for r in gate.inputs]
            total = sum(degrees)
            reach = (need[r] + total - d for r, d in zip(gate.inputs, degrees) if need[r] >= 0)
            need.append(max(reach, default=-1))
        else:
            need.append(max(need[r] for r in gate.inputs))
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


def unfold(circuit: Circuit) -> BoolFunc:
    """The circuit as function nodes, one per gate, so shared gates stay
    shared and the result is as small as the circuit."""
    return BoolFunc(_rebuild(circuit, Var), circuit.var_count)


# ---------------------------------------------------------------------------
# Substitution of variables by disjunctions of fresh variables


def literal_occurrences(circuit: Circuit, var: int) -> int:
    """Number of edges into the variable's gates (the output counts as one
    edge): the k_v of the substitution growth bound."""
    gates = circuit.gates
    edges = [r for g in gates for r in g.inputs] + [circuit.output]
    return sum(gates[r].kind == VAR and gates[r].var == var for r in edges)


def or_substitute_all(circuit: Circuit, arities: Sequence[int]) -> Circuit:
    """Replace variable v by a disjunction of arities[v] fresh variables in
    one rebuild, keeping determinism and decomposability.  Variable v's
    fresh block follows those of variables 0..v-1, the numbering of
    `boolfunc.or_substitute`.

    Each variable becomes the exclusive chain (built once)

        D(Z_i..Z_l) = Z_i or (not Z_i and D(Z_(i+1)..Z_l))

    with width 0 giving the constant 0; every other gate, NOT included, is
    rebuilt over its rebuilt inputs.  A substitution maps valuations of the
    fresh variables onto valuations of the old ones and keeps scopes
    disjoint, so OR children stay exclusive and AND children independent
    wherever negation sits.  The copy is certified deterministic exactly
    when the base's determinism is verified (checked or certified).  The
    paper's growth bound, gates added <= 6 * sum of k_v * l_v for k_v the
    edges into v's gates, is checked on the result.
    """
    _check_arities(arities, circuit.var_count)
    builder = CircuitBuilder(sum(arities))
    roots: list[int] = []
    fresh = 0
    for ell in arities:
        block = [builder.add(VAR, var=z) for z in range(fresh, fresh + ell)]
        roots.append(builder.exclusive_or(block))
        fresh += ell

    mapping: list[int] = []
    for gate in circuit.gates:
        if gate.kind == VAR:
            mapping.append(roots[gate.var])
        else:
            mapping.append(builder.add(gate.kind, inputs=tuple(mapping[r] for r in gate.inputs)))

    result = builder.build(
        mapping[circuit.output],
        deterministic_by_construction=validate(circuit).determinism == "verified",
    )
    grown = result.size() - circuit.size()
    edges = [r for g in circuit.gates for r in g.inputs] + [circuit.output]
    bound = 6 * sum(arities[circuit.gates[r].var] for r in edges if circuit.gates[r].kind == VAR)
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
    variable-deleted cofactors are width-0 substitutions."""
    return reductions.shapley_from_kcounts(circuit.var_count, kcount_oracle(circuit))
