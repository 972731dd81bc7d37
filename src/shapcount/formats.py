"""Text formats for Boolean functions.

Two formats are supported:

* a prefix s-expression grammar: `(and e...)`, `(or e...)`, `(not e)`,
  variables `x<k>` with 0-based indices, constants `0` and `1`, and an
  optional `(vars <n> <expr>)` wrapper that pins the variable count when
  it exceeds the largest index in use;

* DIMACS-style clause files: `p cnf <n> <m>` with one 0-terminated clause
  per record, and the symmetric `p dnf <n> <m>` where each record is a
  conjunctive term.  Negative literals negate, `c` lines are comments.

Both parsers append `Gate`s in the order the text names them, each
connective after its arguments, and pass the list to `Circuit`: one gate
per occurrence of a constant, variable or connective, so the array is as
large as the text.  In DIMACS a one-literal clause is its literal, a
one-clause file is its clause, and all empty clauses read one shared
constant gate.
"""

from __future__ import annotations

import re

from .boolfunc import AND, CONST0, CONST1, NOT, OR, VAR, Circuit, Gate, _fold
from .errors import InputError

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_VARIABLE = re.compile(r"x(\d+)")


def parse_sexpr(text: str) -> Circuit:
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise InputError("empty function text")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise InputError("unexpected end of function text")
        tok = tokens[pos]
        pos += 1
        return tok

    var_count = None
    if tokens[:2] == ["(", "vars"]:
        pos = 2
        count_tok = take()
        if not count_tok.isdecimal():  # what int() and the \d of _VARIABLE accept
            raise InputError("(vars ...) needs a nonnegative count")
        var_count = int(count_tok)

    needed = 0
    gates: list[Gate] = []  # in post-order, so each closing parenthesis appends its gate
    # open connectives, innermost last, each with the gates of the arguments parsed so far
    stack: list[tuple[str, list[int]]] = []
    done = False  # whether gates[-1] is a finished subterm not yet given to its parent
    while True:
        if done:
            if not stack:
                break
            stack[-1][1].append(len(gates) - 1)
            done = False
        if stack:
            head, children = stack[-1]
            if head == "not":
                if children:
                    if take() != ")":
                        raise InputError("(not ...) takes exactly one argument")
                    stack.pop()
                    gates.append(Gate(NOT, inputs=(children[0],)))
                    done = True
                    continue
            elif peek() == ")":
                take()
                stack.pop()
                if len(children) < 2:
                    raise InputError(f"({head} ...) needs at least two arguments")
                gates.append(Gate(AND if head == "and" else OR, inputs=tuple(children)))
                done = True
                continue
            elif peek() is None:
                raise InputError(f"unterminated ({head} ...)")
        tok = take()
        if tok == "(":
            head = take()
            if head == "vars":
                raise InputError("(vars ...) may only appear at the top level")
            if head not in ("not", "and", "or"):
                raise InputError(f"unknown connective {head!r}")
            stack.append((head, []))
            continue
        if tok == ")":
            raise InputError("unbalanced ')'")
        if tok == "0" or tok == "1":
            gates.append(Gate(CONST1 if tok == "1" else CONST0))
        else:
            m = _VARIABLE.fullmatch(tok)
            if not m:
                raise InputError(f"unrecognized token {tok!r}")
            index = int(m.group(1))
            needed = max(needed, index + 1)
            gates.append(Gate(VAR, index))
        done = True

    if var_count is not None and take() != ")":
        raise InputError("(vars ...) takes a count and one expression")
    if pos != len(tokens):
        raise InputError(f"trailing input after function: {tokens[pos]!r}")
    if var_count is None:
        var_count = needed
    elif var_count < needed:
        raise InputError(f"declared {var_count} variables but x{needed - 1} occurs")
    return Circuit(gates, var_count)


def format_sexpr(func: Circuit) -> str:
    """One-line rendering, always with the (vars ...) wrapper so the variable
    count round-trips."""
    # each gate's text is a tuple of pieces holding its inputs' tuples, so
    # it costs O(1) to build; one join at the end keeps time and memory
    # linear in the output at any depth
    def connective(head: str):
        return lambda parts: (head, *(p for part in parts for p in (" ", part)), ")")

    variable, negation = lambda v: (f"x{v}",), lambda part: ("(not ", part, ")")
    pieces = _fold(func, variable, ("0",), ("1",), negation, connective("(and"), connective("(or"))
    out: list[str] = []
    stack: list = [pieces[func.output]]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(item))
    return f"(vars {func.var_count} " + "".join(out) + ")"


def parse_dimacs(text: str) -> Circuit:
    """Parse `p cnf` or `p dnf` clause files into a function."""
    kind = None
    var_count = 0
    clause_count = 0
    literals: list[int] = []
    clauses: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if kind is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] not in ("cnf", "dnf"):
                raise InputError(f"line {lineno}: expected 'p cnf <n> <m>' or 'p dnf <n> <m>'")
            try:
                var_count, clause_count = int(fields[2]), int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed problem line") from None
            if var_count < 0 or clause_count < 0:
                raise InputError(f"line {lineno}: negative counts")
            kind = fields[1]
            continue
        if kind is None:
            raise InputError(f"line {lineno}: clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise InputError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(literals)
                literals = []
            else:
                if not 1 <= abs(lit) <= var_count:
                    raise InputError(f"line {lineno}: literal {lit} out of range")
                literals.append(lit)
    if kind is None:
        raise InputError("missing problem line")
    if literals:
        raise InputError("last clause is not 0-terminated")
    if len(clauses) != clause_count:
        raise InputError(f"header declares {clause_count} clauses, found {len(clauses)}")

    # each literal gets gates of its own, and the empty clauses share one
    # constant: the empty disjunction is false, the empty conjunction true
    inner, outer = (OR, AND) if kind == "cnf" else (AND, OR)
    unit = {OR: CONST0, AND: CONST1}
    gates: list[Gate] = []
    parts: list[int] = []
    empty: int | None = None
    for clause in clauses:
        if not clause:
            if empty is None:
                empty = len(gates)
                gates.append(Gate(unit[inner]))
            parts.append(empty)
            continue
        literals = []
        for lit in clause:
            gates.append(Gate(VAR, abs(lit) - 1))
            if lit < 0:
                gates.append(Gate(NOT, inputs=(len(gates) - 1,)))
            literals.append(len(gates) - 1)
        if len(literals) > 1:
            gates.append(Gate(inner, inputs=tuple(literals)))
        parts.append(len(gates) - 1)
    if len(parts) > 1:
        gates.append(Gate(outer, inputs=tuple(parts)))
    return Circuit(gates or [Gate(unit[outer])], var_count)


def format_dimacs(func: Circuit, kind: str) -> str:
    """Render a flat CNF/DNF-shaped function back to DIMACS text."""
    if kind not in ("cnf", "dnf"):
        raise InputError("kind must be 'cnf' or 'dnf'")
    outer, inner = (AND, OR) if kind == "cnf" else (OR, AND)
    gates = func.gates

    def literal(index: int) -> int:
        gate, sign = gates[index], 1
        if gate.kind == NOT:
            gate, sign = gates[gate.inputs[0]], -1
        if gate.kind != VAR:
            raise InputError(f"not a flat {kind} function")
        return sign * (gate.var + 1)

    def clause(index: int) -> list[int]:
        gate = gates[index]
        return [literal(c) for c in gate.inputs] if gate.kind == inner else [literal(index)]

    root = gates[func.output]
    if root.kind in (CONST0, CONST1):
        # the empty conjunction is true, the empty disjunction false
        clauses: list[list[int]] = [] if (root.kind == CONST1) == (kind == "cnf") else [[]]
    else:
        clauses = [clause(c) for c in (root.inputs if root.kind == outer else (func.output,))]
    lines = [f"p {kind} {func.var_count} {len(clauses)}"]
    lines.extend(" ".join(str(l) for l in cl + [0]) for cl in clauses)
    return "\n".join(lines) + "\n"


def parse_function(text: str) -> Circuit:
    """Autodetect the format: DIMACS if the first effective line is a
    problem or comment line, s-expression otherwise."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("p ") or line.startswith("p\t") or line.startswith("c"):
            return parse_dimacs(text)
        break
    return parse_sexpr(text)
