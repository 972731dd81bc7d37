"""Text formats for Boolean functions.

Two formats are supported:

* a prefix s-expression grammar: `(and e...)`, `(or e...)`, `(not e)`,
  variables `x<k>` with 0-based indices, constants `0` and `1`, and an
  optional `(vars <n> <expr>)` wrapper that pins the variable count when
  it exceeds the largest index in use;

* DIMACS-style clause files: `p cnf <n> <m>` with one 0-terminated clause
  per record, and the symmetric `p dnf <n> <m>` where each record is a
  conjunctive term.  Negative literals negate, `c` lines are comments.
"""

from __future__ import annotations

import re

from .boolfunc import (
    And,
    BoolFunc,
    Const,
    Node,
    Not,
    Or,
    Var,
    conjunction,
    disjunction,
)
from .errors import InputError

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_VARIABLE = re.compile(r"x(\d+)")


def parse_sexpr(text: str) -> BoolFunc:
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
        if not count_tok.isdigit():
            raise InputError("(vars ...) needs a nonnegative count")
        var_count = int(count_tok)

    needed = 0
    # open connectives, innermost last, each with the arguments parsed so far
    stack: list[tuple[str, list[Node]]] = []
    node: Node | None = None  # a finished subterm not yet given to its parent
    while True:
        if node is not None:
            if not stack:
                break
            stack[-1][1].append(node)
            node = None
        if stack:
            head, children = stack[-1]
            if head == "not":
                if children:
                    if take() != ")":
                        raise InputError("(not ...) takes exactly one argument")
                    stack.pop()
                    node = Not(children[0])
                    continue
            elif peek() == ")":
                take()
                stack.pop()
                if len(children) < 2:
                    raise InputError(f"({head} ...) needs at least two arguments")
                node = And(tuple(children)) if head == "and" else Or(tuple(children))
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
        elif tok == ")":
            raise InputError("unbalanced ')'")
        elif tok == "0":
            node = Const(0)
        elif tok == "1":
            node = Const(1)
        else:
            m = _VARIABLE.fullmatch(tok)
            if not m:
                raise InputError(f"unrecognized token {tok!r}")
            index = int(m.group(1))
            needed = max(needed, index + 1)
            node = Var(index)
    root = node

    if var_count is not None and take() != ")":
        raise InputError("(vars ...) takes a count and one expression")
    if pos != len(tokens):
        raise InputError(f"trailing input after function: {tokens[pos]!r}")
    if var_count is None:
        var_count = needed
    elif var_count < needed:
        raise InputError(f"declared {var_count} variables but x{needed - 1} occurs")
    return BoolFunc(root, var_count)


def format_sexpr(func: BoolFunc) -> str:
    """One-line rendering, always with the (vars ...) wrapper so the variable
    count round-trips."""
    # each node's text is a tuple of pieces holding its children's tuples, so
    # it costs O(1) to build; one join at the end keeps time and memory
    # linear in the output at any depth
    pieces: dict[int, tuple] = {}
    for node in func._order:
        if isinstance(node, Const):
            piece: tuple = (str(node.value),)
        elif isinstance(node, Var):
            piece = (f"x{node.index}",)
        elif isinstance(node, Not):
            piece = ("(not ", pieces[id(node.child)], ")")
        else:
            head = "(and" if isinstance(node, And) else "(or"
            piece = (head, *(p for c in node.children for p in (" ", pieces[id(c)])), ")")
        pieces[id(node)] = piece
    out: list[str] = []
    stack: list = [pieces[id(func.root)]]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(item))
    return f"(vars {func.var_count} " + "".join(out) + ")"


def parse_dimacs(text: str) -> BoolFunc:
    """Parse `p cnf` or `p dnf` clause files into a function tree."""
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

    def literal(lit: int) -> Node:
        v = Var(abs(lit) - 1)
        return Not(v) if lit < 0 else v

    if kind == "cnf":
        # an empty clause is an empty disjunction: false
        parts = [disjunction([literal(l) for l in cl]) for cl in clauses]
        return BoolFunc(conjunction(parts), var_count)
    parts = [conjunction([literal(l) for l in cl]) for cl in clauses]
    return BoolFunc(disjunction(parts), var_count)


def format_dimacs(func: BoolFunc, kind: str) -> str:
    """Render a flat CNF/DNF-shaped function back to DIMACS text."""
    if kind not in ("cnf", "dnf"):
        raise InputError("kind must be 'cnf' or 'dnf'")
    outer, inner = (And, Or) if kind == "cnf" else (Or, And)

    def literal(node: Node) -> int:
        if isinstance(node, Var):
            return node.index + 1
        if isinstance(node, Not) and isinstance(node.child, Var):
            return -(node.child.index + 1)
        raise InputError(f"not a flat {kind} function")

    def clause(node: Node) -> list[int]:
        if isinstance(node, inner):
            return [literal(c) for c in node.children]
        return [literal(node)]

    root = func.root
    if isinstance(root, Const):
        empty_means_true = kind == "cnf"
        if (root.value == 1) == empty_means_true:
            clauses: list[list[int]] = []
        else:
            clauses = [[]]
    elif isinstance(root, outer):
        clauses = [clause(c) for c in root.children]
    else:
        clauses = [clause(root)]
    lines = [f"p {kind} {func.var_count} {len(clauses)}"]
    lines.extend(" ".join(str(l) for l in cl + [0]) for cl in clauses)
    return "\n".join(lines) + "\n"


def parse_function(text: str) -> BoolFunc:
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
