import hashlib
import random

import pytest

from helpers import example1, same_dag
from shapcount import gen
from shapcount.boolfunc import (
    AND, CONST0, CONST1, NOT, OR, VAR, Circuit, Gate, brute_count, dnf_from_clauses, truth_table,
)
from shapcount.circuit import CircuitBuilder
from shapcount.errors import InputError
from shapcount.formats import (
    format_dimacs,
    format_sexpr,
    parse_dimacs,
    parse_function,
    parse_sexpr,
)


def test_sexpr_parses_worked_example():
    f = parse_sexpr("(and x0 (or x1 (not x2)))")
    assert f.var_count == 3
    assert f.gates == (
        Gate(VAR, 0), Gate(VAR, 1), Gate(VAR, 2), Gate(NOT, inputs=(2,)),
        Gate(OR, inputs=(1, 3)), Gate(AND, inputs=(0, 4)),
    )
    assert same_dag(f, example1())


def test_sexpr_round_trip():
    f = example1()
    assert same_dag(parse_sexpr(format_sexpr(f)), f)
    padded = Circuit([Gate(CONST0)], 3)
    assert format_sexpr(padded) == "(vars 3 0)"
    assert same_dag(parse_sexpr(format_sexpr(padded)), padded)


def test_sexpr_round_trip_at_depth_3000():
    b = CircuitBuilder(7)
    top = b.add(VAR, 0)
    for level in range(3000):
        if level % 2:
            top = b.add(NOT, inputs=(top,))
        else:
            top = b.add(AND, inputs=(top, b.add(VAR, level % 7)))
    f = b.build(top)
    again = parse_sexpr(format_sexpr(f))
    assert same_dag(again, f) and again.var_count == 7 and truth_table(again) == truth_table(f)


def test_sexpr_vars_wrapper():
    f = parse_sexpr("(vars 5 (or x0 x1))")
    assert f.var_count == 5
    with pytest.raises(InputError):
        parse_sexpr("(vars 1 (or x0 x1))")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(text, message, id=text)
        for text, message in [
            ("", "empty function text"),
            ("(and x0)", "(and ...) needs at least two arguments"),
            ("(or)", "(or ...) needs at least two arguments"),
            ("(nope x0 x1)", "unknown connective 'nope'"),
            ("(and x0 x1", "unterminated (and ...)"),
            ("x0 x1", "trailing input after function: 'x1'"),
            ("(not x0 x1)", "(not ...) takes exactly one argument"),
            ("y3", "unrecognized token 'y3'"),
            ("(vars x (and x0 x1))", "(vars ...) needs a nonnegative count"),
            ("(not)", "(not ...) takes exactly one argument"),
            ("(vars 3)", "(vars ...) takes a count and one expression"),
            (")", "unbalanced ')'"),
            ("((and x0 x1))", "unknown connective '('"),
            ("(and x0 (vars 1 x0))", "(vars ...) may only appear at the top level"),
            ("(vars 2 x0 x1)", "(vars ...) takes a count and one expression"),
            ("(vars -1 x0)", "(vars ...) needs a nonnegative count"),
            ("(vars 3 x0", "unexpected end of function text"),
            ("(vars 1 (or x0 x1))", "declared 1 variables but x1 occurs"),
        ]
    ]
    + [
        pytest.param(
            "(and (not " * 3000 + "x0",
            "unexpected end of function text",
            id="unterminated-at-depth-6000",
        )
    ],
)
def test_sexpr_rejects_malformed(text, message):
    with pytest.raises(InputError) as excinfo:
        parse_sexpr(text)
    assert str(excinfo.value) == message


def test_dimacs_cnf():
    text = "c a comment\np cnf 3 2\n1 -3 0\n2 3 -1 0\n"
    f = parse_dimacs(text)
    assert f.var_count == 3
    assert same_dag(f, parse_sexpr("(and (or x0 (not x2)) (or x1 x2 (not x0)))"))


def test_dimacs_dnf():
    text = "p dnf 4 2\n1 3 0\n2 4 0\n"
    f = parse_dimacs(text)
    assert same_dag(f, parse_sexpr("(or (and x0 x2) (and x1 x3))"))
    assert brute_count(f) == 7


def test_dimacs_degenerate_clauses():
    assert same_dag(parse_dimacs("p cnf 2 0\n"), Circuit([Gate(CONST1)], 2))
    assert same_dag(parse_dimacs("p dnf 2 0\n"), Circuit([Gate(CONST0)], 2))
    assert same_dag(parse_dimacs("p cnf 2 1\n0\n"), Circuit([Gate(CONST0)], 2))
    assert same_dag(parse_dimacs("p dnf 2 1\n0\n"), Circuit([Gate(CONST1)], 2))
    # repeated empty clauses read one constant gate twice
    for kind, empty in (("cnf", CONST0), ("dnf", CONST1)):
        twice = Circuit([Gate(empty), Gate(AND if kind == "cnf" else OR, inputs=(0, 0))], 2)
        assert same_dag(parse_dimacs(f"p {kind} 2 2\n0\n0\n"), twice)


@pytest.mark.parametrize(
    "bad",
    [
        "1 2 0\n",
        "p cnf 2 2\n1 0\n",
        "p cnf 2 1\n5 0\n",
        "p cnf 2 1\n1 2\n",
        "p cnf x y\n",
        "p sat 2 1\n1 0\n",
    ],
)
def test_dimacs_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_dimacs(bad)


def test_dimacs_round_trip():
    text = "p cnf 3 2\n1 -3 0\n2 3 -1 0\n"
    f = parse_dimacs(text)
    assert format_dimacs(f, "cnf") == text
    g = parse_dimacs("p dnf 4 2\n1 3 0\n2 4 0\n")
    assert truth_table(parse_dimacs(format_dimacs(g, "dnf"))) == truth_table(g)


def test_format_dimacs_is_pinned_byte_for_byte():
    # 1000 seeds of each generator shape, as cnf and as dnf, refusals
    # included: a digest of every rendering and every error message
    out = []
    for seed in range(1000):
        for shape in gen.SHAPES:
            f = gen.random_boolfunc(random.Random(seed), shape=shape)
            for kind in ("cnf", "dnf"):
                try:
                    out.append(format_dimacs(f, kind))
                except InputError as exc:
                    out.append(f"InputError: {exc}\n")
    assert sum(line.startswith("InputError") for line in out) == 2203
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "b7658a57df97b976267bd594a38c73bdbe4cc1d0b224a0e63f2905c14f5b2aec"
    # constants are the empty conjunction or the empty disjunction
    for root, cnf, dnf in (
        ("1", "p cnf 2 0\n", "p dnf 2 1\n0\n"),
        ("0", "p cnf 2 1\n0\n", "p dnf 2 0\n"),
    ):
        f = parse_sexpr(f"(vars 2 {root})")
        assert (format_dimacs(f, "cnf"), format_dimacs(f, "dnf")) == (cnf, dnf)
    literal = parse_sexpr("(vars 2 (not x1))")
    assert format_dimacs(literal, "cnf") == "p cnf 2 1\n-2 0\n"
    assert format_dimacs(literal, "dnf") == "p dnf 2 1\n-2 0\n"
    # one clause is the whole function in its own kind, one term per
    # literal in the other
    clause = parse_sexpr("(or x0 (not x2))")
    assert format_dimacs(clause, "cnf") == "p cnf 3 1\n1 -3 0\n"
    assert format_dimacs(clause, "dnf") == "p dnf 3 2\n1 0\n-3 0\n"
    # a clause gate read twice is written twice
    b = CircuitBuilder(2)
    shared = b.add(OR, inputs=(b.add(VAR, 0), b.add(NOT, inputs=(b.add(VAR, 1),))))
    twice = b.build(b.add(AND, inputs=(shared, shared)))
    assert format_dimacs(twice, "cnf") == "p cnf 2 2\n1 -2 0\n1 -2 0\n"
    with pytest.raises(InputError, match="^not a flat cnf function$"):
        format_dimacs(parse_sexpr("(and (or x0 1) x1)"), "cnf")
    with pytest.raises(InputError, match="^not a flat dnf function$"):
        format_dimacs(parse_sexpr("(or (and 0 x1) x0)"), "dnf")
    for kind in ("cnf", "dnf"):
        with pytest.raises(InputError, match=f"^not a flat {kind} function$"):
            format_dimacs(parse_sexpr("(not (and x0 x1))"), kind)
        with pytest.raises(InputError, match=f"^not a flat {kind} function$"):
            format_dimacs(parse_sexpr("(and x0 (not (not x1)))"), kind)
    with pytest.raises(InputError, match="^kind must be 'cnf' or 'dnf'$"):
        format_dimacs(literal, "sat")


def test_parse_function_autodetects():
    pair = Circuit([Gate(VAR, 0), Gate(VAR, 1), Gate(AND, inputs=(0, 1))], 2)
    assert same_dag(parse_function("(and x0 x1)"), pair)
    assert same_dag(parse_function("c hi\np cnf 1 1\n1 0\n"), Circuit([Gate(VAR, 0)], 1))


def test_gate_arrays_are_pinned():
    # every gate array the parsers and generators build, hashed over seeded
    # gen draws of each shape at max_vars 3..13, their s-expression and
    # DIMACS round trips, and seeded dnf_from_clauses clause sets
    digest = hashlib.sha256()

    def record(f) -> None:
        digest.update(repr((f.var_count, f.gates)).encode())

    for max_vars in range(3, 14):
        for shape in gen.SHAPES:
            rng = random.Random(max_vars * 7919 + gen.SHAPES.index(shape))
            for _ in range(100):
                f = gen.random_boolfunc(rng, max_vars=max_vars, shape=shape)
                record(f)
                record(parse_sexpr(format_sexpr(f)))
                for kind in ("cnf", "dnf"):
                    try:
                        text = format_dimacs(f, kind)
                    except InputError as exc:
                        digest.update(str(exc).encode())
                    else:
                        record(parse_dimacs(text))
    # up to 5 clauses over up to 6 variables, about one in twenty empty
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(0, 6)
        clauses = [
            frozenset(rng.sample(range(n), rng.randint(0 if rng.random() < 0.05 else 1, n)))
            for _ in range(rng.randint(0, 5))
        ] if n else [frozenset()] * rng.randint(0, 1)
        record(dnf_from_clauses(clauses, n))
    assert digest.hexdigest() == "281ba5343efd1b47d69380777ee172c4b155b7e9d3c7d3fe236cbbc1f68fb971"
