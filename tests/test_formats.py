import hashlib
import random

import pytest

from helpers import example1, same_dag
from shapcount import gen
from shapcount.boolfunc import And, BoolFunc, Const, Not, Or, Var, brute_count, truth_table
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
    assert same_dag(f, example1())


def test_sexpr_round_trip():
    f = example1()
    assert same_dag(parse_sexpr(format_sexpr(f)), f)
    padded = BoolFunc(Const(0), 3)
    assert format_sexpr(padded) == "(vars 3 0)"
    assert same_dag(parse_sexpr(format_sexpr(padded)), padded)


def test_sexpr_round_trip_at_depth_3000():
    node = Var(0)
    for level in range(3000):
        node = Not(node) if level % 2 else And((node, Var(level % 7)))
    f = BoolFunc(node, 7)
    again = parse_sexpr(format_sexpr(f))
    assert same_dag(again, f) and again.var_count == 7 and truth_table(again) == truth_table(f)


def test_sexpr_vars_wrapper():
    f = parse_sexpr("(vars 5 (or x0 x1))")
    assert f.var_count == 5
    with pytest.raises(InputError):
        parse_sexpr("(vars 1 (or x0 x1))")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(and x0)",
        "(or)",
        "(nope x0 x1)",
        "(and x0 x1",
        "x0 x1",
        "(not x0 x1)",
        "y3",
        "(vars x (and x0 x1))",
        pytest.param("(and (not " * 3000 + "x0", id="unterminated-at-depth-6000"),
    ],
)
def test_sexpr_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_sexpr(bad)


def test_dimacs_cnf():
    text = "c a comment\np cnf 3 2\n1 -3 0\n2 3 -1 0\n"
    f = parse_dimacs(text)
    assert f.var_count == 3
    assert same_dag(
        f, BoolFunc(And((Or((Var(0), Not(Var(2)))), Or((Var(1), Var(2), Not(Var(0)))))), 3)
    )


def test_dimacs_dnf():
    text = "p dnf 4 2\n1 3 0\n2 4 0\n"
    f = parse_dimacs(text)
    assert same_dag(f, BoolFunc(Or((And((Var(0), Var(2))), And((Var(1), Var(3))))), 4))
    assert brute_count(f) == 7


def test_dimacs_degenerate_clauses():
    assert same_dag(parse_dimacs("p cnf 2 0\n"), BoolFunc(Const(1), 2))
    assert same_dag(parse_dimacs("p dnf 2 0\n"), BoolFunc(Const(0), 2))
    assert same_dag(parse_dimacs("p cnf 2 1\n0\n"), BoolFunc(Const(0), 2))
    assert same_dag(parse_dimacs("p dnf 2 1\n0\n"), BoolFunc(Const(1), 2))


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
        (Const(1), "p cnf 2 0\n", "p dnf 2 1\n0\n"),
        (Const(0), "p cnf 2 1\n0\n", "p dnf 2 0\n"),
    ):
        f = BoolFunc(root, 2)
        assert (format_dimacs(f, "cnf"), format_dimacs(f, "dnf")) == (cnf, dnf)
    literal = BoolFunc(Not(Var(1)), 2)
    assert format_dimacs(literal, "cnf") == "p cnf 2 1\n-2 0\n"
    assert format_dimacs(literal, "dnf") == "p dnf 2 1\n-2 0\n"
    # one clause is the whole function in its own kind, one term per
    # literal in the other
    clause = BoolFunc(Or((Var(0), Not(Var(2)))), 3)
    assert format_dimacs(clause, "cnf") == "p cnf 3 1\n1 -3 0\n"
    assert format_dimacs(clause, "dnf") == "p dnf 3 2\n1 0\n-3 0\n"
    # a clause node used twice is written twice
    shared = Or((Var(0), Not(Var(1))))
    twice = BoolFunc(And((shared, shared)), 2)
    assert format_dimacs(twice, "cnf") == "p cnf 2 2\n1 -2 0\n1 -2 0\n"
    with pytest.raises(InputError, match="^not a flat cnf function$"):
        format_dimacs(BoolFunc(And((Or((Var(0), Const(1))), Var(1))), 2), "cnf")
    with pytest.raises(InputError, match="^not a flat dnf function$"):
        format_dimacs(BoolFunc(Or((And((Const(0), Var(1))), Var(0))), 2), "dnf")
    for kind in ("cnf", "dnf"):
        with pytest.raises(InputError, match=f"^not a flat {kind} function$"):
            format_dimacs(BoolFunc(Not(And((Var(0), Var(1)))), 2), kind)
        with pytest.raises(InputError, match=f"^not a flat {kind} function$"):
            format_dimacs(BoolFunc(And((Var(0), Not(Not(Var(1))))), 2), kind)
    with pytest.raises(InputError, match="^kind must be 'cnf' or 'dnf'$"):
        format_dimacs(literal, "sat")


def test_parse_function_autodetects():
    assert same_dag(parse_function("(and x0 x1)"), BoolFunc(And((Var(0), Var(1))), 2))
    assert same_dag(parse_function("c hi\np cnf 1 1\n1 0\n"), BoolFunc(Var(0), 1))
