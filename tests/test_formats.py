import pytest

from helpers import example1
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
    assert f == example1()


def test_sexpr_round_trip():
    f = example1()
    assert parse_sexpr(format_sexpr(f)) == f
    padded = BoolFunc(Const(0), 3)
    assert format_sexpr(padded) == "(vars 3 0)"
    assert parse_sexpr(format_sexpr(padded)) == padded


def test_sexpr_round_trip_at_depth_3000():
    node = Var(0)
    for level in range(3000):
        node = Not(node) if level % 2 else And((node, Var(level % 7)))
    f = BoolFunc(node, 7)
    again = parse_sexpr(format_sexpr(f))
    # compared by truth table: dataclass ==, hash and repr recurse
    count, table = again.var_count, truth_table(again)
    assert count == 7 and table == truth_table(f)


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
    assert f.root == And(
        (Or((Var(0), Not(Var(2)))), Or((Var(1), Var(2), Not(Var(0)))))
    )


def test_dimacs_dnf():
    text = "p dnf 4 2\n1 3 0\n2 4 0\n"
    f = parse_dimacs(text)
    assert f.root == Or((And((Var(0), Var(2))), And((Var(1), Var(3)))))
    assert brute_count(f) == 7


def test_dimacs_degenerate_clauses():
    assert parse_dimacs("p cnf 2 0\n").root == Const(1)
    assert parse_dimacs("p dnf 2 0\n").root == Const(0)
    assert parse_dimacs("p cnf 2 1\n0\n").root == Const(0)
    assert parse_dimacs("p dnf 2 1\n0\n").root == Const(1)


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


def test_parse_function_autodetects():
    assert parse_function("(and x0 x1)").root == And((Var(0), Var(1)))
    assert parse_function("c hi\np cnf 1 1\n1 0\n").root == Var(0)
