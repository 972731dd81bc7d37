import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import shapcount
from helpers import EXAMPLE_NNF
from shapcount import lineage as lg
from shapcount.cli import main

EX1 = "(and x0 (or x1 (not x2)))"
# 3000 levels: 1500 times (and (not g) x1) around x0, which is x0 and x1
DEEP = "(and (not " * 1500 + "x0" + ") x1)" * 1500
# 3000 levels of (g and 1) around x0, which is x0
DEEP_NNF = "nnf 6001 6000 1\nL 1\n" + "".join(
    f"T\nA 2 {2 * i} {2 * i + 1}\n" for i in range(3000)
)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "ex1.bf").write_text(EX1)
    (tmp_path / "ex.nnf").write_text(EXAMPLE_NNF)
    (tmp_path / "rst.q").write_text("Q :- R(x), S(x,y), T(y)\n")
    (tmp_path / "join.q").write_text("Q :- R1(x), R2(x)\n")
    rst = tmp_path / "rst"
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, False), lg.Relation("T", 1, True))
    )
    lg.write_database(
        lg.Database(
            schema,
            {"R": [("a1",), ("a2",)], "S": [("a1", "b1"), ("a2", "b2")], "T": [("b1",), ("b2",)]},
        ),
        rst,
    )
    join = tmp_path / "join"
    schema2 = lg.Schema((lg.Relation("R1", 1, True), lg.Relation("R2", 1, True)))
    lg.write_database(
        lg.Database(schema2, {"R1": [("a1",), ("a2",)], "R2": [("a1",), ("a2",)]}), join
    )
    return tmp_path


FALLBACK_NOTE = (
    "shapcount: note: non-hierarchical query: falling back to exhaustive "
    "enumeration of the lineage\n"
)


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_count_formula(workspace, capsys):
    code, out = run(capsys, "count", workspace / "ex1.bf")
    assert code == 0 and out == "3\n"
    (workspace / "zero.bf").write_text("(vars 3 0)")
    code, out = run(capsys, "count", workspace / "zero.bf")
    assert code == 0 and out == "0\n"


def test_count_circuit(workspace, capsys):
    code, out = run(capsys, "count", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 0 and out == "4\n"


def test_count_lineage_both_branches(workspace, capsys):
    code, out = run(capsys, "count", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 0 and out == "7\n"
    code, out = run(capsys, "count", workspace / "rst.q", workspace / "rst", "--kind", "lineage")
    assert code == 0 and out == "7\n"


def test_kcount_methods_agree(workspace, capsys):
    outputs = set()
    for method in ("paper", "brute"):
        code, out = run(capsys, "kcount", workspace / "ex1.bf", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {"0,1,1,1\n"}
    for method in ("paper", "direct", "brute"):
        code, out = run(capsys, "kcount", workspace / "ex.nnf", "--kind", "circuit", "--method", method)
        assert code == 0 and out == "0,1,2,1\n"


def test_kcount_dimacs_dnf(workspace, capsys):
    (workspace / "pairs.cnf").write_text("p dnf 4 2\n1 3 0\n2 4 0\n")
    code, out = run(capsys, "kcount", workspace / "pairs.cnf", "--method", "paper")
    assert code == 0 and out == "0,0,2,4,1\n"
    (workspace / "one.bf").write_text("(vars 2 1)")
    code, out = run(capsys, "kcount", workspace / "one.bf", "--method", "brute")
    assert code == 0 and out == "1,2,1\n"


def test_kcount_direct_needs_structure(workspace, capsys):
    code, _ = run(capsys, "kcount", workspace / "ex1.bf", "--method", "direct")
    assert code == 2


def test_shapley_formula_and_circuit(workspace, capsys):
    code, out = run(capsys, "shapley", workspace / "ex1.bf")
    assert code == 0 and out == "5/6,1/3,-1/6\n"
    (workspace / "zero.bf").write_text("(vars 2 0)")
    code, out = run(capsys, "shapley", workspace / "zero.bf")
    assert code == 0 and out == "0/1,0/1\n"
    code, brute = run(capsys, "shapley", workspace / "ex1.bf", "--method", "brute")
    assert code == 0 and brute == "5/6,1/3,-1/6\n"
    code, out = run(capsys, "shapley", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 0 and out == "0/1,1/2,1/2\n"


def test_shapley_lineage_csv(workspace, capsys):
    code, out = run(capsys, "shapley", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 0
    assert out == "R1,0,1,4\nR1,1,1,4\nR2,0,1,4\nR2,1,1,4\n"
    code, brute = run(
        capsys,
        "shapley", workspace / "join.q", workspace / "join", "--kind", "lineage", "--method", "brute",
    )
    assert code == 0 and brute == out
    hard = [workspace / "rst.q", workspace / "rst", "--kind", "lineage"]
    code, brute = run(capsys, "shapley", *hard, "--method", "brute")
    assert code == 0
    code = main(["shapley", *map(str, hard)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == brute and captured.err == FALLBACK_NOTE


def test_lineage_shapley_takes_the_direct_pass(workspace, capsys, monkeypatch):
    # FP lineage and a circuit file alike: no reduction, oracle or substituted copy
    from shapcount import circuit as ct
    from shapcount import reductions

    called = []

    def refuse(module, name):
        def fail(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(module, name, fail)

    refuse(reductions, "shapley_from_kcounts")
    for name in ("kcount_oracle", "or_substitute_all", "size_polynomial_count"):
        refuse(ct, name)
    code, out = run(capsys, "shapley", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert called == []
    assert code == 0 and out == "R1,0,1,4\nR1,1,1,4\nR2,0,1,4\nR2,1,1,4\n"
    code, out = run(capsys, "shapley", workspace / "ex.nnf", "--kind", "circuit")
    assert called == []
    assert code == 0 and out == "0/1,1/2,1/2\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("count", "{ws}/join.q", "{ws}/join", "--kind", "lineage"), id="count"),
        pytest.param(("shapley", "{ws}/join.q", "{ws}/join", "--kind", "lineage"), id="shapley"),
        pytest.param(("compare", "{ws}/join.q", "{ws}/join", "--kind", "lineage"), id="compare"),
        pytest.param(("check", "{ws}/join.q"), id="check-hierarchical"),
        pytest.param(("check", "{ws}/rst.q"), id="check-not-hierarchical"),
    ],
)
def test_lineage_query_is_classified_once(workspace, capsys, monkeypatch, argv):
    calls = []
    is_hierarchical = lg.is_hierarchical

    def counting(query):
        calls.append(query)
        return is_hierarchical(query)

    monkeypatch.setattr(lg, "is_hierarchical", counting)
    code, _ = run(capsys, *(a.format(ws=workspace) for a in argv))
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize(
    "argv, want",
    [
        (("kcount", "{ws}/ex.nnf", "--kind", "circuit"), "0,1,2,1\n"),
        (("kcount", "{ws}/join.q", "{ws}/join", "--kind", "lineage"), "0,0,2,4,1\n"),
        (("shapley", "{ws}/ex.nnf", "--kind", "circuit"), "0/1,1/2,1/2\n"),
    ],
)
def test_circuit_pipelines_build_no_substituted_copy(workspace, capsys, monkeypatch, argv, want):
    from shapcount import circuit as ct

    def refuse(*args):
        raise AssertionError("or_substitute_all called")

    monkeypatch.setattr(ct, "or_substitute_all", refuse)
    code, out = run(capsys, *[a.format(ws=workspace) for a in argv])
    assert code == 0 and out == want


def test_shapley_hard_branch_refusal_exit_code(workspace, capsys):
    code, _ = run(
        capsys,
        "shapley", workspace / "rst.q", workspace / "rst",
        "--kind", "lineage", "--max-vars", "3",
    )
    assert code == 3


def test_shapley_self_join_refusal_exit_code(workspace, capsys):
    (workspace / "sj.q").write_text("Q :- R1(x), R1(y)\n")
    argv = ["shapley", workspace / "sj.q", workspace / "join", "--kind", "lineage"]
    code = main([str(a) for a in argv])
    assert code == 3 and "--method brute" in capsys.readouterr().err
    code, out = run(capsys, *argv, "--method", "brute")
    assert code == 0 and out == "R1,0,1,2\nR1,1,1,2\nR2,0,0,1\nR2,1,0,1\n"


def test_check_classifications(workspace, capsys):
    code, out = run(capsys, "check", workspace / "rst.q")
    assert code == 0
    assert "hierarchical: no" in out and "witness: x,y" in out and "branch: hard" in out

    (workspace / "easy.q").write_text("Q :- R(x), S(x)\n")
    code, out = run(capsys, "check", workspace / "easy.q")
    assert "hierarchical: yes" in out and "branch: FP" in out

    (workspace / "sj.q").write_text("Q :- R(x), R(y)\n")
    code, out = run(capsys, "check", workspace / "sj.q")
    assert "self_join_free: no" in out and "self-join" in out


def test_lineage_emission(workspace, capsys):
    code, out = run(capsys, "lineage", workspace / "rst.q", workspace / "rst")
    assert code == 0
    assert out.splitlines()[0] == "(vars 4 (or (and x0 x2) (and x1 x3)))"
    assert out.splitlines()[1:] == ["0,R,0", "1,R,1", "2,T,0", "3,T,1"]

    outdir = workspace / "lin"
    code, _ = run(capsys, "lineage", workspace / "rst.q", workspace / "rst", "--out", outdir)
    assert code == 0
    assert (outdir / "lineage.txt").read_text().startswith("(vars 4 ")
    assert (outdir / "tuple_map.csv").read_text().splitlines()[0] == "0,R,0"


def test_stretch_round_trip(workspace, capsys):
    outdir = workspace / "stretched"
    code, out = run(
        capsys,
        "stretch", workspace / "rst.q", workspace / "rst",
        "--mode", "expand:2,1,0,3", "--out", outdir,
    )
    assert code == 0
    assert out == "Q :- R(z1, x), S(x, y), T(z2, y)\n"
    again = lg.load_database(outdir)
    query = lg.parse_query((outdir / "query.txt").read_text())
    built = lg.build_lineage(query, again)
    # source tuples 0 (x2), 1 (x1), 2 (dropped), 3 (x3) leave 2*0 + 1*3 clauses... none for x0's partner
    var_map = {}
    for line in (outdir / "var_map.csv").read_text().splitlines():
        new, rel, row, src, fresh = line.split(",")
        var_map[int(new)] = int(src)
    mapped = {frozenset(var_map[z] for z in c) for c in built.clauses}
    assert mapped == {frozenset({1, 3})}

    dummy_dir = workspace / "dummy"
    code, out = run(
        capsys, "stretch", workspace / "rst.q", workspace / "rst", "--mode", "dummy",
        "--out", dummy_dir,
    )
    assert code == 0 and out == "Q :- R(z1, x), S(x, y), T(z2, y)\n"
    stretched_db = lg.load_database(dummy_dir)
    assert stretched_db.rows["R"] == (("d", "a1"), ("d", "a2"))
    query = lg.parse_query((dummy_dir / "query.txt").read_text())
    assert lg.build_lineage(query, stretched_db).clauses == lg.build_lineage(
        lg.parse_query("Q :- R(x), S(x,y), T(y)"), lg.load_database(workspace / "rst")
    ).clauses

    code, _ = run(capsys, "stretch", workspace / "rst.q", workspace / "rst", "--mode", "dummy")
    assert code == 2  # --out is required


def test_stretch_writes_quoted_constants_unchanged(workspace, capsys):
    (workspace / "comma.q").write_text("Q :- R(x), S(x, 'a,b')\n")
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, False)))
    rows = {"R": [("a1",), ("a2",)], "S": [("a1", "a,b"), ("a2", "a")]}
    lg.write_database(lg.Database(schema, rows), workspace / "comma")
    outdir = workspace / "stretched"
    argv = ("stretch", workspace / "comma.q", workspace / "comma", "--mode", "dummy")
    code, out = run(capsys, *argv, "--out", outdir)
    want = "Q :- R(z1, x), S(x, 'a,b')\n"
    assert code == 0 and out == want and (outdir / "query.txt").read_text() == want
    query = lg.parse_query(want)
    assert query == lg.stretch_query(lg.parse_query("Q :- R(x), S(x, 'a,b')"), schema)
    assert lg.build_lineage(query, lg.load_database(outdir)).clauses == (frozenset({0}),)


def test_stretch_writes_parenthesized_constants_that_lineage_reads(workspace, capsys):
    (workspace / "paren.q").write_text("Q :- R(x), S(x, 'f(a, b)')\n")
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, False)))
    rows = {"R": [("a1",), ("a2",)], "S": [("a1", "f(a, b)"), ("a2", "f(a")]}
    lg.write_database(lg.Database(schema, rows), workspace / "paren")
    outdir = workspace / "stretched"
    argv = ("stretch", workspace / "paren.q", workspace / "paren", "--mode", "dummy")
    code, out = run(capsys, *argv, "--out", outdir)
    want = "Q :- R(z1, x), S(x, 'f(a, b)')\n"
    assert code == 0 and out == want and (outdir / "query.txt").read_text() == want
    code, out = run(capsys, "lineage", outdir / "query.txt", outdir)
    assert code == 0 and out == "(vars 2 x0)\n0,R,0\n1,R,1\n"


def test_csv_outputs_are_pinned_byte_for_byte(workspace, capsys):
    hard = [workspace / "rst.q", workspace / "rst", "--kind", "lineage"]
    code = main(["shapley", *map(str, hard)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == "R,0,1,4\nR,1,1,4\nT,0,1,4\nT,1,1,4\n"
    assert captured.err == FALLBACK_NOTE

    code, _ = run(capsys, "lineage", *hard[:2], "--out", workspace / "lin")
    assert code == 0
    assert (workspace / "lin" / "tuple_map.csv").read_bytes() == b"0,R,0\n1,R,1\n2,T,0\n3,T,1\n"

    outdir = workspace / "stretched"
    code, _ = run(capsys, "stretch", *hard[:2], "--mode", "expand:2,1,0,3", "--out", outdir)
    assert code == 0
    want = {
        "var_map.csv": b"0,R,0,0,z!R!1\n1,R,1,0,z!R!2\n2,R,2,1,z!R!3\n"
        b"3,T,0,3,z!T!1\n4,T,1,3,z!T!2\n5,T,2,3,z!T!3\n",
        "R.csv": b"z!R!1,a1\nz!R!2,a1\nz!R!3,a2\n",
        "S.csv": b"a1,b1\na2,b2\n",
        "T.csv": b"z!T!1,b2\nz!T!2,b2\nz!T!3,b2\n",
        "schema.txt": b"R 2 endo\nS 2 exo\nT 2 endo\n",
        "query.txt": b"Q :- R(z1, x), S(x, y), T(z2, y)\n",
    }
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == want


def test_stretch_checks_the_query_against_the_schema(workspace, capsys):
    (workspace / "bad.q").write_text("Q :- R(x, y), S(x)\n")
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, False)))
    lg.write_database(lg.Database(schema, {"R": [("a",)], "S": [("a", "b")]}), workspace / "bad")
    outdir = workspace / "D"
    argv = ("stretch", workspace / "bad.q", workspace / "bad", "--mode", "dummy", "--out", outdir)
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "atom R has 2 arguments, relation has arity 1" in captured.err
    assert not outdir.exists()


def test_pp2dnf_emission(workspace, capsys):
    edges = workspace / "edges.txt"
    edges.write_text("1 1\n2 2\n")
    outdir = workspace / "pp"
    code, out = run(capsys, "pp2dnf", edges, "--out", outdir)
    assert code == 0 and out == "Q :- R(x), S(x, y), T(y)\n"
    code, out = run(capsys, "count", outdir / "query.txt", outdir, "--kind", "lineage")
    assert code == 0 and out == "7\n"


@pytest.mark.parametrize("verb", ["stretch", "pp2dnf"])
def test_instance_writers_need_an_out_directory(workspace, capsys, verb):
    (workspace / "edges.txt").write_text("1 1\n")
    inputs = ["edges.txt"] if verb == "pp2dnf" else ["rst.q", "rst"]
    code = main([verb, *(str(workspace / name) for name in inputs)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    want = f"{verb} writes a database directory; pass --out"
    assert captured.err == f"shapcount: input error: {want}\n"


def test_compare_all_kinds(workspace, capsys):
    code, out = run(capsys, "compare", workspace / "ex1.bf")
    assert code == 0 and out.rstrip().endswith("agreement ok")
    assert out.startswith("compare kind=formula input=sha256:")
    assert "oracle_calls kcount_pipeline=4 shapley_count_pipeline=9" in out
    code, out = run(capsys, "compare", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 0 and "agreement ok" in out
    code, out = run(capsys, "compare", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 0 and "branch FP" in out
    code, out = run(capsys, "compare", workspace / "rst.q", workspace / "rst", "--kind", "lineage")
    assert code == 0 and "branch hard" in out


@pytest.mark.parametrize(
    "argv, want",
    [
        pytest.param(
            ("{ws}/ex1.bf",),
            "compare kind=formula input=sha256:90e77787c05c2361\n"
            "count brute=3 via_shapley=3\n"
            "kcounts brute=0,1,1,1 paper=0,1,1,1 and=0,1,1,1\n"
            "shapley brute=5/6,1/3,-1/6 reduction=5/6,1/3,-1/6\n"
            "oracle_calls kcount_pipeline=4 shapley_count_pipeline=9\n"
            "agreement ok\n",
            id="formula",
        ),
        pytest.param(
            ("{ws}/ex.nnf", "--kind", "circuit"),
            "compare kind=circuit input=sha256:62bfcab405636e0d\n"
            "count dd=4 brute=4\n"
            "kcounts direct=0,1,2,1 paper=0,1,2,1 brute=0,1,2,1\n"
            "shapley circuit=0/1,1/2,1/2 brute=0/1,1/2,1/2\n"
            "agreement ok\n",
            id="circuit",
        ),
        pytest.param(
            ("{ws}/join.q", "{ws}/join", "--kind", "lineage"),
            "compare kind=lineage input=sha256:cde6f411adde5f69\n"
            "count brute=7\n"
            "branch FP\n"
            "kcounts brute=0,0,2,4,1\n"
            "shapley brute=1/4,1/4,1/4,1/4\n"
            "count circuit=7\n"
            "kcounts direct=0,0,2,4,1 brute=0,0,2,4,1\n"
            "shapley circuit=1/4,1/4,1/4,1/4 brute=1/4,1/4,1/4,1/4\n"
            "agreement ok\n",
            id="lineage-fp",
        ),
        pytest.param(
            ("{ws}/rst.q", "{ws}/rst", "--kind", "lineage"),
            "compare kind=lineage input=sha256:d9c124aadc2a18e3\n"
            "count brute=7\n"
            "branch hard\n"
            "kcounts brute=0,0,2,4,1\n"
            "shapley brute=1/4,1/4,1/4,1/4\n"
            "agreement ok\n",
            id="lineage-hard",
        ),
        pytest.param(
            ("{ws}/path.q", "{ws}/path", "--kind", "lineage"),
            "compare kind=lineage input=sha256:7fb804e95b06a8ec\n"
            "count brute=1\n"
            "branch outside the dichotomy (self-join)\n"
            "kcounts brute=0,0,1\n"
            "shapley brute=1/2,1/2\n"
            "agreement ok\n",
            id="lineage-self-join",
        ),
    ],
)
def test_compare_stdout_is_pinned_byte_for_byte(workspace, capsys, argv, want):
    # every kind and lineage branch, line for line
    (workspace / "path.q").write_text("Q :- R(x,y), R(y,z)\n")
    schema = lg.Schema((lg.Relation("R", 2, True),))
    lg.write_database(lg.Database(schema, {"R": [("a", "b"), ("b", "c")]}), workspace / "path")
    code, out = run(capsys, "compare", *(a.format(ws=workspace) for a in argv))
    assert code == 0 and out == want


def test_compare_builds_one_truth_table_per_input(workspace, capsys, monkeypatch):
    # every brute-force answer and oracle reads the table the input keeps; a
    # circuit's exhaustive determinism check builds it
    from shapcount import boolfunc
    from shapcount import circuit as ct

    passes = []
    tables = boolfunc._tables

    def counting(*args):
        passes.append(1)
        return tables(*args)

    monkeypatch.setattr(boolfunc, "_tables", counting)
    monkeypatch.setattr(ct, "_tables", counting)
    for argv, want in (
        (("compare", workspace / "ex1.bf"), 1),
        (("compare", workspace / "ex.nnf", "--kind", "circuit"), 1),
        (("compare", "--fuzz", "10", "--kind", "circuit"), 10),
    ):
        passes.clear()
        code, out = run(capsys, *argv)
        assert code == 0 and "agreement ok" in out
        assert len(passes) == want, argv


def test_compare_labels_the_branch_as_check_does(workspace, capsys):
    # a self-join is outside the dichotomy, not on its hard side
    (workspace / "path.q").write_text("Q :- R(x,y), R(y,z)\n")
    schema = lg.Schema((lg.Relation("R", 2, True),))
    lg.write_database(lg.Database(schema, {"R": [("a", "b"), ("b", "c")]}), workspace / "path")
    code, out = run(capsys, "check", workspace / "path.q")
    assert code == 0 and "branch: outside the dichotomy (self-join)\n" in out
    argv = ("compare", workspace / "path.q", workspace / "path", "--kind", "lineage")
    code, out = run(capsys, *argv)
    assert code == 0 and "\nbranch outside the dichotomy (self-join)\n" in out


def test_lineage_compare_compiles_once(workspace, capsys, monkeypatch):
    from shapcount import circuit as ct

    compiled = []
    checked = []
    compile_lineage = lg.compile_hierarchical_lineage
    check_decomposable = ct.check_decomposable

    def compiling(query, db):
        compiled.append(compile_lineage(query, db))
        return compiled[-1]

    def checking(circuit):
        checked.append(circuit)
        return check_decomposable(circuit)

    monkeypatch.setattr(lg, "compile_hierarchical_lineage", compiling)
    monkeypatch.setattr(ct, "check_decomposable", checking)
    code, out = run(capsys, "compare", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 0 and "shapley circuit=1/4,1/4,1/4,1/4 " in out
    assert len(compiled) == 1
    # every counting method reuses the compiled circuit's one validation
    assert sum(c is compiled[0] for c in checked) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("{ws}/ex1.bf",),
        ("--fuzz", "3"),
        ("{ws}/ex.nnf", "--kind", "circuit"),
        ("--fuzz", "3", "--kind", "circuit"),
        ("{ws}/join.q", "{ws}/join", "--kind", "lineage"),
        ("--fuzz", "3", "--kind", "lineage"),
    ],
)
def test_compare_is_silent_on_success(workspace, capsys, argv):
    code = main(["compare", *(a.format(ws=workspace) for a in argv)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.endswith("agreement ok\n")
    assert captured.err == ""


# runs the command line on its arguments, as many times in the one process
# as its first argument says
SHELL_MAIN = """
import sys
from shapcount.cli import main
sys.exit(max(main(sys.argv[2:]) for _ in range(int(sys.argv[1]))))
"""


def shell(*argv, runs=1, flags=(), **env):
    """A fresh interpreter, started with `flags` and the extra environment
    variables `env`, running the command line on `argv`."""
    src = Path(shapcount.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", SHELL_MAIN, str(runs), *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=60,
    )


def test_notes_print_as_one_line_each(workspace):
    child = shell("shapley", workspace / "rst.q", workspace / "rst", "--kind", "lineage")
    assert child.returncode == 0 and child.stdout == "R,0,1,4\nR,1,1,4\nT,0,1,4\nT,1,1,4\n"
    assert child.stderr == (
        "shapcount: note: non-hierarchical query: falling back to exhaustive "
        "enumeration of the lineage\n"
    )
    # the conjunction of 21 literals: above the exhaustive determinism bound
    (workspace / "wide.nnf").write_text(
        "nnf 22 21 21\n" + "".join(f"L {v}\n" for v in range(1, 22))
        + "A 21 " + " ".join(map(str, range(21))) + "\n"
    )
    child = shell("count", workspace / "wide.nnf", "--kind", "circuit")
    assert child.returncode == 0 and child.stdout == "1\n"
    assert child.stderr == (
        "shapcount: note: determinism assumed: 21 variables exceed the exhaustive bound of 20\n"
    )


def test_warning_filters_cannot_crash_a_run(workspace):
    # the notes are the CLI's own lines, not warnings a filter could raise
    hard = ["shapley", workspace / "rst.q", workspace / "rst", "--kind", "lineage"]
    default = shell(*hard)
    assert default.returncode == 0 and default.stderr == FALLBACK_NOTE
    for child in (shell(*hard, flags=("-W", "error")), shell(*hard, PYTHONWARNINGS="error")):
        assert child.returncode == 0
        assert (child.stdout, child.stderr) == (default.stdout, default.stderr)


def test_every_call_in_one_process_prints_its_note(workspace, capsys):
    # the bipartite DNF of a three-edge list is a hard-branch instance
    (workspace / "edges.txt").write_text("1 1\n1 2\n2 2\n")
    code, _ = run(capsys, "pp2dnf", workspace / "edges.txt", "--out", workspace / "pp2dnf")
    assert code == 0
    instance = [workspace / "pp2dnf" / "query.txt", workspace / "pp2dnf", "--kind", "lineage"]
    once = shell("shapley", *instance)
    child = shell("shapley", *instance, runs=2)
    assert once.returncode == 0 and child.returncode == 0
    assert child.stdout == once.stdout * 2
    assert child.stderr == once.stderr * 2 == (
        "shapcount: note: non-hierarchical query: falling back to exhaustive "
        "enumeration of the lineage\n"
    ) * 2


def test_compare_refuses_an_undecomposable_circuit_before_the_bound(workspace, capsys):
    # 30 variables exceed the enumeration bound, but the count pass refuses first
    (workspace / "and.nnf").write_text("nnf 3 2 30\nL 1\nL 1\nA 2 0 1\n")
    code = main(["compare", str(workspace / "and.nnf"), "--kind", "circuit"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "circuit is not decomposable (AND gates [2])" in captured.err


def test_compare_checks_the_efficiency_sum_on_circuits(workspace, capsys, monkeypatch):
    from shapcount import cli as cli_module

    # f(1…1) − f(0…0) read as 0: brute force's Shapley values, which sum to 1, disagree
    monkeypatch.setattr(cli_module.boolfunc, "evaluate", lambda func, true_vars: 0)
    code = main(["compare", str(workspace / "ex.nnf"), "--kind", "circuit"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "methods disagree" in captured.err


@pytest.mark.parametrize(
    "text, spot",
    [
        ("Q :- R(x) S(x,y)", "expected a comma between atoms at 'S(x,y)'"),
        ("Q :- R(x),, S(x,y)", "unparsed query text: ', S(x,y)'"),
        ("Q :- , R(x), S(x,y)", "unparsed query text: ', R(x), S(x,y)'"),
        ("Q :- R(x), S(x,y),", "the query ends in a comma after atom S"),
    ],
)
def test_atoms_take_exactly_one_comma_between_them(workspace, capsys, text, spot):
    (workspace / "commas.q").write_text(text + "\n")
    code = main(["check", str(workspace / "commas.q")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"shapcount: input error: {spot}\n"


def test_compare_needs_an_input(workspace, capsys):
    code, _ = run(capsys, "compare")
    assert code == 2


def test_compare_exits_4_on_disagreement(workspace, capsys, monkeypatch):
    from shapcount import cli as cli_module

    monkeypatch.setattr(
        cli_module.reductions, "kcounts_from_counts", lambda n, oracle: (9, 9, 9, 9)
    )
    code = main(["compare", str(workspace / "ex.nnf"), "--kind", "circuit"])
    assert code == 4 and "methods disagree" in capsys.readouterr().err


def test_compare_checks_each_weight_table_against_the_other(workspace, capsys, monkeypatch):
    # count_from_shapley solves with the reductions' weight table what the
    # formula Shapley oracle answered with its own, so one entry off by one
    # in either table must fail the count check; the stand-ins skip both
    # caches, so no perturbed row outlives the test
    from shapcount import boolfunc, formats, gen, reductions

    rng = random.Random(3)
    draws = iter(lambda: gen.random_boolfunc(rng, 13, "dnf"), None)
    func = next(f for f in draws if f.var_count >= 11)  # above PERMUTATION_BOUND
    (workspace / "wide.bf").write_text(formats.format_sexpr(func))
    row, table = boolfunc._uniform_shapley_row.__wrapped__, reductions._weight_table.__wrapped__

    def off_by_one(build, perturb):
        def perturbed(n, ell):
            weights, denom = build(n, ell)
            if perturb and ell == 2:
                weights = weights[: n // 2] + (weights[n // 2] + 1,) + weights[n // 2 + 1 :]
            return weights, denom

        return perturbed

    monkeypatch.setattr(reductions, "expansion_weights", reductions.expansion_weights.__wrapped__)
    for side, want in ((None, 0), ("oracle", 4), ("reduction", 4)):
        monkeypatch.setattr(boolfunc, "_uniform_shapley_row", off_by_one(row, side == "oracle"))
        monkeypatch.setattr(reductions, "_weight_table", off_by_one(table, side == "reduction"))
        code, out = run(capsys, "compare", workspace / "wide.bf")
        assert code == want, side
        if side is None:
            calls = int(out.rsplit("shapley_count_pipeline=", 1)[1].split()[0])
            assert 121 <= calls <= 169  # n * n queries for 11 to 13 variables


def test_compare_runs_each_reduction_once(workspace, capsys, monkeypatch):
    from shapcount import reductions as rd

    calls = []

    def counted(name):
        original = getattr(rd, name)

        def counting(*args):
            calls.append(name)
            return original(*args)

        return counting

    names = ("kcounts_from_counts", "shapley_from_kcounts", "_solve_counts")
    for name in names:
        monkeypatch.setattr(rd, name, counted(name))
    code, _ = run(capsys, "compare", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 0 and sorted(calls) == sorted(names)
    calls.clear()
    code, _ = run(capsys, "compare", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 0 and calls.count("shapley_from_kcounts") == 1


def test_the_shared_parser_carries_no_value_between_calls(workspace, capsys, monkeypatch):
    from shapcount import cli as cli_module

    seen = []
    for verb in ("kcount", "compare"):
        handler = cli_module._HANDLERS[verb]
        monkeypatch.setitem(
            cli_module._HANDLERS, verb, lambda ns, handler=handler: seen.append(ns) or handler(ns)
        )
    ex1 = workspace / "ex1.bf"
    code, brute = run(capsys, "kcount", "--method", "brute", "--max-vars", "30", ex1)
    assert code == 0 and (seen[-1].method, seen[-1].max_vars) == ("brute", 30)
    code, paper = run(capsys, "kcount", ex1)
    assert code == 0 and paper == brute == "0,1,1,1\n"
    assert (seen[-1].method, seen[-1].max_vars, seen[-1].out) == (None, None, None)
    code, out = run(capsys, "compare", "--fuzz", "3", "--kind", "circuit", "--seed", "7")
    assert code == 0 and out == "fuzz cases=3 seed=7 agreement ok\n"
    code, out = run(capsys, "compare", ex1)
    assert code == 0 and out.startswith("compare kind=formula input=sha256:")
    assert (seen[-1].fuzz, seen[-1].kind, seen[-1].seed) == (0, "formula", 0)
    assert cli_module._build_parser() is cli_module._build_parser()


def test_compare_lineage_checks_the_paper_kcount_route(workspace, capsys, monkeypatch):
    from shapcount import circuit as ct

    join = ("compare", workspace / "join.q", workspace / "join", "--kind", "lineage")
    code, plain = run(capsys, *join)
    assert code == 0 and "paper" not in plain
    monkeypatch.setattr(ct, "kcounts_circuit", lambda compiled: (9,) * (compiled.var_count + 1))
    code, out = run(capsys, *join)
    assert code == 4 and out == ""
    code, _ = run(capsys, "compare", "--fuzz", "2", "--kind", "lineage")
    assert code == 4


def test_compare_exits_4_when_the_direct_shapley_pass_disagrees(workspace, capsys, monkeypatch):
    from shapcount import cli as cli_module

    monkeypatch.setattr(
        cli_module.circuit, "shapley_direct", lambda parsed: (Fraction(1),) * parsed.var_count
    )
    code, out = run(capsys, "compare", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 4 and out == ""
    code, _ = run(capsys, "compare", workspace / "join.q", workspace / "join", "--kind", "lineage")
    assert code == 4
    code, _ = run(capsys, "compare", "--fuzz", "4", "--kind", "lineage", "--seed", "2")
    assert code == 4


def test_compare_exits_4_when_a_substituted_copy_counts_otherwise(
    workspace, capsys, monkeypatch
):
    from shapcount import circuit as ct

    substitute = ct.or_substitute_all

    def one_too_many(circuit, arities):
        return substitute(circuit, (arities[0] + 1,) + tuple(arities[1:]))

    monkeypatch.setattr(ct, "or_substitute_all", one_too_many)
    for argv in (
        ("compare", workspace / "ex.nnf", "--kind", "circuit"),
        ("compare", workspace / "join.q", workspace / "join", "--kind", "lineage"),
    ):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "substituted copy" in captured.err


def test_compare_fuzz_deterministic(workspace, capsys):
    code, first = run(capsys, "compare", "--fuzz", "4", "--seed", "11")
    assert code == 0 and first == "fuzz cases=4 seed=11 agreement ok\n"
    code, second = run(capsys, "compare", "--fuzz", "4", "--seed", "11")
    assert second == first


def test_compare_fuzz_refuses_input_paths(workspace, capsys):
    # --fuzz draws its own cases, so a path given with it would go unchecked
    code = main(["compare", str(workspace / "ex1.bf"), "--fuzz", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: --fuzz draws its own inputs and takes no input paths" in captured.err


def test_compare_fuzz_circuits(workspace, capsys, monkeypatch):
    code, out = run(capsys, "compare", "--fuzz", "3", "--kind", "circuit", "--seed", "5")
    assert code == 0 and out == "fuzz cases=3 seed=5 agreement ok\n"
    from shapcount import cli as cli_module

    monkeypatch.setattr(
        cli_module.reductions, "kcounts_from_counts", lambda n, oracle: (-1,) * (n + 1)
    )
    code, _ = run(capsys, "compare", "--fuzz", "3", "--kind", "circuit")
    assert code == 4


def test_compare_fuzz_lineage(workspace, capsys, monkeypatch):
    from shapcount import gen

    drawn = []
    draw = gen.random_sjf_instance

    def drawing(rng, **kw):
        drawn.append(kw["hierarchical"])
        return draw(rng, **kw)

    monkeypatch.setattr(gen, "random_sjf_instance", drawing)
    code, out = run(capsys, "compare", "--fuzz", "6", "--kind", "lineage", "--seed", "2")
    assert code == 0 and out == "fuzz cases=6 seed=2 agreement ok\n"
    assert drawn == [True, False] * 3


def test_outputs_are_byte_identical(workspace, capsys):
    runs = [run(capsys, "shapley", workspace / "ex1.bf")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [
        run(capsys, "shapley", workspace / "join.q", workspace / "join", "--kind", "lineage")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_outputs_of_any_size_print_exactly(tmp_path, capsys):
    # R(x), S(x,y) with 4 S rows per R value, 15000 tuples: the count has
    # 4516 digits, past CPython's default cap on int-to-str conversion
    k = 3000
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"a{i}",) for i in range(k)],
        "S": [(f"a{i}", f"b{j}") for i in range(k) for j in range(4)],
    }
    lg.write_database(lg.Database(schema, rows), tmp_path / "db")
    (tmp_path / "q.txt").write_text("Q :- R(x), S(x,y)\n")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out = run(capsys, "count", tmp_path / "q.txt", tmp_path / "db", "--kind", "lineage")
    assert code == 0
    # Decimal parses past the cap, which main restores on return
    assert int(Decimal(out)) == 2 ** (5 * k) - 17**k
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv", [("compare", "--fuzz", "-5"), ("count", "{ws}/ex1.bf", "--max-vars", "-3")]
)
def test_negative_counts_are_input_errors(workspace, capsys, argv):
    code = main([a.format(ws=workspace) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: --max-vars and --fuzz take nonnegative counts" in captured.err


def test_parse_error_exit_code(workspace, capsys):
    bad = workspace / "bad.bf"
    bad.write_text("(and x0")
    code, _ = run(capsys, "count", bad)
    assert code == 2
    code, _ = run(capsys, "count", workspace / "missing.bf")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "{ws}/missing.bf"),
        ("count", "{ws}/join.q", "{ws}/emptydb", "--kind", "lineage"),
        ("count", "{ws}/undecodable.bf"),
        ("compare", "{ws}/undecodable.bf"),
        ("count", "{ws}/ex1.bf", "--out", "{ws}/nodir/out.txt"),
    ],
)
def test_unreadable_undecodable_or_unwritable_paths_exit_2(workspace, capsys, argv):
    (workspace / "emptydb").mkdir()  # no schema.txt
    (workspace / "undecodable.bf").write_bytes(b"\xff(and x0 x1)")
    code = main([a.format(ws=workspace) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error" in captured.err


# caps its own address space 256 MiB above what it has mapped after the
# imports, then runs the command line on its arguments
MEMORY_CAPPED_MAIN = """
import resource, sys
from shapcount.cli import main
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
cap = (mapped + 256 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's RLIMIT_AS")
def test_running_out_of_memory_is_a_refusal(tmp_path):
    # a 24-variable, 2000-clause DNF whose exhaustive count keeps a 2 MiB
    # truth table per gate, some 4 GiB in all
    rng = random.Random(23)
    clauses = (
        "(and " + " ".join(f"x{v}" for v in rng.sample(range(24), 4)) + ")" for _ in range(2000)
    )
    dnf = tmp_path / "dnf.bf"
    dnf.write_text("(vars 24 (or " + " ".join(clauses) + "))")
    src = Path(shapcount.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", MEMORY_CAPPED_MAIN, "count", str(dnf)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert child.returncode == 3 and child.stdout == ""
    assert child.stderr == "shapcount: refused: ran out of memory on this input\n"


def test_bound_refusal_exit_code(workspace, capsys):
    wide = workspace / "wide.bf"
    wide.write_text("(vars 30 (or x0 x29))")
    code, _ = run(capsys, "count", wide, "--max-vars", "8")
    assert code == 3


@pytest.mark.parametrize("verb", ["count", "kcount", "shapley", "compare"])
def test_formula_refusal_above_the_bound_is_immediate(workspace, capsys, verb):
    # the reductions must not build per-variable tables before the oracle refuses
    wide = workspace / "wide.bf"
    wide.write_text("(vars 20000 (and x0 (not x0)))")
    start = time.perf_counter()
    code = main([verb, str(wide)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert "exhaustive enumeration over 20000 variables exceeds the bound of 24" in err
    assert elapsed < 5.0, f"{verb} took {elapsed:.1f} s to refuse"


@pytest.fixture(scope="module")
def wide_chain(tmp_path_factory):
    """R(x), S(x,y), T(y) over 40000 tuples, 20000 of them endogenous, and
    the FP query R(x), S(x,y) over the same database."""
    base = tmp_path_factory.mktemp("wide")
    n = 10000
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, False), lg.Relation("T", 1, True))
    )
    rows = {
        "R": [(f"a{i}",) for i in range(n)],
        "S": [(f"a{i}", f"b{j}") for i in range(n) for j in (i, (i + 1) % n)],
        "T": [(f"b{i}",) for i in range(n)],
    }
    lg.write_database(lg.Database(schema, rows), base / "db")
    (base / "chain.q").write_text("Q :- R(x), S(x,y), T(y)\n")
    (base / "fp.q").write_text("Q :- R(x), S(x,y)\n")
    return base


WIDE_REFUSALS = [
    ("chain", ["count"], "exhaustive enumeration over 20000 variables"),
    ("chain", ["kcount", "--method", "brute"], "exhaustive enumeration over 20000 variables"),
    ("chain", ["kcount", "--method", "paper"], "needs a hierarchical self-join-free query"),
    ("chain", ["kcount", "--method", "direct"], "needs a hierarchical self-join-free query"),
    ("chain", ["shapley"], "and 20000 tuple variables exceed the exhaustive bound of 24"),
    ("chain", ["shapley", "--method", "brute"], "subset enumeration over 20000 variables"),
    ("chain", ["compare"], "exhaustive enumeration over 20000 variables"),
    ("fp", ["kcount", "--method", "brute"], "exhaustive enumeration over 20000 variables"),
    ("fp", ["shapley", "--method", "brute"], "subset enumeration over 20000 variables"),
    ("fp", ["compare"], "exhaustive enumeration over 20000 variables"),
]


@pytest.mark.parametrize(
    "query, argv, message", WIDE_REFUSALS, ids=["-".join([q, *a]) for q, a, _ in WIDE_REFUSALS]
)
def test_lineage_refusal_above_the_bound_is_immediate(
    wide_chain, capsys, monkeypatch, query, argv, message
):
    # no route builds a lineage formula only to refuse it
    built = []
    build_lineage = lg.build_lineage

    def building(*args, **kwargs):
        built.append(build_lineage(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lg, "build_lineage", building)
    inputs = [str(wide_chain / f"{query}.q"), str(wide_chain / "db"), "--kind", "lineage"]
    start = time.perf_counter()
    code = main([argv[0], *inputs, *argv[1:]])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3 and message in err
    assert built == []
    assert elapsed < 5.0, f"{argv} took {elapsed:.1f} s to refuse"


@pytest.mark.parametrize("verb", ["count", "compare"])
def test_malformed_query_over_the_bound_is_an_input_error(wide_chain, tmp_path, capsys, verb):
    # the query is checked against the schema before the bound
    (tmp_path / "bad.q").write_text("Q :- R(x), S(x,y), U(y)\n")
    code = main([verb, str(tmp_path / "bad.q"), str(wide_chain / "db"), "--kind", "lineage"])
    assert code == 2 and "input error: unknown relation U" in capsys.readouterr().err


# one small example of every input the parsers read
TRUNCATION_EXAMPLES = {
    "sexpr": ("formula.bf", "(vars 4 (or (and x0 (not x1)) (and x2 x3) 1))\n"),
    "cnf": ("formula.cnf", "c example\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"),
    "dnf": ("formula.dnf", "p dnf 3 2\n1 2 0\n-1 3 0\n"),
    "nnf": ("circuit.nnf", EXAMPLE_NNF),
    "query": ("rst.q", "Q :- R(x), S(x,y), T(y, 'b1')\n"),
    "schema": ("rst/schema.txt", "R 1 endo\nS 2 exo\nT 2 endo\n"),
    "csv": ("rst/S.csv", "a1,b1\na2,b2\na1,b2\n"),
}


@pytest.mark.parametrize("name", sorted(TRUNCATION_EXAMPLES))
def test_every_truncated_input_exits_cleanly(tmp_path, capsys, name):
    (tmp_path / "rst").mkdir()
    for path, text in TRUNCATION_EXAMPLES.values():
        (tmp_path / path).write_text(text)
    (tmp_path / "rst" / "R.csv").write_text("a1\na2\n")
    (tmp_path / "rst" / "T.csv").write_text("b1,b1\nb2,b1\n")
    target, text = TRUNCATION_EXAMPLES[name]
    if name in ("query", "schema", "csv"):
        argv = ["count", tmp_path / "rst.q", tmp_path / "rst", "--kind", "lineage"]
    else:
        argv = ["count", tmp_path / target]
        if name == "nnf":
            argv += ["--kind", "circuit"]
    data = text.encode()
    codes = []
    for cut in range(len(data) + 1):
        (tmp_path / target).write_bytes(data[:cut])
        codes.append(main([str(a) for a in argv]))
        capsys.readouterr()
    assert set(codes) <= {0, 2, 3}
    assert codes[-1] == 0  # the whole example is read


def test_vars_count_in_non_ascii_digits_is_an_input_error(tmp_path, capsys):
    # str.isdigit accepts superscript and circled digits, which int rejects
    for count in ("\u00b2", "\u2460", "4\u00b2"):
        path = tmp_path / "f.bf"
        path.write_text(f"(vars {count} x0)\n", encoding="utf-8")
        code = main(["count", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("shapcount: input error: ")
    path.write_text("(vars \u0664 x0)\n", encoding="utf-8")  # an Arabic-Indic 4
    assert run(capsys, "count", path) == (0, "8\n")


MUTATION_ALPHABET = "\u00b2\u2460'\"#c()x, 01-\n"


def _mutate(rng: random.Random, text: str) -> str:
    """`text` with one to three characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "replace"))
        tail = text[at + (edit != "insert") :]
        text = text[:at] + ("" if edit == "delete" else rng.choice(MUTATION_ALPHABET)) + tail
    return text


def test_mutated_inputs_of_every_kind_exit_cleanly(tmp_path, capsys):
    (tmp_path / "rst").mkdir()
    for path, text in TRUNCATION_EXAMPLES.values():
        (tmp_path / path).write_text(text)
    (tmp_path / "rst" / "R.csv").write_text("a1\na2\n")
    (tmp_path / "rst" / "T.csv").write_text("b1,b1\nb2,b1\n")
    query, db, out = tmp_path / "rst.q", tmp_path / "rst", tmp_path / "out"
    modes = ("dummy", "expand:1,2,0,1")  # one width per endogenous tuple
    # per kind: the files mutated, the input arguments, and the calls that
    # only lineage inputs take
    kinds = [
        (["formula.bf"], [tmp_path / "formula.bf"], []),
        (["circuit.nnf"], [tmp_path / "circuit.nnf", "--kind", "circuit"], []),
        (
            ["rst.q", "rst/schema.txt", "rst/R.csv", "rst/S.csv", "rst/T.csv"],
            [query, db, "--kind", "lineage"],
            [["check", query], ["lineage", query, db]]
            + [["stretch", query, db, "--mode", m, "--out", out] for m in modes],
        ),
    ]
    rng = random.Random(2306)
    codes = []
    for files, args, extra in kinds:
        calls = [[verb, *args] for verb in ("count", "kcount", "shapley", "compare")] + extra
        originals = {name: (tmp_path / name).read_text() for name in files}
        for _ in range(500):
            name = rng.choice(files)
            (tmp_path / name).write_text(_mutate(rng, originals[name]), encoding="utf-8")
            for argv in calls:
                codes.append(main([str(a) for a in argv]))
                capsys.readouterr()
            (tmp_path / name).write_text(originals[name])
    assert set(codes) <= {0, 2, 3, 4}
    assert {0, 2} <= set(codes)


def test_malformed_relation_csv_exits_2(workspace, capsys):
    # every Python rejects a field over the csv module's size limit; only
    # Python 3.10 rejects a NUL byte, later versions read it as data
    relation = workspace / "join" / "R1.csv"
    for text, codes in (("a" * 200000 + "\n", {2}), ("a1\0\n", {0, 2})):
        relation.write_text(text)
        argv = ["count", workspace / "join.q", workspace / "join", "--kind", "lineage"]
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code in codes and "Traceback" not in err
        if code == 2:
            assert f"input error: {relation}: " in err


@pytest.mark.parametrize(
    "target, argv",
    [
        ("bad.bf", ("count", "{ws}/bad.bf")),
        ("join/R2.csv", ("count", "{ws}/join.q", "{ws}/join", "--kind", "lineage")),
    ],
)
def test_undecodable_input_error_names_the_file(workspace, capsys, target, argv):
    path = workspace / target
    path.write_bytes(b"\xffa1\n")
    code = main([a.format(ws=workspace) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input error: {path}: " in captured.err


def test_output_file_flag(workspace, capsys):
    target = workspace / "result.txt"
    code, out = run(capsys, "count", workspace / "ex1.bf", "--out", target)
    assert code == 0 and out == ""
    assert target.read_text() == "3\n"


@pytest.mark.parametrize(
    "verb, want",
    [
        (("count",), "1\n"),
        (("kcount", "--method", "brute"), "0,0,1\n"),
        (("shapley",), "1/2,1/2\n"),
        (("compare",), None),
    ],
)
def test_deeply_nested_formula(workspace, capsys, verb, want):
    deep = workspace / "deep.bf"
    deep.write_text(DEEP)
    code, out = run(capsys, verb[0], deep, *verb[1:])
    assert code == 0
    if want is None:
        assert out.rstrip().endswith("agreement ok")
    else:
        assert out == want
    cut = workspace / "cut.bf"
    cut.write_text(DEEP[: len(DEEP) // 2])
    code, out = run(capsys, verb[0], cut, *verb[1:])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "verb, want",
    [
        (("count",), "1\n"),
        (("kcount", "--method", "paper"), "0,1\n"),
        (("kcount", "--method", "direct"), "0,1\n"),
        (("kcount", "--method", "brute"), "0,1\n"),
        (("shapley", "--method", "reduction"), "1/1\n"),
        (("shapley", "--method", "brute"), "1/1\n"),
        (("compare",), None),
    ],
)
def test_deep_circuit(workspace, capsys, verb, want):
    deep = workspace / "deep.nnf"
    deep.write_text(DEEP_NNF)
    code, out = run(capsys, verb[0], deep, "--kind", "circuit", *verb[1:])
    assert code == 0
    if want is None:
        assert out.rstrip().endswith("agreement ok")
    else:
        assert out == want


def test_query_with_many_atoms(tmp_path, capsys):
    # R0(x), ..., R1499(x) with R0, R1, R2 endogenous: the join walks the
    # atoms with an explicit stack, so no atom count overflows the call stack
    atoms = 1500
    schema = lg.Schema(tuple(lg.Relation(f"R{i}", 1, i < 3) for i in range(atoms)))
    lg.write_database(lg.Database(schema, {r.name: [("a",)] for r in schema.relations}), tmp_path)
    query = tmp_path / "q.txt"
    query.write_text("Q :- " + ", ".join(f"R{i}(x)" for i in range(atoms)) + "\n")
    code, out = run(capsys, "lineage", query, tmp_path, "--kind", "lineage")
    assert code == 0
    assert out == "(vars 3 (and x0 x1 x2))\n0,R0,0\n1,R1,0\n2,R2,0\n"
    code, out = run(capsys, "compare", query, tmp_path, "--kind", "lineage")
    assert code == 0
    assert "shapley circuit=1/3,1/3,1/3 brute=1/3,1/3,1/3\n" in out
    assert out.endswith("agreement ok\n")


def test_nesting_past_the_recursion_limit_compiles(tmp_path, capsys):
    # A(x0, ..., x599) is hierarchical and compiles one variable per level:
    # 600 levels of the variable forest, walked with an explicit stack
    arity = 600
    schema = lg.Schema((lg.Relation("A", arity, True),))
    lg.write_database(lg.Database(schema, {"A": [tuple(f"a{j}" for j in range(arity))]}), tmp_path)
    query = tmp_path / "q.txt"
    query.write_text("Q :- A(" + ",".join(f"x{j}" for j in range(arity)) + ")\n")
    code, out = run(capsys, "check", query, "--kind", "lineage")
    assert code == 0 and "branch: FP\n" in out
    code, out = run(capsys, "count", query, tmp_path, "--kind", "lineage")
    assert code == 0 and out == "1\n"


def test_recursion_error_is_a_refusal(workspace, capsys, monkeypatch):
    # an input that still nests past the recursion limit is a refusal (exit
    # 3), never a traceback (exit 1)
    def too_deep(query, db):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(lg, "compile_hierarchical_lineage", too_deep)
    inputs = [str(workspace / "join.q"), str(workspace / "join")]
    assert main(["count", *inputs, "--kind", "lineage"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shapcount: refused: this input nests too deeply\n"
