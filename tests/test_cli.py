import pytest

from helpers import EXAMPLE_NNF
from shapcount import lineage as lg
from shapcount.cli import main

EX1 = "(and x0 (or x1 (not x2)))"
# 3000 levels: 1500 times (and (not g) x1) around x0, which is x0 and x1
DEEP = "(and (not " * 1500 + "x0" + ") x1)" * 1500


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


def test_shapley_hard_branch_refusal_exit_code(workspace, capsys):
    code, _ = run(
        capsys,
        "shapley", workspace / "rst.q", workspace / "rst",
        "--kind", "lineage", "--max-vars", "3",
    )
    assert code == 3


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


def test_pp2dnf_emission(workspace, capsys):
    edges = workspace / "edges.txt"
    edges.write_text("1 1\n2 2\n")
    outdir = workspace / "pp"
    code, out = run(capsys, "pp2dnf", edges, "--out", outdir)
    assert code == 0 and out == "Q :- R(x), S(x, y), T(y)\n"
    code, out = run(capsys, "count", outdir / "query.txt", outdir, "--kind", "lineage")
    assert code == 0 and out == "7\n"


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


def test_compare_needs_an_input(workspace, capsys):
    code, _ = run(capsys, "compare")
    assert code == 2


def test_compare_exits_4_on_disagreement(workspace, capsys, monkeypatch):
    from shapcount import cli as cli_module

    monkeypatch.setattr(
        cli_module.circuit, "kcounts_circuit", lambda parsed, **kw: (9, 9, 9, 9)
    )
    code, _ = run(capsys, "compare", workspace / "ex.nnf", "--kind", "circuit")
    assert code == 4


def test_compare_fuzz_deterministic(workspace, capsys):
    code, first = run(capsys, "compare", "--fuzz", "4", "--seed", "11")
    assert code == 0 and first == "fuzz cases=4 seed=11 agreement ok\n"
    code, second = run(capsys, "compare", "--fuzz", "4", "--seed", "11")
    assert second == first


def test_outputs_are_byte_identical(workspace, capsys):
    runs = [run(capsys, "shapley", workspace / "ex1.bf")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [
        run(capsys, "shapley", workspace / "join.q", workspace / "join", "--kind", "lineage")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_parse_error_exit_code(workspace, capsys):
    bad = workspace / "bad.bf"
    bad.write_text("(and x0")
    code, _ = run(capsys, "count", bad)
    assert code == 2
    code, _ = run(capsys, "count", workspace / "missing.bf")
    assert code == 2


def test_bound_refusal_exit_code(workspace, capsys):
    wide = workspace / "wide.bf"
    wide.write_text("(vars 30 (or x0 x29))")
    code, _ = run(capsys, "count", wide, "--max-vars", "8")
    assert code == 3


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
