import gc
import itertools
import random
import re
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from helpers import (
    active_domain,
    chain_instance,
    embed_nonhierarchical,
    join_instance,
    lineage_by_active_domain,
    or_substitute,
    shapley_circuit,
    substituted_clauses,
)
from shapcount import circuit as ct
from shapcount import gen
from shapcount import lineage as lg
from shapcount.boolfunc import (
    CONST0,
    CONST1,
    Gate,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    truth_table,
)
from shapcount.errors import InputError, RefusalError


def clause_tuples(built):
    return sorted(tuple(sorted(c)) for c in built.clauses)


def test_build_lineage_join_example():
    q, db = join_instance()
    built = lg.build_lineage(q, db)
    assert clause_tuples(built) == [(0, 2), (1, 3)]
    assert built.tuple_map == (("R1", 0), ("R1", 1), ("R2", 0), ("R2", 1))
    assert brute_count(built.func) == 7


def test_build_lineage_chain_example():
    q, db = chain_instance()
    built = lg.build_lineage(q, db)
    assert clause_tuples(built) == [(0, 2), (1, 3)]


def test_build_lineage_empty_relation_gives_false():
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("U", 1, True)))
    db = lg.Database(schema, {"R": [("a",)], "U": []})
    built = lg.build_lineage(lg.parse_query("Q :- R(x), U(x)"), db)
    assert built.func.gates == (Gate(CONST0),)
    assert built.clauses == ()


def test_build_lineage_exogenous_only_match_absorbs():
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("W", 1, False)))
    db = lg.Database(schema, {"R": [("a",)], "W": [("a",), ("b",)]})
    built = lg.build_lineage(lg.parse_query("Q :- W(x)"), db)
    assert built.func.gates == (Gate(CONST1),)
    assert built.clauses == (frozenset(),)


def test_build_lineage_with_constants_and_repeats():
    schema = lg.Schema((lg.Relation("R", 2, True),))
    db = lg.Database(schema, {"R": [("a", "a"), ("a", "b")]})
    built = lg.build_lineage(lg.parse_query("Q :- R(x, x)"), db)
    assert clause_tuples(built) == [(0,)]
    built = lg.build_lineage(lg.parse_query("Q :- R('a', 'b')"), db)
    assert clause_tuples(built) == [(1,)]
    with pytest.raises(InputError):
        lg.build_lineage(lg.parse_query("Q :- R(x)"), db)


def nested_loop_clauses(query, db):
    """Reference lineage clauses: every choice of one row per atom, kept
    when its constants and variables agree, in build_lineage's order."""
    clauses = set()
    for choice in itertools.product(*(enumerate(db.rows[a.relation]) for a in query.atoms)):
        binding: dict[str, str] = {}
        consistent = all(
            term.value == value
            if isinstance(term, lg.QueryConst)
            else binding.setdefault(term.name, value) == value
            for atom, (_, row) in zip(query.atoms, choice)
            for term, value in zip(atom.args, row)
        )
        if consistent:
            clauses.add(
                frozenset(
                    db.var_of(atom.relation, row_index)
                    for atom, (row_index, _) in zip(query.atoms, choice)
                    if db.schema.get(atom.relation).endogenous
                )
            )
    if frozenset() in clauses:
        return (frozenset(),)
    return tuple(sorted(clauses, key=lambda c: tuple(sorted(c))))


def test_indexed_build_matches_nested_loops_on_random_instances():
    rng = random.Random(208)
    for case in range(300):
        q, db = gen.random_sjf_instance(
            rng, max_atoms=4, max_rows=6, hierarchical=case % 2 == 0
        )
        assert lg.build_lineage(q, db).clauses == nested_loop_clauses(q, db)


@pytest.mark.parametrize(
    "query, want",
    [
        # x is first bound inside R(x, x), after S(y) bound y
        ("Q :- S(y), R(x, x)", [(0, 1), (0, 3)]),
        ("Q :- S(y), R(x, x), T(x, y)", [(0, 1, 4)]),
        # a constant in a later atom
        ("Q :- S(y), R(x, 'b')", [(0, 2), (0, 3)]),
        ("Q :- T(x, y), R(x, 'b')", [(2, 4), (3, 5)]),
    ],
)
def test_indexed_build_targeted_cases(query, want):
    schema = lg.Schema(
        (lg.Relation("S", 1, True), lg.Relation("R", 2, True), lg.Relation("T", 2, True))
    )
    db = lg.Database(
        schema,
        {
            "S": [("c",)],
            "R": [("a", "a"), ("a", "b"), ("b", "b")],
            "T": [("a", "c"), ("b", "d")],
        },
    )
    q = lg.parse_query(query)
    built = lg.build_lineage(q, db)
    assert clause_tuples(built) == want
    assert built.clauses == nested_loop_clauses(q, db)


def test_indexed_build_constant_lineages():
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("W", 2, False), lg.Relation("U", 1, True))
    )
    db = lg.Database(schema, {"R": [("a",)], "W": [("a", "a"), ("a", "b")], "U": []})
    # an exogenous-only match makes the lineage the constant 1
    q = lg.parse_query("Q :- W(x, y), W(y, y)")
    built = lg.build_lineage(q, db)
    assert built.clauses == (frozenset(),) == nested_loop_clauses(q, db)
    assert built.func.gates == (Gate(CONST1),)
    # an empty relation makes it the constant 0, wherever the atom sits
    for text in ("Q :- U(x), R(x)", "Q :- R(x), W(x, y), U(y)"):
        q = lg.parse_query(text)
        built = lg.build_lineage(q, db)
        assert built.clauses == () == nested_loop_clauses(q, db)
        assert built.func.gates == (Gate(CONST0),)


def test_relational_layer_scales_linearly():
    # R(x), S(x,y) with 4 S rows per R value: n = 5k variables
    k = 2500
    join_schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    join_db = lg.Database(
        join_schema,
        {
            "R": [(f"a{i}",) for i in range(k)],
            "S": [(f"a{i}", f"b{j}") for i in range(k) for j in range(4)],
        },
    )
    join_q = lg.parse_query("Q :- R(x), S(x,y)")
    m = 1600
    chain_schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, False), lg.Relation("T", 1, True))
    )
    chain_db = lg.Database(
        chain_schema,
        {
            "R": [(f"a{i}",) for i in range(m)],
            "S": [(f"a{i}", f"b{i}") for i in range(m)],
            "T": [(f"b{i}",) for i in range(m)],
        },
    )
    start = time.perf_counter()
    built = lg.build_lineage(join_q, join_db)
    count = ct.model_count_dd(lg.compile_hierarchical_lineage(join_q, join_db))
    chain = lg.build_lineage(lg.parse_query("Q :- R(x), S(x,y), T(y)"), chain_db)
    elapsed = time.perf_counter() - start
    # the quadratic construction took 20 s and more on a 2-vCPU host, the linear one 0.3 s
    assert elapsed < 5.0, f"build, compile and count took {elapsed:.1f} s"
    assert len(built.clauses) == 4 * k and len(chain.clauses) == m
    # each R value's block r and (s1 or ... or s4) fails on 17 of its 32 assignments
    assert count == 2 ** (5 * k) - 17**k


def test_counting_the_compiled_join_takes_little_memory():
    # R(x), S(x,y) with 4 S rows per R value, n = 4000: a cached set of
    # variables per gate grew along the exclusive chain to 135 MiB here
    k = 800
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    db = lg.Database(
        schema,
        {
            "R": [(f"a{i}",) for i in range(k)],
            "S": [(f"a{i}", f"b{j}") for i in range(k) for j in range(4)],
        },
    )
    circuit = lg.compile_hierarchical_lineage(lg.parse_query("Q :- R(x), S(x,y)"), db)
    tracemalloc.start()
    try:
        count = ct.model_count_dd(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 ** (5 * k) - 17**k
    assert peak < 32 * 2**20, f"counting peaked at {peak / 2**20:.1f} MiB"


def test_lineage_matches_active_domain_recursion():
    rng = random.Random(200)
    checked = 0
    while checked < 40:
        q, db = gen.random_sjf_instance(rng, max_atoms=2, max_arity=2, max_rows=3)
        if len(q.variables()) > 2 or len(active_domain(db)) > 3:
            continue
        checked += 1
        built = lg.build_lineage(q, db)
        reference = lineage_by_active_domain(q, db)
        assert truth_table(reference) == truth_table(built.func)


def test_random_instances_have_nonconstant_lineage():
    # the draws of `compare --fuzz 200 --kind lineage --seed 1`
    rng = random.Random(1)
    constant = 0
    for case in range(200):
        q, db = gen.random_sjf_instance(rng, max_rows=5, hierarchical=case % 2 == 0)
        constant += not any(lg.build_lineage(q, db).clauses)
    assert constant == 0


def test_is_hierarchical():
    rst, _ = chain_instance()
    assert lg.is_hierarchical(rst) == (False, ("x", "y"))
    assert lg.is_hierarchical(lg.parse_query("Q :- R(x), S(x)")) == (True, None)
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, False), lg.Relation("T", 1, True))
    )
    stretched = lg.stretch_query(rst, schema)
    assert lg.is_hierarchical(stretched) == (False, ("x", "y"))


def test_is_self_join_free():
    assert lg.is_self_join_free(chain_instance()[0])
    assert not lg.is_self_join_free(lg.parse_query("Q :- R(x), R(y)"))


def test_stretch_query_forms():
    q, db = chain_instance()
    stretched = lg.stretch_query(q, db.schema)
    assert lg.query_text(stretched) == "Q :- R(z1, x), S(x, y), T(z2, y)\n"

    exo_only = lg.parse_query("Q :- S(x, y)")
    assert lg.stretch_query(exo_only, db.schema) == exo_only

    q2, db2 = join_instance()
    assert lg.query_text(lg.stretch_query(q2, db2.schema)) == "Q :- R1(z1, x), R2(z2, x)\n"

    # fresh names dodge collisions with existing variables
    taken = lg.parse_query("Q :- R(z1), S(z1, y), T(y)")
    names = lg.stretch_query(taken, db.schema).variables()
    assert len(set(names)) == len(names)


def test_quoted_constants_keep_their_commas():
    q = lg.parse_query("""Q :- R(x), S(x, 'a,b', "c, d" , y), T(y, ',')""")
    x, y = lg.QueryVar("x"), lg.QueryVar("y")
    assert [a.args for a in q.atoms] == [
        (x,),
        (x, lg.QueryConst("a,b"), lg.QueryConst("c, d"), y),
        (y, lg.QueryConst(",")),
    ]
    assert lg.query_text(q) == "Q :- R(x), S(x, 'a,b', 'c, d', y), T(y, ',')\n"
    assert lg.parse_query(lg.query_text(q)) == q
    with pytest.raises(InputError, match="empty argument"):
        lg.parse_query("Q :- S(x, 'a,b',, y)")


def test_quoted_constants_keep_their_parentheses():
    x = lg.QueryVar("x")
    assert lg.parse_query("Q :- S(x, 'a(b')").atoms[0].args == (x, lg.QueryConst("a(b"))
    assert lg.parse_query('Q :- S(x, "a)b")').atoms[0].args == (x, lg.QueryConst("a)b"))
    for value in ("a(b", "a)b", "(", ")", "()", ") ,(", " f(x, y) ", "a),S(b"):
        q = lg.Query((lg.Atom("R", (x,)), lg.Atom("S", (x, lg.QueryConst(value), x))))
        assert lg.parse_query(lg.query_text(q)) == q
    # a quote only quotes a whole argument, so elsewhere parentheses still end an atom
    with pytest.raises(InputError, match="unparsed query text"):
        lg.parse_query("Q :- S(x, 'a(b' c)")


def test_random_queries_round_trip_through_their_text():
    for seed in range(200):
        rng = random.Random(seed)
        query, _ = gen.random_query(rng, max_atoms=4, self_join_free=seed % 2 == 0)
        assert lg.parse_query(lg.query_text(query)) == query


def test_the_head_ends_at_the_first_turnstile_outside_quotes():
    want = lg.Query((lg.Atom("R", (lg.QueryVar("x"), lg.QueryConst("a:-b"))),))
    assert lg.parse_query("R(x, 'a:-b')") == lg.parse_query("Q :- R(x, 'a:-b')") == want
    assert lg.parse_query('Q(y) :- R(x, "a:-b")') == want


def test_stretch_dummy_rows_and_lineage():
    q, db = chain_instance()
    stretched = lg.stretch_database_dummy(db)
    assert stretched.database.rows["R"] == (("d", "a1"), ("d", "a2"))
    assert stretched.database.rows["T"] == (("d", "b1"), ("d", "b2"))
    assert stretched.database.rows["S"] == (("a1", "b1"), ("a2", "b2"))
    assert stretched.var_map == {0: 0, 1: 1, 2: 2, 3: 3}
    sq = lg.stretch_query(q, db.schema)
    assert lg.build_lineage(sq, stretched.database).clauses == lg.build_lineage(q, db).clauses


def test_stretch_dummy_empty_database():
    schema = lg.Schema((lg.Relation("R", 1, True),))
    empty = lg.Database(schema, {"R": []})
    stretched = lg.stretch_database_dummy(empty)
    assert stretched.database.rows["R"] == ()
    assert stretched.database.var_count == 0
    assert stretched.var_map == {}


def test_stretch_dummy_random_preservation():
    rng = random.Random(201)
    for _ in range(30):
        q, db = gen.random_sjf_instance(rng)
        sq = lg.stretch_query(q, db.schema)
        stretched = lg.stretch_database_dummy(db)
        assert lg.build_lineage(sq, stretched.database).clauses == lg.build_lineage(q, db).clauses


def test_stretch_expand_matches_substitution():
    q, db = join_instance()
    arities = (3, 2, 2, 1)
    stretched = lg.stretch_database_expand(db, arities)
    sq = lg.stretch_query(q, db.schema)
    expanded = lg.build_lineage(sq, stretched.database)
    base = lg.build_lineage(q, db)
    substituted = or_substitute(base.func, arities)
    flattened = substituted_clauses(base.clauses, substituted.groups)
    # group layouts coincide: fresh variables are numbered per source tuple
    assert all(stretched.var_map[z] == old for old, grp in enumerate(substituted.groups) for z in grp)
    assert set(expanded.clauses) == flattened
    # clause count is the sum of the per-clause arity products
    assert len(expanded.clauses) == 3 * 2 + 2 * 1


def test_stretch_expand_identity_and_deletion():
    q, db = join_instance()
    identity = lg.stretch_database_expand(db, (1, 1, 1, 1))
    sq = lg.stretch_query(q, db.schema)
    assert lg.build_lineage(sq, identity.database).clauses == lg.build_lineage(q, db).clauses
    dropped = lg.stretch_database_expand(db, (0, 1, 1, 1))
    built = lg.build_lineage(sq, dropped.database)
    assert dropped.var_map == {0: 1, 1: 2, 2: 3}
    assert [tuple(sorted(dropped.var_map[z] for z in c)) for c in built.clauses] == [(1, 3)]
    with pytest.raises(InputError):
        lg.stretch_database_expand(db, (1, 1))


def test_stretch_expand_random_equivalence():
    rng = random.Random(202)
    done = 0
    while done < 40:
        q, db = gen.random_sjf_instance(rng, max_endo_vars=6)
        arities = tuple(rng.randint(0, 3) for _ in range(db.var_count))
        base = lg.build_lineage(q, db)
        if sum(arities) > 14:
            continue
        done += 1
        stretched = lg.stretch_database_expand(db, arities)
        sq = lg.stretch_query(q, db.schema)
        expanded = lg.build_lineage(sq, stretched.database)
        substituted = or_substitute(base.func, arities)
        flattened = substituted_clauses(base.clauses, substituted.groups)
        # align: the i-th copy of a source tuple is the i-th fresh variable
        # of that tuple's group
        counters: dict[int, int] = {}
        align = {}
        for z in range(stretched.database.var_count):
            src = stretched.var_map[z]
            align[z] = substituted.groups[src][counters.get(src, 0)]
            counters[src] = counters.get(src, 0) + 1
        aligned = {frozenset(align[z] for z in clause) for clause in expanded.clauses}
        assert aligned == flattened


def test_compile_hierarchical_examples():
    q, db = join_instance()
    circuit = lg.compile_hierarchical_lineage(q, db)
    assert circuit.var_count == 4
    assert ct.model_count_dd(circuit) == 7
    assert ct.check_decomposable(circuit)[0]
    assert ct.check_deterministic_exhaustive(circuit) == ("verified", None)

    # a single endogenous atom compiles to an exclusive chain over its rows
    schema = lg.Schema((lg.Relation("R", 1, True),))
    db1 = lg.Database(schema, {"R": [("a",), ("b",), ("c",)]})
    chain = lg.compile_hierarchical_lineage(lg.parse_query("Q :- R(x)"), db1)
    assert ct.model_count_dd(chain) == 7  # all subsets except the empty one


def test_compile_leaves_no_reference_cycle():
    # the compiler's two steps must not hold each other: a cycle between
    # them kept the builder, its gates and the database alive until a full
    # collection
    schema = lg.Schema(
        (lg.Relation("R", 1, True), lg.Relation("S", 2, True), lg.Relation("T", 3, True))
    )
    rows = {
        "R": [(f"x{i}",) for i in range(3)],
        "S": [(f"x{i}", f"y{j}") for i in range(3) for j in range(2)],
        "T": [(f"x{i}", f"y{j}", f"z{k}") for i in range(3) for j in range(2) for k in range(2)],
    }
    q = lg.parse_query("Q :- R(x), S(x,y), T(x,y,z)")
    full, empty = lg.Database(schema, rows), lg.Database(schema, {})
    gc.collect()
    gc.disable()
    try:
        compiled = lg.compile_hierarchical_lineage(q, full)
        lg.compile_hierarchical_lineage(q, empty)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert ct.model_count_dd(compiled) == brute_count(lg.build_lineage(q, full).func)


def test_compile_hierarchical_refusals():
    q, db = chain_instance()
    with pytest.raises(RefusalError, match="not hierarchical"):
        lg.compile_hierarchical_lineage(q, db)
    schema = lg.Schema((lg.Relation("R", 1, True),))
    db1 = lg.Database(schema, {"R": [("a",)]})
    selfjoin = lg.Query(
        (
            lg.Atom("R", (lg.QueryVar("x"),)),
            lg.Atom("R", (lg.QueryVar("y"),)),
        )
    )
    with pytest.raises(RefusalError, match="self-join"):
        lg.compile_hierarchical_lineage(selfjoin, db1)


def test_compiler_refuses_exactly_the_non_hierarchical_queries():
    # the compiler reads hierarchy off its own variable forest
    rng = random.Random(19)
    refused = 0
    for _ in range(5000):
        q, schema = gen.random_query(rng, max_atoms=5, max_arity=4)
        at = {
            v: {i for i, atom in enumerate(q.atoms) if lg.QueryVar(v) in atom.args}
            for v in q.variables()
        }
        try:
            lg.compile_hierarchical_lineage(q, lg.Database(schema, {}))
        except RefusalError as exc:
            refused += 1
            assert not lg.is_hierarchical(q)[0]
            x, y = re.search(r"witness variables (\S+), (\S+)\)", str(exc)).groups()
            assert at[x] & at[y] and not at[x] <= at[y] and not at[y] <= at[x]
        else:
            assert lg.is_hierarchical(q)[0]
    assert 500 < refused < 4500


def test_compile_hierarchical_random_agreement():
    rng = random.Random(203)
    for _ in range(60):
        q, db = gen.random_sjf_instance(rng, hierarchical=True)
        built = lg.build_lineage(q, db)
        circuit = lg.compile_hierarchical_lineage(q, db)
        assert ct.check_decomposable(circuit)[0]
        assert ct.check_deterministic_exhaustive(circuit)[0] == "verified"
        assert ct.model_count_dd(circuit) == brute_count(built.func)
        assert ct.size_polynomial_count(circuit) == brute_kcounts(built.func)


def nested_instance(depth, rows, tied=()):
    """A_i(x0, ..., xi) for i < depth, where each j in tied adds a variable
    in the same atoms as xj, named to sort before it (odd j) or after it
    (even j); rows(names) gives the rows of the atom over those variables.
    A2 is exogenous."""
    atoms = []
    for i in range(depth):
        names = [f"x{j}" for j in range(i + 1)]
        names += [f"{'ya'[j % 2]}{j}" for j in sorted(tied) if j <= i]
        atoms.append((lg.Relation(f"A{i}", len(names), i != 2), names))
    schema = lg.Schema(tuple(rel for rel, _ in atoms))
    db = lg.Database(schema, {rel.name: rows(names) for rel, names in atoms})
    query = lg.Query(
        tuple(lg.Atom(rel.name, tuple(map(lg.QueryVar, names))) for rel, names in atoms)
    )
    return query, db


def test_compile_nested_family_at_depth_600():
    # the compiler recursed once per level and took cubic time in the depth:
    # 3.2 s at depth 200 on a 2-vCPU host, and a RecursionError at 600
    depth = 600
    q, db = nested_instance(depth, lambda names: [tuple(names)])
    start = time.perf_counter()
    circuit = lg.compile_hierarchical_lineage(q, db)
    assert ct.model_count_dd(circuit) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"compile and count took {elapsed:.1f} s"
    # A2 is exogenous: the one satisfying assignment sets all 599 variables
    assert ct.size_polynomial_count(circuit) == (0,) * (depth - 1) + (1,)


def test_compile_nested_family_with_ties_agrees_with_brute_force():
    rng = random.Random(18)
    for depth in range(1, 7):
        for _ in range(5):
            tied = {j for j in range(depth) if rng.random() < 0.5}
            # each atom projects two of four skewed assignments, so its rows
            # often meet the other atoms' rows
            variables = [f"{c}{j}" for c in "xay" for j in range(depth)]
            pool = [{v: "01"[rng.random() < 0.25] for v in variables} for _ in range(4)]

            def rows(names):
                return [tuple(p[n] for n in names) for p in rng.sample(pool, 2)]

            q, db = nested_instance(depth, rows, tied)
            built = lg.build_lineage(q, db)
            circuit = lg.compile_hierarchical_lineage(q, db)
            assert ct.model_count_dd(circuit) == brute_count(built.func)
            assert ct.size_polynomial_count(circuit) == brute_kcounts(built.func)


def test_shapley_tuples_hierarchical():
    q, db = join_instance()
    values = lg.shapley_tuples(q, db)
    assert values == (Fraction(1, 4),) * 4
    assert values == brute_shapley_permutations(lg.build_lineage(q, db).func)


def test_shapley_tuples_fp_branch_is_the_direct_pass(monkeypatch):
    rng = random.Random(204)
    instances = [gen.random_sjf_instance(rng, max_rows=5, hierarchical=True) for _ in range(60)]
    expected = []
    for q, db in instances:
        compiled = lg.compile_hierarchical_lineage(q, db)
        expected.append(shapley_circuit(compiled))
        assert expected[-1] == brute_shapley_subsets(lg.build_lineage(q, db).func)
    # the FP branch rebuilds no substituted copy and runs no size pass
    monkeypatch.setattr(ct, "or_substitute_all", None)
    monkeypatch.setattr(ct, "size_polynomial_count", None)
    assert [lg.shapley_tuples(q, db) for q, db in instances] == expected


def test_shapley_tuples_agrees_with_the_reduction_on_a_mid_size_join():
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"x{i}",) for i in range(12)],
        "S": [(f"x{i % 12}", f"y{i}") for i in range(36)],
    }
    q, db = lg.parse_query("Q :- R(x), S(x,y)"), lg.Database(schema, rows)
    values = lg.shapley_tuples(q, db)
    assert len(values) == 48 and sum(values) == 1
    assert values == shapley_circuit(lg.compile_hierarchical_lineage(q, db))


def test_shapley_tuples_empty_lineage():
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("U", 1, True)))
    db = lg.Database(schema, {"R": [("a",), ("b",)], "U": []})
    values = lg.shapley_tuples(lg.parse_query("Q :- R(x), U(x)"), db)
    assert values == (Fraction(0), Fraction(0))


def test_shapley_tuples_hard_branch_matches_without_warning():
    q, db = chain_instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lg.shapley_tuples(q, db)
    assert values == (Fraction(1, 4),) * 4


def test_shapley_tuples_hard_branch_refuses_above_bound():
    q, db = chain_instance()
    with pytest.raises(RefusalError, match="non-hierarchical"):
        lg.shapley_tuples(q, db, bound=3)
    with pytest.raises(RefusalError, match="--method brute"):
        lg.shapley_tuples(lg.parse_query("Q :- R(x), R(y)"), db)


def test_pp2dnf_instances():
    db, q = lg.pp2dnf_instance([(1, 1)])
    built = lg.build_lineage(q, db)
    assert clause_tuples(built) == [(0, 1)]

    db, q = lg.pp2dnf_instance([(1, 1), (2, 2)])
    built = lg.build_lineage(q, db)
    assert brute_count(built.func) == 7

    db, q = lg.pp2dnf_instance([(1, 1), (1, 2), (2, 1), (2, 2)])
    built = lg.build_lineage(q, db)
    assert clause_tuples(built) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    with pytest.raises(InputError):
        lg.pp2dnf_instance([])


def test_pp2dnf_round_trip_from_bipartite_lineage():
    # any clause set over the two unary endogenous relations rebuilds into a
    # fresh instance with the same labeled lineage
    rng = random.Random(206)
    base_q, base_db = chain_instance()
    for _ in range(20):
        arities = tuple(rng.randint(0, 2) for _ in range(base_db.var_count))
        stretched = lg.stretch_database_expand(base_db, arities)
        sq = lg.stretch_query(base_q, base_db.schema)
        built = lg.build_lineage(sq, stretched.database)
        r_count = len(stretched.database.rows["R"])
        if not built.clauses or built.clauses == (frozenset(),):
            continue
        edges = set()
        for clause in built.clauses:
            r_var = min(clause)
            t_var = max(clause)
            edges.add((r_var + 1, t_var - r_count + 1))
        db2, q2 = lg.pp2dnf_instance(edges)
        rebuilt = lg.build_lineage(q2, db2)
        xs = sorted({i for i, _ in edges})
        ys = sorted({j for _, j in edges})
        realigned = {
            frozenset({xs.index(i), len(xs) + ys.index(j)}) for i, j in edges
        }
        assert set(rebuilt.clauses) == realigned


def test_pp2dnf_random_edges():
    rng = random.Random(204)
    for _ in range(30):
        edges = {
            (rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))
        }
        db, q = lg.pp2dnf_instance(edges)
        built = lg.build_lineage(q, db)
        xs = sorted({i for i, _ in edges})
        ys = sorted({j for _, j in edges})
        want = {
            frozenset({xs.index(i), len(xs) + ys.index(j)}) for i, j in edges
        }
        assert set(built.clauses) == want


def test_embed_identity_on_chain_query():
    q, db = chain_instance()
    emb = embed_nonhierarchical(q, db)
    original = lg.build_lineage(q, db)
    embedded = lg.build_lineage(q, emb.database)
    mapped = {frozenset(emb.var_map[v] for v in c) for c in original.clauses}
    assert mapped == set(embedded.clauses)


def test_embed_larger_query():
    _, db = chain_instance()
    q = lg.parse_query("Q :- R(x), S(x,y), T(y), U(x,y)")
    emb = embed_nonhierarchical(q, db)
    kinds = {r.name: r.endogenous for r in emb.database.schema.relations}
    assert kinds == {"R": True, "S": False, "T": True, "U": False}
    original = lg.build_lineage(chain_instance()[0], db)
    embedded = lg.build_lineage(q, emb.database)
    mapped = {frozenset(emb.var_map[v] for v in c) for c in original.clauses}
    assert mapped == set(embedded.clauses)


def test_embed_random_nonhierarchical_queries():
    rng = random.Random(205)
    _, db = chain_instance()
    done = 0
    while done < 25:
        q, _ = gen.random_query(rng, max_atoms=4, max_arity=3)
        hierarchical, witness = lg.is_hierarchical(q)
        if hierarchical:
            continue
        x, y = witness
        has_r = any(
            x in {t.name for t in a.args if isinstance(t, lg.QueryVar)}
            and y not in {t.name for t in a.args if isinstance(t, lg.QueryVar)}
            for a in q.atoms
        )
        done += 1
        emb = embed_nonhierarchical(q, db)
        original = lg.build_lineage(chain_instance()[0], db)
        embedded = lg.build_lineage(q, emb.database)
        mapped = {frozenset(emb.var_map[v] for v in c) for c in original.clauses}
        assert mapped == set(embedded.clauses)
        assert has_r


def test_embed_refuses_hierarchical():
    _, db = chain_instance()
    with pytest.raises(RefusalError):
        embed_nonhierarchical(lg.parse_query("Q :- R(x), S(x, y)"), db)


def test_database_rows_deduplicate_in_first_seen_order():
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    db = lg.Database(
        schema,
        {
            "R": [("b",), ("a",), ("b",), ("c",), ("a",)],
            "S": [("x", "1"), ("y", "2"), ("x", "1")],
        },
    )
    assert db.rows == {"R": (("b",), ("a",), ("c",)), "S": (("x", "1"), ("y", "2"))}
    assert db.tuple_map == (("R", 0), ("R", 1), ("R", 2), ("S", 0), ("S", 1))
    assert db.var_of("S", 1) == 4


def test_database_roundtrip_and_determinism(tmp_path):
    q, db = chain_instance()
    lg.write_database(db, tmp_path)
    again = lg.load_database(tmp_path)
    assert again.rows == db.rows
    assert again.tuple_map == db.tuple_map
    assert lg.build_lineage(q, again).clauses == lg.build_lineage(q, db).clauses


def test_written_relation_csv_is_pinned_byte_for_byte(tmp_path):
    # a comma or a quote inside a value is quoted, a quote doubled; an empty
    # value leaves an empty field; every line ends in a bare newline
    schema = lg.Schema((lg.Relation("R", 2, True),))
    db = lg.Database(schema, {"R": [("a,b", 'say "hi"'), (" x", "")]})
    lg.write_database(db, tmp_path)
    assert (tmp_path / "schema.txt").read_bytes() == b"R 2 endo\n"
    assert (tmp_path / "R.csv").read_bytes() == b'"a,b","say ""hi"""\n x,\n'
    assert lg.load_database(tmp_path).rows == db.rows


def test_query_text_roundtrip():
    q, _ = chain_instance()
    assert lg.parse_query(lg.query_text(q)) == q
    with_const = lg.parse_query("Q :- R('a'), S(x, y), T(y)")
    assert lg.parse_query(lg.query_text(with_const)) == with_const
    with pytest.raises(InputError):
        lg.parse_query("Q :- ")
    with pytest.raises(InputError):
        lg.parse_query("Q :- R(x,), S(y)")
