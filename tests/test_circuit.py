import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from helpers import EXAMPLE_NNF, example1_circuit, or_substitute, unfold
from shapcount import boolfunc
from shapcount import circuit as ct
from shapcount import gen
from shapcount import lineage as lg
from shapcount.boolfunc import (
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    evaluate as feval,
    truth_table,
)
from shapcount.circuit import (
    AND,
    CONST0,
    CONST1,
    NOT,
    OR,
    VAR,
    Circuit,
    CircuitBuilder,
    Gate,
    _occurrences,
    check_decomposable,
    check_deterministic_exhaustive,
    count_oracle,
    kcount_oracle,
    kcounts_circuit,
    model_count_dd,
    or_substitute_all,
    parse_nnf,
    shapley_circuit,
    shapley_direct,
    size_polynomial_count,
    to_nnf_text,
    validate,
)
from shapcount.errors import InconsistencyError, InputError, RefusalError


def single_var() -> Circuit:
    return parse_nnf("nnf 1 0 1\nL 1\n")


def test_parse_single_gate():
    c = single_var()
    assert c.size() == 1 and c.var_count == 1
    assert model_count_dd(c) == 1


def test_unused_declared_variables_are_smoothed():
    c = parse_nnf("nnf 1 0 3\nL 1\n")
    assert model_count_dd(c) == 4
    assert size_polynomial_count(c) == (0, 1, 2, 1)
    assert kcounts_circuit(c) == (0, 1, 2, 1)
    assert shapley_circuit(c) == (Fraction(1), Fraction(0), Fraction(0))


def test_parse_example_circuit():
    c = parse_nnf(EXAMPLE_NNF)
    # seven lines plus one synthesized variable gate for the negated literal
    assert c.size() == 8
    assert model_count_dd(c) == 4
    assert size_polynomial_count(c) == (0, 1, 2, 1)
    report = validate(c)
    assert report.decomposable and report.determinism == "verified"


@pytest.mark.parametrize(
    "bad",
    [
        "nnf 2 0 1\nL 1\n",  # gate count mismatch
        "nnf 1 1 1\nL 1\n",  # edge count mismatch
        "nnf 1 0 1\nL 2\n",  # variable out of range
        "nnf 2 2 2\nL 1\nA 2 0 1\n",  # forward/self reference
        "nnf 2 1 2\nL 1\nA 1 0\n",  # unary gate
        "nnf 2 0 2\nL 1\nL 2\n",  # unreferenced interior gate
        "nnf 1 0 1\nO 0 0\n",  # empty disjunction; use F
        "L 1\n",  # missing header
        "nnf 1 0 1\nX 1\n",  # unknown tag
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_nnf(bad)


def test_round_trip_through_text():
    for text in (EXAMPLE_NNF, "nnf 1 0 1\nL 1\n", "nnf 1 0 0\nT\n"):
        c = parse_nnf(text)
        again = parse_nnf(to_nnf_text(c))
        assert again.var_count == c.var_count
        for mask in range(1 << c.var_count):
            trues = [v for v in range(c.var_count) if mask >> v & 1]
            assert ct.evaluate(again, trues) == ct.evaluate(c, trues)


def test_random_circuits_round_trip_and_count_after_parsing():
    rng = random.Random(81)
    for _ in range(30):
        built = gen.random_decision_circuit(rng, max_vars=8, max_gates=30)
        parsed = parse_nnf(to_nnf_text(built))
        f = unfold(built)
        assert validate(parsed).determinism == "verified"
        assert model_count_dd(parsed) == brute_count(f)
        assert size_polynomial_count(parsed) == brute_kcounts(f)
        assert kcounts_circuit(parsed) == brute_kcounts(f)


def test_zero_variable_circuit():
    b = CircuitBuilder(0)
    c = b.build(b.add(CONST1))
    assert model_count_dd(c) == 1
    assert size_polynomial_count(c) == (1,)
    assert shapley_circuit(c) == ()


def test_to_text_rejects_inner_negation():
    b = CircuitBuilder(2)
    a = b.add(AND, inputs=(b.add(VAR, var=0), b.add(VAR, var=1)))
    c = b.build(b.add(NOT, inputs=(a,)))
    with pytest.raises(InputError):
        to_nnf_text(c)


def test_builder_interns_leaves_and_folds_constants():
    b = CircuitBuilder(2)
    x, zero, one = b.var(0), b.const(0), b.const(1)
    assert (b.var(0), b.const(0), b.const(1)) == (x, zero, one)
    assert b.negate(x) == b.negate(x) != x
    assert (b.negate(zero), b.negate(one)) == (one, zero)
    for fold, absorbing in ((b.and_, zero), (b.or_, one)):
        neutral = one if absorbing == zero else zero
        assert fold([x, absorbing, b.var(1)]) == absorbing
        assert fold([neutral, x, neutral]) == x
        assert fold([neutral]) == fold([]) == neutral
        # connectives are folded but never shared
        assert fold([x, b.var(1)]) != fold([x, b.var(1)])
    assert [g.kind for g in b._gates].count(VAR) == 2


def test_check_decomposable():
    ok, bad = check_decomposable(parse_nnf(EXAMPLE_NNF))
    assert ok and bad == ()

    b = CircuitBuilder(1)
    x = b.add(VAR, var=0)
    y = b.add(VAR, var=0)
    shared = b.build(b.add(AND, inputs=(x, y)))
    ok, bad = check_decomposable(shared)
    assert not ok and bad == (2,)

    b = CircuitBuilder(3)
    inner = b.add(AND, inputs=(b.add(VAR, var=1), b.add(VAR, var=2)))
    nested = b.build(b.add(AND, inputs=(b.add(VAR, var=0), inner)))
    assert check_decomposable(nested)[0]


def test_check_decomposable_matches_scope_sets_on_random_circuits():
    def reference(c):
        scopes = []
        for gate in c.gates:
            scope = frozenset((gate.var,)) if gate.kind == VAR else frozenset()
            scopes.append(scope.union(*(scopes[r] for r in gate.inputs)))
        bad = tuple(
            idx
            for idx, gate in enumerate(c.gates)
            if gate.kind == AND and sum(len(scopes[r]) for r in gate.inputs) != len(scopes[idx])
        )
        return (not bad, bad)

    rng = random.Random(9)
    violating = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        b = CircuitBuilder(n)
        nodes = [b.add(VAR, var=v) for v in range(n)]
        for _ in range(rng.randint(1, 12)):
            kind = rng.choice((AND, AND, OR, NOT))
            if kind == NOT:
                nodes.append(b.add(NOT, inputs=(rng.choice(nodes),)))
            else:
                # children drawn with replacement, so ANDs over shared variables are common
                nodes.append(b.add(kind, inputs=rng.choices(nodes, k=rng.randint(2, 3))))
        c = b.build(nodes[-1])
        want = reference(c)
        assert check_decomposable(c) == want
        violating += len(want[1])
    assert violating > 500


def test_check_deterministic():
    assert check_deterministic_exhaustive(parse_nnf(EXAMPLE_NNF)) == ("verified", None)

    b = CircuitBuilder(2)
    plain_or = b.build(b.add(OR, inputs=(b.add(VAR, var=0), b.add(VAR, var=1))))
    status, witness = check_deterministic_exhaustive(plain_or)
    assert status == "refuted" and witness == (0, 1)

    b = CircuitBuilder(ct.DETERMINISM_BOUND + 1)
    wide_or = b.build(b.add(OR, inputs=(b.add(VAR, var=0), b.add(VAR, var=1))))
    status, witness = check_deterministic_exhaustive(wide_or)
    assert status == "assumed" and witness is None

    # (x0 and x1) or (x1 and x2) conflicts only on {0, 1, 2}; x0 or not x1
    # already on {0}, a lower valuation: the witness is the first OR's in
    # gate order, at its lowest conflicting valuation
    def two_ors(wide_first: bool) -> Circuit:
        b = CircuitBuilder(3)
        x0, x1, x2 = (b.var(v) for v in range(3))
        ors = []
        for wide in (wide_first, not wide_first):
            if wide:
                ors.append(b.add(OR, inputs=(b.and_((x0, x1)), b.and_((x1, x2)))))
            else:
                ors.append(b.add(OR, inputs=(x0, b.negate(x1))))
        return b.build(b.add(AND, inputs=ors))

    assert check_deterministic_exhaustive(two_ors(True)) == ("refuted", (0, 1, 2))
    assert check_deterministic_exhaustive(two_ors(False)) == ("refuted", (0,))

    # conflicts only at {2} and {0, 1}: the table lists {2} first, as it is
    # smaller, but {0, 1} has the lower valuation index, 3 against 4
    b = CircuitBuilder(3)
    x0, x1, x2 = (b.var(v) for v in range(3))
    only_2 = b.and_((b.negate(x0), b.negate(x1), x2))
    only_01 = b.add(OR, inputs=(b.and_((x0, x1, b.negate(x2))), only_2))
    with_01 = b.add(OR, inputs=(b.and_((x0, x1)), only_2))
    split = b.build(b.add(OR, inputs=(only_01, with_01)))
    assert check_deterministic_exhaustive(split) == ("refuted", (0, 1))


def test_model_count_refusals():
    b = CircuitBuilder(1)
    x = b.add(VAR, var=0)
    y = b.add(VAR, var=0)
    shared = b.build(b.add(AND, inputs=(x, y)))
    with pytest.raises(RefusalError, match="not decomposable"):
        model_count_dd(shared)

    b = CircuitBuilder(2)
    plain_or = b.build(b.add(OR, inputs=(b.add(VAR, var=0), b.add(VAR, var=1))))
    with pytest.raises(RefusalError, match="not deterministic"):
        model_count_dd(plain_or)


def test_model_count_examples():
    assert model_count_dd(parse_nnf(EXAMPLE_NNF)) == 4
    b = CircuitBuilder(3)
    assert model_count_dd(b.build(b.add(CONST1))) == 8
    assert model_count_dd(example1_circuit()) == 3


def test_size_polynomial_examples():
    assert size_polynomial_count(example1_circuit()) == (0, 1, 1, 1)
    b = CircuitBuilder(2)
    assert size_polynomial_count(b.build(b.add(CONST1))) == (1, 2, 1)
    assert size_polynomial_count(parse_nnf(EXAMPLE_NNF)) == (0, 1, 2, 1)


def test_interior_negation_counts_by_complement():
    # not(x0 and x1) has 3 models; negation may sit above any gate
    b = CircuitBuilder(2)
    a = b.add(AND, inputs=(b.add(VAR, var=0), b.add(VAR, var=1)))
    c = b.build(b.add(NOT, inputs=(a,)))
    assert model_count_dd(c) == 3
    assert size_polynomial_count(c) == (1, 2, 0)


def test_unfold_matches_circuit():
    c = parse_nnf(EXAMPLE_NNF)
    f = unfold(c)
    for mask in range(8):
        trues = [v for v in range(3) if mask >> v & 1]
        assert feval(f, trues) == ct.evaluate(c, trues)


def test_brute_force_takes_circuits_as_they_are():
    rng = random.Random(42)
    for _ in range(200):
        c = gen.random_decision_circuit(rng, max_vars=6, max_gates=25)
        f = unfold(c)
        assert brute_count(c) == brute_count(f) == model_count_dd(c)
        assert brute_kcounts(c) == brute_kcounts(f)
        shapley = brute_shapley_subsets(c)
        assert shapley == brute_shapley_subsets(f) == brute_shapley_permutations(f)


def test_or_substitute_single_variable():
    c = single_var()
    sub = or_substitute_all(c, (2,))
    assert sub.var_count == 2
    assert model_count_dd(sub) == 3
    assert check_deterministic_exhaustive(sub) == ("verified", None)

    iso = or_substitute_all(c, (1,))
    assert model_count_dd(iso) == 1 and iso.var_count == 1


def test_or_substitute_example_circuit():
    c = parse_nnf(EXAMPLE_NNF)
    sub = or_substitute_all(c, (2, 1, 1))
    # (not(z0 or z1) and x1) or ((z0 or z1) and x2): 8 of 16 valuations
    assert sub.var_count == 4
    assert model_count_dd(sub) == 8
    assert check_decomposable(sub)[0]
    assert check_deterministic_exhaustive(sub) == ("verified", None)


def test_or_substitute_zero_width():
    c = parse_nnf(EXAMPLE_NNF)
    sub = or_substitute_all(c, (0, 1, 1))
    # x0 := 0 leaves (not 0 and x1): the x1 half over the two survivors
    assert sub.var_count == 2
    assert model_count_dd(sub) == 2
    assert sub.size() <= c.size() + 2


def _negate_inside(rng: random.Random, c: Circuit) -> Circuit:
    """`c` with NOT put over random non-literal AND children and over the
    output.  Decision circuits separate OR children by their literals, which
    stay untouched, so the result is still deterministic and decomposable."""
    b = CircuitBuilder(c.var_count)
    mapping = []
    for gate in c.gates:
        inputs = [mapping[r] for r in gate.inputs]
        if gate.kind == AND:
            inputs = [
                b.negate(i) if c.gates[r].kind in (AND, OR) and rng.random() < 0.5 else i
                for r, i in zip(gate.inputs, inputs)
            ]
        mapping.append(b.add(gate.kind, gate.var, inputs))
    return b.build(b.negate(mapping[c.output]))


def test_or_substitute_under_interior_negation():
    rng = random.Random(82)
    done = inner = 0
    while done < 60:
        c = _negate_inside(rng, gen.random_decision_circuit(rng, max_vars=6, max_gates=30))
        widths = tuple(rng.randint(0, 3) for _ in range(c.var_count))
        if sum(widths) > 12:
            continue
        done += 1
        inner += any(g.kind == NOT and c.gates[g.inputs[0]].kind != VAR for g in c.gates)
        assert check_decomposable(c)[0]
        assert check_deterministic_exhaustive(c) == ("verified", None)
        sub = or_substitute_all(c, widths)
        fn = or_substitute(unfold(c), widths).func
        assert model_count_dd(sub) == brute_count(fn)
        assert size_polynomial_count(sub) == brute_kcounts(fn)
        assert check_decomposable(sub)[0]
        assert check_deterministic_exhaustive(sub) == ("verified", None)
        growth = sum(k * m for k, m in zip(_occurrences(c), widths))
        assert sub.size() - c.size() <= 6 * growth
    assert inner > 40


def test_or_substitute_equivalence_and_preservation():
    rng = random.Random(77)
    for _ in range(60):
        c = gen.random_decision_circuit(rng, max_vars=7, max_gates=30)
        n = c.var_count
        x = rng.randrange(n)
        ell = rng.randint(0, 3)
        arities = tuple(ell if i == x else 1 for i in range(n))
        sub = or_substitute_all(c, arities)
        fn = or_substitute(unfold(c), arities)
        for mask in range(1 << sub.var_count):
            trues = [v for v in range(sub.var_count) if mask >> v & 1]
            assert ct.evaluate(sub, trues) == feval(fn.func, trues)
        assert check_decomposable(sub)[0]
        assert check_deterministic_exhaustive(sub)[0] == "verified"
        k = _occurrences(c)[x]
        if ell and k:
            assert sub.size() <= c.size() + 6 * k * ell
        else:
            assert sub.size() <= c.size() + 2


def test_substitution_over_the_growth_bound_is_an_inconsistency(monkeypatch):
    base = single_var()
    make = ct.Circuit

    def padded(gates, var_count, certified=False):
        gates = list(gates)
        for _ in range(7):
            gates.append(Gate(NOT, inputs=(len(gates) - 1,)))
        return make(gates, var_count, certified)

    monkeypatch.setattr(ct, "Circuit", padded)
    # width 1 on one occurrence allows 6 new gates
    with pytest.raises(InconsistencyError, match="over the bound"):
        or_substitute_all(base, (1,))


def _substitute_by_builder(circuit: Circuit, arities) -> Circuit:
    """The builder route to `or_substitute_all`'s copy: every variable's
    chain through `CircuitBuilder`, the unread ones dropped by `build`."""
    builder = CircuitBuilder(sum(arities))
    roots = []
    fresh = 0
    for ell in arities:
        block = [builder.add(VAR, var=z) for z in range(fresh, fresh + ell)]
        roots.append(builder.exclusive_or(block))
        fresh += ell
    mapping = []
    for gate in circuit.gates:
        if gate.kind == VAR:
            mapping.append(roots[gate.var])
        else:
            mapping.append(builder.add(gate.kind, inputs=tuple(mapping[r] for r in gate.inputs)))
    return builder.build(mapping[circuit.output])


def test_direct_substitution_matches_the_builder_route():
    rng = random.Random(84)
    inner = unused = zero = 0
    for round_ in range(300):
        c = gen.random_decision_circuit(rng, max_vars=6, max_gates=30)
        if rng.random() < 0.7:
            c = _negate_inside(rng, c)
        if rng.random() < 0.3:  # variables that never occur
            c = Circuit(c.gates, c.var_count + rng.randint(1, 2))
        arities = tuple(rng.randint(0, 3) for _ in range(c.var_count))
        if round_ % 10 == 0:
            arities = (0,) * c.var_count
        while sum(arities) > 12:
            arities = tuple(m // 2 for m in arities)
        inner += any(g.kind == NOT and c.gates[g.inputs[0]].kind != VAR for g in c.gates)
        unused += 0 in _occurrences(c)
        zero += not any(arities)
        copy = or_substitute_all(c, arities)
        reference = _substitute_by_builder(c, arities)
        assert copy.size() == reference.size()
        assert copy.var_count == reference.var_count == sum(arities)
        assert model_count_dd(copy) == model_count_dd(reference)
        assert size_polynomial_count(copy) == size_polynomial_count(reference)
        assert check_decomposable(copy)[0]
        assert check_deterministic_exhaustive(copy) == ("verified", None)
        growth = sum(k * m for k, m in zip(_occurrences(c), arities))
        assert copy.size() - c.size() <= 6 * growth
    assert inner > 100 and unused > 50 and zero >= 30


def test_uniform_substitution_counts():
    rng = random.Random(78)
    for _ in range(20):
        c = gen.random_decision_circuit(rng, max_vars=5, max_gates=20)
        f = unfold(c)
        for ell in (1, 2, 3):
            if c.var_count * ell > 15:
                continue
            substituted = or_substitute_all(c, (ell,) * c.var_count)
            assert model_count_dd(substituted) == brute_count(
                or_substitute(f, (ell,) * c.var_count).func
            )


def test_mixed_substitution_matches_function_substitution():
    # one rebuild for all variables, numbered like helpers.or_substitute
    rng = random.Random(81)
    done = 0
    while done < 40:
        c = gen.random_decision_circuit(rng, max_vars=6, max_gates=25)
        arities = tuple(rng.randint(0, 3) for _ in range(c.var_count))
        if sum(arities) > 12:
            continue
        done += 1
        sub = or_substitute_all(c, arities)
        fn = or_substitute(unfold(c), arities).func
        assert sub.var_count == fn.var_count == sum(arities)
        assert truth_table(unfold(sub)) == truth_table(fn)
        assert check_decomposable(sub)[0]
        assert check_deterministic_exhaustive(sub) == ("verified", None)
        growth = sum(k * m for k, m in zip(_occurrences(c), arities))
        assert sub.size() - c.size() <= 6 * growth
    with pytest.raises(InputError, match="one arity per variable"):
        or_substitute_all(single_var(), (1, 1))


def test_implicit_oracles_equal_counts_of_the_substituted_copy():
    rng = random.Random(83)
    b = CircuitBuilder(2)
    circuits = [
        parse_nnf("nnf 1 0 3\nL 2\n"),  # declared but unused variables
        parse_nnf("nnf 1 0 2\nT\n"),
        b.build(b.add(CONST0)),
        parse_nnf("nnf 1 0 0\nF\n"),  # n = 0
        Circuit([Gate(CONST1)], 0),
    ]
    for _ in range(80):
        c = gen.random_decision_circuit(rng, max_vars=6, max_gates=30)
        circuits.append(_negate_inside(rng, c) if rng.random() < 0.5 else c)
    inner = 0
    for c in circuits:
        inner += any(g.kind == NOT and c.gates[g.inputs[0]].kind != VAR for g in c.gates)
        # widths up to 6 make the inputs of an OR differ by wide shifts
        for top in (3, 3, 3, 6, 6):
            arities = tuple(rng.randint(0, top) for _ in range(c.var_count))
            copy = or_substitute_all(c, arities)
            assert count_oracle(c)(arities) == model_count_dd(copy)
            assert kcount_oracle(c)(arities) == size_polynomial_count(copy)
    assert inner > 20
    with pytest.raises(InputError, match="one arity per variable"):
        count_oracle(single_var())((1, 1))
    with pytest.raises(InputError, match="nonnegative"):
        kcount_oracle(single_var())((-1,))


def test_kcounts_circuit_agrees_with_direct():
    for c in (example1_circuit(), parse_nnf(EXAMPLE_NNF)):
        assert kcounts_circuit(c) == size_polynomial_count(c)
    rng = random.Random(79)
    for _ in range(25):
        c = gen.random_decision_circuit(rng, max_vars=6, max_gates=25)
        assert kcounts_circuit(c) == size_polynomial_count(c) == brute_kcounts(unfold(c))


def test_shapley_circuit_examples():
    assert shapley_circuit(example1_circuit()) == (
        Fraction(5, 6),
        Fraction(2, 6),
        Fraction(-1, 6),
    )
    b = CircuitBuilder(2)
    zeros = b.build(b.add(CONST0))
    assert shapley_circuit(zeros) == (Fraction(0), Fraction(0))
    c = parse_nnf(EXAMPLE_NNF)
    assert shapley_circuit(c) == brute_shapley_permutations(unfold(c))


def test_shapley_circuit_random():
    rng = random.Random(80)
    for _ in range(25):
        c = gen.random_decision_circuit(rng, max_vars=7, max_gates=25)
        assert shapley_circuit(c) == brute_shapley_permutations(unfold(c))


def test_shapley_direct_matches_the_reduction_on_random_circuits():
    rng = random.Random(81)
    for _ in range(1000):
        c = gen.random_decision_circuit(rng, max_vars=rng.randint(1, 7), max_gates=25)
        assert shapley_direct(c) == shapley_circuit(c)


def test_shapley_direct_edge_cases():
    assert shapley_direct(example1_circuit()) == (Fraction(5, 6), Fraction(1, 3), Fraction(-1, 6))
    for kind in (CONST0, CONST1):
        b = CircuitBuilder(2)
        assert shapley_direct(b.build(b.add(kind))) == (Fraction(0), Fraction(0))
        assert shapley_direct(Circuit([Gate(kind)], 0)) == ()
    # x0 or (not x0 and x2); variables 1 and 3 are declared but no gate reads them
    b = CircuitBuilder(4)
    c = b.build(b.add(OR, inputs=(b.var(0), b.add(AND, inputs=(b.negate(b.var(0)), b.var(2))))))
    assert shapley_direct(c) == (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))
    # a NOT above an AND at the output: not(x0 and x1)
    b = CircuitBuilder(2)
    c = b.build(b.add(NOT, inputs=(b.add(AND, inputs=(b.var(0), b.var(1))),)))
    assert shapley_direct(c) == (Fraction(-1, 2), Fraction(-1, 2))
    # an AND with a constant child
    for kind, value in ((CONST1, 1), (CONST0, 0)):
        c = Circuit([Gate(VAR, var=0), Gate(kind), Gate(AND, inputs=(0, 1))], 1)
        assert shapley_direct(c) == (Fraction(value),)


def test_shapley_direct_checks_the_efficiency_sum(monkeypatch):
    c = example1_circuit()
    monkeypatch.setattr(
        ct, "_shapley_moments", lambda circuit: (Fraction(1), Fraction(1), Fraction(0))
    )
    with pytest.raises(InconsistencyError, match="efficiency"):
        shapley_direct(c)


def test_shapley_direct_refuses_what_counting_refuses():
    b = CircuitBuilder(1)
    x = b.var(0)
    with pytest.raises(RefusalError):
        shapley_direct(b.build(b.add(AND, inputs=(x, b.negate(x)))))
    with pytest.raises(RefusalError):
        shapley_direct(b.build(b.add(OR, inputs=(x, b.const(1)))))


def test_bottom_up_passes_drop_values_after_their_last_reader(monkeypatch):
    c = parse_nnf(EXAMPLE_NNF)
    polys = ct._probability_polys(c)
    assert [i for i, p in enumerate(polys) if p is not None] == [c.output]
    feeds_and = frozenset(r for g in c.gates if g.kind == AND for r in g.inputs)
    polys = ct._probability_polys(c, feeds_and)
    assert {i for i, p in enumerate(polys) if p is not None} == feeds_and | {c.output}

    # every other pass keeps only the output's value: validation's scope
    # masks and truth tables, the count and the evaluator; the truth table
    # is the one validation kept
    passes = []

    def recording(*args, **kwargs):
        values = fold(*args, **kwargs)
        passes.append(values)
        return values

    fold = boolfunc._fold
    monkeypatch.setattr(boolfunc, "_fold", recording)
    monkeypatch.setattr(ct, "_fold", recording)
    fresh = parse_nnf(EXAMPLE_NNF)
    assert model_count_dd(fresh) == 4
    # one byte per size block: models {1}; {0, 2}, {1, 2}; {0, 1, 2}
    assert truth_table(fresh) == int.from_bytes(bytes([0b000, 0b010, 0b110, 0b1]), "little")
    assert feval(fresh, (0, 2)) == 1
    assert len(passes) == 4  # masks, tables, count, evaluation
    for values in passes:
        assert [i for i, v in enumerate(values) if v is not None] == [fresh.output]


def test_count_pass_memory_stays_at_the_frontier():
    # R(x), S(x,y) with 4 S rows per R value, n = 15000: every gate's scope
    # mask held at once set a 64 MiB peak; the count needs about 5 MiB
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"x{i}",) for i in range(3000)],
        "S": [(f"x{i}", f"y{j}") for i in range(3000) for j in range(4)],
    }
    compiled = lg.compile_hierarchical_lineage(
        lg.parse_query("Q :- R(x), S(x,y)"), lg.Database(schema, rows)
    )
    assert compiled.var_count == 15000
    tracemalloc.start()
    try:
        count = model_count_dd(compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a failing R value: R false (16 ways) or R true and its S rows false (1)
    assert count == 2**15000 - 17**3000
    assert peak < 16 * 2**20


def test_circuit_validation_rules():
    with pytest.raises(InputError):
        Circuit([Gate(VAR, var=0), Gate(VAR, var=1)], 2)  # two sinks
    with pytest.raises(InputError):
        Circuit([Gate(NOT, inputs=(0,))], 1)  # self reference
    with pytest.raises(InputError):
        Circuit([Gate(VAR, var=3)], 2)  # variable range
    with pytest.raises(InputError):
        Circuit([Gate(VAR, var=0), Gate(AND, inputs=(0,))], 1)  # unary AND


x0, x1 = Gate(VAR, var=0), Gate(VAR, var=1)


# (name, gates, var_count, message); a name is "gates<position>-<output>" from
# the table's older layout, which passed the output index, kept so that each
# case's test id stays the same
REJECTIONS = [
    ("gates0-0", [], 0, "a circuit needs at least one gate"),
    ("gates1-0", [x0], -1, "variable count must be nonnegative"),
    ("gates4-1", [x0, Gate("xor", inputs=(0,))], 1, "gate 1: unknown kind 'xor'"),
    ("gates5-1", [x0, Gate(CONST0, inputs=(0,))], 1, "gate 1: wrong arity for const0"),
    ("gates6-1", [x0, Gate(CONST1, inputs=(0,))], 1, "gate 1: wrong arity for const1"),
    ("gates7-1", [x0, Gate(VAR, var=0, inputs=(0,))], 1, "gate 1: wrong arity for var"),
    ("gates8-0", [Gate(NOT)], 0, "gate 0: wrong arity for not"),
    ("gates9-2", [x0, x1, Gate(NOT, inputs=(0, 1))], 2, "gate 2: wrong arity for not"),
    ("gates10-1", [x0, Gate(AND, inputs=(0,))], 1, "gate 1: wrong arity for and"),
    ("gates11-1", [x0, Gate(OR)], 1, "gate 1: wrong arity for or"),
    ("gates12-0", [Gate(VAR, var=2)], 2, "gate 0: variable 2 out of range"),
    ("gates13-0", [Gate(VAR, var=-1)], 2, "gate 0: variable -1 out of range"),
    # a variable gate with inputs: the range message wins
    ("gates14-1", [x0, Gate(VAR, var=5, inputs=(0,))], 1, "gate 1: variable 5 out of range"),
    ("gates15-2", [x0, x1, Gate(AND, inputs=(0, 3))], 2, "gate 2: input 3 does not precede it"),
    ("gates16-2", [x0, x1, Gate(AND, inputs=(0, 2))], 2, "gate 2: input 2 does not precede it"),
    ("gates17-2", [x0, x1, Gate(OR, inputs=(-1, 0))], 2, "gate 2: input -1 does not precede it"),
    # the first bad input is named
    ("gates18-2", [x0, x1, Gate(OR, inputs=(1, 5, -2))], 2, "gate 2: input 5 does not precede it"),
    ("gates19-2", [x0, x1, Gate(OR, inputs=(1, -2, 5))], 2, "gate 2: input -2 does not precede it"),
    (
        "gates20-3",
        [x0, x1, Gate(CONST1), Gate(AND, inputs=(0, 1))],
        2,
        "expected the output to be the only unreferenced gate, found [2, 3]",
    ),
]


@pytest.mark.parametrize(
    "gates, var_count, message",
    [pytest.param(*case, id=f"{name}-{case[1]}-{case[2]}") for name, *case in REJECTIONS],
)
def test_circuit_rejections_name_the_first_fault(gates, var_count, message):
    with pytest.raises(InputError) as caught:
        Circuit(gates, var_count)
    assert str(caught.value) == message


def test_validation_is_computed_once_per_circuit():
    c = example1_circuit()
    assert validate(c) is validate(c)
    certified = Circuit(c.gates, c.var_count, deterministic_by_construction=True)
    assert validate(certified) is not validate(c)
    assert "determinism certified by construction" in validate(certified).notes


def test_substituted_copy_is_certified_only_from_a_verified_base():
    certified = "determinism certified by construction"
    c = parse_nnf(EXAMPLE_NNF)
    assert validate(c).determinism == "verified" and certified not in validate(c).notes
    assert certified in validate(or_substitute_all(c, (2, 1, 1))).notes
    overlapping = parse_nnf("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n")  # x0 or x1
    copy = validate(or_substitute_all(overlapping, (2, 1)))
    assert copy.determinism == "refuted" and certified not in copy.notes


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _one_plus_t(power):
    return [comb(power, k) for k in range(power + 1)]


def test_size_polynomial_on_a_large_hierarchical_lineage():
    # R(x), S(x,y): an R value with b S rows fails the query when R is false,
    # (1+t)^b ways by size, or when R is true and its S rows are all false,
    # so K(t) = (1+t)^n - prod_x [(1+t)^b + t]
    rng = random.Random(31)
    blocks = [rng.randint(0, 6) for _ in range(160)]
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"x{i}",) for i in range(len(blocks))],
        "S": [(f"x{i}", f"y{j}") for i, b in enumerate(blocks) for j in range(b)],
    }
    rng.shuffle(rows["S"])
    compiled = lg.compile_hierarchical_lineage(
        lg.parse_query("Q :- R(x), S(x,y)"), lg.Database(schema, rows)
    )
    n = len(blocks) + sum(blocks)
    assert compiled.var_count == n >= 600
    failing = [1]
    for b in blocks:
        failing = _poly_mul(failing, _poly_add(_one_plus_t(b), [0, 1]))
    expected = _poly_add(_one_plus_t(n), [-c for c in failing])
    assert size_polynomial_count(compiled) == tuple(expected)


def test_paper_kcounts_at_240_variables_equal_the_direct_pass():
    # R(x), S(x,y) with 4 S rows per R value: the 241 counts of the paper's
    # route have up to 57840 bits, and their digits are the size polynomial
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"x{i}",) for i in range(48)],
        "S": [(f"x{i}", f"y{j}") for i in range(48) for j in range(4)],
    }
    compiled = lg.compile_hierarchical_lineage(
        lg.parse_query("Q :- R(x), S(x,y)"), lg.Database(schema, rows)
    )
    assert compiled.var_count == 240
    assert kcounts_circuit(compiled) == size_polynomial_count(compiled)


def test_shapley_direct_on_a_large_hierarchical_lineage():
    # Shap_v = sum_k k!(n-1-k)!/n! d_k, with d(t) the size polynomial of the
    # cofactor at v minus the one at not v.  Only v's block changes: its
    # failing polynomial (1+t)^b + t becomes 1 or (1+t)^b for an R tuple, and
    # (1+t)^(b-1) or (1+t)^(b-1) + t for one of its S tuples, so
    # d = others * ((1+t)^b - 1) and d = others * t, where others is the
    # product of the other blocks' failing polynomials.
    rng = random.Random(32)
    blocks = [rng.randint(0, 6) for _ in range(180)]
    schema = lg.Schema((lg.Relation("R", 1, True), lg.Relation("S", 2, True)))
    rows = {
        "R": [(f"x{i}",) for i in range(len(blocks))],
        "S": [(f"x{i}", f"y{j}") for i, b in enumerate(blocks) for j in range(b)],
    }
    rng.shuffle(rows["S"])
    compiled = lg.compile_hierarchical_lineage(
        lg.parse_query("Q :- R(x), S(x,y)"), lg.Database(schema, rows)
    )
    n = len(blocks) + sum(blocks)
    assert compiled.var_count == n >= 600
    failing = {b: _poly_add(_one_plus_t(b), [0, 1]) for b in set(blocks)}
    # all but one block of each size, then the rest but one of size b
    shared = [1]
    for b, m in Counter(blocks).items():
        for _ in range(m - 1):
            shared = _poly_mul(shared, failing[b])
    weights = [Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) for k in range(n)]
    value = {}
    for b in failing:
        others = shared
        for b2 in failing:
            if b2 != b:
                others = _poly_mul(others, failing[b2])
        for is_r, diff in ((True, _poly_add(_one_plus_t(b), [-1])), (False, [0, 1])):
            d = _poly_mul(others, diff)
            value[is_r, b] = sum((w * x for w, x in zip(weights, d)), Fraction(0))
    expected = [value[True, b] for b in blocks]
    expected += [value[False, blocks[int(x[1:])]] for x, _ in rows["S"]]
    assert shapley_direct(compiled) == tuple(expected)


# sha256 digests of the arrays pinned below
DECISION_DIGEST = "a279459322ed9035a703ccf6ec5762ac47e4e28d110d515a58c6410f781c9261"
COMPILED_DIGEST = "d276f7f08b6e07acf7c87cf5e4052ea04a4bb58a12c09800ae9c0eeaf335adbb"


def _gate_array_digest(seeds, draw) -> str:
    """sha256 over repr((gates, var_count)) of each drawn circuit, or over
    the message of a refusal to build one."""
    digest = hashlib.sha256()
    for seed in seeds:
        try:
            c = draw(random.Random(seed), seed)
        except RefusalError as exc:
            digest.update(str(exc).encode())
        else:
            digest.update(repr((c.gates, c.var_count)).encode())
    return digest.hexdigest()


def test_generated_gate_arrays_are_pinned():
    # the benchmark's nnf files and `compare`'s input digest are written from
    # these arrays, so building them differently must show here first
    decision = _gate_array_digest(range(3000), lambda rng, _: gen.random_decision_circuit(rng))
    assert decision == DECISION_DIGEST

    def compiled(rng, seed):
        query, db = gen.random_sjf_instance(rng, hierarchical=seed % 2 == 0)
        return lg.compile_hierarchical_lineage(query, db)

    assert _gate_array_digest(range(1000), compiled) == COMPILED_DIGEST
