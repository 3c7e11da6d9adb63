import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from scarkit.errors import (
    DomainError,
    ResourceLimitError,
    SpecParseError,
    ValidationError,
)
from scarkit.freqarith import (
    FrequencySpec,
    GeneratorBasis,
    conductor,
    decompose,
    format_frequency_spec,
    lattice_solver,
    parse_frequency_spec,
    period_of,
    semigroup_witness,
    span_solver,
    sqrt_decimal,
)

ONE = Decimal(1)
SQRT2 = sqrt_decimal(2)
SQRT3 = sqrt_decimal(3)

F = Fraction


def make_spec(coords, labels=("one", "sqrt2", "sqrt3")):
    values = {"one": ONE, "sqrt2": SQRT2, "sqrt3": SQRT3}
    m = len(coords[0])
    basis = GeneratorBasis(tuple(labels[:m]), tuple(values[l] for l in labels[:m]))
    return FrequencySpec.build(basis, [[F(c) for c in row] for row in coords])


# --- oracles ------------------------------------------------------------

def sieve_conductor(gens, bound=None):
    # knapsack sieve; trailing run of length >= min(gens) certifies the tail
    m = min(gens)
    if bound is None:
        bound = max(gens) * m + 2 * m + 10
    ok = [False] * (bound + 1)
    ok[0] = True
    for v in range(1, bound + 1):
        ok[v] = any(v >= g and ok[v - g] for g in gens)
    n0 = bound + 1
    for v in range(bound, -1, -1):
        if not ok[v]:
            break
        n0 = v
    assert bound - n0 + 1 >= m, "sieve bound too small to certify"
    return n0, ok

def lcm_period(v, nu):
    # smallest t > 0 with t * nu_j integral for all nonzero nu_j
    nz = [F(x) for x in nu if x]
    t = F(math.lcm(*(x.denominator for x in nz)), math.gcd(*(abs(x.numerator) for x in nz)))
    return 2.0 * math.pi * float(t) / abs(v)


# --- spans and decompositions --------------------------------------------

def test_span_rational_pair_is_one_dimensional():
    spec = make_spec([(2,), (3,)], labels=("one",))
    assert span_solver(spec.coords)[0] == (0,)


_small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _combine(cs, rows, m):
    return tuple(sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(m))


@st.composite
def _span_cases(draw):
    # rows mix fresh rows, zero rows, and combinations (copies included) of
    # earlier rows; v is either a combination of the rows or a fresh vector
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "combo")))
        if kind == "zero":
            rows.append((F(0),) * m)
        elif kind == "combo" and rows:
            cs = draw(st.lists(_small, min_size=len(rows), max_size=len(rows)))
            rows.append(_combine(cs, rows, m))
        else:
            rows.append(tuple(draw(st.lists(_small, min_size=m, max_size=m))))
    if rows and draw(st.booleans()):
        cs = draw(st.lists(_small, min_size=len(rows), max_size=len(rows)))
        v = _combine(cs, rows, m)
    else:
        v = tuple(draw(st.lists(_small, min_size=m, max_size=m)))
    return m, rows, v


def _rank(rows, m):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), m, entries).rank()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_span_cases())
def test_span_solver_matches_sympy(case):
    m, rows, v = case
    kept, solve = span_solver(rows)
    # greedy earliest-first basis: row i is kept iff it raises the prefix rank
    ranks = [_rank(rows[:i], m) for i in range(len(rows) + 1)]
    assert kept == tuple(i for i in range(len(rows)) if ranks[i + 1] > ranks[i])
    coeffs = solve(v)
    if _rank(rows + [v], m) > ranks[-1]:
        assert coeffs is None
    else:
        assert coeffs is not None and len(coeffs) == len(kept)
        assert _combine(coeffs, [rows[i] for i in kept], m) == v


def test_decompose_rational_pair():
    dec = decompose(make_spec([(2,), (3,)], labels=("one",)))
    assert dec.d_omega == 1
    c = dec.components[0]
    assert c.pivot_row == 0 and c.pivot == 2.0
    assert c.weights == (F(1), F(3, 2))
    assert c.weight_floor == F(1) and c.multiplier == 2
    assert c.int_weights == (2, 3)
    assert c.period == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert c.zero_point_q == F(5, 2)
    assert c.zero_point == pytest.approx(5.0, rel=1e-15)
    assert c.conductor == 2 and c.ladder_signs == (1,)


def test_decompose_independent_pair():
    dec = decompose(make_spec([(1, 0), (0, 1)], labels=("one", "sqrt2")))
    assert dec.d_omega == 2
    a, b = dec.components
    assert a.int_weights == (1, 0) and b.int_weights == (0, 1)
    assert a.period == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert b.period == pytest.approx(2.0 * math.pi / math.sqrt(2), rel=1e-14)
    assert a.conductor == 0 and b.conductor == 0
    assert a.zero_point == pytest.approx(1.0)
    assert b.zero_point == pytest.approx(math.sqrt(2), rel=1e-15)


def test_decompose_mixed_sign_weights():
    # omega_3 = 3 - sqrt2 sits across both pivots with a negative weight
    dec = decompose(make_spec([(1, 0), (0, 1), (3, -1)], labels=("one", "sqrt2")))
    assert dec.d_omega == 2
    a, b = dec.components
    assert a.weights == (F(1), F(0), F(3))
    assert b.weights == (F(0), F(1), F(-1))
    assert b.int_weights == (0, 1, -1)
    assert b.ladder_signs == (1, -1)
    assert b.conductor == 0


def test_decompose_pivot_choice_prefers_early_rows():
    dec = decompose(make_spec([(2, 0), (1, 1), (0, 3)], labels=("one", "sqrt2")))
    assert tuple(c.pivot_row for c in dec.components) == (0, 1)
    # omega_3 = 3*sqrt2 = -3/2 omega_1 + 3 omega_2
    a, b = dec.components
    assert a.weights[2] == F(-3, 2)
    assert b.weights[2] == F(3)


def test_d_omega_invariant_under_permutation_and_scaling():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(2, 4)
        rows = [
            tuple(F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(2))
            for _ in range(d)
        ]
        rows = [r if any(r) else (F(1), F(0)) for r in rows]
        spec = make_spec(rows, labels=("one", "sqrt2"))
        base = decompose(spec).d_omega
        perm = rows[:]
        rng.shuffle(perm)
        assert decompose(make_spec(perm, labels=("one", "sqrt2"))).d_omega == base
        s = F(rng.randint(1, 5), rng.randint(1, 5))
        scaled = [tuple(s * c for c in r) for r in rows]
        assert decompose(make_spec(scaled, labels=("one", "sqrt2"))).d_omega == base


def test_decompose_reconstructs_random_specs():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 4)
        rows = []
        for _ in range(d):
            row = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(2))
            rows.append(row if any(row) else (F(1), F(1)))
        spec = make_spec(rows, labels=("one", "sqrt2"))
        dec = decompose(spec)
        for j in range(d):
            acc = [F(0), F(0)]
            for comp in dec.components:
                acc = [a + comp.weights[j] * c for a, c in zip(acc, comp.pivot_coords)]
            assert tuple(acc) == rows[j]
        for comp in dec.components:
            g = math.gcd(*(abs(v) for v in comp.int_weights if v)) if any(comp.int_weights) else 0
            assert g == 1
            assert comp.weights[comp.pivot_row] == F(1)


def test_zero_frequency_rejected():
    with pytest.raises(ValidationError):
        make_spec([(1, 0), (0, 0)], labels=("one", "sqrt2"))


def test_negative_combination_rejected():
    with pytest.raises(ValidationError):
        make_spec([(1, 0), (-2, 1)], labels=("one", "sqrt2"))


def test_numeric_crosscheck():
    basis = GeneratorBasis(("one", "sqrt2"), (ONE, SQRT2))
    FrequencySpec.build(basis, [[F(1), F(0)], [F(0), F(1)]], numeric=(1.0, math.sqrt(2)))
    with pytest.raises(ValidationError):
        FrequencySpec.build(basis, [[F(1), F(0)], [F(0), F(1)]], numeric=(1.0, 1.41422))


# --- periods --------------------------------------------------------------

def test_period_of_matches_lcm_oracle():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(1, 4)
        nu = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d)]
        if not any(nu):
            nu[0] = F(1)
        v = rng.uniform(0.1, 4.0)
        assert period_of(v, nu) == pytest.approx(lcm_period(v, nu), rel=1e-12)


def test_period_of_zero_vector_rejected():
    with pytest.raises(DomainError):
        period_of(1.0, [F(0), F(0)])


# --- conductors and witnesses ---------------------------------------------

def test_conductor_frozen_values():
    assert conductor((2, 3)) == 2
    assert conductor((3, 5)) == 8
    assert conductor((1, 1)) == 0
    assert conductor((1,)) == 0
    assert conductor((6, 10, 15)) == 30
    assert conductor((-2, -3), sigma=-1) == 2


def test_conductor_two_generator_formula():
    # coprime pair (a, b): conductor is (a-1)(b-1)
    rng = random.Random(5)
    seen = 0
    while seen < 20:
        a, b = rng.randint(2, 40), rng.randint(2, 40)
        if math.gcd(a, b) != 1:
            continue
        seen += 1
        assert conductor((a, b)) == (a - 1) * (b - 1)


def test_conductor_matches_sieve_oracle():
    rng = random.Random(17)
    done = 0
    while done < 40:
        d = rng.randint(2, 4)
        k = [rng.randint(2, 25) for _ in range(d)]
        g = math.gcd(*k)
        k = [v // g for v in k]
        if math.gcd(*k) != 1:
            continue
        done += 1
        n0, _ = sieve_conductor(k)
        assert conductor(tuple(k)) == n0


def test_witness_agrees_with_sieve_membership():
    rng = random.Random(29)
    for _ in range(25):
        k = [rng.randint(2, 15) for _ in range(3)]
        if math.gcd(*k) != 1:
            k.append(1)
        n0, ok = sieve_conductor(k)
        for target in range(0, min(len(ok) - 1, n0 + 25)):
            w = semigroup_witness(tuple(k), 1, target)
            assert (w is not None) == ok[target]
            if w is not None:
                assert all(c >= 0 for c in w)
                assert sum(c * v for c, v in zip(w, k)) == target


def test_witness_respects_sigma_and_zero_entries():
    # k'.k = sigma * N with k' >= 0 needs entries pointing the right way
    assert semigroup_witness((0, 2, 3), -1, 7) is None
    w = semigroup_witness((0, -2, -3), -1, 7)
    assert w is not None and w[0] == 0
    assert sum(c * v for c, v in zip(w, (0, -2, -3))) == -7
    w2 = semigroup_witness((0, 2, 3), 1, 7)
    assert sum(c * v for c, v in zip(w2, (0, 2, 3))) == 7


def test_mixed_sign_conductor_is_certified_zero():
    assert conductor((2, -3)) == 0
    assert conductor((5, -3)) == 0
    assert conductor((4, 6, -9)) == 0


def test_mixed_sign_witnesses():
    rng = random.Random(41)
    for _ in range(15):
        k = [rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(3)]
        if all(v > 0 for v in k) or all(v < 0 for v in k):
            k[0] = -k[0]
        g = math.gcd(*(abs(v) for v in k))
        if g != 1:
            k[0] += 1 if k[0] > 0 else -1
            if math.gcd(*(abs(v) for v in k)) != 1:
                continue
        for target in range(0, 20):
            w = semigroup_witness(tuple(k), 1, target)
            assert w is not None
            assert all(c >= 0 for c in w)
            assert sum(c * v for c, v in zip(w, k)) == target


def test_conductor_domain_errors():
    with pytest.raises(DomainError):
        conductor((-2, -3))
    with pytest.raises(DomainError):
        conductor((2, 3), sigma=-1)
    with pytest.raises(DomainError):
        conductor((2, 4))
    with pytest.raises(DomainError):
        conductor((0, 0))


# --- spec files --------------------------------------------------------------

SPEC_TEXT = """
# two modes over 1 and sqrt(2)
generators = one:1, sqrt2:1.41421356237309504880168872420969807857
omega_1 = 1 0
omega_2 = 0 1
"""


def test_parse_frequency_spec():
    spec = parse_frequency_spec(SPEC_TEXT)
    assert spec.basis.labels == ("one", "sqrt2")
    assert spec.coords == ((F(1), F(0)), (F(0), F(1)))
    assert spec.numeric[1] == pytest.approx(math.sqrt(2), rel=1e-15)


def test_format_round_trip():
    spec = make_spec([(1, 0), (F(3, 2), -1), (0, 2)], labels=("one", "sqrt2"))
    again = parse_frequency_spec(format_frequency_spec(spec))
    assert again.coords == spec.coords
    assert again.basis.labels == spec.basis.labels
    assert again.numeric == spec.numeric


@pytest.mark.parametrize(
    "text,line",
    [
        ("omega_1 = 1", 1),
        ("generators = one:1\nomega_2 = 1", 2),
        ("generators = one:1\nomega_1 = 1 2", 2),
        ("generators = one:1\nomega_1 = 1/0", 2),
        ("generators = one:1\nomega_1 = 0.5", 2),
        ("generators = one:1\nwibble = 3", 2),
        ("generators = one:x1\nomega_1 = 1", 1),
        ("", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(SpecParseError) as info:
        parse_frequency_spec(text)
    assert info.value.line == line


def test_parse_error_column_points_at_token():
    with pytest.raises(SpecParseError) as info:
        parse_frequency_spec("generators = one:1\nomega_1 = 1/x")
    assert info.value.column == "omega_1 = 1/x".find("1/x") + 1


def test_sqrt_decimal_precision():
    val = sqrt_decimal(2, digits=40)
    assert str(val).startswith("1.4142135623730950488016887242096980785")
    assert abs(val * val - 2) < Decimal("1e-38")
    with pytest.raises(DomainError):
        sqrt_decimal(0)


def test_lattice_solver_takes_several_right_hand_sides():
    # k1 + 2 k2 = b over a 4 x 3 box, for b = 0..4 at once; b = 5 is
    # dependent-row inconsistent (the second row is twice the first)
    points = lattice_solver([[1, 2], [2, 4]], [4, 3])
    got = points([[0, 1, 2, 3, 4, 5], [0, 2, 4, 6, 8, 11]]).tolist()
    want = sorted(
        [k1, k2] for k1 in range(4) for k2 in range(3) if k1 + 2 * k2 <= 4
    )
    assert got == want


def test_lattice_solver_refuses_large_free_box_and_int64_overflow():
    with pytest.raises(ResourceLimitError, match="budget"):
        lattice_solver([[1, 0, 0]], [10, 10000, 10000])
    points = lattice_solver([[1, 2**50]], [2**20, 2**20])
    with pytest.raises(ResourceLimitError, match="overflow"):
        points([0])
