import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from scarkit.errors import NotInSigmaError, ValidationError
from scarkit.freqarith import FrequencySpec, GeneratorBasis, decompose, sqrt_decimal
from scarkit.phasespace import (
    PhasePoint,
    _bessel_j,
    _mode_series,
    component_energies,
    flow_rates,
    multi_flow,
    orbit_average,
    sigma_membership,
)
from scarkit.symbols import MAX_DEGREE, Symbol, character, mode_energy, parse_symbol, position

from conftest import as_sparse

F = Fraction

def spec_1_sqrt2():
    basis = GeneratorBasis(("one", "sqrt2"), (Decimal(1), sqrt_decimal(2)))
    return FrequencySpec.build(basis, [[F(1), F(0)], [F(0), F(1)]])


def spec_2_3():
    basis = GeneratorBasis(("one",), (Decimal(1),))
    return FrequencySpec.build(basis, [[F(2)], [F(3)]])


def make_dec(coords, gens):
    table = {"one": Decimal(1), "sqrt2": sqrt_decimal(2), "sqrt3": sqrt_decimal(3)}
    basis = GeneratorBasis(tuple(gens), tuple(table[g] for g in gens))
    return decompose(FrequencySpec.build(basis, [[F(v) for v in row] for row in coords]))


# omega = (1, sqrt2), (1, 1, sqrt2), (1, 2, sqrt2), (2, 3), (1, sqrt2, sqrt3)
AVERAGE_SPECS = (
    make_dec([[1, 0], [0, 1]], ("one", "sqrt2")),
    make_dec([[1, 0], [1, 0], [0, 1]], ("one", "sqrt2")),
    make_dec([[1, 0], [2, 0], [0, 1]], ("one", "sqrt2")),
    make_dec([[2], [3]], ("one",)),
    make_dec([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("one", "sqrt2", "sqrt3")),
)


def grid_average(decomp, a, z0, points=None):
    """Equispaced tensor quadrature over the period box [0, T_1) x ... x [0, T_dw).

    Polynomials get 2*deg*max|k| + 16 points per axis, exact for the induced
    trigonometric degree; a symbol with characters needs `points` per axis.
    """
    if points is None:
        assert a.is_polynomial
        counts = [
            2 * max(a.degree, 1) * max(abs(v) for v in c.int_weights) + 16
            for c in decomp.components
        ]
    else:
        counts = [points] * decomp.d_omega
    rates = flow_rates(decomp)
    periods = [c.period for c in decomp.components]
    total = math.prod(counts)
    x0 = np.asarray(z0.x)
    xi0 = np.asarray(z0.xi)
    acc = 0j
    for start in range(0, total, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), total))
        coords = np.unravel_index(idx, counts)
        theta = np.zeros((len(idx), decomp.dims))
        for n in range(decomp.d_omega):
            tau_n = coords[n] * (periods[n] / counts[n])
            theta += tau_n[:, None] * rates[n][None, :]
        c, s = np.cos(theta), np.sin(theta)
        acc += complex(np.sum(a.evaluate(x0 * c + xi0 * s, -x0 * s + xi0 * c)))
    return acc / total


@pytest.fixture(scope="module")
def dec12():
    return decompose(spec_1_sqrt2())


@pytest.fixture(scope="module")
def dec23():
    return decompose(spec_2_3())


def random_point(rng, d):
    return PhasePoint(
        tuple(rng.uniform(-2, 2) for _ in range(d)),
        tuple(rng.uniform(-2, 2) for _ in range(d)),
    )


def test_flow_at_zero_tau_is_identity(dec12):
    z = PhasePoint((0.3, -1.1), (0.7, 0.2))
    out = multi_flow(dec12, z, (0.0, 0.0))
    assert out.x == pytest.approx(z.x)
    assert out.xi == pytest.approx(z.xi)


def test_flow_at_component_period_is_identity(dec12, dec23):
    rng = random.Random(2)
    for dec in (dec12, dec23):
        z = random_point(rng, dec.dims)
        for n, comp in enumerate(dec.components):
            tau = [0.0] * dec.d_omega
            tau[n] = comp.period
            out = multi_flow(dec, z, tau)
            assert np.allclose(out.x, z.x, atol=1e-12)
            assert np.allclose(out.xi, z.xi, atol=1e-12)


def test_flow_half_turn_negates_first_mode(dec12):
    z = PhasePoint((0.8, 0.5), (-0.3, 1.2))
    out = multi_flow(dec12, z, (math.pi, 0.0))
    assert out.x[0] == pytest.approx(-0.8)
    assert out.xi[0] == pytest.approx(0.3)
    assert out.x[1] == pytest.approx(0.5)
    assert out.xi[1] == pytest.approx(1.2)


def test_flow_preserves_mode_energies(dec12, dec23):
    rng = random.Random(5)
    for dec in (dec12, dec23):
        for _ in range(20):
            z = random_point(rng, dec.dims)
            tau = [rng.uniform(-7, 7) for _ in range(dec.d_omega)]
            out = multi_flow(dec, z, tau)
            for h0, h1 in zip(z.mode_energies(), out.mode_energies()):
                assert abs(h1 - h0) <= 1e-12 * (1.0 + h0)


def test_component_energies_sum_to_total(dec12, dec23):
    rng = random.Random(8)
    for dec in (dec12, dec23):
        z = random_point(rng, dec.dims)
        total = sum(
            w * h for w, h in zip(dec.spec.numeric, z.mode_energies())
        )
        assert sum(component_energies(dec, z)) == pytest.approx(total, rel=1e-13)


def test_orbit_average_of_conserved_quantities(dec12):
    z = PhasePoint((1.1, 0.4), (-0.2, 0.9))
    h1 = z.mode_energies()[0]
    assert orbit_average(dec12, mode_energy(2, 0), z) == pytest.approx(h1, rel=1e-12)
    assert orbit_average(dec12, position(2, 0), z) == pytest.approx(0.0, abs=1e-13)
    assert orbit_average(dec12, position(2, 0, power=2), z) == pytest.approx(
        h1, rel=1e-12
    )


def test_orbit_average_rejects_a_symbol_of_another_mode_count(dec12):
    # a 3-mode x1^2 on the 2-mode decomposition: refused, not averaged
    z = PhasePoint((1.0, 0.5), (0.0, 0.0))
    with pytest.raises(ValidationError, match="symbol mode count"):
        orbit_average(dec12, position(3, 0, power=2), z)
    with pytest.raises(ValidationError, match="symbol mode count"):
        orbit_average(dec12, character(1, (0.3, 0.2)), z)


def test_orbit_average_resonant_monomial(dec23):
    # omega = (2, 3): x1^3 x2^2 has a flow-invariant part, so its average
    # along the single periodic flow need not vanish
    z = PhasePoint((1.3, 0.8), (0.0, 0.0))
    a = parse_symbol("x1^3*x2^2", 2)
    val = orbit_average(dec23, a, z)
    r1 = math.sqrt(2 * z.mode_energies()[0])
    r2 = math.sqrt(2 * z.mode_energies()[1])
    # independent closed form: average of cos^3(2t) cos^2(3t) over 2 pi
    ts = (np.arange(20000) + 0.5) * (2 * math.pi / 20000)
    oracle = np.mean(np.cos(2 * ts) ** 3 * np.cos(3 * ts) ** 2) * r1**3 * r2**2
    assert val == pytest.approx(float(oracle), abs=1e-9)
    assert abs(val) > 1e-3


def test_orbit_average_doubling_is_stable(dec12):
    # the quadrature converges at 48 points per axis; the lattice sum agrees
    # with it there and at twice the count
    z = PhasePoint((0.9, -0.6), (0.1, 1.4))
    a = parse_symbol("x1^2*xi2^2 + H1", 2)
    val = orbit_average(dec12, a, z)
    for points in (48, 96):
        assert abs(grid_average(dec12, a, z, points) - val) < 1e-12 * (1 + abs(val))


def test_orbit_average_character_matches_bessel_product(dec12):
    # independent flows average each mode over its own circle, giving
    # a product of J0(|w_j| |z_j|) factors
    z = PhasePoint((1.2, 0.5), (-0.4, 0.8))
    w = (0.7, -0.3, 0.2, 0.9)
    a = character(2, w)
    val = orbit_average(dec12, a, z)
    oracle = 1.0
    for j in range(2):
        wj = math.hypot(w[j], w[2 + j])
        zj = math.hypot(z.x[j], z.xi[j])
        oracle *= j0(wj * zj)
    assert val == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("rho", [0.0, 1e-3, 0.5, 1.06, 5.0, 30.0])
def test_bessel_recurrence_matches_mpmath(rho):
    got = _bessel_j(40, rho)
    for m in range(41):
        with mpmath.workdps(50):
            want = float(mpmath.besselj(m, rho))
        assert abs(got[m] - want) <= 1e-13 * abs(want) + 1e-300


def test_bessel_series_signs_match_mpmath():
    # J_{-m} = (-1)^m J_m: a character's Fourier series in the mode angle
    # is J_m(rho) e^{i m phase} for every m in the cut
    z, w = [complex(1.3, -0.4)], (0.9, 0.6)
    ((_, (series,)),) = _mode_series(character(1, w), z)
    zeta = z[0] * complex(w[0], -w[1])
    radius = len(series) // 2
    assert radius >= 10
    for m in range(-radius, radius + 1):
        with mpmath.workdps(50):
            want = complex(mpmath.besselj(m, abs(zeta)) * mpmath.expj(m * mpmath.arg(zeta)))
        assert abs(series[radius + m] - want) <= 1e-13 * abs(want) + 1e-300


def test_orbit_average_j0_product_for_three_independent_modes():
    # omega = (1, sqrt2, sqrt3): the kernel lattice is {0}, so each mode
    # averages over its own circle and the mean is prod_j J0(|w_j| |z_j|)
    dec = AVERAGE_SPECS[4]
    assert dec.d_omega == 3
    z = PhasePoint((1.2, -0.5, 0.3), (0.4, 0.9, -1.6))
    w = (0.7, -0.3, 0.2, 0.9, 0.5, -0.8)
    oracle = math.prod(
        j0(math.hypot(w[j], w[3 + j]) * math.hypot(z.x[j], z.xi[j])) for j in range(3)
    )
    assert orbit_average(dec, character(3, w), z) == pytest.approx(oracle, abs=1e-15)


def test_orbit_average_character_matches_mpmath_bessel_sum():
    # omega = (2, 3): one flow turns mode 1 twice and mode 2 three times per
    # period, sigma_j(theta) = rho_j cos(theta - phi_j) on each circle, and
    # Jacobi-Anger leaves the frequencies n = t (3, -2):
    #   sum_t i^(3t) J_3t(rho_1) e^(-3it phi_1) i^(-2t) J_-2t(rho_2) e^(2it phi_2)
    dec = AVERAGE_SPECS[3]
    z = PhasePoint((1.9, -0.7), (1.1, 1.6))
    w = (1.7, -1.4, 1.2, 1.7)
    with mpmath.workdps(50):
        rho, phi = [], []
        for j in range(2):
            x, xi = mpmath.mpf(z.x[j]), mpmath.mpf(z.xi[j])
            wx, wxi = mpmath.mpf(w[j]), mpmath.mpf(w[2 + j])
            A = xi * wx - x * wxi  # sigma_j at theta = 0
            B = -x * wx - xi * wxi  # its derivative in theta
            rho.append(mpmath.hypot(A, B))
            phi.append(mpmath.atan2(B, A))
        oracle = mpmath.fsum(
            mpmath.j ** (3 * t) * mpmath.besselj(3 * t, rho[0]) * mpmath.expj(-3 * t * phi[0])
            * mpmath.j ** (-2 * t) * mpmath.besselj(-2 * t, rho[1]) * mpmath.expj(2 * t * phi[1])
            for t in range(-30, 31)
        )
        assert min(rho) > 3.5  # several t contribute
        oracle = complex(oracle)
    val = orbit_average(dec, character(2, w), z)
    assert abs(complex(val) - oracle) < 1e-15
    assert abs(oracle - math.prod(j0(float(r)) for r in rho)) > 1e-2  # resonance matters


@st.composite
def average_cases(draw):
    n = draw(st.integers(0, len(AVERAGE_SPECS) - 1))
    dec = AVERAGE_SPECS[n]
    d = dec.dims
    coord = st.floats(-1.2, 1.2, allow_nan=False)
    z = PhasePoint(
        tuple(draw(coord) for _ in range(d)), tuple(draw(coord) for _ in range(d))
    )
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    poly = {}
    for _ in range(draw(st.integers(0, 3))):
        powers, budget = [], MAX_DEGREE
        for _ in range(2 * d):
            powers.append(draw(st.integers(0, min(3, budget))))
            budget -= powers[-1]
        poly[tuple(powers)] = draw(coeff)
    chars = tuple(
        (draw(coeff), tuple(draw(st.floats(-1.0, 1.0)) for _ in range(2 * d)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return dec, Symbol(d, poly, chars), z


@settings(max_examples=60, deadline=None, derandomize=True)
@given(average_cases())
def test_orbit_average_matches_grid_quadrature(case):
    dec, a, z = case
    # the grid is exact for monomials; with characters, 128 points per axis
    # (48 at d_omega = 3) leave only Bessel terms of order >= 30 aliased
    points = None if a.is_polynomial else (128 if dec.d_omega <= 2 else 48)
    ref = grid_average(dec, a, z, points)
    r = [abs(v) for v in z.to_complex()]
    scale = sum(abs(c) * math.prod(r[j % dec.dims] ** p for j, p in enumerate(m))
                for m, c in a.poly.items())
    scale += sum(abs(c) for c, _ in a.chars)
    assert abs(complex(orbit_average(dec, a, z)) - ref) <= 1e-12 * (1.0 + scale)


def test_orbit_average_invariant_under_flow(dec12, dec23):
    rng = random.Random(21)
    for dec in (dec12, dec23):
        z = random_point(rng, dec.dims)
        a = parse_symbol("x1^2 + 0.3*x1*xi1", dec.dims)
        base = orbit_average(dec, a, z)
        for _ in range(4):
            tau = [rng.uniform(-5, 5) for _ in range(dec.d_omega)]
            moved = orbit_average(dec, a, multi_flow(dec, z, tau))
            assert moved == pytest.approx(base, abs=1e-10)


def test_orbit_average_commutes_with_single_flow(dec12):
    z = PhasePoint((1.0, 0.7), (0.2, -0.5))
    a = parse_symbol("x1^2*x2^2", 2)
    base = orbit_average(dec12, a, z)
    rates = [
        [c.pivot * float(wv) for wv in c.weights] for c in dec12.components
    ]
    for n in range(dec12.d_omega):
        for t in (0.3, 1.7):
            theta = [rates[n][j] * t for j in range(2)]
            rotated = a.rotate(theta)
            assert orbit_average(dec12, rotated, z) == pytest.approx(base, abs=1e-10)


def test_sigma_membership_square_cases(dec12):
    ev = sigma_membership(dec12, (1.0, 0.0))
    assert ev.witness_h == pytest.approx((1.0, 0.0))
    z0 = ev.torus_point()
    assert z0.x == pytest.approx((math.sqrt(2.0), 0.0))
    assert z0.xi == (0.0, 0.0)
    ev2 = sigma_membership(dec12, (0.5, 0.5))
    assert ev2.witness_h == pytest.approx((0.5, 0.5 / math.sqrt(2.0)))


def test_sigma_membership_underdetermined(dec23):
    ev = sigma_membership(dec23, (1.0,))
    # vertices (1/2, 0) and (0, 1/3); the witness is their midpoint
    assert ev.witness_h == pytest.approx((0.25, 1.0 / 6.0))
    e = component_energies(dec23, ev.torus_point())
    assert e[0] == pytest.approx(1.0, rel=1e-12)


def test_sigma_membership_rejects_bad_sums(dec12):
    with pytest.raises(NotInSigmaError):
        sigma_membership(dec12, (0.7, 0.7))
    with pytest.raises(NotInSigmaError):
        sigma_membership(dec12, (1.5, -0.5))


def test_sigma_membership_keeps_a_tiny_determinant_basis():
    # omega = (1, 10^-13): the basis {h_2} has determinant 10^-13 but is
    # exactly nonsingular, so both vertices (1, 0) and (0, 10^13) count
    basis = GeneratorBasis(("one",), (Decimal(1),))
    dec = decompose(FrequencySpec.build(basis, [[F(1)], [F(1, 10**13)]]))
    ev = sigma_membership(dec, (1.0,))
    assert ev.witness_h == pytest.approx((0.5, 5e12), rel=1e-12)


def _exact_witness(decomp, E):
    """Mean of the distinct nonnegative basic solutions, solved in rationals."""
    A = sympy.Matrix([[F(c.pivot) * w for w in c.weights] for c in decomp.components])
    b = sympy.Matrix([F(v) for v in E])
    vertices = []
    for basis in itertools.combinations(range(decomp.dims), decomp.d_omega):
        sub = A[:, list(basis)]
        if sub.det() == 0:
            continue
        hb = sub.LUsolve(b)
        if any(v < 0 for v in hb):
            continue
        h = [0] * decomp.dims
        for j, v in zip(basis, hb):
            h[j] = v
        if h not in vertices:
            vertices.append(h)
    return [float(sum(col) / len(vertices)) for col in zip(*vertices)]


@pytest.mark.parametrize(
    "coords, gens, E",
    [
        ([[1, 0], [0, 1]], ("one", "sqrt2"), (1.0, 0.0)),
        ([[1, 0], [0, 1]], ("one", "sqrt2"), (0.0, 1.0)),
        ([[1, 0], [0, 1]], ("one", "sqrt2"), (0.5, 0.5)),
        ([[1, 0], [0, 1]], ("one", "sqrt2"), (0.3, 0.7)),
        ([[2], [3]], ("one",), (1.0,)),
        ([[1, 0], [1, 0], [0, 1]], ("one", "sqrt2"), (0.25, 0.75)),
        ([[1, 0], [2, 0], [0, 1]], ("one", "sqrt2"), (0.6, 0.4)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("one", "sqrt2", "sqrt3"), (0.3, 0.3, 0.4)),
    ],
)
def test_sigma_membership_witness_matches_exact_solution(coords, gens, E):
    dec = make_dec(coords, gens)
    witness = sigma_membership(dec, E).witness_h
    assert witness == pytest.approx(_exact_witness(dec, E), rel=0, abs=1e-15)


def test_energy_vector_requires_membership_shape(dec12):
    with pytest.raises(ValidationError):
        sigma_membership(dec12, (1.0,))


def test_husimi_values():
    from scarkit.fockstate import coherent

    basis = GeneratorBasis(("one",), (Decimal(1),))
    spec = FrequencySpec.build(basis, [[F(1)]])
    decompose(spec)
    hbar = 0.3
    from scarkit.phasespace import husimi

    z0 = PhasePoint((0.9,), (-0.4,))
    state = as_sparse(coherent(z0, hbar))
    assert husimi(state, z0) == pytest.approx(
        1.0 / (2 * math.pi * hbar), rel=1e-10
    )
    ground = as_sparse(coherent(PhasePoint.zero(1), hbar))
    edge = PhasePoint((math.sqrt(2 * hbar),), (0.0,))
    assert husimi(ground, edge) == pytest.approx(
        math.exp(-1.0) / (2 * math.pi * hbar), rel=1e-10
    )


def test_husimi_integrates_to_one():
    from scarkit.fockstate import coherent
    from scarkit.phasespace import husimi_grid

    hbar = 0.25
    state = as_sparse(coherent(PhasePoint((0.5,), (0.3,)), hbar))
    xs = np.linspace(-4, 4, 161)
    step = xs[1] - xs[0]
    grid = husimi_grid(state, 0, xs, xs)
    assert float(grid.sum() * step * step) == pytest.approx(1.0, abs=1e-6)
