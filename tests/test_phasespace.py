import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import j0

from scarkit.errors import NotInSigmaError, ValidationError
from scarkit.freqarith import FrequencySpec, GeneratorBasis, decompose, sqrt_decimal
from scarkit.phasespace import (
    PhasePoint,
    component_energies,
    multi_flow,
    orbit_average,
    sigma_membership,
)
from scarkit.symbols import character, mode_energy, parse_symbol, position

F = Fraction


def spec_1_sqrt2():
    basis = GeneratorBasis(("one", "sqrt2"), (Decimal(1), sqrt_decimal(2)))
    return FrequencySpec.build(basis, [[F(1), F(0)], [F(0), F(1)]])


def spec_2_3():
    basis = GeneratorBasis(("one",), (Decimal(1),))
    return FrequencySpec.build(basis, [[F(2)], [F(3)]])


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
    z = PhasePoint((0.9, -0.6), (0.1, 1.4))
    a = parse_symbol("x1^2*xi2^2 + H1", 2)
    v1 = orbit_average(dec12, a, z, points=48)
    v2 = orbit_average(dec12, a, z, points=96)
    assert abs(v1 - v2) < 1e-12 * (1 + abs(v1))


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


def test_sigma_membership_exact_path(dec12):
    ev = sigma_membership(
        dec12, (1.0, 0.0), exact_ratios=(F(1), F(0))
    )
    assert ev.exact and ev.witness_h == pytest.approx((1.0, 0.0))
    loose = sigma_membership(dec12, (1.0, 0.0))
    assert not loose.exact


def test_sigma_membership_underdetermined(dec23):
    ev = sigma_membership(dec23, (1.0,))
    # vertices (1/2, 0) and (0, 1/3); the witness is their midpoint
    assert ev.witness_h == pytest.approx((0.25, 1.0 / 6.0))
    first = sigma_membership(dec23, (1.0,), interior=False)
    assert first.witness_h in ((0.5, 0.0), (0.0, 1.0 / 3.0))
    e = component_energies(dec23, ev.torus_point())
    assert e[0] == pytest.approx(1.0, rel=1e-12)


def test_sigma_membership_rejects_bad_sums(dec12):
    with pytest.raises(NotInSigmaError):
        sigma_membership(dec12, (0.7, 0.7))
    with pytest.raises(NotInSigmaError):
        sigma_membership(dec12, (1.5, -0.5))


def test_sigma_membership_exact_rejects_inconsistent_ratio(dec12):
    with pytest.raises(ValidationError):
        sigma_membership(dec12, (1.0, 0.0), exact_ratios=(F(1, 2), F(0)))


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
    state = coherent(z0, hbar)
    assert husimi(state, z0) == pytest.approx(
        1.0 / (2 * math.pi * hbar), rel=1e-10
    )
    ground = coherent(PhasePoint.zero(1), hbar)
    edge = PhasePoint((math.sqrt(2 * hbar),), (0.0,))
    assert husimi(ground, edge) == pytest.approx(
        math.exp(-1.0) / (2 * math.pi * hbar), rel=1e-10
    )


def test_husimi_integrates_to_one():
    from scarkit.fockstate import coherent
    from scarkit.phasespace import husimi_grid

    hbar = 0.25
    state = coherent(PhasePoint((0.5,), (0.3,)), hbar)
    xs = np.linspace(-4, 4, 161)
    step = xs[1] - xs[0]
    grid = husimi_grid(state, 0, xs, xs)
    assert float(grid.sum() * step * step) == pytest.approx(1.0, abs=1e-6)
