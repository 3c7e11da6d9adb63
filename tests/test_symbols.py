import math
import random

import numpy as np
import pytest

from scarkit.errors import ValidationError
from scarkit.symbols import (
    MAX_DEGREE,
    character,
    constant,
    mode_energy,
    momentum,
    monomial,
    parse_symbol,
    position,
    zero,
)


def apply_rotation(x, xi, theta):
    # z_j -> e^{-i theta_j} z_j on coordinates
    c = np.cos(theta)
    s = np.sin(theta)
    return x * c + xi * s, -x * s + xi * c


def random_symbol(rng, dims, n_poly=3, n_char=1, max_deg=4):
    sym = zero(dims)
    for _ in range(n_poly):
        powers = [0] * (2 * dims)
        for _ in range(rng.randint(0, max_deg)):
            powers[rng.randrange(2 * dims)] += 1
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sym = sym + monomial(dims, powers, coeff)
    for _ in range(n_char):
        w = [rng.uniform(-1.5, 1.5) for _ in range(2 * dims)]
        sym = sym + character(dims, w, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return sym


def random_points(rng, dims, n=6):
    x = np.array([[rng.uniform(-2, 2) for _ in range(dims)] for _ in range(n)])
    xi = np.array([[rng.uniform(-2, 2) for _ in range(dims)] for _ in range(n)])
    return x, xi


def test_mode_energy_evaluates_to_half_square_sum():
    h = mode_energy(2, 0)
    val = h.evaluate(np.array([3.0, 7.0]), np.array([4.0, -2.0]))
    assert val == pytest.approx((9 + 16) / 2)


def test_position_momentum_evaluation():
    x1 = position(2, 0)
    p2 = momentum(2, 1, power=3)
    x = np.array([1.5, 2.0])
    xi = np.array([0.5, -1.0])
    assert x1.evaluate(x, xi) == pytest.approx(1.5)
    assert p2.evaluate(x, xi) == pytest.approx(-1.0)
    assert (x1 * p2).evaluate(x, xi) == pytest.approx(1.5 * -1.0)


def test_character_value_and_conjugate():
    w = (0.3, -0.2, 0.7, 0.1)
    a = character(2, w)
    x = np.array([0.4, -1.2])
    xi = np.array([1.1, 0.6])
    sigma = xi @ np.array(w[:2]) - x @ np.array(w[2:])
    assert a.evaluate(x, xi) == pytest.approx(np.exp(1j * sigma))
    assert a.conj().evaluate(x, xi) == pytest.approx(np.exp(-1j * sigma))


def test_algebra_matches_pointwise_arithmetic():
    rng = random.Random(3)
    for _ in range(10):
        dims = rng.randint(1, 3)
        a = random_symbol(rng, dims, n_char=0)
        b = random_symbol(rng, dims, n_char=0, max_deg=3)
        x, xi = random_points(rng, dims)
        va, vb = a.evaluate(x, xi), b.evaluate(x, xi)
        assert np.allclose((a + b).evaluate(x, xi), va + vb, atol=1e-12)
        assert np.allclose((a - b).evaluate(x, xi), va - vb, atol=1e-12)
        assert np.allclose((a * b).evaluate(x, xi), va * vb, atol=1e-10)
        assert np.allclose((2.5 * a).evaluate(x, xi), 2.5 * va, atol=1e-12)


def test_character_product_adds_parameters():
    w1 = (0.5, 0.0, -0.3, 0.2)
    w2 = (0.1, 0.4, 0.0, -0.6)
    prod = character(2, w1) * character(2, w2)
    assert len(prod.chars) == 1
    coeff, w = prod.chars[0]
    assert coeff == pytest.approx(1.0)
    assert w == tuple(a + b for a, b in zip(w1, w2))


def test_scalar_times_character_is_allowed():
    a = constant(1, 2.0) * character(1, (0.3, 0.4))
    assert a.chars[0][0] == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        _ = position(1, 0) * character(1, (0.3, 0.4))


def test_degree_cap_enforced():
    with pytest.raises(ValidationError):
        position(1, 0, power=MAX_DEGREE + 1)
    with pytest.raises(ValidationError):
        _ = position(1, 0, power=5) * position(1, 0, power=5)
    assert position(1, 0, power=MAX_DEGREE).degree == MAX_DEGREE


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: monomial(2, (1, 0, 0, 0), math.nan), r"monomial \(1, 0, 0, 0\)"),
        (lambda: character(2, (0.3, 0.1, -0.2, 0.5), math.inf), r"character \(0.3, 0.1, -0.2, 0.5\)"),
        (lambda: position(2, 0) * math.inf, r"monomial \(1, 0, 0, 0\)"),
        (lambda: parse_symbol("2e308*x1", 2), r"number '2e308' overflows in '2e308\*x1'"),
        (lambda: parse_symbol("1e308*x1 + 1e308*x1", 2), r"monomial \(1, 0, 0, 0\)"),
        (lambda: character(2, (0.3,) * 4, 1e308) + character(2, (0.3,) * 4, 1e308),
         r"character \(0.3, 0.3, 0.3, 0.3\)"),
    ],
    ids=["monomial", "character", "scaled", "parsed", "merged-monomials", "merged-characters"],
)
def test_non_finite_coefficients_are_refused(build, named):
    # they used to build symbols whose expectations came out inf or NaN, and
    # sweep blamed the kernel; the merged cases overflow in the sum alone
    with pytest.raises(ValidationError, match=named):
        build()
    assert monomial(2, (1, 0, 0, 0), 1e308).poly == {(1, 0, 0, 0): 1e308}


def test_rotation_composes_with_flow():
    rng = random.Random(9)
    for _ in range(12):
        dims = rng.randint(1, 3)
        a = random_symbol(rng, dims)
        theta = np.array([rng.uniform(-4, 4) for _ in range(dims)])
        x, xi = random_points(rng, dims)
        fx, fxi = apply_rotation(x, xi, theta)
        direct = a.evaluate(fx, fxi)
        composed = a.rotate(theta).evaluate(x, xi)
        assert np.allclose(composed, direct, atol=1e-11)


def test_rotation_by_full_turn_is_identity():
    a = parse_symbol("x1^2*xi2 + H1 + char(0.2 0.1 -0.3 0.4)", 2)
    b = a.rotate([2 * math.pi, 2 * math.pi])
    x, xi = random_points(random.Random(1), 2)
    assert np.allclose(a.evaluate(x, xi), b.evaluate(x, xi), atol=1e-12)


def test_rotate_needs_one_angle_per_mode():
    a = mode_energy(2, 0)
    for bad in ([[0.1, 0.2]], [0.1], [0.1, 0.2, 0.3], 0.1, [[[0.1, 0.2]]]):
        with pytest.raises(ValidationError, match="one angle per mode"):
            a.rotate(bad)


def test_rotation_preserves_mode_energy():
    h = mode_energy(2, 1)
    r = h.rotate([0.7, -2.3])
    assert set(r.poly) == set(h.poly)
    for m, c in h.poly.items():
        assert r.poly[m] == pytest.approx(c, abs=1e-14)


def test_parse_simple_forms():
    x, xi = np.array([1.2, -0.7]), np.array([0.3, 2.1])
    cases = {
        "x1": x[0],
        "xi2": xi[1],
        "x1^2": x[0] ** 2,
        "H2": (x[1] ** 2 + xi[1] ** 2) / 2,
        "2*x1*xi2": 2 * x[0] * xi[1],
        "x1^2 + H1 - 0.5*xi2": x[0] ** 2 + (x[0] ** 2 + xi[0] ** 2) / 2 - 0.5 * xi[1],
        "-x1 + 1": -x[0] + 1,
        "1e-2*x1": 0.01 * x[0],
        "3": 3.0,
    }
    for text, expected in cases.items():
        sym = parse_symbol(text, 2)
        assert sym.evaluate(x, xi) == pytest.approx(expected), text


def test_parse_character_term():
    sym = parse_symbol("2*char(0.3 0.1 -0.2 0.5)", 2)
    x, xi = np.array([0.5, 0.4]), np.array([-0.1, 0.9])
    sigma = xi @ np.array([0.3, 0.1]) - x @ np.array([-0.2, 0.5])
    assert sym.evaluate(x, xi) == pytest.approx(2 * np.exp(1j * sigma))
    commas = parse_symbol("char(0.3, 0.1, -0.2, 0.5)", 2)
    assert commas.chars == sym.chars or commas.chars[0][1] == sym.chars[0][1]


def test_parse_sets_label():
    assert parse_symbol("x1^2 +  H1", 2).label == "x1^2 + H1"
    assert mode_energy(3, 2).label == "H3"
    assert position(2, 1).label == "x2"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x0",
        "x3",
        "y1",
        "x1^",
        "x1 +",
        "char(0.1 0.2)",
        "char(0.1 0.2 0.3 0.4",
        "x1 * char(1 2)",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_symbol(text, 2)


def test_evaluate_shape_checks():
    a = position(2, 0)
    with pytest.raises(ValidationError):
        a.evaluate(np.zeros(3), np.zeros(3))
    grid = a.evaluate(np.zeros((4, 5, 2)), np.ones((4, 5, 2)))
    assert grid.shape == (4, 5)
