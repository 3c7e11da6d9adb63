import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from scarkit.errors import (
    BelowConductorError,
    NotInSigmaError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)
from scarkit.freqarith import FrequencySpec, GeneratorBasis, decompose, sqrt_decimal
from scarkit.spectral import (
    component_eigenvalue,
    component_eigenvalues,
    component_ratio,
    decompose_eigenvalue,
    eigenvalue,
    eigenvalue_coords,
    enumerate_window,
    hbar_ceiling,
    level_table,
    select_target,
)

F = Fraction


def make_dec(coords, gens):
    table = {"one": Decimal(1), "sqrt2": sqrt_decimal(2), "sqrt3": sqrt_decimal(3)}
    basis = GeneratorBasis(tuple(gens), tuple(table[g] for g in gens))
    return decompose(FrequencySpec.build(basis, coords))


@pytest.fixture(scope="module")
def dec12():
    return make_dec([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))


@pytest.fixture(scope="module")
def dec23():
    return make_dec([[F(2)], [F(3)]], ("one",))


@pytest.fixture(scope="module")
def dec11():
    return make_dec([[F(1)], [F(1)]], ("one",))


def test_component_eigenvalue_frozen_values(dec12):
    assert component_eigenvalue(dec12, (2, 1), 0, 0.1) == pytest.approx(0.25)
    assert component_eigenvalue(dec12, (2, 1), 1, 0.1) == pytest.approx(
        0.1 * math.sqrt(2) * 1.5, rel=1e-13
    )


@pytest.mark.parametrize(
    "coords,gens",
    [
        ([[F(1)], [F(2, 3)], [F(5, 7)]], ("one",)),
        ([[F(1), F(0)], [F(3, 5), F(0)], [F(1, 4), F(1, 3)]], ("one", "sqrt2")),
    ],
)
def test_component_eigenvalues_are_the_fraction_floats(coords, gens):
    decomp = make_dec(coords, gens)
    keys = np.random.default_rng(5).integers(0, 10**6, size=(300, decomp.dims))
    keys[0] = 0
    for n in range(decomp.d_omega):
        got = component_eigenvalues(decomp, keys, n, 0.0123)
        want = [component_eigenvalue(decomp, k, n, 0.0123) for k in keys.tolist()]
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_component_eigenvalue_numerators_past_2_pow_53_raise():
    decomp = make_dec([[F(1)], [F(2, 3)], [F(5, 7)]], ("one",))  # numerators 21 k1 + 14 k2 + 15 k3 + 25
    keys = np.array([[0, 0, 2**53 // 15 - 2], [0, 0, 2**53 // 15]])
    component_eigenvalues(decomp, keys[:1], 0, 0.1)
    with pytest.raises(NumericalError, match=r"exceed 2\^53"):
        component_eigenvalues(decomp, keys, 0, 0.1)


def test_component_eigenvalues_reject_bad_input(dec12):
    keys = np.array([[1, 2]])
    for args, match in [
        ((keys, 2, 0.1), "component index"),
        ((keys, 0, 0.0), "hbar"),
        ((keys[:, :1], 0, 0.1), "2 entries"),
        ((-keys, 0, 0.1), "nonnegative"),
    ]:
        with pytest.raises(ValidationError, match=match):
            component_eigenvalues(dec12, *args)


def test_ground_state_energy_single_mode():
    dec = make_dec([[F(1)]], ("one",))
    assert component_eigenvalue(dec, (0,), 0, 0.37) == pytest.approx(0.37 / 2)


def test_components_sum_to_total(dec12, dec23):
    rng = random.Random(4)
    for dec in (dec12, dec23):
        omega = dec.spec.numeric
        for _ in range(1000):
            k = tuple(rng.randrange(0, 40) for _ in range(dec.dims))
            total = sum(decompose_eigenvalue(dec, k, 0.05))
            direct = 0.05 * (
                sum(w * kj for w, kj in zip(omega, k)) + sum(omega) / 2
            )
            assert total == pytest.approx(direct, rel=1e-12)
            assert eigenvalue(dec, k, 0.05) == pytest.approx(direct, rel=1e-12)


def test_spectrum_scales_linearly_in_hbar(dec12):
    rng = random.Random(6)
    for _ in range(50):
        k = (rng.randrange(0, 9), rng.randrange(0, 9))
        assert eigenvalue(dec12, k, 0.4) == pytest.approx(
            0.4 * eigenvalue(dec12, k, 1.0), rel=1e-13
        )


def test_window_degenerate_pair(dec11):
    levels = enumerate_window(dec11, 1.0, 1.9, 2.1)
    assert len(levels) == 1
    lv = levels[0]
    assert lv.value == pytest.approx(2.0)
    assert lv.multiplicity == 2
    assert lv.indices == ((0, 1), (1, 0))


def test_window_below_ground_is_empty(dec11):
    assert enumerate_window(dec11, 1.0, 0.1, 0.9) == []


def test_window_irrational_single_level(dec12):
    levels = enumerate_window(dec12, 1.0, 2.2, 2.3)
    assert len(levels) == 1
    assert levels[0].indices == ((1, 0),)
    assert levels[0].value == pytest.approx(1.0 + (1 + math.sqrt(2)) / 2, rel=1e-12)


def test_window_groups_by_exact_coordinates():
    # omega_2 - omega_1 = sqrt(2)/1e17 washes out in floats; exact keys keep
    # the two levels apart
    dec = make_dec([[F(1), F(0)], [F(1), F(1, 10**17)]], ("one", "sqrt2"))
    levels = enumerate_window(dec, 1.0, 1.9, 2.1)
    assert len(levels) == 2
    assert all(lv.multiplicity == 1 for lv in levels)
    ks = {lv.indices[0] for lv in levels}
    assert ks == {(1, 0), (0, 1)}


def test_degenerate_indices_share_component_vectors(dec23):
    levels = enumerate_window(dec23, 0.5, 0.5, 6.0)
    seen = 0
    for lv in levels:
        parts = [decompose_eigenvalue(dec23, k, 0.5) for k in lv.indices]
        for p in parts[1:]:
            seen += 1
            assert p == parts[0]
    assert seen > 0


def test_degenerate_ratio_keys_are_exact(dec23):
    # (3, 0) and (0, 2) share omega.k = 6: identical exact ratios
    assert eigenvalue_coords(dec23, (3, 0)) == eigenvalue_coords(dec23, (0, 2))
    assert component_ratio(dec23, (3, 0), 0) == component_ratio(dec23, (0, 2), 0)


def test_window_resource_cap(dec11, monkeypatch):
    monkeypatch.setattr("scarkit.spectral._WINDOW_CAP", 500)
    with pytest.raises(ResourceLimitError):
        enumerate_window(dec11, 0.01, 0.0, 3.0)


def test_window_cap_fires_before_any_exact_coordinate(dec11, monkeypatch):
    # the walk keeps points and forms their coordinates only once it has
    # stayed under the cap, so running past it costs no Fraction arithmetic
    from scarkit import spectral

    def forbidden(*args):
        raise AssertionError("eigenvalue_coords called before the walk finished")

    monkeypatch.setattr(spectral, "eigenvalue_coords", forbidden)
    monkeypatch.setattr(spectral, "_WINDOW_CAP", 500)
    with pytest.raises(ResourceLimitError, match="exceeds 10\\^7 lattice points$"):
        enumerate_window(dec11, 0.01, 0.0, 3.0)  # 300 values of k2 alone: the walk's cap fires
    with pytest.raises(ResourceLimitError, match="k2 alone takes 600 values"):
        enumerate_window(dec11, 0.005, 0.0, 3.0)  # refused before the walk


def _brute_window(decomp, hbar, lo, hi):
    """enumerate_window's levels by a scan of every lattice point below hi,
    as (value, coords, indices), sorted as enumerate_window sorts them."""
    omega = decomp.spec.numeric
    half = sum(omega) / 2.0
    s_lo, s_hi = lo / hbar - half, hi / hbar - half
    box = [range(int(max(s_hi, 0) // w) + 2) for w in omega]
    groups = {}
    for k in itertools.product(*box):
        if s_lo - 1e-12 <= sum(w * kj for w, kj in zip(omega, k)) <= s_hi + 1e-12:
            groups.setdefault(eigenvalue_coords(decomp, k), []).append(k)
    levels = [
        (hbar * float(decomp.spec.basis.evaluate(c)), c, tuple(sorted(ks)))
        for c, ks in groups.items()
    ]
    return sorted(levels, key=lambda lv: lv[0])


def test_window_matches_brute_force(dec11, dec12, dec23):
    decomps = [
        dec11,
        dec12,
        dec23,
        make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2")),
        make_dec([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]], ("one", "sqrt2", "sqrt3")),
    ]
    rng = random.Random(17)
    for decomp in decomps:
        windows = [(1.0, 2.0, 3.0), (0.5, 3.0, 3.0)]  # ends on a level of dec11 and dec23
        for _ in range(6):
            hbar = rng.choice([1.0, 0.5, 0.25, 0.1])
            lo = rng.uniform(0.0, 4.0)
            windows.append((hbar, lo, lo + rng.uniform(0.0, 1.5)))
        for hbar, lo, hi in windows:
            got = [
                (lv.value, lv.coords, lv.indices) for lv in enumerate_window(decomp, hbar, lo, hi)
            ]
            assert got == _brute_window(decomp, hbar, lo, hi), (decomp.dims, hbar, lo, hi)


def test_window_walks_only_the_shell(dec12, monkeypatch):
    # about 3,500 lattice points lie below the top of this window and about
    # 300 in its shell: a walk bounded only from above exceeds the cap
    monkeypatch.setattr("scarkit.spectral._WINDOW_CAP", 1000)
    hbar = 0.01
    got = enumerate_window(dec12, hbar, 1.0 - 2 * hbar, 1.0 + 2 * hbar)
    monkeypatch.undo()
    assert len(got) > 50
    want = _brute_window(dec12, hbar, 1.0 - 2 * hbar, 1.0 + 2 * hbar)
    assert [(lv.value, lv.coords, lv.indices) for lv in got] == want


def test_hbar_ceiling_refuses_non_finite_energies(dec12):
    # a NaN energy used to fall through every ladder test and surface as a
    # DomainError about a missing ladder
    for E in ((math.nan, 0.5), (0.5, math.inf)):
        with pytest.raises(ValidationError, match="component energies must be finite"):
            hbar_ceiling(dec12, E)


def test_select_target_frozen_example(dec12):
    t = select_target(dec12, (1.0, 0.0), 0.1)
    assert t.N == (10, 0)
    assert t.signs == (1, 1)
    assert t.lam[0] == pytest.approx(1.05)
    assert t.lam[1] == pytest.approx(0.1 * math.sqrt(2) / 2, rel=1e-13)
    assert t.lambda_total == pytest.approx(sum(t.lam))
    assert abs(1.0 - t.lam[0]) < 0.1  # 2 pi hbar / T_1 = hbar
    assert t.witnesses[0] == (10, 0)
    assert component_ratio(dec12, t.witnesses[0], 0) == t.ratios_q[0]


def test_select_target_zero_component_gets_zero_point(dec12):
    t = select_target(dec12, (1.0, 0.0), 0.05)
    assert t.N[1] == 0
    assert t.lam[1] == pytest.approx(0.05 * math.sqrt(2) / 2, rel=1e-13)


def test_select_target_window_bound_random(dec12):
    rng = random.Random(11)
    for _ in range(30):
        u = rng.uniform(0.05, 0.95)
        E = (u, 1.0 - u)
        hbar = rng.choice([0.2, 0.1, 0.05, 0.01])
        t = select_target(dec12, E, hbar)
        for n, comp in enumerate(dec12.components):
            if E[n] == 0.0:
                continue
            assert abs(E[n] - t.lam[n]) < 2 * math.pi * hbar / comp.period
            dot = sum(
                iv * kj for iv, kj in zip(comp.int_weights, t.witnesses[n])
            )
            assert dot == t.signs[n] * t.N[n]
        assert abs(t.lambda_total - 1.0) <= sum(
            2 * math.pi * hbar / c.period for c in dec12.components
        )


def test_select_target_requires_membership(dec12):
    with pytest.raises(NotInSigmaError):
        select_target(dec12, (0.7, 0.7), 0.05)


def test_select_target_conductor_gate(dec23):
    ceiling = hbar_ceiling(dec23, (1.0,))
    assert ceiling == pytest.approx(1.0 / 4.5, rel=1e-12)
    with pytest.raises(BelowConductorError):
        select_target(dec23, (1.0,), 0.5)
    t = select_target(dec23, (1.0,), 0.2)
    assert t.N[0] >= dec23.components[0].conductor
    dot = sum(iv * kj for iv, kj in zip((2, 3), t.witnesses[0]))
    assert dot == t.N[0]


def test_hbar_ceiling_keeps_ladders_nonnegative(dec12):
    # conductor is 0 on both components; the ceiling still enforces N >= 0
    ceiling = hbar_ceiling(dec12, (0.5, 0.5))
    assert ceiling == pytest.approx(1.0 / math.sqrt(2), rel=1e-12)
    t = select_target(dec12, (0.5, 0.5), 0.9 * ceiling)
    assert all(n >= 0 for n in t.N)


def test_level_table_shape(dec12):
    cols, rows = level_table(dec12, 1.0, 1.0, 4.0)
    assert cols[:2] == ["k1", "k2"]
    assert "lambda" in cols and "lambda_1" in cols and "lambda_2" in cols
    levels = enumerate_window(dec12, 1.0, 1.0, 4.0)
    assert len(rows) == sum(lv.multiplicity for lv in levels)
    for row in rows:
        k = tuple(int(v) for v in row[:2])
        assert row[cols.index("lambda")] == pytest.approx(
            eigenvalue(dec12, k, 1.0), rel=1e-12
        )


def test_validation_errors(dec12):
    with pytest.raises(ValidationError):
        component_eigenvalue(dec12, (0, 0), 5, 0.1)
    with pytest.raises(ValidationError):
        component_eigenvalue(dec12, (-1, 0), 0, 0.1)
    with pytest.raises(ValidationError):
        eigenvalue(dec12, (0, 0), -0.1)
    with pytest.raises(ValidationError):
        enumerate_window(dec12, 1.0, 3.0, 2.0)


@pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_hbar_is_a_validation_error(dec12, hbar):
    with pytest.raises(ValidationError, match="positive and finite"):
        select_target(dec12, (0.5, 0.5), hbar)
    with pytest.raises(ValidationError, match="positive and finite"):
        enumerate_window(dec12, hbar, 1.0, 4.0)


@pytest.mark.parametrize("E", [(math.nan, 0.5), (0.5, math.inf)])
def test_non_finite_energies_are_a_validation_error(dec12, E):
    # a NaN once passed the membership test and failed in math.ceil
    with pytest.raises(ValidationError, match="energies must be finite"):
        select_target(dec12, E, 0.1)


@pytest.mark.parametrize(
    "lo,hi", [(math.nan, 4.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 4.0)]
)
def test_non_finite_window_bounds_are_a_validation_error(dec12, lo, hi):
    with pytest.raises(ValidationError, match="window bounds must be finite"):
        enumerate_window(dec12, 1.0, lo, hi)
