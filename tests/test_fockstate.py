import cmath
import io
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln
from scipy.stats import poisson

from scarkit.errors import (
    EmptyProjectionError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)
from scarkit.fockstate import (
    _STIRLERR,
    FockState,
    _char_betas,
    _complex_band,
    _displacement_matrix,
    _displacement_windows,
    _ladder_bands,
    _moment_plan,
    _moments,
    _nearest_misses,
    _poisson_logpmf,
    _poisson_tails,
    _project_conditions,
    _support_arrays,
    average_project,
    coherent,
    dump_state,
    evolve,
    expectation,
    gram,
    inner,
    load_state,
    normalize_scar,
)
from scarkit.freqarith import (
    FrequencySpec,
    GeneratorBasis,
    decompose,
    load_frequency_spec,
    sqrt_decimal,
)
from scarkit.phasespace import PhasePoint, component_energies, sigma_membership
from scarkit.spectral import decompose_eigenvalue, eigenvalue, select_target
from scarkit.symbols import Symbol, character, mode_energy, momentum, monomial, position

from conftest import as_sparse

F = Fraction


def make_dec(coords, gens):
    table = {"one": Decimal(1), "sqrt2": sqrt_decimal(2)}
    basis = GeneratorBasis(tuple(gens), tuple(table[g] for g in gens))
    return decompose(FrequencySpec.build(basis, coords))


@pytest.fixture(scope="module")
def dec1():
    return make_dec([[F(1)]], ("one",))


@pytest.fixture(scope="module")
def dec12():
    return make_dec([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))


@pytest.fixture(scope="module")
def dec23():
    return make_dec([[F(2)], [F(3)]], ("one",))


@pytest.fixture(scope="module")
def dec_chain():
    # omega = (1, 2 sqrt2, 1 + sqrt2); two components sharing mode 3 with
    # different weights there
    return make_dec(
        [[F(1), F(0)], [F(0), F(2)], [F(1), F(1)]], ("one", "sqrt2")
    )


def torus_point(decomp, E):
    return sigma_membership(decomp, E).torus_point()


def sparse_coherent(z0, hbar):
    """as_sparse of a coherent state: every coefficient of its cutoff box, so
    the copy misses only the mass coherent cut off, at most its tail_bound."""
    state = as_sparse(coherent(z0, hbar))
    assert 0.0 <= 1.0 - state.norm() ** 2 <= state.tail_bound
    return state


def test_coherent_norm_close_to_one(dec12):
    z0 = torus_point(dec12, (0.5, 0.5))
    psi = coherent(z0, 0.1)
    assert psi.is_product
    assert 1.0 - 1e-11 <= psi.norm() <= 1.0 + 1e-12


def test_coherent_at_origin_is_ground():
    psi = coherent(PhasePoint.zero(2), 0.3)
    assert psi.cutoff == (0, 0)
    assert psi.coefficient((0, 0)) == pytest.approx(1.0)


def test_coherent_at_subnormal_mean_is_ground():
    # |alpha|^2 = 5e-320: (k - mu)/mu overflows, and pmf(k >= 1) is 0 without a warning
    psi = coherent(PhasePoint(x=(1e-160,), xi=(0.0,)), 0.1)
    assert psi.cutoff == (0,)
    assert psi.coefficient((0,)) == 1.0


def test_coefficient_outside_the_support_is_zero():
    # a negative index once read a product factor from its end
    psi = coherent(PhasePoint((1.0,), (0.0,)), 0.1)
    sparse = as_sparse(psi)
    for k in ((-1,), (-len(psi.factors[0]),), (len(psi.factors[0]),)):
        assert psi.coefficient(k) == 0j
        assert sparse.coefficient(k) == 0j
    assert psi.coefficient((0,)) == sparse.coefficient((0,)) != 0


def test_coherent_energy_expectation_ladder_oracle(dec12):
    # <Op(H_j)> on a coherent state is H_j(z0) + hbar/2
    z0 = torus_point(dec12, (0.5, 0.5))
    hbar = 0.07
    psi = sparse_coherent(z0, hbar)
    for j, hj in enumerate(z0.mode_energies()):
        val = expectation(psi, psi, mode_energy(2, j))
        assert val.real == pytest.approx(hj + hbar / 2.0, abs=1e-10)
        assert abs(val.imag) < 1e-12


def test_coherent_poisson_weights():
    z0 = PhasePoint(x=(0.6,), xi=(-0.2,))
    hbar = 0.05
    psi = coherent(z0, hbar)
    mu = (0.6**2 + 0.2**2) / (2.0 * hbar)
    for k in (0, 1, 5, 9):
        assert abs(psi.coefficient((k,))) ** 2 == pytest.approx(
            poisson.pmf(k, mu), rel=1e-10
        )


def _poisson_tail_mp(k: int, mu: float):
    """P(X > k) for X ~ Poisson(mu), as a 50-digit regularized lower gamma."""
    with mpmath.workdps(50):
        return mpmath.gammainc(k + 1, 0, mu, regularized=True)


@pytest.mark.parametrize("mu", [50.0, 1000.0, 5000.0, 1e5])
def test_poisson_tail_matches_mpmath(mu):
    # the tail coherent cuts at, summed from k_max down
    k_max = int(mu + 12.0 * math.sqrt(mu) + 25.0)
    ((_, tail),) = _poisson_tails([mu], [k_max])
    for z in (0.0, 3.0, 7.0, 8.5, 10.0):  # tails from 0.5 down to ~1e-23
        k = int(mu + z * math.sqrt(mu))
        want = _poisson_tail_mp(k, mu)
        assert abs(tail[k] - float(want)) <= 1e-12 * float(want)


@pytest.mark.parametrize("mu", [1e-3, 0.5, 3.0, 50.0, 1000.0, 12345.6, 1e5, 1e6, 1e7])
def test_poisson_pmf_matches_mpmath(mu):
    # Loader's form keeps full relative accuracy in the bulk and the tails,
    # where -mu + k log mu - log k! loses ~mu * eps
    root = math.sqrt(mu)
    ks = [0, 1, 2, int(mu / 2), int(mu - 5 * root), int(mu), int(mu) + 1]
    ks = sorted({k for k in ks if k >= 0} | {int(mu + 3 * root), int(mu + 10 * root), int(2 * mu) + 5})
    got = np.exp(_poisson_logpmf(np.array(ks), np.full(len(ks), mu)))
    for k, value in zip(ks, got):
        with mpmath.workdps(50):
            want = float(mpmath.exp(-mu + k * mpmath.log(mu) - mpmath.loggamma(k + 1)))
        if want > 1e-300:
            assert abs(value - want) <= 1e-12 * want


def test_stirling_error_table_matches_mpmath():
    with mpmath.workdps(50):
        for n in range(1, 16):
            want = mpmath.log(mpmath.factorial(n)) - (n + 0.5) * mpmath.log(n) + n - mpmath.log(2 * mpmath.pi) / 2
            assert _STIRLERR[n] == float(want)


def test_coherent_norm_within_tail_budget_at_depth():
    # hbar = 0.2 * 2^-18: |alpha|^2 reaches 7e5, where the old log-gamma
    # amplitudes drifted to 1 - norm^2 = 5.5e-10. Each mode's mass is summed
    # exactly (fsum), so 1 - mass is its cut tail, at most tail_tol / d, plus
    # the rounding of the squared amplitudes: against 50-digit values those
    # within 3 sd of |alpha|^2, which hold all but 3e-3 of the mass, err by at
    # most 8 eps and none by more than 128 eps, so 16 eps bounds it
    eps = np.finfo(float).eps
    tail_tol = 1e-15
    psi = coherent(PhasePoint(x=(1.0, 0.7), xi=(0.3, 0.2)), 0.2 * 2.0**-18, tail_tol=tail_tol)
    assert psi.cutoff[0] > 7e5
    for f in psi.factors:
        mass = math.fsum((np.abs(f) ** 2).tolist())
        assert abs(1.0 - mass) <= tail_tol / psi.dims + 16 * eps


def test_coherent_cutoff_is_first_index_below_tail_budget(dec12):
    # d=2 at hbar = 0.2 * 2^-11 puts |alpha|^2 near 5000 and 3600, where
    # 1 - cumsum(pmf) stalls above the per-mode budget of 5e-13
    z0 = torus_point(dec12, (0.5, 0.5))
    hbar = 0.2 * 2.0**-11
    psi = coherent(z0, hbar)
    budget = 1e-12 / 2
    for j in range(2):
        mu = (z0.x[j] ** 2 + z0.xi[j] ** 2) / (2.0 * hbar)
        K = psi.cutoff[j]
        assert mu > 3000
        assert _poisson_tail_mp(K, mu) < budget <= _poisson_tail_mp(K - 1, mu)


def test_inner_agrees_across_representations(dec12):
    z0 = torus_point(dec12, (0.5, 0.5))
    zb = PhasePoint(x=(0.3, -0.1), xi=(0.2, 0.4))
    a, b = coherent(z0, 0.2), coherent(zb, 0.2)
    sa, sb = as_sparse(a), as_sparse(b)
    ref = inner(sa, sb)
    assert abs(ref) > 1e-6
    assert inner(a, sb) == pytest.approx(ref, rel=1e-10)  # the Husimi probe's product bra
    # antilinearity in the bra slot
    assert inner(sb, sa) == pytest.approx(ref.conjugate(), rel=1e-10)


def test_projection_is_orthogonal(dec12):
    z0 = torus_point(dec12, (0.5, 0.5))
    hbar = 0.15
    psi = coherent(z0, hbar)
    target = select_target(dec12, (0.5, 0.5), hbar)
    proj = average_project(psi, target)
    assert proj.norm() <= psi.norm() + 1e-12
    # <psi - P psi, P psi> = <psi, P psi> - |P psi|^2 = 0
    cross = inner(psi, proj) - proj.norm() ** 2
    assert abs(cross) < 1e-12


def test_projection_keeps_exact_joint_eigenvectors(dec12):
    z0 = torus_point(dec12, (0.5, 0.5))
    hbar = 0.15
    psi = coherent(z0, hbar)
    target = select_target(dec12, (0.5, 0.5), hbar)
    proj = average_project(psi, target)
    assert proj.coeffs
    for k in proj.coeffs:
        parts = decompose_eigenvalue(dec12, k, hbar)
        for n in range(dec12.d_omega):
            assert parts[n] == pytest.approx(target.lam[n], rel=1e-13)
        assert eigenvalue(dec12, k, hbar) == pytest.approx(
            target.lambda_total, rel=1e-13
        )


def test_projection_matches_phase_average_oracle(dec23):
    # the time average over one period, discretized at M points, reproduces
    # the spectral projector once M exceeds the ladder spread in the box
    hbar = 0.2
    z0 = torus_point(dec23, (1.0,))
    psi = coherent(z0, hbar)
    target = select_target(dec23, (1.0,), hbar)
    comp = dec23.components[0]
    proj = average_project(psi, target)
    M = 512
    phases = np.exp(-2j * np.pi * np.arange(M) / M)
    for k, c in as_sparse(psi).coeffs.items():
        dot = sum(iv * kj for iv, kj in zip(comp.int_weights, k))
        gap = dot - target.signs[0] * target.N[0]
        avg = c * np.mean(phases**gap)
        assert abs(avg - proj.coeffs.get(k, 0j)) < 1e-12


def test_empty_projection_reports_nearest(dec12):
    state = coherent(PhasePoint.zero(2), 0.1)
    assert state.cutoff == (0, 0)
    target = select_target(dec12, (0.5, 0.5), 0.1)
    with pytest.raises(EmptyProjectionError) as err:
        average_project(state, target)
    assert (0, 0) in err.value.nearest


_REFUSALS = {  # call -> (the call on dec12 and a coherent state, the call's message)
    "evolve": (lambda dec, psi: evolve(psi, dec, 0.3), "evolve needs a sparse state"),
    "scaled": (lambda dec, psi: psi.scaled(2.0), "scaled needs a sparse state"),
    "inner-product-ket": (lambda dec, psi: inner(psi, psi), "inner needs a sparse ket"),
    "inner-sparse-bra": (lambda dec, psi: inner(as_sparse(psi), psi), "inner needs a sparse ket"),
    "average_project": (
        lambda dec, psi: average_project(as_sparse(psi), select_target(dec, (0.5, 0.5), psi.hbar)),
        "average_project needs a product state",
    ),
    "normalize_scar-origin": (
        lambda dec, psi: normalize_scar(dec, PhasePoint.zero(2), (0.5, 0.5), psi.hbar),
        "normalize_scar needs a z0 that excites some mode",
    ),
}


@pytest.mark.parametrize("call", list(_REFUSALS))
def test_product_states_only_feed_projection_and_husimi(dec12, call):
    # product states are read only by coherent, projection, a product bra in
    # inner (the Husimi probe), norm and coefficient; sparse states are not
    # projected again, and a z0 exciting no mode (gradient rank 0) has no scar
    psi = coherent(torus_point(dec12, (0.5, 0.5)), 0.15)
    run, message = _REFUSALS[call]
    with pytest.raises(ValidationError, match=message):
        run(dec12, psi)


_BOX_CHUNK = 1 << 18


def _box_scan_project(state, conditions):
    """Reference: scan every point of a product state's cutoff box in chunks."""
    sizes = [len(f) for f in state.factors]
    total = math.prod(sizes)
    kept = {}
    for start in range(0, total, _BOX_CHUNK):
        idx = np.arange(start, min(start + _BOX_CHUNK, total))
        coords = np.unravel_index(idx, sizes)
        ok = np.ones(len(idx), dtype=bool)
        for ivec, rhs in conditions:
            dot = np.zeros(len(idx), dtype=np.int64)
            for j, iv in enumerate(ivec):
                if iv:
                    dot += iv * coords[j]
            ok &= dot == rhs
        if not ok.any():
            continue
        sel = [c[ok] for c in coords]
        amp = np.ones(int(ok.sum()), dtype=complex)
        for j, f in enumerate(state.factors):
            amp *= f[sel[j]]
        for row, c in zip(zip(*(s.tolist() for s in sel)), amp.tolist()):
            kept[tuple(row)] = c
    return kept


def _box_nearest(state, conditions, count=3):
    """Reference: rank every nonzero box point by (miss, -|c|, k)."""
    scored = []
    for k in itertools.product(*(range(len(f)) for f in state.factors)):
        c = 1.0 + 0j
        for j, f in enumerate(state.factors):
            c *= complex(f[k[j]])
        if c != 0:
            miss = sum(
                abs(sum(iv * kj for iv, kj in zip(ivec, k)) - rhs)
                for ivec, rhs in conditions
            )
            scored.append((miss, -abs(c), k))
    scored.sort()
    return tuple(k for _, _, k in scored[:count])


def _bits(kept):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in kept.items()]


@st.composite
def _condition_systems(draw):
    d = draw(st.integers(1, 4))
    extents = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 8]), min_size=d, max_size=d))
    m = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(coeff, min_size=d, max_size=d), min_size=m, max_size=m))
    point = [draw(st.integers(0, e - 1)) for e in extents]
    shift = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 4]), min_size=m, max_size=m))
    rhs = [sum(a * k for a, k in zip(row, point)) + s for row, s in zip(rows, shift)]
    seed = draw(st.integers(0, 2**32 - 1))
    return extents, list(zip(map(tuple, rows), rhs)), seed


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_condition_systems())
def test_lattice_projection_matches_box_scan(system):
    # same kept keys in the same order with the same value bits, and the
    # same nearest points, over random integer systems: coefficients beyond
    # +-1, negative signs, dependent rows, unexcited modes, infeasible rhs
    extents, conditions, seed = system
    rng = np.random.default_rng(seed)
    factors = []
    for e in extents:
        f = rng.normal(size=e) + 1j * rng.normal(size=e)
        f[rng.random(e) < 0.15] = 0.0
        factors.append(f)
    state = FockState(
        hbar=0.1,
        dims=len(extents),
        cutoff=tuple(e - 1 for e in extents),
        tail_bound=0.0,
        factors=tuple(factors),
    )
    assert _bits(_project_conditions(state, conditions)) == _bits(
        _box_scan_project(state, conditions)
    )
    assert _nearest_misses(state, conditions) == _box_nearest(state, conditions)


def _masked_point(decomp, mask, t):
    """Point with the two excited modes of `mask` at angle t*pi/2, total energy 1."""
    a, b = [j for j, m in enumerate(mask) if m]
    x = [0.0] * decomp.dims
    x[a], x[b] = math.cos(t * math.pi / 2), math.sin(t * math.pi / 2)
    z = PhasePoint(tuple(x), (0.0,) * decomp.dims)
    scale = sum(component_energies(decomp, z)) ** -0.5
    return PhasePoint(tuple(v * scale for v in x), (0.0,) * decomp.dims)


@pytest.mark.parametrize(
    "spec,mask,t,hbar,condition",
    [
        ("1,2,sqrt2", (0, 1, 1), 0.5, 0.1, "k1 + 2 k2 = 5 with k1 = 0, k2 <= 22"),
        ("1,2,sqrt2", (0, 1, 1), 0.5, 0.07, "k1 + 2 k2 = 7 with k1 = 0, k2 <= 26"),
        ("1,2,sqrt2", (0, 1, 1), 0.5, 0.05, "k1 + 2 k2 = 11 with k1 = 0, k2 <= 30"),
        ("1,2sqrt2,1+sqrt2", (0, 1, 1), 0.9, 0.1, None),
        ("1,2sqrt2,1+sqrt2", (0, 1, 1), 0.05, 0.07, None),
        ("1,2sqrt2,1+sqrt2", (0, 1, 1), 0.9, 0.05, None),
        ("1,2sqrt2,1+sqrt2", (1, 1, 0), 0.4, 0.1, None),
        ("1,2sqrt2,1+sqrt2", (1, 1, 0), 0.4, 0.07, None),
        ("1,2sqrt2,1+sqrt2", (1, 1, 0), 0.4, 0.05, None),
    ],
)
def test_unexcited_mode_parity_empties_projection(dec_chain, spec, mask, t, hbar, condition):
    # at full rank the full-system ladders can demand a parity the unexcited
    # mode cannot supply; the error names the condition and the nearest points
    decomp = dec_chain if spec == "1,2sqrt2,1+sqrt2" else make_dec(
        [[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2")
    )
    z0 = _masked_point(decomp, mask, t)
    E = component_energies(decomp, z0)
    assert gram(z0, decomp).system is decomp
    with pytest.raises(EmptyProjectionError) as err:
        normalize_scar(decomp, z0, E, hbar)
    target = select_target(decomp, E, hbar)
    conditions = [
        (comp.int_weights, target.signs[n] * target.N[n])
        for n, comp in enumerate(decomp.components)
    ]
    psi = coherent(z0, hbar)
    assert len(err.value.nearest) == 3
    assert err.value.nearest == _box_nearest(psi, conditions)
    assert "has no solution in the state support" in str(err.value)
    if condition is not None:
        assert condition in str(err.value)


def test_gram_full_rank_frozen(dec12):
    z0 = torus_point(dec12, (0.5, 0.5))
    g = gram(z0, dec12)
    assert g.rank_d0 == 2
    assert g.system is dec12
    assert g.retained == (0, 1)
    assert g.dropped == ()
    expected = np.diag([1.0, math.sqrt(2.0)])
    assert np.allclose(g.matrix, expected, atol=1e-12)
    assert g.det == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert g.volume == pytest.approx(
        (2 * math.pi) ** 2 / math.sqrt(2.0), rel=1e-12
    )


def test_gram_rank_deficient_unexcited_mode(dec12):
    z0 = torus_point(dec12, (1.0, 0.0))
    assert z0.x == (math.sqrt(2.0), 0.0)
    g = gram(z0, dec12)
    assert g.rank_d0 == 1
    assert g.retained == (0,)
    assert g.dropped == (1,)
    assert g.transfer == ((F(0),),)
    assert g.matrix[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert g.volume == pytest.approx(2 * math.pi, rel=1e-12)


def test_gram_volume_is_scar_volume_with_an_unexcited_mode():
    # omega = (1, 2, sqrt2) with mode 1 unexcited: the projected weights
    # (0, 2, 0) and (0, 0, 1) keep full rank, so the periods are those of
    # the full components, not of the projected weights (which halve T_1)
    s2 = math.sqrt(2.0)
    dec = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    z0 = PhasePoint(x=(0.0, math.sqrt(0.4), math.sqrt(0.6 * s2)), xi=(0.0,) * 3)
    g = gram(z0, dec)
    assert g.rank_d0 == 2
    assert g.excited == (False, True, True)
    assert g.system is dec
    assert g.volume == pytest.approx((2 * math.pi) ** 2 / s2, rel=1e-12)
    scar = normalize_scar(dec, z0, (0.4, 0.6), 0.08)
    assert scar.rank_d0 == 2
    assert scar.volume == g.volume


def test_gram_rank_zero_at_origin(dec12):
    g = gram(PhasePoint.zero(2), dec12)
    assert g.rank_d0 == 0
    assert g.matrix.shape == (0, 0)
    assert g.det == 1.0
    assert g.volume == 1.0


def test_gram_nontrivial_transfer(dec_chain):
    # only the shared mode excited: the projected weight rows become
    # (0, 0, 1) and (0, 0, 1/2), the second component folds into the first
    # with b = 1/2 and the effective frequency becomes 1 + sqrt2 = omega_3
    s2 = math.sqrt(2.0)
    h3 = s2 - 1.0  # makes E sum to 1
    z0 = PhasePoint(x=(0.0, 0.0, math.sqrt(2.0 * h3)), xi=(0.0, 0.0, 0.0))
    g = gram(z0, dec_chain)
    assert g.rank_d0 == 1
    assert g.retained == (0,)
    assert g.dropped == (1,)
    assert g.transfer == ((F(1, 2),),)
    t = g.system.components[0]
    assert t.pivot == pytest.approx(1.0 + s2, rel=1e-12)
    assert t.int_weights == (0, 0, 1)
    assert t.period == pytest.approx(2 * math.pi / (1.0 + s2), rel=1e-12)
    assert g.matrix[0, 0] == pytest.approx(2.0 * (1.0 + s2), rel=1e-12)


def test_gram_det_matches_mpmath(dec12, dec_chain):
    # the Cauchy-Binet determinant against a 50-digit determinant of the
    # float matrix, at d0 = 1, 2 and at a d_omega = 3 point
    spec = Path(__file__).resolve().parents[1] / "configs" / "sqrt2sqrt3.freq"
    dec3 = decompose(load_frequency_spec(spec))
    s2 = math.sqrt(2.0)
    cases = [
        (dec12, torus_point(dec12, (1.0, 0.0)), 1),
        (dec12, torus_point(dec12, (0.5, 0.5)), 2),
        (dec12, PhasePoint(x=(0.3, -1.1), xi=(0.7, 0.2)), 2),
        (dec_chain, PhasePoint(x=(0.0, 0.0, math.sqrt(2.0 * (s2 - 1.0))), xi=(0.0,) * 3), 1),
        (dec_chain, PhasePoint(x=(0.4, 0.0, 0.9), xi=(0.1, 0.0, -0.3)), 2),
        (dec3, torus_point(dec3, (0.3, 0.3, 0.4)), 3),
        (dec3, PhasePoint(x=(0.0, 0.8, 0.5), xi=(0.2, 0.0, 0.0)), 3),
    ]
    with mpmath.workdps(50):
        for decomp, z0, d0 in cases:
            g = gram(z0, decomp)
            assert g.rank_d0 == d0
            assert g.det >= 0.0
            oracle = mpmath.det(mpmath.matrix(g.matrix.tolist()))
            assert abs(g.det - oracle) <= 1e-13 * abs(oracle)


def test_normalize_scar_full_rank(dec12):
    hbar = 0.1
    E = (0.5, 0.5)
    z0 = torus_point(dec12, E)
    scar = normalize_scar(dec12, z0, E, hbar)
    assert scar.rank_d0 == 2
    assert scar.state.norm() == pytest.approx(1.0, abs=1e-12)
    # mass oracle: independent Poisson weights on the kept sublattice
    h = z0.mode_energies()
    mus = [hj / hbar for hj in h]
    n1, n2 = scar.target.N
    mass = poisson.pmf(n1, mus[0]) * poisson.pmf(n2, mus[1])
    assert scar.mass == pytest.approx(mass, rel=1e-9)
    vol = (2 * math.pi) ** 2 / math.sqrt(2.0)
    c = vol * math.sqrt(math.sqrt(2.0)) * mass / (4 * math.pi * hbar)
    assert scar.c_hbar == pytest.approx(c, rel=1e-9)
    assert 0.5 < scar.c_hbar < 1.5


def test_normalize_scar_is_exact_eigenvector(dec12):
    hbar = 0.12
    E = (0.5, 0.5)
    scar = normalize_scar(dec12, torus_point(dec12, E), E, hbar)
    for k in scar.state.coeffs:
        assert eigenvalue(dec12, k, hbar) == pytest.approx(
            scar.target.lambda_total, rel=1e-13
        )


def test_normalize_scar_rank_deficient_path(dec12):
    hbar = 0.1
    E = (1.0, 0.0)
    z0 = torus_point(dec12, E)
    scar = normalize_scar(dec12, z0, E, hbar)
    assert scar.rank_d0 == 1
    assert scar.state.norm() == pytest.approx(1.0, abs=1e-12)
    mass = poisson.pmf(10, 10.0)
    assert scar.mass == pytest.approx(mass, rel=1e-9)
    c = 2 * math.pi * math.sqrt(2.0) * mass / math.sqrt(4 * math.pi * hbar)
    assert scar.c_hbar == pytest.approx(c, rel=1e-9)


def test_reduced_conditions_rescue_joint_infeasibility(dec_chain):
    # with only the shared mode excited the two per-component ladders demand
    # k3 = N_1 and k3 = N_2 at once, which fails here; the reduced system has
    # a single feasible condition
    s2 = math.sqrt(2.0)
    hbar = 0.1
    E = (s2 - 1.0, s2 * (s2 - 1.0))
    h3 = s2 - 1.0
    z0 = PhasePoint(x=(0.0, 0.0, math.sqrt(2.0 * h3)), xi=(0.0, 0.0, 0.0))
    target = select_target(dec_chain, E, hbar)
    assert target.N[0] != target.N[1]
    psi = coherent(z0, hbar)
    with pytest.raises(EmptyProjectionError):
        average_project(psi, target)
    scar = normalize_scar(dec_chain, z0, E, hbar)
    assert scar.rank_d0 == 1
    assert scar.state.norm() == pytest.approx(1.0, abs=1e-12)
    # support sits on the reduced ladder: k = (0, 0, k3) with one k3
    keys = list(scar.state.coeffs)
    assert len(keys) == 1
    assert keys[0][:2] == (0, 0)
    mu3 = h3 / hbar
    mass = poisson.pmf(keys[0][2], mu3)
    c = (
        (2 * math.pi / (1 + s2))
        * math.sqrt(2.0 * (1 + s2))
        * mass
        / math.sqrt(4 * math.pi * hbar)
    )
    assert scar.c_hbar == pytest.approx(c, rel=1e-9)
    # the reported target is re-anchored at the eigenvalue actually reached,
    # which differs from the full-system aim in component 2
    parts = decompose_eigenvalue(dec_chain, keys[0], hbar)
    for n in range(2):
        assert scar.target.lam[n] == pytest.approx(parts[n], rel=1e-13)
    assert scar.target.lam[1] != pytest.approx(target.lam[1], rel=1e-6)
    assert scar.target.witnesses == (keys[0], keys[0])


def test_weyl_moments_on_ground_state():
    hbar = 0.23
    psi = sparse_coherent(PhasePoint.zero(1), hbar)
    cases = {
        (2, 0): hbar / 2.0,
        (0, 2): hbar / 2.0,
        (4, 0): 3.0 * hbar**2 / 4.0,
        (2, 2): hbar**2 / 4.0,
        (1, 1): 0.0,
        (1, 0): 0.0,
    }
    for (a, b), want in cases.items():
        got = expectation(psi, psi, monomial(1, [a, b]))
        assert got.real == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12


def test_weyl_moments_on_coherent_state():
    hbar = 0.11
    z0 = PhasePoint(x=(0.4, -0.3), xi=(0.1, 0.5))
    psi = sparse_coherent(z0, hbar)
    assert expectation(psi, psi, position(2, 0)).real == pytest.approx(
        0.4, abs=1e-9
    )
    assert expectation(psi, psi, momentum(2, 1)).real == pytest.approx(
        0.5, abs=1e-9
    )
    assert expectation(psi, psi, position(2, 0, 2)).real == pytest.approx(
        0.4**2 + hbar / 2.0, abs=1e-9
    )
    xy = monomial(2, [1, 1, 0, 0])
    assert expectation(psi, psi, xy).real == pytest.approx(
        0.4 * (-0.3), abs=1e-9
    )


def _gaussian_moment(mean, sigma, a):
    """E[(mean + sigma Z)^a] for a standard normal Z."""
    return sum(
        math.comb(a, i) * mean ** (a - i) * sigma**i * math.prod(range(i - 1, 0, -2))
        for i in range(0, a + 1, 2)
    )


def _long_coherent(x0, xi0, hbar):
    """One-mode coherent product state kept far past the Poisson bulk.

    The cutoff leaves out a mass far below 1e-30, so the high moments see
    no truncation, and tail_bound is 0.
    """
    alpha = complex(x0, xi0) / math.sqrt(2.0 * hbar)
    mu = abs(alpha) ** 2
    ks = np.arange(int(mu + 15.0 * math.sqrt(mu) + 60.0))
    amp = np.exp(0.5 * (-mu + ks * math.log(mu) - gammaln(ks + 1)))
    f = amp * np.exp(1j * np.angle(alpha) * ks)
    return FockState(hbar=hbar, dims=1, cutoff=(len(f) - 1,), tail_bound=0.0, factors=(f,))


@pytest.mark.parametrize("hbar", [0.11, 1e-3, 1e-4])
def test_weyl_moments_match_coherent_wigner_closed_form(hbar):
    # the coherent state's Wigner function is a Gaussian of variance hbar/2
    # per coordinate, and the Weyl moment is the Wigner average of x^a xi^b
    x0, xi0 = 0.6, -0.35
    state = as_sparse(_long_coherent(x0, xi0, hbar))
    sigma = math.sqrt(hbar / 2.0)
    for a, b in itertools.product(range(9), repeat=2):
        if a + b > 8:
            continue
        want = _gaussian_moment(x0, sigma, a) * _gaussian_moment(xi0, sigma, b)
        got = expectation(state, state, monomial(1, [a, b])) / state.norm() ** 2
        assert got == pytest.approx(want, abs=1e-13), (a, b)


def _dense_weyl_mode_matrix(a, b, hbar, size):
    """Reference: dense Weyl quantization of x^a xi^b, exact on the size block.

    Built at size + a + b with matrix powers of the ladder matrices, so no
    product entry inside the block is truncated.
    """
    n = size + a + b
    lower = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    c = math.sqrt(hbar / 2.0)
    X = c * (lower + lower.T)
    Xi = 1j * c * (lower.T - lower)
    Xi_b = np.linalg.matrix_power(Xi.astype(complex), b)
    out = np.zeros((n, n), dtype=complex)
    for s in range(a + 1):
        left = np.linalg.matrix_power(X.astype(complex), s)
        right = np.linalg.matrix_power(X.astype(complex), a - s)
        out += math.comb(a, s) * (left @ Xi_b @ right)
    out /= 2.0**a
    return out[:size, :size]


def _band(cols, a, b, hbar):
    """<cols[i] + o|Op(x^a xi^b)|cols[i]> at out[i, a + b + o], from the band
    builder of the moment kernel (_ladder_bands) and its factor i^b."""
    plan = _moment_plan(((a, b),), 1)
    return _complex_band(_ladder_bands(np.asarray(cols)[None], plan, hbar)[0], b)


def _assert_band_matches(band, cols, a, b, column_of, rel):
    """Every band element within rel of the column's largest reference element."""
    r = a + b
    for i, n in enumerate(cols):
        ref = column_of(int(n))
        scale = max(abs(v) for v in ref.values())
        for o in range(-r, r + 1):
            want = ref.get(int(n) + o, 0j)
            assert abs(band[i, r + o] - want) <= rel * scale, (a, b, n, o)


@pytest.mark.parametrize(
    "size,monos",
    [
        (9, [(a, b) for a in range(7) for b in range(7) if 0 < a + b <= 6]),
        (60, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 2), (2, 4), (4, 4)]),
        (400, [(2, 0), (1, 1), (0, 3), (4, 4)]),
    ],
)
def test_weyl_band_matches_dense_reference(size, monos):
    hbar = 0.07
    cols = np.arange(size)
    for a, b in monos:
        r = a + b
        W = _dense_weyl_mode_matrix(a, b, hbar, size)
        m = np.arange(size)[:, None]
        assert not W[np.abs(m - cols[None, :]) > r].any()  # nothing outside the band
        band = _band(cols, a, b, hbar)
        assert not band[cols[:, None] + np.arange(-r, r + 1) < 0].any()
        # rows past the block edge are cut off the dense block; keep the rest
        _assert_band_matches(
            band,
            cols[: size - r],
            a,
            b,
            lambda n: {k: W[k, n] for k in range(max(n - r, 0), min(n + r + 1, size))},
            rel=1e-14,
        )


def _mp_weyl_column(n, a, b, hbar):
    """Op(x^a xi^b)|n> by the McCoy sum on sparse vectors, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        c = mpmath.sqrt(mpmath.mpf(hbar) / 2)

        def step(v, xi):
            out = {}
            for k, x in v.items():
                up = c * mpmath.sqrt(k + 1) * x
                out[k + 1] = out.get(k + 1, 0) + (1j * up if xi else up)
                if k > 0:
                    down = c * mpmath.sqrt(k) * x
                    out[k - 1] = out.get(k - 1, 0) + (-1j * down if xi else down)
            return out

        total = {}
        for s in range(a + 1):
            v = {n: mpmath.mpc(1)}
            for xi in [False] * (a - s) + [True] * b + [False] * s:
                v = step(v, xi)
            for k, x in v.items():
                total[k] = total.get(k, 0) + math.comb(a, s) * x
        return {k: complex(x / 2**a) for k, x in total.items()}


@pytest.mark.parametrize("a,b", [(2, 0), (1, 1), (0, 5), (3, 2), (4, 4), (8, 0)])
def test_weyl_band_matches_mpmath_at_large_index(a, b):
    hbar = 1e-3
    cols = np.array([4990, 4997, 5000, 5003])
    band = _band(cols, a, b, hbar)
    _assert_band_matches(
        band, cols, a, b, lambda n: _mp_weyl_column(n, a, b, hbar), rel=1e-14
    )


def test_polynomial_expectation_matches_dense_reference():
    rng = np.random.default_rng(8)
    hbar = 0.05
    sym = (
        monomial(2, [2, 0, 0, 1], 0.7)
        + monomial(2, [1, 1, 2, 0], -0.4j)
        + monomial(2, [0, 3, 0, 0], 1.1)
    )
    for _ in range(3):
        bra = _random_sparse(rng, hbar, 0, 40, 30)
        ket = _random_sparse(rng, hbar, 0, 40, 30)
        size = 41 + 4
        want = 0j
        for mono, coeff in sym.poly.items():
            Ws = [_dense_weyl_mode_matrix(mono[j], mono[2 + j], hbar, size) for j in range(2)]
            for k, c in ket.coeffs.items():
                for m, cb in bra.coeffs.items():
                    want += coeff * np.conjugate(cb) * Ws[0][m[0], k[0]] * Ws[1][m[1], k[1]] * c
        assert expectation(bra, ket, sym) == pytest.approx(want, rel=1e-13)
    z0 = PhasePoint(x=(0.4, -0.3), xi=(0.1, 0.5))
    p, q = coherent(z0, hbar), coherent(PhasePoint(x=(0.3, -0.2), xi=(0.2, 0.5)), hbar)
    want = 0j
    for mono, coeff in sym.poly.items():
        term = coeff
        for j in range(2):
            fa, fb = p.factors[j], q.factors[j]
            W = _dense_weyl_mode_matrix(mono[j], mono[2 + j], hbar, max(len(fa), len(fb)))
            term *= np.conjugate(fa) @ W[: len(fa), : len(fb)] @ fb
        want += term
    assert expectation(as_sparse(p), as_sparse(q), sym) == pytest.approx(want, rel=1e-13)


def _walk_monomial(coeffs, mono, hbar, dims, magnitude=False):
    """Op(mono) applied to a sparse map key by key, one mode at a time.

    The dict walk the array kernel replaced, kept as its reference. With
    `magnitude`, every band element enters as its absolute value.
    """
    out = coeffs
    for j in range(dims):
        a, b = mono[j], mono[dims + j]
        if a == 0 and b == 0:
            continue
        r = a + b
        cols = sorted({k[j] for k in out})
        band = _reference_band(np.array(cols), a, b, hbar)
        if magnitude:
            band = np.abs(band)
        hits = {}
        for col, row in zip(cols, band):
            nz = np.nonzero(row)[0]
            hits[col] = list(zip((nz + (col - r)).tolist(), row[nz].tolist()))
        nxt = {}
        for k, c in out.items():
            for m, wv in hits[k[j]]:
                key = k[:j] + (m,) + k[j + 1 :]
                nxt[key] = nxt.get(key, 0j) + wv * c
        out = nxt
    return out


@st.composite
def _moment_pairs(draw):
    """(bra, ket, powers): sparse kets on 0..6 per mode, monomials of degree 0 to 4.

    The bra is a sparse map overlapping the ket's support, a sparse map on
    indices the ket never holds, or the sparse copy of a product state,
    which holds every index of its box.
    """
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, 6)] * d)
    amplitude = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    ket_keys = draw(st.lists(index, min_size=1, max_size=12, unique=True))
    ket = FockState(0.1, d, (6,) * d, 0.0, {k: draw(amplitude) for k in ket_keys})
    kind = draw(st.sampled_from(["overlap", "disjoint", "product"]))
    if kind == "product":
        factors = tuple(
            np.array(draw(st.lists(amplitude, min_size=1, max_size=9)), dtype=complex)
            for _ in range(d)
        )
        bra = as_sparse(FockState(0.1, d, tuple(len(f) - 1 for f in factors), 0.0, factors=factors))
    else:
        extra = draw(st.lists(index, max_size=12, unique=True))
        if kind == "overlap":
            keys = set(draw(st.lists(st.sampled_from(ket_keys), min_size=1))) | set(extra)
        else:
            keys = set(extra) - set(ket_keys)
        keys = draw(st.permutations(sorted(keys))) or [tuple(7 + v for v in ket_keys[0])]
        bra = FockState(0.1, d, (10,) * d, 0.0, {k: draw(amplitude) for k in keys})
    degree = draw(st.integers(0, 4))
    powers = [0] * (2 * d)
    for _ in range(degree):
        powers[draw(st.integers(0, 2 * d - 1))] += 1
    return bra, ket, powers


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_moment_pairs())
def test_moment_kernel_matches_dict_walk(pair):
    # agreement is measured against sum |c_bra| |w| |c_ket|, since cross
    # terms can cancel the moment itself far below its terms
    bra, ket, powers = pair
    d = ket.dims
    mono = tuple(powers)
    want = sum(
        np.conjugate(bra.coefficient(k)) * c
        for k, c in _walk_monomial(ket.coeffs, mono, ket.hbar, d).items()
    )
    moduli = {k: abs(c) for k, c in ket.coeffs.items()}
    scale = sum(
        abs(bra.coefficient(k)) * abs(c)
        for k, c in _walk_monomial(moduli, mono, ket.hbar, d, magnitude=True).items()
    )
    got = expectation(bra, ket, monomial(d, powers))
    assert abs(got - want) <= 1e-14 * scale


def _reference_band(cols, a, b, hbar):
    """The band of Op(x^a xi^b) by the complex McCoy sum, every term's ladder word built afresh."""
    r = a + b
    idx = np.asarray(cols)[:, None] + np.arange(-r, r + 1)
    c = math.sqrt(hbar / 2.0)
    up = c * np.sqrt(np.maximum(idx[:, 1:], 0))
    down = c * np.sqrt(np.maximum(idx[:, :-1] + 1, 0))
    X, Xi = (up, down), (1j * up, -1j * down)
    out = np.zeros(idx.shape, dtype=complex)
    for s in range(a + 1):
        v = np.zeros(idx.shape, dtype=complex)
        v[:, r] = 1.0
        for raise_, lower in [X] * (a - s) + [Xi] * b + [X] * s:
            w = np.zeros_like(v)
            w[:, 1:] = raise_ * v[:, :-1]
            w[:, :-1] += lower * v[:, 1:]
            v = w
        out += math.comb(a, s) * v
    return out / 2.0**a


def _reference_lookup(bra):
    """Function from an (..., d) array of indices to the bra's coefficients
    there, 0 off its support, read index by index: the reference for the
    batched reads of _bra_reads."""
    keys, vals = _support_arrays(bra.coeffs, bra.dims)
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    extents = [int(e) for e in hi - lo + 1]
    strides = np.array([math.prod(extents[j + 1 :]) for j in range(bra.dims)], dtype=np.int64)
    codes = (keys - lo) @ strides
    order = np.argsort(codes, kind="stable")
    codes, vals = codes[order], vals[order]

    def lookup(idx):
        inside = ((idx >= lo) & (idx <= hi)).all(axis=-1)
        code = (idx - lo) @ strides
        pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        return np.where(inside & (codes[pos] == code), vals[pos], 0)
    return lookup


def _reference_moment(lookup, keys, vals, mono, hbar, thetas):
    """<bra|Op(mono o rotation by theta)|ket> for each row theta of thetas,
    one monomial at a time, with its own bands and bra read.

    The per-monomial kernel that the batched _moments replaced, kept as its
    bit-for-bit reference: each offset o of the monomial's box is summed over
    the support first, W_o, and angle theta is then sum_o W_o e^{i theta.o}.
    """
    dims = keys.shape[1]
    weight = vals[:, None]
    shifts = np.zeros((1, dims), dtype=np.int64)
    for j in range(dims):
        a, b = mono[j], mono[dims + j]
        if a == 0 and b == 0:
            continue
        r = a + b
        step = np.zeros((2 * r + 1, dims), dtype=np.int64)
        step[:, j] = np.arange(-r, r + 1)
        shifts = (shifts[:, None, :] + step[None, :, :]).reshape(-1, dims)
        band = _reference_band(keys[:, j], a, b, hbar)
        weight = (weight[:, :, None] * band[:, None, :]).reshape(len(keys), len(shifts))
    bra = lookup(keys[:, None, :] + shifts[None, :, :])
    per_offset = np.sum(np.conjugate(bra) * weight, axis=0)
    phase = np.exp(1j * np.sum(thetas[:, None, :] * shifts, axis=2))
    return np.sum(per_offset * phase, axis=1)


@pytest.mark.parametrize("d", [2, 3])
def test_batched_moments_match_per_monomial_kernel_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    hbar = 0.07

    def sparse(size):
        keys = sorted({tuple(int(v) for v in rng.integers(0, 9, size=d)) for _ in range(size)})
        return FockState(hbar, d, (8,) * d, 0.0, {k: complex(*rng.normal(size=2)) for k in keys})

    ket = sparse(30)
    z0 = PhasePoint(x=tuple(rng.uniform(0.2, 0.5, d)), xi=tuple(rng.uniform(-0.3, 0.3, d)))
    bras = {"ket": ket, "sparse": sparse(30), "coherent": sparse_coherent(z0, hbar)}
    monos = [p for p in itertools.product(range(5), repeat=2 * d) if sum(p) <= 4]
    monos.append({2: (3, 1, 2, 2), 3: (2, 0, 3, 1, 1, 1)}[d])  # one of degree 8
    keys, vals = _support_arrays(ket.coeffs, d)
    plan = _moment_plan(tuple(monos), d)
    bands = _ladder_bands(keys[:, list(plan.modes)].T, plan, hbar)  # one recursion, every word
    R = len(plan.signs)  # the longest word; the recursion stops each word at its own length
    assert len(plan.bands) > 20 and R == {2: 5, 3: 4}[d]
    for band, (j, a, b) in zip(bands, plan.bands):
        r = a + b
        got = _complex_band(band[:, R - r : R + r + 1], b)
        assert got.tobytes() == _reference_band(keys[:, j], a, b, hbar).tobytes(), (j, a, b)
    grids = {"lone": np.zeros((1, d)), "flowed": np.vstack([np.zeros(d), rng.uniform(-9, 9, (6, d))])}
    for (name, bra), (grid, thetas) in itertools.product(bras.items(), grids.items()):
        got = _moments(bra, ket.coeffs, monos, hbar, thetas)
        lookup = _reference_lookup(bra)
        differ = [
            mono for mono in monos
            if got[mono].tobytes()
            != _reference_moment(lookup, keys, vals, mono, hbar, thetas).tobytes()
        ]
        assert got.keys() == set(monos) and differ == [], (name, grid)
        if grid == "flowed":  # angle 0 of the grid is the lone call, bit for bit
            lone = _moments(bra, ket.coeffs, monos, hbar, thetas[:1])
            assert all(got[m][:1].tobytes() == lone[m].tobytes() for m in monos)


def test_sparse_bra_past_int64_codes_raises():
    far = (2**16,) * 4
    bra = FockState(0.1, 4, far, 0.0, {(0,) * 4: 1.0 + 0j, far: 1.0 + 0j})
    with pytest.raises(ResourceLimitError, match="int64 code"):
        expectation(bra, bra, position(4, 0))


def test_character_expectation_ground_and_coherent():
    w = (0.7, -0.4)
    sym = character(1, w)
    wnorm2 = w[0] ** 2 + w[1] ** 2
    for hbar in (0.17, 1e-3):
        ground = sparse_coherent(PhasePoint.zero(1), hbar)
        want = math.exp(-hbar * wnorm2 / 4.0)
        assert expectation(ground, ground, sym) == pytest.approx(want, abs=1e-12)
        z0 = PhasePoint(x=(0.5,), xi=(-0.2,))
        psi = sparse_coherent(z0, hbar)
        val = expectation(psi, psi, sym)
        want_c = complex(sym.evaluate((0.5,), (-0.2,))) * want
        assert val == pytest.approx(want_c, abs=1e-10)


def _dense_displacement(beta, rows, cols):
    """Reference: every <m|D(beta)|n> with m < rows and n < cols."""
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    p = np.minimum(m, n)
    q = np.abs(m - n)
    mag2 = abs(beta) ** 2
    lag = eval_genlaguerre(p, q, mag2)
    pref = np.exp(0.5 * (gammaln(p + 1) - gammaln(p + q + 1)) - mag2 / 2.0)
    base = np.where(m >= n, beta, -np.conjugate(beta)) ** q
    return pref * lag * base


def _mp_displacement(beta, m, n):
    """<m|D(beta)|n> from the normal-ordered expansion, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        b = mpmath.mpc(beta.real, beta.imag)
        total = mpmath.mpf(0)
        for k in range(min(m, n) + 1):
            total += (
                b ** (m - k)
                * (-mpmath.conj(b)) ** (n - k)
                / (mpmath.factorial(k) * mpmath.factorial(m - k) * mpmath.factorial(n - k))
            )
        out = mpmath.exp(-abs(b) ** 2 / 2) * mpmath.sqrt(
            mpmath.factorial(m) * mpmath.factorial(n)
        ) * total
        return complex(out)


def test_displacement_window_is_dense_block_slice():
    rng = np.random.default_rng(11)
    kmax = 140
    for _ in range(20):
        beta = complex(*rng.normal(scale=0.6, size=2))
        dense = _displacement_matrix(beta, range(kmax + 1), range(kmax + 1))
        # the Laguerre formula is an accuracy oracle; its bits are scipy's
        np.testing.assert_allclose(dense, _dense_displacement(beta, kmax + 1, kmax + 1), rtol=0, atol=1e-12)
        r0, r1 = sorted(rng.integers(0, kmax + 1, size=2))
        c0, c1 = sorted(rng.integers(0, kmax + 1, size=2))
        window = _displacement_matrix(beta, range(r0, r1 + 1), range(c0, c1 + 1))
        assert window.tobytes() == dense[r0 : r1 + 1, c0 : c1 + 1].tobytes()
        # a square window evaluates its upper triangle and mirrors it
        square = _displacement_matrix(beta, range(r0, r1 + 1), range(r0, r1 + 1))
        assert square.tobytes() == dense[r0 : r1 + 1, r0 : r1 + 1].tobytes()


def _mp_laguerre_factor(p, q, x):
    """sqrt(p!/(p+q)!) x^{q/2} e^{-x/2} L_p^q(x) = <p+q|D(sqrt x)|p> in 50-digit arithmetic."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return float(
            mpmath.sqrt(mpmath.factorial(p) / mpmath.factorial(p + q))
            * x ** (mpmath.mpf(q) / 2)
            * mpmath.exp(-x / 2)
            * mpmath.laguerre(p, q, x)
        )


@pytest.fixture
def recurrences(monkeypatch):
    """The calls _displacement_matrix makes to the O(p) Laguerre recurrence."""
    from scarkit import fockstate

    calls = []
    original = fockstate._laguerre_recurrence

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fockstate, "_laguerre_recurrence", spy)
    return calls


@pytest.mark.parametrize(
    "p,q,x",
    [
        (320, 0, 2e-3),
        (1200, 10, 0.011),
        (10000, 5, 5e-4),
        (468272, 3, 1e-5),
        (468272, 40, 1e-5),
        (1825, 704, 4e-3),  # underflows: mpmath gives 2.7e-1371
        (30_000_000, 0, 5e-8),  # p x = 1.5, near a zero of L_p: the series still holds
        (122, 0, 1.43),  # p x = 174: the series cancels, the recurrence takes over
    ],
)
def test_laguerre_factor_matches_mpmath(p, q, x, recurrences):
    got = _displacement_matrix(math.sqrt(x), range(p + q, p + q + 1), range(p, p + 1))[0, 0]
    want = _mp_laguerre_factor(p, q, x)
    assert got.imag == 0.0
    if abs(want) > 1e-300:
        assert abs(got.real - want) <= 1e-12 * abs(want)
    else:
        assert abs(got.real) <= 1e-300
    assert bool(recurrences) == (p * x > 100)


@pytest.mark.parametrize(
    "p,q,px",
    [
        (468272, 0, 1.4458),  # at the first zero of J0(2 sqrt(p x)): the value is -2.2e-6
        (468272, 0, 10.0),
        (468272, 3, 10.0),
        (10000, 0, 12.0),
        (10000, 3, 20.0),
    ],
)
def test_laguerre_factor_keeps_absolute_accuracy_at_large_p_x(p, q, px, recurrences):
    # p |beta|^2 is about H_j |w_j|^2 / 2 and does not shrink with hbar, so
    # deep windows meet these values at p ~ 1e4 - 1e6. There the series'
    # terms are large next to its value, but an entry of a unit column needs
    # absolute accuracy: it stays at rounding, and no O(p) recurrence runs
    got = _displacement_matrix(math.sqrt(px / p), range(p + q, p + q + 1), range(p, p + 1))[0, 0]
    assert abs(got.real - _mp_laguerre_factor(p, q, px / p)) <= 1e-14
    assert not recurrences


def test_laguerre_recurrence_past_its_cap_raises(recurrences):
    # p x = 30 at p = 468272: the series cancels, and the recurrence would
    # take seconds of numpy steps; it raises before its first step
    p = 468272
    with pytest.raises(ResourceLimitError, match=r"degree 468272 .* capped at degree 16384"):
        _displacement_matrix(math.sqrt(30.0 / p), range(p, p + 1), range(p, p + 1))
    assert len(recurrences) == 1


@pytest.mark.parametrize("m,n", [(1200, 1190), (1190, 1200), (1500, 1500)])
def test_displacement_matches_mpmath_at_large_index(m, n):
    beta = 0.011 + 0.004j
    got = _displacement_matrix(beta, range(m, m + 1), range(n, n + 1))[0, 0]
    assert got == pytest.approx(_mp_displacement(beta, m, n), rel=1e-10)


@pytest.mark.parametrize(
    "beta,rows,cols",
    [
        (0.3 + 0.2j, range(0, 200), range(40, 60)),
        (0.011 + 0.004j, range(960, 1041), range(990, 1011)),
    ],
)
def test_displacement_columns_are_unit_vectors(beta, rows, cols):
    D = _displacement_matrix(beta, rows, cols)
    np.testing.assert_allclose((np.abs(D) ** 2).sum(axis=0), 1.0, atol=1e-12)


def test_displacement_non_finite_element_raises():
    # p and q both large once overflowed the Laguerre factor; now the
    # element is finite and underflows to 0 like the 50-digit value
    for m, n in ((600, 1200), (1200, 600), (600, 620)):
        got = _displacement_matrix(0.011, range(m, m + 1), range(n, n + 1))[0, 0]
        want = _mp_displacement(0.011, m, n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    with pytest.raises(NumericalError, match=r"displacement kernel: non-finite beta"):
        _displacement_matrix(complex(math.inf, 0.0), range(600, 601), range(1200, 1201))
    with pytest.raises(NumericalError, match=r"displacement kernel: non-finite beta"):
        _displacement_matrix(1e200, range(0, 3), range(0, 3))  # |beta|^2 overflows


@pytest.mark.parametrize(
    "beta,rows,cols",
    [
        (0.3 + 0.2j, range(0, 200), range(40, 60)),
        (0.011 + 0.004j, range(960, 1041), range(990, 1011)),
    ],
)
def test_displacement_rotation_covariance(beta, rows, cols):
    # <m|D(beta e^{i theta})|n> = e^{i (m - n) theta} <m|D(beta)|n>
    base = _displacement_matrix(beta, rows, cols)
    offset = np.arange(rows.start, rows.stop)[:, None] - np.arange(cols.start, cols.stop)[None, :]
    for theta in (0.3, -1.7, 2.5, 3 * math.pi, -4 * math.pi):
        rotated = _displacement_matrix(beta * cmath.exp(1j * theta), rows, cols)
        want = np.exp(1j * offset * theta) * base
        np.testing.assert_allclose(rotated, want, rtol=1e-13, atol=1e-13 * np.abs(base).max())


@pytest.mark.parametrize("chunk", [1 << 18, 40])
def test_batched_windows_keep_each_windows_bits(chunk, monkeypatch):
    # one _displacement_real pass over every window, x given per element:
    # each window has the bits it has alone. Past _KERNEL_CHUNK elements
    # the windows split into several passes, and each pass into chunks
    from scarkit import fockstate

    windows = [
        (0.3 + 0.2j, range(0, 60), range(0, 60)),
        (0.011 + 0.004j, range(960, 1041), range(990, 1011)),
        (0.0, range(3, 7), range(3, 7)),
        (-0.7j, range(0, 30), range(10, 12)),
        (0.05, range(500, 501), range(500, 501)),
        (0.3 + 0.2j, range(0, 60), range(0, 60)),
    ]
    alone = [_displacement_matrix(*w) for w in windows]
    passes = []
    real = fockstate._displacement_real

    def counting(p, q, x):
        passes.append(len(p))
        return real(p, q, x)

    monkeypatch.setattr(fockstate, "_displacement_real", counting)
    monkeypatch.setattr(fockstate, "_KERNEL_CHUNK", chunk)
    batched = list(_displacement_windows(windows))
    assert len(passes) == {1 << 18: 1, 40: 5}[chunk]
    for got, want in zip(batched, alone):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(batched[2], np.eye(4))


def test_batched_windows_refuse_a_non_finite_beta_before_any_element(monkeypatch):
    from scarkit import fockstate

    def forbidden(*args):
        raise AssertionError("displacement elements evaluated")

    monkeypatch.setattr(fockstate, "_displacement_real", forbidden)
    ok = (0.3, range(0, 5), range(0, 5))
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), 1e200):
        with pytest.raises(NumericalError, match="non-finite beta"):
            list(_displacement_windows([ok, ok, (bad, range(0, 3), range(0, 3))]))


@pytest.mark.parametrize("kinds", ["sparse", "sparse-pair"])
def test_character_expectation_makes_one_kernel_pass(kinds, monkeypatch):
    # every (character, mode) window of one call goes through one
    # _displacement_real pass, for a bra that is the ket and for two states
    # with different windows
    from scarkit import fockstate

    sparse = sparse_coherent(PhasePoint(x=(0.8, 0.3), xi=(0.0, 0.1)), 0.1)
    other = sparse_coherent(PhasePoint(x=(0.5, 0.6), xi=(0.2, 0.0)), 0.1)
    bra, ket = {"sparse": (sparse, sparse), "sparse-pair": (other, sparse)}[kinds]
    sym = character(2, (0.3, -0.2, 0.5, 0.1), 0.7) + character(2, (-0.4, 0.1, 0.2, 0.6), -0.2j)
    want = expectation(bra, ket, sym)
    windows, passes = [], []
    batched, real = fockstate._displacement_windows, fockstate._displacement_real

    def counting_windows(ws):
        windows.extend(ws)
        return batched(ws)

    def counting_real(p, q, x):
        passes.append(len(p))
        return real(p, q, x)

    monkeypatch.setattr(fockstate, "_displacement_windows", counting_windows)
    monkeypatch.setattr(fockstate, "_displacement_real", counting_real)
    assert expectation(bra, ket, sym) == want
    assert len(windows) == len(sym.chars) * 2
    assert len(passes) == 1


def _random_sparse(rng, hbar, lo, hi, size):
    keys = {tuple(int(v) for v in rng.integers(lo, hi, size=2)) for _ in range(size)}
    coeffs = {k: complex(*rng.normal(size=2)) for k in keys}
    return FockState(hbar=hbar, dims=2, cutoff=(hi, hi), tail_bound=0.0, coeffs=coeffs)


@pytest.mark.parametrize("angles", [None, 1, 31])
def test_grouped_characters_match_lone_calls_bit_for_bit(angles):
    # one grouped call gives one row per group, each with the bits of a lone
    # call on that group; the groups follow the probes, so two probes that
    # share a character keep separate rows
    rng = np.random.default_rng(12)
    hbar = 0.05
    w1, w2, w3 = (tuple(rng.normal(size=4)) for _ in range(3))
    probes = [
        character(2, w1, 0.6) + character(2, w2, -1.3j),
        character(2, w2, 0.4 + 0.1j),
        character(2, w3, 1.0),
    ]
    union = probes[0] + probes[1] + probes[2]
    assert len(union.chars) == 3  # w2 merged in the union, not in the rows
    thetas = None if angles is None else rng.uniform(-3.0, 3.0, size=(angles, 2))
    bra = _random_sparse(rng, hbar, 10, 40, 25)
    ket = _random_sparse(rng, hbar, 15, 45, 25)
    for x, y in ((bra, ket), (ket, ket)):
        rows = expectation(x, y, union, thetas, _groups=[a.chars for a in probes])
        assert rows.shape == ((3,) if angles is None else (3, angles))
        for row, a in zip(rows, probes):
            want = expectation(x, y, a, thetas)
            assert np.array(row).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("angles", [None, 1, 31])
def test_grouped_polynomials_match_lone_calls_bit_for_bit(angles, monkeypatch):
    # one grouped call gives one row per polynomial group, each with the bits
    # of a lone call on that group, from one moment call for the union of the
    # groups: a monomial two probes share is applied once
    from scarkit import fockstate

    rng = np.random.default_rng(13)
    hbar = 0.05
    probes = [
        position(2, 0, 2) + monomial(2, (1, 0, 0, 1), 0.3 - 0.2j),
        monomial(2, (2, 0, 0, 0), -0.7) + monomial(2, (0, 0, 2, 1), 1.1j),
        mode_energy(2, 1),
    ]
    thetas = None if angles is None else rng.uniform(-3.0, 3.0, size=(angles, 2))
    groups = [a.poly for a in probes]  # plain maps, flowed or not
    assert set(groups[0]) & set(groups[1])  # the probes share x1^2
    union = Symbol(2, dict.fromkeys((m for g in groups for m in g), 1.0))
    bra = _random_sparse(rng, hbar, 10, 40, 25)
    ket = _random_sparse(rng, hbar, 15, 45, 25)
    calls = []
    original = fockstate._moments

    def counting(bra, ket_coeffs, monos, hbar, thetas):
        calls.append((list(monos), len(thetas)))
        return original(bra, ket_coeffs, monos, hbar, thetas)

    for x, y in ((bra, ket), (ket, ket)):
        monkeypatch.setattr(fockstate, "_moments", counting)
        rows = expectation(x, y, union, thetas, _groups=groups)
        monkeypatch.setattr(fockstate, "_moments", original)
        assert rows.shape == ((3,) if angles is None else (3, angles))
        for row, a in zip(rows, probes):
            want = expectation(x, y, a, thetas)
            assert np.array(row).tobytes() == np.array(want).tobytes()
    assert calls == [(list(union.poly), angles or 1)] * 2  # one call per state pair
    monos = calls[0][0]  # the union, each monomial once, for every angle
    assert len(monos) < sum(len(g) for g in groups)


def test_sparse_keys_must_be_nonnegative_integer_tuples():
    # a negative index used to enter the kernels silently, and a key of the
    # wrong length failed in numpy with a bare "cannot reshape"
    for key in ((-1, 0), (1,), (1, 0, 2), (1.0, 0), 1):
        with pytest.raises(ValidationError, match="sparse indices must be tuples of 2 nonnegative"):
            FockState(0.1, 2, (3, 3), 0.0, coeffs={key: 1.0 + 0j, (1, 0): 1.0 + 0j})
    ok = FockState(0.1, 2, (3, 3), 0.0, coeffs={(np.int64(1), 0): 1.0 + 0j, (0, 3): 0.5j})
    assert ok.coefficient((1, 0)) == 1.0


@pytest.mark.parametrize("angles", [None, 4])
def test_expectation_on_an_empty_sparse_state_is_zero(angles):
    empty = FockState(0.1, 2, (3, 3), 0.0, coeffs={})
    assert empty.norm() == 0.0
    full = FockState(0.1, 2, (3, 3), 0.0, coeffs={(1, 2): 1.0 + 0j, (0, 3): 0.5j})
    thetas = None if angles is None else np.linspace(0.0, 1.0, 2 * angles).reshape(angles, 2)
    pairs = [(empty, empty), (empty, full), (full, empty)]
    for sym in (position(2, 0, 2) + mode_energy(2, 1), character(2, (0.3, -0.2, 0.5, 0.1), 0.7)):
        for bra, ket in pairs:
            got = expectation(bra, ket, sym, thetas)
            if angles is None:
                assert got == 0j
            else:
                assert got.shape == (angles,) and not got.any()


def test_sparse_character_matches_dense_reference():
    rng = np.random.default_rng(5)
    hbar = 0.05
    for _ in range(5):
        bra = _random_sparse(rng, hbar, 10, 70, 40)
        ket = _random_sparse(rng, hbar, 25, 90, 40)
        sym = character(2, rng.normal(size=4), 0.6) + character(2, rng.normal(size=4), -1.3j)
        mm = np.array(list(bra.coeffs))
        kk = np.array(list(ket.coeffs))
        bvals = np.array(list(bra.coeffs.values()))
        kvals = np.array(list(ket.coeffs.values()))
        # the kernel's own dense blocks give the bits; the Laguerre formula
        # gives the value. The block is sum over chars of coeff * prod_j D_j,
        # read by one vector-matrix and one vector-vector product
        wants = []
        for dense in (
            lambda beta, r, c: _displacement_matrix(beta, range(r), range(c)),
            _dense_displacement,
        ):
            block = np.zeros((len(mm), len(kk)), dtype=complex)
            for coeff, w in sym.chars:
                part = np.full(block.shape, complex(coeff))
                for j, beta in enumerate(_char_betas(w, hbar, 2)):
                    D = dense(beta, mm[:, j].max() + 1, kk[:, j].max() + 1)
                    part *= D[np.ix_(mm[:, j], kk[:, j])]
                block += part
            wants.append(complex(np.conjugate(bvals) @ block @ kvals))
        got = expectation(bra, ket, sym)
        assert got == wants[0]
        assert abs(got - wants[1]) <= 1e-12 * np.abs(bvals).sum() * np.abs(kvals).sum()


def test_character_blocks_over_budget_raise():
    # one mode with cutoff 10711: the sparse copy of the coherent state holds
    # the 5640 indices whose amplitude does not underflow, so its support
    # block with itself is over 2^24 elements; against a sparse state
    # spanning 5001 indices the mode window is, and so is the window of
    # that state with itself
    hbar = 5e-5
    psi = sparse_coherent(PhasePoint(x=(1.0,), xi=(0.0,)), hbar)
    assert psi.cutoff == (10711,) and len(psi.coeffs) == 5640
    wide = FockState(hbar, 1, (5000,), 0.0, coeffs={(0,): 0.6 + 0j, (5000,): 0.8 + 0j})
    ch = character(1, (0.3, 0.1))
    for bra, ket in ((psi, psi), (psi, wide), (wide, psi), (wide, wide)):
        with pytest.raises(ResourceLimitError, match="block"):
            expectation(bra, ket, ch)


def test_stacked_displacement_non_finite_element_raises():
    # a stack of angles shares one window at the unrotated beta = -0.011,
    # square over [600, 1200]; its corner <600|D|1200> once overflowed and
    # is now finite, so every angle matches the 50-digit elements
    state = FockState(0.02, 1, (1210,), 0.0, coeffs={(600,): 0.6 + 0j, (1200,): 0.8 + 0j})
    thetas = [[0.0], [0.4], [-2.0]]
    got = expectation(state, state, character(1, (0.11, 0.0)), thetas)
    for (theta,), value in zip(thetas, got):
        beta = -0.011 * cmath.exp(1j * theta)
        want = sum(
            np.conjugate(state.coeffs[(m,)]) * state.coeffs[(n,)] * _mp_displacement(beta, m, n)
            for m in (600, 1200)
            for n in (600, 1200)
        )
        assert value == pytest.approx(want, rel=1e-12)
    # a displacement |beta|^2 that overflows still raises for the whole stack
    with pytest.raises(NumericalError, match=r"displacement kernel: non-finite beta"):
        expectation(state, state, character(1, (1e200, 0.0)), thetas)


def _flow_grid(dims, count=15):
    rng = random.Random(8)
    return [[rng.uniform(-9.0, 9.0) for _ in range(dims)] for _ in range(count)]


def test_flowed_expectations_match_rotated_probes():
    rng = np.random.default_rng(23)
    state = _random_sparse(rng, 0.05, 3, 30, 25)
    thetas = _flow_grid(2)
    sym = (
        monomial(2, [2, 0, 1, 0], 0.4)
        + mode_energy(2, 1)
        + character(2, (0.3, -0.2, 0.5, 0.1), 0.7)
        + character(2, (-0.4, 0.1, 0.2, 0.6), -0.2j)
    )
    # the second grid leaves mode 2 alone
    for grid in (thetas, [[t[0], 0.0] for t in thetas]):
        got = expectation(state, state, sym, grid)
        for theta, value in zip(grid, got):
            want = expectation(state, state, sym.rotate(theta))
            assert value == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_flowed_characters_match_direct_rotation_at_large_index():
    # a random sparse state near k = 1000 is no joint eigenstate, so every
    # flowed value depends on the phases e^{i (k - lo) theta} being right
    rng = np.random.default_rng(31)
    state = _random_sparse(rng, 0.01, 985, 1015, 30)
    sym = character(2, (0.3, -0.2, 0.5, 0.1), 0.7) + character(2, (-0.4, 0.1, 0.2, 0.6), -0.2j)
    grid = [[0.0, 0.0]] + _flow_grid(2, 12) + [[4 * math.pi, -4 * math.pi]]
    got = expectation(state, state, sym, grid)
    for theta, value in zip(grid, got):
        want = expectation(state, state, sym.rotate(theta))
        assert abs(value - want) <= 1e-12 * abs(want)


def test_flowed_expectation_between_states_with_different_windows():
    # the bra's and the ket's phases are measured from their own window
    # starts, so the stack carries e^{i (lo_bra - lo_ket).theta} per angle
    rng = np.random.default_rng(37)
    bra = _random_sparse(rng, 0.01, 985, 1015, 30)
    ket = _random_sparse(rng, 0.01, 960, 1000, 30)
    assert min(k[0] for k in bra.coeffs) != min(k[0] for k in ket.coeffs)
    sym = (
        monomial(2, [1, 0, 0, 1], 0.4)
        + character(2, (0.3, -0.2, 0.5, 0.1), 0.7)
        + character(2, (-0.4, 0.1, 0.2, 0.6), -0.2j)
    )
    grid = [[0.0, 0.0]] + _flow_grid(2, 12) + [[4 * math.pi, -4 * math.pi]]
    got = expectation(bra, ket, sym, grid)
    assert got.shape == (len(grid),)
    for theta, value in zip(grid, got):
        want = expectation(bra, ket, sym.rotate(theta))
        assert abs(value - want) <= 1e-12 * abs(want)
    # angle 0 of the stack is the unrotated evaluation, bit for bit
    assert got[0] == expectation(bra, ket, sym)


def test_flowed_expectation_refuses_product_states_and_bad_grids():
    psi = coherent(PhasePoint(x=(0.8, 0.3), xi=(0.0, 0.1)), 0.1)
    sparse = as_sparse(psi)
    ch = character(2, (0.3, -0.2, 0.5, 0.1))
    for bra, ket in ((psi, psi), (psi, sparse), (sparse, psi)):
        with pytest.raises(ValidationError, match="sparse states"):
            expectation(bra, ket, ch, [[0.0, 0.0]])
    for grid in ([0.0, 0.0], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValidationError, match="one angle per mode"):
            expectation(sparse, sparse, ch, grid)


def test_flowed_character_over_budget_raises_before_allocating(monkeypatch):
    from scarkit import fockstate

    rng = np.random.default_rng(29)
    state = _random_sparse(rng, 0.05, 3, 30, 25)
    ch = character(2, (0.3, -0.2, 0.5, 0.1))

    def forbidden(*args, **kwargs):
        raise AssertionError("displacement elements evaluated past the cap")

    monkeypatch.setattr(fockstate, "_displacement_windows", forbidden)
    n = len(state.coeffs)
    monkeypatch.setattr(fockstate, "_BLOCK_CAP", n * n - 1)
    with pytest.raises(ResourceLimitError, match=f"character expectation needs a {n} x {n} block"):
        expectation(state, state, ch, _flow_grid(2))
    # a 2 x 2 block fits, a 27-wide window does not
    monkeypatch.setattr(fockstate, "_BLOCK_CAP", 26 * 26)
    wide = FockState(0.05, 2, (40, 40), 0.0, coeffs={(0, 0): 0.6 + 0j, (26, 1): 0.8 + 0j})
    with pytest.raises(ResourceLimitError, match="27 x 27 block"):
        expectation(wide, wide, ch, _flow_grid(2))


def test_expectation_refuses_product_states(dec12):
    # expectation takes sparse states only: a product bra, ket or both is
    # refused by lone, flowed and grouped calls, against an empty state too
    psi = coherent(torus_point(dec12, (0.5, 0.5)), 0.2)
    empty = FockState(0.2, 2, psi.cutoff, 0.0, coeffs={})
    sym = monomial(2, [2, 1, 0, 1], 0.7) + character(2, (0.3, -0.2, 0.5, 0.1))
    grid = np.zeros((3, 2))
    calls = [
        lambda bra, ket: expectation(bra, ket, sym),
        lambda bra, ket: expectation(bra, ket, sym, grid),
        lambda bra, ket: expectation(bra, ket, sym, _groups=[sym.poly]),
        lambda bra, ket: expectation(bra, ket, sym, grid, _groups=[sym.chars]),
    ]
    for other in (psi, as_sparse(psi), empty):
        for (bra, ket), call in itertools.product([(psi, other), (other, psi)], calls):
            with pytest.raises(ValidationError, match="expectation needs sparse states; project first"):
                call(bra, ket)


def test_real_symbol_has_real_expectation(dec12):
    rng = random.Random(3)
    z0 = torus_point(dec12, (0.5, 0.5))
    psi = sparse_coherent(z0, 0.18)
    sym = (
        monomial(2, [3, 0, 1, 0], 0.4)
        + monomial(2, [0, 1, 0, 1], -1.2)
        + mode_energy(2, 0)
    )
    val = expectation(psi, psi, sym)
    assert abs(val.imag) < 1e-10
    # and hermiticity across two random states
    za = PhasePoint(
        x=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        xi=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )
    a, b = sparse_coherent(za, 0.18), psi
    assert expectation(a, b, sym) == pytest.approx(
        expectation(b, a, sym).conjugate(), abs=1e-10
    )


def test_evolve_rotates_position_expectation(dec1, dec12):
    hbar = 0.09
    z0 = PhasePoint(x=(1.0,), xi=(0.5,))
    psi = as_sparse(coherent(z0, hbar))
    for t in (0.0, 0.3, 1.7):
        moved = evolve(psi, dec1, t)
        want = 1.0 * math.cos(t) + 0.5 * math.sin(t)
        got = expectation(moved, moved, position(1, 0))
        assert got.real == pytest.approx(want, abs=1e-8)
    z2 = PhasePoint(x=(0.2, 0.8), xi=(0.6, -0.3))
    psi2 = as_sparse(coherent(z2, hbar))
    s2 = math.sqrt(2.0)
    moved = evolve(psi2, dec12, 0.4)
    want = 0.8 * math.cos(s2 * 0.4) + (-0.3) * math.sin(s2 * 0.4)
    assert expectation(moved, moved, position(2, 1)).real == pytest.approx(
        want, abs=1e-8
    )


def test_evolve_refuses_a_state_of_another_mode_count(dec12):
    # zip over omega used to drop mode 3 from every phase without a word
    state = FockState(0.1, 3, (2, 2, 2), 0.0, {(1, 0, 2): 1.0 + 0j, (0, 2, 1): 0.5j})
    with pytest.raises(ValidationError, match=r"state has 3 mode\(s\), the decomposition 2"):
        evolve(state, dec12, 0.3)
    with pytest.raises(ValidationError, match=r"state has 3 mode\(s\), the decomposition 2"):
        evolve(coherent(PhasePoint(x=(0.3, 0.2, 0.1), xi=(0.0,) * 3), 0.1), dec12, 0.3)


def test_evolve_egorov_exact(dec12):
    hbar = 0.14
    z0 = PhasePoint(x=(0.3, 0.5), xi=(-0.4, 0.2))
    start = as_sparse(coherent(z0, hbar))
    omega = dec12.spec.numeric
    t = 0.37
    moved = evolve(start, dec12, t)
    assert moved.norm() == pytest.approx(start.norm(), abs=1e-13)
    thetas = [w * t for w in omega]
    for sym in (
        position(2, 0),
        monomial(2, [2, 0, 1, 1], 0.8),
        character(2, (0.4, -0.1, 0.2, 0.3)),
    ):
        lhs = expectation(moved, moved, sym)
        rhs = expectation(start, start, sym.rotate(thetas))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_evolve_fixes_scar_expectations(dec12):
    hbar = 0.15
    E = (0.5, 0.5)
    scar = normalize_scar(dec12, torus_point(dec12, E), E, hbar)
    sym = monomial(2, [2, 0, 0, 0]) + character(2, (0.2, 0.1, -0.3, 0.4))
    base = expectation(scar.state, scar.state, sym)
    for t in (0.5, 2.0):
        moved = evolve(scar.state, dec12, t)
        assert expectation(moved, moved, sym) == pytest.approx(base, abs=1e-10)


def test_dump_load_roundtrip(dec12):
    hbar = 0.2
    E = (0.5, 0.5)
    scar = normalize_scar(dec12, torus_point(dec12, E), E, hbar)
    buf = io.StringIO()
    dump_state(buf, scar.state, "cfg123")
    buf.seek(0)
    back = load_state(buf)
    assert back.hbar == hbar
    assert back.dims == 2
    for k, c in scar.state.coeffs.items():
        assert back.coefficient(k) == pytest.approx(c, abs=1e-15)
    assert back.norm() == pytest.approx(scar.state.norm(), abs=1e-12)


def test_state_validation():
    with pytest.raises(ValidationError):
        FockState(hbar=0.1, dims=1, cutoff=(0,), tail_bound=0.0)
    with pytest.raises(ValidationError):
        FockState(
            hbar=-0.1, dims=1, cutoff=(0,), tail_bound=0.0, coeffs={(0,): 1.0}
        )
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="positive and finite"):
            FockState(hbar=bad, dims=1, cutoff=(0,), tail_bound=0.0, coeffs={(0,): 1.0})
        with pytest.raises(ValidationError, match="positive and finite"):
            coherent(PhasePoint(x=(0.3,), xi=(0.1,)), bad)
    a = coherent(PhasePoint.zero(1), 0.1)
    b = coherent(PhasePoint.zero(1), 0.2)
    with pytest.raises(ValidationError):
        inner(a, b)
    with pytest.raises(ValidationError):
        expectation(a, a, position(2, 0))


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("0,1.0,0.0", "0,nan,0.0"),  # non-finite coefficient
        lambda t: t.replace("# hbar=0.1", "# hbar=nan"),
        lambda t: t.replace("# hbar=0.1", "# hbar=inf"),
        lambda t: t.replace("2,0.5,0.0", "-2,0.5,0.0"),  # negative index
        lambda t: t.replace("2,0.5,0.0", "2,0.5"),  # too few fields
    ],
    ids=["nan-coefficient", "nan-hbar", "inf-hbar", "negative-index", "short-row"],
)
def test_load_state_rejects_malformed_input(edit):
    text = "# hbar=0.1\n# dims=1\nk1,re,im\n0,1.0,0.0\n2,0.5,0.0\n"
    assert load_state(io.StringIO(text)).norm() == pytest.approx(math.sqrt(1.25))
    with pytest.raises(ValidationError):
        load_state(io.StringIO(edit(text)))


def test_load_state_refuses_a_repeated_index():
    # the later line used to replace the earlier one without a word
    text = "# hbar=0.1\n# dims=2\nk1,k2,re,im\n1,2,1.0,0.0\n0,3,0.5,0.0\n1,2,0.3,0.0\n"
    with pytest.raises(ValidationError, match=r"line 6: index \(1, 2\) repeats line 4"):
        load_state(io.StringIO(text))
