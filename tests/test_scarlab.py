import io
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from scarkit import scarlab
from scarkit.errors import (
    DomainError,
    NumericalError,
    OverlappingToriError,
    ValidationError,
)
from scarkit.fockstate import inner
from scarkit.freqarith import FrequencySpec, GeneratorBasis, decompose, sqrt_decimal
from scarkit.phasespace import PhasePoint, multi_flow, sigma_membership
from scarkit.scarlab import (
    ConvergenceReport,
    SweepConfig,
    build_scar,
    convex_scar,
    default_probes,
    fit_loglog,
    residuals,
    sweep,
)
from scarkit.symbols import monomial, parse_symbol, position

from conftest import as_sparse

F = Fraction


def make_dec(coords, gens):
    table = {"one": Decimal(1), "sqrt2": sqrt_decimal(2), "sqrt3": sqrt_decimal(3)}
    basis = GeneratorBasis(tuple(gens), tuple(table[g] for g in gens))
    return decompose(FrequencySpec.build(basis, coords))


@pytest.fixture(scope="module")
def dec12():
    return make_dec([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))


@pytest.fixture(scope="module")
def dec11():
    return make_dec([[F(1)], [F(1)]], ("one",))


@pytest.fixture(scope="module")
def dec23():
    return make_dec([[F(2)], [F(3)]], ("one",))


def torus_point(decomp, E):
    return sigma_membership(decomp, E).torus_point()


def test_default_probes_shape_and_determinism(dec12):
    probes = default_probes(dec12, seed=7)
    assert len(probes) == 2 + dec12.dims + 2
    labels = [p.label for p in probes]
    assert labels[:2] == ["x1", "x1^2"]
    assert "H1" in labels and "H2" in labels
    assert labels[-2:] == ["char1", "char2"]
    again = default_probes(dec12, seed=7)
    assert [p.chars for p in probes] == [p.chars for p in again]
    other = default_probes(dec12, seed=8)
    assert [p.chars for p in probes[-2:]] != [p.chars for p in other[-2:]]


def test_build_scar_checks_level_set(dec12):
    E = (0.5, 0.5)
    wrong = torus_point(dec12, (1.0, 0.0))
    with pytest.raises(ValidationError):
        build_scar(dec12, wrong, E, 0.1)
    scar = build_scar(dec12, torus_point(dec12, E), E, 0.1)
    assert scar.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_build_scar_gap_follows_ladder_oracle(dec12):
    # single-point support: <Op(x1^2)> = hbar (N_1 + 1/2), so the gap to the
    # orbit average h_1 = 1/2 is the ladder offset exactly
    from scarkit.fockstate import expectation

    E = (0.5, 0.5)
    z0 = torus_point(dec12, E)
    gaps = []
    for hbar in (0.1, 0.05, 0.025):
        scar = build_scar(dec12, z0, E, hbar)
        val = expectation(scar.state, scar.state, position(2, 0, 2))
        want = hbar * (scar.target.N[0] + 0.5)
        assert val.real == pytest.approx(want, rel=1e-12)
        gaps.append(abs(val.real - 0.5))
    assert gaps[2] < gaps[1] < gaps[0]


def test_residuals_on_exact_eigenstate(dec12):
    E = (0.5, 0.5)
    hbar = 0.1
    scar = build_scar(dec12, torus_point(dec12, E), E, hbar)
    conc, inv = residuals(dec12, scar.state, E)
    for n, comp in enumerate(dec12.components):
        want = (scar.target.lam[n] - E[n]) ** 2
        assert conc[n] == pytest.approx(want, rel=1e-10)
        assert conc[n] <= (2 * math.pi * hbar / comp.period) ** 2
        assert inv[n] <= 1e-10


def test_residuals_detect_noninvariant_state(dec12):
    from scarkit.fockstate import coherent, dump_state

    z0 = PhasePoint(x=(0.8, 0.4), xi=(0.0, 0.0))
    psi = coherent(z0, 0.1)
    E = tuple(float(v) for v in (0.5, 0.5))
    sparse = as_sparse(psi)
    _, inv = residuals(dec12, sparse, E, probes=(position(2, 0),))
    assert inv[0] > 0.1  # <x1> genuinely rotates along the flow
    # residuals and dump_state take sparse states only
    with pytest.raises(ValidationError, match="sparse"):
        residuals(dec12, psi, E, probes=(position(2, 0),))
    with pytest.raises(ValidationError, match="sparse"):
        dump_state(io.StringIO(), psi)


def test_residuals_rejects_a_probe_of_another_mode_count(dec12):
    # it used to fail inside the rotation table with "need one angle per mode"
    scar = build_scar(dec12, torus_point(dec12, (0.5, 0.5)), (0.5, 0.5), 0.1)
    for probe in (position(1, 0), position(3, 2)):
        with pytest.raises(ValidationError, match="symbol mode count does not match"):
            residuals(dec12, scar.state, (0.5, 0.5), probes=(position(2, 0), probe))


def test_scarlab_imports_only_public_fockstate_names():
    # scarlab evaluates probes through expectation alone; fockstate's private
    # kernels stay behind it, where the benchmark's spans time them
    import ast
    from pathlib import Path

    tree = ast.parse(Path(scarlab.__file__).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fockstate")
        for alias in node.names
    ]
    names += [  # and no fockstate._name reached through the module
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fockstate"
    ]
    assert "expectation" in names
    assert [n for n in names if n.startswith("_")] == []


def test_convex_scar_single_point_is_build_scar(dec11):
    E = (1.0,)
    hbar = 0.1
    z0 = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    combined = convex_scar(dec11, [(z0, 1.0)], E, hbar)
    part = build_scar(dec11, z0, E, hbar)
    assert combined.coeffs.keys() == part.state.coeffs.keys()
    for k, c in part.state.coeffs.items():
        assert combined.coeffs[k] == pytest.approx(c, abs=1e-14)


def test_convex_scar_two_tori_norm_and_cross_decay(dec11):
    E = (1.0,)
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    crosses = []
    norms = []
    for hbar in (0.2, 0.05):
        combined = convex_scar(dec11, [(za, 0.5), (zb, 0.5)], E, hbar)
        pa = build_scar(dec11, za, E, hbar)
        pb = build_scar(dec11, zb, E, hbar)
        # parts share one eigenvalue ladder line, so supports overlap
        assert pa.target.ratios_q == pb.target.ratios_q
        crosses.append(abs(inner(pa.state, pb.state)))
        norms.append(combined.norm())
    assert crosses[0] > 1e-6
    assert crosses[1] <= 0.25 * crosses[0]
    assert abs(norms[1] - 1.0) < abs(norms[0] - 1.0)


def test_convex_scar_rejects_same_torus(dec11):
    E = (1.0,)
    z0 = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    moved = multi_flow(dec11, z0, (0.7,))
    with pytest.raises(OverlappingToriError):
        convex_scar(dec11, [(z0, 0.5), (moved, 0.5)], E, 0.1)


def test_convex_scar_weight_validation(dec11):
    E = (1.0,)
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    with pytest.raises(ValidationError):
        convex_scar(dec11, [(za, 0.4), (zb, 0.4)], E, 0.1)
    with pytest.raises(ValidationError):
        convex_scar(dec11, [(za, 1.2), (zb, -0.2)], E, 0.1)
    with pytest.raises(ValidationError):
        convex_scar(dec11, [], E, 0.1)


def test_polynomial_residuals_at_deep_hbar(dec12):
    # the scar sits at the single index (2560, 1810); the banded Weyl kernel
    # touches only the few indices around it, so this takes milliseconds
    E = (0.5, 0.5)
    scar = build_scar(dec12, torus_point(dec12, E), E, 0.2 * 2**-10)
    probes = tuple(p for p in default_probes(dec12) if not p.chars)
    conc, inv = residuals(dec12, scar.state, E, probes=probes)
    assert all(math.isfinite(v) for v in conc + inv)
    assert max(inv) <= 1e-10


def test_default_probe_residuals_at_hbar_2_pow_minus_14(dec12):
    # per-mode cutoffs above the old 20000 cap; the support-1 scar keeps every
    # character block small
    E = (0.5, 0.5)
    scar = build_scar(dec12, torus_point(dec12, E), E, 0.2 * 2**-14)
    assert scar.state.cutoff == (42411, 30185)
    assert len(scar.state.coeffs) == 1
    conc, inv = residuals(dec12, scar.state, E)
    assert all(math.isfinite(v) for v in conc + inv)
    assert max(inv) <= 1e-10


def test_d3_scar_at_hbar_2_pow_minus_10():
    # a cutoff box of 3.1e9 points; k1 + 2 k2 = N_1, k3 = N_2 leaves k2 free,
    # so the projection visits 976 lattice points
    d3 = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    E = (0.6, 0.4)
    scar = build_scar(d3, torus_point(d3, E), E, 0.2 * 2**-10)
    c1, c2, c3 = scar.state.cutoff
    N1, N2 = scar.target.N
    assert scar.target.signs == (1, 1) and N2 <= c3
    want = [(N1 - 2 * k2, k2, N2) for k2 in range(c2 + 1) if 0 <= N1 - 2 * k2 <= c1]
    assert list(scar.state.coeffs) == sorted(want)
    assert len(want) == 353
    for k in scar.state.coeffs:
        for n, comp in enumerate(d3.components):
            dot = sum(iv * kj for iv, kj in zip(comp.int_weights, k))
            assert dot == scar.target.signs[n] * scar.target.N[n]


def test_sweep_config_validation(dec12):
    with pytest.raises(ValidationError):
        SweepConfig(dec12, (0.5, 0.5), hbars=(0.1, 0.2))
    with pytest.raises(ValidationError):
        SweepConfig(dec12, (0.5, 0.5), hbars=(0.1,))
    for hbars in ((math.inf, 0.1), (0.2, math.nan), (0.2, 0.1, -math.inf)):
        with pytest.raises(ValidationError, match="positive and finite"):
            SweepConfig(dec12, (0.5, 0.5), hbars=hbars)


def test_sweep_single_torus_report(dec12):
    cfg = SweepConfig(
        dec12,
        (0.5, 0.5),
        hbars=tuple(0.2 * 2**-m for m in range(5)),
    )
    report = sweep(cfg)
    assert report.errors == ()
    assert report.hbars == cfg.hbars
    names = {name for _, name, _, _, _ in report.rows}
    assert "c_hbar" in names
    assert "gap:x1^2" in names
    assert "concentration:1" in names and "invariance:2" in names
    assert all(r >= 0.0 for _, _, _, _, r in report.rows)
    hs, rs = report.residual_series("c_hbar")
    assert hs == cfg.hbars
    assert rs[-1] < rs[0]
    assert 0.3 < report.slope("c_hbar") < 3.0
    assert 0.3 < report.slope("gap:x1^2") < 1.5
    # concentration of an exact eigenstate decays like hbar^2
    assert report.slope("concentration:1") > 1.5
    # invariance sits at the floor; the fit must still be finite
    assert math.isfinite(report.slope("invariance:1"))


def test_sweep_is_deterministic_and_thread_safe(dec12):
    cfg = SweepConfig(dec12, (0.5, 0.5), hbars=(0.2, 0.1, 0.05), seed=3)
    a = sweep(cfg)
    b = sweep(cfg)
    assert a.rows == b.rows
    assert a.fitted_slopes == b.fitted_slopes


def test_sweep_records_failures_and_continues(dec23):
    # hbar = 0.5 puts the ladder below the conductor for omega = (2, 3)
    cfg = SweepConfig(dec23, (1.0,), hbars=(0.5, 0.2, 0.1))
    report = sweep(cfg)
    assert len(report.errors) == 1
    assert report.errors[0][0] == 0.5
    assert "BelowConductorError" in report.errors[0][1]
    hs, _ = report.residual_series("c_hbar")
    assert hs == (0.2, 0.1)


def test_sweep_records_only_scarkit_errors(dec12, monkeypatch):
    cfg = SweepConfig(dec12, (0.5, 0.5), hbars=(0.2, 0.1))

    def domain_failure(*args, **kwargs):
        raise DomainError("injected")

    monkeypatch.setattr(scarlab, "build_scar", domain_failure)
    report = sweep(cfg)
    assert report.errors == ((0.2, "DomainError: injected"), (0.1, "DomainError: injected"))

    def programming_error(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(scarlab, "build_scar", programming_error)
    with pytest.raises(TypeError, match="injected"):
        sweep(cfg)


def _nan_flow(monkeypatch, finite_base=False):
    """Make every flowed value residuals computes NaN (angle 0 too, unless
    finite_base): the grouped polynomial and character calls to expectation.
    Returns the (kind, angle count) of each group of each call."""
    calls = []

    def stack(kind, count):
        calls.append((kind, count))
        out = np.full(count, complex(math.nan, 0.0))
        if finite_base:
            out[0] = 1.0
        return out

    monkeypatch.setattr(
        scarlab, "expectation",
        lambda bra, ket, a, thetas, _groups: np.array(
            [stack("char" if a.chars else "poly", len(thetas)) for _ in _groups]
        ),
    )
    return calls


def test_sweep_rejects_non_finite_rows(dec12, monkeypatch):
    cfg = SweepConfig(dec12, (0.5, 0.5), hbars=(0.2, 0.1))
    # every gap row is the unrotated value of the flowed probe
    _nan_flow(monkeypatch)
    report = sweep(cfg)
    assert report.rows == ()
    assert [h for h, _ in report.errors] == [0.2, 0.1]
    for h, msg in report.errors:
        assert msg == (
            f"NumericalError: non-finite value (nan+0j) in row gap:x1 at hbar={h:.6g} "
            "(polynomial expectation kernel)"
        )


def test_invariance_keeps_a_non_finite_defect(dec12, monkeypatch):
    # base values are finite, every flowed probe is NaN: the defect is NaN, not 0
    state = build_scar(dec12, torus_point(dec12, (0.5, 0.5)), (0.5, 0.5), 0.1).state
    probes = default_probes(dec12)
    calls = _nan_flow(monkeypatch, finite_base=True)
    _, inv = residuals(dec12, state, (0.5, 0.5), probes=probes)
    assert all(math.isnan(v) for v in inv)
    # one row per probe part: angle 0 for the base value, then every
    # component's angles; the polynomial probes' rows come from one grouped
    # pass, made before the one grouped pass of the character probes
    angles = 1 + dec12.d_omega * (scarlab.T_POINTS - 1)
    chars = [("char", angles) for a in probes if a.chars]
    assert calls == [("poly", angles) for a in probes if a.poly] + chars
    assert {kind for kind, _ in calls} == {"poly", "char"}
    with pytest.raises(NumericalError, match=r"row invariance:1 at hbar=0.1 \(flowed probe"):
        scarlab._require_finite(scarlab._residual_rows(dec12, state, (0.5, 0.5), probes, 0.1), probes)


@pytest.mark.parametrize(
    "name, kernel",
    [
        ("concentration:1", "component eigenvalues"),
        ("invariance:1", "flowed probe expectations"),
        ("gap:1", "polynomial expectation"),
        ("cross:1-2:1", "polynomial expectation"),
        ("gap:char(0.3 0.1 -0.2 0.5)", "character expectation"),
    ],
)
def test_require_finite_blames_the_kernel_of_the_row(name, kernel):
    # a probe labelled 1 once matched the suffix of concentration:1 and was blamed
    probes = tuple(parse_symbol(t, 2) for t in ("1", "char(0.3 0.1 -0.2 0.5)"))
    rows = [(0.1, name, complex(math.nan), 0j, math.nan)]
    blame = rf"in row {re.escape(name)} at hbar=0.1 \({kernel} kernel\)"
    with pytest.raises(NumericalError, match=blame):
        scarlab._require_finite(rows, probes)


def test_sweep_config_refuses_repeated_probe_labels(dec12):
    # two unlabeled probes wrote two gap:None rows per hbar and fitted one slope through both
    probes = (monomial(2, (2, 0, 0, 0)), monomial(2, (0, 2, 0, 0)))
    with pytest.raises(ValidationError, match="probe label None repeats"):
        SweepConfig(dec12, (0.5, 0.5), (0.2, 0.1, 0.05, 0.025), probes=probes)
    x1 = position(2, 0)
    with pytest.raises(ValidationError, match="probe label x1 repeats"):
        SweepConfig(dec12, (0.5, 0.5), (0.2, 0.1), probes=(x1, probes[0].with_label("a"), x1))
    SweepConfig(dec12, (0.5, 0.5), (0.2, 0.1), probes=(probes[0], probes[1].with_label("xi1^2")))


def test_sweep_config_refuses_z0_with_points(dec11):
    # points used to win silently: z0 went unread, off its level set or not
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    with pytest.raises(ValidationError, match="set z0 or points, not both"):
        SweepConfig(
            dec11, (1.0,), (0.2, 0.1), z0=PhasePoint(x=(5.0, 0.0), xi=(0.0, 0.0)),
            points=((za, 0.5), (zb, 0.5)),
        )


def test_summary_says_why_a_slope_is_nan():
    report = ConvergenceReport(
        hbars=(0.2, 0.1, 0.05),
        rows=tuple((h, "c_hbar", 1 + 0j, 1 + 0j, h) for h in (0.2, 0.1, 0.05)),
        fitted_slopes={"c_hbar": fit_loglog((0.2, 0.1, 0.05), (0.2, 0.1, 0.05))},
        metadata=(),
    )
    line = next(ln for ln in report.summary().splitlines() if ln.startswith("slope c_hbar"))
    assert line == (
        "slope c_hbar = nan  (3 point(s); fewer than two remain after dropping "
        "the 2 largest hbar)"
    )


def test_sweep_convex_mode_rows(dec11):
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    cfg = SweepConfig(
        dec11,
        (1.0,),
        hbars=(0.2, 0.1, 0.05),
        points=((za, 1.0 / 3.0), (zb, 2.0 / 3.0)),
    )
    report = sweep(cfg)
    assert report.errors == ()
    names = {name for _, name, _, _, _ in report.rows}
    assert {"c_hbar:1", "c_hbar:2", "norm"} <= names
    assert any(name.startswith("cross:1-2:") for name in names)
    # combined expectations head toward the weighted orbit averages
    hs, rs = report.residual_series("gap:H1")
    assert rs[-1] < rs[0]
    _, crosses = report.residual_series("cross:1-2:H1")
    assert crosses[-1] < 0.25 * crosses[0] + 1e-14


def test_report_csv_and_summary(dec12):
    cfg = SweepConfig(dec12, (0.5, 0.5), hbars=(0.2, 0.1, 0.05, 0.025, 0.0125))
    report = sweep(cfg)
    buf = io.StringIO()
    report.to_csv(buf, "deadbeef0123")
    text = buf.getvalue()
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0].startswith("#")
    assert "deadbeef0123" in lines[0]
    header_idx = next(i for i, ln in enumerate(lines) if ln.startswith("hbar,"))
    assert lines[header_idx] == (
        "hbar,observable,value_re,value_im,reference_re,reference_im,residual"
    )
    assert len(lines) - header_idx - 1 == len(report.rows)
    summary = report.summary(bands={"c_hbar": (0.35, None)})
    assert "slope c_hbar" in summary
    assert "pass" in summary
    summary_fail = report.summary(bands={"c_hbar": (None, 0.0)})
    assert "FAIL" in summary_fail


def test_band_failures_match_summary_and_fail_nan():
    report = ConvergenceReport(
        hbars=(0.2, 0.1),
        rows=(),
        fitted_slopes={"a": 0.5, "b": 2.0, "c": math.nan, "d": 0.1},
        metadata=(),
    )
    bands = {"a": (0.35, 1.1), "b": (0.35, 1.1), "c": (0.35, None), "missing": (0.0, 1.0)}
    assert report.band_failures(bands) == ("b", "c")
    assert report.band_failures({}) == ()
    fails = [ln.split()[1] for ln in report.summary(bands).splitlines() if "FAIL" in ln]
    assert fails == ["b", "c"]


def test_fit_loglog_recovers_rate():
    hbars = [0.2 * 2**-m for m in range(7)]
    vals = [3.7 * h**0.5 for h in hbars]
    assert fit_loglog(hbars, vals) == pytest.approx(0.5, abs=1e-12)
    # the two largest values are pre-asymptotic garbage and get dropped
    vals[0] = 99.0
    vals[1] = 0.0
    assert fit_loglog(hbars, vals) == pytest.approx(0.5, abs=1e-12)
    assert fit_loglog(hbars, [0.0] * 7) == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(fit_loglog(hbars[:3], [1.0, 1.0, 1.0]))


def test_fit_loglog_matches_polyfit():
    rng = np.random.default_rng(11)
    for n in range(3, 14):
        hbars = np.exp(rng.uniform(-12.0, 0.0, n))
        values = np.exp(rng.normal(0.5 * np.log(hbars), 1.0))
        order = np.argsort(-hbars)[1:]
        oracle = np.polyfit(np.log(hbars[order]), np.log(values[order]), 1)[0]
        assert fit_loglog(hbars, values, drop=1) == pytest.approx(oracle, rel=0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_fit_loglog_without_hbar_spread_is_nan():
    assert math.isnan(fit_loglog([0.1] * 5, [1, 2, 3, 4, 5]))
    assert math.isnan(fit_loglog([0.2, 0.1, 0.05, 0.05, 0.05], [1, 2, 3, 4, 5]))


def test_fit_loglog_refuses_hbar_that_is_not_positive_and_finite():
    # log of a negative hbar used to warn and return NaN
    for hbars in ([1, -1, 0.5, 0.25], [1, 0.0, 0.5, 0.25], [1, math.nan, 0.5, 0.25], [math.inf, 1, 0.5, 0.25]):
        with pytest.raises(ValidationError, match="hbar values must be positive and finite"):
            fit_loglog(hbars, [1, 1, 1, 1])


def test_residuals_refuses_a_state_of_another_mode_count(dec12):
    # a state of another mode count used to fail in numpy with a bare "cannot reshape"
    from scarkit.fockstate import FockState

    state = FockState(0.1, 3, (2, 2, 2), 0.0, {(1, 0, 2): 1.0 + 0j})
    with pytest.raises(ValidationError, match=r"state has 3 mode\(s\), the decomposition 2"):
        residuals(dec12, state, (0.5, 0.5))


def test_sweeps_call_no_lapack(monkeypatch, dec12):
    def banned(*args, **kwargs):
        raise AssertionError("LAPACK on the sweep path")

    for name in ("solve", "det", "slogdet", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, banned)
    monkeypatch.setattr(np, "polyfit", banned)
    hbars = (0.1, 0.05, 0.025, 0.0125)
    dec = make_dec([[F(1), F(0)], [F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    probes = (position(3, 0, power=2),)
    for E in ((0.0, 1.0), (0.5, 0.5)):  # gram at d0 = 1 and d0 = 2
        assert not sweep(SweepConfig(dec, E, hbars, probes=probes)).errors
    E = (0.5, 0.5)
    h1 = E[0] / 2.0
    h3 = E[1] / dec.components[1].pivot
    points = tuple(
        (PhasePoint((math.sqrt(2 * a), math.sqrt(2 * b), math.sqrt(2 * h3)), (0.0,) * 3), 0.5)
        for a, b in ((h1 / 2, 3 * h1 / 2), (3 * h1 / 2, h1 / 2))
    )
    convex = sweep(SweepConfig(dec, E, hbars, points=points, probes=probes))
    assert not convex.errors and math.isfinite(convex.slope("norm"))
    sweep(SweepConfig(dec12, E, hbars, probes=(position(2, 0, power=2),))).to_csv(io.StringIO())
    assert fit_loglog(hbars, hbars, drop=0) == pytest.approx(1.0, abs=1e-12)


def test_report_invariant_hbars_decreasing():
    rep = ConvergenceReport(
        hbars=(0.2, 0.1),
        rows=((0.2, "c_hbar", 1 + 0j, 1 + 0j, 0.0),),
        fitted_slopes={},
        metadata=(),
    )
    assert rep.hbars[0] > rep.hbars[1]
    assert rep.slope("missing") != rep.slope("missing")  # NaN


# ---------------------------------------------------------------------------
# residuals flows each probe in one pass over every component's angles and
# caches each polynomial moment of its state once per call; sweep reads its
# polynomial gap rows from the same pass


def _reference_residuals(decomp, state, E, probes, t_points=16):
    """residuals as a plain loop: one public expectation call per rotated probe."""
    from scarkit.fockstate import expectation
    from scarkit.phasespace import flow_rates
    from scarkit.spectral import component_eigenvalue

    items = list(state.coeffs.items())
    norm2 = sum(abs(c) ** 2 for _, c in items)
    concentration = []
    for n in range(decomp.d_omega):
        acc = 0.0
        for k, c in items:
            acc += abs(c) ** 2 * (component_eigenvalue(decomp, k, n, state.hbar) - E[n]) ** 2
        concentration.append(acc / norm2)
    rates = flow_rates(decomp)
    invariance = []
    for n, comp in enumerate(decomp.components):
        worst = 0.0
        for a in probes:
            base = expectation(state, state, a)
            for i in range(1, t_points):
                t = comp.period * i / t_points
                moved = expectation(
                    state, state, a.rotate([rates[n][j] * t for j in range(decomp.dims)])
                )
                worst = max(worst, abs(moved - base) / norm2)
        invariance.append(worst)
    return tuple(concentration), tuple(invariance)


def _moment_probes(decomp, seed):
    """Default probes plus two mixed monomials and a polynomial-plus-character sum."""
    from scarkit.symbols import character, monomial

    d = decomp.dims
    x1_xlast = [0] * (2 * d)
    x1_xlast[0] = x1_xlast[d - 1] = 1
    xi1_xlast = [0] * (2 * d)
    xi1_xlast[d] = xi1_xlast[d - 1] = 1
    mixed = monomial(d, x1_xlast, 0.7) + character(d, [0.3] * (2 * d), 0.2)
    return default_probes(decomp, seed) + (
        monomial(d, x1_xlast, -1.3).with_label("x1xd"),
        monomial(d, xi1_xlast, 0.9).with_label("xi1xd"),
        mixed.with_label("mixed"),
    )


def _moment_cases():
    d3 = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    simplex = make_dec([[F(1), F(0)], [F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    dec11 = make_dec([[F(1)], [F(1)]], ("one",))
    E3 = (0.6, 0.4)
    full = build_scar(d3, torus_point(d3, E3), E3, 0.05)
    assert full.rank_d0 == d3.d_omega
    E_end = (0.0, 1.0)
    deficient = build_scar(simplex, torus_point(simplex, E_end), E_end, 0.1)
    assert deficient.rank_d0 < simplex.d_omega
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    combined = convex_scar(dec11, [(za, 0.5), (zb, 0.5)], (1.0,), 0.1)
    return [
        ("full-rank-d3", d3, full.state, E3),
        ("rank-deficient", simplex, deficient.state, E_end),
        ("convex", dec11, combined, (1.0,)),
    ]


@pytest.fixture(scope="module")
def moment_cases():
    return _moment_cases()


@pytest.mark.parametrize("case", range(3), ids=["full-rank-d3", "rank-deficient", "convex"])
def test_residuals_agree_with_uncached_reference(moment_cases, case):
    _, decomp, state, E = moment_cases[case]
    probes = _moment_probes(decomp, seed=4)
    got = residuals(decomp, state, E, probes=probes)
    want = _reference_residuals(decomp, state, E, probes)
    assert got[0] == want[0]  # concentration: exact equality, float for float
    assert max(got[1]) <= 1e-14 and max(want[1]) <= 1e-14


def _noninvariant_state(decomp, kind):
    """A sparse state whose flowed probes move: a coherent copy or random levels."""
    from scarkit.fockstate import FockState, coherent

    d = decomp.dims
    if kind == "coherent":
        # the coherent state of test_residuals_detect_noninvariant_state, one more mode at d = 3
        z0 = PhasePoint(x=(0.8, 0.4, 0.3)[:d], xi=(0.0,) * d)
        return as_sparse(coherent(z0, 0.1, tail_tol=1e-12 if d == 2 else 1e-3))
    rng = np.random.default_rng(31)
    keys = {tuple(int(v) for v in rng.integers(0, 7, size=d)) for _ in range(40)}
    coeffs = {k: complex(*rng.normal(size=2)) for k in sorted(keys)}
    return FockState(0.1, d, (6,) * d, 0.0, coeffs)


_NONINVARIANT_SPECS = {
    1: ([[F(2)], [F(3)]], ("one",)),
    2: ([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2")),
    3: ([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]], ("one", "sqrt2", "sqrt3")),
}


@pytest.mark.parametrize("kind", ["coherent", "random"])
@pytest.mark.parametrize("d_omega", [1, 2, 3])
def test_residuals_agree_with_reference_on_noninvariant_states(d_omega, kind):
    decomp = make_dec(*_NONINVARIANT_SPECS[d_omega])
    assert decomp.d_omega == d_omega
    state = _noninvariant_state(decomp, kind)
    E = tuple(0.5 for _ in range(d_omega))
    probes = _moment_probes(decomp, seed=4)
    got = residuals(decomp, state, E, probes=probes)
    want = _reference_residuals(decomp, state, E, probes)
    assert got[0] == want[0]
    assert min(want[1]) >= 1e-2
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)


@pytest.mark.parametrize("case", range(3), ids=["full-rank-d3", "rank-deficient", "convex"])
def test_residuals_applies_each_monomial_once(moment_cases, case, monkeypatch):
    # the flow is rotation covariance of the moments: the moment call asks
    # for the probes' own monomials, each once, at every angle of the grid
    from scarkit import fockstate

    _, decomp, state, E = moment_cases[case]
    probes = _moment_probes(decomp, seed=4)
    calls = []  # the monomials of each batched moment call
    grids = []  # the angles of each batched moment call
    original = fockstate._moments

    def counting(bra, ket_coeffs, monos, hbar, thetas):
        calls.append(list(monos))
        grids.append(thetas)
        return original(bra, ket_coeffs, monos, hbar, thetas)

    monkeypatch.setattr(fockstate, "_moments", counting)
    residuals(decomp, state, E, probes=probes)
    applied = [mono for monos in calls for mono in monos]
    assert len([monos for monos in calls if monos]) == 1  # one call asks for the whole step
    assert grids[0].shape == (1 + 15 * decomp.d_omega, decomp.dims)  # angle 0, then every flow angle
    rotations = decomp.d_omega * 15 * len(probes)
    assert len(applied) == len(set(applied))
    assert set(applied) == {m for a in probes for m in a.poly}  # the plain maps, no rotated monomial
    assert len(applied) < rotations  # without the cache there is one per rotated monomial


def test_residuals_builds_each_ladder_word_and_bra_read_once(moment_cases, monkeypatch):
    # one d = 3 step: one recursion builds every (mode, ladder word) once for
    # all McCoy terms and monomials, on that mode's support column, and one
    # bra read covers every box of offsets, each box once
    from scarkit import fockstate

    _, decomp, state, E = moment_cases[0]
    probes = _moment_probes(decomp, seed=4)
    d = decomp.dims
    columns = [tuple(k[j] for k in state.coeffs) for j in range(d)]
    assert d == 3 and len(set(columns)) == d  # a recursion row names its mode
    recursions, reads = [], []
    build, bra_reads = fockstate._ladder_bands, fockstate._bra_reads

    def counting_bands(cols, plan, hbar):
        words = [(plan.modes[m], word) for m, word in plan.words]
        assert [tuple(row) for row in cols.tolist()] == [columns[j] for j in plan.modes]
        recursions.append(words)
        return build(cols, plan, hbar)

    def counting_reads(bra, ket_coeffs, keys, vals, shifts):
        reads.append(shifts)
        return bra_reads(bra, ket_coeffs, keys, vals, shifts)

    monkeypatch.setattr(fockstate, "_ladder_bands", counting_bands)
    monkeypatch.setattr(fockstate, "_bra_reads", counting_reads)
    residuals(decomp, state, E, probes=probes)
    (_, tables, _), _ = scarlab._flow_tables(decomp, probes)[1]  # the polynomial pass
    union = dict.fromkeys(m for table in tables for m in table)
    want_words, want_boxes = set(), set()
    for mono in union:
        radii = [mono[j] + mono[d + j] for j in range(d)]
        want_boxes.add(frozenset(itertools.product(*[range(-r, r + 1) for r in radii])))
        want_words |= {
            (j, "x" * (mono[j] - s) + "p" * mono[d + j] + "x" * s)
            for j in range(d) if radii[j] for s in range(mono[j] + 1)
        }
    assert len(recursions) == 1 and len(reads) == 1
    (words,) = recursions
    assert len(words) == len(set(words)) and set(words) == want_words
    plan = fockstate._moment_plan(tuple(union), d)
    boxes = [frozenset(map(tuple, reads[0][cols].tolist())) for _, cols, *_ in plan.groups]
    assert len(boxes) == len(set(boxes)) and set(boxes) == want_boxes
    assert len(reads[0]) == sum(len(box) for box in boxes)


@pytest.mark.parametrize("convex", [False, True], ids=["single", "convex"])
def test_sweep_evaluates_each_moment_once_per_step(convex, monkeypatch):
    # gap and residual rows share one moment map per state and step, and the
    # cross rows (bra != ket) one map per pair and step: every probe value
    # comes from one grouped expectation call per kind, polynomial first,
    # per state and per pair
    from scarkit import fockstate

    if convex:
        decomp = make_dec([[F(1)], [F(1)]], ("one",))
        za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
        zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
        points = ((za, 0.5), (zb, 0.5))
        cfg = SweepConfig(decomp, (1.0,), (0.1, 0.05), points=points, probes=_moment_probes(decomp, 4))
    else:
        decomp = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
        cfg = SweepConfig(decomp, (0.6, 0.4), (0.1, 0.05), probes=_moment_probes(decomp, 4))
    probes = cfg.probes
    applied = []
    batches = []  # (hbar, bra is ket) of each batched moment call that computes anything
    original = fockstate._moments

    def counting(bra, ket_coeffs, monos, hbar, thetas):
        keys, vals = fockstate._support_arrays(ket_coeffs, thetas.shape[1])
        same = bra.coeffs is ket_coeffs
        applied.extend((hbar, same, keys.tobytes(), vals.tobytes(), mono) for mono in monos)
        if monos:
            batches.append((hbar, same))
        return original(bra, ket_coeffs, monos, hbar, thetas)

    calls = []  # per expectation call: kind, flowed or not, bra is ket, and its groups
    monkeypatch.setattr(fockstate, "_moments", counting)
    expectation = scarlab.expectation

    def recording(bra, ket, a, thetas=None, *, _groups=None):
        assert _groups is not None and not (a.poly and a.chars)  # one kind per grouped call
        kind = "chars" if a.chars else "poly"
        groups = list(_groups) if a.chars else [set(g) for g in _groups]
        calls.append((kind, thetas is not None, bra is ket, groups))
        return expectation(bra, ket, a, thetas, _groups=_groups)

    monkeypatch.setattr(scarlab, "expectation", recording)
    report = sweep(cfg)
    assert report.errors == ()
    assert len(applied) == len(set(applied))  # one evaluation per (step, state pair, monomial)
    pairs = [True, False] if convex else [True]
    assert batches == [(h, same) for h in cfg.hbars for same in pairs]  # one call per step and pair
    base = {m for a in probes for m in a.poly}
    for h in cfg.hbars:
        for same in pairs:
            # one ket per step and pair: the state of the gap and residual rows, or the pair's ket
            assert len({(k, v) for hh, s, k, v, _ in applied if (hh, s) == (h, same)}) == 1
            monos = {m for hh, s, _, _, m in applied if (hh, s) == (h, same)}
            assert base == monos  # a state's groups are plain maps, as a pair's are
    groups = [a.chars for a in probes if a.chars]
    assert len(groups) == 3  # char1, char2 and the mixed probe
    maps = [set(a.poly) for a in probes if a.poly]
    step = [("poly", True, True, maps), ("chars", True, True, groups)]
    if convex:  # the cross pair reads the same plain polynomial maps
        step += [("poly", False, False, maps), ("chars", False, False, groups)]
    assert calls == step * len(cfg.hbars)


@pytest.mark.parametrize("convex", [False, True], ids=["single", "convex"])
def test_sweep_never_rotates_a_symbol(convex, monkeypatch):
    # both probe kinds flow by rotation covariance of their matrix elements:
    # no step of a sweep, and so no residuals or flowed expectation call in
    # it, composes a symbol with a rotation or expands a rotated monomial
    from scarkit import symbols

    if convex:
        decomp = make_dec([[F(1)], [F(1)]], ("one",))
        za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
        zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
        points = ((za, 0.5), (zb, 0.5))
        cfg = SweepConfig(decomp, (1.0,), (0.1, 0.05), points=points, probes=_moment_probes(decomp, 4))
    else:
        decomp = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
        cfg = SweepConfig(decomp, (0.6, 0.4), (0.1, 0.05), probes=_moment_probes(decomp, 4))
    assert any(a.poly for a in cfg.probes) and any(a.chars for a in cfg.probes)

    def refuse(*args):
        raise AssertionError("a sweep rotated a symbol")

    monkeypatch.setattr(symbols.Symbol, "rotate", refuse)
    monkeypatch.setattr(symbols, "_substitute_mode", refuse)
    report = sweep(cfg)
    assert report.errors == ()
    assert any(name.startswith("invariance:") for _, name, *_ in report.rows)


def _count_kernel(monkeypatch):
    """Windows passed to the batched displacement routine, and the passes each
    character expectation makes through _displacement_real, one entry per call."""
    from scarkit import fockstate

    windows, passes, per_call = [], [], []
    batched, real, expectation = (
        fockstate._displacement_windows, fockstate._displacement_real, scarlab.expectation
    )

    def counting_windows(ws):
        windows.extend(beta for beta, _, _ in ws)
        return batched(ws)

    def counting_real(p, q, x):
        passes.append(len(p))
        return real(p, q, x)

    def tracking(bra, ket, a, thetas=None, **private):
        before = len(passes)
        out = expectation(bra, ket, a, thetas, **private)
        if a.chars:
            per_call.append(len(passes) - before)
        return out

    monkeypatch.setattr(fockstate, "_displacement_windows", counting_windows)
    monkeypatch.setattr(fockstate, "_displacement_real", counting_real)
    monkeypatch.setattr(scarlab, "expectation", tracking)
    return windows, per_call


@pytest.mark.parametrize("t_points", [16, 40])
def test_flowed_characters_take_one_window_per_character_and_mode(
    moment_cases, t_points, monkeypatch
):
    # rotation covariance: the flow only rephases each window, so the number
    # of displacement windows does not grow with the angle grid; every
    # window of every character probe goes through one grouped expectation
    # call and one _displacement_real pass
    _, decomp, state, E = moment_cases[0]
    probes = default_probes(decomp)
    windows, per_call = _count_kernel(monkeypatch)
    monkeypatch.setattr(scarlab, "T_POINTS", t_points)
    residuals(decomp, state, E, probes=probes)
    assert decomp.dims == 3
    assert len(windows) == sum(len(a.chars) for a in probes) * decomp.dims == 6
    assert per_call == [1]


def _hex(v: complex) -> tuple[str, str]:
    return (v.real.hex(), v.imag.hex())


@pytest.mark.parametrize("convex", [False, True], ids=["single", "convex"])
def test_sweep_gap_rows_match_standalone_expectation_bit_for_bit(convex):
    # every gap row is angle 0 of the one residuals pass; it carries the bits
    # of an unrotated expectation call, characters and polynomials alike
    from scarkit.fockstate import expectation

    if convex:
        decomp = make_dec([[F(1)], [F(1)]], ("one",))
        za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
        zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
        cfg = SweepConfig(decomp, (1.0,), (0.1, 0.05), points=((za, 0.5), (zb, 0.5)),
                          probes=_moment_probes(decomp, 4))
    else:
        decomp = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
        cfg = SweepConfig(decomp, (0.6, 0.4), (0.1, 0.05), probes=_moment_probes(decomp, 4))
    report = sweep(cfg)
    assert report.errors == ()
    gaps = {(h, name): v for h, name, v, _, _ in report.rows if name.startswith("gap:")}
    assert len(gaps) == len(cfg.probes) * len(cfg.hbars)
    for h in cfg.hbars:
        if convex:
            state = scarlab._convex_parts(decomp, cfg.points, cfg.E, h, cfg.tail_tol)[2]
            scale = state.norm() ** 2
        else:
            z0 = sigma_membership(decomp, cfg.E).torus_point()
            state, scale = build_scar(decomp, z0, cfg.E, h).state, 1.0
        for a in cfg.probes:
            want = expectation(state, state, a)
            if convex:
                want /= scale
            assert _hex(gaps[h, f"gap:{a.label}"]) == _hex(want), a.label


def test_probes_whose_characters_cancel_keep_their_rows():
    # char(w) and -char(w), cos(x1) and -cos(x1): the characters of the
    # probes add up to 0, yet each gap and cross row is its own probe's value,
    # with the bits of a lone expectation call
    from scarkit.fockstate import expectation
    from scarkit.symbols import parse_symbol

    decomp = make_dec([[F(1)], [F(1)]], ("one",))
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    w = "0.3 0.1 -0.2 0.5"
    cos = f"0.5*char({w}) + 0.5*char(-0.3 -0.1 0.2 -0.5)"
    texts = [f"char({w})", f"-char({w})", cos, f"-{cos.replace(' + ', ' - ')}", "x1"]
    probes = tuple(parse_symbol(t, 2) for t in texts)
    assert (probes[0] + probes[1] + probes[2] + probes[3]).chars == ()
    cfg = SweepConfig(decomp, (1.0,), (0.1, 0.05), points=((za, 0.5), (zb, 0.5)), probes=probes)
    report = sweep(cfg)
    assert report.errors == ()
    got = {(h, name): v for h, name, v, _, _ in report.rows}
    for h in cfg.hbars:
        parts, _, state = scarlab._convex_parts(decomp, cfg.points, cfg.E, h, cfg.tail_tol)
        for a in probes:
            want = expectation(state, state, a) / state.norm() ** 2
            assert _hex(got[h, f"gap:{a.label}"]) == _hex(want), a.label
            want = expectation(parts[0].state, parts[1].state, a)
            assert _hex(got[h, f"cross:1-2:{a.label}"]) == _hex(want), a.label
    state = parts[0].state
    bases = []
    residuals(decomp, state, cfg.E, probes, _bases=bases)
    assert [_hex(v) for v in bases] == [_hex(expectation(state, state, a)) for a in probes]


def test_sweep_step_takes_one_window_per_character_and_mode(monkeypatch):
    # the gap rows of characters read the flowed pass: a step evaluates each
    # (character, mode) window once, not once for the flow and once for the gap,
    # and every character probe's windows in one _displacement_real pass
    decomp = make_dec([[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    cfg = SweepConfig(decomp, (0.6, 0.4), (0.1, 0.05))
    windows, per_call = _count_kernel(monkeypatch)
    report = sweep(cfg)
    assert report.errors == ()
    chars = sum(len(a.chars) for a in default_probes(decomp, cfg.seed))
    assert chars == 2
    assert len(windows) == chars * decomp.dims * len(cfg.hbars)
    assert per_call == [1] * len(cfg.hbars)


def _failing_sweeps():
    """Sweeps whose every step fails on an hbar-independent check."""
    dec11 = make_dec([[F(1)], [F(1)]], ("one",))
    dec12 = make_dec([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    off = PhasePoint(x=(1.0, 0.2), xi=(0.0, 0.0))
    hbars = (0.2, 0.1, 0.05)
    return {
        "coinciding-tori": (
            SweepConfig(
                dec11, (1.0,), hbars, points=((za, 0.5), (multi_flow(dec11, za, (0.7,)), 0.5))
            ),
            "OverlappingToriError: points 1 and 2 lie on the same invariant torus",
        ),
        "convex-point-off-level-set": (
            SweepConfig(dec11, (1.0,), hbars, points=((za, 0.5), (off, 0.5))),
            "ValidationError: z0 misses the level set by 4.800e-01: component energies "
            "(0.52,) vs target (1.0,)",
        ),
        "z0-off-level-set": (
            SweepConfig(dec12, (0.5, 0.5), hbars, z0=torus_point(dec12, (1.0, 0.0))),
            "ValidationError: z0 misses the level set by 5.000e-01: component energies "
            "(1.0000000000000002, 0.0) vs target (0.5, 0.5)",
        ),
        "E-outside-simplex": (
            SweepConfig(dec12, (0.7, 0.7), hbars, z0=torus_point(dec12, (1.0, 0.0))),
            "NotInSigmaError: component energies sum to 1.4, not 1: not an attainable vector",
        ),
    }


@pytest.mark.parametrize(
    "case",
    ["coinciding-tori", "convex-point-off-level-set", "z0-off-level-set", "E-outside-simplex"],
)
def test_sweep_reports_hbar_independent_failures_at_every_step(case):
    # the checks that do not depend on hbar run once per sweep; a sweep that
    # fails one still records it at every hbar, with the message of a lone step
    cfg, message = _failing_sweeps()[case]
    report = sweep(cfg)
    assert report.rows == ()
    assert report.errors == tuple((h, message) for h in cfg.hbars)


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "convex"])
def test_sweep_runs_hbar_independent_work_once(kind, monkeypatch):
    # sigma_membership (of E and of a reduced system), gram and
    # _tori_distinct depend on the sweep's decomposition, E and tori, not on
    # hbar: their call counts do not grow with the schedule
    from scarkit import fockstate, spectral

    dec11 = make_dec([[F(1)], [F(1)]], ("one",))
    dec12 = make_dec([[F(1), F(0)], [F(0), F(1)]], ("one", "sqrt2"))
    za = PhasePoint(x=(math.sqrt(1.5), math.sqrt(0.5)), xi=(0.0, 0.0))
    zb = PhasePoint(x=(math.sqrt(0.5), math.sqrt(1.5)), xi=(0.0, 0.0))
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((scarlab, "sigma_membership"), (spectral, "sigma_membership"),
                         (fockstate, "gram"), (scarlab, "_tori_distinct")):
        counted(module, name)

    def counts(hbars):
        calls.clear()
        if kind == "convex":
            cfg = SweepConfig(dec11, (1.0,), hbars, points=((za, 0.5), (zb, 0.5)))
        else:
            cfg = SweepConfig(dec12, (0.5, 0.5) if kind == "full-rank" else (1.0, 0.0), hbars)
        assert sweep(cfg).errors == ()
        return sorted(calls)

    short = counts((0.1, 0.05))
    assert short == counts((0.1, 0.05, 0.025, 0.0125))
    assert short == {
        "full-rank": ["gram", "sigma_membership"],
        "rank-deficient": ["gram", "sigma_membership", "sigma_membership"],
        "convex": ["_tori_distinct", "gram", "gram", "sigma_membership"],
    }[kind]
