"""Scarred eigenstate experiments and convergence diagnostics.

build_scar checks the classical preconditions and delegates to the state
construction; convex_scar forms sqrt-weighted combinations over distinct
invariant tori sharing a level set; residuals quantifies concentration on
the level set and invariance under the component flows; sweep drives the
whole pipeline over a geometric hbar schedule and fits log-log rates.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, OverlappingToriError, ScarkitError, ValidationError
from .fockstate import FockState, ScarState, expectation, normalize_scar
from .freqarith import HarmonicDecomposition
from .phasespace import (
    PhasePoint,
    _once,
    component_energies,
    flow_rates,
    orbit_average,
    sigma_membership,
)
from .spectral import component_eigenvalues
from .symbols import Symbol, character, mode_energy, position

LEVEL_SET_TOL = 1e-10
SEPARATION_TOL = 1e-8
FIT_DROP = 2  # largest hbar values fit_loglog leaves out as pre-asymptotic
T_POINTS = 16  # invariance t-grid points per component period


def default_probes(decomp: HarmonicDecomposition, seed: int = 0) -> tuple[Symbol, ...]:
    """x1, x1^2, every mode energy, and two seeded random characters."""
    d = decomp.dims
    probes = [position(d, 0), position(d, 0, 2)]
    probes.extend(mode_energy(d, j) for j in range(d))
    rng = random.Random(seed)
    for i in range(2):
        w = tuple(rng.uniform(-1.0, 1.0) for _ in range(2 * d))
        probes.append(character(d, w).with_label(f"char{i + 1}"))
    return tuple(probes)


def _level_set_check(decomp: HarmonicDecomposition, z0: PhasePoint, E) -> None:
    values = component_energies(decomp, z0)
    gap = max(abs(v - e) for v, e in zip(values, E))
    if gap > LEVEL_SET_TOL:
        raise ValidationError(
            f"z0 misses the level set by {gap:.3e}: component energies "
            f"{values} vs target {tuple(E)}"
        )


def build_scar(
    decomp: HarmonicDecomposition,
    z0: PhasePoint,
    E,
    hbar: float,
    tail_tol: float = 1e-12,
    *,
    _fixed: dict | None = None,
) -> ScarState:
    """Normalized joint eigenstate concentrating on the torus through z0.

    Requires E in the joint spectrum simplex and z0 on the corresponding
    level set to within 1e-10.
    `_fixed` is internal to sweep, not part of the interface: the memo of
    phasespace._once that every step of one sweep shares, which keeps what
    does not depend on hbar (the membership of E, the level-set check and
    the Gram data of z0). A lone call keeps its own, so E's membership is
    decided once for both checks that need it.
    """
    E = tuple(float(v) for v in E)
    fixed = {} if _fixed is None else _fixed
    _once(fixed, "membership", sigma_membership, decomp, E)
    _once(fixed, ("level set", z0), _level_set_check, decomp, z0, E)
    return normalize_scar(decomp, z0, E, hbar, tail_tol, _fixed=fixed)


def _tori_distinct(decomp, za: PhasePoint, zb: PhasePoint, seed: int) -> bool:
    """Orbit-average separation test with a small separating probe set.

    Mode energies distinguish tori of different radii; characters pick up
    relative phases on resonant components.
    """
    d = decomp.dims
    candidates: list[Symbol] = [mode_energy(d, j) for j in range(d)]
    rng = random.Random(seed)
    for _ in range(4):
        w = tuple(rng.uniform(-1.0, 1.0) for _ in range(2 * d))
        candidates.append(character(d, w))
    for a in candidates:
        va = orbit_average(decomp, a, za)
        vb = orbit_average(decomp, a, zb)
        if abs(va - vb) > SEPARATION_TOL * (1.0 + abs(va) + abs(vb)):
            return True
    return False


def _convex_parts(
    decomp: HarmonicDecomposition,
    points,
    E,
    hbar: float,
    tail_tol: float,
    seed: int = 0,
    *,
    _fixed: dict | None = None,
) -> tuple[tuple[ScarState, ...], tuple[float, ...], FockState]:
    E = tuple(float(v) for v in E)
    pts = [(z, float(a)) for z, a in points]
    if not pts:
        raise ValidationError("need at least one (point, weight) pair")
    alphas = tuple(a for _, a in pts)
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValidationError("weights must lie in (0, 1]")
    if abs(sum(alphas) - 1.0) > 1e-12:
        raise ValidationError("weights must sum to 1")
    fixed = {} if _fixed is None else _fixed
    for z, _ in pts:
        _once(fixed, ("level set", z), _level_set_check, decomp, z, E)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            za, zb = pts[i][0], pts[j][0]
            if not _once(fixed, ("distinct", za, zb), _tori_distinct, decomp, za, zb, seed):
                raise OverlappingToriError(
                    f"points {i + 1} and {j + 1} lie on the same invariant torus"
                )
    parts = tuple(build_scar(decomp, z, E, hbar, tail_tol, _fixed=fixed) for z, _ in pts)
    ratios = parts[0].target.ratios_q
    for p in parts[1:]:
        if p.target.ratios_q != ratios:
            raise DomainError(
                "the tori project onto different joint eigenvalues at this "
                "hbar; the combination would not be an eigenvector"
            )
    coeffs: dict[tuple[int, ...], complex] = {}
    for (_, alpha), part in zip(pts, parts):
        root = math.sqrt(alpha)
        for k, c in part.state.coeffs.items():
            coeffs[k] = coeffs.get(k, 0j) + root * c
    cutoff = tuple(
        max(p.state.cutoff[j] for p in parts) for j in range(decomp.dims)
    )
    combined = FockState(
        hbar=hbar,
        dims=decomp.dims,
        cutoff=cutoff,
        tail_bound=sum(p.state.tail_bound for p in parts),
        coeffs=coeffs,
    )
    return parts, alphas, combined


def convex_scar(
    decomp: HarmonicDecomposition,
    points,
    E,
    hbar: float,
    tail_tol: float = 1e-12,
    seed: int = 0,
) -> FockState:
    """sum_j sqrt(alpha_j) psi_j over pairwise distinct tori in one level set.

    Every part targets the same joint eigenvalue, so the sum is again an
    eigenvector; its norm tends to 1 as the cross terms die off.
    """
    _, _, combined = _convex_parts(decomp, points, E, hbar, tail_tol, seed)
    return combined


def _passes(dims: int, probes) -> list:
    """The grouped expectation calls that evaluate every probe on one state
    pair, one (symbol, groups, probe rows) per kind some probe has:
    polynomial maps first, then characters. The symbol carries the union of
    its groups, each monomial or window with coefficient 1 so that none
    cancels, and so names the kind; groups[i] is the part of probe rows[i]."""
    passes = []
    rows = [p for p, a in enumerate(probes) if a.poly]
    if rows:
        groups = [probes[p].poly for p in rows]
        passes.append((Symbol(dims, dict.fromkeys((m for g in groups for m in g), 1.0)), groups, rows))
    rows = [p for p, a in enumerate(probes) if a.chars]
    if rows:
        groups = [probes[p].chars for p in rows]
        passes.append((Symbol(dims, {}, [(1.0, w) for g in groups for _, w in g]), groups, rows))
    return passes


def _flow_tables(decomp: HarmonicDecomposition, probes) -> tuple[np.ndarray, list]:
    """residuals' stacked angle grid, which is angle 0 and then each
    component's T_POINTS - 1 flow angles over one period in component order,
    and the probes' passes (_passes), which serve flowed and cross calls."""
    if any(a.dims != decomp.dims for a in probes):
        raise ValidationError("symbol mode count does not match the decomposition")
    rates = flow_rates(decomp)
    thetas = [[0.0] * decomp.dims]
    for n, comp in enumerate(decomp.components):
        times = [comp.period * i / T_POINTS for i in range(1, T_POINTS)]
        thetas.extend([rates[n][j] * t for j in range(decomp.dims)] for t in times)
    return np.array(thetas), _passes(decomp.dims, probes)


def _probe_values(bra: FockState, ket: FockState, passes, count: int, thetas=None) -> np.ndarray:
    """<bra, Op(a) ket> for each of `count` probes, one row per probe with
    one entry per angle of thetas (one entry without), from one grouped
    expectation call per pass of _passes; each row adds its polynomial part,
    then its characters, to 0, with the bits of a lone expectation call."""
    values = np.zeros((count, 1 if thetas is None else len(thetas)), dtype=complex)
    for symbol, groups, rows in passes:
        values[rows] += expectation(bra, ket, symbol, thetas, _groups=groups).reshape(len(rows), -1)
    return values


def residuals(
    decomp: HarmonicDecomposition,
    state: FockState,
    E,
    probes=None,
    *,
    _bases: list | None = None,
    _flow: tuple | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(concentration, invariance), one entry per periodic component.

    concentration_n = <(Op(Hcal_n) - E_n)^2> via the diagonal ladder action;
    invariance_n = max over probes and a T_POINTS t-grid of one component
    period of |<Op(a o flow_n(t))> - <Op(a)>|, exact Egorov making 16 points
    enough.
    Each probe is flowed over one stacked grid: angle 0, which gives the
    base value <Op(a)>, then every component's T_POINTS - 1 angles. The
    probes' polynomial maps go to one grouped expectation call on (state,
    state, thetas), and their characters to another (_probe_values); both
    kinds flow by rotation covariance, with no rotated symbol, so each
    monomial is applied to the state once per sweep step and each
    (character, mode) window is evaluated once for every base value and
    angle, each row with the bits of a lone expectation call.
    `_bases` and `_flow` are internal to sweep, not part of the interface:
    a list passed as `_bases` receives the base values, unnormalized and in
    probe order, and sweep reads every gap row from it; `_flow` is
    _flow_tables(decomp, probes), which does not depend on the state, so
    sweep builds it once for every step and residuals builds it otherwise.
    """
    E = tuple(float(v) for v in E)
    if len(E) != decomp.d_omega:
        raise ValidationError("energy vector must have one entry per component")
    if state.dims != decomp.dims:
        raise ValidationError(f"state has {state.dims} mode(s), the decomposition {decomp.dims}")
    if state.is_product:
        raise ValidationError("residuals needs a sparse state; project a product state first")
    items = list(state.coeffs.items())
    norm2 = sum(abs(c) ** 2 for _, c in items)
    if norm2 == 0.0:
        raise ValidationError("state has no mass")
    keys = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), decomp.dims)
    concentration = []
    for n in range(decomp.d_omega):
        acc = 0.0
        for (_, c), lam in zip(items, component_eigenvalues(decomp, keys, n, state.hbar)):
            acc += abs(c) ** 2 * (lam - E[n]) ** 2
        concentration.append(acc / norm2)
    if probes is None:
        probes = default_probes(decomp)
    thetas, passes = _flow or _flow_tables(decomp, probes)
    values = _probe_values(state, state, passes, len(probes), thetas)  # one row per probe
    if _bases is not None:
        _bases.extend(values[:, 0].tolist())
    moved = values[:, 1:].reshape(len(probes), decomp.d_omega, T_POINTS - 1)
    defects = np.abs(moved - values[:, :1, None]) / norm2
    # per component, over probes and t; NaN propagates, and no probe gives 0
    invariance = [float(np.max(d, initial=0.0)) for d in defects.transpose(1, 0, 2)]
    return tuple(concentration), tuple(invariance)


# ---------------------------------------------------------------------------
# hbar sweeps

@dataclass(frozen=True)
class SweepConfig:
    """One experiment: a decomposition, a level set, and an hbar schedule.

    Leave z0 unset to use the interior witness of sigma_membership; set
    points instead of z0 for a convex combination over several tori. Each
    probe's label names its rows, so no two labels may be equal.
    """

    decomposition: HarmonicDecomposition
    E: tuple[float, ...]
    hbars: tuple[float, ...]
    z0: PhasePoint | None = None
    points: tuple[tuple[PhasePoint, float], ...] = ()
    probes: tuple[Symbol, ...] = ()
    seed: int = 0
    tail_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(float(v) for v in self.E))
        object.__setattr__(self, "hbars", tuple(float(h) for h in self.hbars))
        if len(self.hbars) < 2:
            raise ValidationError("schedule needs at least two hbar values")
        if not all(0 < h < math.inf for h in self.hbars):
            raise ValidationError("hbar values must be positive and finite")
        if any(a <= b for a, b in zip(self.hbars, self.hbars[1:])):
            raise ValidationError("hbar schedule must be strictly decreasing")
        if not 0 < self.tail_tol < 1:
            raise ValidationError("tail_tol must lie in (0, 1)")
        if self.z0 is not None and self.points:
            raise ValidationError("set z0 or points, not both")
        labels = [f"{a.label}" for a in self.probes]  # as the gap and cross rows print them
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"probe label {label} repeats; each probe names its own rows")


@dataclass(frozen=True)
class ConvergenceReport:
    """Sweep outcome: per-(hbar, observable) rows plus fitted log-log slopes.

    Row layout is (hbar, name, value, reference, residual) with complex
    values split by the CSV writer; residuals are nonnegative by
    construction. errors lists (hbar, message) for rows that failed.
    """

    hbars: tuple[float, ...]
    rows: tuple[tuple[float, str, complex, complex, float], ...]
    fitted_slopes: dict[str, float]
    metadata: tuple[tuple[str, str], ...]
    errors: tuple[tuple[float, str], ...] = ()

    def residual_series(self, name: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
        pairs = [(h, r) for h, nm, _, _, r in self.rows if nm == name]
        return tuple(h for h, _ in pairs), tuple(r for _, r in pairs)

    def slope(self, name: str) -> float:
        return self.fitted_slopes.get(name, math.nan)

    def to_csv(self, f, config_digest: str = "") -> None:
        from .reporting import write_csv

        columns = ["hbar", "observable", "value_re", "value_im",
                   "reference_re", "reference_im", "residual"]
        rows = [
            [h, name.replace(",", ";"), v.real, v.imag, ref.real, ref.imag, r]
            for h, name, v, ref, r in self.rows
        ]
        meta = tuple(f"{k}={v}" for k, v in self.metadata)
        write_csv(f, columns, rows, config_digest, meta=meta)

    def band_failures(
        self, bands: dict[str, tuple[float | None, float | None]]
    ) -> tuple[str, ...]:
        """Fitted observables whose slope lies outside its band; NaN never passes."""
        failed = []
        for name in sorted(self.fitted_slopes):
            if name in bands:
                s = self.fitted_slopes[name]
                lo, hi = bands[name]
                if not ((lo is None or s >= lo) and (hi is None or s <= hi)):
                    failed.append(name)
        return tuple(failed)

    def summary(self, bands: dict[str, tuple[float | None, float | None]] | None = None) -> str:
        lines = ["convergence summary"]
        for k, v in self.metadata:
            lines.append(f"  {k} = {v}")
        failed = self.band_failures(bands or {})
        for name in sorted(self.fitted_slopes):
            s = self.fitted_slopes[name]
            line = f"slope {name} = {s:.4f}"
            if math.isnan(s) and (points := len(self.residual_series(name)[0])) < FIT_DROP + 2:
                line += (
                    f"  ({points} point(s); fewer than two remain after dropping "
                    f"the {FIT_DROP} largest hbar)"
                )
            if bands and name in bands:
                lo, hi = bands[name]
                ok = name not in failed
                band_txt = f"[{lo if lo is not None else '-inf'}, {hi if hi is not None else 'inf'}]"
                line += f"  band {band_txt}: {'pass' if ok else 'FAIL'}"
            lines.append(line)
        for h, msg in self.errors:
            lines.append(f"error at hbar={h:.6g}: {msg}")
        return "\n".join(lines) + "\n"


def fit_loglog(hbars, values, drop: int = FIT_DROP, floor: float = 1e-14) -> float:
    """Least-squares slope of log(value) against log(hbar), in closed form.

    Drops the `drop` largest hbar entries (pre-asymptotic regime) and floors
    values so an exactly vanishing residual cannot produce -inf. The slope
    is dx . (y - mean y) / (dx . dx) with dx = x - mean x; with fewer than
    two points, or with no spread in the kept hbar values, it is NaN. An
    hbar that is not positive and finite is a ValidationError.
    """
    if bad := [h for h in hbars if not 0 < h < math.inf]:
        raise ValidationError(f"hbar values must be positive and finite, got {bad[0]!r}")
    pairs = sorted(zip(hbars, values), key=lambda p: -p[0])[drop:]
    pairs = [(h, max(abs(v), floor)) for h, v in pairs]
    x = np.log([h for h, _ in pairs])
    y = np.log([v for _, v in pairs])
    if len(pairs) < 2 or x.min() == x.max():
        return math.nan
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


_ROW_KERNELS = {
    "c_hbar": "gram normalization",
    "norm": "state norm",
    "concentration": "component eigenvalues",
    "invariance": "flowed probe expectations",
}


def _require_finite(rows, probes) -> None:
    """Raise NumericalError at the first row with a non-finite value, reference or residual."""
    for hbar, name, *entries in rows:
        for field, v in zip(("value", "reference", "residual"), entries):
            if cmath.isfinite(v):
                continue
            kind, _, rest = name.partition(":")
            if kind in ("gap", "cross"):  # gap:<label>, cross:i-j:<label>
                label = rest.partition(":")[2] if kind == "cross" else rest
                probe = next(a for a in probes if f"{a.label}" == label)
                kernel = ("character" if probe.chars else "polynomial") + " expectation"
            else:
                kernel = _ROW_KERNELS[kind]
            raise NumericalError(
                f"non-finite {field} {v} in row {name} at hbar={hbar:.6g} ({kernel} kernel)"
            )


def _residual_rows(decomp, state, E, probes, hbar, bases=None, flow=None):
    conc, inv = residuals(decomp, state, E, probes=probes, _bases=bases, _flow=flow)
    rows = []
    for n, v in enumerate(conc):
        rows.append((hbar, f"concentration:{n + 1}", complex(v), 0j, v))
    for n, v in enumerate(inv):
        rows.append((hbar, f"invariance:{n + 1}", complex(v), 0j, v))
    return rows


def sweep(config: SweepConfig) -> ConvergenceReport:
    """Run the experiment at every hbar and fit per-observable rates.

    Rows for each hbar are computed in schedule order; a ScarkitError at
    one hbar, including the NumericalError raised for a row with a
    non-finite entry, is recorded and the sweep continues, any other
    exception propagates. What a step needs but hbar does not change (the
    membership of E, the level-set checks, gram and the reduced system's
    membership per torus, _tori_distinct per pair) goes through one
    phasespace._once memo, so it runs once per sweep, at its first use; a
    check that fails keeps nothing and fails again, with the same message,
    at every hbar.
    """
    decomp = config.decomposition
    E = config.E
    probes = config.probes or default_probes(decomp, config.seed)
    fixed: dict = {}  # phasespace._once memo: what every step shares
    if config.points:
        pts = [(z, float(a)) for z, a in config.points]
        averages = [
            [orbit_average(decomp, a, z) for a in probes] for z, _ in pts
        ]
        refs = [
            sum(alpha * averages[i][p] for i, (_, alpha) in enumerate(pts))
            for p in range(len(probes))
        ]
    else:
        z0 = config.z0
        if z0 is None:
            z0 = _once(fixed, "membership", sigma_membership, decomp, E).torus_point()
        refs = [orbit_average(decomp, a, z0) for a in probes]
        z0_desc = f"x={z0.x} xi={z0.xi}"
    flow = _flow_tables(decomp, probes)

    def run_one(hbar: float) -> list[tuple[float, str, complex, complex, float]]:
        rows = []
        if config.points:
            parts, _, state = _convex_parts(
                decomp, pts, E, hbar, config.tail_tol, config.seed, _fixed=fixed
            )
            for j, part in enumerate(parts):
                c = part.c_hbar
                rows.append((hbar, f"c_hbar:{j + 1}", complex(c), 1 + 0j, abs(c - 1.0)))
            nrm = state.norm()
            rows.append((hbar, "norm", complex(nrm), 1 + 0j, abs(nrm - 1.0)))
        else:
            scar = build_scar(decomp, z0, E, hbar, config.tail_tol, _fixed=fixed)
            parts, state, c = (), scar.state, scar.c_hbar
            rows.append((hbar, "c_hbar", complex(c), 1 + 0j, abs(c - 1.0)))
        bases: list[complex] = []
        residual_rows = _residual_rows(decomp, state, E, probes, hbar, bases, flow)
        for a, val, ref in zip(probes, bases, refs):
            if config.points:
                val /= nrm**2
            rows.append((hbar, f"gap:{a.label}", val, complex(ref), abs(val - ref)))
        for i, j in itertools.combinations(range(len(parts)), 2):
            values = _probe_values(parts[i].state, parts[j].state, flow[1], len(probes))
            for a, val in zip(probes, values[:, 0].tolist()):
                rows.append((hbar, f"cross:{i + 1}-{j + 1}:{a.label}", val, 0j, abs(val)))
        rows.extend(residual_rows)
        _require_finite(rows, probes)
        return rows

    rows: list[tuple[float, str, complex, complex, float]] = []
    errors: list[tuple[float, str]] = []
    for hbar in config.hbars:
        try:
            rows.extend(run_one(hbar))
        except ScarkitError as exc:  # recorded, sweep continues
            errors.append((hbar, f"{type(exc).__name__}: {exc}"))

    by_name: dict[str, list[tuple[float, float]]] = {}
    for h, name, _, _, r in rows:
        by_name.setdefault(name, []).append((h, r))
    slopes = {
        name: fit_loglog([h for h, _ in series], [r for _, r in series])
        for name, series in by_name.items()
    }
    metadata = (
        ("omega", " ".join(repr(w) for w in decomp.spec.numeric)),
        ("E", " ".join(repr(v) for v in E)),
        ("z0", f"convex over {len(config.points)} tori" if config.points else z0_desc),
        ("seed", str(config.seed)),
        ("slope_fit", f"drops the {FIT_DROP} largest hbar values"),
        ("tail_tol", repr(config.tail_tol)),
    )
    return ConvergenceReport(
        hbars=config.hbars,
        rows=tuple(rows),
        fitted_slopes=slopes,
        metadata=metadata,
        errors=tuple(errors),
    )
