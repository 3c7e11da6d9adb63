"""States in the joint number basis: coherent states, spectral averaging,
Gram normalization, and exact expectation values.

Time averaging over the period box is implemented as a spectral projection:
averaging multiplies coefficient k by the mean of e^{i tau.(Lambda - spec(k))/hbar}
over the box, which is 1 exactly when every component eigenvalue of k matches
the target (the differences are integer multiples of 2 pi / T_n per axis) and
0 otherwise. So the average keeps one joint eigenspace and kills the rest;
no quadrature is involved (a small-grid quadrature equivalence is exercised
in tests). For a product state the kept indices are the integer solutions
of int_weights_n . k = sign_n N_n inside the per-mode cutoffs, enumerated
exactly (freqarith.lattice_solver); no point of the cutoff box is scanned,
and amplitudes are evaluated at the kept points only. Sparse states test
each stored index.

Expectations are exact matrix-element sums: polynomial symbols through the
banded action of Op(x^a xi^b), which moves an index by at most a + b,
characters through displacement-operator matrix elements, evaluated per
mode only over the index range [min, max] of each state's support in that
mode; a non-finite element raises NumericalError. A moment
<bra|Op(x^a xi^b)|ket> on a sparse ket is one array kernel (_moment): the
ket support as an (S, d) key array, each acted-on mode's band rows combined
over the small box of offsets, the bra read at k + offset (a sparse bra
through sorted integer codes, a product bra from its factors), one sum.
Product states (coherent) keep per-mode factor vectors and use factorized
fast paths; projected states are sparse coefficient maps.

flowed_expectations evaluates one symbol at a whole grid of flow angles on
a sparse state, for scarlab.residuals. Its polynomial values are the
coefficient arrays of Symbol.rotation_table times moments <psi|Op(x^a xi^b)|psi>
read from a map the caller keeps per state, so each monomial is applied once
per sweep step however often the probes and angles repeat it; expectation
starts a fresh map per call, and every moment is computed by the same
kernel either way. Its character values use rotation covariance: the flow
is diagonal in the number basis, so <m|D(beta e^{i theta})|n> =
e^{i (m - n) theta} <m|D(beta)|n>. One displacement window per (character,
mode) at the unrotated beta gives the support block B, and angle theta is
x_theta . B y_theta with x_theta = conj(b) e^{i (k - lo).theta} and
y_theta = b e^{-i (k - lo).theta}, the phases measured from each mode's
window start lo so that their arguments stay small at deep hbar.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, pdtrc

from .errors import (
    EmptyProjectionError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)
from .freqarith import (
    HarmonicDecomposition,
    lattice_solver,
    periodic_component,
    span_solver,
)
from .phasespace import PhasePoint, component_energies
from .spectral import (
    TargetEigenvalue,
    component_eigenvalue,
    component_ratio,
    select_target,
)
from .symbols import Symbol

_MODE_CUTOFF_CAP = 1 << 20
_BLOCK_CAP = 1 << 24

FockIndex = tuple[int, ...]


@dataclass(frozen=True)
class FockState:
    """Immutable state; either per-mode factors (product) or a sparse map.

    factors[j] is mode j's coefficient vector for a product state; coeffs
    maps lattice indices to amplitudes otherwise. tail_bound is the mass
    the construction may have discarded.
    """

    hbar: float
    dims: int
    cutoff: tuple[int, ...]
    tail_bound: float
    coeffs: dict[FockIndex, complex] | None = None
    factors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise ValidationError(f"hbar must be positive and finite, got {self.hbar!r}")
        if (self.coeffs is None) == (self.factors is None):
            raise ValidationError("exactly one representation must be present")
        if len(self.cutoff) != self.dims:
            raise ValidationError("cutoff needs one entry per mode")

    @property
    def is_product(self) -> bool:
        return self.factors is not None

    def norm(self) -> float:
        if self.is_product:
            return float(
                math.prod(float(np.linalg.norm(f)) for f in self.factors)
            )
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def coefficient(self, k: Sequence[int]) -> complex:
        k = tuple(int(v) for v in k)
        if self.is_product:
            out = 1.0 + 0j
            for j, f in enumerate(self.factors):
                if k[j] >= len(f):
                    return 0j
                out *= complex(f[k[j]])
            return out
        return complex(self.coeffs.get(k, 0j))

    def scaled(self, factor: complex) -> "FockState":
        if self.is_product:
            fs = list(np.array(f) for f in self.factors)
            fs[0] = fs[0] * factor
            return FockState(
                self.hbar, self.dims, self.cutoff, self.tail_bound, None, tuple(fs)
            )
        return FockState(
            self.hbar,
            self.dims,
            self.cutoff,
            self.tail_bound,
            {k: c * factor for k, c in self.coeffs.items()},
            None,
        )


# ---------------------------------------------------------------------------
# coherent states

def coherent(z0: PhasePoint, hbar: float, tail_tol: float = 1e-12) -> FockState:
    """Product coherent state centered at z0.

    Mode j carries alpha_j = (x_j + i xi_j)/sqrt(2 hbar); the per-mode cutoff
    is the smallest K with Poisson(|alpha|^2) tail below tail_tol / d, and
    coefficients are assembled in log space so no factorial ever overflows.
    """
    if not 0 < tail_tol < 1:
        raise ValidationError("tail_tol must lie in (0, 1)")
    if not 0 < hbar < math.inf:
        raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
    d = z0.dims
    per_mode = tail_tol / d
    factors = []
    for j in range(d):
        alpha = complex(z0.x[j], z0.xi[j]) / math.sqrt(2.0 * hbar)
        mu = abs(alpha) ** 2
        if mu == 0.0:
            factors.append(np.array([1.0 + 0j]))
            continue
        # K = first index whose Poisson tail P(X > K) drops below the budget;
        # pdtrc evaluates the tail directly, keeping full relative accuracy
        # where 1 - cdf would cancel down to ~1e-13
        k_max = int(mu + 12.0 * math.sqrt(mu) + 25.0)
        if k_max > _MODE_CUTOFF_CAP:
            raise ResourceLimitError(
                f"mode {j}: |alpha|^2 = {mu:.3g} needs cutoff beyond {_MODE_CUTOFF_CAP}"
            )
        ks = np.arange(k_max + 1)
        logpmf = -mu + ks * math.log(mu) - gammaln(ks + 1)
        tail = pdtrc(ks, mu)
        hit = np.nonzero(tail < per_mode)[0]
        if len(hit) == 0:
            raise ResourceLimitError(
                f"mode {j}: Poisson tail did not reach {per_mode:.3g} by k={k_max}"
            )
        K = int(hit[0])
        amp = np.exp(0.5 * logpmf[: K + 1])
        phase = np.exp(1j * np.angle(alpha) * ks[: K + 1])
        factors.append(amp * phase)
    return FockState(
        hbar=hbar,
        dims=d,
        cutoff=tuple(len(f) - 1 for f in factors),
        tail_bound=tail_tol,
        factors=tuple(factors),
    )


# ---------------------------------------------------------------------------
# inner products

def inner(bra: FockState, ket: FockState) -> complex:
    """<bra, ket> with the physics convention (antilinear in bra)."""
    if bra.hbar != ket.hbar or bra.dims != ket.dims:
        raise ValidationError("states live in different spaces")
    if bra.is_product and ket.is_product:
        out = 1.0 + 0j
        for fa, fb in zip(bra.factors, ket.factors):
            L = min(len(fa), len(fb))
            out *= complex(np.vdot(fa[:L], fb[:L]))
        return out
    if bra.is_product:
        total = 0j
        for k, c in ket.coeffs.items():
            total += np.conjugate(bra.coefficient(k)) * c
        return complex(total)
    if ket.is_product:
        return complex(np.conjugate(inner(ket, bra)))
    if len(bra.coeffs) > len(ket.coeffs):
        return complex(np.conjugate(inner(ket, bra)))
    total = 0j
    for k, c in bra.coeffs.items():
        other = ket.coeffs.get(k)
        if other is not None:
            total += np.conjugate(c) * other
    return complex(total)


def norm(state: FockState) -> float:
    return state.norm()


# ---------------------------------------------------------------------------
# spectral averaging

def _project_conditions(
    state: FockState, conditions: Sequence[tuple[tuple[int, ...], int]]
) -> dict[FockIndex, complex]:
    """Keep coefficients whose index satisfies ivec.k == rhs for all conditions.

    A product state's kept indices are the lattice solutions inside its
    per-mode cutoffs, enumerated directly and in row-major order; amplitudes
    are evaluated at those points only, as 1 * f_0[k_0] * f_1[k_1] * ...
    """
    if state.is_product:
        pts = lattice_solver(
            [ivec for ivec, _ in conditions], [len(f) for f in state.factors]
        )([rhs for _, rhs in conditions])
        amp = np.ones(len(pts), dtype=complex)
        for j, f in enumerate(state.factors):
            amp *= f[pts[:, j]]
        return dict(zip(map(tuple, pts.tolist()), amp.tolist()))
    kept = {}
    for k, c in state.coeffs.items():
        if all(
            sum(iv * kj for iv, kj in zip(ivec, k) if iv) == rhs
            for ivec, rhs in conditions
        ):
            kept[k] = c
    return kept


def _offsets(total: int, lo: Sequence[int], hi: Sequence[int]):
    """Integer vectors e with sum |e_n| == total and lo_n <= e_n <= hi_n."""
    if len(lo) == 1:
        yield from ((v,) for v in sorted({-total, total}) if lo[0] <= v <= hi[0])
        return
    for v in range(max(lo[0], -total), min(hi[0], total) + 1):
        for rest in _offsets(total - abs(v), lo[1:], hi[1:]):
            yield (v,) + rest


def _nearest_misses(state: FockState, conditions, count: int = 3):
    """Support points closest to satisfying the conditions, for diagnostics.

    Points rank by (miss, -|c|, k), miss being sum_n |ivec_n . k - rhs_n|. A
    product state is searched on the lattice: every point with miss L solves
    ivec . k = rhs + e for one offset e with |e|_1 = L, each e_n confined to
    the range ivec_n . k - rhs_n takes over the box, so L grows until enough
    nonzero points are found or no larger miss exists.
    """
    def miss(k):
        return sum(
            abs(sum(iv * kj for iv, kj in zip(ivec, k)) - rhs) for ivec, rhs in conditions
        )

    if not state.is_product:
        scored = sorted((miss(k), -abs(c), k) for k, c in state.coeffs.items())
        return tuple(k for _, _, k in scored[:count])
    extents = [len(f) for f in state.factors]
    top = [n - 1 for n in extents]
    lo = [sum(min(iv, 0) * t for iv, t in zip(ivec, top)) - rhs for ivec, rhs in conditions]
    hi = [sum(max(iv, 0) * t for iv, t in zip(ivec, top)) - rhs for ivec, rhs in conditions]
    points = lattice_solver([ivec for ivec, _ in conditions], extents)
    rhs = np.array([rhs for _, rhs in conditions], dtype=np.int64)[:, None]
    scored = []
    for total in range(sum(max(-a, b) for a, b in zip(lo, hi)) + 1):
        shell = np.array(list(_offsets(total, lo, hi)), dtype=np.int64).reshape(-1, len(lo))
        for k in map(tuple, points(rhs + shell.T).tolist()):
            c = state.coefficient(k)
            if c != 0:
                scored.append((total, -abs(c), k))
        if len(scored) >= count:
            break
    scored.sort()
    return tuple(k for _, _, k in scored[:count])


def _solvable(state: FockState, ivec, rhs) -> bool:
    """Whether some index of the state's support satisfies ivec . k == rhs alone."""
    if not state.is_product:
        return any(sum(iv * kj for iv, kj in zip(ivec, k)) == rhs for k in state.coeffs)
    modes = [j for j, iv in enumerate(ivec) if iv]
    extents = [len(state.factors[j]) for j in modes]
    return len(lattice_solver([[ivec[j] for j in modes]], extents)([rhs])) > 0


def _condition_text(conditions, cutoff) -> str:
    """'k1 + 2 k2 = 7 with k1 = 0, k2 <= 40': the equations and their modes' box."""
    eqs = []
    modes = set()
    for ivec, rhs in conditions:
        terms = ""
        for j, iv in enumerate(ivec):
            if iv:
                modes.add(j)
                sign = ("-" if iv < 0 else "") if not terms else (" - " if iv < 0 else " + ")
                terms += f"{sign}{'' if abs(iv) == 1 else f'{abs(iv)} '}k{j + 1}"
        eqs.append(f"{terms or '0'} = {rhs}")
    box = ", ".join(
        f"k{j + 1} = 0" if cutoff[j] == 0 else f"k{j + 1} <= {cutoff[j]}" for j in sorted(modes)
    )
    return " and ".join(eqs) + (f" with {box}" if box else "")


def average_project(state: FockState, target: TargetEigenvalue) -> FockState:
    """Time average over the period box, realized as a spectral projection.

    Keeps exactly the lattice points whose component eigenvalues all equal
    the target's (integer test int_weights_n . k == sign_n N_n); the result
    is an exact joint eigenvector. A product state's kept points are
    enumerated as the solutions of those equations inside its per-mode
    cutoffs, without scanning the cutoff box. An empty result raises
    EmptyProjectionError naming an equation with no solution in the state's
    support and the support points that miss the equations least.
    """
    if state.hbar != target.hbar:
        raise ValidationError("state and target disagree on hbar")
    decomp = target.decomposition
    if state.dims != decomp.dims:
        raise ValidationError("state and target disagree on mode count")
    conditions = [
        (comp.int_weights, target.signs[n] * target.N[n])
        for n, comp in enumerate(decomp.components)
    ]
    kept = _project_conditions(state, conditions)
    if not kept:
        alone = [c for c in conditions if not _solvable(state, *c)]
        nearest = _nearest_misses(state, conditions)
        raise EmptyProjectionError(
            "projection onto the joint eigenspace is zero: "
            f"{_condition_text(alone[:1] or conditions, state.cutoff)} has no "
            f"solution in the state support; nearest lattice points: {list(nearest)}",
            nearest=nearest,
        )
    return FockState(
        hbar=state.hbar,
        dims=state.dims,
        cutoff=state.cutoff,
        tail_bound=state.tail_bound,
        coeffs=kept,
    )


# ---------------------------------------------------------------------------
# Gram data at a point

@dataclass(frozen=True)
class GramResult:
    """Gram matrix of the energy gradients at z0 and the system it belongs to.

    `system` is the decomposition itself when the gradient rank d0 equals
    d_omega. Below that it is the reduced system over the excited modes: one
    component per retained index, with the weights projected onto the
    excited modes and an effective frequency v_l + sum_n b_{n,l} v_n that
    folds in each dropped component n through its transfer row b_n.
    `volume` is the product of the system's periods (1 at rank 0).
    """

    rank_d0: int
    excited: tuple[bool, ...]
    retained: tuple[int, ...]
    transfer: tuple[tuple[Fraction, ...], ...]  # rows: dropped n -> b_{n,l}
    dropped: tuple[int, ...]
    system: HarmonicDecomposition
    matrix: np.ndarray
    det: float
    volume: float


def _projected_weights(comp, excited) -> tuple[Fraction, ...]:
    return tuple(w if e else Fraction(0) for w, e in zip(comp.weights, excited))


def gram(z0: PhasePoint, decomp: HarmonicDecomposition) -> GramResult:
    """Rank and Gram matrix of {grad Hcal_n(z0)}, plus the system at z0.

    The zero pattern is exact: mode j counts as excited iff x_j or xi_j is
    nonzero. The rank over Q of the projected weight vectors is computed by
    exact row reduction; when it is below d_omega the retained components
    absorb the dropped ones through rational transfer coefficients b, and
    the reduced system is an ordinary HarmonicDecomposition whose periods
    give the volume and whose components give the Gram matrix.
    """
    if z0.dims != decomp.dims:
        raise ValidationError("point dimension does not match the decomposition")
    excited = tuple(xv != 0.0 or pv != 0.0 for xv, pv in zip(z0.x, z0.xi))
    projected = [_projected_weights(c, excited) for c in decomp.components]
    retained, solve = span_solver(projected)
    d0 = len(retained)
    dropped = tuple(n for n in range(decomp.d_omega) if n not in retained)
    transfer = [solve(projected[n]) for n in dropped]
    system = decomp
    if dropped:
        # effective frequency of retained l folds in every dropped n via b_{n,l}
        reduced = []
        for pos, l in enumerate(retained):
            comp_l = decomp.components[l]
            coords = list(comp_l.pivot_coords)
            for row, n in zip(transfer, dropped):
                bnl = row[pos]
                if bnl:
                    coords = [
                        a + bnl * c
                        for a, c in zip(coords, decomp.components[n].pivot_coords)
                    ]
            v = decomp.spec.basis.evaluate_float(coords)
            reduced.append(
                periodic_component(pos, comp_l.pivot_row, tuple(coords), v, projected[l])
            )
        system = HarmonicDecomposition(decomp.spec, tuple(reduced))
    comps = system.components
    h2 = [x * x + xi * xi for x, xi in zip(z0.x, z0.xi)]  # 2 H_j(z0)
    matrix = np.zeros((d0, d0))
    for a in range(d0):
        for b_ in range(d0):
            matrix[a, b_] = sum(
                comps[a].pivot
                * float(comps[a].weights[j])
                * comps[b_].pivot
                * float(comps[b_].weights[j])
                * h2[j]
                for j in range(decomp.dims)
            )
    det = float(np.linalg.det(matrix)) if d0 else 1.0
    return GramResult(
        rank_d0=d0,
        excited=excited,
        retained=retained,
        transfer=tuple(transfer),
        dropped=dropped,
        system=system,
        matrix=matrix,
        det=det,
        volume=math.prod((c.period for c in comps), start=1.0),
    )


# ---------------------------------------------------------------------------
# the normalized construction

@dataclass(frozen=True)
class ScarState:
    """Normalized joint eigenstate concentrated on the torus through z0."""

    state: FockState
    target: TargetEigenvalue
    z0: PhasePoint
    c_hbar: float
    rank_d0: int
    gram_det: float
    volume: float
    mass: float


def _retarget(
    decomp: HarmonicDecomposition, target: TargetEigenvalue, k0: FockIndex
) -> TargetEigenvalue:
    """Re-anchor a target at the joint eigenvalue actually hit by k0.

    The reduced ladders fix the component eigenvalues only through the
    excited sublattice, so the value reached can differ from the one
    select_target aimed at; the state itself is the witness.
    """
    d = decomp.d_omega
    ratios = tuple(component_ratio(decomp, k0, n) for n in range(d))
    lam = tuple(component_eigenvalue(decomp, k0, n, target.hbar) for n in range(d))
    dots = [
        sum(iv * kj for iv, kj in zip(comp.int_weights, k0))
        for comp in decomp.components
    ]
    return replace(
        target,
        N=tuple(abs(dt) for dt in dots),
        signs=tuple(1 if dt >= 0 else -1 for dt in dots),
        lam=lam,
        lambda_total=sum(lam),
        ratios_q=ratios,
        witnesses=(k0,) * d,
    )


def normalize_scar(
    decomp: HarmonicDecomposition,
    z0: PhasePoint,
    E: Sequence[float],
    hbar: float,
    tail_tol: float = 1e-12,
) -> ScarState:
    """coherent -> average over the period box -> L2 normalize.

    Reports the diagnostic constant c_hbar = volume * sqrt(det G) * mass /
    (4 pi hbar)^{d0/2}, where mass is the kept squared norm and volume and
    G come from gram(z0, decomp). At full rank the projection targets
    select_target(decomp, E, hbar). When the gradient rank d0 falls below
    d_omega it targets the reduced system at its own component energies at
    z0, and the reported target is re-anchored at the eigenvalue the kept
    state actually has. A point with no excited mode at all degenerates to
    the ground state with c_hbar = 1 by convention.
    """
    target = select_target(decomp, E, hbar)
    g = gram(z0, decomp)
    psi = coherent(z0, hbar, tail_tol)
    if g.rank_d0 == 0:
        if not psi.is_product or any(len(f) > 1 for f in psi.factors):
            raise ValidationError("rank 0 requires the unexcited ground state")
        state = FockState(
            hbar=hbar,
            dims=decomp.dims,
            cutoff=psi.cutoff,
            tail_bound=tail_tol,
            coeffs={(0,) * decomp.dims: 1.0 + 0j},
        )
        return ScarState(
            state=state,
            target=_retarget(decomp, target, (0,) * decomp.dims),
            z0=z0,
            c_hbar=1.0,
            rank_d0=0,
            gram_det=g.det,
            volume=g.volume,
            mass=psi.norm() ** 2,
        )
    if g.system is decomp:
        projected = average_project(psi, target)
    else:
        reduced = select_target(g.system, component_energies(g.system, z0), hbar)
        projected = average_project(psi, reduced)
        target = _retarget(decomp, target, min(projected.coeffs))
    mass = projected.norm() ** 2
    c_hbar = (
        g.volume
        * math.sqrt(max(g.det, 0.0))
        * mass
        / (4.0 * math.pi * hbar) ** (g.rank_d0 / 2.0)
    )
    state = projected.scaled(1.0 / projected.norm())
    return ScarState(
        state=state,
        target=target,
        z0=z0,
        c_hbar=float(c_hbar),
        rank_d0=g.rank_d0,
        gram_det=g.det,
        volume=g.volume,
        mass=mass,
    )


# ---------------------------------------------------------------------------
# matrix elements for expectations

def _weyl_band(cols: np.ndarray, a: int, b: int, hbar: float) -> np.ndarray:
    """<cols[i] + o|Op(x^a xi^b)|cols[i]> at out[i, a + b + o] for |o| <= a + b.

    The McCoy identity gives the Weyl order Op(x^a xi^b) = 2^{-a} sum_s
    C(a, s) X^s Xi^b X^{a-s}, with X = c (A + A^+), Xi = i c (A^+ - A) and
    c = sqrt(hbar / 2). Each X or Xi step shifts every column's band one
    index up and down at once, so nothing is truncated and no dense matrix
    is built; offsets below index 0 stay exactly zero.
    """
    r = a + b
    idx = np.asarray(cols)[:, None] + np.arange(-r, r + 1)
    c = math.sqrt(hbar / 2.0)
    up = c * np.sqrt(np.maximum(idx[:, 1:], 0))  # A^+: m - 1 -> m
    down = c * np.sqrt(np.maximum(idx[:, :-1] + 1, 0))  # A: m + 1 -> m
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


def _displacement_matrix(beta: complex, rows: range, cols: range) -> np.ndarray:
    """<m|D(beta)|n> for m in rows, n in cols; exact per element.

    Cahill-Glauber form sqrt(p!/(p+q)!) e^{-|beta|^2/2} L_p^q(|beta|^2) times
    beta^q (m >= n) or (-conj beta)^q, with p = min(m, n), q = |m - n|. Each
    element depends only on (m, n, beta), so a window of the dense block has
    the same bits as the dense block sliced. Equal inputs are evaluated
    once: the real factor depends on (p, q), which (m, n) and (n, m) share,
    so a square window evaluates its upper triangle only, and the phase
    depends on the offset m - n alone. The Laguerre factor overflows once p
    and q are both large; any non-finite element raises NumericalError.
    """
    beta = complex(beta)
    mag2 = abs(beta) ** 2  # Python's abs and pow: numpy's complex abs rounds differently
    m = np.arange(rows.start, rows.stop)[:, None]
    n = np.arange(cols.start, cols.stop)[None, :]
    offset = m - n
    if rows == cols:
        upper = np.triu_indices(len(rows))
        p, q = m[upper[0], 0], -offset[upper]
    else:
        p, q = np.minimum(m, n).ravel(), np.abs(offset).ravel()
    lag = eval_genlaguerre(p, q, mag2)
    pref = np.exp(0.5 * (gammaln(p + 1) - gammaln(p + q + 1)) - mag2 / 2.0)
    real = pref * lag
    if rows == cols:
        full = np.empty(offset.shape)
        full[upper[0], upper[1]] = full[upper[1], upper[0]] = real
        real = full
    else:
        real = real.reshape(offset.shape)
    steps = np.arange(offset.min(), offset.max() + 1)
    phase = np.where(steps >= 0, beta, -np.conjugate(beta)) ** np.abs(steps)
    out = real * phase[offset - steps[0]]
    if not np.isfinite(out).all():
        raise NumericalError(
            f"displacement kernel: non-finite <m|D(beta)|n> at |beta|^2 = {mag2:.6g} "
            f"with p up to {int(p.max())} and q up to {int(q.max())}"
        )
    return out


def _index_range(indices: np.ndarray) -> range:
    """Smallest range covering one mode's indices in a state's support."""
    return range(int(indices.min()), int(indices.max()) + 1)


def _char_betas(w: Sequence[float], hbar: float, d: int) -> list[complex]:
    c = math.sqrt(hbar / 2.0)
    return [-c * complex(w[j], w[d + j]) for j in range(d)]


# ---------------------------------------------------------------------------
# expectation values

def _poly_product(bra: FockState, ket: FockState, poly) -> complex:
    d = bra.dims
    total = 0j
    for mono, coeff in poly.items():
        term = coeff
        for j in range(d):
            a, b = mono[j], mono[d + j]
            fa, fb = bra.factors[j], ket.factors[j]
            if a == 0 and b == 0:
                L = min(len(fa), len(fb))
                term *= complex(np.vdot(fa[:L], fb[:L]))
            else:
                n = np.arange(len(fb))
                m = n[:, None] + np.arange(-(a + b), a + b + 1)
                ok = (m >= 0) & (m < len(fa))
                W = _weyl_band(n, a, b, bra.hbar) * fb[:, None]
                term *= complex(np.conjugate(fa[m[ok]]) @ W[ok])
            if term == 0:
                break
        total += term
    return total


def _support_arrays(coeffs: dict, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """A sparse map as an (S, dims) int64 key array and its (S,) amplitudes."""
    keys = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), dims)
    return keys, np.array(list(coeffs.values()), dtype=complex)


def _bra_lookup(bra: FockState):
    """Function from an (..., d) array of indices to the bra's coefficients there.

    A product bra gathers from its factors; a sparse bra looks up integer
    codes of its bounding box, sorted once, with searchsorted. Indices
    outside the bra's support, negative ones included, read 0.
    """
    if bra.is_product:
        def lookup(idx):
            out = np.ones(idx.shape[:-1], dtype=complex)
            for j, f in enumerate(bra.factors):
                k = idx[..., j]
                inside = (k >= 0) & (k < len(f))
                out *= np.where(inside, f[np.where(inside, k, 0)], 0)
            return out
        return lookup
    if not bra.coeffs:
        return lambda idx: np.zeros(idx.shape[:-1], dtype=complex)
    keys, vals = _support_arrays(bra.coeffs, bra.dims)
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    extents = [int(e) for e in hi - lo + 1]
    if math.prod(extents) >= 2**63:
        raise ResourceLimitError(
            f"support box {extents} has more points than an int64 code can number"
        )
    strides = np.array([math.prod(extents[j + 1 :]) for j in range(bra.dims)], dtype=np.int64)
    codes = (keys - lo) @ strides
    order = np.argsort(codes, kind="stable")  # the sort lattice_solver already pages in
    codes, vals = codes[order], vals[order]

    def lookup(idx):
        inside = ((idx >= lo) & (idx <= hi)).all(axis=-1)
        code = (idx - lo) @ strides
        pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        return np.where(inside & (codes[pos] == code), vals[pos], 0)
    return lookup


def _moment(lookup, keys: np.ndarray, vals: np.ndarray, mono, hbar: float) -> complex:
    """<bra|Op(x^a xi^b)|ket> for a ket with support keys and amplitudes vals.

    Each mode the monomial acts on contributes its _weyl_band rows; their
    outer product over the box of offsets is the matrix element from k to
    k + offset, and the bra is read at those indices by `lookup`
    (_bra_lookup). One sum over support and box gives the moment.
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
        band = _weyl_band(keys[:, j], a, b, hbar)
        weight = (weight[:, :, None] * band[:, None, :]).reshape(len(keys), len(shifts))
    bra = lookup(keys[:, None, :] + shifts[None, :, :])
    return complex(np.sum(np.conjugate(bra) * weight))


def _poly_sparse(
    bra: FockState, ket_coeffs: dict, poly, hbar: float, dims: int, moments: dict
):
    """sum over poly of coeff * <bra|Op(mono)|ket>, each moment read from `moments`.

    `moments` maps a monomial to its moment for this one (bra, ket) pair; a
    missing moment is computed by _moment and stored, so a caller that keeps
    the map for a sweep step applies every monomial once per step however
    many symbols it evaluates. With coefficient arrays (a rotation table)
    the result is one value per entry.
    """
    missing = [mono for mono in poly if mono not in moments]
    if missing:
        lookup = _bra_lookup(bra)
        keys, vals = _support_arrays(ket_coeffs, dims)
        for mono in missing:
            moments[mono] = _moment(lookup, keys, vals, mono, hbar)
    total = 0j
    for mono, coeff in poly.items():
        total += coeff * moments[mono]
    return total


def _check_block(rows: int, cols: int) -> None:
    """Refuse a rows x cols character block before it is allocated."""
    if rows * cols > _BLOCK_CAP:
        raise ResourceLimitError(
            f"character expectation needs a {rows} x {cols} block, over {_BLOCK_CAP} elements"
        )


def _char_product(bra: FockState, ket: FockState, chars, hbar: float, d: int) -> complex:
    total = 0j
    for coeff, w in chars:
        betas = _char_betas(w, hbar, d)
        term = coeff
        for j in range(d):
            fa, fb = bra.factors[j], ket.factors[j]
            _check_block(len(fa), len(fb))
            D = _displacement_matrix(betas[j], range(len(fa)), range(len(fb)))
            term *= complex(np.conjugate(fa) @ D @ fb)
        total += term
    return total


def _char_sparse(bra: FockState, ket_coeffs: dict, chars, hbar: float, d: int) -> complex:
    if not bra.is_product:
        mm, bvals = _support_arrays(bra.coeffs, d)
        kk, vals = _support_arrays(ket_coeffs, d)
        windows = _char_windows(mm, kk)
        total = 0j
        for coeff, w in chars:
            block = _char_block(mm, kk, windows, _char_betas(w, hbar, d))
            total += coeff * complex(np.conjugate(bvals) @ block @ vals)
        return total
    kk, vals = _support_arrays(ket_coeffs, d)
    total = 0j
    for coeff, w in chars:
        betas = _char_betas(w, hbar, d)
        term = np.ones(len(kk), dtype=complex)
        for j in range(d):
            fa = bra.factors[j]
            cols = _index_range(kk[:, j])
            _check_block(len(fa), len(cols))
            D = _displacement_matrix(betas[j], range(len(fa)), cols)
            row = np.conjugate(fa) @ D
            term *= row[kk[:, j] - cols.start]
        total += coeff * np.sum(term * vals)
    return complex(total)


def _char_windows(mm: np.ndarray, kk: np.ndarray) -> list[tuple[range, range]]:
    """Per-mode (rows, cols) index windows of a bra and a ket support.

    Every cap is checked here, before anything is allocated: the bra x ket
    block and each mode's displacement window.
    """
    _check_block(len(mm), len(kk))
    windows = [(_index_range(mm[:, j]), _index_range(kk[:, j])) for j in range(mm.shape[1])]
    for rows, cols in windows:
        _check_block(len(rows), len(cols))
    return windows


def _char_block(mm: np.ndarray, kk: np.ndarray, windows, betas) -> np.ndarray:
    """prod_j <mm[:, j]|D(betas[j])|kk[:, j]>: one window per mode, gathered on the supports."""
    block = np.ones((len(mm), len(kk)), dtype=complex)
    for j, (rows, cols) in enumerate(windows):
        D = _displacement_matrix(betas[j], rows, cols)
        block *= D[(mm[:, j] - rows.start)[:, None], kk[:, j] - cols.start]
    return block


def expectation(bra: FockState, ket: FockState, a: Symbol) -> complex:
    """<bra, Op_hbar(a) ket>, exact up to the states' tail bounds.

    Character terms evaluate <m|D(beta)|n> only for m and n inside the bra's
    and the ket's per-mode index ranges; NumericalError is raised when one of
    those elements is not finite (large m and n at once).
    """
    if bra.hbar != ket.hbar or bra.dims != ket.dims:
        raise ValidationError("states live in different spaces")
    if a.dims != bra.dims:
        raise ValidationError("symbol mode count does not match the states")
    if ket.is_product and not bra.is_product:
        return expectation(ket, bra, a.conj()).conjugate()  # Op(conj a) = Op(a)^dagger
    hbar = bra.hbar
    d = bra.dims
    total = 0j
    if a.poly:
        if ket.is_product:
            total += _poly_product(bra, ket, a.poly)
        else:
            total += _poly_sparse(bra, ket.coeffs, a.poly, hbar, d, {})
    if a.chars:
        if ket.is_product:
            total += _char_product(bra, ket, a.chars, hbar, d)
        else:
            total += _char_sparse(bra, ket.coeffs, a.chars, hbar, d)
    return complex(total)


def flowed_expectations(state: FockState, a: Symbol, thetas, moments: dict) -> np.ndarray:
    """<state, Op_hbar(a o rotation by thetas[i]) state> for every row of thetas.

    thetas has shape (A, d) and the state is sparse; a is expanded once by
    Symbol.rotation_table. Polynomial values are its coefficient arrays
    times the moments in `moments`, a map from monomial to moment that the
    caller keeps for this state: a missing moment is computed and stored, so
    each monomial is applied once per sweep step however many probes and
    rotations repeat it.
    Characters are evaluated by rotation covariance: one displacement window
    per (character, mode) at the unrotated parameters gives the support
    block B, and each angle is one vector-matrix product x_theta . B y_theta
    with the phases e^{+-i (k - lo).theta} folded into the state vectors.
    """
    poly, _ = a.rotation_table(thetas)
    total = np.zeros(len(thetas), dtype=complex)
    if poly:
        total += _poly_sparse(state, state.coeffs, poly, state.hbar, state.dims, moments)
    if a.chars:
        keys, vals = _support_arrays(state.coeffs, state.dims)
        windows = _char_windows(keys, keys)
        lo = np.array([rows.start for rows, _ in windows])
        phase = np.exp(1j * ((keys - lo) @ np.asarray(thetas, dtype=float).T)).T  # (A, S)
        xs = np.conjugate(vals) * phase
        ys = vals * np.conjugate(phase)
        for coeff, w in a.chars:
            block = _char_block(keys, keys, windows, _char_betas(w, state.hbar, state.dims))
            for i, (x, y) in enumerate(zip(xs, ys)):
                total[i] += coeff * complex(x @ block @ y)
    return total


# ---------------------------------------------------------------------------
# evolution (convention pinning) and persistence

def evolve(state: FockState, decomp: HarmonicDecomposition, t: float) -> FockState:
    """e^{-i t Op(H)/hbar} state: phase e^{-i t (omega.k + |omega|_1/2)} per index."""
    omega = decomp.spec.numeric
    half = sum(omega) / 2.0
    if state.is_product:
        fs = []
        for j, f in enumerate(state.factors):
            ks = np.arange(len(f))
            fs.append(f * np.exp(-1j * t * omega[j] * ks))
        fs[0] = fs[0] * np.exp(-1j * t * half)
        return FockState(
            state.hbar, state.dims, state.cutoff, state.tail_bound, None, tuple(fs)
        )
    coeffs = {
        k: c * np.exp(-1j * t * (sum(w * kj for w, kj in zip(omega, k)) + half))
        for k, c in state.coeffs.items()
    }
    return FockState(
        state.hbar, state.dims, state.cutoff, state.tail_bound, coeffs, None
    )


def dump_state(f, state: FockState, config_digest: str = "") -> None:
    from .reporting import write_csv

    if state.is_product:
        raise ValidationError("dump_state writes sparse states; project a product state first")
    items = sorted(state.coeffs.items())
    d = state.dims
    columns = [f"k{j + 1}" for j in range(d)] + ["re", "im"]
    rows = [list(k) + [c.real, c.imag] for k, c in items]
    meta = (f"hbar={state.hbar!r}", f"dims={d}")
    write_csv(f, columns, rows, config_digest, meta=meta)


def load_state(f) -> FockState:
    """Read a dump_state file; any malformed or non-finite entry is a ValidationError."""
    hbar = None
    dims = None
    coeffs: dict[FockIndex, complex] = {}
    header_seen = False
    for lineno, raw in enumerate(f, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("hbar="):
                    hbar = float(body[5:])
                elif body.startswith("dims="):
                    dims = int(body[5:])
                continue
            if not header_seen:
                header_seen = True  # column header
                continue
            parts = line.split(",")
            if dims is None:
                dims = len(parts) - 2
            if dims < 1 or len(parts) != dims + 2:
                raise ValueError(f"{len(parts)} fields for {dims} mode(s)")
            k = tuple(int(v) for v in parts[:dims])
            c = complex(float(parts[dims]), float(parts[dims + 1]))
            if any(v < 0 for v in k) or not cmath.isfinite(c):
                raise ValueError("negative index or non-finite coefficient")
        except ValueError as exc:
            raise ValidationError(f"state file line {lineno}: {exc}") from None
        coeffs[k] = c
    if hbar is None or dims is None or not coeffs:
        raise ValidationError("state file is missing header or data")
    cutoff = tuple(max(k[j] for k in coeffs) for j in range(dims))
    return FockState(
        hbar=hbar, dims=dims, cutoff=cutoff, tail_bound=0.0, coeffs=coeffs
    )
