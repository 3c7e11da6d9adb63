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
mode; a non-finite element raises NumericalError. The moments
<bra|Op(x^a xi^b)|ket> of a sparse ket come from one batched kernel
(_moments): the ket support as an (S, d) key array, each acted-on mode's
band rows, built once per (mode, a, b), combined over the small box of
offsets, and the bra read at k + offset once per box (a sparse bra through
sorted integer codes, a product bra from its factors); one sum per monomial.
Product states (coherent) keep per-mode factor vectors and use factorized
fast paths; projected states are sparse coefficient maps.

The special functions are written here in numpy and math, with no
special-function library behind them. Coherent amplitudes are Poisson probabilities in Loader's
saddle-point form (Stirling error plus deviance), whose error does not
grow with |alpha|^2, and the tail that sets the cutoff is summed from the
far end. A displacement element is a log-space prefactor times
1F1(-p; q+1; |beta|^2), summed by its terminating series, whose length is
set by p |beta|^2; the difference form of the Laguerre recurrence, O(p),
takes over only where the series would lose absolute accuracy, and raises
ResourceLimitError past degree 2^14.

flowed_expectations evaluates one symbol at a whole grid of flow angles on
a sparse state, for scarlab.residuals. Its polynomial values are the
coefficient arrays of Symbol.rotation_table times moments <psi|Op(x^a xi^b)|psi>
read from a map that scarlab.residuals fills with one _moments call per
sweep step, so each monomial is applied once per step however often the
probes and angles repeat it; expectation starts a fresh map per call. Its
character values use rotation covariance: the flow
is diagonal in the number basis, so <m|D(beta e^{i theta})|n> =
e^{i (m - n) theta} <m|D(beta)|n>. One displacement window per (character,
mode) at the unrotated beta gives the support block B, and angle theta is
x_theta . B y_theta with x_theta = conj(b) e^{i (k - lo).theta} and
y_theta = b e^{-i (k - lo).theta}, the phases measured from each mode's
window start lo so that their arguments stay small at deep hbar.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

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

# log(n!) - (n + 1/2) log n + n - log(2 pi)/2 at n = 0..15 (n = 0 unused),
# rounded from 50-digit values; _stirlerr uses the asymptotic series above 15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Stirling's error log(n!) - (n + 1/2) log n + n - log(2 pi)/2 for integers n >= 1.

    A table up to 15, the asymptotic series (five terms) beyond (C. Loader,
    "Fast and Accurate Computation of Binomial Probabilities", 2000).
    """
    small = n.min() <= 15
    nf = (np.maximum(n, 15) if small else n).astype(float)
    nn = nf * nf
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / nf
    return np.where(n > 15, series, _STIRLERR[np.minimum(n, 15)]) if small else series


def _bd0(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The deviance k log(k/mu) + mu - k for k >= 1 and mu > 0, without cancellation.

    Where |k - mu| < (k + mu)/10 it is Loader's series in v = (k - mu)/(k + mu),
    (k - mu) v + 2k v sum_j v^(2j)/(2j+1), summed by Horner to j = 10, past
    which v^20 < 1e-20; elsewhere k log1p((k - mu)/mu) - (k - mu) cancels
    at most about tenfold.
    """
    out = np.empty(len(k))
    near = np.abs(k - mu) < 0.1 * (k + mu)
    far_k, far_mu = k[~near], mu[~near]
    gap = far_k - far_mu
    out[~near] = far_k * np.log1p(gap / far_mu) - gap
    k, mu = k[near], mu[near]
    v = (k - mu) / (k + mu)
    w = v * v
    tail = 1.0 / 21.0
    for j in range(9, 0, -1):
        tail = tail * w + 1.0 / (2 * j + 1)
    out[near] = (k - mu) * v + 2.0 * k * v * (w * tail)
    return out


def _poisson_logpmf(ks: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """log P(X = k) for X ~ Poisson(mu), per element of the integers ks >= 0 and means mu > 0.

    Loader's form -stirlerr(k) - bd0(k, mu) - log(2 pi k)/2, and -mu at
    k = 0: no term of size mu log mu cancels, so the error stays at
    rounding for any mu.
    """
    k = np.maximum(ks, 1)
    with np.errstate(over="ignore"):  # (k - mu)/mu overflows for subnormal mu: pmf(k) = 0
        logpmf = -_stirlerr(k) - _bd0(k.astype(float), mu) - 0.5 * np.log(2.0 * math.pi * k)
    return np.where(ks > 0, logpmf, -mu)


def _poisson_tails(mus: Sequence[float], k_maxes: Sequence[int]) -> list:
    """log P(X = k) and the tail P(X > k) for k = 0..k_max, X ~ Poisson(mu), per (mu, k_max).

    One _poisson_logpmf pass covers every mean. Each tail is summed from
    k_max down, smallest terms first, so it keeps its relative accuracy
    where 1 - cdf would cancel to ~1e-13; the mass past k_max (> mu) is
    bounded by the geometric series pmf(k_max + 1) / (1 - mu / (k_max + 2)).
    """
    sizes = [k_max + 2 for k_max in k_maxes]
    if not sizes:
        return []
    logpmf = _poisson_logpmf(
        np.concatenate([np.arange(n) for n in sizes]), np.repeat(np.asarray(mus, dtype=float), sizes)
    )
    pmf = np.exp(logpmf)
    out, start = [], 0
    for mu, k_max in zip(mus, k_maxes):
        seg = slice(start, start + k_max + 2)
        start += k_max + 2
        p = pmf[seg]
        beyond = float(p[-1]) * (k_max + 2) / (k_max + 2 - mu)
        tail = np.cumsum(np.concatenate(([beyond], p[k_max:0:-1])))[::-1]
        out.append((logpmf[seg][:-1], tail))
    return out


def coherent(z0: PhasePoint, hbar: float, tail_tol: float = 1e-12) -> FockState:
    """Product coherent state centered at z0.

    Mode j carries alpha_j = (x_j + i xi_j)/sqrt(2 hbar); the per-mode cutoff
    is the smallest K with Poisson(|alpha|^2) tail below tail_tol / d, and
    the amplitudes are square roots of Poisson probabilities taken in log
    space (_poisson_tails, one pass for all modes), so no factorial ever
    overflows.
    """
    if not 0 < tail_tol < 1:
        raise ValidationError("tail_tol must lie in (0, 1)")
    if not 0 < hbar < math.inf:
        raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
    d = z0.dims
    per_mode = tail_tol / d
    excited = []  # (j, alpha, mu, k_max) of every mode off the origin
    for j in range(d):
        alpha = complex(z0.x[j], z0.xi[j]) / math.sqrt(2.0 * hbar)
        mu = abs(alpha) ** 2
        if mu == 0.0:
            continue
        k_max = int(mu + 12.0 * math.sqrt(mu) + 25.0)
        if k_max > _MODE_CUTOFF_CAP:
            raise ResourceLimitError(
                f"mode {j}: |alpha|^2 = {mu:.3g} needs cutoff beyond {_MODE_CUTOFF_CAP}"
            )
        excited.append((j, alpha, mu, k_max))
    factors = [np.array([1.0 + 0j]) for _ in range(d)]
    tails = _poisson_tails([e[2] for e in excited], [e[3] for e in excited])
    for (j, alpha, mu, k_max), (logpmf, tail) in zip(excited, tails):
        # K = first index whose tail P(X > K) drops below the budget
        hit = np.nonzero(tail < per_mode)[0]
        if len(hit) == 0:
            raise ResourceLimitError(
                f"mode {j}: Poisson tail did not reach {per_mode:.3g} by k={k_max}"
            )
        K = int(hit[0])
        amp = np.exp(0.5 * logpmf[: K + 1])
        phase = np.exp(1j * np.angle(alpha) * np.arange(K + 1))
        factors[j] = amp * phase
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


def _exact_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row (rows are tiny)."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** c * v * _exact_det([row[:c] + row[c + 1:] for row in rows[1:]])
        for c, v in enumerate(rows[0])
        if v
    )


def gram(z0: PhasePoint, decomp: HarmonicDecomposition) -> GramResult:
    """Rank and Gram matrix of {grad Hcal_n(z0)}, plus the system at z0.

    The zero pattern is exact: mode j counts as excited iff x_j or xi_j is
    nonzero. The rank over Q of the projected weight vectors is computed by
    exact row reduction; when it is below d_omega the retained components
    absorb the dropped ones through rational transfer coefficients b, and
    the reduced system is an ordinary HarmonicDecomposition whose periods
    give the volume and whose components give the Gram matrix. Its
    determinant comes from the Cauchy-Binet formula with exact minors of
    the weights, a sum of nonnegative terms, so it is never negative.
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
    # Cauchy-Binet over the d0-subsets S of excited modes:
    # det = prod pivot^2 * sum_S det(W_S)^2 prod_{j in S} h2_j
    det = math.prod(c.pivot**2 for c in comps) * math.fsum(
        float(_exact_det([[c.weights[j] for j in S] for c in comps]) ** 2)
        * math.prod(h2[j] for j in S)
        for S in itertools.combinations([j for j, e in enumerate(excited) if e], d0)
    )
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
        * math.sqrt(g.det)
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
    c = sqrt(hbar / 2). Each distinct ladder word is built once
    (_ladder_word): at b = 0 all a + 1 terms are the one word X^a.
    """
    r = a + b
    idx = np.asarray(cols)[:, None] + np.arange(-r, r + 1)
    c = math.sqrt(hbar / 2.0)
    up = c * np.sqrt(np.maximum(idx[:, 1:], 0))  # A^+: m - 1 -> m
    down = c * np.sqrt(np.maximum(idx[:, :-1] + 1, 0))  # A: m + 1 -> m
    X, Xi = (up, down), (1j * up, -1j * down)
    words: dict[str, np.ndarray] = {}
    out = np.zeros(idx.shape, dtype=complex)
    for s in range(a + 1):
        word = "x" * (a - s) + "p" * b + "x" * s
        if word not in words:
            words[word] = _ladder_word(X, Xi, word)
        out += math.comb(a, s) * words[word]
    return out / 2.0**a


def _ladder_word(X, Xi, word: str) -> np.ndarray:
    """The band of one ladder word, letters applied first to last: 'x' is X, 'p' is Xi.

    X and Xi are (raise, lower) coefficient pairs on a band of radius
    len(word). Each step shifts every column's band one index up and down
    at once, so nothing is truncated and no dense matrix is built; offsets
    below index 0 stay exactly zero.
    """
    r = len(word)
    v = np.zeros((len(X[0]), 2 * r + 1), dtype=complex)
    v[:, r] = 1.0
    for letter in word:
        raise_, lower = X if letter == "x" else Xi
        w = np.zeros_like(v)
        w[:, 1:] = raise_ * v[:, :-1]
        w[:, :-1] += lower * v[:, 1:]
        v = w
    return v


_SERIES_CHUNK = 1 << 12  # elements per series pass, bounding its (terms, elements) arrays
_ERROR_LIMIT = 2.0**8  # max scale * |t_i|, so a series element errs by ~2^8 eps at most
_RECURRENCE_CAP = 1 << 14  # max degree p the recurrence runs to, about 0.15 s of numpy steps


def _laguerre_series(p: np.ndarray, q: np.ndarray, x: float, scale: np.ndarray) -> np.ndarray:
    """1F1(-p; q+1; x) per element by its terminating series; NaN where it failed.

    t_0 = 1, t_{i+1} = t_i (i - p) x / ((i + q + 1)(i + 1)); the series stops
    by itself at i = p, and its cost is set by p x, not by p. Terms come a
    block at a time, as a running product and a running sum, so every term
    and partial sum is rounded in the same order whatever the block length.
    |t_{i+1} / t_i| <= p x / (i + 1)^2 and |t_k| <= (p x)^k / k!^2, so a
    chunk's block is sized to bring the latter below 2^-58 at its largest
    p x (at most 16 terms), and most chunks take one block. An element is
    finished once its last term t_n is at most 2^-55 of its sum and every
    later ratio is at most 1/2 (n^2 >= 2 p x, checked at the chunk's largest
    p x), or t_n = 0: every later term
    is then below half an ulp of the sum and leaves its bits alone, so they
    depend on the element's own (p, q, x), not on the block length or on
    the other elements.
    The sum errs by about eps times its largest term, and the element is the
    sum times `scale`, an entry of a unit column; so an element fails once
    scale |t_i| exceeds _ERROR_LIMIT for some term. A small value near a
    zero of 1F1 keeps that absolute accuracy and does not fail.
    """
    out = np.empty(len(p))
    lims = _ERROR_LIMIT / scale
    for lo in range(0, len(p), _SERIES_CHUNK):
        idx = np.arange(lo, min(lo + _SERIES_CHUNK, len(p)))
        pf, q1, lim = p[idx].astype(float), q[idx] + 1.0, lims[idx]
        top = float(pf.max()) * x
        size, bound = 1, top
        while bound > 2.0**-58 and size < 16:
            size += 1
            bound *= top / (size * size)
        i, n, t, s = np.arange(float(size))[:, None], size, 1.0, 1.0
        while True:
            f = np.subtract(i, pf)  # row r: t_{i_r + 1} / t_{i_r}
            f *= x / (i + 1.0)
            f /= i + q1
            f[0] *= t
            np.multiply.accumulate(f, axis=0, out=f)
            ok = np.abs(f).max(axis=0) <= lim  # NaN fails
            t = f[-1].copy()
            f[0] += s
            s = np.add.accumulate(f, axis=0, out=f)[-1]
            out[idx] = np.where(ok, s, np.nan)
            tol = 2.0**-55 if n * n >= 2.0 * top else 0.0
            live = ok > (np.abs(t) <= tol * np.abs(s))
            if not live.any():
                break
            idx, pf, q1, lim, t, s = idx[live], pf[live], q1[live], lim[live], t[live], s[live]
            i = i + float(size)
            n += size
    return out


def _laguerre_recurrence(p: np.ndarray, q: np.ndarray, x: float) -> np.ndarray:
    """1F1(-p; q+1; x) for p >= 1 by the difference form of the Laguerre recurrence.

    d_1 = -x/(q + 1), P_1 = 1 + d_1, then d_{k+1} = -x P_k/(k + q + 1)
    + k d_k/(k + q + 1) and P_{k+1} = P_k + d_{k+1}, the difference form
    that integer-degree Laguerre evaluators use, stable where the series
    cancels.
    One numpy step per degree, over the elements not yet at their own p
    (sorted by p, so those are a prefix). A degree past _RECURRENCE_CAP
    raises ResourceLimitError before any step.
    """
    order = np.argsort(-p, kind="stable")
    ps, a = p[order], q[order] + 1.0
    if ps[0] > _RECURRENCE_CAP:
        raise ResourceLimitError(
            f"displacement kernel: at |beta|^2 = {x:.6g} the series for degree {int(ps[0])} "
            f"cancels (p |beta|^2 = {ps[0] * x:.3g}), and its recurrence is capped "
            f"at degree {_RECURRENCE_CAP}"
        )
    d = -x / a
    P = d + 1.0
    done = np.empty(len(ps))
    live = len(ps)
    for k in range(1, int(ps[0]) + 1):
        n = int(np.searchsorted(-ps, -k))  # elements with p > k
        done[n:live] = P[n:live]
        live = n
        if not n:
            break
        d, P, a = d[:n], P[:n], a[:n]
        den = k + a
        d = (-x / den) * P + (k / den) * d
        P = P + d
    out = np.empty(len(p))
    out[order] = done
    return out


def _displacement_real(p: np.ndarray, q: np.ndarray, x: float) -> np.ndarray:
    """<p + q|D(beta)|p> without its phase, for x = |beta|^2 > 0.

    x^{q/2} e^{-x/2} sqrt((p+q)!/p!) / q! times P = 1F1(-p; q+1; x)
    = L_p^q(x) / C(p+q, p). The prefactor is formed in log space, with
    log((p+q)!/p!) = q log p + (p + q + 1/2) log1p(q/p) - q + stirlerr(p+q)
    - stirlerr(p), so no two large log-factorials cancel, and q log p joins
    q log x as one log(x p); on the diagonal (q = 0) it is e^{-x/2} alone.
    P comes from the series, or from the recurrence for the elements where
    the series fails.
    """
    q_top = int(q.max())
    if q_top:
        lgq = np.array([math.lgamma(k + 1.0) for k in range(q_top + 1)])[q]
        p_zero = not p.all()
        p1 = np.maximum(p, 1) if p_zero else p
        top = p1 + q
        st = _stirlerr(np.concatenate((top, p1)))
        ratio = (top + 0.5) * np.log1p(q / p1) - q + (st[: len(p)] - st[len(p) :])
        log_pref = 0.5 * q * np.log(x * p1) + 0.5 * ratio - lgq
        if p_zero:
            log_pref = np.where(p > 0, log_pref, 0.5 * q * math.log(x) - 0.5 * lgq)
        pref = np.exp(log_pref - 0.5 * x)
    else:
        pref = np.exp(np.full(len(p), -0.5 * x))
    P = _laguerre_series(p, q, x, pref)
    slow = np.isnan(P)
    if slow.any():
        P[slow] = _laguerre_recurrence(p[slow], q[slow], x)
    return pref * P


def _displacement_matrix(beta: complex, rows: range, cols: range) -> np.ndarray:
    """<m|D(beta)|n> for m in rows, n in cols; exact per element.

    Cahill-Glauber form: with p = min(m, n), q = |m - n| and x = |beta|^2,
    the element is the real factor x^{q/2} e^{-x/2} sqrt((p+q)!/p!) / q!
    1F1(-p; q+1; x) (_displacement_real) times the unit phase
    (beta/|beta|)^q (m >= n) or (-conj beta/|beta|)^q, so no power of beta
    overflows. Each element depends only on (m, n, beta), so a window of
    the dense block has the same bits as the dense block sliced. Equal
    inputs are evaluated once: the real factor depends on (p, q), which
    (m, n) and (n, m) share, so a square window evaluates its upper
    triangle only, and the phase depends on the offset m - n alone. A
    non-finite beta or element raises NumericalError. Where the series
    would lose accuracy and p is past _RECURRENCE_CAP, ResourceLimitError
    is raised instead of an O(p) recurrence.
    """
    beta = complex(beta)
    try:
        mag2 = abs(beta) ** 2  # Python's abs and pow: numpy's complex abs rounds differently
    except OverflowError:
        mag2 = math.inf
    if not math.isfinite(mag2):
        raise NumericalError(f"displacement kernel: non-finite beta = {beta}")
    m = np.arange(rows.start, rows.stop)[:, None]
    offset = m - np.arange(cols.start, cols.stop)
    if rows == cols:
        upper = np.nonzero(offset <= 0)
        p, q = upper[0] + rows.start, upper[1] - upper[0]
    else:
        p, q = (m - np.maximum(offset, 0)).ravel(), np.abs(offset).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite: raised below
        real = _displacement_real(p, q, mag2) if mag2 else (q == 0).astype(float)
    if not np.isfinite(real).all():
        raise NumericalError(
            f"displacement kernel: non-finite <m|D(beta)|n> at |beta|^2 = {mag2:.6g} "
            f"with p up to {int(p.max())} and q up to {int(q.max())}"
        )
    if rows == cols:
        full = np.empty(offset.shape)
        full[upper] = full[upper[1], upper[0]] = real
        real = full
    else:
        real = real.reshape(offset.shape)
    low = rows.start - cols.stop + 1  # smallest offset m - n
    steps = np.arange(low, rows.stop - cols.start)
    unit = beta / abs(beta) if mag2 else 1.0
    phase = np.where(steps >= 0, unit, -unit.conjugate()) ** np.abs(steps)
    return real * phase[offset - low]


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


def _moments(bra: FockState, ket_coeffs: dict, monos, hbar: float, dims: int) -> dict:
    """<bra|Op(x^a xi^b)|ket> for every monomial in monos, as a map from monomial to moment.

    The ket support is one (S, d) key array. Each mode a monomial acts on
    contributes its _weyl_band rows, built once per (mode, a, b) for all
    monomials; their outer product over the box of offsets is the matrix
    element from k to k + offset. The bra is read at k + offset (_bra_lookup)
    once per box, a tuple of (acted mode, radius a + b), and every monomial
    with that box shares the read. Each moment is then one product and one
    sum over support and box, in the order a lone monomial would take, so
    its bits do not depend on which other monomials share the call.
    """
    if not monos:
        return {}
    lookup = _bra_lookup(bra)
    keys, vals = _support_arrays(ket_coeffs, dims)
    bands, reads, out = {}, {}, {}
    for mono in monos:
        acts = [(j, mono[j], mono[dims + j]) for j in range(dims) if mono[j] or mono[dims + j]]
        weight = vals[:, None]
        for j, a, b in acts:
            if (j, a, b) not in bands:
                bands[j, a, b] = _weyl_band(keys[:, j], a, b, hbar)
            weight = (weight[:, :, None] * bands[j, a, b][:, None, :]).reshape(len(keys), -1)
        box = tuple((j, a + b) for j, a, b in acts)
        if box not in reads:
            shifts = np.zeros((1, dims), dtype=np.int64)
            for j, r in box:
                step = np.zeros((2 * r + 1, dims), dtype=np.int64)
                step[:, j] = np.arange(-r, r + 1)
                shifts = (shifts[:, None, :] + step[None, :, :]).reshape(-1, dims)
            reads[box] = np.conjugate(lookup(keys[:, None, :] + shifts[None, :, :]))
        out[mono] = complex(np.sum(reads[box] * weight))
    return out


def _poly_sparse(
    bra: FockState, ket_coeffs: dict, poly, hbar: float, dims: int, moments: dict
):
    """sum over poly of coeff * <bra|Op(mono)|ket>, each moment read from `moments`.

    `moments` maps a monomial to its moment for this one (bra, ket) pair;
    the missing moments are computed by one _moments call and stored, so a
    caller that keeps the map for a sweep step applies every monomial once
    per step however many symbols it evaluates. With coefficient arrays (a
    rotation table) the result is one value per entry.
    """
    moments.update(
        _moments(bra, ket_coeffs, [mono for mono in poly if mono not in moments], hbar, dims)
    )
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


def flowed_expectations(
    state: FockState, a: Symbol, thetas, moments: dict, table: dict
) -> np.ndarray:
    """<state, Op_hbar(a o rotation by thetas[i]) state> for every row of thetas.

    thetas has shape (A, d) and the state is sparse. Polynomial values are
    the coefficient arrays of `table`, the poly part of
    a.rotation_table(thetas), which the caller expands once for every state,
    times the moments in `moments`, a map from monomial to moment that the
    caller keeps for this state: missing ones come from one _moments call
    and are stored, and scarlab.residuals fills the map for all its probes
    at once, so each monomial is applied once per sweep step.
    Characters are evaluated by rotation covariance: one displacement window
    per (character, mode) at the unrotated parameters gives the support
    block B, and each angle is one vector-matrix product x_theta . B y_theta
    with the phases e^{+-i (k - lo).theta} folded into the state vectors.
    """
    total = np.zeros(len(thetas), dtype=complex)
    if table:
        total += _poly_sparse(state, state.coeffs, table, state.hbar, state.dims, moments)
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
