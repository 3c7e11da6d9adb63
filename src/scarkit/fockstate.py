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
(_moments), split into a plan and an evaluation. The plan (_moment_plan,
a bounded cache keyed by the monomials and the mode count) holds what
depends only on the monomials: acted modes, ladder words, boxes of offsets
and gather indices. The evaluation takes the ket support as an (S, d) key
array, builds every band of the call in one real ladder recursion
(_ladder_bands), reads the bra at k + offset once for all boxes
(_bra_reads: a sparse bra through sorted integer codes, a product bra from
its factors) and forms one sum per monomial. Product states (coherent)
keep per-mode factor vectors and use factorized fast paths; projected
states are sparse coefficient maps, and an empty one gives 0.

The special functions are written here in numpy and math, with no
special-function library behind them. Coherent amplitudes are Poisson probabilities in Loader's
saddle-point form (Stirling error plus deviance), whose error does not
grow with |alpha|^2, and the tail that sets the cutoff is summed from the
far end. A displacement element is a log-space prefactor times
1F1(-p; q+1; |beta|^2), summed by its terminating series, whose length is
set by p |beta|^2; the difference form of the Laguerre recurrence, O(p),
takes over only where the series would lose absolute accuracy, and raises
ResourceLimitError past degree 2^14. The (character, mode) windows of one
character expectation share one such pass (_displacement_windows), |beta|^2
given per element, while they hold at most 2^18 elements, so a call with
many small windows pays the kernel's fixed numpy cost once; an element's
bits do not depend on the other elements of the pass.

Given (A, d) flow angles thetas and two sparse states, expectation returns
the A values of the symbol composed with each rotation. scarlab.residuals
sends it the character parts of all probes in one grouped call, one row
per probe; the polynomial parts come from the probes' rotation tables
times one batched _moments map per sweep step. Sparse characters, at one
zero angle or at many, for one probe or many, come from one routine
(_char_sparse) by rotation covariance: one displacement window per
(character, mode) at the unrotated beta, summed over each probe's
characters into one support block, and every angle read from it by one
stacked product whose per-angle sums do not depend on the number of
angles or probes, so angle 0 is the unrotated value bit for bit.
"""
from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

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
from .phasespace import PhasePoint, _once, component_energies
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
                if not 0 <= k[j] < len(f):
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
    *,
    _fixed: dict | None = None,
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
    `_fixed` is internal to sweep, not part of the interface: the memo of
    phasespace._once for this decomposition and E, which keeps the Gram data
    at z0 and the reduced system's sigma_membership for every step.
    """
    target = select_target(decomp, E, hbar, _fixed=_fixed)
    g = _once(_fixed, ("gram", z0), gram, z0, decomp)
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
        reduced = select_target(
            g.system,
            component_energies(g.system, z0),
            hbar,
            _fixed=_once(_fixed, ("reduced system", z0), dict),
        )
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

class _MomentPlan(NamedTuple):
    """What _moments needs of a monomial tuple that neither hbar nor the
    states change; every array is read-only.

    modes: the modes some monomial acts on. words: every distinct (position
    in modes, ladder word), longest first, and word_modes their positions;
    live[t] words are longer than t, and signs[t, w] is -1 where letter t of
    word w is 'p', else +1. bands: every (mode, a, b) a monomial acts with;
    term_words[i, s] is the word of McCoy term s of band i, term_combs[i, s]
    its binomial weight (0 past a) and scales[i] = 2^a. groups: the
    monomials that share a box, a tuple of (acted mode, radius a + b), as
    (monomials, the box's rows of shifts, each monomial's band per box mode,
    the box radii). shifts: the offsets of every box, box after box, each
    box's first mode outermost.
    """

    modes: tuple
    words: tuple
    word_modes: np.ndarray
    live: tuple
    signs: np.ndarray
    bands: tuple
    term_words: np.ndarray
    term_combs: np.ndarray
    scales: np.ndarray
    groups: tuple
    shifts: np.ndarray


@lru_cache(maxsize=256)
def _moment_plan(monos: tuple, dims: int) -> _MomentPlan:
    """The _MomentPlan of a tuple of monomials on dims modes, built once per
    (monos, dims) for every call and sweep step that asks for it."""
    acts = {m: [(j, m[j], m[dims + j]) for j in range(dims) if m[j] or m[dims + j]] for m in monos}
    bands = tuple(dict.fromkeys(act for acted in acts.values() for act in acted))
    modes = tuple(sorted({j for j, _, _ in bands}))
    terms = [  # McCoy term s of (j, a, b), X^s Xi^b X^(a-s), as letters applied first to last
        [(modes.index(j), "x" * (a - s) + "p" * b + "x" * s) for s in range(a + 1)]
        for j, a, b in bands
    ]
    words = tuple(sorted({w for term in terms for w in term}, key=lambda w: (-len(w[1]), w)))
    radius = len(words[0][1]) if words else 0
    top = max(map(len, terms), default=1)
    term_words = np.array(
        [[words.index(term[min(s, len(term) - 1)]) for s in range(top)] for term in terms],
        dtype=np.intp,
    ).reshape(len(terms), top)
    boxes: dict[tuple, list] = {}
    for m, acted in acts.items():
        boxes.setdefault(tuple((j, a + b) for j, a, b in acted), []).append(m)
    groups, shifts, start = [], [np.zeros((0, dims), dtype=np.int64)], 0
    for box, members in boxes.items():
        offsets = np.zeros((math.prod(2 * r + 1 for _, r in box), dims), dtype=np.int64)
        grid = itertools.product(*[range(-r, r + 1) for _, r in box])  # first mode outermost
        offsets[:, [j for j, _ in box]] = list(grid)
        table = np.array(
            [[bands.index(act) for act in acts[m]] for m in members], dtype=np.intp
        ).reshape(len(members), len(box))
        rows = slice(start, start + len(offsets))
        groups.append((tuple(members), rows, table, tuple(r for _, r in box)))
        shifts.append(offsets)
        start += len(offsets)
    plan = _MomentPlan(
        modes,
        words,
        np.array([m for m, _ in words], dtype=np.intp),
        tuple(sum(len(w) > t for _, w in words) for t in range(radius)),
        np.array(
            [[-1.0 if w[t : t + 1] == "p" else 1.0 for _, w in words] for t in range(radius)]
        ).reshape(radius, len(words)),
        bands,
        term_words,
        np.array([[math.comb(len(term) - 1, s) for s in range(top)] for term in terms], dtype=float)
        .reshape(len(terms), top),
        np.array([2.0 ** (len(term) - 1) for term in terms]),
        tuple(groups),
        np.concatenate(shifts),
    )
    for arr in [a for a in plan if isinstance(a, np.ndarray)] + [g[2] for g in groups]:
        arr.flags.writeable = False
    return plan


def _ladder_bands(cols: np.ndarray, plan: _MomentPlan, hbar: float) -> np.ndarray:
    """Real bands of every (mode, a, b) of plan on columns: out[i, k, R + o]
    is <c + o|Op(x^a xi^b)|c> / i^b for band i, c = cols[m, k] on the row m
    of its mode (one row per plan.modes), |o| <= R, R the longest word.

    The McCoy identity gives the Weyl order Op(x^a xi^b) = 2^{-a} sum_s
    C(a, s) X^s Xi^b X^{a-s}, with X = c (A + A^+), Xi = i c (A^+ - A) and
    c = sqrt(hbar / 2). One recursion evaluates every distinct ladder word
    of the plan, in real arithmetic: each letter shifts every column's band
    one index up and down at once, an 'x' with (raise, lower) and a 'p' with
    (raise, -lower), its factor i left to the caller (_complex_band); a word
    stops at its own length, so nothing is truncated, no dense matrix is
    built and offsets below index 0 stay zero. One part of every entry of
    the complex recursion is exactly 0, so these are its products and sums:
    every nonzero element keeps its bits, and a zero element is +0.
    """
    R = len(plan.signs)
    c = math.sqrt(hbar / 2.0)
    idx = cols[:, :, None] + np.arange(-R, R + 1)
    up = c * np.sqrt(np.maximum(idx[..., 1:], 0))  # A^+: m - 1 -> m
    down = c * np.sqrt(np.maximum(idx[..., :-1] + 1, 0))  # A: m + 1 -> m
    if len(plan.modes) > 1:
        up, down = up[plan.word_modes], down[plan.word_modes]
    v = np.zeros((len(plan.words), cols.shape[1], 2 * R + 1))
    v[..., R] = 1.0
    for live, signs in zip(plan.live, plan.signs):  # the live words are the longest, a prefix
        w = np.zeros((live,) + v.shape[1:])
        w[..., 1:] = up[:live] * v[:live, :, :-1]
        lower = down[:live] * v[:live, :, 1:]
        lower *= signs[:live, None, None]
        w[..., :-1] += lower
        v[:live] = w
    bands = np.zeros((len(plan.bands),) + v.shape[1:])
    for words, combs in zip(plan.term_words.T, plan.term_combs.T):
        bands += combs[:, None, None] * v[words]
    bands /= plan.scales[:, None, None]
    return bands


def _complex_band(band: np.ndarray, b) -> np.ndarray:
    """i^b times real bands of _ladder_bands, b one power or one per leading
    row: the complex bands of the complex recursion, bit for bit, with +0
    in the part the power of i leaves empty."""
    b = np.reshape(b, (-1,) + (1,) * (band.ndim - 1)) % 4
    main = band * np.where(b < 2, 1.0, -1.0)
    main += 0.0  # turns -0 into +0
    out = np.zeros(band.shape, dtype=complex)
    np.copyto(out.real, main, where=b % 2 == 0)
    np.copyto(out.imag, main, where=b % 2 == 1)
    return out


_SERIES_CHUNK = 1 << 11  # elements per series pass, bounding its (terms, elements) arrays
_ERROR_LIMIT = 2.0**8  # max scale * |t_i|, so a series element errs by ~2^8 eps at most
_RECURRENCE_CAP = 1 << 14  # max degree p the recurrence runs to, about 0.15 s of numpy steps
_KERNEL_CHUNK = 1 << 18  # elements per kernel pass of small windows


def _laguerre_series(p: np.ndarray, q: np.ndarray, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
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
        pf, q1, xs, lim = p[idx].astype(float), q[idx] + 1.0, x[idx], lims[idx]
        top = float((pf * xs).max())
        size, bound = 1, top
        while bound > 2.0**-58 and size < 16:
            size += 1
            bound *= top / (size * size)
        i, n, t, s = np.arange(float(size))[:, None], size, 1.0, 1.0
        while True:
            f = np.subtract(i, pf)  # row r: t_{i_r + 1} / t_{i_r}
            f *= xs / (i + 1.0)
            f /= i + q1
            f[0] *= t
            np.multiply.accumulate(f, axis=0, out=f)
            ok = np.maximum(f.max(axis=0), -f.min(axis=0)) <= lim  # max |f| in place; NaN fails
            t = f[-1].copy()
            f[0] += s
            s = np.add.accumulate(f, axis=0, out=f)[-1]
            out[idx] = np.where(ok, s, np.nan)
            tol = 2.0**-55 if n * n >= 2.0 * top else 0.0
            live = ok > (np.abs(t) <= tol * np.abs(s))
            if not live.any():
                break
            idx, pf, q1, xs, lim = idx[live], pf[live], q1[live], xs[live], lim[live]
            t, s = t[live], s[live]
            i = i + float(size)
            n += size
    return out


def _laguerre_recurrence(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
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
    ps, a, xs = p[order], q[order] + 1.0, x[order]
    if ps[0] > _RECURRENCE_CAP:
        raise ResourceLimitError(
            f"displacement kernel: at |beta|^2 = {xs[0]:.6g} the series for degree {int(ps[0])} "
            f"cancels (p |beta|^2 = {ps[0] * xs[0]:.3g}), and its recurrence is capped "
            f"at degree {_RECURRENCE_CAP}"
        )
    d = -xs / a
    P = d + 1.0
    done = np.empty(len(ps))
    live = len(ps)
    for k in range(1, int(ps[0]) + 1):
        n = int(np.searchsorted(-ps, -k))  # elements with p > k
        done[n:live] = P[n:live]
        live = n
        if not n:
            break
        d, P, a, xs = d[:n], P[:n], a[:n], xs[:n]
        den = k + a
        d = (-xs / den) * P + (k / den) * d
        P = P + d
    out = np.empty(len(p))
    out[order] = done
    return out


def _displacement_prefactor(p: np.ndarray, q: np.ndarray, x: np.ndarray, log_fact) -> np.ndarray:
    """x^{q/2} e^{-x/2} sqrt((p+q)!/p!) / q! per element, for x > 0.

    Formed in log space, with log((p+q)!/p!) = q log p + (p + q + 1/2)
    log1p(q/p) - q + stirlerr(p+q) - stirlerr(p), so no two large
    log-factorials cancel, and q log p joins q log x as one log(x p); on the
    diagonal (q = 0) it is e^{-x/2} alone, and at p = 0 it takes log x from
    math.log. log_fact[k] is log k! (math.lgamma) for k up to the largest q.
    """
    if not q.any():
        return np.exp(-0.5 * x)
    lgq = log_fact[q]
    p_zero = not p.all()
    p1 = np.maximum(p, 1) if p_zero else p
    top = p1 + q
    st = _stirlerr(np.concatenate((top, p1)))
    ratio = (top + 0.5) * np.log1p(q / p1) - q + (st[: len(p)] - st[len(p) :])
    log_pref = 0.5 * q * np.log(x * p1) + 0.5 * ratio - lgq
    if p_zero:
        at = p == 0
        log_x = np.array([math.log(v) for v in x[at].tolist()])
        log_pref[at] = 0.5 * q[at] * log_x - 0.5 * lgq[at]
    return np.exp(log_pref - 0.5 * x)


def _displacement_real(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<p + q|D(beta)|p> without its phase, per element, for x = |beta|^2 > 0.

    The prefactor (_displacement_prefactor) times P = 1F1(-p; q+1; x)
    = L_p^q(x) / C(p+q, p). P comes from the series, or from one recurrence
    call for every element where the series fails. Prefactor and series run
    _SERIES_CHUNK elements at a time and keep only their product (and the
    prefactor where the series failed), so the temporaries of a pass, whose
    prefactor holds about 15 arrays the size of its chunk, stay small
    however many windows share it; the table of log q! is built once per
    pass. Each element's arithmetic involves only its own (p, q, x), so its
    bits do not depend on the other elements.
    """
    out = np.empty(len(p))
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(int(q.max(initial=0)) + 1)])
    slow, slow_pref = [], []
    for lo in range(0, len(p), _SERIES_CHUNK):
        part = slice(lo, lo + _SERIES_CHUNK)
        pref = _displacement_prefactor(p[part], q[part], x[part], log_fact)
        P = _laguerre_series(p[part], q[part], x[part], pref)
        out[part] = pref * P
        failed = np.isnan(P)
        if failed.any():
            slow.append(lo + np.flatnonzero(failed))
            slow_pref.append(pref[failed])
    if slow:
        at = np.concatenate(slow)
        out[at] = np.concatenate(slow_pref) * _laguerre_recurrence(p[at], q[at], x[at])
    return out


def _beta_mag2(beta: complex) -> float:
    """|beta|^2 by Python's abs and pow (numpy's complex abs rounds differently);
    NumericalError when it is not finite."""
    try:
        mag2 = abs(complex(beta)) ** 2
    except OverflowError:
        mag2 = math.inf
    if not math.isfinite(mag2):
        raise NumericalError(f"displacement kernel: non-finite beta = {complex(beta)}")
    return mag2


def _window_offsets(rows: range, cols: range) -> np.ndarray:
    """m - n over a window, m in rows down, n in cols across."""
    return np.arange(rows.start, rows.stop)[:, None] - np.arange(cols.start, cols.stop)


def _window_pq(rows: range, cols: range, upper) -> tuple[np.ndarray, np.ndarray]:
    """p = min(m, n) and q = |m - n| of the elements a window evaluates, in
    row-major order: the upper triangle m <= n of a square window, marked
    by the mask upper, else all (upper None)."""
    if upper is not None:
        i, j = np.nonzero(upper)
        return i + rows.start, j - i
    offset = _window_offsets(rows, cols)
    p = np.arange(rows.start, rows.stop)[:, None] - np.maximum(offset, 0)
    return p.ravel(), np.abs(offset).ravel()


def _window_phase(unit: complex, rows: range, cols: range) -> np.ndarray:
    """unit^(m - n) where m >= n, else (-conj unit)^(n - m), over a window:
    one table over the offsets m - n, read through a Toeplitz view, so no
    per-element index or phase array is made."""
    low = rows.start - cols.stop + 1  # smallest offset m - n
    steps = np.arange(low, rows.stop - cols.start)
    table = np.where(steps >= 0, unit, -unit.conjugate()) ** np.abs(steps)
    s = table.itemsize  # element [i, j] reads table[i - j + len(cols) - 1], at m - n
    return np.ndarray((len(rows), len(cols)), table.dtype, table, (len(cols) - 1) * s, (s, -s))


def _displacement_windows(windows):
    """<m|D(beta)|n> for m in rows, n in cols, one array per (beta, rows, cols) window.

    Cahill-Glauber form: with p = min(m, n), q = |m - n| and x = |beta|^2,
    the element is the real factor x^{q/2} e^{-x/2} sqrt((p+q)!/p!) / q!
    1F1(-p; q+1; x) (_displacement_real) times the unit phase
    (beta/|beta|)^q (m >= n) or (-conj beta/|beta|)^q, so no power of beta
    overflows. The real factors of consecutive windows share one
    _displacement_real pass, x given per element, while their elements
    number at most _KERNEL_CHUNK (a larger window takes a pass of its own),
    so a call with many small windows pays the kernel's fixed cost once and
    one with large windows holds one window's arrays at a time. Each element
    depends only on (m, n, beta), so a window has the same bits alone, in
    any list, and as a slice of the dense block. Equal inputs are evaluated
    once: the real factor depends on (p, q), which (m, n) and (n, m) share,
    so a square window evaluates its upper triangle only, and the phase
    depends on the offset m - n alone. A non-finite beta raises
    NumericalError before any element is evaluated, a non-finite element
    after its pass and before its window is returned. Where the series
    would lose accuracy and p is past _RECURRENCE_CAP, ResourceLimitError
    is raised instead of an O(p) recurrence. The windows are yielded one at
    a time, so only one complex window is held at once.
    """
    windows = [(beta, rows, cols, _beta_mag2(beta)) for beta, rows, cols in windows]
    group, size = [], 0
    for window in windows:
        _, rows, cols, mag2 = window
        if not mag2:
            n = 0
        else:
            n = len(rows) * (len(rows) + 1) // 2 if rows == cols else len(rows) * len(cols)
        if group and size + n > _KERNEL_CHUNK:
            yield from _window_pass(group)
            group, size = [], 0
        group.append(window)
        size += n
    yield from _window_pass(group)


def _window_pass(windows):
    """The windows of _displacement_windows, (beta, rows, cols, |beta|^2) each,
    from one _displacement_real pass. Windows over the same (rows, cols),
    the characters of one call in one mode, share their upper-triangle mask
    and their (p, q) arrays."""
    keys = dict.fromkeys((rows, cols) for _, rows, cols, _ in windows)
    uppers = {(r, c): _window_offsets(r, c) <= 0 if r == c else None for r, c in keys}
    live = [(mag2, rows, cols) for _, rows, cols, mag2 in windows if mag2]
    if live:
        pqs = {}
        for _, rows, cols in live:
            if (rows, cols) not in pqs:
                pqs[rows, cols] = _window_pq(rows, cols, uppers[rows, cols])
        sizes = [len(pqs[rows, cols][0]) for _, rows, cols in live]
        p = np.concatenate([pqs[rows, cols][0] for _, rows, cols in live])
        q = np.concatenate([pqs[rows, cols][1] for _, rows, cols in live])
        del pqs
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite: raised below
            real = _displacement_real(p, q, np.repeat([mag2 for mag2, _, _ in live], sizes))
        ends = list(itertools.accumulate(sizes))
        if not np.isfinite(real).all():
            w = bisect.bisect_right(ends, int(np.flatnonzero(~np.isfinite(real))[0]))
            seg = slice(ends[w] - sizes[w], ends[w])
            raise NumericalError(
                f"displacement kernel: non-finite <m|D(beta)|n> at |beta|^2 = {live[w][0]:.6g} "
                f"with p up to {int(p[seg].max())} and q up to {int(q[seg].max())}"
            )
        reals = iter([real[end - n : end] for n, end in zip(sizes, ends)])
        del p, q
    for beta, rows, cols, mag2 in windows:
        upper = uppers[rows, cols]
        if not mag2:
            full = (_window_offsets(rows, cols) == 0).astype(float)
        elif upper is not None:
            full = np.empty(upper.shape)
            full[upper] = full.T[upper] = next(reals)
        else:
            full = next(reals).reshape(len(rows), len(cols))
        beta = complex(beta)
        yield full * _window_phase(beta / abs(beta) if mag2 else 1.0, rows, cols)


def _displacement_matrix(beta: complex, rows: range, cols: range) -> np.ndarray:
    """<m|D(beta)|n> for m in rows, n in cols: the one window of _displacement_windows."""
    (D,) = _displacement_windows([(beta, rows, cols)])
    return D


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
                (band,) = _ladder_bands(n[None], _moment_plan(((a, b),), 1), bra.hbar)
                W = _complex_band(band, b) * fb[:, None]
                term *= complex(np.conjugate(fa[m[ok]]) @ W[ok])
            if term == 0:
                break
        total += term
    return total


def _support_arrays(coeffs: dict, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """A sparse map as an (S, dims) int64 key array and its (S,) amplitudes."""
    keys = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), dims)
    return keys, np.array(list(coeffs.values()), dtype=complex)


def _bra_reads(bra: FockState, ket_coeffs: dict, keys, vals, shifts: np.ndarray) -> np.ndarray:
    """conj(<k + o|bra>) for every ket index k of keys (rows) and offset o of
    shifts (columns); indices outside the bra's support, negative ones
    included, read 0.

    A product bra multiplies its factors, mode by mode. A sparse bra is read
    through integer codes of its bounding box, sorted once and searched with
    searchsorted: code(k + o) = code(k) + code(o), with the in-box test done
    per mode, so no (S, B, d) index array is formed. A bra that is the ket
    reuses the ket's arrays.
    """
    if bra.is_product:
        out = np.ones((len(keys), len(shifts)), dtype=complex)
        for j, f in enumerate(bra.factors):
            k = keys[:, j, None] + shifts[:, j]
            inside = (k >= 0) & (k < len(f))
            out *= np.where(inside, f[np.where(inside, k, 0)], 0)
        return np.conjugate(out)
    same = bra.coeffs is ket_coeffs
    bkeys, bvals = (keys, vals) if same else _support_arrays(bra.coeffs, bra.dims)
    if not len(bkeys):
        return np.zeros((len(keys), len(shifts)), dtype=complex)
    lo, hi = bkeys.min(axis=0), bkeys.max(axis=0)
    extents = [int(e) for e in hi - lo + 1]
    if math.prod(extents) >= 2**63:
        raise ResourceLimitError(
            f"support box {extents} has more points than an int64 code can number"
        )
    strides = np.array([math.prod(extents[j + 1 :]) for j in range(bra.dims)], dtype=np.int64)
    codes = (bkeys - lo) @ strides
    order = np.argsort(codes, kind="stable")  # the sort lattice_solver already pages in
    codes, bvals = codes[order], bvals[order]
    code = ((keys - lo) @ strides)[:, None] + shifts @ strides
    inside = np.ones(code.shape, dtype=bool)
    for j in range(bra.dims):
        k = keys[:, j, None] + shifts[:, j]
        inside &= (k >= lo[j]) & (k <= hi[j])
    pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
    return np.conjugate(np.where(inside & (codes[pos] == code), bvals[pos], 0))


def _moments(bra: FockState, ket_coeffs: dict, monos, hbar: float, dims: int) -> dict:
    """<bra|Op(x^a xi^b)|ket> for every monomial in monos, as a map from monomial to moment.

    The monomials' _MomentPlan comes from a bounded cache, so its words,
    boxes and shifts are built once for every call that asks for the same
    monomials. The ket support is one (S, d) key array; one _ladder_bands
    recursion gives the real band of every (mode, a, b) on it, which then
    takes its factor i^b (_complex_band), and one _bra_reads call reads the
    bra at k + offset for every box. The monomials of one box are weighted
    together: the outer product of a monomial's bands over the box times
    the ket amplitude is the matrix element from k to k + offset. Each
    moment is then one sum over its own S x B products, in the order a lone
    monomial would take, so its bits do not depend on which other monomials
    share the call. An empty ket gives 0.
    """
    if not monos:
        return {}
    plan = _moment_plan(tuple(monos), dims)
    keys, vals = _support_arrays(ket_coeffs, dims)
    if not len(keys):
        return dict.fromkeys(monos, 0j)
    bands = _ladder_bands(keys[:, list(plan.modes)].T, plan, hbar)
    bands = _complex_band(bands, [b for _, _, b in plan.bands])
    R = bands.shape[2] // 2
    reads = _bra_reads(bra, ket_coeffs, keys, vals, plan.shifts)
    out = {}
    for members, rows, table, radii in plan.groups:
        weight = vals[None, :, None]
        for i, r in enumerate(radii):
            band = bands[table[:, i], :, R - r : R + r + 1]
            weight = (weight[..., None] * band[:, :, None, :]).reshape(len(members), len(keys), -1)
        sums = (reads[:, rows] * weight).reshape(len(members), -1).sum(axis=1)
        out.update(zip(members, sums.tolist()))
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


def _char_kernel(chars, hbar: float, ranges):
    """The window of every (character, mode) over the per-mode (rows, cols)
    ranges, character by character, from one _displacement_windows pass."""
    return _displacement_windows([
        (beta, rows, cols)
        for _, w in chars
        for beta, (rows, cols) in zip(_char_betas(w, hbar, len(ranges)), ranges)
    ])


def _char_product(bra: FockState, ket: FockState, chars, hbar: float, d: int) -> complex:
    ranges = [(range(len(fa)), range(len(fb))) for fa, fb in zip(bra.factors, ket.factors)]
    for rows, cols in ranges:
        _check_block(len(rows), len(cols))
    windows = _char_kernel(chars, hbar, ranges)
    total = 0j
    for coeff, _ in chars:
        term = coeff
        for fa, fb, D in zip(bra.factors, ket.factors, windows):
            term *= complex(np.conjugate(fa) @ D @ fb)
        total += term
    return total


def _char_sparse(bra_coeffs: dict, ket_coeffs: dict, groups, hbar: float, thetas) -> np.ndarray:
    """Row g, entry i: sum over groups[g] of coeff * <bra|D(beta rotated by thetas[i])|ket>.

    Rotation covariance: the flow is diagonal in the number basis, so
    <m|D(beta e^{i theta})|n> = e^{i (m - n) theta} <m|D(beta)|n>. The
    displacement windows of every (character, mode) of every group, at the
    unrotated beta, come from one _displacement_windows call, and the support
    arrays and phase tables are formed once for all groups (a bra that is
    the ket reuses the ket's). Each group gives one
    support block B = sum over its chars of coeff * prod_j <m_j|D(beta_j)|k_j>;
    angle theta is e^{i (lo_bra - lo_ket).theta} x_theta . B y_theta with
    x_theta = conj(bra) e^{i (m - lo_bra).theta} and y_theta = ket
    e^{-i (k - lo_ket).theta}: each state's phases are measured from its own
    window start, so their arguments stay small at deep hbar. Every angle of
    a group comes from one stacked product, (A, 1, M) @ B @ (A, S, 1), which
    numpy evaluates as one vector-matrix and one vector-vector product per
    angle: an angle's sums do not depend on how many angles share the call,
    so angle 0 is an unrotated evaluation bit for bit, and a group's row
    does not depend on the other groups.
    """
    d = thetas.shape[1]
    kk, vals = _support_arrays(ket_coeffs, d)
    mm, bvals = (kk, vals) if bra_coeffs is ket_coeffs else _support_arrays(bra_coeffs, d)
    ranges = _char_windows(mm, kk)
    lo_bra = np.array([rows.start for rows, _ in ranges])
    lo_ket = np.array([cols.start for _, cols in ranges])
    at = [  # each mode's support indices in its window
        ((mm[:, j] - rows.start)[:, None], kk[:, j] - cols.start)
        for j, (rows, cols) in enumerate(ranges)
    ]
    windows = _char_kernel([c for chars in groups for c in chars], hbar, ranges)
    ket_phase = np.exp(1j * (thetas @ (kk - lo_ket).T))
    bra_phase = ket_phase if mm is kk else np.exp(1j * (thetas @ (mm - lo_bra).T))
    xs = np.conjugate(bvals) * bra_phase  # (A, M)
    ys = vals * np.conjugate(ket_phase)  # (A, S)
    shift = np.exp(1j * (thetas @ (lo_bra - lo_ket)))
    out = np.empty((len(groups), len(thetas)), dtype=complex)
    for g, chars in enumerate(groups):
        block = part = None  # the last group's arrays go before this group's are made
        block = np.zeros((len(mm), len(kk)), dtype=complex)
        for coeff, _ in chars:
            part = np.full(block.shape, complex(coeff))
            for (rows, cols), D in zip(at, windows):
                part *= D[rows, cols]
            block += part
        out[g] = ((xs[:, None, :] @ block) @ ys[:, :, None])[:, 0, 0] * shift
    return out


def _char_product_bra(bra: FockState, ket_coeffs: dict, chars, hbar: float, d: int) -> complex:
    kk, vals = _support_arrays(ket_coeffs, d)
    ranges = [(range(len(fa)), _index_range(kk[:, j])) for j, fa in enumerate(bra.factors)]
    for rows, cols in ranges:
        _check_block(len(rows), len(cols))
    windows = _char_kernel(chars, hbar, ranges)
    total = 0j
    for coeff, _ in chars:
        term = np.ones(len(kk), dtype=complex)
        for j, (fa, (_, cols), D) in enumerate(zip(bra.factors, ranges, windows)):
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
    cols = [_index_range(kk[:, j]) for j in range(kk.shape[1])]
    rows = cols if mm is kk else [_index_range(mm[:, j]) for j in range(mm.shape[1])]
    windows = list(zip(rows, cols))
    for rows, cols in windows:
        _check_block(len(rows), len(cols))
    return windows


def expectation(
    bra: FockState,
    ket: FockState,
    a: Symbol,
    thetas=None,
    *,
    _groups=None,
    _moment_map: dict | None = None,
):
    """<bra, Op_hbar(a) ket>, exact up to the states' tail bounds.

    Character terms evaluate <m|D(beta)|n> only for m and n inside the bra's
    and the ket's per-mode index ranges; NumericalError is raised when one of
    those elements is not finite (large m and n at once).
    With thetas, an (A, d) array of flow angles, both states must be sparse
    and the result is the array of the A values <bra, Op_hbar(a o rotation
    by thetas[i]) ket>: the polynomial part through a.rotation_table(thetas)
    and one batched _moments call, the characters by rotation covariance
    (_char_sparse), so the displacement windows do not grow with A.
    Every (character, mode) window of a call, in any representation, comes
    from one _displacement_windows call: one kernel pass for windows of up
    to _KERNEL_CHUNK elements in all. A sparse state with no coefficients
    gives 0.
    `_groups` and `_moment_map` are internal to scarlab, not part of the
    interface. `_groups` is a list of character tuples, the characters of
    several probes, and asks for one row per group, each equal to a lone
    call on that group bit for bit, from one pass over the states: one
    window pass, one set of support arrays and phase tables. `a` then
    carries all of their characters, and its polynomial part is not
    evaluated. `_moment_map` is a moment map of this (bra, ket) pair that
    the polynomial part reads and extends (_poly_sparse).
    """
    if bra.hbar != ket.hbar or bra.dims != ket.dims:
        raise ValidationError("states live in different spaces")
    if a.dims != bra.dims:
        raise ValidationError("symbol mode count does not match the states")
    if (thetas is not None or _groups is not None) and (bra.is_product or ket.is_product):
        raise ValidationError("flowed and grouped expectations need sparse states; project first")
    if ket.is_product and not bra.is_product:
        return expectation(ket, bra, a.conj()).conjugate()  # Op(conj a) = Op(a)^dagger
    hbar = bra.hbar
    d = bra.dims
    angles = np.zeros((1, d)) if thetas is None else np.asarray(thetas, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != d:
        raise ValidationError("need one angle per mode")
    rows = np.zeros((1 if _groups is None else len(_groups), len(angles)), dtype=complex)
    total = rows[0]
    if {} in (bra.coeffs, ket.coeffs):  # a sparse state with no coefficients
        pass
    elif _groups is not None:
        rows += _char_sparse(bra.coeffs, ket.coeffs, _groups, hbar, angles)
    else:
        if a.poly:
            if ket.is_product:
                total += _poly_product(bra, ket, a.poly)
            else:
                poly = a.poly if thetas is None else a.rotation_table(angles)[0]
                moments = {} if _moment_map is None else _moment_map
                total += _poly_sparse(bra, ket.coeffs, poly, hbar, d, moments)
        if a.chars:
            if ket.is_product:
                total += _char_product(bra, ket, a.chars, hbar, d)
            elif bra.is_product:
                total += _char_product_bra(bra, ket.coeffs, a.chars, hbar, d)
            else:
                total += _char_sparse(bra.coeffs, ket.coeffs, [a.chars], hbar, angles)[0]
    if _groups is not None:
        return rows if thetas is not None else rows[:, 0]
    return complex(total[0]) if thetas is None else total


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
