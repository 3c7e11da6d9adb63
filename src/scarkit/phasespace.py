"""Classical phase space: points, the commuting flows, orbit averages,
energy-vector feasibility, and Husimi evaluation.

The flow of component n rotates mode j at angular rate pivot_n * weights[n][j],
so every H_j = (x_j^2 + xi_j^2)/2 is conserved by every component flow and the
closure of a trajectory is the torus of points sharing all mode energies that
the integer-weight lattice allows. Orbit averages are exact finite Fourier
sums over that lattice's kernel: monomials expand binomially and characters
by Jacobi-Anger, with J_m from Miller's backward recurrence, truncated where
the Bessel bound falls below 1e-17, so no quadrature grid and no convergence
check is involved.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NotInSigmaError, ValidationError
from .freqarith import HarmonicDecomposition, _pivot_blocks, lattice_solver
from .symbols import Symbol


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (x, xi) in R^{2d}."""

    x: tuple[float, ...]
    xi: tuple[float, ...]

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        xi = tuple(float(v) for v in self.xi)
        if len(x) != len(xi) or not x:
            raise ValidationError("x and xi must be nonempty and equally long")
        if not all(math.isfinite(v) for v in x + xi):
            raise ValidationError("phase point entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)

    @classmethod
    def zero(cls, dims: int) -> "PhasePoint":
        return cls((0.0,) * dims, (0.0,) * dims)

    @classmethod
    def from_complex(cls, z: Sequence[complex]) -> "PhasePoint":
        return cls(tuple(v.real for v in z), tuple(v.imag for v in z))

    @property
    def dims(self) -> int:
        return len(self.x)

    def to_complex(self) -> tuple[complex, ...]:
        return tuple(complex(a, b) for a, b in zip(self.x, self.xi))

    def mode_energies(self) -> tuple[float, ...]:
        return tuple((a * a + b * b) / 2.0 for a, b in zip(self.x, self.xi))


def flow_rates(decomp: HarmonicDecomposition) -> np.ndarray:
    """rates[n, j] = pivot_n * weights[n][j]: mode j's angular rate under flow n."""
    return np.array(
        [[c.pivot * float(w) for w in c.weights] for c in decomp.components]
    )


def multi_flow(decomp: HarmonicDecomposition, z0: PhasePoint, tau: Sequence[float]) -> PhasePoint:
    """Composite flow: mode j rotates by sum_n rates[n, j] * tau_n."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (decomp.d_omega,):
        raise ValidationError("tau must have one entry per component")
    theta = tau @ flow_rates(decomp)
    x = np.asarray(z0.x)
    xi = np.asarray(z0.xi)
    c, s = np.cos(theta), np.sin(theta)
    return PhasePoint(tuple(x * c + xi * s), tuple(-x * s + xi * c))


def component_energies(decomp: HarmonicDecomposition, z: PhasePoint) -> tuple[float, ...]:
    h = z.mode_energies()
    return tuple(
        c.pivot * sum(float(w) * hj for w, hj in zip(c.weights, h))
        for c in decomp.components
    )


# ---------------------------------------------------------------------------
# orbit averages

def _bessel_j(top: int, rho: float) -> np.ndarray:
    """J_0(rho), ..., J_top(rho) for rho >= 0 by Miller's backward recurrence.

    J_{k-1} = (2k / rho) J_k - J_{k+1} is run down from J_N = 1, J_{N+1} = 0,
    with N far enough past top and rho that the error of that start,
    (J_N / J_k)^2 relative at order k, is below rounding; the values are
    rescaled before they overflow and normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1 (DLMF 10.12.4; W. Gautschi, "Computational
    aspects of three-term recurrence relations", SIAM Review 9, 1967).
    Below rho = 1e-8, where 2k / rho could overflow, the first two terms of
    the power series (rho/2)^m / m! (1 - (rho/2)^2 / (m+1)) are exact.
    """
    if rho < 1e-8:
        half, term, vals = rho / 2.0, 1.0, []
        for m in range(top + 1):
            vals.append(term * (1.0 - half * half / (m + 1)))
            term *= half / (m + 1)
        return np.array(vals)
    start = max(top, int(rho)) + 32 + int(4.0 * math.sqrt(rho))
    vals = [0.0] * (start + 2)
    vals[start] = 1.0
    norm = 0.0
    for k in range(start, 0, -1):
        vals[k - 1] = (2.0 * k / rho) * vals[k] - vals[k + 1]
        if k % 2 == 0:
            norm += vals[k]
        if abs(vals[k - 1]) > 1e250:
            vals = [v * 1e-250 for v in vals]
            norm *= 1e-250
    return np.array(vals[: top + 1]) / (vals[0] + 2.0 * norm)


def _mode_series(a: Symbol, z: Sequence[complex]):
    """Each term of a as (coeff, its factors' Fourier series in the mode angles).

    Turning mode j by theta sends z_j to z_j u, u = e^{-i theta}; entry m of
    mode j's series, counted from its centre, multiplies u^m. There
    x = (z u + conj(z)/u)/2 and xi = (z u - conj(z)/u)/2i, so a monomial is a
    finite product. A character's factor e^{i Im(z conj(w_c) u)} is, by
    Jacobi-Anger (DLMF 10.12), sum_m J_m(rho) e^{i m beta} u^m with
    rho e^{i beta} = z conj(w_c), cut at the first |m| = R where
    (rho/2)^R / R! < 1e-17 bounds |J_m| (DLMF 10.14.4); J_m comes from
    _bessel_j and J_{-m} = (-1)^m J_m.
    """
    d = a.dims
    terms = []
    for mono, coeff in a.poly.items():
        series = []
        for j, zj in enumerate(z):
            s = np.ones(1, dtype=complex)
            if mono[j] or mono[d + j]:
                x = np.array([zj.conjugate() / 2, 0, zj / 2])
                xi = np.array([1j * zj.conjugate() / 2, 0, -1j * zj / 2])
                for factor in [x] * mono[j] + [xi] * mono[d + j]:
                    s = np.convolve(s, factor)
            series.append(s)
        terms.append((coeff, series))
    for coeff, w in a.chars:
        series = []
        for j, zj in enumerate(z):
            zeta = zj * complex(w[j], -w[d + j])
            bound, R = 1.0, 0
            while bound >= 1e-17:
                R += 1
                bound *= abs(zeta) / (2.0 * R)
            m = np.arange(1 - R, R)
            signs = np.where(m % 2, np.sign(m), 1)  # (-1)^m below 0
            bessel = _bessel_j(R - 1, abs(zeta))[np.abs(m)] * signs
            series.append(bessel * np.exp(1j * m * cmath.phase(zeta)))
        terms.append((coeff, series))
    return terms


@lru_cache(maxsize=256)
def _kernel_lattice(rows: tuple[tuple[int, ...], ...], radius: tuple[int, ...]) -> np.ndarray:
    """The m with rows . m = 0 and |m_j| <= radius[j], shifted by the radius
    into the box 0 <= k_j <= 2 radius[j]: lattice_solver's (n, d) array,
    read-only, built once per (rows, radius)."""
    k = lattice_solver(rows, [2 * r + 1 for r in radius])(np.array(rows) @ radius)
    k.flags.writeable = False
    return k


def orbit_average(decomp: HarmonicDecomposition, a: Symbol, z0: PhasePoint):
    """Mean of a over the closure of the multi-flow orbit through z0.

    Every term of a factorizes over modes into Fourier series in the mode
    angles (_mode_series). Flow n turns mode j int_weights_n[j] times per
    period, so the mean sums the kernel lattice, the m with
    int_weights_n . m = 0 for every n, enumerated by lattice_solver on the
    box shifted by the per-mode radius; that lattice depends only on the
    integer weights and the radius, so it comes from a bounded cache
    (_kernel_lattice). Monomials are exact; characters drop Bessel terms
    below 1e-17. Returns a float if the imaginary part is tiny. A point or a
    symbol with another mode count than the decomposition's is a
    ValidationError.
    """
    if z0.dims != decomp.dims:
        raise ValidationError("point dimension does not match the decomposition")
    if a.dims != decomp.dims:
        raise ValidationError("symbol mode count does not match the decomposition")
    terms = _mode_series(a, z0.to_complex())
    radius = tuple(max((len(s[j]) // 2 for _, s in terms), default=0) for j in range(decomp.dims))
    k = _kernel_lattice(tuple(c.int_weights for c in decomp.components), radius)
    val = 0j
    for coeff, series in terms:
        prod = np.full(len(k), coeff)
        for j, s in enumerate(series):
            padded = np.zeros(2 * radius[j] + 1, dtype=complex)
            padded[radius[j] - len(s) // 2 :][: len(s)] = s
            prod *= padded[k[:, j]]
        val += prod.sum()
    if abs(val.imag) <= 1e-12 * (1.0 + abs(val.real)):
        return float(val.real)
    return val


# ---------------------------------------------------------------------------
# energy vectors and membership

@dataclass(frozen=True)
class EnergyVector:
    """A d_omega-vector of component energies with a feasibility witness.

    witness_h solves omega.h = 1, pivot_n * weights_n . h = values[n], h >= 0.
    """

    values: tuple[float, ...]
    witness_h: tuple[float, ...]

    def torus_point(self) -> PhasePoint:
        d = len(self.witness_h)
        return PhasePoint(
            tuple(math.sqrt(2.0 * h) for h in self.witness_h), (0.0,) * d
        )


def _once(memo: dict | None, key, fn, *args):
    """fn(*args), kept in memo under key: computed at its first use, read back after.

    sweep passes one memo to every step of a sweep, so a call that does not
    depend on hbar runs once per sweep, at the point where a lone step makes
    it; a call that raises keeps nothing, so every step raises it again with
    the same message. With memo None, fn runs every time.
    """
    if memo is None:
        return fn(*args)
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def sigma_membership(
    decomp: HarmonicDecomposition, E: Sequence[float], tol: float = 1e-10
) -> EnergyVector:
    """Decide whether E is an attainable energy vector and produce a witness.

    Solves pivot_n * weights_n . h = E_n over h >= 0 by enumerating basic
    solutions (vertex enumeration; d <= 4 keeps this tiny) and returns the
    mean of the distinct feasible vertices. Which column bases are
    nonsingular is decided exactly, by the row reduction of the integer
    weights (freqarith._pivot_blocks), which also gives each integer block's
    exact inverse M / D; a basic solution is M applied to E_n divided by its
    row's scale pivot_n * weight_floor_n / multiplier_n, over D, and is kept
    when it is nonnegative and reproduces E within tol. A non-finite entry
    of E is a ValidationError.
    """
    comps = decomp.components
    d = decomp.dims
    E = tuple(float(v) for v in E)
    if len(E) != decomp.d_omega:
        raise ValidationError("energy vector must have one entry per component")
    if not all(math.isfinite(v) for v in E):
        raise ValidationError(f"component energies must be finite, got {E!r}")
    if abs(sum(E) - 1.0) > tol:
        raise NotInSigmaError(
            f"component energies sum to {sum(E)!r}, not 1: not an attainable vector"
        )
    A = np.array([[c.pivot * float(w) for w in c.weights] for c in comps])
    b = np.asarray(E, dtype=float)
    rhs = b / np.array([c.pivot * float(c.weight_floor / c.multiplier) for c in comps])
    _, blocks = _pivot_blocks(tuple(c.int_weights for c in comps), d)
    vertices = []
    for basis, D, M in blocks:
        sub = A[:, basis]
        hb = np.array(M, dtype=float) @ rhs / D
        if np.any(hb < -tol):
            continue
        resid = np.max(np.abs(sub @ hb - b))
        if resid > tol * (1.0 + float(np.max(np.abs(b)))):
            continue
        h = np.zeros(d)
        h[list(basis)] = np.clip(hb, 0.0, None)
        if not any(np.allclose(h, v, atol=tol) for v in vertices):
            vertices.append(h)
    if not vertices:
        raise NotInSigmaError(
            "no nonnegative action vector h reproduces these component energies"
        )
    h = tuple(float(sum(col)) / len(vertices) for col in zip(*vertices))
    h = tuple(0.0 if abs(v) < tol else v for v in h)
    return EnergyVector(values=E, witness_h=h)


# ---------------------------------------------------------------------------
# Husimi evaluation

def husimi(state, z: PhasePoint, tail_tol: float = 1e-12) -> float:
    """|<coherent(z), state>|^2 / (2 pi hbar)^d for a sparse state."""
    from .fockstate import coherent, inner

    probe = coherent(z, state.hbar, tail_tol)
    d = z.dims
    return float(abs(inner(probe, state)) ** 2 / (2.0 * math.pi * state.hbar) ** d)


def husimi_grid(
    state,
    mode: int,
    xs: Sequence[float],
    xis: Sequence[float],
    base: PhasePoint | None = None,
    tail_tol: float = 1e-12,
) -> np.ndarray:
    """husimi over a plane: mode's (x, xi) varies, other modes fixed."""
    d = state.dims
    if not 0 <= mode < d:
        raise ValidationError("mode index out of range")
    if base is None:
        base = PhasePoint.zero(d)
    out = np.empty((len(xs), len(xis)))
    for i, xv in enumerate(xs):
        for k, xiv in enumerate(xis):
            x = list(base.x)
            xi = list(base.xi)
            x[mode] = float(xv)
            xi[mode] = float(xiv)
            out[i, k] = husimi(state, PhasePoint(tuple(x), tuple(xi)), tail_tol)
    return out
