"""Classical phase space: points, the commuting flows, orbit averages,
energy-vector feasibility, and Husimi evaluation.

The flow of component n rotates mode j at angular rate pivot_n * weights[n][j],
so every H_j = (x_j^2 + xi_j^2)/2 is conserved by every component flow and the
closure of a trajectory is the torus of points sharing all mode energies that
the integer-weight lattice allows. Orbit averages over the period box
[0, T_1) x ... x [0, T_{d_omega}) use equispaced tensor quadrature, which is
exact for trigonometric polynomials; point counts come from the symbol degree
and the integer weights, not from guesses.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NotInSigmaError, ResourceLimitError, ValidationError
from .freqarith import HarmonicDecomposition, _span_solver
from .symbols import Symbol, mode_energy

_CHUNK = 1 << 18
_CHAR_POINTS = 256


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


def hamiltonian_symbol(decomp: HarmonicDecomposition, n: int) -> Symbol:
    """The component Hamiltonian pivot_n * sum_j weights[n][j] H_j as a Symbol."""
    comp = decomp.components[n]
    d = decomp.dims
    out = None
    for j, w in enumerate(comp.weights):
        if not w:
            continue
        term = mode_energy(d, j) * (comp.pivot * float(w))
        out = term if out is None else out + term
    return out.with_label(f"Hcal{n + 1}")


def component_energies(decomp: HarmonicDecomposition, z: PhasePoint) -> tuple[float, ...]:
    h = z.mode_energies()
    return tuple(
        c.pivot * sum(float(w) * hj for w, hj in zip(c.weights, h))
        for c in decomp.components
    )


# ---------------------------------------------------------------------------
# orbit averages

def _axis_counts(decomp: HarmonicDecomposition, a: Symbol, points: int | None) -> list[int]:
    if points is not None:
        if points < 1:
            raise ValidationError("points per axis must be positive")
        return [int(points)] * decomp.d_omega
    counts = []
    for comp in decomp.components:
        if a.is_polynomial:
            maxk = max(abs(v) for v in comp.int_weights)
            counts.append(2 * max(a.degree, 1) * maxk + 16)
        else:
            counts.append(_CHAR_POINTS)
    return counts


def _grid_mean(decomp: HarmonicDecomposition, a: Symbol, z0: PhasePoint, counts) -> complex:
    rates = flow_rates(decomp)
    periods = [c.period for c in decomp.components]
    total = math.prod(counts)
    if total > 1 << 26:
        raise ResourceLimitError(f"orbit grid of {total} points exceeds budget")
    x0 = np.asarray(z0.x)
    xi0 = np.asarray(z0.xi)
    acc = 0j
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.unravel_index(idx, counts)
        theta = np.zeros((len(idx), decomp.dims))
        for n in range(decomp.d_omega):
            tau_n = coords[n] * (periods[n] / counts[n])
            theta += tau_n[:, None] * rates[n][None, :]
        c, s = np.cos(theta), np.sin(theta)
        x = x0 * c + xi0 * s
        xi = -x0 * s + xi0 * c
        acc += complex(np.sum(a.evaluate(x, xi)))
    return acc / total


def orbit_average(
    decomp: HarmonicDecomposition,
    a: Symbol,
    z0: PhasePoint,
    points: int | None = None,
):
    """Mean of a over the closure of the multi-flow orbit through z0.

    Polynomial symbols get per-axis counts 2*deg*max|k| + 16, exact for the
    induced trigonometric degree. Characters use 256 points per axis plus a
    doubled-count consistency check, since their averages have no assumed
    closed form. Returns a float when the imaginary part is negligible.
    """
    if z0.dims != decomp.dims:
        raise ValidationError("point dimension does not match the decomposition")
    counts = _axis_counts(decomp, a, points)
    val = _grid_mean(decomp, a, z0, counts)
    if not a.is_polynomial and points is None:
        check = _grid_mean(decomp, a, z0, [2 * m for m in counts])
        if abs(check - val) > 1e-8 * (1.0 + abs(check)):
            raise ResourceLimitError(
                "orbit average of character symbol did not converge at 256 points/axis"
            )
        val = check
    if abs(val.imag) <= 1e-12 * (1.0 + abs(val.real)):
        return float(val.real)
    return val


# ---------------------------------------------------------------------------
# energy vectors and membership

@dataclass(frozen=True)
class EnergyVector:
    """A d_omega-vector of component energies with a feasibility witness.

    witness_h solves omega.h = 1, pivot_n * weights_n . h = values[n], h >= 0;
    `exact` marks witnesses certified by rational arithmetic (requires the
    ratios values[n]/pivot_n as exact rationals).
    """

    values: tuple[float, ...]
    witness_h: tuple[float, ...]
    exact: bool

    def torus_point(self) -> PhasePoint:
        d = len(self.witness_h)
        return PhasePoint(
            tuple(math.sqrt(2.0 * h) for h in self.witness_h), (0.0,) * d
        )


def sigma_membership(
    decomp: HarmonicDecomposition,
    E: Sequence[float],
    exact_ratios: Sequence[Fraction] | None = None,
    interior: bool = True,
    tol: float = 1e-10,
) -> EnergyVector:
    """Decide whether E is an attainable energy vector and produce a witness.

    Solves the linear system weights_n . h = E_n / pivot_n over h >= 0 by
    enumerating basic solutions (vertex enumeration; d <= 4 keeps this tiny)
    and returns the mean of the feasible vertices (interior=True) or the
    first one. The coefficient matrix is exact; when `exact_ratios` supplies
    E_n / pivot_n as rationals the whole decision is exact and the witness
    carries exact=True.
    """
    comps = decomp.components
    d = decomp.dims
    dw = decomp.d_omega
    E = tuple(float(v) for v in E)
    if len(E) != dw:
        raise ValidationError("energy vector must have one entry per component")
    if abs(sum(E) - 1.0) > tol:
        raise NotInSigmaError(
            f"component energies sum to {sum(E)!r}, not 1: not an attainable vector"
        )
    if exact_ratios is not None:
        ratios = [Fraction(r) for r in exact_ratios]
        if len(ratios) != dw:
            raise ValidationError("need one exact ratio per component")
        for n, r in enumerate(ratios):
            if abs(float(r) * comps[n].pivot - E[n]) > tol * (1.0 + abs(E[n])):
                raise ValidationError(
                    f"exact ratio {r} disagrees with E[{n}] = {E[n]!r}"
                )
        vertices = _exact_vertices(comps, ratios, d, dw)
        exact = True
    else:
        vertices = _float_vertices(comps, E, d, dw, tol)
        exact = False
    if not vertices:
        raise NotInSigmaError(
            "no nonnegative action vector h reproduces these component energies"
        )
    if interior:
        h = tuple(float(sum(col)) / len(vertices) for col in zip(*vertices))
    else:
        h = tuple(float(v) for v in vertices[0])
    h = tuple(0.0 if abs(v) < tol else v for v in h)
    return EnergyVector(values=E, witness_h=h, exact=exact)


def _exact_vertices(comps, ratios, d, dw):
    rows = [c.weights for c in comps]
    vertices = []
    for basis in itertools.combinations(range(d), dw):
        solve = _basis_solver(rows, basis)
        if solve is None:
            continue
        hb = solve(ratios)
        if hb is None or any(v < 0 for v in hb):
            continue
        h = [Fraction(0)] * d
        for col, v in zip(basis, hb):
            h[col] = v
        if h not in vertices:
            vertices.append(h)
    return vertices


def _basis_solver(rows, basis):
    sub = [tuple(row[c] for c in basis) for row in rows]
    try:
        solver = _span_solver([tuple(col) for col in zip(*sub)])
    except ValidationError:
        return None
    return solver


def _float_vertices(comps, E, d, dw, tol):
    A = np.array([[c.pivot * float(w) for w in c.weights] for c in comps])
    b = np.asarray(E, dtype=float)
    scale = max(1.0, float(np.max(np.abs(A))))
    vertices = []
    for basis in itertools.combinations(range(d), dw):
        sub = A[:, basis]
        if abs(np.linalg.det(sub)) < 1e-12 * scale**dw:
            continue
        hb = np.linalg.solve(sub, b)
        if np.any(hb < -tol):
            continue
        resid = np.max(np.abs(sub @ hb - b))
        if resid > tol * (1.0 + float(np.max(np.abs(b)))):
            continue
        h = np.zeros(d)
        h[list(basis)] = np.clip(hb, 0.0, None)
        if not any(np.allclose(h, v, atol=tol) for v in vertices):
            vertices.append(h)
    return [tuple(float(v) for v in h) for h in vertices]


# ---------------------------------------------------------------------------
# Husimi evaluation

def husimi(state, z: PhasePoint, tail_tol: float = 1e-12) -> float:
    """|<coherent(z), state>|^2 / (2 pi hbar)^d."""
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
    """Husimi values over a plane: mode's (x, xi) varies, other modes fixed."""
    from .fockstate import coherent, inner

    d = state.dims
    if not 0 <= mode < d:
        raise ValidationError("mode index out of range")
    if base is None:
        base = PhasePoint.zero(d)
    norm = (2.0 * math.pi * state.hbar) ** d
    out = np.empty((len(xs), len(xis)))
    for i, xv in enumerate(xs):
        for k, xiv in enumerate(xis):
            x = list(base.x)
            xi = list(base.xi)
            x[mode] = float(xv)
            xi[mode] = float(xiv)
            probe = coherent(PhasePoint(tuple(x), tuple(xi)), state.hbar, tail_tol)
            out[i, k] = abs(inner(probe, state)) ** 2 / norm
    return out
