"""Exact spectrum of the oscillator and its periodic components.

An eigenvalue of the full operator at lattice point k is
hbar * (omega.k + |omega|_1/2); component n contributes
hbar * pivot_n * (weights_n.k + trace_n/2). All equality decisions (level
grouping, projection membership) go through exact rational data: a level is
keyed by its generator-coordinate vector sum_j (k_j + 1/2) * coords_j, and a
component eigenvalue by the rational ratio weights_n.k + trace_n/2 (the value
in units of hbar * pivot_n). Floats never decide degeneracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BelowConductorError,
    DomainError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)
from .freqarith import GenCoords, HarmonicDecomposition, semigroup_witness
from .phasespace import _once, sigma_membership

FockIndex = tuple[int, ...]

_WINDOW_CAP = 10**7


def _check_index(k: Sequence[int], dims: int) -> FockIndex:
    k = tuple(int(v) for v in k)
    if len(k) != dims:
        raise ValidationError(f"lattice index needs {dims} entries")
    if any(v < 0 for v in k):
        raise ValidationError("lattice index entries must be nonnegative")
    return k


def component_ratio(decomp: HarmonicDecomposition, k: Sequence[int], n: int) -> Fraction:
    """Exact component eigenvalue in units of hbar * pivot_n."""
    comp = decomp.components[n]
    k = _check_index(k, decomp.dims)
    return sum((w * v for w, v in zip(comp.weights, k)), comp.zero_point_q / 2)


def component_eigenvalue(
    decomp: HarmonicDecomposition, k: Sequence[int], n: int, hbar: float
) -> float:
    if not 0 <= n < decomp.d_omega:
        raise ValidationError(f"component index {n} out of range")
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    return hbar * decomp.components[n].pivot * float(component_ratio(decomp, k, n))


def component_eigenvalues(
    decomp: HarmonicDecomposition, keys: np.ndarray, n: int, hbar: float
) -> list[float]:
    """component_eigenvalue(decomp, k, n, hbar) for every row k of keys, bit for bit.

    keys is an (S, dims) int64 array of lattice indices. The exact ratio
    weights_n . k + trace_n / 2 is num / den over the common denominator den;
    num is computed in int64 and stays below 2^53, so one correctly rounded
    division gives the float of the Fraction. NumericalError is raised when
    a numerator bound or den reaches 2^53.
    """
    if not 0 <= n < decomp.d_omega:
        raise ValidationError(f"component index {n} out of range")
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    if keys.ndim != 2 or keys.shape[1] != decomp.dims:
        raise ValidationError(f"lattice indices need {decomp.dims} entries")
    if keys.min(initial=0) < 0:
        raise ValidationError("lattice index entries must be nonnegative")
    comp = decomp.components[n]
    half = comp.zero_point_q / 2
    den = math.lcm(half.denominator, *(w.denominator for w in comp.weights))
    weights = [int(w * den) for w in comp.weights]
    shift = int(half * den)
    top = keys.max(axis=0, initial=0).tolist()
    if max(den, sum(abs(w) * k for w, k in zip(weights, top)) + abs(shift)) >= 2**53:
        raise NumericalError(
            f"component {n + 1} eigenvalue numerators exceed 2^53 over common denominator {den}"
        )
    num = keys @ np.array(weights, dtype=np.int64) + shift
    return (hbar * comp.pivot * (num / den)).tolist()


def decompose_eigenvalue(
    decomp: HarmonicDecomposition, k: Sequence[int], hbar: float
) -> tuple[float, ...]:
    """The unique component vector summing to eigenvalue(k, hbar)."""
    return tuple(
        component_eigenvalue(decomp, k, n, hbar) for n in range(decomp.d_omega)
    )


def eigenvalue_coords(decomp: HarmonicDecomposition, k: Sequence[int]) -> GenCoords:
    """Generator coordinates of eigenvalue(k, hbar) / hbar; exact level key."""
    spec = decomp.spec
    k = _check_index(k, spec.dims)
    m = len(spec.basis)
    acc = [Fraction(0)] * m
    for kj, row in zip(k, spec.coords):
        f = Fraction(2 * kj + 1, 2)
        acc = [a + f * c for a, c in zip(acc, row)]
    return tuple(acc)


def eigenvalue(decomp: HarmonicDecomposition, k: Sequence[int], hbar: float) -> float:
    spec = decomp.spec
    k = _check_index(k, spec.dims)
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    return hbar * (
        sum(w * kj for w, kj in zip(spec.numeric, k)) + sum(spec.numeric) / 2.0
    )


@dataclass(frozen=True)
class EigenLevel:
    """One exact level: its float value, exact key, and lattice points."""

    value: float
    coords: GenCoords
    indices: tuple[FockIndex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


def enumerate_window(
    decomp: HarmonicDecomposition, hbar: float, lo: float, hi: float
) -> list[EigenLevel]:
    """All levels with eigenvalue in [lo, hi], grouped by exact coordinates.

    Backtracking over the lattice with per-coordinate bounds floor(s_hi /
    omega_j), the last coordinate starting where its sum can reach s_lo;
    more than 10^7 visited points is a resource error. The walk keeps
    lattice points only; their exact coordinates are formed after it has
    stayed under the cap. Before it starts, a window whose last coordinate
    alone, every other at 0, takes more than 10^7 values is refused, since
    the walk would visit all of them. Groups are sorted by value, indices
    lexicographically. hbar must be positive and finite and both bounds
    finite (ValidationError).
    """
    if not 0 < hbar < math.inf:
        raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"window bounds must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValidationError("window bounds out of order")
    omega = decomp.spec.numeric
    d = len(omega)
    half = sum(omega) / 2.0
    s_lo = lo / hbar - half
    s_hi = hi / hbar - half
    if s_hi < 0:
        return []
    if s_hi == math.inf:
        raise ResourceLimitError(
            f"eigenvalue window exceeds 10^7 lattice points: {hi!r} / hbar overflows"
        )

    def bounds(j: int, remaining: float) -> tuple[int, int]:
        """First and last value of coordinate j with `remaining` left below
        s_hi; the last coordinate alone reaches s_lo, and starts one step
        early against rounding."""
        cap = int(math.floor((remaining + 1e-12) / omega[j]))
        start = math.ceil((remaining - (s_hi - s_lo) - 1e-12) / omega[j]) - 1 if j == d - 1 else 0
        return max(start, 0), cap

    start, cap = bounds(d - 1, s_hi)
    if cap + 1 - start > _WINDOW_CAP:
        raise ResourceLimitError(
            f"eigenvalue window exceeds 10^7 lattice points: k{d} alone takes {cap + 1 - start} values"
        )
    kept: list[FockIndex] = []
    budget = _WINDOW_CAP
    k = [0] * d

    def walk(j: int, remaining: float):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceLimitError("eigenvalue window exceeds 10^7 lattice points")
        if j == d:
            total = sum(w * kj for w, kj in zip(omega, k))
            if s_lo - 1e-12 <= total <= s_hi + 1e-12:
                kept.append(tuple(k))
            return
        start, cap = bounds(j, remaining)
        for kj in range(start, cap + 1):
            k[j] = kj
            walk(j + 1, remaining - kj * omega[j])
        k[j] = 0

    walk(0, s_hi)
    groups: dict[GenCoords, list[FockIndex]] = {}
    for point in kept:
        groups.setdefault(eigenvalue_coords(decomp, point), []).append(point)
    levels = []
    for coords, indices in groups.items():
        val = hbar * (
            float(decomp.spec.basis.evaluate(coords))
        )
        levels.append(
            EigenLevel(value=val, coords=coords, indices=tuple(sorted(indices)))
        )
    levels.sort(key=lambda lv: lv.value)
    return levels


# ---------------------------------------------------------------------------
# target selection

@dataclass(frozen=True)
class TargetEigenvalue:
    """Joint eigenvalue target: one ladder level per periodic component.

    lam[n] = hbar * (2 pi signs[n] N[n] / T_n + zero_point_n / 2) is the
    nearest component eigenvalue above E_n in ladder direction signs[n];
    ratios_q[n] is its exact value in units of hbar * pivot_n; witnesses[n]
    is a lattice point certifying membership in the component spectrum.
    """

    decomposition: HarmonicDecomposition
    E: tuple[float, ...]
    hbar: float
    N: tuple[int, ...]
    signs: tuple[int, ...]
    lam: tuple[float, ...]
    lambda_total: float
    ratios_q: tuple[Fraction, ...]
    witnesses: tuple[FockIndex, ...]


def hbar_ceiling(decomp: HarmonicDecomposition, E: Sequence[float]) -> float:
    """Largest hbar keeping every nonzero component on its ladder.

    Component n needs N(hbar, n) >= conductor_n; this returns the largest
    hbar for which sign(E_n) * (T_n / 2 pi) * (E_n / hbar - zero_point_n / 2)
    >= conductor_n holds for all n with E_n != 0 (inf when unconstrained).
    A non-finite entry of E is a ValidationError.
    """
    E = tuple(float(v) for v in E)
    if len(E) != decomp.d_omega:
        raise ValidationError("energy vector must have one entry per component")
    if not all(math.isfinite(v) for v in E):
        raise ValidationError(f"component energies must be finite, got {E!r}")
    bound = math.inf
    for comp, en in zip(decomp.components, E):
        if en == 0.0:
            continue
        sigma = 1 if en > 0 else -1
        cond = comp.conductor_for(sigma)
        scale = comp.period / (2.0 * math.pi)
        rhs = cond + sigma * scale * comp.zero_point / 2.0
        if rhs <= 0:
            continue
        bound = min(bound, scale * abs(en) / rhs)
    return bound


def select_target(
    decomp: HarmonicDecomposition,
    E: Sequence[float],
    hbar: float,
    *,
    _fixed: dict | None = None,
) -> TargetEigenvalue:
    """Nearest joint eigenvalue above E on each component ladder.

    N(hbar, n) = ceil(sign(E_n) * (T_n / 2 pi) * (E_n / hbar - nu(n)/2)) for
    E_n != 0 and 0 otherwise; every component gets an explicit lattice witness
    so membership in the component spectrum is certified, not assumed. Fails
    with the computed hbar ceiling when some N lands below its conductor.
    hbar must be positive and finite (ValidationError).
    `_fixed` is internal to sweep, not part of the interface: the memo of
    phasespace._once for this decomposition and E, which keeps their
    sigma_membership for every step.
    """
    if not 0 < hbar < math.inf:
        raise ValidationError(f"hbar must be positive and finite, got {hbar!r}")
    E = tuple(float(v) for v in E)
    _once(_fixed, "membership", sigma_membership, decomp, E)
    ns, signs, lams, ratios, wits = [], [], [], [], []
    for n, (comp, en) in enumerate(zip(decomp.components, E)):
        if en == 0.0:
            sigma, big_n = 1, 0
        else:
            sigma = 1 if en > 0 else -1
            scale = comp.period / (2.0 * math.pi)
            big_n = math.ceil(sigma * scale * (en / hbar - comp.zero_point / 2.0))
            if big_n < comp.conductor_for(sigma):
                raise BelowConductorError(
                    f"component {n}: ladder index {big_n} below conductor "
                    f"{comp.conductor_for(sigma)}; largest usable hbar is "
                    f"{hbar_ceiling(decomp, E):.6g}"
                )
        witness = semigroup_witness(comp.int_weights, sigma, big_n)
        if witness is None:
            raise DomainError(
                f"component {n}: no lattice witness for ladder index {big_n}"
            )
        q = component_ratio(decomp, witness, n)
        lam = hbar * comp.pivot * float(q)
        if en != 0.0 and not abs(en - lam) < 2.0 * math.pi * hbar / comp.period:
            raise DomainError(
                f"component {n}: ladder value {lam!r} missed the target window"
            )
        ns.append(big_n)
        signs.append(sigma)
        lams.append(lam)
        ratios.append(q)
        wits.append(witness)
    return TargetEigenvalue(
        decomposition=decomp,
        E=E,
        hbar=hbar,
        N=tuple(ns),
        signs=tuple(signs),
        lam=tuple(lams),
        lambda_total=float(sum(lams)),
        ratios_q=tuple(ratios),
        witnesses=tuple(wits),
    )


def level_table(
    decomp: HarmonicDecomposition, hbar: float, lo: float, hi: float
) -> tuple[list[str], list[list]]:
    """Columns and rows for CSV emission of a level window."""
    d = decomp.dims
    columns = [f"k{j + 1}" for j in range(d)]
    columns += ["lambda", "multiplicity"]
    columns += [f"lambda_{n + 1}" for n in range(decomp.d_omega)]
    rows = []
    for level in enumerate_window(decomp, hbar, lo, hi):
        parts = decompose_eigenvalue(decomp, level.indices[0], hbar)
        for k in level.indices:
            rows.append(list(k) + [level.value, level.multiplicity] + list(parts))
    return columns, rows
