"""Exact arithmetic over oscillator frequency vectors.

A frequency vector omega = (omega_1, ..., omega_d) is declared as an exact
rational combination of named real generators that the caller asserts to be
linearly independent over Q (independence is trusted input, never detected).
Everything structural downstream, from the rational dimension d_omega and
the periodic decomposition omega = sum_n v_n * nu_n to component periods and
semigroup conductors, is computed from the rational coordinate matrix,
never from floating point values. Floats only enter when a real number is
actually needed (periods, eigenvalues), and generator values are kept as
high-precision decimals so those floats are correctly rounded.

Row and component indices are 0-based throughout.
"""
from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .errors import (
    ConductorUnresolvedError,
    DomainError,
    ResourceLimitError,
    SpecParseError,
    ValidationError,
)

GenCoords = tuple[Fraction, ...]

_EVAL_PRECISION = 50
_MIN_GENERATOR_CAP = 10**6


def sqrt_decimal(n: int, digits: int = 40) -> Decimal:
    """Square root of a positive integer as a Decimal with `digits` precision."""
    if n <= 0:
        raise DomainError("sqrt_decimal needs a positive integer")
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(n).sqrt()


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValidationError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class GeneratorBasis:
    """Named real generators spanning the frequencies over Q.

    `values` are high-precision decimals (30+ significant digits for
    irrationals); by convention the first generator is the constant 1.
    Q-linear independence of the values is the caller's responsibility.
    """

    labels: tuple[str, ...]
    values: tuple[Decimal, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.values) or not self.labels:
            raise ValidationError("labels and values must be nonempty and parallel")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("generator labels must be unique")
        for lbl, val in zip(self.labels, self.values):
            if not isinstance(val, Decimal):
                raise ValidationError(f"generator {lbl!r} value must be a Decimal")
            if not val.is_finite() or val <= 0:
                raise ValidationError(f"generator {lbl!r} must be a positive real")

    def __len__(self) -> int:
        return len(self.labels)

    def evaluate(self, coords: Sequence[Fraction]) -> Decimal:
        """Exact-rational combination of the generator values (50-digit context)."""
        if len(coords) != len(self.values):
            raise ValidationError("coordinate width does not match basis size")
        with localcontext() as ctx:
            ctx.prec = _EVAL_PRECISION
            total = Decimal(0)
            for c, g in zip(coords, self.values):
                if c:
                    total += Decimal(c.numerator) / Decimal(c.denominator) * g
            return total

    def evaluate_float(self, coords: Sequence[Fraction]) -> float:
        return float(self.evaluate(coords))


@dataclass(frozen=True)
class FrequencySpec:
    """d oscillator frequencies with exact generator coordinates."""

    basis: GeneratorBasis
    coords: tuple[GenCoords, ...]
    numeric: tuple[float, ...]

    @classmethod
    def build(
        cls,
        basis: GeneratorBasis,
        coords: Sequence[Sequence[Fraction]],
        numeric: Sequence[float] | None = None,
    ) -> "FrequencySpec":
        rows = tuple(tuple(_as_fraction(c) for c in row) for row in coords)
        if not rows:
            raise ValidationError("need at least one frequency")
        m = len(basis)
        for row in rows:
            if len(row) != m:
                raise ValidationError("every coordinate row must match the basis size")
        exact = [basis.evaluate(row) for row in rows]
        for j, val in enumerate(exact):
            if val <= 0:
                raise ValidationError(f"frequency {j} evaluates to {val}, must be > 0")
        if numeric is not None:
            if len(numeric) != len(rows):
                raise ValidationError("numeric vector length does not match coords")
            for j, (given, truth) in enumerate(zip(numeric, exact)):
                rel = abs(Decimal(repr(float(given))) - truth) / truth
                if rel > Decimal("1e-12"):
                    raise ValidationError(
                        f"frequency {j}: numeric {given!r} disagrees with exact value {truth}"
                    )
        return cls(basis=basis, coords=rows, numeric=tuple(float(v) for v in exact))

    @property
    def dims(self) -> int:
        return len(self.coords)


# ---------------------------------------------------------------------------
# exact rational linear algebra

def _reduce(vec: list[Fraction], echelon: list[tuple[int, list[Fraction]]]):
    """Reduce vec against an echelon basis (rows normalized to leading 1)."""
    for lead, row in echelon:
        c = vec[lead]
        if c:
            for i in range(lead, len(vec)):
                vec[i] -= c * row[i]
    return vec


def _leading_index(vec: Sequence[Fraction]) -> int | None:
    for i, x in enumerate(vec):
        if x:
            return i
    return None


def rational_span(spec: FrequencySpec) -> tuple[int, tuple[int, ...]]:
    """Rank of the frequencies over Q and the first rows that realize it.

    Returns (d_omega, pivot_indices); ties break toward the earliest row, so
    pivot frequencies are the first maximal Q-independent subset of omega.
    """
    echelon: list[tuple[int, list[Fraction]]] = []
    pivots: list[int] = []
    for j, row in enumerate(spec.coords):
        vec = _reduce(list(row), echelon)
        lead = _leading_index(vec)
        if lead is None:
            continue
        inv = vec[lead]
        echelon.append((lead, [x / inv for x in vec]))
        echelon.sort(key=lambda e: e[0])
        pivots.append(j)
    return len(pivots), tuple(pivots)


def _span_solver(rows: Sequence[GenCoords]) -> Callable[[Sequence[Fraction]], tuple[Fraction, ...] | None]:
    """Exact solver expressing vectors as combinations of the given rows.

    Returns a function mapping vec -> coefficients c with vec = sum c_n rows[n],
    or None when vec is outside the span. Rows must be Q-independent.
    """
    echelon: list[tuple[int, list[Fraction], list[Fraction]]] = []
    n = len(rows)
    for idx, row in enumerate(rows):
        vec = list(row)
        combo = [Fraction(0)] * n
        combo[idx] = Fraction(1)
        for lead, erow, ecombo in echelon:
            c = vec[lead]
            if c:
                vec = [a - c * b for a, b in zip(vec, erow)]
                combo = [a - c * b for a, b in zip(combo, ecombo)]
        lead = _leading_index(vec)
        if lead is None:
            raise ValidationError("solver rows must be linearly independent")
        inv = vec[lead]
        echelon.append((lead, [x / inv for x in vec], [x / inv for x in combo]))
        echelon.sort(key=lambda e: e[0])

    def solve(target: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        vec = [_as_fraction(x) for x in target]
        coeffs = [Fraction(0)] * n
        for lead, erow, ecombo in echelon:
            c = vec[lead]
            if c:
                vec = [a - c * b for a, b in zip(vec, erow)]
                coeffs = [a + c * b for a, b in zip(coeffs, ecombo)]
        if any(vec):
            return None
        return tuple(coeffs)

    return solve


# ---------------------------------------------------------------------------
# periodic decomposition

@dataclass(frozen=True)
class PeriodicComponent:
    """One periodic piece of the harmonic flow.

    The component Hamiltonian is pivot * sum_j weights[j] * H_j where
    H_j = (xi_j^2 + x_j^2)/2; its flow rotates mode j at angular rate
    pivot * weights[j] and is periodic with the stated period. int_weights
    is the primitive integer vector multiplier * weights / weight_floor,
    whose entries are coprime; mode j completes int_weights[j] turns per
    period. `conductor` is the semigroup conductor of int_weights for the
    ladder directions listed in `ladder_signs`.
    """

    index: int
    pivot_row: int
    pivot_coords: GenCoords
    pivot: float
    weights: tuple[Fraction, ...]
    weight_floor: Fraction
    int_weights: tuple[int, ...]
    multiplier: int
    period: float
    zero_point_q: Fraction
    zero_point: float
    conductor: int
    ladder_signs: tuple[int, ...]

    def conductor_for(self, sigma: int) -> int:
        if sigma in self.ladder_signs:
            return self.conductor
        raise DomainError(
            f"component {self.index}: no eigenvalue ladder in direction {sigma:+d}"
        )


@dataclass(frozen=True)
class HarmonicDecomposition:
    """omega = sum_n pivot_n * weights_n, with exact rational weights."""

    spec: FrequencySpec
    components: tuple[PeriodicComponent, ...]

    @property
    def d_omega(self) -> int:
        return len(self.components)

    @property
    def dims(self) -> int:
        return self.spec.dims


def period_of(v: float, nu: Sequence[Fraction]) -> float:
    """Period of the flow of v * sum_j nu_j H_j (nu rational, not all zero)."""
    floor, mult = _floor_and_multiplier(nu)
    return 2.0 * math.pi * mult / (abs(float(v)) * float(floor))


def _floor_and_multiplier(nu: Sequence[Fraction]) -> tuple[Fraction, int]:
    nz = [abs(_as_fraction(x)) for x in nu if x]
    if not nz:
        raise DomainError("weight vector must have a nonzero entry")
    floor = min(nz)
    mult = 1
    for x in nu:
        if x:
            mult = math.lcm(mult, (_as_fraction(x) / floor).denominator)
    return floor, mult


def decompose(spec: FrequencySpec) -> HarmonicDecomposition:
    """Split omega into d_omega periodic components with exact weights.

    Pivot frequencies are the first Q-independent rows of the spec; the
    rational weights solve omega_j = sum_n weights[n][j]... more precisely
    omega = sum_n pivot_n * weights_n with weights_n[pivot_row_n] = 1.
    """
    d_omega, pivots = rational_span(spec)
    solve = _span_solver([spec.coords[p] for p in pivots])
    # columns of the weight matrix: coefficients of each omega_j over the pivots
    cols = []
    for j, row in enumerate(spec.coords):
        coeffs = solve(row)
        if coeffs is None:  # impossible: pivots span all rows
            raise ValidationError(f"frequency {j} escaped the pivot span")
        cols.append(coeffs)
    components = []
    for n, p in enumerate(pivots):
        weights = tuple(cols[j][n] for j in range(spec.dims))
        floor, mult = _floor_and_multiplier(weights)
        int_weights = tuple(int(mult * w / floor) for w in weights)
        pivot_val = spec.numeric[p]
        trace = sum(weights, Fraction(0))
        signs = _ladder_signs(int_weights)
        components.append(
            PeriodicComponent(
                index=n,
                pivot_row=p,
                pivot_coords=spec.coords[p],
                pivot=pivot_val,
                weights=weights,
                weight_floor=floor,
                int_weights=int_weights,
                multiplier=mult,
                period=2.0 * math.pi * mult / (pivot_val * float(floor)),
                zero_point_q=trace,
                zero_point=pivot_val * float(trace),
                conductor=conductor(int_weights, signs[0]),
                ladder_signs=signs,
            )
        )
    decomp = HarmonicDecomposition(spec=spec, components=tuple(components))
    _check_reconstruction(decomp)
    return decomp


def _ladder_signs(int_weights: Sequence[int]) -> tuple[int, ...]:
    has_pos = any(v > 0 for v in int_weights)
    has_neg = any(v < 0 for v in int_weights)
    if has_pos and has_neg:
        return (1, -1)
    if has_pos:
        return (1,)
    return (-1,)


def _check_reconstruction(decomp: HarmonicDecomposition) -> None:
    # exact identity: coords[j] == sum_n weights[n][j] * pivot_coords[n]
    m = len(decomp.spec.basis)
    for j, row in enumerate(decomp.spec.coords):
        acc = [Fraction(0)] * m
        for comp in decomp.components:
            w = comp.weights[j]
            if w:
                acc = [a + w * c for a, c in zip(acc, comp.pivot_coords)]
        if tuple(acc) != row:
            raise ValidationError(f"decomposition failed to reconstruct frequency {j}")


# ---------------------------------------------------------------------------
# semigroup conductors

@lru_cache(maxsize=512)
def _apery_table(gens: tuple[tuple[int, int], ...]):
    """Shortest representable value per residue class mod the least generator.

    gens: ((value, coordinate), ...) with all values positive, gcd 1.
    Returns (m, dist, parent) where dist[r] is the least representable
    integer congruent to r mod m and parent reconstructs witnesses.
    """
    m = min(v for v, _ in gens)
    if m > _MIN_GENERATOR_CAP:
        raise ResourceLimitError(f"least generator {m} exceeds conductor table cap")
    dist = [None] * m
    parent: list[tuple[int, int] | None] = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        val, r = heapq.heappop(heap)
        if dist[r] is not None and val > dist[r]:
            continue
        for g, j in gens:
            nval = val + g
            nr = nval % m
            if dist[nr] is None or nval < dist[nr]:
                dist[nr] = nval
                parent[nr] = (r, j)
                heapq.heappush(heap, (nval, nr))
    return m, tuple(dist), tuple(parent)


def _nonzero_gens(k: Sequence[int], sigma: int) -> tuple[tuple[int, int], ...]:
    gens = tuple((sigma * v, j) for j, v in enumerate(k) if v != 0)
    if not gens:
        raise DomainError("integer weight vector must have a nonzero entry")
    if math.gcd(*(abs(v) for v, _ in gens)) != 1:
        raise DomainError("integer weight entries must be coprime")
    return gens


def conductor(k: Sequence[int], sigma: int = 1) -> int:
    """Least N0 >= 0 with every integer N >= N0 representable as k'.k = sigma*N.

    k' ranges over nonnegative integer vectors. For all-positive (after the
    sigma flip) entries this is the classical numerical-semigroup conductor;
    for mixed signs, witnesses for N = 0..p-1 (p = least positive entry)
    certify 0, because incrementing the p-coordinate translates any witness
    by +p. Bounded search failures raise, they never degrade to a guess.
    """
    if sigma not in (1, -1):
        raise ValidationError("sigma must be +1 or -1")
    gens = _nonzero_gens(k, sigma)
    values = [v for v, _ in gens]
    if all(v > 0 for v in values):
        m, dist, _ = _apery_table(tuple(sorted(gens)))
        worst = max(dist)
        return max(0, worst - m + 1)
    if all(v < 0 for v in values):
        raise DomainError("all entries negative after sign flip: no conductor exists")
    p = min(v for v in values if v > 0)
    for target in range(1, p):
        if _mixed_witness(gens, target) is None:
            raise ConductorUnresolvedError(
                f"no witness for N={target} within the search cap"
            )
    return 0


def semigroup_witness(k: Sequence[int], sigma: int, target: int) -> tuple[int, ...] | None:
    """A nonnegative k' with k'.k = sigma*target, or None if provably absent.

    For positive generators absence is decided exactly; for mixed signs a
    capped constructive search is used and an exhausted cap raises.
    """
    if target < 0:
        raise ValidationError("target must be >= 0")
    gens = _nonzero_gens(k, sigma)
    counts = [0] * len(k)
    if target == 0:
        return tuple(counts)
    values = [v for v, _ in gens]
    if all(v > 0 for v in values):
        m, dist, parent = _apery_table(tuple(sorted(gens)))
        r = target % m
        if dist[r] is None or dist[r] > target:
            return None
        # walk the residue graph back to 0, then pad with copies of m
        j_min = next(j for v, j in gens if v == m)
        cur = r
        val = dist[r]
        while cur != 0 or val != 0:
            prev, j = parent[cur]
            counts[j] += 1
            val -= abs(k[j])
            cur = prev
        counts[j_min] += (target - dist[r]) // m
        return tuple(counts)
    if all(v < 0 for v in values):
        return None
    found = _mixed_witness(gens, target)
    if found is None:
        raise ConductorUnresolvedError(
            f"witness search for N={target} exhausted its cap"
        )
    for j, c in found.items():
        counts[j] = c
    return tuple(counts)


def _mixed_witness(gens: tuple[tuple[int, int], ...], target: int) -> dict[int, int] | None:
    """Constructive witness for mixed-sign generators, respecting the cap
    sum(k') <= 10 * max|k| * (target+1)."""
    cap = 10 * max(abs(v) for v, _ in gens) * (target + 1)
    pos = [(v, j) for v, j in gens if v > 0]
    neg = [(-v, j) for v, j in gens if v < 0]
    p, jp = min(pos)
    q, jq = min(neg)
    g0 = math.gcd(p, q)
    others = [(v, j) for v, j in gens if j not in (jp, jq)]
    # counts of the other generators in [0, g0) cover every residue mod g0
    def assignments(idx: int, remainder: int, acc: dict[int, int]):
        if idx == len(others):
            if remainder % g0 == 0:
                yield dict(acc), remainder
            return
        v, j = others[idx]
        for c in range(g0):
            acc[j] = c
            yield from assignments(idx + 1, remainder - c * v, acc)
        acc.pop(j, None)

    best = None
    for base, rem in assignments(0, target, {}):
        pair = _pair_witness(p, q, rem)
        if pair is None:
            continue
        a, b = pair
        total = a + b + sum(base.values())
        if best is None or total < best[0]:
            counts = dict(base)
            counts[jp] = counts.get(jp, 0) + a
            counts[jq] = counts.get(jq, 0) + b
            best = (total, counts)
    if best is None or best[0] > cap:
        return None
    return best[1]


def _pair_witness(p: int, q: int, target: int) -> tuple[int, int] | None:
    """Nonnegative (a, b) with a*p - b*q = target, minimal a."""
    g0 = math.gcd(p, q)
    if target % g0 != 0:
        return None
    pp, qq, tt = p // g0, q // g0, target // g0
    a0 = 0 if qq == 1 else (tt * pow(pp, -1, qq)) % qq
    if a0 * pp < tt:
        a0 += qq * ((tt - a0 * pp + pp * qq - 1) // (pp * qq))
    return a0, (a0 * pp - tt) // qq


# ---------------------------------------------------------------------------
# frequencies from quadratic forms

def numeric_frequencies(quadratic_form) -> tuple[float, ...]:
    """Oscillator frequencies of a positive definite quadratic form.

    Returns sqrt of the eigenvalues in ascending order. The result is
    numeric only; exact generator coordinates must still be declared by
    the caller before any rational structure is computed.
    """
    import numpy as np

    q = np.asarray(quadratic_form, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError("quadratic form must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(q))))
    if float(np.max(np.abs(q - q.T))) > 1e-12 * scale:
        raise ValidationError("quadratic form must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    if eigs[0] <= 0:
        raise DomainError("quadratic form must be positive definite")
    return tuple(float(x) for x in np.sqrt(eigs))


# ---------------------------------------------------------------------------
# frequency spec files

_GEN_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*([0-9]+(?:\.[0-9]+)?)\s*$")
_OMEGA_RE = re.compile(r"^omega_([0-9]+)$")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_fraction(token: str, lineno: int, col: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad rational {token!r} ({exc})", lineno, col) from None
    return value


def parse_frequency_spec(text: str) -> FrequencySpec:
    """Parse the plain-text frequency format.

    Line 1 (after comments): `generators = label:decimal, ...`
    Then one line per frequency: `omega_j = c1 c2 ... cm` with exact
    rationals written `p/q` or as integers. `#` starts a comment.
    """
    basis = None
    rows: list[tuple[int, GenCoords]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecParseError("expected 'key = value'", lineno, raw.find(line) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "generators":
            if basis is not None:
                raise SpecParseError("duplicate generators line", lineno, 1)
            labels, values = [], []
            for part in value.split(","):
                m = _GEN_RE.match(part)
                if not m:
                    col = raw.find(part.strip()) + 1 if part.strip() else 1
                    raise SpecParseError(f"bad generator {part.strip()!r}", lineno, col)
                labels.append(m.group(1))
                values.append(Decimal(m.group(2)))
            try:
                basis = GeneratorBasis(tuple(labels), tuple(values))
            except ValidationError as exc:
                raise SpecParseError(str(exc), lineno, 1) from None
            continue
        m = _OMEGA_RE.match(key)
        if not m:
            raise SpecParseError(f"unknown key {key!r}", lineno, raw.find(key) + 1)
        if basis is None:
            raise SpecParseError("generators must be declared first", lineno, 1)
        idx = int(m.group(1))
        if idx != len(rows) + 1:
            raise SpecParseError(
                f"expected omega_{len(rows) + 1}, got omega_{idx}", lineno, 1
            )
        tokens = value.split()
        if len(tokens) != len(basis):
            raise SpecParseError(
                f"expected {len(basis)} coordinates, got {len(tokens)}", lineno, 1
            )
        coords = tuple(
            _parse_fraction(tok, lineno, raw.find(tok) + 1) for tok in tokens
        )
        rows.append((lineno, coords))
    if basis is None:
        raise SpecParseError("missing generators line", 1, 1)
    if not rows:
        raise SpecParseError("no frequencies declared", 1, 1)
    try:
        return FrequencySpec.build(basis, [coords for _, coords in rows])
    except ValidationError as exc:
        raise SpecParseError(str(exc), rows[0][0], 1) from None


def load_frequency_spec(path) -> FrequencySpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_frequency_spec(f.read())


def format_frequency_spec(spec: FrequencySpec) -> str:
    gens = ", ".join(
        f"{lbl}:{val}" for lbl, val in zip(spec.basis.labels, spec.basis.values)
    )
    lines = [f"generators = {gens}"]
    for j, row in enumerate(spec.coords, start=1):
        lines.append("omega_%d = %s" % (j, " ".join(str(c) for c in row)))
    return "\n".join(lines) + "\n"
