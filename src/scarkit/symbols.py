"""Phase-space observables: polynomials in (x, xi) and plane-wave characters.

A Symbol is a finite linear combination of monomials x^a xi^b (total degree
at most 8) and characters exp(i*sigma(z, w)) with sigma(z, w) = xi.w_x - x.w_xi.
Both classes are closed under the linear flows used here, which is what makes
exact Egorov tests possible: composing with a per-mode rotation maps the class
to itself with no remainder.

Monomial keys are integer tuples of length 2d, powers of x_1..x_d then
xi_1..xi_d. Mode indices in code are 0-based; the text grammar (`x1`, `xi2`,
`H1`) is 1-based to match frequency file numbering.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

MAX_DEGREE = 8

Monomial = tuple[int, ...]


def _canon_poly(dims: int, poly: Mapping[Monomial, complex]) -> dict[Monomial, complex]:
    out: dict[Monomial, complex] = {}
    for mono, coeff in poly.items():
        mono = tuple(int(p) for p in mono)
        if len(mono) != 2 * dims or any(p < 0 for p in mono):
            raise ValidationError(f"bad monomial {mono} for {dims} modes")
        if sum(mono) > MAX_DEGREE:
            raise ValidationError(f"monomial degree {sum(mono)} above cap {MAX_DEGREE}")
        c = complex(coeff)
        if c != 0:
            out[mono] = out.get(mono, 0j) + c
    for mono, c in out.items():  # after merging, so an overflowing sum is caught too
        if not cmath.isfinite(c):
            raise ValidationError(f"monomial {mono} has a non-finite coefficient {c}")
    return {m: c for m, c in out.items() if c != 0}


def _canon_chars(dims: int, chars: Iterable[tuple[complex, Sequence[float]]]):
    merged: dict[tuple[float, ...], complex] = {}
    for coeff, w in chars:
        w = tuple(float(v) for v in w)
        if len(w) != 2 * dims:
            raise ValidationError(f"character parameter needs {2 * dims} entries")
        if not all(math.isfinite(v) for v in w):
            raise ValidationError("character parameter must be finite")
        c = complex(coeff)
        if c != 0:
            merged[w] = merged.get(w, 0j) + c
    for w, c in merged.items():
        if not cmath.isfinite(c):
            raise ValidationError(f"character {w} has a non-finite coefficient {c}")
    return tuple((c, w) for w, c in merged.items() if c != 0)


@dataclass(frozen=True)
class Symbol:
    """Observable a(x, xi); immutable, supports +, -, * and flow rotation."""

    dims: int
    poly: dict[Monomial, complex] = field(default_factory=dict)
    chars: tuple[tuple[complex, tuple[float, ...]], ...] = ()
    label: str | None = None

    def __post_init__(self):
        if self.dims < 1:
            raise ValidationError("Symbol needs at least one mode")
        object.__setattr__(self, "poly", _canon_poly(self.dims, self.poly))
        object.__setattr__(self, "chars", _canon_chars(self.dims, self.chars))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.poly), default=0)

    @property
    def is_polynomial(self) -> bool:
        return not self.chars

    def with_label(self, label: str) -> "Symbol":
        return Symbol(self.dims, self.poly, self.chars, label)

    def conj(self) -> "Symbol":
        poly = {m: c.conjugate() for m, c in self.poly.items()}
        chars = tuple(
            (c.conjugate(), tuple(-v for v in w)) for c, w in self.chars
        )
        return Symbol(self.dims, poly, chars)

    # -- algebra --------------------------------------------------------

    def _require_same_dims(self, other: "Symbol"):
        if self.dims != other.dims:
            raise ValidationError("symbols act on different mode counts")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(self.dims, other)
        if not isinstance(other, Symbol):
            return NotImplemented
        self._require_same_dims(other)
        poly = dict(self.poly)
        for m, c in other.poly.items():
            poly[m] = poly.get(m, 0j) + c
        return Symbol(self.dims, poly, self.chars + other.chars)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Symbol) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def _as_scalar(self) -> complex | None:
        if self.chars:
            return None
        if not self.poly:
            return 0j
        if len(self.poly) == 1:
            (mono, c), = self.poly.items()
            if not any(mono):
                return c
        return None

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Symbol(
                self.dims,
                {m: c * other for m, c in self.poly.items()},
                tuple((c * other, w) for c, w in self.chars),
                self.label,
            )
        if not isinstance(other, Symbol):
            return NotImplemented
        self._require_same_dims(other)
        s = other._as_scalar()
        if s is not None:
            return self * s
        s = self._as_scalar()
        if s is not None:
            return other * s
        if self.chars or other.chars:
            # char*char composes; anything mixing a genuine polynomial with
            # a character has no representative in either class
            if self.poly or other.poly:
                raise ValidationError("polynomial times character is unsupported")
            chars = []
            for c1, w1 in self.chars:
                for c2, w2 in other.chars:
                    chars.append((c1 * c2, tuple(a + b for a, b in zip(w1, w2))))
            return Symbol(self.dims, {}, tuple(chars))
        poly: dict[Monomial, complex] = {}
        for m1, c1 in self.poly.items():
            for m2, c2 in other.poly.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                poly[key] = poly.get(key, 0j) + c1 * c2
        return Symbol(self.dims, poly)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def evaluate(self, x, xi):
        """a(x, xi) on arrays of shape (..., d); returns a complex array."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x.shape != xi.shape or x.shape[-1] != self.dims:
            raise ValidationError("point arrays must share shape (..., d)")
        out = np.zeros(x.shape[:-1], dtype=complex)
        d = self.dims
        for mono, coeff in self.poly.items():
            term = np.full(x.shape[:-1], coeff, dtype=complex)
            for j in range(d):
                if mono[j]:
                    term *= x[..., j] ** mono[j]
                if mono[d + j]:
                    term *= xi[..., j] ** mono[d + j]
            out += term
        for coeff, w in self.chars:
            wx = np.asarray(w[:d])
            wxi = np.asarray(w[d:])
            sigma = xi @ wx - x @ wxi
            out += coeff * np.exp(1j * sigma)
        return out if out.shape else complex(out)

    # -- flow composition -------------------------------------------------

    def rotate(self, theta: Sequence[float]) -> "Symbol":
        """a composed with the rotation z_j -> e^{-i theta_j} z_j.

        On coordinates: x_j -> x_j cos + xi_j sin, xi_j -> -x_j sin + xi_j cos,
        expanded mode by mode (_substitute_mode) with Python's cos, sin and
        pow. Characters map to characters with w_c -> e^{i theta} w_c, so the
        class is preserved exactly. expectation flows by rotation covariance
        of matrix elements instead, and never calls this.
        """
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dims,):
            raise ValidationError("need one angle per mode")
        d = self.dims
        cos = [math.cos(t) for t in th.tolist()]
        sin = [math.sin(t) for t in th.tolist()]
        powers = [  # per mode, cos^k, sin^k and (-sin)^k for k = 0..MAX_DEGREE
            [[v**k for k in range(MAX_DEGREE + 1)] for v in (c, s, -s)] for c, s in zip(cos, sin)
        ]
        poly: dict[Monomial, complex] = {}
        for mono, coeff in self.poly.items():
            expanded = {tuple([0] * (2 * d)): coeff}
            for j in range(d):
                if mono[j] or mono[d + j]:
                    expanded = _substitute_mode(expanded, d, j, mono[j], mono[d + j], *powers[j])
            for m, c in expanded.items():
                poly[m] = poly.get(m, 0j) + c
        chars = [
            (coeff, [w[j] * cos[j] - w[d + j] * sin[j] for j in range(d)]
             + [w[j] * sin[j] + w[d + j] * cos[j] for j in range(d)])
            for coeff, w in self.chars
        ]
        return Symbol(d, poly, chars, self.label)


def _substitute_mode(table, d, j, ax, bx, cpow, spow, mspow):
    """Expand x_j^ax xi_j^bx after the rotation, merging into `table`.

    cpow[k], spow[k] and mspow[k] hold cos^k, sin^k and (-sin)^k.
    """
    out: dict[Monomial, complex] = {}
    for base, coeff in table.items():
        # (x c + xi s)^ax * (-x s + xi c)^bx via double binomial expansion
        for p in range(ax + 1):
            cp = math.comb(ax, p) * cpow[p] * spow[ax - p]
            for q in range(bx + 1):
                cq = math.comb(bx, q) * mspow[q] * cpow[bx - q]
                key = list(base)
                key[j] += p + q
                key[d + j] += (ax - p) + (bx - q)
                key = tuple(key)
                out[key] = out.get(key, 0j) + coeff * cp * cq
    return out


# ---------------------------------------------------------------------------
# constructors

def zero(dims: int) -> Symbol:
    return Symbol(dims)


def constant(dims: int, value) -> Symbol:
    return Symbol(dims, {tuple([0] * (2 * dims)): complex(value)})


def monomial(dims: int, powers: Sequence[int], coeff=1.0) -> Symbol:
    return Symbol(dims, {tuple(powers): complex(coeff)})


def position(dims: int, j: int, power: int = 1) -> Symbol:
    mono = [0] * (2 * dims)
    mono[j] = power
    return Symbol(dims, {tuple(mono): 1.0 + 0j}, label=_pow_label(f"x{j + 1}", power))


def momentum(dims: int, j: int, power: int = 1) -> Symbol:
    mono = [0] * (2 * dims)
    mono[dims + j] = power
    return Symbol(dims, {tuple(mono): 1.0 + 0j}, label=_pow_label(f"xi{j + 1}", power))


def mode_energy(dims: int, j: int) -> Symbol:
    """H_j = (x_j^2 + xi_j^2) / 2."""
    a = [0] * (2 * dims)
    b = [0] * (2 * dims)
    a[j] = 2
    b[dims + j] = 2
    return Symbol(
        dims, {tuple(a): 0.5 + 0j, tuple(b): 0.5 + 0j}, label=f"H{j + 1}"
    )


def character(dims: int, w: Sequence[float], coeff=1.0) -> Symbol:
    """exp(i sigma(z, w)) with sigma(z, w) = xi.w_x - x.w_xi."""
    w = tuple(float(v) for v in w)
    lbl = "char(" + " ".join(f"{v:g}" for v in w) + ")"
    return Symbol(dims, {}, ((complex(coeff), w),), label=lbl)


def _pow_label(base: str, power: int) -> str:
    return base if power == 1 else f"{base}^{power}"


# ---------------------------------------------------------------------------
# text grammar

_FACTOR_RE = re.compile(r"^(x|xi|H)([0-9]+)(?:\^([0-9]+))?$")
_NUMBER_RE = re.compile(r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?$")


def parse_symbol(text: str, dims: int) -> Symbol:
    """Parse `2*x1^2*xi2 + 0.5*H1 - char(0.3 0.1 -0.2 0.5)`.

    Terms are separated by top-level + and -; factors within a term by *.
    Factors: numeric literals, x<j>, xi<j>, H<j> (1-based, optional ^power),
    char(w_x1 .. w_xd w_xi1 .. w_xid).
    """
    src = text.strip()
    if not src:
        raise ValidationError("empty symbol expression")
    total = zero(dims)
    for sign, term in _split_terms(src):
        total = total + _parse_term(term, dims, text) * sign
    return total.with_label(" ".join(src.split()))


def _split_terms(src: str):
    terms = []
    depth = 0
    sign = 1
    cur = []
    for ch in src:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced parentheses in {src!r}")
        if depth == 0 and ch in "+-" and cur and cur[-1].lower() not in "e*(":
            terms.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
            continue
        if depth == 0 and ch in "+-" and not "".join(cur).strip():
            sign *= 1 if ch == "+" else -1
            continue
        cur.append(ch)
    if depth != 0:
        raise ValidationError(f"unbalanced parentheses in {src!r}")
    tail = "".join(cur).strip()
    if not tail:
        raise ValidationError(f"dangling operator in {src!r}")
    terms.append((sign, tail))
    return terms


def _split_factors(term: str):
    parts = []
    depth = 0
    cur = []
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _parse_term(term: str, dims: int, src: str) -> Symbol:
    acc = constant(dims, 1.0)
    for factor in _split_factors(term):
        if not factor:
            raise ValidationError(f"empty factor in {src!r}")
        if _NUMBER_RE.match(factor):
            value = float(factor)
            if not math.isfinite(value):
                raise ValidationError(f"number {factor!r} overflows in {src!r}")
            acc = acc * value
            continue
        if factor.startswith("char(") and factor.endswith(")"):
            body = factor[5:-1].replace(",", " ")
            try:
                w = [float(tok) for tok in body.split()]
            except ValueError:
                raise ValidationError(f"bad character parameter in {factor!r}") from None
            if len(w) != 2 * dims:
                raise ValidationError(
                    f"character needs {2 * dims} numbers, got {len(w)} in {factor!r}"
                )
            acc = acc * character(dims, w)
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValidationError(f"cannot parse factor {factor!r} in {src!r}")
        kind, idx, power = m.group(1), int(m.group(2)) - 1, int(m.group(3) or 1)
        if not 0 <= idx < dims:
            raise ValidationError(f"mode index out of range in {factor!r}")
        if kind == "x":
            base = position(dims, idx)
        elif kind == "xi":
            base = momentum(dims, idx)
        else:
            base = mode_energy(dims, idx)
        for _ in range(power):
            acc = acc * base
    return acc
