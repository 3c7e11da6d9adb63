"""The three sweep workloads, built from a seed through the public API.

A workload is a list of experiments; each experiment is one SweepConfig.
Only the generated inputs reach scarkit. The seed picks the character
probes, the coefficients of the extra polynomial probes and the phases of
the convex tori. It never changes a cutoff or a support size, so the cost
of a workload does not depend on the seed.

Every schedule is hbar = h0 * 2^-m. `smoke` shortens the schedules (and the
simplex grid) to a prefix of the full ones, for the benchmark's own tests.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

GENERATORS = "generators = one:1, sqrt2:1.414213562373095048801688724209698078570\n"
D2_SPEC = GENERATORS + "omega_1 = 1 0\nomega_2 = 0 1\n"
D3_SPEC = GENERATORS + "omega_1 = 1 0\nomega_2 = 2 0\nomega_3 = 0 1\n"
SIMPLEX_SPEC = GENERATORS + "omega_1 = 1 0\nomega_2 = 1 0\nomega_3 = 0 1\n"


@dataclass(frozen=True)
class Experiment:
    """One sweep; `key` names it in the reference table independently of the seed."""

    key: str
    config: object  # scarkit.SweepConfig


def schedule(h0: float, steps: int) -> tuple[float, ...]:
    return tuple(h0 * 2.0**-m for m in range(steps))


def _key(kind: str, E) -> str:
    return f"{kind} E=" + " ".join(repr(float(v)) for v in E)


def d2_char(sk, seed: int, smoke: bool = False) -> list[Experiment]:
    """omega = (1, sqrt2): support-1 scars, cost is the character kernel."""
    decomp = sk.decompose(sk.parse_frequency_spec(D2_SPEC))
    E = (0.5, 0.5)
    probes = sk.default_probes(decomp, seed)
    hbars = schedule(0.2, 4 if smoke else 8)
    return [Experiment(_key("single", E), sk.SweepConfig(decomp, E, hbars, probes=probes, seed=seed))]


def d3_poly(sk, seed: int, smoke: bool = False) -> list[Experiment]:
    """omega = (1, 2, sqrt2): large projected states, polynomial probes only.

    Two extra probes c * x1 x3 and c * xi2 x3 with seeded coefficients. The
    monomials are fixed: each x/xi pattern does the same work, but peak RSS
    differs by up to 5% between patterns.
    """
    decomp = sk.decompose(sk.parse_frequency_spec(D3_SPEC))
    d = decomp.dims
    E = (0.6, 0.4)
    probes = [sk.parse_symbol(s, d) for s in ("x1^2", "H1", "H2", "H3")]
    rng = random.Random(seed)
    for i, powers in enumerate(((1, 0, 1, 0, 0, 0), (0, 0, 1, 0, 1, 0))):
        coeff = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        probes.append(sk.monomial(d, powers, coeff).with_label(f"mono{i + 1}"))
    hbars = schedule(0.2, 4 if smoke else 9)
    return [
        Experiment(
            _key("single", E),
            sk.SweepConfig(decomp, E, hbars, probes=tuple(probes), seed=seed),
        )
    ]


def _torus_point(sk, actions, phases):
    return sk.PhasePoint(
        tuple(math.sqrt(2 * h) * math.cos(p) for h, p in zip(actions, phases)),
        tuple(math.sqrt(2 * h) * math.sin(p) for h, p in zip(actions, phases)),
    )


def simplex_scan(sk, seed: int, smoke: bool = False) -> list[Experiment]:
    """omega = (1, 1, sqrt2): many short sweeps across the energy simplex.

    E = (i/grid, 1 - i/grid), endpoints included (rank-deficient, d0 = 1).
    Each interior point adds a convex sweep over two tori whose mode-1/mode-2
    action split is 1/3 : 2/3 and 2/3 : 1/3, with seeded phases.
    """
    decomp = sk.decompose(sk.parse_frequency_spec(SIMPLEX_SPEC))
    probes = sk.default_probes(decomp, seed)
    rng = random.Random(seed)
    grid, steps = (2, 3) if smoke else (4, 5)
    pivot2 = decomp.components[1].pivot
    out = []
    for i in range(grid + 1):
        E = (i / grid, 1.0 - i / grid)
        hbars = schedule(min(0.2, sk.hbar_ceiling(decomp, E)), steps)
        out.append(
            Experiment(_key("single", E), sk.SweepConfig(decomp, E, hbars, probes=probes, seed=seed))
        )
        if 0 < i < grid:
            points = []
            for split in (1 / 3, 2 / 3):
                actions = (split * E[0], (1 - split) * E[0], E[1] / pivot2)
                phases = [rng.uniform(0.0, 2 * math.pi) for _ in actions]
                points.append((_torus_point(sk, actions, phases), 0.5))
            cfg = sk.SweepConfig(decomp, E, hbars, points=tuple(points), probes=probes, seed=seed)
            out.append(Experiment(_key("convex", E), cfg))
    return out


WORKLOADS = {
    "d2-char": d2_char,
    "d3-poly": d3_poly,
    "simplex-scan": simplex_scan,
}
