"""Spans around scarkit's public functions, recorded from outside the package.

`install` replaces each traced function, wherever a scarkit module holds a
reference to it, by a wrapper that records a span: name, start, end, the
index of the enclosing span, the hbar step it belongs to, and counters
computed from public fields of the arguments and the result. Nothing in
scarkit is edited; untraced runs never call `install`.

Spans stay in memory until `Tracer.write`; `summarize` turns a span list into
per-layer calls, total and self time, and summed counters.
"""
from __future__ import annotations

import inspect
import json
import math
import sys
import time

# Layers in the order the benchmark reports them; each gets calls, total_s, self_s.
LAYERS = (
    "freqarith.decompose",
    "freqarith.semigroup_witness",
    "spectral.select_target",
    "phasespace.sigma_membership",
    "phasespace.orbit_average",
    "symbols.rotate",
    "fockstate.coherent",
    "fockstate.gram",
    "fockstate.project",
    "fockstate.expect_poly",
    "fockstate.expect_char",
    "scarlab.build_scar",
    "scarlab.convex_scar",
    "scarlab.residuals",
    "scarlab.sweep",
    "reporting.to_csv",
)

# Orbit-average point counts, as documented in phasespace.orbit_average.
_CHAR_POINTS = 256


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, step, counters]
        self._stack: list[int] = []
        self._step: str | None = None
        self._sweeps = 0
        self._steps = 0

    def wrap(self, fn, name, counter=None, starts_step=False):
        """Wrapper recording one span per call of fn.

        name is a string or a callable of the bound arguments. A call with
        starts_step made directly inside scarlab.sweep opens a new hbar step;
        every span until the next one carries that step's id.
        """
        sig = inspect.signature(fn)
        needs_args = counter is not None or callable(name)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if needs_args else None
            label = name(bound) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            if label == "scarlab.sweep":
                self._sweeps += 1
                self._steps = 0
                self._step = None
            elif starts_step and parent is not None and self.spans[parent][0] == "scarlab.sweep":
                self._steps += 1
                self._step = f"{self._sweeps}.{self._steps}"
            rec = [label, 0.0, 0.0, parent, self._step, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
                if label == "scarlab.sweep":
                    self._step = None
            if counter is not None:
                rec[5] = counter(bound, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# counters from public fields


def _extent(state, j: int) -> int:
    """Indices a dense kernel spans on mode j: cutoff+1 for a product state,
    max support index + 1 for a sparse one."""
    if state.coeffs is None:
        return state.cutoff[j] + 1
    return max(k[j] for k in state.coeffs) + 1


def _distinct(state, j: int) -> int:
    if state.coeffs is None:
        return state.cutoff[j] + 1
    return len({k[j] for k in state.coeffs})


def _support(state) -> int:
    if state.coeffs is None:
        return math.prod(c + 1 for c in state.cutoff)
    return len(state.coeffs)


def _expect_name(bound) -> str:
    return "fockstate.expect_char" if bound["a"].chars else "fockstate.expect_poly"


def _expect_counts(bound, result) -> dict:
    bra, ket, a = bound["bra"], bound["ket"], bound["a"]
    if not a.chars:
        return {"support": _support(ket)}
    n = len(a.chars)
    modes = range(bra.dims)
    return {
        "dense_elems": n * sum(_extent(bra, j) * _extent(ket, j) for j in modes),
        "needed_elems": n * sum(_distinct(bra, j) * _distinct(ket, j) for j in modes),
    }


def _coherent_counts(bound, state) -> dict:
    return {"box_points": math.prod(c + 1 for c in state.cutoff)}


def _project_counts(bound, scar) -> dict:
    return {
        "kept": len(scar.state.coeffs),
        "box_points": math.prod(c + 1 for c in scar.state.cutoff),
    }


def _orbit_counts(bound, result) -> dict:
    decomp, a, points = bound["decomp"], bound["a"], bound.get("points")
    if points is not None:
        return {"grid_points": points ** decomp.d_omega}
    if a.is_polynomial:
        per_axis = [
            2 * max(a.degree, 1) * max(abs(v) for v in c.int_weights) + 16
            for c in decomp.components
        ]
        return {"grid_points": math.prod(per_axis)}
    # characters: 256 points per axis plus the doubled-count check
    dw = decomp.d_omega
    return {"grid_points": _CHAR_POINTS**dw + (2 * _CHAR_POINTS) ** dw}


def _sweep_counts(bound, report) -> dict:
    return {"steps": len(bound["config"].hbars)}


def _csv_counts(bound, result) -> dict:
    return {"bytes_written": bound["f"].tell()}


def install(tracer: Tracer) -> None:
    """Route scarkit's public stage functions through tracer spans."""
    from scarkit import fockstate, freqarith, phasespace, scarlab, spectral, symbols

    functions = [
        (freqarith, "decompose", "freqarith.decompose", None, False),
        (freqarith, "semigroup_witness", "freqarith.semigroup_witness", None, False),
        (spectral, "select_target", "spectral.select_target", None, False),
        (phasespace, "sigma_membership", "phasespace.sigma_membership", None, False),
        (phasespace, "orbit_average", "phasespace.orbit_average", _orbit_counts, False),
        (fockstate, "coherent", "fockstate.coherent", _coherent_counts, False),
        (fockstate, "gram", "fockstate.gram", None, False),
        (fockstate, "normalize_scar", "fockstate.project", _project_counts, False),
        (fockstate, "expectation", _expect_name, _expect_counts, False),
        (scarlab, "build_scar", "scarlab.build_scar", None, True),
        # the body of convex_scar; sweep calls it directly for convex steps
        (scarlab, "_convex_parts", "scarlab.convex_scar", None, True),
        (scarlab, "residuals", "scarlab.residuals", None, False),
        (scarlab, "sweep", "scarlab.sweep", _sweep_counts, False),
    ]
    modules = [m for n, m in sys.modules.items() if n == "scarkit" or n.startswith("scarkit.")]
    for module, attr, name, counter, starts_step in functions:
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, counter, starts_step)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    symbols.Symbol.rotate = tracer.wrap(symbols.Symbol.rotate, "symbols.rotate")
    scarlab.ConvergenceReport.to_csv = tracer.wrap(
        scarlab.ConvergenceReport.to_csv, "reporting.to_csv", _csv_counts
    )


# ---------------------------------------------------------------------------
# summaries


def summarize(spans, solve_window=None) -> dict:
    """Per-layer calls, total_s, self_s and summed counters.

    Self time is a span's duration minus the durations of its direct
    children. With solve_window = (start, end), also reports `solve_s`,
    `uncovered_s` (solve time outside every span) and `unattributed_s`
    (uncovered time plus the self time of scarlab.sweep, the loop over hbar steps).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, step, counters in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: dict[str, dict] = {}
    for i, (name, start, end, parent, step, counters) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    out = {"layers": layers}
    if solve_window is not None:
        lo, hi = solve_window
        covered = sum(
            end - start
            for name, start, end, parent, step, counters in spans
            if parent is None and start >= lo and end <= hi
        )
        uncovered = (hi - lo) - covered
        sweep_self = layers.get("scarlab.sweep", {}).get("self_s", 0.0)
        out.update(solve_s=hi - lo, uncovered_s=uncovered, unattributed_s=uncovered + sweep_self)
    return out
