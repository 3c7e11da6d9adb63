"""Correctness gate: decides, per hbar step of a sweep, whether it failed.

A step fails when sweep recorded it in ConvergenceReport.errors, when it has
no rows, or when any of its rows breaks one of these rules:

- value, reference and residual are finite;
- concentration:n satisfies sqrt(c) < 2 pi hbar / T_n (within one ladder rung).
  For E_n = 0, select_target takes the lowest level, hbar * zero_point_n / 2,
  which can lie a full rung or more above 0 (omega = (1, 1, .) at E = (0, 1)
  sits exactly one rung up); there sqrt(c) may reach that level instead;
- invariance:n is at most INVARIANCE_MAX (exact Egorov);
- a row named in the reference table matches its recorded value_re,
  value_im, reference_re and reference_im within REF_ABS + REF_REL * |recorded|;
- when every component rotates a single mode (d2-char), the scar is the one
  Fock state |k> with k_j = N_n(hbar), and the gap row of a character probe
  must match the closed form prod_j exp(-|beta_j|^2/2) L_{k_j}(|beta_j|^2),
  evaluated with mpmath, within CLOSED_FORM_ABS. This covers the seeded
  characters, which the reference table cannot.

A step whose experiment has recorded rows must match at least one of them,
so a schedule that drifts away from the table fails instead of going
unchecked.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

INVARIANCE_MAX = 1e-10
ZERO_POINT_SLACK = 1e-12  # rounding in (lambda - 0)^2 at the lowest level
REF_ABS = 1e-12
REF_REL = 1e-8
CLOSED_FORM_ABS = 1e-10

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)["workloads"].get(workload, {})


def row_key(exp_key: str, hbar: float, name: str) -> str:
    return f"{exp_key}|{hbar!r}|{name}"


def row_numbers(row) -> tuple[float, float, float, float]:
    _, _, value, ref, _ = row
    return (value.real, value.imag, ref.real, ref.imag)


def check_report(report, config, exp_key: str, reference: dict):
    """Failures of one sweep: ({hbar: reason}, max tolerance-scaled deviation, rows compared).

    The deviation of a recorded number x_rec is |x - x_rec| / (REF_ABS +
    REF_REL |x_rec|), so the reference check passes while it stays <= 1.
    """
    failures: dict[float, str] = {}
    worst = 0.0
    compared = 0
    has_reference = any(k.startswith(exp_key + "|") for k in reference)
    closed = closed_form_characters(config)
    errors = dict(report.errors)
    by_hbar: dict[float, list] = {h: [] for h in report.hbars}
    for row in report.rows:
        by_hbar.setdefault(row[0], []).append(row)
    for hbar, rows in by_hbar.items():
        if hbar in errors:
            failures[hbar] = f"sweep error: {errors[hbar]}"
            continue
        if not rows:
            failures[hbar] = "no rows"
            continue
        matched = 0
        for row in rows:
            reason = _row_problem(row, config)
            rec = reference.get(row_key(exp_key, hbar, row[1]))
            if reason is None and rec is not None:
                matched += 1
                for x, r in zip(row_numbers(row), rec):
                    dev = abs(x - r) / (REF_ABS + REF_REL * abs(r))
                    worst = max(worst, dev)
                    if dev > 1.0:
                        reason = f"{row[1]} = {x!r}, recorded {r!r}"
            exact = closed.get((hbar, row[1]))
            if reason is None and exact is not None:
                matched += 1
                dev = abs(row[2] - exact) / CLOSED_FORM_ABS
                worst = max(worst, dev)
                if dev > 1.0:
                    reason = f"{row[1]} = {row[2]!r}, closed form {exact!r}"
            if reason is not None:
                failures[hbar] = reason
                break
        else:
            compared += matched
            if has_reference and not matched:
                failures[hbar] = "no recorded reference row for this step"
    return failures, worst, compared


def closed_form_characters(config) -> dict[tuple[float, str], complex]:
    """{(hbar, "gap:<label>"): exact value} for single-character probes.

    Empty unless every component has int_weights equal to a unit vector and
    together they cover every mode, so that the projection keeps exactly
    k_j = N_n. Then <k|D(beta)|k> = exp(-|beta|^2/2) L_k(|beta|^2) per mode,
    with beta_j = -sqrt(hbar/2) (w_xj + i w_xij).
    """
    import mpmath
    from scarkit import select_target

    decomp = config.decomposition
    mode_of = []
    for comp in decomp.components:
        if sorted(comp.int_weights) != [0] * (decomp.dims - 1) + [1]:
            return {}
        mode_of.append(comp.int_weights.index(1))
    if config.points or sorted(mode_of) != list(range(decomp.dims)):
        return {}
    probes = [a for a in config.probes if not a.poly and len(a.chars) == 1]
    out = {}
    with mpmath.workdps(30):
        for hbar in config.hbars:
            target = select_target(decomp, config.E, hbar)
            k = [0] * decomp.dims
            for n, j in enumerate(mode_of):
                k[j] = target.N[n]
            for a in probes:
                (coeff, w), = a.chars
                value = mpmath.mpc(coeff)
                for j in range(decomp.dims):
                    x = mpmath.mpf(hbar) / 2 * (mpmath.mpf(w[j]) ** 2 + mpmath.mpf(w[decomp.dims + j]) ** 2)
                    value *= mpmath.exp(-x / 2) * mpmath.laguerre(k[j], 0, x)
                out[(hbar, f"gap:{a.label}")] = complex(value)
    return out


def _row_problem(row, config) -> str | None:
    hbar, name, value, ref, resid = row
    if not all(math.isfinite(x) for x in (value.real, value.imag, ref.real, ref.imag, resid)):
        return f"{name}: non-finite entry ({value!r}, {ref!r}, {resid!r})"
    kind, _, index = name.partition(":")
    if kind == "concentration":
        n = int(index) - 1
        comp = config.decomposition.components[n]
        rung = 2.0 * math.pi * hbar / comp.period
        c = value.real
        if config.E[n] == 0.0:
            lowest = hbar * abs(comp.zero_point) / 2.0
            ok = c >= 0.0 and math.sqrt(c) <= max(rung, lowest) * (1.0 + ZERO_POINT_SLACK)
        else:
            ok = c >= 0.0 and math.sqrt(c) < rung
        if not ok:
            return f"{name} = {c!r}: sqrt exceeds the ladder rung {rung!r}"
    elif kind == "invariance" and not abs(value) <= INVARIANCE_MAX:
        return f"{name} = {abs(value)!r} above {INVARIANCE_MAX}"
    return None
