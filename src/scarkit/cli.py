"""Command-line front door.

Subcommands: analyze (decomposition table for a frequency spec), levels
(eigenvalue window table), sweep (full convergence experiment from a config
file), husimi (phase-plane grid of a built or stored state). Exit codes:
0 done, 2 parse or usage error, 3 energy vector outside the joint spectrum
simplex, 4 a sweep wrote its outputs but an hbar step failed or a gating
band printed FAIL, 5 a resource cap or a non-finite kernel value stopped
the command.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .errors import (
    NotInSigmaError,
    NumericalError,
    ResourceLimitError,
    ScarkitError,
    SpecParseError,
    ValidationError,
)
from .fockstate import dump_state, load_state
from .freqarith import decompose, load_frequency_spec, parse_frequency_spec
from .phasespace import PhasePoint, husimi_grid, sigma_membership
from .reporting import fmt_float, header_line, write_csv
from .scarlab import SweepConfig, build_scar, default_probes, sweep
from .spectral import level_table, select_target
from .symbols import parse_symbol

_REQUIRED_KEYS = ("spec", "E", "hbar_start", "hbar_ratio", "hbar_count")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep experiment, as read from a key = value file."""

    spec: str
    E: tuple[float, ...]
    hbar_start: float
    hbar_ratio: float
    hbar_count: int
    z0: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    symbols: tuple[str, ...] = ()
    tail_tol: float = 1e-12
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.hbar_start < math.inf:
            raise SpecParseError("hbar_start must be positive and finite", 0)
        if not 0.0 < self.hbar_ratio < 1.0:
            raise SpecParseError("hbar_ratio must lie in (0, 1)", 0)
        if self.hbar_count < 3:
            raise SpecParseError("hbar_count must be at least 3", 0)
        if not 0.0 < self.tail_tol < 1.0:
            raise SpecParseError("tail_tol must lie in (0, 1)", 0)

    @property
    def hbars(self) -> tuple[float, ...]:
        return tuple(
            self.hbar_start * self.hbar_ratio**i for i in range(self.hbar_count)
        )


def _parse_number(token: str) -> float:
    token = token.strip()
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def _parse_z0(value: str, lineno: int):
    value = value.strip()
    if value == "from-witness":
        return None
    halves = value.split("/")
    if len(halves) != 2:
        raise SpecParseError(
            "z0 must be 'from-witness' or 'x1 x2 ... / xi1 xi2 ...'", lineno
        )
    x = tuple(float(t) for t in halves[0].split())
    xi = tuple(float(t) for t in halves[1].split())
    if len(x) != len(xi):
        raise SpecParseError("z0 position and momentum lengths differ", lineno)
    return (x, xi)


def parse_config(text: str) -> ExperimentConfig:
    """Plain `key = value` lines; `#` comments; rationals as p/q."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise SpecParseError(f"duplicate key '{key}'", lineno)
        seen.add(key)
        try:
            if key == "spec":
                values["spec"] = value
            elif key == "E":
                values["E"] = tuple(_parse_number(t) for t in value.split())
            elif key == "z0":
                values["z0"] = _parse_z0(value, lineno)
            elif key == "hbar_start":
                values["hbar_start"] = float(value)
            elif key == "hbar_ratio":
                values["hbar_ratio"] = float(value)
            elif key == "hbar_count":
                values["hbar_count"] = int(value)
            elif key == "symbols":
                values["symbols"] = tuple(
                    s.strip() for s in value.split(";") if s.strip()
                )
            elif key == "tail_tol":
                values["tail_tol"] = float(value)
            elif key == "out":
                values["out"] = value
            elif key == "seed":
                values["seed"] = int(value)
            else:
                raise SpecParseError(f"unknown key '{key}'", lineno)
        except SpecParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"bad value for '{key}': {exc}", lineno) from exc
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise SpecParseError(f"missing required keys: {', '.join(missing)}", 0)
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"spec = {cfg.spec}"]
    lines.append("E = " + " ".join(fmt_float(v) for v in cfg.E))
    if cfg.z0 is None:
        lines.append("z0 = from-witness")
    else:
        x, xi = cfg.z0
        lines.append(
            "z0 = "
            + " ".join(fmt_float(v) for v in x)
            + " / "
            + " ".join(fmt_float(v) for v in xi)
        )
    lines.append(f"hbar_start = {fmt_float(cfg.hbar_start)}")
    lines.append(f"hbar_ratio = {fmt_float(cfg.hbar_ratio)}")
    lines.append(f"hbar_count = {cfg.hbar_count}")
    if cfg.symbols:
        lines.append("symbols = " + "; ".join(cfg.symbols))
    lines.append(f"tail_tol = {fmt_float(cfg.tail_tol)}")
    lines.append(f"out = {cfg.out}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _load_spec_for(cfg_path: Path, spec_ref: str):
    spec_path = Path(spec_ref)
    if not spec_path.is_absolute():
        spec_path = cfg_path.parent / spec_path
    return load_frequency_spec(spec_path)


def _out_dir(cfg_path: Path, cfg: ExperimentConfig) -> Path:
    """The config's output directory, relative to the config file; created."""
    out_dir = Path(cfg.out)
    if not out_dir.is_absolute():
        out_dir = cfg_path.parent / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _base_point(cfg: ExperimentConfig, decomp) -> PhasePoint:
    """The config's z0, or the membership witness for `z0 = from-witness`."""
    if cfg.z0 is not None:
        return PhasePoint(*cfg.z0)
    return sigma_membership(decomp, cfg.E).torus_point()


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    spec = load_frequency_spec(args.spec)
    decomp = decompose(spec)
    print(f"d_omega = {decomp.d_omega}")
    for n, comp in enumerate(decomp.components):
        weights = " ".join(str(w) for w in comp.weights)
        ints = " ".join(str(k) for k in comp.int_weights)
        signs = "/".join("+" if s > 0 else "-" for s in comp.ladder_signs)
        print(
            f"component {n + 1}: v = {fmt_float(comp.pivot)}"
            f", weights = {weights}"
            f", k = {ints} (signs {signs})"
            f", T = {fmt_float(comp.period)}"
            f", zero_point = {fmt_float(comp.zero_point)}"
            f", conductor = {comp.conductor}"
        )
    return 0


def cmd_levels(args) -> int:
    path = Path(args.spec)
    text = path.read_text()
    spec = parse_frequency_spec(text)
    decomp = decompose(spec)
    columns, rows = level_table(decomp, args.hbar, args.lo, args.hi)
    digest = config_hash(
        text + f"|hbar={args.hbar!r}|lo={args.lo!r}|hi={args.hi!r}"
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as f:
            write_csv(f, columns, rows, digest)
        print(f"wrote {out} ({len(rows)} levels)")
    else:
        write_csv(sys.stdout, columns, rows, digest)
    return 0


def _config_from_args(args) -> tuple[Path, ExperimentConfig, str]:
    cfg_path = Path(args.config)
    text = cfg_path.read_text()
    cfg = parse_config(text)
    if getattr(args, "out", None):
        cfg = replace(cfg, out=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    # out does not influence the numbers; the digest identifies the
    # experiment, so the same run lands the same hash anywhere
    digest = config_hash(serialize_config(replace(cfg, out="out")))
    return cfg_path, cfg, digest


def cmd_sweep(args) -> int:
    cfg_path, cfg, digest = _config_from_args(args)
    spec = _load_spec_for(cfg_path, cfg.spec)
    decomp = decompose(spec)
    sigma_membership(decomp, cfg.E)  # infeasible E fails here, before any work
    probes = tuple(
        parse_symbol(s, decomp.dims) for s in cfg.symbols
    ) or default_probes(decomp, cfg.seed)
    z0 = PhasePoint(*cfg.z0) if cfg.z0 is not None else None
    sweep_cfg = SweepConfig(
        decomposition=decomp,
        E=cfg.E,
        hbars=cfg.hbars,
        z0=z0,
        probes=probes,
        seed=cfg.seed,
        tail_tol=cfg.tail_tol,
    )
    report = sweep(sweep_cfg)

    out_dir = _out_dir(cfg_path, cfg)
    with open(out_dir / "rows.csv", "w") as f:
        report.to_csv(f, digest)
    with open(out_dir / "slopes.csv", "w") as f:
        write_csv(
            f,
            ["observable", "slope"],
            [
                [name.replace(",", ";"), report.fitted_slopes[name]]
                for name in sorted(report.fitted_slopes)
            ],
            digest,
        )
    target_rows = []
    ok_hbars = {h for h, *_ in report.rows}
    for hbar in cfg.hbars:
        if hbar not in ok_hbars:
            continue
        t = select_target(decomp, cfg.E, hbar)
        row = [hbar]
        for n, comp in enumerate(decomp.components):
            row.extend(
                [
                    t.N[n],
                    t.lam[n],
                    abs(cfg.E[n] - t.lam[n]) < 2 * math.pi * hbar / comp.period
                    or cfg.E[n] == 0.0,
                ]
            )
        row.append(t.lambda_total)
        target_rows.append(row)
    target_cols = ["hbar"]
    for n in range(decomp.d_omega):
        target_cols.extend([f"N_{n + 1}", f"lambda_{n + 1}", f"window_ok_{n + 1}"])
    target_cols.append("lambda_total")
    with open(out_dir / "targets.csv", "w") as f:
        write_csv(f, target_cols, target_rows, digest)
    bands: dict[str, tuple[float | None, float | None]] = {"c_hbar": (0.35, None)}
    if cfg.symbols:
        # band-check only observables the user asked for; default probes
        # include symbols whose gap vanishes identically (plain x_j)
        for a in probes:
            bands[f"gap:{a.label}"] = (0.35, 1.1)
    with open(out_dir / "summary.txt", "w") as f:
        f.write(header_line(digest) + "\n")
        f.write(report.summary(bands=bands))
    print(f"wrote {out_dir}/rows.csv, slopes.csv, targets.csv, summary.txt")
    failed_bands = report.band_failures(bands)
    if report.errors or failed_bands:
        print(
            f"error: {len(report.errors)} hbar step(s) failed and "
            f"{len(failed_bands)} band(s) printed FAIL; see {out_dir}/summary.txt",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_husimi(args) -> int:
    cfg_path, cfg, digest = _config_from_args(args)
    spec = _load_spec_for(cfg_path, cfg.spec)
    decomp = decompose(spec)
    base = _base_point(cfg, decomp)
    if args.state:
        with open(args.state) as f:
            state = load_state(f)
        if state.dims != decomp.dims:
            raise ValidationError(
                f"stored state has {state.dims} modes, spec has {decomp.dims}"
            )
    else:
        state = build_scar(decomp, base, cfg.E, cfg.hbars[0], cfg.tail_tol).state
    mode = args.mode - 1
    if not 0 <= mode < state.dims:
        raise ValidationError(f"mode must lie in 1..{state.dims}, got {args.mode}")
    span = 1.25 * math.sqrt(2.0 * state.hbar * (state.cutoff[mode] + 1)) + 1.0
    n = args.grid
    xs = [-span + 2 * span * i / (n - 1) for i in range(n)]
    values = husimi_grid(state, mode, xs, xs, base=base, tail_tol=cfg.tail_tol)
    out_file = _out_dir(cfg_path, cfg) / f"husimi_mode{args.mode}.csv"
    rows = []
    for i, xv in enumerate(xs):
        for k, xiv in enumerate(xs):
            rows.append([xv, xiv, float(values[i, k])])
    with open(out_file, "w") as f:
        write_csv(
            f,
            [f"x{args.mode}", f"xi{args.mode}", "value"],
            rows,
            digest,
            meta=(f"hbar={state.hbar!r}", f"mode={args.mode}"),
        )
    print(f"wrote {out_file}")
    return 0


def cmd_dump(args) -> int:
    cfg_path, cfg, digest = _config_from_args(args)
    spec = _load_spec_for(cfg_path, cfg.spec)
    decomp = decompose(spec)
    scar = build_scar(decomp, _base_point(cfg, decomp), cfg.E, cfg.hbars[0], cfg.tail_tol)
    out_file = _out_dir(cfg_path, cfg) / "state.csv"
    with open(out_file, "w") as f:
        dump_state(f, scar.state, digest)
    print(f"wrote {out_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarkit",
        description="numerical laboratory for scarred oscillator eigenstates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="decomposition table for a frequency spec")
    a.add_argument("spec", help="frequency spec file")
    a.set_defaults(func=cmd_analyze)

    lv = sub.add_parser("levels", help="eigenvalues in a window")
    lv.add_argument("spec", help="frequency spec file")
    lv.add_argument("--hbar", type=float, required=True)
    lv.add_argument("--lo", type=float, required=True)
    lv.add_argument("--hi", type=float, required=True)
    lv.add_argument("--out", help="CSV file (default: stdout)")
    lv.set_defaults(func=cmd_levels)

    sw = sub.add_parser("sweep", help="run a convergence experiment")
    sw.add_argument("config", help="experiment config file")
    sw.add_argument("--out", help="output directory override")
    sw.add_argument("--seed", type=int)
    sw.set_defaults(func=cmd_sweep)

    hu = sub.add_parser("husimi", help="phase-plane grid for one mode")
    hu.add_argument("config", help="experiment config file")
    hu.add_argument("--mode", type=int, required=True, help="mode index, 1-based")
    hu.add_argument("--state", help="read the state from a CSV dump instead")
    hu.add_argument("--grid", type=int, default=41)
    hu.add_argument("--out", help="output directory override")
    hu.set_defaults(func=cmd_husimi)

    du = sub.add_parser("dump", help="build one state and store it as CSV")
    du.add_argument("config", help="experiment config file")
    du.add_argument("--out", help="output directory override")
    du.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInSigmaError as exc:
        print(f"error: E not in the joint spectrum simplex: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except ScarkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
