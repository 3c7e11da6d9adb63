"""Deterministic file output helpers.

Every file the tool writes starts with a comment line carrying the tool
version and a hash of the configuration that produced it, so outputs can be
traced and byte-compared across reruns. The hash is the caller's: the CLI
digests its configuration (cli.config_hash), so writing a file needs no
hashing module. Floats are rendered with 17 significant digits ('.'
decimal separator), enough to round-trip doubles.
"""
from __future__ import annotations

from typing import Iterable, Sequence, TextIO

TOOL_NAME = "scarkit"
TOOL_VERSION = "0.1.0"


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, complex):
        raise TypeError("split complex values into _re/_im columns")
    return str(x)


def header_line(cfg_hash: str) -> str:
    return f"# {TOOL_NAME} {TOOL_VERSION} config={cfg_hash}"


def write_csv(
    f: TextIO,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    cfg_hash: str,
    meta: Sequence[str] = (),
) -> None:
    f.write(header_line(cfg_hash) + "\n")
    for line in meta:
        f.write(f"# {line}\n")
    f.write(",".join(columns) + "\n")
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match header")
        f.write(",".join(fmt_value(v) for v in row) + "\n")
