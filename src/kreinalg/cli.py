"""Command line interface.

Subcommands
-----------
verify
    Load a serialized algebra instance and run the axiom checks.
spectrum
    Run the spectral-theorem verification on an instance.
gen
    Emit an instance file: a function algebra over N points, optionally
    conjugated by a seeded random unitary.
counterexample
    Sweep the deformed two-dimensional family over a theta grid, both
    involution signs, and report which cells satisfy which axioms.

Exit codes: 0 all checks passed, 1 some check failed, 2 malformed input or
arguments or an unwritable output path, 3 spectral-theorem hypothesis
failure.  Instances and reports are compact RFC 8259 JSON, written by
orjson, and deterministic in the input bytes and flags; instances are read
with any whitespace, so indented files load too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import kalgebra
from .finite_krein import (
    AlgebraValidationError,
    InstanceFormatError,
    CheckResult,
    DEFAULT_TOL,
    KreinAlgebra,
    algebra_from_instance_dict,
    check_commutative_symmetric,
    check_full,
    check_odd_symmetry,
    function_algebra_instance,
    random_unitary,
    _conjugated,
    _function_algebra_arrays,
    _implied_rows,
    _matrix_instance,
    _pairs_to_json,
)
from .spectrum import SpectralHypothesisError, verify_spectral_theorem

__all__ = ["RunConfig", "run_verify", "run_spectrum", "run_gen", "run_counterexample", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_HYPOTHESIS = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command plus its inputs and knobs."""

    command: str
    input_path: Path | None = None
    output_path: Path | None = None
    tol: float = DEFAULT_TOL
    seed: int = 42
    samples: int = 100
    points: int = 2
    conjugate: bool = False
    grid: int = 64

    def validated(self) -> "RunConfig":
        if self.command not in ("verify", "spectrum", "gen", "counterexample"):
            raise ValueError(f"unknown command {self.command!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a positive finite number")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for flag in ("seed", "samples", "points", "grid"):
            if getattr(self, flag) >= 2**64:  # reports echo them, as 64-bit JSON integers
                raise ValueError(f"--{flag} must be less than 2**64")
        if self.command in ("verify", "spectrum") and self.input_path is None:
            raise ValueError(f"{self.command} requires an input file")
        if self.command == "gen" and self.output_path is None:
            raise ValueError("gen requires an output file")
        if self.command == "gen" and self.points < 1:
            raise ValueError("points must be >= 1")
        if self.command == "counterexample":
            if self.grid < 2 or self.grid % 2 != 0:
                raise ValueError("grid must be an even integer >= 2 so 0 and pi are grid points")
        return self


# compact RFC 8259 text; numpy scalars too: counterexample cells carry
# numpy.float64, spelled as float
_OPT = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _complex_pairs(o) -> list:
    """orjson's fallback for what it cannot write: a complex array becomes
    its [re, im] pairs, so a basis matrix is a list tree only while it is
    being formatted."""
    if isinstance(o, np.ndarray) and np.iscomplexobj(o):
        return _pairs_to_json(o)
    raise TypeError(f"cannot write {type(o).__name__}")


def _pieces(o, depth: int = 2):
    """The bytes of orjson.dumps(o, default=_complex_pairs, option=_OPT) in
    pieces: containers in the top `depth` levels yield one piece per member,
    so a large value is never held whole.  Dict keys must be strings."""
    if depth == 0 or not isinstance(o, (dict, list, tuple)) or not o:
        yield orjson.dumps(o, default=_complex_pairs, option=_OPT)
        return
    if isinstance(o, dict):
        opening, closing = b"{", b"}"
        members = [(orjson.dumps(k) + b":", v) for k, v in sorted(o.items())]
    else:
        opening, closing = b"[", b"]"
        members = [(b"", v) for v in o]
    for i, (prefix, v) in enumerate(members):
        yield (b"," if i else opening) + prefix
        yield from _pieces(v, depth - 1)
    yield closing


def _dump_json(data: dict, path: Path | None) -> bool:
    """Write orjson.dumps(data, default=_complex_pairs, option=_OPT) plus a
    newline to path: complex arrays as [re, im] pairs, shortest
    round-trip floats, null for non-finite numbers.  With no path, format
    nothing.  False, with the error printed, when the file cannot be written."""
    if path is None:
        return True
    # After OpenBLAS's complex GEMM, orjson formats floats 4-10x slower until
    # a numpy ufunc has run, which fits an upper AVX-512 register state left
    # dirty (SSE code pays for it; a ufunc's vector code clears it).  On a
    # 2-core AVX-512 Xeon, gen --points 24 --conjugate takes 0.09-0.13 s with
    # this line and 0.14-0.27 s without.
    np.add(np.ones(64), 1.0)
    try:
        with path.open("wb") as f:
            f.writelines(_pieces(data))
            f.write(b"\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


@contextmanager
def _gc_paused():
    """Cyclic garbage collection off for a phase that builds or drops a large
    JSON tree.  The tree's lists hold no cycles, so refcounting frees them,
    and each collector pass would only walk them.  The caller's state is
    restored on exit: a collector the caller disabled stays disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# orjson turns its document into Python objects recursively, with no depth
# limit, and overflows the C stack on input nested some 50 000 deep; an
# instance is nested 5 deep.
_ORJSON_MAX_DEPTH = 64
# the bytes that set the bracket nesting of JSON text: brackets, the quotes
# around strings, and backslashes with every character an escape can start
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"\\/bfnrtu')))
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"')
_PARENS = bytes.maketrans(b"[{]}", b"(())")


def _nests_within(raw: bytes, depth: int) -> bool:
    """Whether the brackets of JSON text, those inside strings not counted,
    balance and nest at most `depth` deep.  Exact for valid JSON; invalid
    text orjson rejects while it parses, before nesting can matter."""
    parens = _STRING.sub(b"", raw.translate(None, _NOT_NESTING))
    parens = parens.translate(_PARENS, b'"\\/bfnrtu')
    for _ in range(depth):
        if not parens:
            break
        parens = parens.replace(b"()", b"")  # the innermost level
    return not parens


def _read_json(path: Path):
    """The parsed instance file.  orjson parses it; json re-reads what orjson
    rejects or would read differently, so that every error, and every value,
    is json's: text nested deeper than _ORJSON_MAX_DEPTH, and an `ambient_dim`
    or `points` that orjson returns as a float (as it does an integer beyond
    64 bits).  The re-read goes through read_text, whose universal newlines
    set the line numbers in json's messages."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read input: {exc}") from exc
    if _nests_within(raw, _ORJSON_MAX_DEPTH):
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
        else:
            if not (
                isinstance(data, dict)
                and float in (type(data.get("ambient_dim")), type(data.get("points")))
            ):
                return data
            del data
    del raw
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InstanceFormatError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InstanceFormatError("invalid JSON: nested too deep to parse") from exc


def _load_algebra(cfg: RunConfig) -> KreinAlgebra:
    # the parsed tree lives only as the call's argument, so it is freed
    # before the collector is switched back on
    with _gc_paused():
        return algebra_from_instance_dict(_read_json(cfg.input_path), tol=cfg.tol)


def _drawable(cfg: RunConfig) -> bool:
    """Whether numpy can hold (samples, 2, 2) floats, the random element
    pairs ``counterexample`` draws from its two-dimensional family; if not,
    the error is printed, naming --samples.  Only ``counterexample`` draws
    samples; ``verify`` and ``spectrum`` accept --samples unchecked.  A shape
    beyond numpy's size limit is rejected before anything is allocated."""
    try:
        np.empty((cfg.samples, 2, 2))
    except (ValueError, MemoryError) as exc:
        print(f"error: --samples {cfg.samples} is too large to draw: {exc}", file=sys.stderr)
        return False
    return True


def _print_checks(checks: list[CheckResult]) -> None:
    width = max(len(c.name) for c in checks) + 2
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        extra = f"  {c.detail}" if c.detail else ""
        print(f"  {c.name:<{width}}{status}   max residual {c.max_residual:.3e}{extra}")


def run_verify(cfg: RunConfig) -> int:
    """Axiom checks for one instance; exit 1 if a check fails, 2 on bad input."""
    try:
        algebra = _load_algebra(cfg)
    except (InstanceFormatError, AlgebraValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    tol = cfg.tol
    construction = max(
        v for k, v in algebra.validation_residuals.items() if k != "basis_independence"
    )
    checks = [
        CheckResult("construction", construction <= tol, construction),
        *_implied_rows(algebra, tol),
    ]

    full = check_full(algebra, tol)
    dim_even = algebra.even_basis.shape[1]
    checks.append(
        CheckResult("fullness", full, 0.0 if full else 1.0, detail=f"even dim {dim_even}")
    )

    # both flags are one residual's verdict, so they agree by construction
    cs = check_commutative_symmetric(algebra, tol)
    checks.append(
        CheckResult(
            "commutative_symmetric",
            True,
            0.0,
            detail=f"commutative={cs.commutative} symmetric_bimodule={cs.symmetric_bimodule}",
        )
    )

    ov = check_odd_symmetry(algebra, tol=tol)
    if ov.absent:
        checks.append(
            CheckResult(
                "odd_symmetry", True, 0.0, detail="odd generator absent; existence unknown"
            )
        )
    else:
        detail = "; ".join(ov.failures) if ov.failures else None
        checks.append(
            CheckResult(
                "odd_symmetry",
                bool(ov.exists and ov.isometric),
                ov.max_residual,
                detail=detail,
            )
        )

    passed = all(c.passed for c in checks)
    print(f"verify: {cfg.input_path}")
    _print_checks(checks)
    print("all checks passed" if passed else "CHECKS FAILED")
    report = {
        "command": "verify",
        "tol": tol,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "checks": [c.to_dict() for c in checks],
        "passed": passed,
    }
    if not _dump_json(report, cfg.output_path):
        return EXIT_BAD_INPUT
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run_spectrum(cfg: RunConfig) -> int:
    """Spectral-theorem suite; exit 3 when a hypothesis fails."""
    try:
        algebra = _load_algebra(cfg)
    except (InstanceFormatError, AlgebraValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        report = verify_spectral_theorem(algebra, seed=cfg.seed, tol=cfg.tol)
    except SpectralHypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        error = {"hypothesis": exc.hypothesis, "message": str(exc)}
        if not _dump_json({"command": "spectrum", "error": error}, cfg.output_path):
            return EXIT_BAD_INPUT
        return EXIT_HYPOTHESIS

    print(f"spectrum: {cfg.input_path}")
    print(f"  spectrum size {report.spectrum_size}, transform rank {report.transform_rank}")
    _print_checks(report.checks)
    print("spectral theorem verified" if report.passed else "CHECKS FAILED")
    data = report.to_dict()
    data["command"] = "spectrum"
    data["tol"] = cfg.tol
    if not _dump_json(data, cfg.output_path):
        return EXIT_BAD_INPUT
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def run_gen(cfg: RunConfig) -> int:
    """Write an instance file; identical seeds give identical bytes.  With
    --conjugate, the closed form of C(X) (x) K is rotated by the seeded Q and
    written one basis matrix at a time; no algebra is constructed, since
    verify and spectrum validate the instance when they load it."""
    if cfg.conjugate:
        try:
            basis, sym, _, odd_gen = _function_algebra_arrays(cfg.points)
            Q = random_unitary(len(sym), np.random.default_rng(cfg.seed))
            basis, sym = _conjugated(basis, sym, Q, cfg.tol)
        except (InstanceFormatError, AlgebraValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        data = _matrix_instance(basis, sym, odd_gen)
    else:
        data = function_algebra_instance(cfg.points)
    with _gc_paused():
        written = _dump_json(data, cfg.output_path)
    if not written:
        return EXIT_BAD_INPUT
    print(f"wrote {cfg.output_path}")
    return EXIT_OK


def run_counterexample(cfg: RunConfig) -> int:
    """Sweep the deformed family over the theta grid, both signs.

    Expected landscape: every theta != 0 cell fails at least one axiom, the
    explicit witness breaks submultiplicativity at theta = pi by the factor
    sqrt(2), the sign +1 twin of theta = 0 fails the Krein identity, and
    (theta = 0, sign -1) is the unique fully passing cell.  Exit 1 when the
    computed landscape does not match.
    """
    if not _drawable(cfg):
        return EXIT_BAD_INPUT
    cells = []
    passing = []
    pi_cells = []
    for j in range(cfg.grid):
        theta = 2.0 * math.pi * j / cfg.grid
        for sign in (1, -1):
            alg = kalgebra.DeformedAlgebra(theta, sign)
            verdict = kalgebra.deformed_check(alg, cfg.samples, cfg.seed)
            cell = {
                "theta_index": j,
                "theta": theta,
                "sign": sign,
                "is_banach": verdict.is_banach,
                "is_krein": verdict.is_krein,
                "norm_discrepancy": verdict.norm_discrepancy,
            }
            if verdict.witness is not None:
                wit = verdict.witness
                cell["witness"] = {
                    "check": wit.check,
                    "x": [[wit.x[0].real, wit.x[0].imag], [wit.x[1].real, wit.x[1].imag]],
                    "y": [[wit.y[0].real, wit.y[0].imag], [wit.y[1].real, wit.y[1].imag]],
                    "lhs": wit.lhs,
                    "rhs": wit.rhs,
                    "ratio": wit.lhs / wit.rhs if wit.rhs else float("inf"),
                }
            cells.append(cell)
            if verdict.is_banach and verdict.is_krein:
                passing.append((j, sign))
            if j == cfg.grid // 2:
                pi_cells.append((sign, verdict))

    unique_pass = passing == [(0, -1)]
    pi_flagged = all(
        not v.is_banach
        and v.witness is not None
        and v.witness.check == "submultiplicative"
        and abs(v.witness.lhs / v.witness.rhs - math.sqrt(2.0)) <= 1e-9
        for _, v in pi_cells
    )
    ok = unique_pass and pi_flagged

    print(f"counterexample sweep: {cfg.grid} theta points x 2 signs")
    print(f"  cells passing Banach and Krein checks: {passing}")
    for sign, v in pi_cells:
        w = v.witness
        ratio = w.lhs / w.rhs if w is not None and w.rhs else float("nan")
        print(
            f"  theta=pi sign={sign:+d}: is_banach={v.is_banach}, "
            f"witness ratio {ratio:.12f} (expected sqrt(2) = {math.sqrt(2):.12f})"
        )
    print("landscape as expected" if ok else "LANDSCAPE MISMATCH")

    report = {
        "command": "counterexample",
        "grid": cfg.grid,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "cells": cells,
        "passing_cells": [list(p) for p in passing],
        "unique_pass_at_theta0_minus": unique_pass,
        "pi_flagged_non_banach": pi_flagged,
    }
    if not _dump_json(report, cfg.output_path):
        return EXIT_BAD_INPUT
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinalg",
        description="Verify finite-dimensional Krein C*-algebra constructions numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
        p.add_argument("--seed", type=int, default=42, help="RNG seed")
        p.add_argument(
            "--samples",
            type=int,
            default=100,
            help="random element pairs per theta cell of counterexample "
            "(verify and spectrum accept it; verify's report echoes it)",
        )

    p = sub.add_parser("verify", help="run axiom checks on an instance file")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    common(p)

    p = sub.add_parser("spectrum", help="run the spectral-theorem suite on an instance file")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--report", type=Path, default=None)
    common(p)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--points", required=True, type=int, help="number of points")
    p.add_argument(
        "--conjugate",
        action="store_true",
        help="conjugate by a seeded random unitary and emit the matrix form",
    )
    p.add_argument("--out", required=True, type=Path)
    common(p)

    p = sub.add_parser("counterexample", help="sweep the deformed family over a theta grid")
    p.add_argument("--grid", type=int, default=64, help="theta grid size (even)")
    p.add_argument("--report", type=Path, default=None)
    common(p)
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        output_path=getattr(ns, "report", None) or getattr(ns, "out", None),
        tol=ns.tol,
        seed=ns.seed,
        samples=ns.samples,
        points=getattr(ns, "points", 2),
        conjugate=getattr(ns, "conjugate", False),
        grid=getattr(ns, "grid", 64),
    )


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = config_from_args(ns).validated()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    runner = {
        "verify": run_verify,
        "spectrum": run_spectrum,
        "gen": run_gen,
        "counterexample": run_counterexample,
    }[cfg.command]
    return runner(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
