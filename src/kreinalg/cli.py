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
orjson, and deterministic in the input bytes and flags at a fixed numpy/BLAS
build and BLAS thread count; across thread counts only roundoff moves, so
verdicts and exit codes hold but bytes may not.  gen hands orjson
each matrix as the float64 view of its [re, im] pairs, which orjson writes
as nested lists, so no list tree is built.  json parses every JSON tree the
CLI reads.  A matrix instance in the canonical layout gen writes has its
basis and symmetry_unitary decoded from the file's bytes, one matrix at a
time, with no list tree, and json parses what is left; any other file, with
any whitespace or key order, json parses whole, to the same algebra and
report.  orjson parses no document: it reads only the number tokens of a
decoded matrix.  The end of each matrix is looked for from the previous
matrix's length and stands only if the matrix's exact bracket-skeleton check
passes; after a miss, every later matrix is found by the exact search from
its start.  On a 2-core host the decode takes about 28 ms at rotated
N = 24 (5 MB) and 0.54 s at N = 64 (96 MB), against 32 ms and 0.63 s when
every end was searched for from the matrix's start.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
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
    function_algebra_instance,
    random_unitary,
    _conjugated,
    _function_algebra_arrays,
    _matrix_instance,
    _verify_rows,
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
            # counterexample's report and gen's instance echo them, as 64-bit
            # JSON integers
            if getattr(self, flag) >= 2**64:
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


# compact RFC 8259 text; numpy too: counterexample cells carry numpy.float64,
# spelled as float, and an instance's matrices are float64 arrays of their
# [re, im] pairs (_pairs_view), spelled as nested lists
_OPT = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _pieces(o, depth: int = 2):
    """The bytes of orjson.dumps(o, option=_OPT) in pieces: containers in the
    top `depth` levels yield one piece per member, so a large value is never
    held whole.  Dict keys must be strings."""
    if depth == 0 or not isinstance(o, (dict, list, tuple)) or not o:
        yield orjson.dumps(o, option=_OPT)
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
    """Write orjson.dumps(data, option=_OPT) plus a newline to path: shortest
    round-trip floats, null for non-finite numbers.  With no path, format
    nothing.  False, with the error printed, when the file cannot be written."""
    if path is None:
        return True
    # After OpenBLAS's complex GEMM, orjson formats floats 4-10x slower until
    # a numpy ufunc has run, which fits an upper AVX-512 register state left
    # dirty (SSE code pays for it; a ufunc's vector code clears it).  On a
    # 2-core AVX-512 Xeon, gen --points 24 --conjugate takes 0.03-0.04 s with
    # this line and 0.09-0.23 s without.
    np.add(np.ones(64), 1.0)
    try:
        with path.open("wb") as f:
            f.writelines(_pieces(data))
            f.write(b"\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read input: {exc}") from exc


def _parse_json(raw: bytes):
    """The JSON document in raw, parsed whole by json, so that every error,
    and every value, is json's.  raw is decoded as UTF-8, its CRLF and CR
    line ends turned into LF as read_text's universal newlines turn them, so
    the line numbers in json's messages are the ones read_text would give.
    An integer longer than int's digit limit, which json refuses to convert,
    is an InstanceFormatError like any other."""
    try:
        return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InstanceFormatError("invalid JSON: nested too deep to parse") from exc
    except ValueError as exc:  # json's only other error: int's digit limit
        raise InstanceFormatError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc


# A canonical instance is the text _pieces writes, compact with sorted keys,
# so a matrix_algebra file opens with its ambient_dim and then its basis,
# and its symmetry_unitary comes last.  Ten digits are more than any file
# can hold the basis of.
_CANONICAL_HEAD = re.compile(rb'\{"ambient_dim":([1-9][0-9]{0,9}),"basis":\[')
_SYMMETRY_KEY = re.compile(rb'"symmetry_unitary":\[')
# number characters and JSON whitespace: a matrix without them is its
# bracket skeleton
_NUMBER_BYTES = b"0123456789.eE+- \t\n\r"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _matrix_end(raw: bytes, begin: int, skeleton: bytes, guess: int) -> tuple[int, int]:
    """The end of the matrix whose text starts at begin: just past the first
    ``]]]`` from begin, provided that raw[begin:end] with its number bytes
    and whitespace deleted is skeleton; -1 otherwise.  A positive guess is
    the previous matrix's length: the search for ``]]]`` starts at
    begin + guess less a slack of guess/16, and the span found stands only
    if it passes the skeleton check; on a miss the search starts again at
    begin.  Returns the end and the next matrix's guess: this span's length,
    or -1, which stops guessing, after a miss or once stopped, so a file
    pays for one wasted translate at most.  Guess 0 starts guessing.

    A guessed span that passes the check ends where the search from begin
    would end it.  Number bytes and whitespace hold no bracket, so deleting
    them keeps each ``]]]`` of the span as a ``]]]`` of what is left, and
    the skeleton holds ``]]]`` only at its end (its last row ends ``,]]]``);
    so a span that passes holds no ``]]]`` before its last three bytes."""
    if guess > 0:
        end = raw.find(b"]]]", begin + guess - guess // 16) + 3
        if end > begin and raw[begin:end].translate(None, _NUMBER_BYTES) == skeleton:
            return end, end - begin
        guess = -1
    end = raw.find(b"]]]", begin) + 3
    if end > begin and raw[begin:end].translate(None, _NUMBER_BYTES) == skeleton:
        return end, end - begin if guess == 0 else -1
    return -1, -1


def _canonical_instance(raw: bytes) -> dict | None:
    """The instance in raw, its basis decoded from the bytes into one
    (d, n, n) complex array and its symmetry_unitary into one (n, n) array,
    when raw is a canonical matrix_algebra instance whose matrices the tree
    reader would accept; None otherwise.

    Each basis matrix is the span up to its first ``]]]``, followed by a
    comma, or by the basis's ``]`` after the last; the symmetry_unitary is
    the span from the ``[`` after its key up to the next ``]]]``.  Each span
    is found by ``_matrix_end``, from the previous span's length, and must
    be the skeleton of n rows of n [re, im] pairs with one number token in
    each leaf slot.  With its brackets blanked, orjson reads a span's tokens
    as json would in the whole document, [re, im] pairs in reading order,
    straight into the result; every number must be finite.  json parses the
    rest of the text, each matrix replaced by []; it must hold no backslash
    (an escaped key) and no second "basis" or "symmetry_unitary" key, so
    that duplicate keys resolve as json resolves them, and its top-level
    symmetry_unitary must be the [] put in."""
    head = _CANONICAL_HEAD.match(raw)
    if head is None:
        return None
    n = int(head[1])
    # each pair takes 5 bytes or more: no skeleton (4n² bytes or more) is
    # sized by an ambient_dim the file cannot hold; the spans found are
    # disjoint and each at least as long, so the result is at most 4 times
    # the file's size
    if 5 * n * n > len(raw):
        return None
    row = b"[" + b",".join([b"[,]"] * n) + b"]"
    skeleton = b"[" + b",".join([row] * n) + b"]"
    spans, sep, end, guess = [], b",", head.end() - 1, 0
    while sep == b",":
        begin = end + 1
        end, guess = _matrix_end(raw, begin, skeleton, guess)
        if end < 0:
            return None
        spans.append((begin, end))
        sep = raw[end : end + 1]
    sym = _SYMMETRY_KEY.search(raw, end)
    if sep != b"]" or sym is None:
        return None
    sym_begin = sym.end() - 1
    sym_end, _ = _matrix_end(raw, sym_begin, skeleton, guess)
    if sym_end < 0:
        return None
    spans.append((sym_begin, sym_end))
    matrices = np.empty((len(spans), n, n), complex)
    pairs = matrices.view(float).reshape(len(spans), -1)
    for (b, e), out in zip(spans, pairs):
        try:
            numbers = orjson.loads(b"[" + raw[b:e].translate(_BRACKETS_TO_SPACES) + b"]")
        except orjson.JSONDecodeError:
            return None
        # the skeleton's 2n² - 1 commas leave 2n² slots of number bytes, so a
        # list orjson returns has out.size numbers and this cannot fire
        if len(numbers) != out.size:
            return None
        out[:] = np.fromiter(numbers, float, out.size)
    # NaN propagates through min and max, which need no temporary of the
    # basis's size.  No NaN or infinity passes the skeleton check, and
    # orjson 3.8.3 rejects a number beyond the float range, so this cannot
    # fire there; it keeps the decline for an orjson that reads 1e999 as inf
    if not (math.isfinite(pairs.min()) and math.isfinite(pairs.max())):
        return None
    # [] is a whole value, as each matrix is, so the rest is valid JSON just
    # when raw is; 0 would not be (raw's "]e5" would read as 0e5)
    rest = raw[: head.end() - 1] + b"[]" + raw[end + 1 : sym_begin] + b"[]" + raw[sym_end:]
    if b"\\" in rest or rest.count(b'"basis"') != 1 or rest.count(b'"symmetry_unitary"') != 1:
        return None
    try:
        data = json.loads(rest.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    # a duplicate ambient_dim other than n is left for the tree reader to name
    if data.get("kind") != "matrix_algebra" or data["ambient_dim"] != n:
        return None
    # the "symmetry_unitary" found may be a key of a nested object
    if data.get("symmetry_unitary") != []:
        return None
    data["basis"], data["symmetry_unitary"] = matrices[:-1], matrices[-1]
    return data


def _read_instance(path: Path):
    """The instance file parsed, its matrices decoded by _canonical_instance
    when the file is canonical, else the tree _parse_json reads."""
    raw = _read_bytes(path)
    data = _canonical_instance(raw)
    return _parse_json(raw) if data is None else data


def _load_algebra(cfg: RunConfig) -> KreinAlgebra:
    return algebra_from_instance_dict(_read_instance(cfg.input_path), tol=cfg.tol)


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


def _loaded(cfg: RunConfig) -> KreinAlgebra | None:
    """The instance's algebra, or None with the error printed."""
    try:
        return _load_algebra(cfg)
    except (InstanceFormatError, AlgebraValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _written(cfg: RunConfig, data: dict, code: int) -> int:
    """Write data with the command and tol as the report: code, or EXIT_BAD_INPUT if unwritable."""
    return code if _dump_json(dict(data, command=cfg.command, tol=cfg.tol), cfg.output_path) else EXIT_BAD_INPUT


def _report(cfg: RunConfig, checks: list[CheckResult], data: dict, verdict: str, *lines: str) -> int:
    """Print the header, any extra lines, the checks and the verdict, or
    CHECKS FAILED when data["passed"] is false; write the report
    (``_written``); return the exit code."""
    print(f"{cfg.command}: {cfg.input_path}", *lines, sep="\n")
    _print_checks(checks)
    print(verdict if data["passed"] else "CHECKS FAILED")
    return _written(cfg, data, EXIT_OK if data["passed"] else EXIT_CHECK_FAILED)


def run_verify(cfg: RunConfig) -> int:
    """Axiom checks for one instance; exit 1 if a check fails, 2 on bad input."""
    algebra = _loaded(cfg)
    if algebra is None:
        return EXIT_BAD_INPUT
    checks = _verify_rows(algebra, cfg.tol)
    data = {"checks": [c.to_dict() for c in checks], "passed": all(c.passed for c in checks)}
    return _report(cfg, checks, data, "all checks passed")


def run_spectrum(cfg: RunConfig) -> int:
    """Spectral-theorem suite; exit 3 on a failed hypothesis, 1 on a failed row."""
    algebra = _loaded(cfg)
    if algebra is None:
        return EXIT_BAD_INPUT
    try:
        report = verify_spectral_theorem(algebra, tol=cfg.tol)
    except SpectralHypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        error = {"hypothesis": exc.hypothesis, "message": str(exc), "check": exc.check.to_dict()}
        return _written(cfg, {"error": error}, EXIT_HYPOTHESIS)

    size = f"  spectrum size {report.spectrum_size}, transform rank {report.transform_rank}"
    return _report(cfg, report.checks, report.to_dict(), "spectral theorem verified", size)


def run_gen(cfg: RunConfig) -> int:
    """Write an instance file; identical seeds give identical bytes.  With
    --conjugate, the closed form of C(X) (x) K is rotated by the seeded Q and
    written one basis matrix at a time; no algebra is constructed, since
    verify and spectrum validate the instance when they load it."""
    if cfg.conjugate:
        try:
            basis, sym, odd_gen = _function_algebra_arrays(cfg.points)
            Q = random_unitary(len(sym), np.random.default_rng(cfg.seed))
            basis, sym = _conjugated(basis, sym, Q, cfg.tol)
        except (InstanceFormatError, AlgebraValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        data = _matrix_instance(basis, sym, odd_gen)
    else:
        data = function_algebra_instance(cfg.points)
    if not _dump_json(data, cfg.output_path):
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
            ratio = float("nan")
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
                ratio = wit.lhs / wit.rhs if wit.rhs else float("inf")
                cell["witness"] = {
                    "check": wit.check,
                    "x": [[wit.x[0].real, wit.x[0].imag], [wit.x[1].real, wit.x[1].imag]],
                    "y": [[wit.y[0].real, wit.y[0].imag], [wit.y[1].real, wit.y[1].imag]],
                    "lhs": wit.lhs,
                    "rhs": wit.rhs,
                    "ratio": ratio,
                }
            cells.append(cell)
            if verdict.is_banach and verdict.is_krein:
                passing.append((j, sign))
            if j == cfg.grid // 2:
                pi_cells.append((sign, verdict, ratio))

    unique_pass = passing == [(0, -1)]
    pi_flagged = all(
        not v.is_banach
        and v.witness is not None
        and v.witness.check == "submultiplicative"
        and abs(ratio - math.sqrt(2.0)) <= 1e-9
        for _, v, ratio in pi_cells
    )
    ok = unique_pass and pi_flagged

    print(f"counterexample sweep: {cfg.grid} theta points x 2 signs")
    print(f"  cells passing Banach and Krein checks: {passing}")
    for sign, v, ratio in pi_cells:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parse_args keeps
    no state in it, and every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="kreinalg",
        description="Verify finite-dimensional Krein C*-algebra constructions numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol",
            type=float,
            default=RunConfig.tol,
            help="residual tolerance (counterexample accepts it and keeps its own 1e-12)",
        )
        p.add_argument("--seed", type=int, default=RunConfig.seed, help="seeds gen and counterexample")
        p.add_argument(
            "--samples",
            type=int,
            default=RunConfig.samples,
            help="random element pairs per theta cell of counterexample "
            "(verify and spectrum accept it and draw none)",
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
    p.add_argument("--grid", type=int, default=RunConfig.grid, help="theta grid size (even)")
    p.add_argument("--report", type=Path, default=None)
    common(p)
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    # a subcommand without --points, --conjugate or --grid keeps RunConfig's default
    own = {k: getattr(ns, k) for k in ("points", "conjugate", "grid") if hasattr(ns, k)}
    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        output_path=getattr(ns, "report", None) or getattr(ns, "out", None),
        tol=ns.tol,
        seed=ns.seed,
        samples=ns.samples,
        **own,
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
