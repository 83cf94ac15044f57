"""Benchmark of the kreinalg CLI, driven in-process through ``kreinalg.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-rotated-n16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one closed-loop client: each op starts when the previous one
has returned, as a user waiting for one verdict at a time would.  A run

1. imports kreinalg and generates the workload's instance with ``gen`` a few
   times (set-up; the bytes must repeat exactly);
2. runs the untimed mutation gate: a twin of the instance whose odd generator
   is scaled by 2 must be rejected the documented way;
3. runs ops for ``--seconds`` and checks every report against an oracle;
4. runs the workload's untimed companion op, if it has one, through the
   same oracle;
5. checks that the oracle rejects tampered copies of each correct report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced ops and prints the per-layer metrics (see ``spans.py``).  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Workload choices and measured layer shares are in NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SAMPLES = 100
SETUP_REPS = 2
SQRT2 = math.sqrt(2.0)

VERIFY_CHECKS = [
    "construction",
    "cstar_identity",
    "krein_identity",
    "decomposition",
    "bimodule_associativity",
    "bimodule_inner_compat",
    "bimodule_even_valued",
    "bimodule_positivity",
    "bimodule_norms_coincide",
    "imprimitivity",
    "fullness",
    "commutative_symmetric",
    "odd_symmetry",
]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One repeated CLI op: ``verify``/``spectrum`` on a rotated N-point
    function algebra, or ``counterexample`` on a theta grid.

    ``companion`` is an op run once per run, untimed, after the loop.
    """

    name: str
    command: str
    points: int = 0
    grid: int = 0
    companion: Workload | None = None

    def gen_argv(self, seed: int, out: Path) -> list[str]:
        return ["gen", "--points", str(self.points), "--conjugate", "--seed", str(seed), "--out", str(out)]

    def op_argv(self, seed: int, instance: Path, report: Path) -> list[str]:
        tail = ["--seed", str(seed), "--samples", str(SAMPLES), "--report", str(report)]
        if self.command == "counterexample":
            return ["counterexample", "--grid", str(self.grid)] + tail
        return [self.command, "--input", str(instance)] + tail


# The counterexample sweep is pure-Python scalar work.  Timed on its own on a
# shared 2-vCPU host, its run medians spread by 0.44 of their median (ten 20 s
# runs), beyond any bound the benchmark may set, so it is not a timed
# workload.  One untimed op per verify run keeps its path oracle-checked and
# gives the kalgebra layer's per-layer metrics.
COUNTEREXAMPLE = Workload("counterexample-grid256", "counterexample", grid=256)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-rotated-n16", "verify", points=16, companion=COUNTEREXAMPLE),
        Workload("spectrum-rotated-n24", "spectrum", points=24),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, field); fields are per-op medians
_BUSY = [
    "finite_krein.check_bimodule_axioms",
    "finite_krein.check_imprimitivity",
    "finite_krein.check_cstar_identity",
    "finite_krein.check_krein_identity",
    "finite_krein.check_decomposition",
    "finite_krein.check_odd_symmetry",
    "finite_krein.check_full",
    "finite_krein.check_commutative_symmetric",
    "finite_krein.KreinAlgebra",
    "finite_krein.build_function_algebra",
    "finite_krein.conjugate_algebra",
    "finite_krein.algebra_to_instance_dict",
    "finite_krein.mul_coords",
    "finite_krein.op_norm",
    "spectrum.even_characters",
    "spectrum.extend_character",
    "kalgebra.deformed_check",
    "kalgebra.left_regular_norm",
]
_CALLS = [
    "finite_krein.KreinAlgebra",
    "finite_krein.mul_coords",
    "finite_krein.op_norm",
    "spectrum.extend_character",
    "kalgebra.deformed_check",
    "kalgebra.left_regular_norm",
    "cli.main",
]
LAYER_SPANS = {f"{n}.busy_s": ("s", n, "busy_s") for n in _BUSY}
LAYER_SPANS.update({f"{n}.calls": ("count", n, "calls") for n in _CALLS})
LAYER_SPANS.update(
    {
        "finite_krein.algebra_from_instance_dict.self_s": ("s", "finite_krein.algebra_from_instance_dict", "self_s"),
        "spectrum.verify_spectral_theorem.self_s": ("s", "spectrum.verify_spectral_theorem", "self_s"),
        "cli.self_s": ("s", "cli.main", "self_s"),
    }
)
# these run only inside ``gen``, so they are read from the traced set-up;
# kalgebra metrics are read from the traced companion op
FROM_SETUP = {"finite_krein.conjugate_algebra.busy_s", "finite_krein.algebra_to_instance_dict.busy_s"}
LAYER_OTHER_UNITS = {
    "finite_krein.instance_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "kalgebra.pair_use_ratio": "ratio",
    "trace.overhead_s": "s",
}


# -- oracle ------------------------------------------------------------------


def expected_failures(wl: Workload, rc: int, report: dict | None) -> list[str]:
    """Why (rc, report) is not the correct outcome of ``wl``'s op; [] if it is."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if report is None:
        return ["no report written"]
    errs = []
    if wl.command == "verify":
        names = [c["name"] for c in report["checks"]]
        if names != VERIFY_CHECKS:
            errs.append(f"check names {names}")
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        if failing or report["passed"] is not True:
            errs.append(f"failing checks {failing}")
    elif wl.command == "spectrum":
        if report.get("spectrum_size") != wl.points:
            errs.append(f"spectrum_size {report.get('spectrum_size')}, expected {wl.points}")
        if report.get("transform_rank") != 2 * wl.points:
            errs.append(f"transform_rank {report.get('transform_rank')}, expected {2 * wl.points}")
        if report.get("passed") is not True:
            errs.append("spectral theorem not verified")
    else:
        if report["passing_cells"] != [[0, -1]]:
            errs.append(f"passing_cells {report['passing_cells']}")
        pi_cells = [c for c in report["cells"] if c["theta_index"] == wl.grid // 2]
        ratios = [c.get("witness", {}).get("ratio", math.nan) for c in pi_cells]
        if len(ratios) != 2 or not all(abs(r - SQRT2) <= 1e-9 for r in ratios):
            errs.append(f"theta=pi witness ratios {ratios}")
    return errs


def tampered_reports(wl: Workload, report: dict) -> list[dict]:
    """Wrong copies of a correct report; the oracle must reject each."""
    out = []
    bad = copy.deepcopy(report)
    if wl.command == "verify":
        bad["checks"] = [c for c in bad["checks"] if c["name"] != "imprimitivity"]
        out.append(bad)
        bad = copy.deepcopy(report)
        bad["checks"][-1]["passed"] = False
    elif wl.command == "spectrum":
        bad["spectrum_size"] -= 1
        out.append(bad)
        bad = copy.deepcopy(report)
        bad["transform_rank"] -= 1
    else:
        bad["passing_cells"].append([1, -1])
        out.append(bad)
        bad = copy.deepcopy(report)
        pi = next(c for c in bad["cells"] if c["theta_index"] == wl.grid // 2)
        pi["witness"]["ratio"] += 1e-8
    out.append(bad)
    return out


def write_mutant(data: dict, out: Path) -> None:
    """Twin of the instance ``data`` with its odd generator scaled by 2."""
    twin = dict(data, odd_generator=[[2 * re, 2 * im] for re, im in data["odd_generator"]])
    out.write_text(json.dumps(twin, sort_keys=True, indent=2) + "\n")


# -- running ops ---------------------------------------------------------------


def call(cli, argv: list[str]) -> tuple[int, float]:
    """One in-process CLI call, its output swallowed; (exit code, wall seconds).

    An exception escaping ``main`` is a failed op, not the end of the run: its
    traceback goes to stderr and the exit code reads -1.
    """
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse exits on arguments it rejects
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def read_report(path: Path) -> dict | None:
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    path.unlink()
    return report


def mutation_gate(cli, wl: Workload, seed: int, twin: Path | None, workdir: Path) -> list[str]:
    """Untimed: the scaled-generator twin must fail verify and spectrum as documented."""
    if twin is None:
        return ["no instance to mutate"]
    report_path = workdir / "mutant-report.json"
    errs = []
    # verify on the spectrum instance would cost ~10 verify ops, so only its own command runs there
    commands = ["verify", "spectrum"] if wl.command == "verify" else ["spectrum"]
    for command in commands:
        rc, _ = call(cli, dataclasses.replace(wl, command=command).op_argv(seed, twin, report_path))
        report = read_report(report_path) or {}
        if command == "verify":
            failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
            if rc != 1 or failing != ["odd_symmetry"]:
                errs.append(f"mutant verify: exit {rc}, failing {failing}")
        else:
            hypothesis = report.get("error", {}).get("hypothesis")
            if rc != 3 or hypothesis != "odd symmetry":
                errs.append(f"mutant spectrum: exit {rc}, hypothesis {hypothesis!r}")
    return errs


def run_workload(cli, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float) -> dict:
    """Set-up, mutation gate, closed-loop ops and the oracle; returns raw results."""
    tracer = spans.Tracer()
    instance = workdir / "instance.json"
    report_path = workdir / "report.json"
    errors: list[str] = []
    attempted = failed = 0

    def record(errs: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(errs)
        errors.extend(errs)

    gen_s: list[float] = []
    setup_unit = None
    digests = set()
    for rep in range(SETUP_REPS):
        traced = trace and rep == SETUP_REPS - 1
        first = len(tracer.spans)
        with spans.instrumented(tracer) if traced else contextlib.nullcontext():
            rc, dt = call(cli, wl.gen_argv(seed, instance))
        if traced:
            setup_unit = spans.unit_totals(tracer.spans, first, len(tracer.spans))
        gen_s.append(dt)
        digests.add(hashlib.sha256(instance.read_bytes()).hexdigest() if instance.exists() else None)
        record([f"gen exit code {rc}"] if rc else [])
    record(["gen wrote different bytes for one seed"] if len(digests) != 1 else [])

    twin = shape = None
    if instance.exists():
        data = json.loads(instance.read_text())
        shape = (len(data["basis"]), data["ambient_dim"])
        twin = workdir / "mutant.json"
        write_mutant(data, twin)
        del data  # the parsed instance would otherwise count in the run's peak RSS
    record(mutation_gate(cli, wl, seed, twin, workdir))

    op_s: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    units: list[dict] = []
    report_bytes: list[int] = []
    correct = 0
    good_report = None
    argv = wl.op_argv(seed, instance, report_path)
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(traced_s) <= len(untraced_s)
        first = len(tracer.spans)
        with spans.instrumented(tracer) if traced else contextlib.nullcontext():
            rc, dt = call(cli, argv)
        if traced:
            units.append(spans.unit_totals(tracer.spans, first, len(tracer.spans)))
            report_bytes.append(report_path.stat().st_size if report_path.exists() else 0)
            traced_s.append(dt)
        else:
            untraced_s.append(dt)
        op_s.append(dt)
        report = read_report(report_path)
        errs = expected_failures(wl, rc, report)
        record(errs)
        if not errs:
            correct += 1
            good_report = report
        elapsed = time.perf_counter() - loop_start
        if elapsed >= seconds and (not trace or (traced_s and untraced_s)):
            break

    checked = [(wl, good_report)]
    companion_s = companion_unit = None
    if wl.companion:
        companion_path = workdir / "companion-report.json"
        first = len(tracer.spans)
        with spans.instrumented(tracer) if trace else contextlib.nullcontext():
            rc, companion_s = call(cli, wl.companion.op_argv(seed, instance, companion_path))
        if trace:
            companion_unit = spans.unit_totals(tracer.spans, first, len(tracer.spans))
        report = read_report(companion_path)
        errs = expected_failures(wl.companion, rc, report)
        record(errs)
        checked.append((wl.companion, None if errs else report))

    for checked_wl, report in checked:
        if report is None:
            record([f"no correct {checked_wl.command} report to tamper with"])
        elif not all(expected_failures(checked_wl, 0, bad) for bad in tampered_reports(checked_wl, report)):
            record([f"oracle accepted a tampered {checked_wl.command} report"])
        else:
            record([])

    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct_ops": correct,
        "import_s": import_s,
        "gen_s": gen_s,
        "op_s": op_s,
        "loop_s": elapsed,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "units": units,
        "setup_unit": setup_unit,
        "companion_s": companion_s,
        "companion_unit": companion_unit,
        "report_bytes": report_bytes,
        "instance_bytes": instance.stat().st_size if shape else 0,
        "instance_sha256": hashlib.sha256(instance.read_bytes()).hexdigest() if shape else None,
        "shape": shape,
        "spans": tracer.spans,
    }


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(res: dict) -> dict:
    setup = res["import_s"] + (statistics.median(res["gen_s"]) if res["gen_s"] else 0.0)
    values = {
        "setup_s": setup,
        "op_s.p50": statistics.median(res["op_s"]),
        "ops_per_s": res["correct_ops"] / res["loop_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(wl: Workload, res: dict) -> dict:
    per_op = spans.median_totals(res["units"])
    setup = res["setup_unit"] or {}
    companion = res["companion_unit"] or {}
    out = {}
    for metric, (unit, span, field) in LAYER_SPANS.items():
        table = setup if metric in FROM_SETUP else companion if metric.startswith("kalgebra.") else per_op
        value = table.get(span, {}).get(field, 0)
        out[metric] = {"value": int(value) if unit == "count" else value, "unit": unit}
    lrn_calls = companion.get("kalgebra.left_regular_norm", {}).get("calls", 0)
    pairs_drawn = 2 * wl.companion.grid * (SAMPLES + 1) if wl.companion else 0
    extra = {
        "finite_krein.instance_bytes": res["instance_bytes"],
        "cli.report_bytes": statistics.median(res["report_bytes"]),
        "kalgebra.pair_use_ratio": (lrn_calls / 2) / pairs_drawn if pairs_drawn else 0.0,
        "trace.overhead_s": statistics.median(res["traced_s"]) - statistics.median(res["untraced_s"]),
    }
    out.update({k: {"value": v, "unit": LAYER_OTHER_UNITS[k]} for k, v in extra.items()})
    return out


# -- metadata --------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS build as numpy reports it, and the thread count of each loaded OpenBLAS."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def run_metadata(wl: Workload, seed: int, res: dict) -> dict:
    import numpy as np
    import scipy

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": wl.name,
        "seed": seed,
        "samples_per_op": SAMPLES,
        "client": "closed loop, 1 client",
        "n_ops": len(res["op_s"]),
        "op_s": [round(t, 4) for t in res["op_s"]],
        "gen_s": [round(t, 4) for t in res["gen_s"]],
        "n_traced_ops": len(res["traced_s"]),
        "n_setup_gen": len(res["gen_s"]),
        "N": wl.points,
        "algebra_dim_d": res["shape"] and res["shape"][0],
        "ambient_dim_n": res["shape"] and res["shape"][1],
        "instance_bytes": res["instance_bytes"],
        "instance_sha256": res["instance_sha256"],
    }
    if wl.companion:
        meta["companion"] = {"workload": wl.companion.name, "grid": wl.companion.grid, "op_s": res["companion_s"]}
    return meta


# -- entry point -------------------------------------------------------------------


def load_program():
    """Import kreinalg from ./src with a BLAS pool of at most nproc threads; (cli, seconds)."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from kreinalg import cli

    return cli, time.perf_counter() - t0


def write_spans(path: Path, spans_list: list[list]) -> None:
    with path.open("w") as fh:
        for name, parent, start, end in spans_list:
            fh.write(json.dumps({"name": name, "parent": parent, "start_ns": start, "end_ns": end}) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints their summaries."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kreinalg" / "cli.py").is_file():
        print(f"error: no kreinalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    cli, import_s = load_program()
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        res = run_workload(cli, wl, args.seed, args.seconds, bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(wl, res)
        write_spans(WORK / f"spans-{wl.name}-seed{args.seed}.jsonl", res["spans"])
    else:
        metrics = end_to_end_metrics(res)
    failed = res["failed"]
    if args.trace:
        samples = f"per-op medians of {len(res['traced_s'])} traced ops; {len(res['untraced_s'])} untraced"
    else:
        samples = f"{len(res['op_s'])} ops in {res['loop_s']:.1f} s; set-up: import + median of {len(res['gen_s'])} gen"
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ({samples})")
    for err in res["errors"]:
        print(f"  FAIL {err}")
    for name, m in metrics.items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<50} {failed / res['attempted']:>14.6g} ({failed} of {res['attempted']} attempted)")
    if wl.companion:
        print(f"  untimed companion op {wl.companion.name}: {res['companion_s']:.4g} s")
    if args.trace:
        p50 = statistics.median(res["traced_s"])
        for name, m in metrics.items():
            if name.endswith(("busy_s", "self_s")) and m["value"] and name not in FROM_SETUP:
                base = res["companion_s"] if name.startswith("kalgebra.") else p50
                print(f"  share of its op  {name:<50} {m['value'] / base:6.1%}")
    print("meta " + json.dumps(run_metadata(wl, args.seed, res), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and res["correct_ops"] > 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
