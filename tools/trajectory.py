"""Record one point of the project's performance trajectory.

Usage: PYTHONPATH=src python tools/trajectory.py PR [N ...]

Writes ``BENCH_<PR>.json`` in the current directory.  It holds the git
revision (``git describe --always --dirty``), the platform string, the
Python and numpy versions, the CPU count (``nproc``), the BLAS thread
variables as set, and the wall time and peak RSS of
``gen --points N --conjugate``, ``verify`` and ``spectrum`` on the rotated
instance of each N (default 64, 96 and 128).  Each command runs in its own
process, through ``tools/peak_rss.py``, so each peak is that command's
alone.  The instance files go to a temporary directory.  Before those
commands, ``perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0``
runs unmodified from the repository root, under this interpreter, and the
summary it prints as its last line is recorded under ``perfbench``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import kreinalg

TOOLS = Path(__file__).resolve().parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# what tools/peak_rss.py prints to stderr after each command
LINE = re.compile(r"(\w+): exit (\d+), ([\d.]+) s, peak RSS (\d+) MB")
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "10", "--trace", "0"]


def revision() -> str | None:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=TOOLS, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(argv: str) -> dict:
    """Exit code, wall time and peak RSS of one CLI command in its own process,
    which imports the same kreinalg as this one."""
    src = str(Path(kreinalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "peak_rss.py"), "1e9", argv], capture_output=True, text=True, env=env
    )
    found = LINE.search(proc.stderr)
    if found is None:
        raise RuntimeError(f"{argv!r} printed no peak RSS line:\n{proc.stderr}")
    return {"exit": int(found[2]), "wall_s": float(found[3]), "peak_rss_mb": int(found[4])}


def perfbench() -> dict:
    """The summary perfbench/run.py prints as its last line: whether every
    op was correct, the op counts and each workload's end-to-end metrics."""
    proc = subprocess.run([sys.executable, *PERFBENCH], cwd=TOOLS.parent, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(args: list[str]) -> int:
    if not args or not args[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    pr, sizes = int(args[0]), [int(n) for n in args[1:]] or [64, 96, 128]
    summary, runs = perfbench(), []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            path = Path(tmp) / f"rotated{n}.json"
            inst = shlex.quote(str(path))
            for command, argv in (
                ("gen", f"gen --points {n} --conjugate --out {inst}"),
                ("verify", f"verify --input {inst}"),
                ("spectrum", f"spectrum --input {inst}"),
            ):
                runs.append({"command": command, "points": n, **measure(argv)})
            path.unlink()  # before the next, larger instance is written
    record = {
        "pr": pr,
        "revision": revision(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "runs": runs,
        "perfbench": summary,
    }
    Path(f"BENCH_{pr}.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if summary["correct"] and all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
