"""Per-op call counts from the traced run repeat exactly on one seed.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workloads are the benchmark's, shrunk so that the test takes seconds.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

COUNTS = [
    "finite_krein.KreinAlgebra.calls",
    "finite_krein.mul_coords.calls",
    "finite_krein.op_norm.calls",
    "spectrum.extend_character.calls",
    "kalgebra.deformed_check.calls",
    "kalgebra.left_regular_norm.calls",
]

SMALL = [
    run.Workload(
        "verify-rotated-n3",
        "verify",
        points=3,
        companion=run.Workload("counterexample-grid8", "counterexample", grid=8),
    ),
    run.Workload("spectrum-rotated-n4", "spectrum", points=4),
]


@pytest.fixture(scope="module")
def cli():
    return run.load_program()[0]


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_counts_repeat_across_traced_runs(cli, wl):
    counts = []
    run.WORK.mkdir(exist_ok=True)
    for _ in range(2):
        workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
        try:
            res = run.run_workload(cli, wl, seed=5, seconds=0, trace=True, workdir=workdir, import_s=0.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert res["failed"] == 0, res["errors"]
        metrics = run.per_layer_metrics(wl, res)
        counts.append({name: metrics[name]["value"] for name in COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    # the wrappers are gone once the traced ops return
    assert not hasattr(sys.modules["kreinalg.finite_krein"].KreinAlgebra.__init__, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
