"""tools/peak_rss.py runs CLI commands in one process and bounds its peak RSS;
tools/trajectory.py records the wall time and peak RSS of each command."""

import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name="peak_rss"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peak_rss_checks_each_exit_code_and_the_bound(tmp_path, capsys):
    peak_rss = load_tool()
    inst = shlex.quote(str(tmp_path / "rotated2.json"))
    gen, verify = f"gen --points 2 --conjugate --out {inst}", f"verify --input {inst}"
    assert peak_rss.main(["100000", gen, verify]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(",")[0] for line in err] == ["gen: exit 0", "verify: exit 0"]
    # every Python process is past 1 MB
    assert peak_rss.main(["1", verify]) == 1
    # a command that fails stops the list
    absent = shlex.quote(str(tmp_path / "absent.json"))
    capsys.readouterr()
    assert peak_rss.main(["100000", f"verify --input {absent}", verify]) == 1
    reports = [line for line in capsys.readouterr().err.splitlines() if line.startswith("verify: ")]
    assert [line.split(",")[0] for line in reports] == ["verify: exit 2"]


def test_trajectory_records_each_command_at_each_size(tmp_path, monkeypatch):
    """The perfbench run is stubbed: it prints lines, then its summary."""
    trajectory = load_tool("trajectory")
    monkeypatch.chdir(tmp_path)
    run, benched = subprocess.run, []
    summary = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"w": {"op_s.p50": {"value": 0.5}}}}

    def stub(argv, **kwargs):
        if argv[1:2] != ["perfbench/run.py"]:
            return run(argv, **kwargs)
        benched.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, "workload w\n" + json.dumps(summary) + "\n", "")

    monkeypatch.setattr(trajectory.subprocess, "run", stub)
    assert trajectory.main(["7", "2"]) == 0
    argv = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "10", "--trace", "0"]
    assert benched == [([sys.executable, *argv], TOOLS.parent)]
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert sorted(record) == [
        "blas_threads", "nproc", "numpy", "perfbench", "platform", "pr", "python", "revision", "runs"
    ]
    assert record["perfbench"] == summary
    assert record["pr"] == 7 and record["nproc"] >= 1
    assert sorted(record["blas_threads"]) == sorted(trajectory.BLAS_THREAD_VARIABLES)
    assert [(r["command"], r["points"], r["exit"]) for r in record["runs"]] == [
        ("gen", 2, 0),
        ("verify", 2, 0),
        ("spectrum", 2, 0),
    ]
    # every Python process with numpy loaded is past 1 MB
    assert all(r["wall_s"] >= 0 and r["peak_rss_mb"] > 1 for r in record["runs"])
    assert trajectory.main([]) == 2
    summary["correct"] = False  # an incorrect op fails the record
    assert trajectory.main(["7", "1"]) == 1
