"""tools/peak_rss.py runs CLI commands in one process and bounds its peak RSS."""

import importlib.util
import shlex
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("peak_rss", TOOL)
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
