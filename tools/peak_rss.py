"""Run kreinalg CLI commands in one process and bound its peak RSS.

Usage: PYTHONPATH=src python tools/peak_rss.py BOUND_MB ARGV [ARGV ...]

Each ARGV is one command line of ``kreinalg.cli.main``, as one shell-quoted
string, e.g. ``"verify --input rotated48.json"``.  The commands run in order,
in this process.  After each, the exit code, wall time and the process's
peak resident set size so far (``ru_maxrss``) go to stderr.  The script exits
1 as soon as a command exits non-zero or the peak reaches BOUND_MB, else 0.
"""

from __future__ import annotations

import resource
import shlex
import sys
import time

from kreinalg.cli import main as cli_main


def main(args: list[str]) -> int:
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bound_mb = float(args[0])
    for line in args[1:]:
        argv = shlex.split(line)
        start = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{argv[0]}: exit {code}, {wall:.3f} s, peak RSS {rss_mb:.0f} MB", file=sys.stderr)
        if code != 0 or rss_mb >= bound_mb:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
