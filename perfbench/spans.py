"""In-memory spans around calls into kreinalg's layers.

The program is not edited: :func:`instrumented` rebinds the public names
listed in :data:`TARGETS` to wrappers, in every ``kreinalg`` module that
imported them, and restores the originals on exit.  Each wrapper appends one
span ``[name, parent, start_ns, end_ns]`` to a :class:`Tracer`; the parent is
the span open when the call began, so spans nest as the calls do.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter_ns

# (module, attribute, span name).  A dotted attribute is a method of a class
# in that module; ``__init__`` spans count constructions.
TARGETS = [
    ("kreinalg.cli", "main", "cli.main"),
    ("kreinalg.finite_krein", "KreinAlgebra.__init__", "finite_krein.KreinAlgebra"),
    ("kreinalg.finite_krein", "KreinAlgebra.mul_coords", "finite_krein.mul_coords"),
    ("kreinalg.finite_krein", "KreinAlgebra.op_norm", "finite_krein.op_norm"),
    ("kreinalg.finite_krein", "build_function_algebra", "finite_krein.build_function_algebra"),
    ("kreinalg.finite_krein", "conjugate_algebra", "finite_krein.conjugate_algebra"),
    ("kreinalg.finite_krein", "algebra_from_instance_dict", "finite_krein.algebra_from_instance_dict"),
    ("kreinalg.finite_krein", "algebra_to_instance_dict", "finite_krein.algebra_to_instance_dict"),
    ("kreinalg.finite_krein", "check_cstar_identity", "finite_krein.check_cstar_identity"),
    ("kreinalg.finite_krein", "check_krein_identity", "finite_krein.check_krein_identity"),
    ("kreinalg.finite_krein", "check_decomposition", "finite_krein.check_decomposition"),
    ("kreinalg.finite_krein", "check_bimodule_axioms", "finite_krein.check_bimodule_axioms"),
    ("kreinalg.finite_krein", "check_imprimitivity", "finite_krein.check_imprimitivity"),
    ("kreinalg.finite_krein", "check_full", "finite_krein.check_full"),
    ("kreinalg.finite_krein", "check_commutative_symmetric", "finite_krein.check_commutative_symmetric"),
    ("kreinalg.finite_krein", "check_odd_symmetry", "finite_krein.check_odd_symmetry"),
    ("kreinalg.spectrum", "even_characters", "spectrum.even_characters"),
    ("kreinalg.spectrum", "extend_character", "spectrum.extend_character"),
    ("kreinalg.spectrum", "verify_spectral_theorem", "spectrum.verify_spectral_theorem"),
    ("kreinalg.kalgebra", "deformed_check", "kalgebra.deformed_check"),
    ("kreinalg.kalgebra", "DeformedAlgebra.left_regular_norm", "kalgebra.left_regular_norm"),
]


class Tracer:
    """Span store shared by every wrapper of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, open_[-1] if open_ else -1, perf_counter_ns(), 0])
            open_.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][3] = perf_counter_ns()
                open_.pop()

        return traced


def _kreinalg_modules():
    return [m for k, m in list(sys.modules.items()) if k == "kreinalg" or k.startswith("kreinalg.")]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every call to a name in TARGETS through ``tracer`` while active."""
    undo = []
    try:
        for module_name, dotted, span_name in TARGETS:
            module = sys.modules[module_name]
            cls_name, _, attr = dotted.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                holders = [cls]
            else:
                original = getattr(module, attr)
                # a module function is also bound wherever another module imported it
                holders = [m for m in _kreinalg_modules() if m.__dict__.get(attr) is original]
            wrapped = tracer.wrap(span_name, original)
            for holder in holders:
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def unit_totals(spans: list[list], first: int, last: int) -> dict[str, dict[str, float]]:
    """Per-name totals over spans[first:last], which must be whole call trees.

    ``calls`` counts every span; ``busy_s`` sums spans not nested in a span
    of the same name; ``self_s`` sums each span minus its direct children.
    """
    child_ns = {}
    for i in range(first, last):
        parent = spans[i][1]
        if parent >= first:
            child_ns[parent] = child_ns.get(parent, 0) + spans[i][3] - spans[i][2]
    out: dict[str, dict[str, float]] = {}
    for i in range(first, last):
        name, parent, start, end = spans[i]
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        dur = end - start
        row["self_s"] += (dur - child_ns.get(i, 0)) / 1e9
        while parent >= first and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < first:
            row["busy_s"] += dur / 1e9
    return out


def median_totals(units: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Per-name, per-field median over units; a name absent from a unit counts as 0."""
    names = {name for u in units for name in u}
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    return {
        name: {
            field: statistics.median(u.get(name, zero)[field] for u in units) for field in zero
        }
        for name in names
    }
