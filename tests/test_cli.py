"""End-to-end CLI tests: exit codes, report files, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kreinalg
from kreinalg import (
    algebra_to_instance_dict,
    build_function_algebra,
    conjugate_algebra,
    function_algebra_instance,
    gelfand_matrix,
    random_unitary,
    spectrum_classes,
)
from kreinalg import cli
from kreinalg.cli import main
from kreinalg.finite_krein import _pairs_to_json


def read_back(o):
    """`o` as json.loads reads it back from what the CLI writes: tuples as
    lists, a float as its bits, a non-finite number as None."""
    if isinstance(o, float):
        return float.hex(float(o)) if math.isfinite(o) else None
    if isinstance(o, (list, tuple)):
        return [read_back(v) for v in o]
    if isinstance(o, dict):
        return {k: read_back(v) for k, v in o.items()}
    return o


def write_instance(path, mutate=None):
    blob = algebra_to_instance_dict(build_function_algebra(2))
    if mutate is not None:
        mutate(blob)
    path.write_text(json.dumps(blob))
    return path


@pytest.fixture()
def good_instance(tmp_path):
    return write_instance(tmp_path / "good.json")


def json_only_read(path):
    """The instance reader that parses with json alone: the reference the
    orjson reader must agree with."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise kreinalg.InstanceFormatError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise kreinalg.InstanceFormatError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise kreinalg.InstanceFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_outcome(path, monkeypatch, capsys, reader=None):
    """What loading `path` gives, read by the CLI's reader or by `reader`: the
    bytes of the algebra's basis, unitary and odd generator, or the error's
    type, message and field with verify's exit code and stderr."""
    with monkeypatch.context() as m:
        if reader is not None:
            m.setattr(cli, "_read_json", reader)
        try:
            alg = cli._load_algebra(cli.RunConfig("verify", input_path=path))
        except Exception as exc:
            error = {"error": (type(exc), str(exc), getattr(exc, "field", None))}
            try:
                error["exit"] = main(["verify", "--input", str(path)])
            except Exception as exc:
                error["exit"] = type(exc)
            error["stderr"] = capsys.readouterr().err
            return error
    return {
        "algebra": [
            np.asarray(a).tobytes()
            for a in (alg.basis, alg.symmetry_unitary, alg.odd_generator_coords)
        ]
    }


def matrix_instance_text(basis_one="1.0"):
    """A 2-point function algebra in matrix form, with indent=2, the 1.0
    leaves of its basis written as `basis_one`: a basis scaled by one factor
    spans the same algebra."""
    blob = algebra_to_instance_dict(build_function_algebra(2))
    for pair in (pair for matrix in blob["basis"] for row in matrix for pair in row):
        if pair[0] == 1.0:
            pair[0] = "@"
    return json.dumps(blob, indent=2).replace('"@"', basis_one)


class TestVerify:
    def test_function_instance_passes(self, tmp_path, capsys):
        inst = tmp_path / "fn.json"
        assert main(["gen", "--points", "3", "--out", str(inst)]) == 0
        report = tmp_path / "report.json"
        assert main(["verify", "--input", str(inst), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        blob = json.loads(report.read_text())
        assert blob["passed"] is True
        assert any(c["name"] == "odd_symmetry" for c in blob["checks"])

    def test_matrix_instance_passes(self, good_instance):
        assert main(["verify", "--input", str(good_instance)]) == 0

    def test_trivial_odd_part_rows(self, tmp_path, m2_algebra):
        # M_2 with trivial grading: one bimodule_trivial row stands for the five
        # bimodule rows, and imprimitivity holds vacuously; fullness fails
        inst, report = tmp_path / "m2.json", tmp_path / "report.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(m2_algebra)))
        assert main(["verify", "--input", str(inst), "--report", str(report)]) == 1
        checks = json.loads(report.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "construction",
            "cstar_identity",
            "krein_identity",
            "decomposition",
            "bimodule_trivial",
            "imprimitivity",
            "fullness",
            "commutative_symmetric",
            "odd_symmetry",
        ]
        trivial = [c for c in checks if c.get("detail") == "odd part trivial"]
        assert [c["name"] for c in trivial] == ["bimodule_trivial", "imprimitivity"]
        assert all(c["passed"] and c["max_residual"] == 0.0 for c in trivial)
        assert [c["name"] for c in checks if not c["passed"]] == ["fullness"]

    def test_conjugated_instance_passes(self, tmp_path):
        inst = tmp_path / "conj.json"
        assert main(["gen", "--points", "2", "--conjugate", "--out", str(inst)]) == 0
        assert main(["verify", "--input", str(inst)]) == 0

    def test_broken_generator_fails_with_exit_1(self, tmp_path, capsys):
        def scale_generator(blob):
            blob["odd_generator"] = [[2.0 * re, 2.0 * im] for re, im in blob["odd_generator"]]

        inst = write_instance(tmp_path / "broken.json", scale_generator)
        assert main(["verify", "--input", str(inst)]) == 1
        out = capsys.readouterr().out
        assert "odd_symmetry" in out and "FAIL" in out

    def test_non_finite_residual_reports_null(self, tmp_path):
        """An odd generator scaled by 1e200 overflows the odd-symmetry
        residual; the report writes it as null and stays strict JSON."""
        inst = tmp_path / "rot2.json"
        main(["gen", "--points", "2", "--conjugate", "--out", str(inst)])
        blob = json.loads(inst.read_text())
        blob["odd_generator"] = [[1e200 * re, 1e200 * im] for re, im in blob["odd_generator"]]
        inst.write_text(json.dumps(blob))
        report = tmp_path / "report.json"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["verify", "--input", str(inst), "--report", str(report)]) == 1
        odd = {c["name"]: c for c in orjson.loads(report.read_bytes())["checks"]}["odd_symmetry"]
        assert odd["passed"] is False
        assert odd["max_residual"] is None

    @pytest.mark.parametrize("points", [10**7, 2**64], ids=["10**7", "2**64"])
    def test_unbuildable_function_algebra_is_a_schema_error(self, tmp_path, capsys, points):
        """numpy refuses both sizes before allocating anything; 2**64 is read
        by the json fallback."""
        inst = tmp_path / "big.json"
        inst.write_text(f'{{"kind": "function_algebra", "points": {points}}}')
        assert main(["verify", "--input", str(inst)]) == 2
        assert "error: points: too large to build" in capsys.readouterr().err

    def test_non_unitary_symmetry_is_a_schema_error(self, tmp_path, capsys):
        def bend_u(blob):
            blob["symmetry_unitary"][0][0] = [2.0, 0.0]

        inst = write_instance(tmp_path / "bad_u.json", bend_u)
        assert main(["verify", "--input", str(inst)]) == 2
        assert "not unitary" in capsys.readouterr().err

    def test_garbage_json_is_a_schema_error(self, tmp_path, capsys):
        inst = tmp_path / "garbage.json"
        inst.write_text("{not json")
        assert main(["verify", "--input", str(inst)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_field_is_a_schema_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "gap.json", lambda blob: blob.pop("basis"))
        assert main(["verify", "--input", str(inst)]) == 2
        assert "basis" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_leaf_is_a_schema_error(self, tmp_path, capsys, text):
        inst = tmp_path / "nonfinite.json"
        blob = algebra_to_instance_dict(build_function_algebra(2))
        blob["basis"][0][1][1] = ["@", 0.0]
        inst.write_text(json.dumps(blob).replace('"@"', text))
        assert main(["verify", "--input", str(inst)]) == 2
        err = capsys.readouterr().err
        assert "basis[0][1][1]: expected a [re, im] pair of finite numbers" in err

    @pytest.mark.parametrize(
        "make_text",
        [
            lambda: matrix_instance_text().replace("1.0,", "1.0", 1).replace("\n", "\r"),
            lambda: matrix_instance_text().replace("1.0,", "1.0", 1).replace("\n", "\r\n"),
            lambda: "\ufeff" + matrix_instance_text(),
            lambda: matrix_instance_text() + "\n{}",
            lambda: matrix_instance_text().replace("{", '{"ambient_dim": 7, "basis": [], ', 1),
            lambda: matrix_instance_text().replace('"ambient_dim": 4', '"ambient_dim": 18446744073709551616'),
            lambda: matrix_instance_text().replace('"ambient_dim": 4', '"ambient_dim": 2.0'),
            lambda: '{"kind": "function_algebra", "points": 18446744073709551616}',
            lambda: '{"kind": "function_algebra", "points": 2.0}',
            lambda: matrix_instance_text().replace('"matrix_algebra"', '"\\ud800"'),
            lambda: matrix_instance_text("1000000000000000000000000"),
            lambda: matrix_instance_text("1234567890123456789012345"),
            lambda: matrix_instance_text().replace("0.0", "-0"),
        ],
        ids=[
            "cr-syntax-error",
            "crlf-syntax-error",
            "utf8-bom",
            "trailing-data",
            "duplicate-keys",
            "ambient-dim-2**64",
            "ambient-dim-2.0",
            "points-2**64",
            "points-2.0",
            "lone-surrogate-kind",
            "25-digit-integer-leaves-power-of-ten",
            "25-digit-integer-leaves",
            "minus-zero-leaves",
        ],
    )
    def test_reader_agrees_with_json(self, tmp_path, monkeypatch, capsys, make_text):
        inst = tmp_path / "edge.json"
        inst.write_text(make_text(), encoding="utf-8")
        expected = load_outcome(inst, monkeypatch, capsys, reader=json_only_read)
        assert load_outcome(inst, monkeypatch, capsys) == expected

    @pytest.mark.parametrize("points", [1, 2, 8])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_reader_agrees_with_json_on_gen_output(self, tmp_path, monkeypatch, capsys, points, conjugate):
        inst = tmp_path / "gen.json"
        main(["gen", "--points", str(points), "--out", str(inst)] + ["--conjugate"] * conjugate)
        expected = load_outcome(inst, monkeypatch, capsys, reader=json_only_read)
        assert "algebra" in expected
        assert load_outcome(inst, monkeypatch, capsys) == expected

    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**300), 10**300)),
            min_size=1,
        )
    )
    def test_number_leaves_read_as_json_reads_them(self, leaves):
        text = json.dumps(leaves).encode()
        ours = np.fromiter(orjson.loads(text), dtype=float, count=len(leaves))
        reference = np.fromiter(json.loads(text), dtype=float, count=len(leaves))
        assert ours.tobytes() == reference.tobytes()

    def test_valid_input_is_parsed_once(self, tmp_path, monkeypatch):
        inst = tmp_path / "rot.json"
        main(["gen", "--points", "2", "--conjugate", "--out", str(inst)])

        def refuse(*args, **kwargs):
            raise AssertionError("valid input took the json path")

        monkeypatch.setattr(json, "loads", refuse)
        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["verify", "--input", str(inst)]) == 0

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["list", "object"])
    def test_deep_nesting_is_a_schema_error(self, tmp_path, capsys, command, opening, closing):
        inst = tmp_path / "deep.json"
        deep = opening * 5000 + "1" + closing * 5000
        inst.write_text('{"kind": "function_algebra", "points": 2, "x": ' + deep + "}")
        assert main([command, "--input", str(inst)]) == 2
        assert "error: invalid JSON: nested too deep to parse" in capsys.readouterr().err

    def test_nesting_hidden_by_brackets_in_strings_is_a_schema_error(self, tmp_path):
        """Nesting deep enough to overflow the C stack in orjson, behind a
        string of closing brackets that a count blind to strings would
        subtract; in a subprocess, so a crash fails only this test."""
        inst = tmp_path / "deep.json"
        depth = 100_000
        inst.write_text(
            '{"kind": "function_algebra", "points": 2, "s": "' + "]}" * depth
            + '", "x": ' + '{"a": ' * depth + "1" + "}" * depth + "}"
        )
        src = str(Path(kreinalg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "kreinalg.cli", "verify", "--input", str(inst)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: invalid JSON: nested too deep to parse\n"

    @pytest.mark.parametrize(
        "text, depth",
        [
            (b"[]", 1),
            (b'{"a": [1, {"b": "]]}}"}]}', 3),
            (b'{"k": "\\"[[{", "x": [[[]]]}', 4),
            (b'["\\\\", [[]], "\\u005b\\n\\/"]', 3),
        ],
    )
    def test_nesting_depth_skips_strings(self, text, depth):
        assert cli._nests_within(text, depth)
        assert not cli._nests_within(text, depth - 1)

    def test_more_basis_matrices_than_entries_is_a_schema_error(self, tmp_path, capsys):
        inst = tmp_path / "dependent.json"
        blob = {
            "kind": "matrix_algebra",
            "ambient_dim": 1,
            "basis": [[[[1.0, 0.0]]], [[[2.0, 0.0]]]],
            "symmetry_unitary": [[[1.0, 0.0]]],
        }
        inst.write_text(json.dumps(blob))
        assert main(["verify", "--input", str(inst)]) == 2
        assert "basis is not linearly independent" in capsys.readouterr().err

    def test_missing_file_is_a_schema_error(self, tmp_path):
        assert main(["verify", "--input", str(tmp_path / "absent.json")]) == 2


class TestSpectrum:
    def test_passes_and_reports(self, tmp_path):
        inst = tmp_path / "fn.json"
        main(["gen", "--points", "2", "--conjugate", "--out", str(inst)])
        report = tmp_path / "spec_report.json"
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) == 0
        blob = json.loads(report.read_text())
        assert blob["spectrum_size"] == 2
        assert blob["transform_rank"] == 4
        assert len(blob["characters"]) == 2

    def test_nonfull_instance_exits_3(self, tmp_path, capsys):
        base = build_function_algebra(2)
        import kreinalg

        trimmed = kreinalg.KreinAlgebra(
            np.delete(base.basis, 3, axis=0), base.symmetry_unitary
        )
        inst = tmp_path / "nonfull.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(trimmed)))
        report = tmp_path / "err_report.json"
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) == 3
        assert "odd part not full" in capsys.readouterr().err
        blob = json.loads(report.read_text())
        assert blob["error"]["hypothesis"] == "full"

    def test_noncommutative_instance_exits_3(self, tmp_path, capsys, m2_algebra):
        inst = tmp_path / "m2.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(m2_algebra)))
        assert main(["spectrum", "--input", str(inst)]) == 3
        assert "hypothesis failure" in capsys.readouterr().err

    # cond 1e6 is left out: even_characters diagonalizes in coordinates, and
    # there its values are off by up to 5.9e-4 (see CHANGES.md)
    @pytest.mark.parametrize("cond_exp, bound", [(0, 1e-13), (4, 1e-7)], ids=["cond1", "cond1e4"])
    @pytest.mark.parametrize("points", [2, 4])
    def test_mixed_frame_characters_are_on_the_file_basis(
        self, tmp_path, mixed_function_algebra, points, cond_exp, bound
    ):
        # the report's character values are w(B_i) on the instance's own basis:
        # the standard frame's Gelfand rows mapped onto the mixed basis
        alg, to_mixed = mixed_function_algebra(points, cond_exp)
        inst, report = tmp_path / "mixed.json", tmp_path / "report.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(alg)))
        # at cond 1e4 and N = 4 the homomorphism residuals read about 2e-9,
        # above the default tol (exit 1); the characters are reported either way
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) in (0, 1)
        got = np.array(
            [
                [[v[k][0] + 1j * v[k][1] for v in cls["even"]] for k in ("a", "b")]
                for cls in json.loads(report.read_text())["characters"]
            ]
        )
        base = build_function_algebra(points)
        want = (gelfand_matrix(spectrum_classes(base)) @ np.linalg.inv(to_mixed)).reshape(got.shape)
        # the classes are sorted by their values on each frame's basis, so
        # each reported class is compared with its nearest expected one
        errors = np.linalg.norm(got[:, None] - want[None], axis=(2, 3)) / np.linalg.norm(want, axis=(1, 2))
        nearest = errors.argmin(axis=1)
        assert sorted(nearest) == list(range(points))
        assert np.max(errors[np.arange(points), nearest]) <= bound


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_each_run_takes_the_closure_certificates_once(tmp_path, monkeypatch, command):
    # construction takes them; every check reads what it stored
    inst = str(tmp_path / "rotated8.json")
    assert main(["gen", "--points", "8", "--conjugate", "--out", inst]) == 0
    certificates = kreinalg.finite_krein._certificates
    calls = []

    def counted(algebra):
        calls.append(algebra)
        return certificates(algebra)

    for name, module in list(sys.modules.items()):
        if name == "kreinalg" or name.startswith("kreinalg."):
            for attr, value in list(vars(module).items()):
                if value is certificates:
                    monkeypatch.setattr(module, attr, counted)
    assert main([command, "--input", inst]) == 0
    assert len(calls) == 1


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
SPECTRUM_CHECKS = [
    "spectrum_size",
    "surjectivity_rank",
    "injectivity_conditioning",
    "homomorphism_product",
    "homomorphism_star",
    "unital",
    "intertwines_alpha",
    "intertwines_odd_symmetry",
    "isometry",
    "round_trip",
]


class TestReportStructure:
    @pytest.mark.parametrize(
        "command, keys, names",
        [
            ("verify", ["checks", "command", "passed", "samples", "seed", "tol"], VERIFY_CHECKS),
            (
                "spectrum",
                [
                    "characters",
                    "checks",
                    "command",
                    "condition_number",
                    "passed",
                    "spectrum_size",
                    "tol",
                    "transform_rank",
                ],
                SPECTRUM_CHECKS,
            ),
        ],
    )
    def test_rotated_instance_report(self, tmp_path, command, keys, names):
        inst = tmp_path / "rot4.json"
        assert main(["gen", "--points", "4", "--conjugate", "--out", str(inst)]) == 0
        report = tmp_path / "report.json"
        assert main([command, "--input", str(inst), "--report", str(report)]) == 0
        blob = json.loads(report.read_text())
        assert sorted(blob) == keys
        assert [c["name"] for c in blob["checks"]] == names
        assert all(c["passed"] for c in blob["checks"])

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_indented_instance_gives_the_same_report(self, tmp_path, command):
        """The reader takes any whitespace: the compact instance gen writes
        and its json.dumps(indent=2) twin give byte-identical reports."""
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        assert main(["gen", "--points", "4", "--conjugate", "--out", str(compact)]) == 0
        indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2))
        reports = []
        for inst in (compact, indented):
            reports.append(tmp_path / f"{inst.stem}-report.json")
            assert main([command, "--input", str(inst), "--report", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--points", "3", "--conjugate", "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_frame(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--points", "3", "--conjugate", "--seed", "5", "--out", str(a)])
        main(["gen", "--points", "3", "--conjugate", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_plain_gen_emits_function_kind(self, tmp_path):
        out = tmp_path / "fn.json"
        main(["gen", "--points", "4", "--out", str(out)])
        assert json.loads(out.read_text())["kind"] == "function_algebra"

    def test_rejects_nonpositive_points(self, tmp_path):
        assert main(["gen", "--points", "0", "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("points", [1, 2, 5, 8, 16, 24])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_bytes_equal_json_dumps(self, tmp_path, points, conjugate):
        """The streamed file is the whole-document orjson text, and reads back,
        through json and through the CLI's reader, to the instance's values,
        every float bitwise."""
        out = tmp_path / "inst.json"
        argv = ["gen", "--points", str(points), "--seed", "3", "--out", str(out)]
        assert main(argv + ["--conjugate"] * conjugate) == 0
        if conjugate:
            base = build_function_algebra(points)
            Q = random_unitary(base.ambient_dim, np.random.default_rng(3))
            data = algebra_to_instance_dict(conjugate_algebra(base, Q))
        else:
            data = function_algebra_instance(points)
        text = out.read_bytes()
        assert text == orjson.dumps(data, option=cli._OPT) + b"\n"
        assert read_back(json.loads(text)) == read_back(data)
        assert read_back(cli._read_json(out)) == read_back(data)
        assert b"\n" not in text[:-1] and b" " not in text  # compact

    def test_unbuildable_points_exit_2(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        assert main(["gen", "--points", str(10**7), "--conjugate", "--out", str(out)]) == 2
        assert "error: points: too large to build" in capsys.readouterr().err
        assert not out.exists()

    def test_conjugate_constructs_no_algebra(self, tmp_path, monkeypatch):
        """gen writes the rotated closed form; verify validates it on load."""
        out = tmp_path / "rot.json"

        def refuse(*args, **kwargs):
            raise AssertionError("gen constructed an algebra")

        monkeypatch.setattr(kreinalg.KreinAlgebra, "__init__", refuse)
        assert main(["gen", "--points", "3", "--conjugate", "--out", str(out)]) == 0
        monkeypatch.undo()
        assert main(["verify", "--input", str(out)]) == 0

    def test_tol_below_unitarity_exits_2(self, tmp_path, capsys):
        """--tol bounds ||Q^H Q - I||_2, which roundoff puts above 1e-17."""
        out = tmp_path / "rot.json"
        assert main(["gen", "--points", "3", "--conjugate", "--tol", "1e-17", "--out", str(out)]) == 2
        assert "error: conjugating matrix is not unitary" in capsys.readouterr().err
        assert not out.exists()


class TestCounterexample:
    def test_landscape(self, tmp_path):
        report = tmp_path / "cells.json"
        assert main(["counterexample", "--grid", "8", "--report", str(report)]) == 0
        blob = json.loads(report.read_text())
        assert blob["unique_pass_at_theta0_minus"] is True
        assert blob["pi_flagged_non_banach"] is True
        assert blob["passing_cells"] == [[0.0, -1]]
        pi_cells = [
            c
            for c in blob["cells"]
            if abs(c["theta"] - np.pi) < 1e-12
        ]
        assert len(pi_cells) == 2
        for cell in pi_cells:
            assert not cell["is_banach"]
            ratio = cell["witness"]["lhs"] / cell["witness"]["rhs"]
            assert ratio == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_odd_grid_rejected(self, capsys):
        assert main(["counterexample", "--grid", "7"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_samples_rejected(self):
        assert main(["counterexample", "--grid", "8", "--samples", "0"]) == 2


class TestBadArgumentsAndFiles:
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_non_finite_tol_exits_2(self, good_instance, capsys, command, tol):
        assert main([command, "--input", str(good_instance), "--tol", tol]) == 2
        assert "tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--input", "{good}"],
            ["spectrum", "--input", "{good}"],
            ["gen", "--points", "2", "--conjugate", "--out", "{out}"],
            ["counterexample", "--grid", "2"],
        ],
        ids=["verify", "spectrum", "gen", "counterexample"],
    )
    def test_negative_seed_exits_2(self, tmp_path, good_instance, capsys, argv):
        paths = {"good": good_instance, "out": tmp_path / "out.json"}
        assert main([a.format(**paths) for a in argv] + ["--seed", "-1"]) == 2
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["verify", "--input", "{good}"], ["--seed", "--samples"]),
            (["spectrum", "--input", "{good}"], ["--seed", "--samples"]),
            (["gen", "--points", "2", "--conjugate", "--out", "{out}"], ["--seed", "--samples", "--points"]),
            (["counterexample", "--grid", "2"], ["--seed", "--samples", "--grid"]),
        ],
        ids=["verify", "spectrum", "gen", "counterexample"],
    )
    def test_flag_beyond_64_bits_exits_2(self, tmp_path, good_instance, capsys, argv, flags):
        """The reports echo these flags, and JSON integers are 64-bit."""
        paths = {"good": good_instance, "out": tmp_path / "out.json"}
        for flag in flags:
            assert main([a.format(**paths) for a in argv] + [flag, str(2**64)]) == 2
            assert f"error: {flag} must be less than 2**64" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("samples", [2**62, 2**64 - 1])
    def test_samples_too_large_to_draw_exits_2(self, tmp_path, capsys, samples):
        """numpy rejects these draw shapes before it allocates anything;
        counterexample rejects them before its sweep."""
        report = tmp_path / "report.json"
        argv = ["counterexample", "--grid", "2", "--samples", str(samples), "--report", str(report)]
        assert main(argv) == 2
        assert f"error: --samples {samples} is too large to draw" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("samples", [2**62, 2**64 - 1])
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_samples_are_accepted_undrawn(self, tmp_path, good_instance, command, samples):
        """verify and spectrum draw no samples: they accept any --samples
        below 2**64, and verify's report echoes it."""
        report = tmp_path / "report.json"
        argv = [command, "--input", str(good_instance), "--samples", str(samples), "--report", str(report)]
        assert main(argv) == 0
        blob = orjson.loads(report.read_bytes())
        assert blob["passed"] is True
        assert blob.get("samples") == (samples if command == "verify" else None)

    def test_largest_seed_is_echoed(self, tmp_path):
        report = tmp_path / "cells.json"
        argv = ["counterexample", "--grid", "2", "--seed", str(2**64 - 1), "--report", str(report)]
        assert main(argv) == 0
        assert orjson.loads(report.read_bytes())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command):
        inst = tmp_path / "latin1.json"
        inst.write_bytes(b'\xff{"kind": "function_algebra", "points": 2}')
        assert main([command, "--input", str(inst)]) == 2
        assert "input is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--input", "{good}", "--report"],
            ["spectrum", "--input", "{good}", "--report"],
            ["spectrum", "--input", "{nonfull}", "--report"],  # the exit-3 report
            ["gen", "--points", "2", "--out"],
            ["counterexample", "--grid", "2", "--report"],
        ],
        ids=["verify", "spectrum", "spectrum-hypothesis", "gen", "counterexample"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, good_instance, capsys, argv):
        base = build_function_algebra(2)
        nonfull = tmp_path / "nonfull.json"
        trimmed = kreinalg.KreinAlgebra(np.delete(base.basis, 3, axis=0), base.symmetry_unitary)
        nonfull.write_text(json.dumps(algebra_to_instance_dict(trimmed)))
        target = tmp_path / "missing" / "out.json"
        paths = {"good": good_instance, "nonfull": nonfull}
        assert main([a.format(**paths) for a in argv] + [str(target)]) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err
        assert not target.parent.exists()


class TestGcPause:
    """The bulk-JSON phases run with the cyclic collector off and leave the
    caller's collector state as they found it, on every exit."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def caller_gc(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "text, error",
        [
            (None, None),
            ("{not json", kreinalg.InstanceFormatError),
            ('{"kind": "mystery"}', kreinalg.InstanceFormatError),
            ("bent", kreinalg.AlgebraValidationError),
        ],
        ids=["ok", "bad-json", "format-error", "validation-error"],
    )
    def test_load_restores_the_caller_state(self, tmp_path, monkeypatch, caller_gc, text, error):
        inst = tmp_path / "inst.json"
        if text == "bent":
            write_instance(inst, lambda blob: blob["symmetry_unitary"][0].__setitem__(0, [2.0, 0.0]))
        elif text is None:
            write_instance(inst)
        else:
            inst.write_text(text)
        seen = []
        build = cli.algebra_from_instance_dict

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "algebra_from_instance_dict", spy)
        cfg = cli.RunConfig("verify", input_path=inst)
        if error is None:
            cli._load_algebra(cfg)
        else:
            with pytest.raises(error):
                cli._load_algebra(cfg)
        assert gc.isenabled() is caller_gc
        assert seen == ([] if text == "{not json" else [False])

    @pytest.mark.parametrize("writable", [True, False], ids=["ok", "unwritable"])
    def test_gen_restores_the_caller_state(self, tmp_path, monkeypatch, caller_gc, writable):
        out = tmp_path / ("out.json" if writable else "missing/out.json")
        seen = []
        dump = cli._dump_json
        monkeypatch.setattr(cli, "_dump_json", lambda *a: seen.append(gc.isenabled()) or dump(*a))
        code = main(["gen", "--points", "2", "--conjugate", "--out", str(out)])
        assert code == (0 if writable else 2)
        assert gc.isenabled() is caller_gc
        assert seen == [False]


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify"])
        assert err.value.code == 2


# JSON values of the shapes the CLI writes, and the edge cases of the writer:
# empty containers, tuples, NaN, infinities, -0.0, numpy.float64, non-ASCII
# strings, ragged rows, rows mixing ints and floats, equal-length float rows
# (basis matrices) and uniform records (characters), and records whose key
# sets or value lengths differ.  Integers stay in orjson's 64-bit range and
# text has no lone surrogates: orjson rejects both, and the CLI writes neither.
_floats = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
_float_rows = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(_floats, min_size=k, max_size=k), min_size=1, max_size=4)
)
_ints = st.integers(-(2**63), 2**64 - 1)
_chars = st.characters(blacklist_categories=("Cs",))
_keys = st.text(_chars, max_size=3) | st.sampled_from(["a", "b", "%", "\u00e9", "\U0001f600"])


def _uniform_records(keys, k):
    value = st.lists(_floats, min_size=k, max_size=k)
    return st.lists(st.fixed_dictionaries({key: value for key in keys}), min_size=1, max_size=4)


_records = st.tuples(st.lists(_keys, min_size=1, max_size=3, unique=True), st.integers(0, 3)).flatmap(
    lambda spec: _uniform_records(*spec)
)
_float_list = st.lists(_floats, max_size=3)
_loose_records = st.lists(
    st.dictionaries(st.sampled_from(["a", "b"]), _float_list | _float_list.map(tuple)),
    min_size=1,
    max_size=4,
)
_scalars = st.none() | st.booleans() | _ints | _floats | _floats.map(np.float64) | st.text(_chars)
_rows = st.lists(st.lists(_ints | st.floats(allow_nan=False), max_size=3), max_size=4)
_json_values = st.recursive(
    _scalars | _float_rows | _records | _loose_records | _rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(_chars), inner, max_size=4),
    max_leaves=20,
)


_complex_arrays = st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(
    lambda spec: st.lists(
        st.tuples(_floats, _floats), min_size=spec[0] ** spec[1], max_size=spec[0] ** spec[1]
    ).map(lambda z: np.array([complex(*c) for c in z]).reshape((spec[0],) * spec[1]))
)


class TestJsonWriter:
    @given(_json_values)
    def test_bytes_equal_json_dumps(self, data):
        """The streamed pieces join to orjson's one-shot text, which json
        reads back to the value: floats bitwise, NaN and infinities as None."""
        text = b"".join(cli._pieces(data))
        assert text == orjson.dumps(data, option=cli._OPT)
        assert read_back(json.loads(text)) == read_back(data)

    @given(
        st.dictionaries(
            st.text(_chars, max_size=3),
            _complex_arrays | st.lists(_complex_arrays, max_size=3) | _scalars,
            max_size=4,
        )
    )
    def test_complex_arrays_are_written_as_pairs(self, data):
        """A complex ndarray is written as its [re, im] pair lists would be."""

        def as_pairs(o):
            if isinstance(o, np.ndarray):
                return _pairs_to_json(o)
            if isinstance(o, list):
                return [as_pairs(v) for v in o]
            return o

        expected = {k: as_pairs(v) for k, v in data.items()}
        assert b"".join(cli._pieces(data)) == orjson.dumps(expected, option=cli._OPT)

    def test_no_path_formats_nothing(self, good_instance, monkeypatch):
        def refuse(*args):
            raise AssertionError("report formatted without a path")

        monkeypatch.setattr(cli, "_pieces", refuse)
        assert main(["verify", "--input", str(good_instance)]) == 0
        assert main(["spectrum", "--input", str(good_instance)]) == 0
        assert main(["counterexample", "--grid", "2"]) == 0


def test_cli_path_does_not_import_scipy(tmp_path):
    """A spectrum run on a rotated instance loads numpy but not scipy."""
    script = """
import sys
import kreinalg, kreinalg.cli

inst, report = sys.argv[1:]
assert kreinalg.cli.main(["gen", "--points", "2", "--conjugate", "--out", inst]) == 0
assert kreinalg.cli.main(["spectrum", "--input", inst, "--report", report]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(kreinalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "rot2.json"), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
