"""End-to-end CLI tests: exit codes, report files, determinism."""

import contextlib
import decimal
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
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
    verify_spectral_theorem,
)
from kreinalg import cli, finite_krein
from kreinalg.cli import main
from kreinalg.finite_krein import _pairs_to_json, _pairs_view


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


def child_env(**variables):
    """The environment of a child process that imports this kreinalg."""
    src = str(Path(kreinalg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


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
    """The instance reader that parses the whole tree with json: the
    reference the canonical decoder must agree with."""
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
            m.setattr(cli, "_read_instance", reader)
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


def matrix_spans(text):
    """(begin, end) of each basis matrix, then of the symmetry_unitary, in a
    canonical instance's bytes."""
    spans, end = [], cli._CANONICAL_HEAD.match(text).end() - 1
    while text[end : end + 1] != b"]":
        begin, end = end + 1, text.index(b"]]]", end + 1) + 3
        spans.append((begin, end))
    begin = text.index(b'"symmetry_unitary":[') + len(b'"symmetry_unitary":')
    return spans + [(begin, text.index(b"]]]", begin) + 3)]


NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


def lengthened(span, rng):
    """span, one matrix's text, with each number token spelled longer but
    read by json as the same float: eight trailing zeros after the decimal
    point (0.25 -> 0.2500000000), or the digits and six zeros as an integer
    times a power of ten (-0.25 -> -25000000e-8, or -25000000E-8)."""

    def respell(token):
        value = decimal.Decimal(token[0].decode())
        sign, digits, exponent = value.as_tuple()
        style = rng.integers(3) if any(digits) else 0
        if style == 0:
            mantissa, e, power = token[0].partition(b"e")
            return mantissa + b"." * (b"." not in mantissa) + b"0" * 8 + e + power
        text = "-" * sign + "".join(map(str, digits)) + "000000" + "eE"[style - 1] + str(exponent - 6)
        return text.encode()

    longer = NUMBER.sub(respell, span)
    assert json.loads(longer) == json.loads(span)
    return longer


def glued_digit(text):
    at = text.index(b"],[", text.index(b'"basis":')) + 1
    return text[:at] + b"5" + text[at:]


def overflowing_leaf(text):
    token = NUMBER.search(text, text.index(b'"basis":'))
    return text[: token.start()] + b"1e999" + text[token.end() :]


def nested_unitary(text):
    at, tail = text.index(b',"symmetry_unitary":'), len(text.rstrip()) - 1
    return text[:at] + b',"x":{' + text[at + 1 : tail] + b"}" + text[tail:]


def canonical_mutants(text, seed):
    """Seeded byte-level mutations of a canonical instance, as (family,
    mutant) pairs: bytes deleted, doubled or replaced in and at both ends of
    each matrix (the basis matrices and the symmetry_unitary), and number
    text put right after one, ambient_dim values, duplicate and escaped keys,
    whitespace inside a matrix, leaves that are not numbers or are edge-case
    numbers, a fifth nesting level, and matrices whose numbers are spelled
    longer.  Each mutant is built when it is asked for, so a caller holds
    one copy of the file at a time; the seeded draws are made in the same
    order whatever the caller keeps."""
    rng = np.random.default_rng(seed)
    spans = matrix_spans(text)
    replacements = b'[],." -+eE09x\\\n'
    edits = []
    for begin, end in spans:
        inside = rng.integers(begin + 1, end - 1, size=2).tolist()
        for at in (begin - 1, begin, *inside, end - 1, end):
            edits += [(at, at + 1, b""), (at, at + 1, text[at : at + 1] * 2)]
            edits += [(at, at + 1, bytes([b])) for b in rng.choice(list(replacements), 2)]
        # after the matrix, or after the basis's "]" that follows the last one
        edits += [(at, at, suffix) for at in (end, end + 1) for suffix in (b"e5", b".5")]
    for a, b, new in edits:
        yield "byte", text[:a] + new + text[b:]

    dim = cli._CANONICAL_HEAD.match(text)[1]
    for value in (b"0", b"0" + dim, b"18446744073709551616", b"1000000000", b"1" * 400, dim + b".0", b"-" + dim):
        yield "ambient_dim", text.replace(b'"ambient_dim":' + dim, b'"ambient_dim":' + value, 1)

    tail = len(text.rstrip()) - 1  # the closing brace
    for extra in (
        b',"basis":[]',
        b',"basis":' + text[spans[0][0] - 1 : spans[-2][1] + 1],
        b',"\\u0062asis":[]',
        b',"ambient_dim":' + dim,
        b',"ambient_dim":' + dim + b".0",
        b',"ambient_dim":7',
        b',"ambient_dim":true',
        b',"points":2.0',
    ):
        yield "keys", text[:tail] + extra + text[tail:]
    for old, new in (
        (b'"basis"', b'"\\u0062asis"'),
        (b'"matrix_algebra"', b'"function_algebra","points":2'),
        (b'"matrix_algebra"', b'"function_algebra","points":18446744073709551616'),
        (b'"matrix_algebra"', b'"matrix\\u005falgebra"'),
    ):
        yield "keys", text.replace(old, new, 1)

    for begin, end in spans:
        commas = [begin + m.end() for m in re.finditer(rb",", text[begin:end])]
        places = [*rng.integers(begin, end, size=2), *rng.choice(commas, 2)]  # anywhere; between tokens
        for at, blank in zip(places, rng.choice([b" ", b"\n", b"\t", b"\r"], 4)):
            yield "whitespace", text[:at] + blank + text[at:]

    for begin, end in spans:
        tokens = list(re.finditer(rb"-?[0-9][0-9.eE+-]*", text[begin:end]))
        for value in (b"true", b"null", b'"1.0"', b"NaN", b"-0", b"-0.0", b"1e400", b"1E2", b"9" * 20):
            token = tokens[rng.integers(len(tokens))]
            a, b = begin + token.start(), begin + token.end()
            yield "leaves", text[:a] + value + text[b:]

    yield "nesting", text[:tail] + b',"x":' + b"[" * 5000 + b"]" * 5000 + text[tail:]
    for begin, end in spans:
        token = re.search(rb"-?[0-9][0-9.eE+-]*", text[begin:end])
        a, b = begin + token.start(), begin + token.end()
        yield "nesting", text[:a] + b"[" + text[a:b] + b"]" + text[b:]  # a leaf
        yield "nesting", text[: a - 1] + b"[" + text[a - 1 : end - 2] + b"]" + text[end - 2 :]  # a row's pairs
        yield "nesting", text[:begin] + b"[" + text[begin:end] + b"]" + text[end:]  # a matrix

    # the decoder guesses where each matrix ends from the length of the one
    # before; each mutant spells one matrix 1/8 or more longer, so that it is
    # longer than its guess and the next matrix shorter: basis[1] is shorter
    # than its guess in the first mutant and longer in the second, and the
    # symmetry_unitary likewise in the third and fourth
    for i in (0, 1, len(spans) - 2, len(spans) - 1):
        begin, end = spans[i]
        longer = lengthened(text[begin:end], rng)
        assert 8 * len(longer) >= 9 * (end - begin)
        yield "lengths", text[:begin] + longer + text[end:]


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

    def test_commutative_symmetric_row_reports_the_commutator_residual(self, tmp_path, m2_algebra):
        # the row passes, being informational, and reads the residual its
        # verdict comes from
        inst, report = tmp_path / "m2.json", tmp_path / "report.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(m2_algebra)))
        assert main(["verify", "--input", str(inst), "--report", str(report)]) == 1
        row = {c["name"]: c for c in json.loads(report.read_text())["checks"]}["commutative_symmetric"]
        assert row["passed"] and row["max_residual"] > 1e-9
        assert row["detail"] == "commutative=False"

    def test_conjugated_instance_passes(self, tmp_path):
        inst = tmp_path / "conj.json"
        assert main(["gen", "--points", "2", "--conjugate", "--out", str(inst)]) == 0
        assert main(["verify", "--input", str(inst)]) == 0

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_report_does_not_depend_on_seed_or_samples(self, tmp_path, command):
        """verify and spectrum read neither --seed nor --samples, so their
        report bytes are the same whatever they are."""
        inst = tmp_path / "rot4.json"
        assert main(["gen", "--points", "4", "--conjugate", "--out", str(inst)]) == 0
        reports = []
        for flags in ([], ["--seed", "0", "--samples", "1"], ["--seed", str(2**64 - 1), "--samples", "7"]):
            reports.append(tmp_path / f"report{len(reports)}.json")
            assert main([command, "--input", str(inst), "--report", str(reports[-1]), *flags]) == 0
        assert len({r.read_bytes() for r in reports}) == 1

    def test_a_second_verify_in_one_process_retains_nothing(self, tmp_path):
        """Two verify runs in one process leave under 200 kB traced, numpy
        arrays included: one retained basis (or structure tensor) of rotated
        N = 16, 524 kB, would read more than twice that.  About 16 kB reads on
        a 2-core host.  OpenBLAS's own buffers are not traced."""
        inst = tmp_path / "rot16.json"
        assert main(["gen", "--points", "16", "--conjugate", "--out", str(inst)]) == 0
        tracemalloc.start()
        try:
            for _ in range(2):
                assert main(["verify", "--input", str(inst)]) == 0
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 200_000

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
        """numpy refuses both sizes before allocating anything; json reads
        2**64 as an int."""
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("points", [1, 2, 3, 8, 16, 24])
    def test_decoded_matrices_are_the_tree_readers_bit_for_bit(self, tmp_path, points, seed):
        """The span decoder reads gen's output to the tree reader's instance,
        every matrix bit for bit; the indent=2 twin, which the decoder
        declines, reads to the same instance through json."""
        inst, twin = tmp_path / "gen.json", tmp_path / "indented.json"
        main(["gen", "--points", str(points), "--conjugate", "--seed", str(seed), "--out", str(inst)])
        tree = json_only_read(inst)
        twin.write_text(json.dumps(tree, indent=2))
        assert cli._canonical_instance(twin.read_bytes()) is None
        assert cli._read_instance(twin) == tree
        decoded = cli._canonical_instance(inst.read_bytes())
        basis, unitary = decoded.pop("basis"), decoded.pop("symmetry_unitary")
        expected = [finite_krein._matrix_from_json(m, "basis") for m in tree.pop("basis")]
        assert basis.tobytes() == np.array(expected).tobytes()
        expected = finite_krein._matrix_from_json(tree.pop("symmetry_unitary"), "symmetry_unitary")
        assert unitary.tobytes() == expected.tobytes()
        assert decoded == tree

    @pytest.mark.parametrize("points", [2, 3])
    @pytest.mark.parametrize(
        "family", ["byte", "ambient_dim", "keys", "whitespace", "leaves", "nesting", "lengths"]
    )
    def test_span_decoder_agrees_with_the_tree_reader(self, tmp_path, monkeypatch, capsys, points, family):
        """Mutants of a canonical instance give verify the same exit code,
        output and report bytes as with the span decoder declining.  The
        decoder reads every lengths mutant, whether the guessed end of a
        matrix holds or misses."""
        inst, report = tmp_path / "mutant.json", tmp_path / "report.json"
        main(["gen", "--points", str(points), "--conjugate", "--seed", "3", "--out", str(inst)])
        decode, matrix_end = cli._canonical_instance, cli._matrix_end
        decoded, ends = [], []
        monkeypatch.setattr(cli, "_canonical_instance", lambda raw: decoded.append(decode(raw)) or decoded[-1])
        monkeypatch.setattr(cli, "_matrix_end", lambda *a: ends.append(matrix_end(*a)) or ends[-1])
        capsys.readouterr()

        def outcome():
            report.unlink(missing_ok=True)
            with np.errstate(all="ignore"):
                code = main(["verify", "--input", str(inst), "--report", str(report)])
            out = capsys.readouterr()
            return code, out.out, out.err, report.read_bytes() if report.exists() else None

        guesses = []
        for kind, text in canonical_mutants(inst.read_bytes(), seed=points):
            if kind != family:
                continue
            inst.write_bytes(text)
            ends.clear()
            got = outcome()
            guesses.append([guess for _, guess in ends])
            with monkeypatch.context() as m:
                m.setattr(cli, "_canonical_instance", lambda raw: None)
                assert outcome() == got, text
        # the decoder accepts some mutants of these families
        assert any(d is not None for d in decoded) == (family not in ("ambient_dim", "nesting"))
        if family == "lengths":
            assert len(decoded) == len(guesses) and all(d is not None for d in decoded)
            # the guess misses the matrix after each longer one, and the
            # symmetry_unitary comes last; after a miss nothing is guessed
            assert [-1 in g for g in guesses] == [True, True, True, False]
            assert all(set(g[g.index(-1) :]) == {-1} for g in guesses if -1 in g)

    @pytest.mark.parametrize(
        "value",
        [
            b"[]",
            b'{"a": [1, {"b": "]]}}"}]}',
            b'{"k": "\\"[[{", "x": [[[]]]}',
            b'["\\\\", [[]], "\\u005b\\n\\/"]',
        ],
        ids=["empty", "closing", "escaped-quote", "escapes"],
    )
    def test_brackets_in_strings_leave_the_read_unchanged(self, tmp_path, monkeypatch, capsys, value):
        """An unknown key whose value holds brackets inside strings, put before
        the symmetry_unitary or after it, changes neither verify's outcome nor
        which reader takes the file: the span decoder reads the file unless
        the value holds a backslash, and agrees with the tree reader."""
        inst, report = tmp_path / "gen.json", tmp_path / "report.json"
        main(["gen", "--points", "2", "--conjugate", "--seed", "3", "--out", str(inst)])
        text = inst.read_bytes()
        tail = len(text.rstrip()) - 1  # the closing brace
        variants = [
            text.replace(b'"kind"', b'"a":' + value + b',"kind"', 1),
            text[:tail] + b',"z":' + value + text[tail:],
        ]
        capsys.readouterr()

        def outcome():
            report.unlink(missing_ok=True)
            code = main(["verify", "--input", str(inst), "--report", str(report)])
            return code, capsys.readouterr().out, report.read_bytes()

        plain = outcome()
        assert plain[0] == 0
        for variant in variants:
            inst.write_bytes(variant)
            assert (cli._canonical_instance(variant) is not None) == (b"\\" not in value)
            assert outcome() == plain
            with monkeypatch.context() as m:
                m.setattr(cli, "_canonical_instance", lambda raw: None)
                assert outcome() == plain

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (glued_digit, "Expecting ',' delimiter"),
            (overflowing_leaf, "basis[0][0][0]: expected a [re, im] pair of finite numbers"),
            (nested_unitary, "symmetry_unitary: required field missing"),
        ],
        ids=["digit-after-a-pair", "overflowing-leaf", "nested-symmetry-unitary"],
    )
    def test_decoder_declines_what_its_skeleton_check_passes(self, tmp_path, monkeypatch, capsys, mutate, message):
        """Mutants whose matrices pass the skeleton check: a digit glued after
        a pair's "]" and a 1e999 leaf, which orjson rejects, and a
        symmetry_unitary moved into a nested object, which only the parse of
        the rest finds.  The decoder declines each, and the tree reader's
        error is verify's."""
        inst = tmp_path / "mutant.json"
        main(["gen", "--points", "2", "--conjugate", "--seed", "3", "--out", str(inst)])
        inst.write_bytes(mutate(inst.read_bytes()))
        assert cli._canonical_instance(inst.read_bytes()) is None
        expected = load_outcome(inst, monkeypatch, capsys, reader=json_only_read)
        assert expected["exit"] == 2 and message in expected["stderr"]
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

    @pytest.mark.parametrize("points", [1, 2, 8])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_valid_input_is_parsed_once(self, tmp_path, monkeypatch, points, conjugate):
        """json parses gen's output once, and a canonical file's matrices are
        decoded from its bytes: no matrix field is read as a list tree, and
        json sees no [[[.  The indented twin takes json's tree path, every
        matrix through _matrix_from_json, to the same report."""
        inst, twin = tmp_path / "gen.json", tmp_path / "indented.json"
        main(["gen", "--points", str(points), "--out", str(inst)] + ["--conjugate"] * conjugate)
        twin.write_text(json.dumps(json.loads(inst.read_text()), indent=2))
        decode, loads = finite_krein._matrix_from_json, json.loads
        fields, texts = [], []
        monkeypatch.setattr(
            finite_krein, "_matrix_from_json", lambda rows, field: fields.append(field) or decode(rows, field)
        )
        monkeypatch.setattr(json, "loads", lambda text, **kw: texts.append(text) or loads(text, **kw))
        reports, reads = [], []
        for path in (inst, twin):
            reports.append(tmp_path / f"{path.stem}-report.json")
            assert main(["verify", "--input", str(path), "--report", str(reports[-1])]) == 0
            reads.append((fields[:], len(texts), any("[[[" in t for t in texts)))
            fields.clear()
            texts.clear()
        matrices = [f"basis[{i}]" for i in range(2 * points)] + ["symmetry_unitary"]
        assert reads == [([], 1, False), (matrices if conjugate else [], 1, False)]
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_a_declined_file_is_read_once(self, tmp_path, monkeypatch):
        """An indented instance, which the canonical decoder declines, is
        parsed from the bytes already read: the file is not opened again."""
        inst, twin = tmp_path / "gen.json", tmp_path / "indented.json"
        assert main(["gen", "--points", "2", "--conjugate", "--out", str(inst)]) == 0
        twin.write_text(json.dumps(json.loads(inst.read_text()), indent=2))

        def refuse(path, *args, **kwargs):
            raise AssertionError(f"{path} read a second time")

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["verify", "--input", str(twin)]) == 0

    @pytest.mark.parametrize("points", [1, 3])
    def test_orjson_reads_only_flat_lists_of_numbers(self, tmp_path, monkeypatch, points):
        """orjson parses no document: every text it is given, on gen's output,
        its indented twin and every canonical mutant, is one flat list of
        number tokens."""
        inst, twin = tmp_path / "gen.json", tmp_path / "indented.json"
        main(["gen", "--points", str(points), "--conjugate", "--seed", "3", "--out", str(inst)])
        twin.write_text(json.dumps(json.loads(inst.read_text()), indent=2))
        loads, texts = orjson.loads, []
        monkeypatch.setattr(orjson, "loads", lambda text: texts.append(text) or loads(text))
        for command in ("verify", "spectrum"):
            for path in (inst, twin):
                assert main([command, "--input", str(path)]) == 0
        # one call per decoded matrix, for each command's read of inst
        assert len(texts) == 2 * (2 * points + 1)
        for _, text in canonical_mutants(inst.read_bytes(), seed=points):
            inst.write_bytes(text)
            with contextlib.suppress(kreinalg.InstanceFormatError), np.errstate(all="ignore"):
                cli._read_instance(inst)
        flat = re.compile(rb"\[[0-9.eE+\-, \t\n\r]*\]")
        assert all(flat.fullmatch(t) for t in texts)

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["list", "object"])
    def test_deep_nesting_is_a_schema_error(self, tmp_path, capsys, command, opening, closing):
        inst = tmp_path / "deep.json"
        deep = opening * 5000 + "1" + closing * 5000
        inst.write_text('{"kind": "function_algebra", "points": 2, "x": ' + deep + "}")
        assert main([command, "--input", str(inst)]) == 2
        assert "error: invalid JSON: nested too deep to parse" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int has no digit limit before 3.10.7")
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("field", ["points", "ambient_dim"])
    def test_integer_beyond_the_digit_limit_is_a_schema_error(self, tmp_path, capsys, command, field):
        """json cannot convert such an integer to int."""
        inst, limit = tmp_path / "long.json", sys.get_int_max_str_digits()
        digits = "1" * (limit + 700)
        if field == "points":
            inst.write_text('{"kind": "function_algebra", "points": ' + digits + "}")
        else:
            assert main(["gen", "--points", "2", "--conjugate", "--out", str(inst)]) == 0
            text = inst.read_text()
            assert text.startswith('{"ambient_dim":4,')
            inst.write_text(text.replace('"ambient_dim":4', '"ambient_dim":' + digits, 1))
        assert main([command, "--input", str(inst)]) == 2
        assert f"error: invalid JSON: an integer has more than {limit} digits" in capsys.readouterr().err

    def test_nesting_hidden_by_brackets_in_strings_is_a_schema_error(self, tmp_path):
        """Nesting deep enough to overflow the C stack of a parser without a
        depth limit, behind a string of closing brackets that a count blind to
        strings would subtract; in a subprocess, so a crash fails only this
        test."""
        inst = tmp_path / "deep.json"
        depth = 100_000
        inst.write_text(
            '{"kind": "function_algebra", "points": 2, "s": "' + "]}" * depth
            + '", "x": ' + '{"a": ' * depth + "1" + "}" * depth + "}"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "kreinalg.cli", "verify", "--input", str(inst)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: invalid JSON: nested too deep to parse\n"

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

    def test_character_finder_guard_reads_the_hypothesis_at_its_tol(self, fn3, monkeypatch):
        # the finder's commutativity guard repeats the hypothesis at the same
        # tol, max(tol, algebra.tol), so it cannot fail after the hypothesis held
        check, tols = kreinalg.spectrum.check_commutative_symmetric, []

        def spy(algebra, tol):
            tols.append(tol)
            return check(algebra, tol)

        monkeypatch.setattr(kreinalg.spectrum, "check_commutative_symmetric", spy)
        assert verify_spectral_theorem(fn3, tol=1e-12).passed
        assert tols == [1e-9, 1e-9]

    @pytest.mark.parametrize(
        "perturb, failing",
        [
            # off by a factor: neither unital nor multiplicative
            (lambda W: 1.001 * W, {"homomorphism_product", "unital"}),
            # the mean of two characters reads 1 on the unit but is not one
            (lambda W: (W + W[::-1]) / 2, {"homomorphism_product"}),
        ],
        ids=["scaled", "mixed"],
    )
    def test_finder_output_that_is_not_characters_fails_its_rows(
        self, tmp_path, capsys, monkeypatch, perturb, failing
    ):
        # the finder certifies nothing: rows that are not characters exit 1
        # on the report's rows, not on an error of the finder's own
        inst, report = tmp_path / "fn.json", tmp_path / "report.json"
        main(["gen", "--points", "2", "--conjugate", "--out", str(inst)])
        finder = kreinalg.spectrum.even_characters

        def wrong(algebra, **kwargs):
            W = perturb(np.array([om.values for om in finder(algebra, **kwargs)]))
            return [kreinalg.spectrum.EvenCharacter(algebra, w) for w in W]

        monkeypatch.setattr(kreinalg.spectrum, "even_characters", wrong)
        capsys.readouterr()
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) == 1
        assert "error" not in capsys.readouterr().err
        blob = json.loads(report.read_text())
        assert "error" not in blob and not blob["passed"]
        assert failing <= {c["name"] for c in blob["checks"] if not c["passed"]}

    def test_noncommutative_instance_exits_3(self, tmp_path, capsys, m2_algebra):
        inst = tmp_path / "m2.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(m2_algebra)))
        assert main(["spectrum", "--input", str(inst)]) == 3
        assert "hypothesis failure" in capsys.readouterr().err

    def test_entry_points_find_the_same_characters(self, tmp_path):
        # the library's finder and the CLI's draw from one stream
        base = build_function_algebra(8)
        alg = conjugate_algebra(base, random_unitary(base.ambient_dim, np.random.default_rng(3)))
        inst, report = tmp_path / "rot8.json", tmp_path / "report.json"
        inst.write_bytes(orjson.dumps(algebra_to_instance_dict(alg), option=cli._OPT))
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) == 0
        reported = np.array(
            [
                [[complex(*v[k]) for v in cls["even"]] for k in ("a", "b")]
                for cls in json.loads(report.read_text())["characters"]
            ]
        ).reshape(-1, alg.dim)
        assert np.array_equal(gelfand_matrix(spectrum_classes(alg)), reported)
        assert np.array_equal(gelfand_matrix(verify_spectral_theorem(alg).classes), reported)

    def test_library_and_cli_accept_the_same_mixed_frame(self, tmp_path, mixed_function_algebra):
        # at cond 10**6.5 the finder's one combination gives characters whose
        # rows pass at tol 1e-7, from the library and from the CLI alike
        alg, _ = mixed_function_algebra(2, 6.5, tol=1e-7)
        assert len(spectrum_classes(alg, tol=1e-7)) == 2
        inst = tmp_path / "mixed.json"
        inst.write_text(json.dumps(algebra_to_instance_dict(alg)))
        assert main(["spectrum", "--input", str(inst), "--tol", "1e-7"]) == 0

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
        assert main(["spectrum", "--input", str(inst), "--report", str(report)]) == 0
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


# Every (command, points, cond_exp, tol) of the sweep below that does not
# exit 0.  The 48 runs exit 41 x 0, 3 x 1 and 4 x 2: construction rejects the
# frame at cond 1e6, tol 1e-6, points 4 and 8 (basis_independence), and
# spectrum fails only at cond 1e6, tol 1e-9.  Every exit 1 left is a failed
# row of character accuracy, which ROADMAP item 1 mends: on points 4
# (intertwines_odd_symmetry), 8 and 16 (homomorphism_product and
# intertwines_odd_symmetry, plus homomorphism_star on points 8)
MIXED_FRAME_EXITS = {
    **{(command, points, 6, "1e-6"): 2 for command in ("verify", "spectrum") for points in (4, 8)},
    **{("spectrum", points, 6, "1e-9"): 1 for points in (4, 8, 16)},
}


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("tol", ["1e-9", "1e-6"])
@pytest.mark.parametrize("cond_exp", [0, 4, 6], ids=["cond1", "cond1e4", "cond1e6"])
@pytest.mark.parametrize("points", [2, 4, 8, 16])
def test_mixed_frame_sweep(tmp_path, mixed_function_instance, points, cond_exp, tol, command):
    # every instance is a full function algebra; each run's exit code is pinned
    inst, report = tmp_path / "mixed.json", tmp_path / "report.json"
    inst.write_text(json.dumps(mixed_function_instance(points, cond_exp)))
    code = main([command, "--input", str(inst), "--tol", tol, "--report", str(report)])
    assert code == MIXED_FRAME_EXITS.get((command, points, cond_exp, tol), 0)
    if code == 2:  # construction rejected the frame: no report
        assert not report.exists()
        return
    blob = json.loads(report.read_text())
    if command == "verify":
        checks = {c["name"]: c for c in blob["checks"]}
        assert all(c["passed"] for c in checks.values())
        assert checks["commutative_symmetric"]["detail"] == "commutative=True"
        assert checks["commutative_symmetric"]["max_residual"] <= float(tol)


# The runs of the sweep below that do not exit 0, as (points, tol, first and
# last 2 cond_exp, exit code): 12 is cond 10**6.  The 204 runs exit 161 x 0,
# 17 x 1 and 26 x 2.  Every frame is a valid function algebra, so each exit 1
# is a wrong verdict: every one left is a failed row of the report, which
# ROADMAP item 1 mends.  Each exit 2 is construction rejecting the frame
WIDE_SWEEP_EXITS = {
    (points, k / 2, tol): code
    for points, tol, first, last, code in [
        (2, "1e-9", 14, 15, 1),
        (2, "1e-8", 15, 15, 1),
        (4, "1e-9", 12, 15, 1),
        (4, "1e-8", 14, 16, 1),
        (4, "1e-7", 14, 14, 1),
        (8, "1e-9", 12, 15, 1),
        (8, "1e-8", 14, 15, 1),
        (2, "1e-6", 13, 16, 2),
        (2, "1e-7", 15, 16, 2),
        (2, "1e-8", 16, 16, 2),
        (2, "1e-9", 16, 16, 2),
        (4, "1e-6", 12, 16, 2),
        (4, "1e-7", 15, 16, 2),
        (4, "1e-9", 16, 16, 2),
        (8, "1e-6", 12, 16, 2),
        (8, "1e-7", 14, 16, 2),
        (8, "1e-8", 16, 16, 2),
        (8, "1e-9", 16, 16, 2),
    ]
    for k in range(first, last + 1)
}


@pytest.mark.parametrize("tol", ["1e-9", "1e-8", "1e-7", "1e-6"])
@pytest.mark.parametrize("cond_exp", [k / 2 for k in range(17)])
@pytest.mark.parametrize("points", [2, 4, 8])
def test_wide_mixed_frame_spectrum_sweep(tmp_path, mixed_function_instance, points, cond_exp, tol):
    # 204 frames up to cond 1e8, in half decades; each run's exit code is
    # pinned, every exit but 2 writes its report, and an exit 1 names the
    # rows that failed
    inst, report = tmp_path / "mixed.json", tmp_path / "report.json"
    inst.write_text(json.dumps(mixed_function_instance(points, cond_exp)))
    code = main(["spectrum", "--input", str(inst), "--tol", tol, "--report", str(report)])
    assert code == WIDE_SWEEP_EXITS.get((points, cond_exp, tol), 0)
    assert report.exists() == (code != 2)
    if code == 1:
        assert any(not c["passed"] for c in json.loads(report.read_text())["checks"])


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
    "injectivity_conditioning",
    "homomorphism_product",
    "homomorphism_star",
    "unital",
    "intertwines_alpha",
    "intertwines_odd_symmetry",
    "isometry",
    "round_trip",
]


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize(
    "case", ["m2", "nonfull", "broken_generator", "no_generator", "rotated1", "rotated2", "rotated8"]
)
def test_verify_reports_the_library_rows(tmp_path, request, case, tol):
    """verify's checks are finite_krein._verify_rows of the algebra the file
    holds, row for row: name, passed, detail and every residual's bits.  The
    m2 fixture is M_2 with U = I."""
    if case.startswith("rotated"):
        base = build_function_algebra(int(case.removeprefix("rotated")))
        alg = conjugate_algebra(base, random_unitary(base.ambient_dim, np.random.default_rng(1)))
    else:
        alg = request.getfixturevalue(f"{case}_algebra")
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    inst.write_bytes(orjson.dumps(algebra_to_instance_dict(alg), option=cli._OPT))
    main(["verify", "--input", str(inst), "--tol", repr(tol), "--report", str(report)])
    loaded = finite_krein.algebra_from_instance_dict(json.loads(inst.read_text()), tol=tol)
    rows = [r.to_dict() for r in finite_krein._verify_rows(loaded, tol)]
    assert read_back(rows) == read_back(json.loads(report.read_text())["checks"])


class TestReportStructure:
    @pytest.mark.parametrize(
        "command, keys, names",
        [
            ("verify", ["checks", "command", "passed", "tol"], VERIFY_CHECKS),
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
        assert read_back(cli._parse_json(out.read_bytes())) == read_back(data)
        if conjugate:  # the canonical decoder reads the same matrices
            decoded = cli._canonical_instance(text)
            for key in ("basis", "symmetry_unitary"):
                assert decoded[key].tobytes() == np.array(data[key]).tobytes()
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

    def test_rotated_basis_is_freed(self, tmp_path, monkeypatch):
        """Once gen returns, nothing holds the rotated basis or unitary: orjson
        writes their float views natively, and keeps no reference to them."""
        refs = []
        conjugated = cli._conjugated

        def spy(*args):
            arrays = conjugated(*args)
            refs.extend(map(weakref.ref, arrays))
            return arrays

        monkeypatch.setattr(cli, "_conjugated", spy)
        assert main(["gen", "--points", "2", "--conjugate", "--out", str(tmp_path / "rot.json")]) == 0
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)


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

    def test_tol_is_not_read(self, tmp_path, capsys):
        """deformed_check tests at its own 1e-12, so --tol changes neither
        the report nor stdout."""
        runs = []
        for tol in ("1e-3", "1e-9", "1e-12"):
            report = tmp_path / f"cells-{tol}.json"
            assert main(["counterexample", "--grid", "8", "--tol", tol, "--report", str(report)]) == 0
            runs.append((report.read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2]

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
        """counterexample's report and gen's instance echo these flags as
        JSON integers, which are 64-bit; every command checks them alike."""
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
        below 2**64, and neither report echoes it."""
        report = tmp_path / "report.json"
        argv = [command, "--input", str(good_instance), "--samples", str(samples), "--report", str(report)]
        assert main(argv) == 0
        blob = orjson.loads(report.read_bytes())
        assert blob["passed"] is True
        assert "samples" not in blob

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


class TestCollectorState:
    """Load and gen run under, and leave, the cyclic collector state the
    caller set, on every exit."""

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
        assert seen == ([] if text == "{not json" else [caller_gc])

    @pytest.mark.parametrize("writable", [True, False], ids=["ok", "unwritable"])
    def test_gen_restores_the_caller_state(self, tmp_path, monkeypatch, caller_gc, writable):
        out = tmp_path / ("out.json" if writable else "missing/out.json")
        seen = []
        dump = cli._dump_json
        monkeypatch.setattr(cli, "_dump_json", lambda *a: seen.append(gc.isenabled()) or dump(*a))
        code = main(["gen", "--points", "2", "--conjugate", "--out", str(out)])
        assert code == (0 if writable else 2)
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc]


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify"])
        assert err.value.code == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """build_parser builds the parser once per process.  Two argvs run in
        this process give the exit codes, stdout and report bytes each gives
        alone in a process of its own, and a rejected flag still exits 2."""
        assert cli.build_parser() is cli.build_parser()
        inst = tmp_path / "rot.json"
        assert main(["gen", "--points", "2", "--conjugate", "--out", str(inst)]) == 0
        argvs = [
            ["verify", "--input", str(inst), "--tol", "1e-7", "--seed", "9", "--report", str(tmp_path / "v")],
            ["spectrum", "--input", str(inst), "--report", str(tmp_path / "s")],
        ]
        alone = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "kreinalg.cli", *argv],
                capture_output=True, text=True, env=child_env(), timeout=120,
            )
            alone.append((proc.returncode, proc.stdout, Path(argv[-1]).read_bytes()))
        capsys.readouterr()
        for argv, expected in zip(argvs + argvs, alone + alone):
            Path(argv[-1]).unlink()
            code = main(argv)
            assert (code, capsys.readouterr().out, Path(argv[-1]).read_bytes()) == expected
        with pytest.raises(SystemExit) as err:
            main(argvs[0] + ["--bogus"])
        assert err.value.code == 2

    def test_flags_left_out_take_the_run_config_defaults(self):
        def parse(*argv):
            return cli.config_from_args(cli.build_parser().parse_args(argv))

        defaults = cli.RunConfig("counterexample")
        assert (defaults.seed, defaults.samples, defaults.grid, defaults.points) == (42, 100, 64, 2)
        assert defaults.tol == 1e-9 and not defaults.conjugate
        assert parse("counterexample") == defaults
        assert parse("verify", "--input", "x") == cli.RunConfig("verify", input_path=Path("x"))
        assert parse("gen", "--points", "3", "--out", "x") == cli.RunConfig(
            "gen", output_path=Path("x"), points=3
        )


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
        """The float view of a complex ndarray's [re, im] pairs is written as
        its pair lists would be; the complex ndarray itself is refused."""

        def convert(o, leaf):
            if isinstance(o, np.ndarray):
                return leaf(o)
            if isinstance(o, list):
                return [convert(v, leaf) for v in o]
            return o

        views = {k: convert(v, _pairs_view) for k, v in data.items()}
        expected = {k: convert(v, _pairs_to_json) for k, v in data.items()}
        assert b"".join(cli._pieces(views)) == orjson.dumps(expected, option=cli._OPT)
        arrays = []
        convert(list(data.values()), arrays.append)
        for a in arrays:
            with pytest.raises(TypeError):
                b"".join(cli._pieces({"m": a}))

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
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "rot2.json"), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_verdicts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Reports repeat byte for byte only at a fixed numpy/BLAS build and
    thread count: at rotated N = 48, OpenBLAS on 1 and 2 threads moves
    roundoff-level residuals by up to 13x (homomorphism_product 1.6e-14
    against 2.1e-13).  Exit codes and every row's verdict must not move, and
    residuals agree to 1e-6 relative, with a floor of 1e-3 tol."""
    inst = tmp_path / "rotated48.json"
    assert main(["gen", "--points", "48", "--conjugate", "--seed", "3", "--out", str(inst)]) == 0
    floor = 1e-3 * finite_krein.DEFAULT_TOL
    for command in ("verify", "spectrum"):
        runs = []
        for threads in ("1", "2"):
            report = tmp_path / f"{command}{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "kreinalg.cli", command, "--input", str(inst), "--report", str(report)],
                capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads), timeout=300,
            )
            runs.append((proc.returncode, json.loads(report.read_text())))
        (code1, one), (code2, two) = runs
        assert code1 == code2 == 0
        assert one["passed"] is two["passed"] is True
        assert [c["name"] for c in one["checks"]] == [c["name"] for c in two["checks"]]
        for a, b in zip(one["checks"], two["checks"]):
            assert a["passed"] is b["passed"], (a, b)
            r1, r2 = a["max_residual"], b["max_residual"]
            assert abs(r1 - r2) <= max(floor, 1e-6 * max(abs(r1), abs(r2))), (a, b)
