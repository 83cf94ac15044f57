"""Verdicts do not move when an instance's basis is scaled.

The axioms are homogeneous: x satisfies each of them exactly when s x does.
An instance is scaled by multiplying its basis by s and dividing its odd
generator's coordinates by s, which leaves the generator itself in place.
Every residual is relative to the sizes of the terms it compares, so valid
instances pass, and defective ones fail, at every s."""

import json

import numpy as np
import pytest

from kreinalg import (
    KreinAlgebra,
    build_function_algebra,
    check_cstar_identity,
    check_odd_symmetry,
    random_unitary,
)
from kreinalg.cli import main

SCALES = [10.0**k for k in range(-8, 9, 2)]


def rotated(points, seed=3):
    """The arrays of ``gen --points N --conjugate --seed 3``: the rotated
    basis, the symmetry unitary, the unit's and the generator's coordinates."""
    base = build_function_algebra(points)
    Q = random_unitary(base.ambient_dim, np.random.default_rng(seed))
    basis = Q @ base.basis @ Q.conj().T
    return basis, Q @ base.symmetry_unitary @ Q.conj().T, base.unit_coords, base.odd_generator_coords


def scaled_instance(tmp_path, points, s, generator_factor=1.0):
    """Instance file of rotated N = ``points``, basis times s, generator over s."""
    inst = tmp_path / f"rotated{points}.json"
    argv = ["gen", "--points", str(points), "--conjugate", "--seed", "3", "--out", str(inst)]
    assert main(argv) == 0
    data = json.loads(inst.read_text())
    data["basis"] = (s * np.array(data["basis"])).tolist()
    data["odd_generator"] = (generator_factor / s * np.array(data["odd_generator"])).tolist()
    inst.write_text(json.dumps(data))
    return inst


def outcome(tmp_path, command, inst):
    """Exit code, failing checks and spectrum size of one CLI run."""
    report = tmp_path / "report.json"
    code = main([command, "--input", str(inst), "--report", str(report)])
    blob = json.loads(report.read_text())
    failing = [c["name"] for c in blob.get("checks", []) if not c["passed"]]
    return code, failing, blob.get("spectrum_size")


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("points", [2, 3, 4, 8, 16])
def test_cli_verdicts_do_not_move_with_the_scale(tmp_path, points, s, command):
    # the characters take values of size s on the basis, and a tolerance
    # holds at every s only for residuals relative to the sizes they compare
    want = outcome(tmp_path, command, scaled_instance(tmp_path, points, 1.0))
    assert want == (0, [], points if command == "spectrum" else None)
    assert outcome(tmp_path, command, scaled_instance(tmp_path, points, s)) == want


@pytest.mark.parametrize("s", [10.0**k for k in range(-6, 9)])
def test_defective_generator_fails_at_every_scale(tmp_path, s):
    # e (1 + 1e-4): e^2 = (1 + 2e-4) u reads 1e-4 at every s; e's
    # coordinates scale as 1/s, so a floor such as max(1, ||e||) would not
    code, failing, _ = outcome(tmp_path, "verify", scaled_instance(tmp_path, 4, s, 1 + 1e-4))
    assert (code, failing) == (1, ["odd_symmetry"])


def alpha_even_hermitian(symmetry, rng):
    """A unit-norm Hermitian matrix H with U H U = H."""
    n = len(symmetry)
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = H + H.conj().T
    H = H + symmetry @ H @ symmetry
    return H / np.linalg.norm(H, 2)


def with_basis_defect(points, size, s):
    """Rotated N = ``points`` with ``size`` times an alpha-even Hermitian
    matrix added to its first basis matrix (of norm 1), then scaled by s;
    constructed at tol 0.5, so the defect reaches the certificates."""
    basis, sym, _, generator = rotated(points)
    basis = basis.copy()
    basis[0] += size * alpha_even_hermitian(sym, np.random.default_rng(5))
    return KreinAlgebra(s * basis, sym, odd_generator=generator / s, tol=0.5)


@pytest.mark.parametrize("s", [10.0**k for k in range(-6, 5)])
def test_closure_defect_fails_at_every_scale(s):
    # the defect and the products it spoils both scale as s^2, so only an
    # unfloored certificate reads the same defect at every s
    alg = with_basis_defect(16, 1e-6, s)
    assert alg.validation_residuals["product_closure"] > 1e-7
    assert not check_cstar_identity(alg, tol=1e-9).passed


def generator_defects(e, unit, delta):
    """A relative defect of ``delta`` in each of the generator's three laws."""
    return {
        "generator squared is not the unit": np.sqrt(1 + delta) * e,
        "generator is not Krein anti-selfadjoint": np.exp(1j * delta) * e,
        "generator is not odd": e + delta * np.linalg.norm(e) / np.linalg.norm(unit) * unit,
    }


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e8])
@pytest.mark.parametrize("points", [4, 32])
def test_relative_defects_of_1e_8_fail_at_tol_1e_9(points, s):
    # sizing e^2 and e* by their factors entry by entry keeps the sensitivity
    # of their norms in a well-conditioned basis
    basis, sym, unit, e = rotated(points)
    for failure, defective in generator_defects(e, unit, 1e-8).items():
        alg = KreinAlgebra(s * basis, sym, odd_generator=defective / s)
        verdict = check_odd_symmetry(alg, tol=1e-9)
        assert failure in verdict.failures, (failure, verdict)
        assert verdict.max_residual > 2e-9
    alg = with_basis_defect(points, 1e-8, s)
    assert not check_cstar_identity(alg, tol=1e-9).passed
