import numpy as np
import pytest

from kreinalg import (
    KreinAlgebra,
    build_function_algebra,
    conjugate_algebra,
    random_unitary,
)
from kreinalg.finite_krein import DEFAULT_TOL, _matrix_instance, _pairs_to_json


@pytest.fixture(scope="session")
def fn1():
    return build_function_algebra(1)


@pytest.fixture(scope="session")
def fn3():
    return build_function_algebra(3)


@pytest.fixture(scope="session")
def conj3(fn3):
    rng = np.random.default_rng(2024)
    return conjugate_algebra(fn3, random_unitary(fn3.ambient_dim, rng))


@pytest.fixture(scope="session")
def m2_algebra():
    """Full 2x2 matrix algebra with trivial grading: noncommutative, no odd part."""
    basis = np.zeros((4, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1
    basis[1, 0, 1] = 1
    basis[2, 1, 0] = 1
    basis[3, 1, 1] = 1
    return KreinAlgebra(basis, np.eye(2))


@pytest.fixture(scope="session")
def nonfull_algebra():
    """Two-point function algebra with the odd element over one point removed."""
    base = build_function_algebra(2)
    basis = np.delete(base.basis, 3, axis=0)
    return KreinAlgebra(basis, base.symmetry_unitary)


@pytest.fixture(scope="session")
def broken_generator_algebra():
    """Function algebra whose recorded odd generator is scaled by 2."""
    base = build_function_algebra(2)
    return KreinAlgebra(base.basis, base.symmetry_unitary, odd_generator=2.0 * base.odd_generator_coords)


@pytest.fixture(scope="session")
def no_generator_algebra():
    """Function algebra with the odd generator withheld; otherwise intact."""
    base = build_function_algebra(2)
    return KreinAlgebra(base.basis, base.symmetry_unitary)


def _mixed_frame(points, cond_exp):
    """The function algebra over ``points`` points with its basis mixed by
    random_unitary . diag(logspace(0, -cond_exp)) . random_unitary (seed 0),
    a GL(d) change of condition number 10**cond_exp: the mixed basis, the
    symmetry unitary, the odd generator's mixed coordinates and the matrix
    taking standard-frame coordinates to mixed-frame coordinates."""
    base = build_function_algebra(points)
    rng = np.random.default_rng(0)
    scales = np.diag(np.logspace(0, -cond_exp, base.dim))
    mix = random_unitary(base.dim, rng) @ scales @ random_unitary(base.dim, rng)
    to_mixed = np.linalg.inv(mix).T
    basis = np.einsum("ij,jab->iab", mix, base.basis)
    return basis, base.symmetry_unitary, to_mixed @ base.odd_generator_coords, to_mixed


@pytest.fixture(scope="session")
def mixed_function_algebra():
    """Builder of the algebra of ``_mixed_frame``, constructed at ``tol``,
    and its change of coordinates."""

    def build(points, cond_exp=4, tol=DEFAULT_TOL):
        basis, sym, generator, to_mixed = _mixed_frame(points, cond_exp)
        return KreinAlgebra(basis, sym, odd_generator=generator, tol=tol), to_mixed

    return build


@pytest.fixture(scope="session")
def mixed_function_instance():
    """Builder of the instance file contents of ``_mixed_frame``, written
    without constructing the algebra, so frames construction rejects are
    written too."""

    def build(points, cond_exp):
        basis, sym, generator, _ = _mixed_frame(points, cond_exp)
        return _matrix_instance(basis, sym, generator, _pairs_to_json)

    return build
