"""Tests for graded matrix algebras: construction, grading, quotients, JSON.

Function-algebra norms are checked against the per-point closed formula from
the rank-one module, which is itself oracle-tested separately.
"""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

import kreinalg
from kreinalg import (
    AlgebraValidationError,
    inner_products,
    InstanceFormatError,
    KElem,
    KreinAlgebra,
    NotAlphaInvariantError,
    NotAnIdealError,
    NotOddElementError,
    SpanError,
    algebra_from_instance_dict,
    algebra_to_instance_dict,
    build_function_algebra,
    character_kernel_ideal,
    check_bimodule_axioms,
    check_commutative_symmetric,
    check_cstar_identity,
    check_decomposition,
    check_full,
    check_imprimitivity,
    check_krein_identity,
    check_odd_symmetry,
    conjugate_algebra,
    even_characters,
    function_algebra_instance,
    k_norm,
    quotient_by_ideal,
    quotient_with_map,
    random_unitary,
    verify_spectral_theorem,
)
from kreinalg import finite_krein, spectrum
from kreinalg.cli import main
from kreinalg.finite_krein import (
    DEFAULT_TOL,
    _IMPLIED,
    _VERIFY_ROWS,
    _certificates,
    _implied_rows,
    _matrix_from_json,
)


def block_values(algebra, x):
    """Read a function-algebra element as a list of rank-one values."""
    n = algebra.dim // 2
    return [KElem(x.coords[2 * p], x.coords[2 * p + 1]) for p in range(n)]


UNUSABLE_TOLS = [math.nan, math.inf, 0.0, -1e-9]


class TestConstruction:
    @pytest.mark.parametrize("points", [1, 2, 5])
    def test_function_algebra_shape(self, points):
        alg = build_function_algebra(points)
        assert alg.dim == 2 * points
        assert alg.ambient_dim == 2 * points
        assert alg.even_basis.shape[1] == points
        assert alg.odd_basis.shape[1] == points
        resid = dict(alg.validation_residuals)
        assert resid.pop("basis_independence") >= 0.5  # smallest singular value
        assert max(resid.values()) <= 1e-12

    def test_rejects_empty_point_set(self):
        with pytest.raises(ValueError):
            build_function_algebra(0)

    def test_rejects_dependent_basis(self):
        basis = np.zeros((2, 2, 2), dtype=complex)
        basis[0] = np.eye(2)
        basis[1] = 2.0 * np.eye(2)
        with pytest.raises(AlgebraValidationError, match="independent"):
            KreinAlgebra(basis, np.eye(2))

    @pytest.mark.parametrize("case", ["1x1-pair", "m2-units-plus-identity"])
    def test_rejects_more_basis_matrices_than_entries(self, case):
        # d > n^2: the SVD has only n^2 singular values, all of them nonzero
        if case == "1x1-pair":
            basis = np.array([[[1.0]], [[2.0]]], dtype=complex)
        else:
            basis = np.concatenate([np.eye(4).reshape(4, 2, 2), np.eye(2)[None]]).astype(complex)
        n = basis.shape[1]
        with pytest.raises(AlgebraValidationError, match="basis is not linearly independent"):
            KreinAlgebra(basis, np.eye(n))

    def test_rejects_non_unitary_symmetry(self):
        alg = build_function_algebra(1)
        bad = np.array(alg.symmetry_unitary)
        bad[0, 0] = 2.0
        with pytest.raises(AlgebraValidationError, match="not unitary"):
            KreinAlgebra(alg.basis, bad)

    def test_rejects_non_involutive_symmetry(self):
        basis = np.eye(2, dtype=complex)[None, :, :]
        u = np.diag([1j, -1j])
        with pytest.raises(AlgebraValidationError, match="involution"):
            KreinAlgebra(basis, u)

    def test_rejects_span_not_closed_under_adjoints(self):
        basis = np.zeros((2, 2, 2), dtype=complex)
        basis[0] = np.eye(2)
        basis[1, 0, 1] = 1.0  # nilpotent upper corner
        with pytest.raises(AlgebraValidationError, match="adjoint"):
            KreinAlgebra(basis, np.eye(2))

    def test_rejects_span_not_closed_under_products(self):
        basis = np.zeros((2, 2, 2), dtype=complex)
        basis[0, 0, 1] = 1.0
        basis[1, 1, 0] = 1.0
        with pytest.raises(AlgebraValidationError, match="multiplication"):
            KreinAlgebra(basis, np.eye(2))

    @pytest.mark.parametrize("left", ["first", "last"])
    def test_product_closure_covers_every_left_factor(self, left):
        # span{E12, E21, E22}: E12 E21 = E11 is its only product off the span,
        # so only the row of left factor E12 (first or last) fails closure
        order = [(0, 1), (1, 0), (1, 1)] if left == "first" else [(1, 0), (1, 1), (0, 1)]
        basis = np.zeros((3, 2, 2), dtype=complex)
        for i, (p, q) in enumerate(order):
            basis[i, p, q] = 1.0
        flat = basis.reshape(3, 4).T
        prods = (basis[:, None] @ basis).reshape(9, 4).T
        coords, *_ = np.linalg.lstsq(flat, prods, rcond=None)
        off_span = np.linalg.norm(flat @ coords - prods, axis=0).reshape(3, 3) > 0.5
        assert np.flatnonzero(off_span.any(axis=1)).tolist() == [0 if left == "first" else 2]
        with pytest.raises(AlgebraValidationError, match="multiplication"):
            KreinAlgebra(basis, np.eye(2))

    @staticmethod
    def least_squares_structure(alg):
        d, n = alg.dim, alg.ambient_dim
        flat = alg.basis.reshape(d, n * n).T
        prods = np.einsum("iab,jbc->ijac", alg.basis, alg.basis).reshape(d * d, n * n)
        ref, *_ = np.linalg.lstsq(flat, prods.T, rcond=None)
        return ref.T.reshape(d, d, d)

    def test_structure_matches_least_squares_reference(self, conj3):
        ref = self.least_squares_structure(conj3)
        assert np.max(np.abs(conj3.structure - ref)) <= 1e-13

    @pytest.mark.parametrize("cond_exp", [4, 6], ids=["cond1e4", "cond1e6"])
    @pytest.mark.parametrize("points", [2, 4, 8])
    def test_structure_matches_least_squares_reference_in_mixed_frames(
        self, points, cond_exp, mixed_function_algebra
    ):
        # the pivot solve against the least-squares projection of whole products
        mixed, _ = mixed_function_algebra(points, cond_exp)
        ref = self.least_squares_structure(mixed)
        assert np.max(np.abs(mixed.structure - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_closure_probes_see_a_defect_off_the_pivots(self, conj3):
        # the pivot solve fits every product on its pivot entries, so a
        # perturbed basis matrix shows only in the Gaussian probes
        basis = conj3.basis.copy()
        basis[1] += 1e-6 * np.random.default_rng(0).standard_normal(basis[1].shape)
        with pytest.raises(AlgebraValidationError, match="multiplication"):
            KreinAlgebra(basis, conj3.symmetry_unitary)

    # m2_algebra is noncommutative, so it also pins the order of the factors
    @pytest.mark.parametrize("fixture", ["fn3", "conj3", "m2_algebra"])
    def test_mul_coords_is_the_structure_contraction(self, request, fixture):
        alg = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)

        def rows(*shape):
            return rng.standard_normal(shape + (alg.dim,)) + 1j * rng.standard_normal(shape + (alg.dim,))

        for c1, c2 in [
            (rows(), rows()),                # two elements
            (rows(7), rows(7)),              # stacked rows, row by row
            (rows(7), rows()),               # a stack times one element
            (rows(), rows(7)),               # one element times a stack
            (rows(3, 1), rows(1, 5)),        # broadcast stacks
        ]:
            want = np.einsum("...i,...j,ijk->...k", c1, c2, alg.structure)
            got = alg.mul_coords(c1, c2)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_construction_holds_less_than_one_product_stack(self):
        # one full (d, d, n, n) stack of basis products would take d^2 n^2 16 B
        points = 16
        d = n = 2 * points
        tracemalloc.start()
        try:
            build_function_algebra(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * n * n * 16

    def test_rejects_symmetry_leaving_the_span(self):
        basis = np.zeros((2, 2, 2), dtype=complex)
        basis[0] = np.eye(2)
        basis[1] = np.diag([1.0, -1.0])
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        with pytest.raises(AlgebraValidationError, match="span"):
            KreinAlgebra(basis, hadamard)

    @pytest.mark.parametrize("points", [4, 8])
    def test_unit_residual_is_scale_aware(self, points, mixed_function_algebra):
        # a GL(d) change of basis of condition number 1e4 keeps a valid algebra valid
        mixed, _ = mixed_function_algebra(points)
        assert mixed.validation_residuals["unit"] <= 1e-14
        base = build_function_algebra(points)
        # while a wrong unit is still rejected
        with pytest.raises(AlgebraValidationError, match="unit"):
            KreinAlgebra(base.basis, base.symmetry_unitary, unit_coords=2.0 * base.unit_coords)

    @pytest.mark.parametrize("cond_exp", [4, 6], ids=["cond1e4", "cond1e6"])
    @pytest.mark.parametrize("points", [2, 4, 8])
    def test_validation_residuals_stay_at_roundoff_in_mixed_frames(
        self, points, cond_exp, mixed_function_algebra
    ):
        # basis_independence reads 1/cond by design; the rest are backward
        # errors of order cond * eps
        mixed, _ = mixed_function_algebra(points, cond_exp)
        for name, resid in mixed.validation_residuals.items():
            assert name == "basis_independence" or resid <= 1e-9, (name, resid)

    @pytest.mark.parametrize(
        "make, tol",
        [pytest.param(KreinAlgebra, t, id=str(t)) for t in UNUSABLE_TOLS]
        + [
            # conjugating by the identity must reject the tol, not the unitary
            pytest.param(conjugate_algebra, t, id=f"conjugate_algebra-{t}")
            for t in UNUSABLE_TOLS
        ],
    )
    def test_rejects_unusable_tol(self, make, tol):
        base = build_function_algebra(1)
        args = (base.basis, base.symmetry_unitary)
        if make is conjugate_algebra:
            args = (base, np.eye(base.ambient_dim))
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            make(*args, tol=tol)

    def test_unit_distinct_from_ambient_identity(self):
        # A corner subalgebra is unital even though its unit is a proper
        # projection of the ambient space.
        basis = np.zeros((1, 2, 2), dtype=complex)
        basis[0, 0, 0] = 1.0
        alg = KreinAlgebra(basis, np.eye(2))
        assert np.allclose(alg.unit_coords, [1.0])
        assert np.allclose(alg.unit.matrix(), basis[0])

    @staticmethod
    def full_unit_lstsq(alg):
        """lstsq on the unit's full (2d^2, d) system u B_i = B_i u = B_i."""
        S, d = alg.structure, alg.dim
        system = np.concatenate(
            [S.transpose(1, 2, 0).reshape(d * d, d), S.transpose(0, 2, 1).reshape(d * d, d)]
        )
        return np.linalg.lstsq(system, np.tile(np.eye(d).reshape(-1), 2), rcond=None)[0]

    @pytest.mark.parametrize("name", ["fn3", "conj3", "corner"])
    def test_sketched_unit_equals_full_lstsq(self, name, request):
        if name == "corner":
            basis = np.zeros((1, 2, 2), dtype=complex)
            basis[0, 0, 0] = 1.0
            alg = KreinAlgebra(basis, np.eye(2))
        else:
            given = request.getfixturevalue(name)
            alg = KreinAlgebra(given.basis, given.symmetry_unitary)  # unit solved for
        full = self.full_unit_lstsq(alg)
        assert np.linalg.norm(alg.unit_coords - full) <= 1e-13 * np.linalg.norm(full)
        assert alg.validation_residuals["unit"] <= 1e-14

    @pytest.mark.parametrize("cond_exp", [4, 6], ids=["cond1e4", "cond1e6"])
    @pytest.mark.parametrize("points", [2, 4, 8])
    def test_sketched_unit_as_accurate_as_full_lstsq_in_mixed_frames(
        self, points, cond_exp, mixed_function_algebra
    ):
        # both solve the same computed structure tensor, whose own error grows
        # with the frame's conditioning: they differ from the exact unit, and
        # from each other, by up to 4e-6 at cond 1e6, so neither is the reference
        alg, to_mixed = mixed_function_algebra(points, cond_exp)
        exact = to_mixed @ build_function_algebra(points).unit_coords
        err_full = np.linalg.norm(self.full_unit_lstsq(alg) - exact)
        err_sketch = np.linalg.norm(alg.unit_coords - exact)
        assert err_sketch <= 4 * err_full + 1e-13 * np.linalg.norm(exact)
        assert alg.validation_residuals["unit"] <= 1e-14

    def test_failed_sketch_falls_back_to_the_full_solve(self, monkeypatch):
        base = build_function_algebra(3)
        monkeypatch.setattr(KreinAlgebra, "_sketched_unit", lambda self: np.zeros(self.dim))
        alg = KreinAlgebra(base.basis, base.symmetry_unitary)
        np.testing.assert_allclose(alg.unit_coords, base.unit_coords, rtol=0, atol=1e-14)
        assert alg.validation_residuals["unit"] <= 1e-15

    @pytest.mark.parametrize("argument", ["basis", "symmetry_unitary", "unit_coords", "odd_generator"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_arguments(self, argument, value):
        base = build_function_algebra(2)
        args = {
            "basis": base.basis.copy(),
            "symmetry_unitary": base.symmetry_unitary.copy(),
            "unit_coords": base.unit_coords.copy(),
            "odd_generator": base.odd_generator_coords.copy(),
        }
        args[argument].reshape(-1)[1] = value
        with pytest.raises(AlgebraValidationError, match=f"^{argument} has non-finite entries$"):
            KreinAlgebra(args.pop("basis"), args.pop("symmetry_unitary"), **args)

    def test_trivial_grading_has_no_odd_part(self, m2_algebra):
        assert m2_algebra.even_basis.shape[1] == 4
        assert m2_algebra.odd_basis.shape[1] == 0


def rotated_function_algebra(points):
    base = build_function_algebra(points)
    return conjugate_algebra(base, random_unitary(base.ambient_dim, np.random.default_rng(3)))


def _unit_norm(m):
    return m / np.linalg.norm(m, 2)


def bumped_structure_constant(alg, monkeypatch):
    """alg's arrays, with construction made to read one structure constant
    (B_1 B_0, odd times even) off by 1e-6."""
    pivot_structure = KreinAlgebra._pivot_structure

    def bumped(self):
        s = pivot_structure(self)
        s[1, 0, 1] += 1e-6
        return s

    monkeypatch.setattr(KreinAlgebra, "_pivot_structure", bumped)
    return alg.basis, alg.symmetry_unitary


def similar_basis(alg, monkeypatch):
    """The basis conjugated by S = I + 1e-6 G, ||G||_2 = 1, with G commuting
    with U: the span stays an algebra that U preserves, but S is not unitary,
    so the span is no longer closed under adjoints."""
    rng = np.random.default_rng(1)
    n, U = alg.ambient_dim, alg.symmetry_unitary
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = np.eye(n) + 1e-6 * _unit_norm(H + U @ H @ U)
    return S @ alg.basis @ np.linalg.inv(S), U


def turned_symmetry(alg, monkeypatch):
    """U conjugated by W = exp(1e-6 i H), ||H||_2 = 1: still a unitary
    involution, but it no longer preserves the span."""
    rng = np.random.default_rng(1)
    n = alg.ambient_dim
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(_unit_norm(H + H.conj().T))
    W = (v * np.exp(1e-6j * w)) @ v.conj().T
    return alg.basis, W @ alg.symmetry_unitary @ W.conj().T


# defect -> (its construction inputs, the residual that sees it, the error)
CERTIFICATE_DEFECTS = {
    "structure-constant": (
        bumped_structure_constant,
        "product_closure",
        "basis span is not closed under multiplication",
    ),
    "adjoint": (similar_basis, "adjoint_closure", "basis span is not closed under adjoints"),
    "alpha": (turned_symmetry, "alpha_closure", "symmetry does not preserve the basis span"),
}


class TestCertificates:
    """Closure, adjoint and alpha certificates: one random slot and probes."""

    @pytest.mark.parametrize("points", [2, 8, 24])
    @pytest.mark.parametrize("defect", list(CERTIFICATE_DEFECTS))
    def test_rejects_a_1e_6_defect(self, monkeypatch, points, defect):
        inputs, key, message = CERTIFICATE_DEFECTS[defect]
        basis, sym = inputs(rotated_function_algebra(points), monkeypatch)
        with pytest.raises(AlgebraValidationError, match=message):
            KreinAlgebra(basis, sym)
        # a loose tol lets construction finish and report the residual
        resid = KreinAlgebra(basis, sym, tol=1e-2).validation_residuals
        assert resid[key] >= 1e-8, resid

    @pytest.mark.parametrize("points", [2, 8, 24])
    def test_coordinates_match_the_full_span_solve(self, points):
        alg = rotated_function_algebra(points)
        B, U = alg.basis, alg.symmetry_unitary
        adjoints, r_adj = alg._batch_coords(B.conj().transpose(0, 2, 1))
        images, r_alpha = alg._batch_coords(U @ B @ U)
        assert max(r_adj, r_alpha) <= 1e-13
        assert np.max(np.abs(alg.dagger_coord - adjoints.T)) <= 1e-14
        assert np.max(np.abs(alg.alpha_coord - images.T)) <= 1e-14

    def test_validation_residuals_are_bitwise_reproducible(self):
        alg = rotated_function_algebra(8)
        first, second = (
            {k: float.hex(v) for k, v in KreinAlgebra(alg.basis, alg.symmetry_unitary).validation_residuals.items()}
            for _ in range(2)
        )
        assert first == second


class TestGrading:
    def test_unit_is_even_generator_is_odd(self, fn3):
        assert fn3.unit.is_even(tol=1e-12)
        assert fn3.odd_generator.is_odd(tol=1e-12)
        assert not fn3.odd_generator.is_even(tol=0.5)

    def test_decompose_splits_and_reassembles(self, fn3):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = fn3.random_element(rng)
            even, odd = x.even_part, x.odd_part
            assert even.is_even(tol=1e-12) and odd.is_odd(tol=1e-12)
            assert np.allclose((even + odd).coords, x.coords, atol=1e-12)
        report = check_decomposition(fn3)
        assert report.passed and report.max_residual <= 1e-12

    @pytest.mark.parametrize("case", ["conj3", "mixed4"])
    def test_decomposition_reads_the_alpha_certificate(self, request, case, mixed_function_algebra):
        alg = request.getfixturevalue("conj3") if case == "conj3" else mixed_function_algebra(4)[0]
        report = check_decomposition(alg)
        assert report.passed
        assert float.hex(report.max_residual) == float.hex(alg.validation_residuals["alpha_closure"])
        # A = I is an involution on coordinates, but not alpha on the basis:
        # the odd part is not negated, and the alpha certificate sees it
        mutant = copy.copy(alg)
        mutant.alpha_coord = np.eye(alg.dim, dtype=complex)
        assert _certificates(mutant)[2] > 1e-9

    def test_projections_are_idempotent(self, fn3):
        rng = np.random.default_rng(2)
        x = fn3.random_element(rng)
        once = fn3.even_projection(x.coords)
        assert np.allclose(fn3.even_projection(once), once, atol=1e-14)
        oncem = fn3.odd_projection(x.coords)
        assert np.allclose(fn3.odd_projection(oncem), oncem, atol=1e-14)

    def test_symmetry_fixes_even_negates_odd(self, fn3):
        rng = np.random.default_rng(3)
        x = fn3.random_element(rng)
        ax = x.alpha()
        assert np.allclose(ax.coords, (x.even_part - x.odd_part).coords, atol=1e-12)


class TestStars:
    def test_dagger_is_ambient_adjoint(self, fn3):
        rng = np.random.default_rng(4)
        x = fn3.random_element(rng)
        assert np.allclose(x.dagger().matrix(), x.matrix().conj().T, atol=1e-12)

    def test_generator_is_dagger_fixed_but_star_skew(self, fn3):
        e = fn3.odd_generator
        assert np.allclose(e.dagger().coords, e.coords, atol=1e-12)
        assert np.allclose(e.star().coords, -e.coords, atol=1e-12)

    def test_star_matches_pointwise_formula(self, fn3):
        rng = np.random.default_rng(5)
        x = fn3.random_element(rng)
        got = block_values(fn3, x.star())
        want = [v.star() for v in block_values(fn3, x)]
        for g, w in zip(got, want):
            assert abs(g.a - w.a) + abs(g.b - w.b) <= 1e-12

    def test_identities_hold(self, fn3, conj3):
        for alg in (fn3, conj3):
            assert check_cstar_identity(alg).passed
            assert check_krein_identity(alg).passed


class TestNorms:
    def test_norm_is_pointwise_max(self, fn3):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = fn3.random_element(rng)
            want = max(k_norm(v) for v in block_values(fn3, x))
            assert x.norm() == pytest.approx(want, rel=1e-12)

    def test_conjugation_preserves_norms(self, fn3, conj3):
        rng = np.random.default_rng(9)
        for _ in range(25):
            coords = rng.standard_normal(fn3.dim) + 1j * rng.standard_normal(fn3.dim)
            assert fn3.element(coords).norm() == pytest.approx(
                conj3.element(coords).norm(), rel=1e-10
            )

    def test_non_finite_row_reads_nan(self, conj3):
        rows = np.ones((3, conj3.dim), dtype=complex)
        rows[1, 2], rows[2, 0] = math.nan, math.inf
        norms = conj3.op_norm(rows)
        assert np.isfinite(norms[0]) and np.isnan(norms[1:]).all()
        assert norms[0] == conj3.op_norm(rows[0]) == np.linalg.norm(conj3.materialize(rows[0]), 2)


def rotated(points, seed=5):
    return conjugate_algebra(
        build_function_algebra(points), random_unitary(2 * points, np.random.default_rng(seed))
    )


def doubled(alg):
    """alg tensor I_2: every joint eigenspace has multiplicity 2."""
    eye = np.eye(2)
    return KreinAlgebra(
        np.stack([np.kron(b, eye) for b in alg.basis]),
        np.kron(alg.symmetry_unitary, eye),
        odd_generator=alg.odd_generator_coords,
    )


def kernel_quotient(alg):
    return quotient_by_ideal(alg, character_kernel_ideal(alg, even_characters(alg)[0]))


def m2_graded(m2_algebra):
    """M_2 graded by diag(1, -1): noncommutative, with odd part span{E12, E21}."""
    return KreinAlgebra(m2_algebra.basis, np.diag([1.0, -1.0]))


def inner_products_of(alg, X):
    """Coordinates of <x|x> = x^dag x and x x^dag, through structure and dagger_coord."""
    dX = np.conj(X) @ alg.dagger_coord.T
    return alg.mul_coords(dX, X), alg.mul_coords(X, dX)


# the attributes each certificate of _certificates compares with the basis,
# and the construction residuals that hold them
CLOSURE_ATTRIBUTES = ("structure", "dagger_coord", "alpha_coord")
CLOSURE_RESIDUALS = ("product_closure", "adjoint_closure", "alpha_closure")


class TestNormChecksReadCertificates:
    """The closure certificates that the norm identities of matrix arithmetic
    read, and what a passing certificate guarantees."""

    @pytest.mark.parametrize("fixture", ["fn3", "conj3"])
    def test_certificates_are_the_closure_residuals(self, request, fixture):
        alg = request.getfixturevalue(fixture)
        base = _certificates(alg)
        want = [float.hex(alg.validation_residuals[k]) for k in CLOSURE_RESIDUALS]
        assert [float.hex(r) for r in base] == want
        for i, attr in enumerate(CLOSURE_ATTRIBUTES):
            mutant = copy.copy(alg)
            setattr(mutant, attr, 1.001 * getattr(alg, attr))
            moved = _certificates(mutant)
            # only the certificate of the altered attribute moves
            assert moved[i] >= 1e-5, (attr, moved)
            assert all(moved[j] == base[j] for j in range(3) if j != i), (attr, moved)

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: r.getfixturevalue("fn3"),
            lambda r: r.getfixturevalue("conj3"),
            lambda r: r.getfixturevalue("mixed_function_algebra")(4, 4)[0],
            lambda r: r.getfixturevalue("mixed_function_algebra")(4, 6)[0],
            lambda r: doubled(rotated(3)),
            lambda r: kernel_quotient(r.getfixturevalue("conj3")),
            lambda r: m2_graded(r.getfixturevalue("m2_algebra")),
        ],
        ids=[
            "fn3",
            "conj3",
            "mixed-cond1e4",
            "mixed-cond1e6",
            "rotated3-x-I2",
            "kernel-quotient",
            "m2-graded",
        ],
    )
    def test_passing_certificates_carry_the_ambient_identities(self, request, make):
        # where the checks pass on their certificates, the identities they stand
        # for hold on sampled coordinates through structure and dagger_coord, up to
        # roundoff at the scale sum_j |c_j| ||B_j|| times the basis's conditioning
        alg = make(request)
        assert check_cstar_identity(alg).passed
        for name in ("bimodule_positivity", "bimodule_norms_coincide"):
            assert named_result(check_bimodule_axioms, alg, name).passed
        norms = np.linalg.norm(alg.basis, 2, axis=(1, 2))
        bound = 1e-13 * np.linalg.cond(alg.basis.reshape(alg.dim, -1))
        X = np.random.default_rng(21).standard_normal((40, alg.dim, 2)) @ [1.0, 1j]
        P = inner_products_of(alg, X)[0]
        cstar = np.abs(alg.op_norm(P) - alg.op_norm(X) ** 2) / (np.abs(P) @ norms)
        assert np.max(cstar) <= bound
        odd = X[:, : alg.odd_basis.shape[1]] @ alg.odd_basis.T
        left, right = inner_products_of(alg, odd)
        scale = np.maximum(np.abs(left) @ norms, np.abs(right) @ norms)
        M = alg.materialize(left)
        lowest = np.linalg.eigvalsh((M + M.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
        assert np.max(-lowest / scale) <= bound
        assert np.max(np.abs(alg.op_norm(left) - alg.op_norm(right)) / scale) <= bound

    @pytest.mark.parametrize("graded", [False, True], ids=["conj3", "m2-graded"])
    def test_negated_structure_is_negative_and_moves_the_product_certificate(
        self, conj3, m2_algebra, graded
    ):
        # the negated structure makes every <x|x> negative in fact, and the
        # product certificate, which bimodule_positivity reads, sees it.  No tol
        # builds it: its product certificate is about 2, while construction
        # needs basis_independence (at most 1) above tol.
        alg = m2_graded(m2_algebra) if graded else conj3
        mutant = copy.copy(alg)
        mutant.structure = -alg.structure
        X = np.random.default_rng(13).standard_normal((20, alg.odd_basis.shape[1], 2)) @ [1.0, 1j]
        M = alg.materialize(inner_products_of(mutant, X @ alg.odd_basis.T)[0])
        assert np.all(np.linalg.eigvalsh((M + M.conj().transpose(0, 2, 1)) / 2.0)[:, -1] < 0)
        assert named_result(check_bimodule_axioms, alg, "bimodule_positivity").passed
        assert _certificates(mutant)[0] > 1e-9

    def test_cli_takes_no_ambient_norm(self, tmp_path, monkeypatch):
        inst = str(tmp_path / "rotated8.json")
        assert main(["gen", "--points", "8", "--conjugate", "--out", inst]) == 0

        def refuse(*args):
            raise AssertionError("an ambient operator norm was taken")

        monkeypatch.setattr(KreinAlgebra, "op_norm", refuse)
        assert main(["verify", "--input", inst]) == 0
        assert main(["spectrum", "--input", inst]) == 0


class TestInnerProducts:
    def test_generator_pairs_to_unit(self, fn3):
        e = fn3.odd_generator
        left, right = inner_products(fn3, e, e)
        assert np.allclose(left.coords, fn3.unit_coords, atol=1e-12)
        assert np.allclose(right.coords, fn3.unit_coords, atol=1e-12)

    def test_rejects_non_odd_arguments(self, fn3):
        with pytest.raises(NotOddElementError):
            inner_products(fn3, fn3.unit, fn3.odd_generator)

    def test_values_are_even(self, fn3):
        rng = np.random.default_rng(10)
        x, y = fn3.random_odd_element(rng), fn3.random_odd_element(rng)
        left, right = inner_products(fn3, x, y)
        assert left.is_even(tol=1e-12) and right.is_even(tol=1e-12)

    def test_checks_hold_no_basis_triple_stack(self):
        # one (m, k m, d) stack of basis-triple products would take m^2 k d 16 B
        points = 24
        alg = conjugate_algebra(
            build_function_algebra(points), random_unitary(2 * points, np.random.default_rng(5))
        )
        m, k, d = alg.even_basis.shape[1], alg.odd_basis.shape[1], alg.dim
        tracemalloc.start()
        try:
            check_bimodule_axioms(alg)
            check_imprimitivity(alg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * k * m * d * 16

    def test_bimodule_suite(self, fn3, conj3):
        for alg in (fn3, conj3):
            results = check_bimodule_axioms(alg)
            assert all(r.passed for r in results), [r.name for r in results if not r.passed]
            assert check_imprimitivity(alg).passed


class TestVerdicts:
    def test_fullness(self, fn3, nonfull_algebra):
        assert check_full(fn3)
        assert not check_full(nonfull_algebra)

    def test_commutative_symmetric_agreement(self, fn3, conj3, m2_algebra, nonfull_algebra):
        # an antisymmetric defect in one even x odd pair: B_0 B_1 != B_1 B_0
        defective = copy.copy(conj3)
        defective.structure = conj3.structure.copy()
        defective.structure[0, 1, 1] += 1e-6
        defective.structure[1, 0, 1] -= 1e-6
        for alg, expected in (
            (fn3, True),
            (conj3, True),
            (m2_algebra, False),
            (nonfull_algebra, True),
            (defective, False),
        ):
            verdict = check_commutative_symmetric(alg)
            assert verdict.commutative is expected
            assert verdict.symmetric_bimodule is expected
            assert verdict.commutator_residual == verdict.symmetry_residual

    def test_odd_symmetry_presence(self, fn3):
        verdict = check_odd_symmetry(fn3)
        assert verdict.exists is True
        assert verdict.isometric
        assert verdict.max_residual <= 1e-10

    def test_odd_symmetry_residual_is_relative(self, mixed_function_algebra):
        # In a cond-1e4 frame ||e|| is about 4e3; a passing verdict must report
        # the residual it was judged on, not one ||e||^2 times larger.
        alg, _ = mixed_function_algebra(4)
        tol = 1e-9
        verdict = check_odd_symmetry(alg, tol=tol)
        assert verdict.exists is True
        assert verdict.isometric
        assert verdict.max_residual <= tol

    def test_odd_symmetry_unknown_without_generator(self, no_generator_algebra):
        verdict = check_odd_symmetry(no_generator_algebra)
        assert verdict.exists is None
        assert verdict.absent

    def test_odd_symmetry_rejects_bad_generator(self, broken_generator_algebra):
        verdict = check_odd_symmetry(broken_generator_algebra)
        assert verdict.exists is False
        assert any("unit" in f for f in verdict.failures)

    def test_odd_symmetry_fails_a_nan_generator(self):
        # construction rejects a non-finite generator; one set afterwards must
        # fail every algebraic test (a NaN residual is not within tol) and the
        # isometry, not end in an SVD error
        alg = build_function_algebra(2)
        alg = KreinAlgebra(alg.basis, alg.symmetry_unitary, unit_coords=alg.unit_coords)
        alg.odd_generator_coords = np.full(alg.dim, math.nan + 0j)
        verdict = check_odd_symmetry(alg)
        assert verdict.exists is False and verdict.isometric is False
        assert len(verdict.failures) == 4
        assert math.isnan(verdict.max_residual)


def named_result(check, alg, name):
    out = check(alg)
    return next(r for r in (out if isinstance(out, list) else [out]) if r.name == name)


def defective_algebra(points, defect, monkeypatch):
    """The rotated function algebra over ``points`` points with one
    ``CERTIFICATE_DEFECTS`` entry built in, constructed at tol 1e-2 so that
    construction finishes and records the defect's certificate; the unit and
    the odd generator are the intact algebra's."""
    base = rotated_function_algebra(points)
    basis, sym = CERTIFICATE_DEFECTS[defect][0](base, monkeypatch)
    return KreinAlgebra(
        basis,
        sym,
        unit_coords=base.unit_coords,
        odd_generator=base.odd_generator_coords,
        tol=1e-2,
    )


class TestCertificateChecks:
    """Every check that matrix arithmetic guarantees reports the largest of the
    closure certificates it follows from, as construction took them, and
    fails exactly on the defects that those certificates see."""

    @pytest.mark.parametrize("points", [2, 3, 8])
    @pytest.mark.parametrize("defect", list(CERTIFICATE_DEFECTS))
    @pytest.mark.parametrize("name", _VERIFY_ROWS)
    def test_check_fails_exactly_on_the_defects_it_reads(self, monkeypatch, name, defect, points):
        alg = defective_algebra(points, defect, monkeypatch)
        read = [f"{c}_closure" for c in _IMPLIED[name][1]]
        got = next(r for r in _implied_rows(alg, DEFAULT_TOL) if r.name == name)
        want = max(alg.validation_residuals[k] for k in read)
        assert float.hex(got.max_residual) == float.hex(want)
        assert got.passed is (CERTIFICATE_DEFECTS[defect][1] not in read), got

    @pytest.mark.parametrize("points", [2, 3, 8])
    def test_isometry_verdicts_read_the_product_certificate(self, monkeypatch, points):
        # the bumped constant is B_1 B_0 (odd times even) and e has no even
        # coordinate in this frame, so the generator's algebraic tests pass and
        # only the certificates can fail the isometry of x -> e x
        alg = defective_algebra(points, "structure-constant", monkeypatch)
        product = alg.validation_residuals["product_closure"]
        assert product > 1e-9
        verdict = check_odd_symmetry(alg)
        assert verdict.failures == () and verdict.exists is True
        assert verdict.isometric is False
        isometry = next(c for c in verify_spectral_theorem(alg, tol=1e-9).checks if c.name == "isometry")
        assert not isometry.passed and isometry.max_residual >= product


@pytest.mark.parametrize("fixture", ["fn3", "conj3", "m2_algebra"])
def test_public_checks_read_the_verify_rows(request, fixture):
    # the five public checks return, together and in order, what verify reports
    alg = request.getfixturevalue(fixture)
    public = [
        check_cstar_identity(alg),
        check_krein_identity(alg),
        check_decomposition(alg),
        *check_bimodule_axioms(alg),
        check_imprimitivity(alg),
    ]
    assert public == list(_implied_rows(alg, DEFAULT_TOL))


@pytest.mark.parametrize(
    "check",
    [
        check_cstar_identity,
        check_krein_identity,
        check_decomposition,
        check_bimodule_axioms,
        check_imprimitivity,
        check_odd_symmetry,
        verify_spectral_theorem,
    ],
)
def test_old_positional_samples_argument_is_refused(fn3, check):
    # the removed samples parameter came second; passed there it must not bind to tol
    with pytest.raises(TypeError):
        check(fn3, 100)



@pytest.mark.parametrize("module", [finite_krein, spectrum], ids=["finite_krein", "spectrum"])
def test_public_names_resolve_and_are_reexported(module):
    # the benchmark's tracer binds some of these names by attribute lookup; the
    # private tables, such as _IMPLIED, stay out
    for name in module.__all__:
        assert not name.startswith("_"), name
        assert getattr(kreinalg, name) is getattr(module, name), name


class TestQuotients:
    def test_zero_ideal_is_identity(self, fn3):
        quot, cmap = quotient_with_map(fn3, [], tol=1e-9)
        assert quot.dim == fn3.dim
        assert np.allclose(cmap, np.eye(fn3.dim), atol=1e-12)

    def test_vanishing_ideal_leaves_one_point(self):
        alg = build_function_algebra(3)
        # Ideal of elements vanishing at the last point: the first two blocks.
        ideal = [alg.element(np.eye(6)[i]) for i in range(4)]
        quot, cmap = quotient_with_map(alg, ideal, tol=1e-9)
        assert quot.dim == 2
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = alg.random_element(rng)
            image = quot.element(cmap @ x.coords)
            survivor = block_values(alg, x)[2]
            assert image.norm() == pytest.approx(k_norm(survivor), rel=1e-10)

    def test_quotient_map_is_a_graded_homomorphism(self):
        alg = build_function_algebra(3)
        ideal = [alg.element(np.eye(6)[i]) for i in (2, 3)]
        quot, cmap = quotient_with_map(alg, ideal, tol=1e-9)
        rng = np.random.default_rng(17)
        for _ in range(15):
            x, y = alg.random_element(rng), alg.random_element(rng)
            px, py = quot.element(cmap @ x.coords), quot.element(cmap @ y.coords)
            pxy = quot.element(cmap @ alg.mul_coords(x.coords, y.coords))
            assert np.allclose((px * py).coords, pxy.coords, atol=1e-10)
            assert np.allclose(
                quot.element(cmap @ x.star().coords).coords, px.star().coords, atol=1e-10
            )
            assert np.allclose(
                quot.element(cmap @ x.alpha().coords).coords, px.alpha().coords, atol=1e-10
            )

    def test_quotient_norm_never_exceeds_any_coset_representative(self):
        alg = build_function_algebra(3)
        ideal_elems = [alg.element(np.eye(6)[i]) for i in range(2)]
        quot, cmap = quotient_with_map(alg, ideal_elems, tol=1e-9)
        rng = np.random.default_rng(18)
        for _ in range(15):
            x = alg.random_element(rng)
            image_norm = quot.element(cmap @ x.coords).norm()
            for _ in range(10):
                c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                rep = x + c[0] * ideal_elems[0] + c[1] * ideal_elems[1]
                assert image_norm <= rep.norm() + 1e-10

    def test_rejects_non_ideal(self, fn3):
        # The odd basis element over one point spans no ideal.
        with pytest.raises(NotAnIdealError):
            quotient_by_ideal(fn3, [fn3.element(np.eye(6)[1])], tol=1e-9)

    def test_rejects_non_invariant_subspace(self, fn3):
        # Pointwise multiples of (1, 1) form a two-sided ideal that the
        # grading symmetry does not preserve.
        coords = np.zeros(6, dtype=complex)
        coords[0] = coords[1] = 1.0
        with pytest.raises(NotAlphaInvariantError):
            quotient_by_ideal(fn3, [fn3.element(coords)], tol=1e-9)

    def test_rejects_unit_ideal(self, fn3):
        full = [fn3.element(np.eye(6)[i]) for i in range(6)]
        with pytest.raises(NotAnIdealError, match="unit"):
            quotient_by_ideal(fn3, full, tol=1e-9)


class TestSerialization:
    def test_function_instance_round_trip(self):
        inst = function_algebra_instance(4)
        alg = algebra_from_instance_dict(inst)
        assert alg.dim == 8
        back = algebra_to_instance_dict(alg)
        again = algebra_from_instance_dict(back)
        assert np.allclose(again.basis, alg.basis, atol=1e-15)
        assert np.allclose(again.symmetry_unitary, alg.symmetry_unitary, atol=1e-15)

    def test_matrix_instance_round_trip(self, conj3):
        blob = algebra_to_instance_dict(conj3)
        alg = algebra_from_instance_dict(blob)
        assert alg.dim == conj3.dim
        assert np.allclose(alg.basis, conj3.basis, atol=1e-15)
        assert np.allclose(alg.odd_generator_coords, conj3.odd_generator_coords, atol=1e-15)

    PAIR = "expected a [re, im] pair of numbers"
    FINITE = "expected a [re, im] pair of finite numbers"

    @pytest.mark.parametrize(
        "mutate, field, message",
        [
            (
                lambda d: d.update(kind="mystery"),
                "kind",
                "kind must be 'function_algebra' or 'matrix_algebra'",
            ),
            (lambda d: d.pop("basis"), "basis", "required field missing"),
            (lambda d: d["basis"][0].pop(0), "basis[0]", "matrix must be 4 x 4, got (3, 4)"),
            (
                lambda d: d["symmetry_unitary"][0].__setitem__(0, [1.0]),
                "symmetry_unitary[0][0]",
                PAIR,
            ),
            (
                lambda d: d.update(odd_generator=[[1.0, 0.0]]),
                "odd_generator",
                "needs 4 coordinates, got 1",
            ),
            (lambda d: d["basis"][1][2].__setitem__(0, [True, 0.0]), "basis[1][2][0]", PAIR),
            (lambda d: d["basis"][0][0].__setitem__(1, ["1.0", 0.0]), "basis[0][0][1]", PAIR),
            (lambda d: d["basis"][2][3].__setitem__(3, [1.0, 0.0, 0.0]), "basis[2][3][3]", PAIR),
            (lambda d: d["basis"][0][1].__setitem__(1, [0.0, None]), "basis[0][1][1]", PAIR),
            (lambda d: d["basis"][3][1].pop(), "basis[3][1]", "rows must all have equal length"),
            (lambda d: d["odd_generator"].__setitem__(2, ["0.0", 1.0]), "odd_generator[2]", PAIR),
            (
                lambda d: d["symmetry_unitary"][0].__setitem__(1, [False, 0.0]),
                "symmetry_unitary[0][1]",
                PAIR,
            ),
            # numbers Python's json reads that are not finite floats
            (lambda d: d["basis"][0][0].__setitem__(0, [np.nan, 0.0]), "basis[0][0][0]", FINITE),
            (lambda d: d["basis"][2][1].__setitem__(3, [0.0, -np.inf]), "basis[2][1][3]", FINITE),
            (
                lambda d: d["symmetry_unitary"][1].__setitem__(0, [float("1e400"), 0.0]),
                "symmetry_unitary[1][0]",
                FINITE,
            ),
            (lambda d: d["basis"][0][0].__setitem__(0, [10**400, 0]), "basis[0][0][0]", FINITE),
            (
                lambda d: d["odd_generator"].__setitem__(3, [0, -(10**400)]),
                "odd_generator[3]",
                FINITE,
            ),
            (
                lambda d: (
                    d["basis"][1][0].__setitem__(1, [np.nan, 0.0]),
                    d["basis"][1][3].__setitem__(0, [10**400, 0]),
                ),
                "basis[1][0][1]",
                FINITE,
            ),
            # the first offender in reading order is named, not a later one
            (
                lambda d: (d["basis"][1][3].__setitem__(0, [0.0, "x"]), d["basis"][2][0].pop()),
                "basis[1][3][0]",
                PAIR,
            ),
        ],
    )
    def test_malformed_instances_name_the_field(self, mutate, field, message):
        blob = algebra_to_instance_dict(build_function_algebra(2))
        mutate(blob)
        with pytest.raises(InstanceFormatError) as err:
            algebra_from_instance_dict(blob)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    def test_matrix_decode_is_bitwise_the_nested_array_conversion(self):
        base = build_function_algebra(8)
        alg = conjugate_algebra(base, random_unitary(base.ambient_dim, np.random.default_rng(3)))
        blob = json.loads(json.dumps(algebra_to_instance_dict(alg)))
        for i, rows in enumerate(blob["basis"] + [blob["symmetry_unitary"]]):
            # the conversion the decoder used before: one nested array call
            ref = np.array(rows, dtype=float).view(complex)[..., 0]
            got = _matrix_from_json(rows, f"basis[{i}]")
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_function_kind_rejects_zero_points(self):
        with pytest.raises(InstanceFormatError):
            algebra_from_instance_dict({"kind": "function_algebra", "points": 0})

    def test_span_error_for_foreign_matrix(self, fn3):
        stray = np.zeros((6, 6), dtype=complex)
        stray[0, 1] = 1.0
        with pytest.raises(SpanError):
            fn3.element_from_matrix(stray)


class TestConjugation:
    def test_checks_survive_a_change_of_frame(self, fn3):
        rng = np.random.default_rng(19)
        for _ in range(3):
            alg = conjugate_algebra(fn3, random_unitary(fn3.ambient_dim, rng))
            resid = dict(alg.validation_residuals)
            resid.pop("basis_independence")
            assert max(resid.values()) <= 1e-9
            assert check_full(alg)
            assert check_odd_symmetry(alg).exists is True
