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
    dagger,
    decompose,
    even_characters,
    function_algebra_instance,
    k_norm,
    quotient_by_ideal,
    quotient_with_map,
    random_unitary,
    verify_spectral_theorem,
)
from kreinalg import finite_krein, kalgebra, spectrum
from kreinalg.cli import main
from kreinalg.finite_krein import (
    DEFAULT_TOL,
    _IMPLIED,
    _VERIFY_ROWS,
    _certificates,
    _conjugated,
    _fullness_margin,
    _function_algebra_arrays,
    _implied_rows,
    _independence,
    _interpolation_entries,
    _matrix_from_json,
    _vec,
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

    @staticmethod
    def corner_algebra():
        """The corner subalgebra C e_00 of M_2: its unit is a proper projection."""
        basis = np.zeros((1, 2, 2), dtype=complex)
        basis[0, 0, 0] = 1.0
        return KreinAlgebra(basis, np.eye(2))

    @staticmethod
    def padded_algebra(points=3):
        """The rotated function algebra with its ambient space padded by a zero
        block of size 2: d = 2 points > 1, and the unit is a proper projection."""
        basis, sym = rotated_arrays(points, 3)
        n = len(sym)
        padded = np.eye(n + 2, dtype=complex)
        padded[:n, :n] = sym
        return KreinAlgebra(np.pad(basis, ((0, 0), (0, 2), (0, 2))), padded)

    @pytest.mark.parametrize("name", ["corner", "padded"])
    def test_unit_distinct_from_ambient_identity(self, name):
        # I_n is not in the span, yet the algebra is unital: its unit is a
        # proper projection of the ambient space
        alg = getattr(self, f"{name}_algebra")()
        n, zeros = alg.ambient_dim, 1 if name == "corner" else 2
        with pytest.raises(SpanError):
            alg.coords_of_matrix(np.eye(n))
        want = np.diag([1.0] * (n - zeros) + [0.0] * zeros)
        assert np.allclose(alg.unit.matrix(), want, rtol=0, atol=1e-13)
        assert alg.validation_residuals["unit"] <= 1e-14

    @staticmethod
    def full_unit_lstsq(alg):
        """lstsq on the unit's full (2d^2, d) system u B_i = B_i u = B_i."""
        S, d = alg.structure, alg.dim
        system = np.concatenate(
            [S.transpose(1, 2, 0).reshape(d * d, d), S.transpose(0, 2, 1).reshape(d * d, d)]
        )
        return np.linalg.lstsq(system, np.tile(np.eye(d).reshape(-1), 2), rcond=None)[0]

    @pytest.mark.parametrize("name", ["fn3", "conj3", "corner", "padded"])
    def test_solved_unit_equals_full_lstsq(self, name, request):
        if name in ("corner", "padded"):
            alg = getattr(self, f"{name}_algebra")()
        else:
            given = request.getfixturevalue(name)
            alg = KreinAlgebra(given.basis, given.symmetry_unitary)  # unit solved for
        full = self.full_unit_lstsq(alg)
        assert np.linalg.norm(alg.unit_coords - full) <= 1e-13 * np.linalg.norm(full)
        assert alg.validation_residuals["unit"] <= 1e-14

    @pytest.mark.parametrize("points", [1, 2, 3, 8, 24])
    def test_function_algebra_unit_is_its_closed_form(self, points):
        # the pivot solve of I_n reads the closed form back bit for bit
        alg = build_function_algebra(points)
        assert alg.unit_coords.tobytes() == np.tile([1.0, 0.0], points).astype(complex).tobytes()
        assert alg.validation_residuals["unit"] == 0.0

    @pytest.mark.parametrize("cond_exp", [4, 6, 7], ids=["cond1e4", "cond1e6", "cond1e7"])
    @pytest.mark.parametrize("points", [2, 4, 8, 16])
    def test_unit_is_the_identity_in_mixed_frames(self, points, cond_exp, mixed_function_algebra):
        # the unit is I_n in every frame; its matrix is held to I_n itself,
        # not to a solve of the computed structure tensor, whose error grows
        # with the frame's conditioning
        alg, _ = mixed_function_algebra(points, cond_exp, tol=10.0 ** -(cond_exp + 1))
        n = alg.ambient_dim
        assert np.linalg.norm(alg.unit.matrix() - np.eye(n), 2) <= 1e-9

    def test_unit_off_tol_falls_back_to_the_left_lstsq(self, monkeypatch):
        # a pivot solve of I_n whose backward error misses tol is solved again
        base = build_function_algebra(3)
        monkeypatch.setattr(KreinAlgebra, "coords_of_matrix", lambda self, mat, tol=None: np.zeros(self.dim))
        alg = KreinAlgebra(base.basis, base.symmetry_unitary)
        np.testing.assert_allclose(alg.unit_coords, base.unit_coords, rtol=0, atol=1e-14)
        assert alg.validation_residuals["unit"] <= 1e-15

    def test_unit_holds_no_copy_of_the_structure_tensor(self):
        # the pivot solve of I_n and the backward error read S in place; only
        # the fallback's lstsq copies it
        alg = rotated_function_algebra(32)
        tracemalloc.start()
        try:
            _, resid = alg._resolve_unit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resid <= 1e-14
        assert peak < alg.structure.nbytes / 4

    @pytest.mark.parametrize("argument", ["basis", "symmetry_unitary", "odd_generator"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_arguments(self, argument, value):
        base = build_function_algebra(2)
        args = {
            "basis": base.basis.copy(),
            "symmetry_unitary": base.symmetry_unitary.copy(),
            "odd_generator": base.odd_generator_coords.copy(),
        }
        args[argument].reshape(-1)[1] = value
        with pytest.raises(AlgebraValidationError, match=f"^{argument} has non-finite entries$"):
            KreinAlgebra(args.pop("basis"), args.pop("symmetry_unitary"), **args)

    def test_trivial_grading_has_no_odd_part(self, m2_algebra):
        assert m2_algebra.even_basis.shape[1] == 4
        assert m2_algebra.odd_basis.shape[1] == 0


# construction's residual keys, in stage order; the grading takes one only when it fails
STAGE_KEYS = [
    "basis_independence",
    "symmetry_unitarity",
    "symmetry_involution",
    "product_closure",
    "adjoint_closure",
    "alpha_closure",
    "unit",
    "grading",
]


def matrix_units(*entries):
    """The matrix units E_pq of M_2 at the given entries, stacked."""
    basis = np.zeros((len(entries), 2, 2), dtype=complex)
    for i, (p, q) in enumerate(entries):
        basis[i, p, q] = 1.0
    return basis


def unit_off_by_2_tol(monkeypatch):
    """The one-point function algebra, with the unit's residual reported as
    2 tol: a finite-dimensional span closed under products and adjoints holds
    its unit, so no input reaches this rejection."""
    base, resolve = build_function_algebra(1), KreinAlgebra._resolve_unit
    monkeypatch.setattr(KreinAlgebra, "_resolve_unit", lambda self: (resolve(self)[0], 2 * self.tol))
    return dict(basis=base.basis, symmetry_unitary=base.symmetry_unitary)


# stage -> (the arguments of an input it rejects, given monkeypatch; its error)
STAGE_REJECTIONS = {
    "basis_independence": (
        lambda mp: dict(basis=np.stack([np.eye(2), 2.0 * np.eye(2)]), symmetry_unitary=np.eye(2)),
        "basis is not linearly independent",
    ),
    "symmetry_unitarity": (
        lambda mp: dict(basis=build_function_algebra(1).basis, symmetry_unitary=np.diag([2.0, -1.0])),
        "symmetry_unitary not unitary",
    ),
    "symmetry_involution": (
        lambda mp: dict(basis=np.eye(2)[None], symmetry_unitary=np.diag([1j, -1j])),
        "symmetry_unitary is not an involution",
    ),
    "product_closure": (
        lambda mp: dict(basis=matrix_units((0, 1), (1, 0)), symmetry_unitary=np.eye(2)),
        "basis span is not closed under multiplication",
    ),
    "adjoint_closure": (
        lambda mp: dict(basis=np.stack([np.eye(2), matrix_units((0, 1))[0]]), symmetry_unitary=np.eye(2)),
        "basis span is not closed under adjoints",
    ),
    "alpha_closure": (
        lambda mp: dict(
            basis=np.stack([np.eye(2), np.diag([1.0, -1.0])]),
            symmetry_unitary=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
        ),
        "symmetry does not preserve the basis span",
    ),
    "unit": (unit_off_by_2_tol, "algebra has no multiplicative unit in the span"),
    # alpha = Ad U scales E_pq by u_p u_q: U^2 misses I by sin 65 deg = 0.906,
    # within tol, and the 0.5 cut counts 3 even and 3 odd directions in a span of 4
    "grading": (
        lambda mp: dict(
            basis=matrix_units((0, 0), (0, 1), (1, 0), (1, 1)),
            symmetry_unitary=np.diag([1.0, np.exp(1j * np.radians(65.0))]),
            tol=0.95,
        ),
        "grading projections do not split the span",
    ),
}


def passes(key, resid, tol):
    """Construction's rule: a margin passes above tol, any other residual within it."""
    return resid is not None and (resid > tol if key == "basis_independence" else resid <= tol)


class TestStages:
    """Construction takes its residuals stage by stage under one rule, and a
    rejection names its stage and keeps the residuals taken through it."""

    @pytest.mark.parametrize("stage", STAGE_KEYS)
    def test_rejection_carries_its_stage_and_residuals(self, monkeypatch, stage):
        inputs, message = STAGE_REJECTIONS[stage]
        kwargs = inputs(monkeypatch)
        with pytest.raises(AlgebraValidationError) as info:
            KreinAlgebra(**kwargs)
        exc, tol = info.value, kwargs.get("tol", DEFAULT_TOL)
        assert str(exc) == message
        assert exc.stage == stage
        assert list(exc.residuals) == STAGE_KEYS[: STAGE_KEYS.index(stage) + 1]
        *taken, failed = exc.residuals.items()
        assert all(passes(key, resid, tol) for key, resid in taken)
        assert not passes(*failed, tol)

    def test_a_valid_algebra_takes_every_residual_but_the_grading(self, conj3):
        assert list(conj3.validation_residuals) == STAGE_KEYS[:-1]

    def test_input_checks_name_no_stage(self):
        base = build_function_algebra(1)
        with pytest.raises(AlgebraValidationError, match="^odd_generator needs 2 coordinates") as info:
            KreinAlgebra(base.basis, base.symmetry_unitary, odd_generator=[1.0])
        assert info.value.stage is None and info.value.residuals is None


def rotated_arrays(points, seed):
    """The basis and symmetry of the rotated function algebra, unconstructed."""
    basis, sym, _ = _function_algebra_arrays(points)
    return _conjugated(basis, sym, random_unitary(2 * points, np.random.default_rng(seed)), DEFAULT_TOL)


def qr_margin(basis):
    """sigma_min / sigma_max of the vectorized basis, from the R of a
    Householder QR: the reference the Gram margin is held to."""
    sv = np.linalg.svd(np.linalg.qr(_vec(basis).T, mode="r"), compute_uv=False)
    return sv[-1] / sv[0]


class TestFrameFreeConstruction:
    """The margin from the Gram matrix, with the QR as a guard wherever the
    Gram matrix's rounding could move it by 1%, and the pivots taken on the
    vectorized basis itself."""

    @pytest.mark.parametrize("points", [8, 32, 64])
    def test_near_dependent_basis_is_rejected(self, points):
        # sigma_min / sigma_max is 5e-13, but the Gram matrix reads 1.3e-8 at
        # N = 8 (0 at N = 64: sigma_min^2 rounds below 0): only the QR sees it
        basis, sym = rotated_arrays(points, 3)
        basis[1] = basis[0] + 1e-12 * basis[1]
        assert qr_margin(basis) < 1e-12
        with pytest.raises(AlgebraValidationError, match="basis is not linearly independent"):
            KreinAlgebra(basis, sym, tol=1e-9)

    @pytest.mark.parametrize("cond_exp", [0, 4, 6, 7], ids=["cond1", "cond1e4", "cond1e6", "cond1e7"])
    @pytest.mark.parametrize("points", [2, 4, 8, 16])
    def test_margin_matches_the_qr_margin(self, points, cond_exp, mixed_function_algebra):
        alg, _ = mixed_function_algebra(points, cond_exp)
        margin, want = alg.validation_residuals["basis_independence"], qr_margin(alg.basis)
        if cond_exp >= 6:  # sigma_min^2 within 100x the Gram matrix's error bound: the guard runs
            assert margin == pytest.approx(want, rel=1e-12)
        else:
            assert margin == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("scale", [1e-158, 1e200])
    def test_margin_survives_a_gram_matrix_out_of_range(self, scale, mixed_function_algebra):
        # the Gram matrix of the scaled basis loses digits to subnormals (it
        # would read 9.56e-4) or overflows; the QR reads the unscaled margin
        flat = _vec(mixed_function_algebra(4, 3)[0].basis)
        assert _independence(flat, DEFAULT_TOL) == pytest.approx(1e-3, rel=1e-6)
        assert _independence(flat * scale, DEFAULT_TOL) == pytest.approx(_independence(flat, DEFAULT_TOL), rel=1e-9)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_pivots_on_the_basis_are_as_good_as_on_a_frame(self, seed):
        # ties make the pivot sets differ (in 19 of the 64 cases of both seeds), not cond(K)
        for points in range(1, 33):
            flat = _vec(rotated_arrays(points, seed)[0])
            on_basis = np.linalg.cond(flat[:, _interpolation_entries(flat.T)])
            on_frame = np.linalg.cond(flat[:, _interpolation_entries(np.linalg.qr(flat.T)[0])])
            assert on_basis == pytest.approx(on_frame, rel=1e-2), points


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
        # both stacks are in the span to a residual of 1e-13, or this raises SpanError
        adjoints = alg.coords_of_matrix(B.conj().transpose(0, 2, 1), tol=1e-13)
        images = alg.coords_of_matrix(U @ B @ U, tol=1e-13)
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

    @pytest.mark.parametrize("cond_exp", [0, 2, 4, 6, 7], ids=lambda e: f"cond1e{e}")
    @pytest.mark.parametrize("points", [2, 4, 8, 16])
    def test_grading_projections_have_no_singular_value_near_the_cut(
        self, points, cond_exp, mixed_function_algebra
    ):
        # (I +- A)/2 is idempotent, so its nonzero singular values are >= 1,
        # and construction's 0.5 cut sits far from both groups in every frame
        # (measured: at most 3.3e-10, at cond 1e7, or at least 1.0)
        alg, _ = mixed_function_algebra(points, cond_exp)
        eye = np.eye(alg.dim)
        for sign in (1, -1):
            s = np.linalg.svd((eye + sign * alg.alpha_coord) / 2.0, compute_uv=False)
            assert np.all((s <= 1e-8) | (s >= 1.0 - 1e-8)), (sign, s)


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
    def test_fullness(self, fn3, nonfull_algebra, m2_algebra):
        # g = sum_j y_j^dag y_j is the unit for any orthonormal odd coordinate
        # basis of a function algebra, in every unitary frame of the ambient
        # space; without the odd element over a point (nonfull), or with a
        # trivial odd part (m2), g is not invertible
        rng = np.random.default_rng(11)
        rotations = [conjugate_algebra(fn3, random_unitary(fn3.ambient_dim, rng)) for _ in range(3)]
        for alg in (fn3, *rotations):
            assert abs(_fullness_margin(alg) - 1.0) <= 1e-12
            assert check_full(alg)
        for alg in (nonfull_algebra, m2_algebra):
            assert _fullness_margin(alg) <= 1e-15
            assert not check_full(alg)

    @pytest.mark.parametrize("points, p", [(n, p) for n in range(2, 9) for p in range(n)])
    def test_fullness_fails_without_the_odd_element_over_a_point(self, points, p):
        base = build_function_algebra(points)
        alg = KreinAlgebra(np.delete(base.basis, 2 * p + 1, axis=0), base.symmetry_unitary)
        assert not check_full(alg)

    def test_fullness_and_characters_hold_no_pair_product_stack(self):
        # one (k^2, d) stack of odd pair products would take k^2 d 16 B = 1 MiB,
        # a quarter of the structure tensor; these read one multiplication
        # matrix per element instead, and commutativity reads S in place
        alg = rotated_function_algebra(32)
        k, d = alg.odd_basis.shape[1], alg.dim
        for call in (check_full, even_characters, check_commutative_symmetric):
            tracemalloc.start()
            try:
                call(alg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < k * k * d * 16, call.__name__

    @staticmethod
    def noncommuting(alg, i, j, k):
        """alg with an antisymmetric 1e-6 defect in S[i, j, k] and S[j, i, k]:
        B_i B_j != B_j B_i, and every other pair commutes as before."""
        defective = copy.copy(alg)
        defective.structure = alg.structure.copy()
        defective.structure[i, j, k] += 1e-6
        defective.structure[j, i, k] -= 1e-6
        return defective

    def test_commutative_symmetric_agreement(
        self, fn3, conj3, m2_algebra, nonfull_algebra, no_generator_algebra, broken_generator_algebra
    ):
        for alg, expected in (
            (fn3, True),
            (conj3, True),
            (m2_algebra, False),
            (nonfull_algebra, True),
            (no_generator_algebra, True),
            (broken_generator_algebra, True),
            (self.noncommuting(conj3, 0, 1, 1), False),  # one even x odd pair
        ):
            assert check_commutative_symmetric(alg).commutative is expected
            # the residual does not depend on tol, and is what tol judges
            for tol in (1e-12, DEFAULT_TOL, 1e-3):
                verdict = check_commutative_symmetric(alg, tol)
                assert verdict.commutative == (verdict.commutator_residual <= tol)

    @pytest.mark.parametrize(
        "points, i, j", [(n, i, j) for n in (2, 3) for j in range(2 * n) for i in range(j)]
    )
    def test_the_random_slot_misses_no_noncommuting_pair(self, points, i, j):
        alg = rotated_function_algebra(points)
        assert check_commutative_symmetric(alg).commutative
        assert not check_commutative_symmetric(self.noncommuting(alg, i, j, j)).commutative

    @pytest.mark.parametrize("cond_exp", [0, 4, 6], ids=["cond1", "cond1e4", "cond1e6"])
    @pytest.mark.parametrize("points", [2, 4, 8, 16])
    def test_commutativity_residual_is_relative_in_mixed_frames(
        self, points, cond_exp, mixed_function_algebra
    ):
        # max |S - S^T| reads 4.6e-13 at points 2, cond 1e4: the frame scales S
        verdict = check_commutative_symmetric(mixed_function_algebra(points, cond_exp)[0])
        assert verdict.commutative
        assert verdict.commutator_residual <= 1e-14

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
        alg = KreinAlgebra(alg.basis, alg.symmetry_unitary)
        alg.odd_generator_coords = np.full(alg.dim, math.nan + 0j)
        verdict = check_odd_symmetry(alg)
        assert verdict.exists is False and verdict.isometric is False
        assert len(verdict.failures) == 3
        assert math.isnan(verdict.max_residual)


def named_result(check, alg, name):
    out = check(alg)
    return next(r for r in (out if isinstance(out, list) else [out]) if r.name == name)


def defective_algebra(points, defect, monkeypatch):
    """The rotated function algebra over ``points`` points with one
    ``CERTIFICATE_DEFECTS`` entry built in, constructed at tol 1e-2 so that
    construction finishes and records the defect's certificate; the odd
    generator is the intact algebra's, and the unit is solved for."""
    base = rotated_function_algebra(points)
    basis, sym = CERTIFICATE_DEFECTS[defect][0](base, monkeypatch)
    return KreinAlgebra(basis, sym, odd_generator=base.odd_generator_coords, tol=1e-2)


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
        assert not isometry.passed
        # the row reads the closure certificates only, so its residual is the largest
        worst = max(alg.validation_residuals[f"{c}_closure"] for c in _IMPLIED["isometry"][1])
        assert float.hex(isometry.max_residual) == float.hex(worst)


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



@pytest.mark.parametrize(
    "module", [finite_krein, spectrum, kalgebra], ids=["finite_krein", "spectrum", "kalgebra"]
)
def test_public_names_resolve_and_are_reexported(module):
    # the benchmark's tracer binds some of these names by attribute lookup; the
    # private tables, such as _IMPLIED, stay out
    for name in module.__all__:
        assert not name.startswith("_"), name
        assert getattr(kreinalg, name) is getattr(module, name), name


def instance_with(alg, **fields):
    return algebra_from_instance_dict({**algebra_to_instance_dict(alg), **fields})


@pytest.mark.parametrize(
    "call, error, field, message",
    [
        (lambda a: a.element(np.zeros(3)), ValueError, None, "expected 4 coordinates, got (3,)"),
        (
            lambda a: KreinAlgebra(a.basis[:0], a.symmetry_unitary),
            AlgebraValidationError,
            None,
            "basis must have shape (d, n, n), got (0, 4, 4)",
        ),
        (
            lambda a: KreinAlgebra(a.basis[:, :, :3], a.symmetry_unitary),
            AlgebraValidationError,
            None,
            "basis must have shape (d, n, n), got (4, 4, 3)",
        ),
        (
            lambda a: KreinAlgebra(a.basis, a.symmetry_unitary[:3]),
            AlgebraValidationError,
            None,
            "symmetry_unitary must be 4 x 4, got (3, 4)",
        ),
        (
            lambda a: KreinAlgebra(a.basis, a.symmetry_unitary, odd_generator=np.ones(3)),
            AlgebraValidationError,
            None,
            "odd_generator needs 4 coordinates, got (3,)",
        ),
        (
            # the matrix units of M_2 with trivial grading
            lambda a: KreinAlgebra(np.eye(4).reshape(4, 2, 2), np.eye(2)).random_odd_element(
                np.random.default_rng(0)
            ),
            NotOddElementError,
            None,
            "algebra has trivial odd part",
        ),
        (
            lambda a: conjugate_algebra(a, np.eye(3)),
            AlgebraValidationError,
            None,
            "conjugating unitary must be 4 x 4",
        ),
        (lambda a: algebra_from_instance_dict([]), InstanceFormatError, "", "instance must be a JSON object"),
        (
            lambda a: instance_with(a, basis=[[]]),
            InstanceFormatError,
            "basis[0]",
            "basis[0]: expected a non-empty list of rows",
        ),
        (
            lambda a: instance_with(a, symmetry_unitary="x"),
            InstanceFormatError,
            "symmetry_unitary",
            "symmetry_unitary: expected a non-empty list of rows",
        ),
        (
            lambda a: instance_with(a, symmetry_unitary=[[[1.0, 0.0]]]),
            InstanceFormatError,
            "symmetry_unitary",
            "symmetry_unitary: matrix must be 4 x 4, got (1, 1)",
        ),
        (
            lambda a: instance_with(a, odd_generator=[]),
            InstanceFormatError,
            "odd_generator",
            "odd_generator: expected a non-empty coordinate list",
        ),
    ],
    ids=[
        "coordinate-count",
        "empty-basis",
        "non-square-basis",
        "unitary-shape",
        "generator-length",
        "trivial-odd-part",
        "conjugating-unitary-shape",
        "instance-not-an-object",
        "empty-matrix",
        "unitary-not-a-list",
        "instance-unitary-shape",
        "empty-generator",
    ],
)
def test_each_validation_refuses_its_input(call, error, field, message):
    """Every argument check of construction, elements and the instance
    reader raises its own error type, naming what it refuses."""
    with pytest.raises(error) as err:
        call(build_function_algebra(2))
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "field", None) == field


@pytest.mark.parametrize("foreign", [False, True], ids=["own", "foreign"])
def test_dagger_and_decompose_are_the_ambient_adjoint_and_halves(conj3, foreign):
    """dagger(x) is x's ambient adjoint and decompose(x) is (x +- U x U) / 2.
    An element of another algebra object is read through its matrix: in the
    same span it gives the same result, and outside it a SpanError."""
    x = conj3.random_element(np.random.default_rng(4))
    X, U = x.matrix(), conj3.symmetry_unitary
    arg = KreinAlgebra(conj3.basis, U).element(x.coords) if foreign else x
    even, odd = decompose(conj3, arg)
    for got, expected in ((dagger(conj3, arg), X.conj().T), (even, (X + U @ X @ U) / 2), (odd, (X - U @ X @ U) / 2)):
        assert got.algebra is conj3
        np.testing.assert_allclose(got.matrix(), expected, rtol=0, atol=1e-12 * np.linalg.norm(X))
    if foreign:
        stray = conjugate_algebra(conj3, random_unitary(conj3.ambient_dim, np.random.default_rng(5)))
        for call in (dagger, decompose):
            with pytest.raises(SpanError, match="matrix is not in the basis span"):
                call(conj3, stray.element(x.coords))


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
