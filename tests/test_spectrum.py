"""Tests for the spectrum machinery: characters, transform, kernels, quotients.

The character finder is checked against a brute-force oracle: for a standard
function algebra over n points the even characters must be exactly the n
point evaluations, which we can write down without running any eigensolver.
"""

import copy

import numpy as np
import pytest

from kreinalg import (
    Character,
    KElem,
    KreinAlgebra,
    MissingOddGeneratorError,
    NotCommutativeError,
    SpectralHypothesisError,
    build_function_algebra,
    character_kernel_ideal,
    character_residuals,
    conjugate_algebra,
    even_characters,
    evenness_residual,
    extend_character,
    gelfand,
    gelfand_matrix,
    k_norm,
    kernel_lemma_checks,
    quotient_with_map,
    random_unitary,
    spectrum_classes,
    verify_spectral_theorem,
)
from kreinalg import spectrum
from kreinalg.finite_krein import DEFAULT_TOL, _hypothesis_rows
from kreinalg.spectrum import _largest_principal_angle


def evaluation_table(algebra, omegas, to_frame=None):
    """Each character read on the standard even elements (the point
    projections), as a sorted tuple of rounded value vectors.  ``to_frame``
    maps standard coordinates to the algebra's coordinate frame."""
    n = algebra.dim // 2
    points = np.eye(algebra.dim) if to_frame is None else to_frame.T
    rows = []
    for om in omegas:
        rows.append(tuple(complex(np.round(om.eval_coords(points[2 * p]), 8)) for p in range(n)))
    return sorted(rows, key=lambda r: [(z.real, z.imag) for z in r])


def sort_rows(rows):
    return sorted(rows, key=lambda r: [(z.real, z.imag) for z in r])


class TestEvenCharacters:
    def test_diagonal_span_frozen_example(self):
        basis = np.zeros((2, 2, 2), dtype=complex)
        basis[0] = np.eye(2)
        basis[1] = np.diag([1.0, 2.0])
        alg = KreinAlgebra(basis, np.eye(2))
        omegas = even_characters(alg)
        values = sorted(complex(om.eval_coords([0.0, 1.0])).real for om in omegas)
        assert values == pytest.approx([1.0, 2.0], abs=1e-10)
        for om in omegas:
            assert complex(om.eval_coords(alg.unit_coords)) == pytest.approx(1.0, abs=1e-10)

    def test_corner_algebra_has_one_character(self):
        # The unit is a proper projection of the ambient space; the ambient
        # complement carries no character.
        basis = np.zeros((1, 2, 2), dtype=complex)
        basis[0, 0, 0] = 1.0
        alg = KreinAlgebra(basis, np.eye(2))
        omegas = even_characters(alg)
        assert len(omegas) == 1
        assert complex(omegas[0].eval_coords([1.0])) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "points, mixed",
        [pytest.param(p, False, id=str(p)) for p in (1, 2, 3, 4)]
        + [pytest.param(p, True, id=f"{p}-mixed") for p in (2, 4)],
    )
    def test_matches_point_evaluations(self, points, mixed, mixed_function_algebra):
        if mixed:
            alg, to_frame = mixed_function_algebra(points)
        else:
            alg, to_frame = build_function_algebra(points), None
        omegas = even_characters(alg)
        assert len(omegas) == points
        expected = sort_rows(
            tuple(complex(1.0 if q == p else 0.0) for q in range(points))
            for p in range(points)
        )
        assert evaluation_table(alg, omegas, to_frame) == expected

    def test_frame_independent(self, fn3, conj3):
        # Coordinates do not change under conjugation, so the value tables
        # must agree between the two presentations.
        assert evaluation_table(fn3, even_characters(fn3)) == evaluation_table(
            conj3, even_characters(conj3)
        )

    def test_rejects_noncommutative(self, m2_algebra):
        with pytest.raises(NotCommutativeError):
            even_characters(m2_algebra)

    def test_rejects_corrupt_structure_tensor(self, fn3):
        # Noise symmetric in the two factors keeps the algebra commutative, so
        # the finder returns, and only the multiplicativity of the characters
        # it found can expose the corruption
        noise = 1e-6 * np.random.default_rng(0).standard_normal(fn3.structure.shape)
        mutant = copy.copy(fn3)
        mutant.structure = fn3.structure + (noise + noise.transpose(1, 0, 2)) / 2
        assert len(even_characters(mutant)) == 3
        for cls in spectrum_classes(mutant):
            assert character_residuals(cls.even_rep)["multiplicative"] > spectrum.CHARACTER_TOL

    def test_deterministic(self, fn3):
        # the finder draws its one combination from a fixed seed: two calls
        # agree bit for bit
        first, second = even_characters(fn3), even_characters(fn3)
        assert len(first) == len(second) == 3
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("arg", [7, 1e-8])
    def test_tol_is_keyword_only(self, fn3, arg):
        # a positional argument, such as an old seed, is not read as a tolerance
        with pytest.raises(TypeError):
            even_characters(fn3, arg)
        with pytest.raises(TypeError):
            spectrum_classes(fn3, arg)

    @pytest.mark.parametrize("name", ["fn3", "conj3"])
    def test_order_does_not_depend_on_even_basis(self, name, request):
        # even_basis is one orthonormal basis of a degenerate subspace; any
        # other must give the same characters in the same order, which is
        # lexicographic in (re, im) of the values rounded to 9 decimals
        alg = request.getfixturevalue(name)

        def full_values(a):
            return np.array([om.values @ a.even_basis.conj().T for om in even_characters(a)])

        want = full_values(alg)
        keys = [tuple(row) for row in np.round(want, 9).view(float)]
        assert keys == sorted(keys)
        rng = np.random.default_rng(3)
        for _ in range(10):
            turned = copy.copy(alg)
            turned.even_basis = alg.even_basis @ random_unitary(3, rng)
            assert np.allclose(full_values(turned), want, atol=1e-9)


class TestExtension:
    def test_single_point_extension_is_the_identity(self, fn1):
        om = even_characters(fn1)[0]
        w = extend_character(fn1, om)
        u = w(fn1.unit)
        assert abs(u.a - 1.0) + abs(u.b) <= 1e-10
        g = w(fn1.odd_generator)
        assert abs(g.a) + abs(g.b - 1.0) <= 1e-10
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = fn1.random_element(rng)
            v = w(x)
            assert abs(v.a - x.coords[0]) + abs(v.b - x.coords[1]) <= 1e-10

    EXTENDS = "algebra has no odd generator; even characters cannot be extended"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda alg, om: extend_character(alg, om), EXTENDS),
            (lambda alg, om: spectrum_classes(alg), EXTENDS),
            (
                lambda alg, om: evenness_residual(Character(alg, np.zeros(alg.dim), np.zeros(alg.dim))),
                "algebra has no odd generator",
            ),
        ],
        ids=["extend_character", "spectrum_classes", "evenness_residual"],
    )
    def test_requires_generator(self, no_generator_algebra, call, message):
        om = even_characters(no_generator_algebra)[0]
        with pytest.raises(MissingOddGeneratorError) as err:
            call(no_generator_algebra, om)
        assert str(err.value) == message

    def test_residuals_small(self, fn3, conj3):
        for alg in (fn3, conj3):
            for om in even_characters(alg):
                w = extend_character(alg, om)
                assert max(character_residuals(w).values()) <= 1e-8

    def test_each_class_has_one_even_member(self, fn3):
        for cls in spectrum_classes(fn3):
            assert evenness_residual(cls.even_rep) <= 1e-8
            assert evenness_residual(cls.partner) > 0.5
            assert np.allclose(cls.partner.a_values, cls.even_rep.a_values)
            assert np.allclose(cls.partner.b_values, -cls.even_rep.b_values)

    @pytest.mark.parametrize("name", ["fn3", "conj3", "rotated8"])
    def test_batched_classes_equal_extend_character(self, name, request):
        if name == "rotated8":
            base = build_function_algebra(8)
            alg = conjugate_algebra(base, random_unitary(16, np.random.default_rng(3)))
        else:
            alg = request.getfixturevalue(name)
        classes = spectrum_classes(alg)
        omegas = even_characters(alg)
        assert len(classes) == len(omegas)
        for cls, om in zip(classes, omegas):
            w = extend_character(alg, om)
            np.testing.assert_allclose(cls.even_rep.a_values, w.a_values, rtol=0, atol=1e-15)
            np.testing.assert_allclose(cls.even_rep.b_values, w.b_values, rtol=0, atol=1e-15)
            assert np.array_equal(cls.partner.b_values, -cls.even_rep.b_values)

    def test_json_list_matches_the_per_entry_form(self, conj3):
        for cls in spectrum_classes(conj3):
            for w in (cls.even_rep, cls.partner):
                expected = [w.on_basis(i).to_json_dict() for i in range(conj3.dim)]
                assert w.to_json_list() == expected
                assert {type(v) for r in w.to_json_list() for p in r.values() for v in p} == {float}

    def test_partner_agrees_with_symmetry_composition(self, fn3):
        for cls in spectrum_classes(fn3):
            rng = np.random.default_rng(1)
            for _ in range(5):
                x = fn3.random_element(rng)
                via_alpha = cls.even_rep(x.alpha())
                direct = cls.partner(x)
                assert abs(via_alpha.a - direct.a) + abs(via_alpha.b - direct.b) <= 1e-10


class TestGelfand:
    def test_standard_frame_transform_is_a_permutation(self, fn3):
        T = gelfand_matrix(spectrum_classes(fn3))
        assert T.shape == (6, 6)
        assert np.allclose(np.abs(T) @ np.ones(6), np.ones(6), atol=1e-8)
        assert np.allclose(T.conj().T @ T, np.eye(6), atol=1e-8)

    def test_unit_maps_to_constant_one(self, fn3):
        values = gelfand(fn3, fn3.unit)
        for v in values:
            assert abs(v.a - 1.0) + abs(v.b) <= 1e-10

    def test_values_are_the_blocks_up_to_order(self, fn3):
        classes = spectrum_classes(fn3)
        rng = np.random.default_rng(2)
        x = fn3.random_element(rng)
        got = sorted(
            (round(v.a.real, 8), round(v.a.imag, 8), round(v.b.real, 8), round(v.b.imag, 8))
            for v in gelfand(fn3, x, classes)
        )
        want = sorted(
            (
                round(x.coords[2 * p].real, 8),
                round(x.coords[2 * p].imag, 8),
                round(x.coords[2 * p + 1].real, 8),
                round(x.coords[2 * p + 1].imag, 8),
            )
            for p in range(3)
        )
        assert got == want

    def test_isometry(self, conj3):
        classes = spectrum_classes(conj3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = conj3.random_element(rng)
            sup = max(k_norm(v) for v in gelfand(conj3, x, classes))
            assert sup == pytest.approx(x.norm(), rel=1e-9)


class TestSpectralTheorem:
    @pytest.mark.parametrize("points", [1, 2, 4])
    def test_passes_on_function_algebras(self, points):
        alg = build_function_algebra(points)
        report = verify_spectral_theorem(alg)
        assert report.passed
        assert report.spectrum_size == points
        assert report.transform_rank == 2 * points
        assert np.isfinite(report.condition_number)
        assert all(c.passed for c in report.checks)

    def test_passes_in_a_rotated_frame(self, conj3):
        report = verify_spectral_theorem(conj3)
        assert report.passed and report.spectrum_size == 3

    def test_report_is_json_ready(self, fn1):
        import json

        report = verify_spectral_theorem(fn1)
        blob = json.dumps(report.to_dict())
        assert "spectrum_size" in blob

    def test_hypothesis_commutative(self, m2_algebra):
        with pytest.raises(SpectralHypothesisError) as err:
            verify_spectral_theorem(m2_algebra)
        assert err.value.hypothesis == "commutative"

    def test_hypothesis_full(self, nonfull_algebra):
        with pytest.raises(SpectralHypothesisError) as err:
            verify_spectral_theorem(nonfull_algebra)
        assert err.value.hypothesis == "full"

    def test_hypothesis_odd_symmetry(self, no_generator_algebra, broken_generator_algebra):
        for alg in (no_generator_algebra, broken_generator_algebra):
            with pytest.raises(SpectralHypothesisError) as err:
                verify_spectral_theorem(alg)
            assert err.value.hypothesis == "odd symmetry"


SPECTRAL_CHECKS = [
    "fullness",
    "commutative_symmetric",
    "odd_symmetry",
    "injectivity_conditioning",
    "homomorphism_product",
    "homomorphism_star",
    "unital",
    "intertwines_alpha",
    "intertwines_odd_symmetry",
    "isometry",
    "round_trip",
]

# Each mutant rewrites the a- and b-value rows (A, B) of the even
# representatives; value: the checks it must fail, every other check passes.
# isometry reads only the closure certificates, which no mutant of the
# transform touches.
SPECTRAL_MUTANTS = {
    "partners": (lambda A, B: (A, -B), {"intertwines_odd_symmetry"}),
    "scaled": (lambda A, B: (1.001 * A, 1.001 * B), {"homomorphism_product", "unital"}),
    "class_1_copies_class_0": (
        lambda A, B: (A[[0, 0, 2]], B[[0, 0, 2]]),
        {"injectivity_conditioning", "round_trip"},
    ),
    "noise_on_a": (
        lambda A, B: (A + 1e-6 * np.random.default_rng(0).standard_normal(A.shape), B),
        {
            "homomorphism_product",
            "homomorphism_star",
            "unital",
            "intertwines_alpha",
            "intertwines_odd_symmetry",
        },
    ),
}


def assert_rows_read_their_residuals(report, algebra, tol):
    # the first rows are verify's hypothesis rows, verbatim; after them a row
    # passes exactly when its own residual does: d - rank is 0 for
    # injectivity_conditioning, and at most tol for every other row
    hypotheses = _hypothesis_rows(algebra, max(tol, algebra.tol))
    assert report.checks[: len(hypotheses)] == hypotheses
    for c in report.checks[len(hypotheses) :]:
        if c.name == "injectivity_conditioning":
            assert c.max_residual == algebra.dim - report.transform_rank
            assert c.passed is (c.max_residual == 0.0), c
        else:
            assert c.passed is (c.max_residual <= tol), c
    assert report.passed is all(c.passed for c in report.checks)


class TestSpectralMutations:
    @pytest.mark.parametrize("fixture", ["fn3", "conj3"])
    @pytest.mark.parametrize("name", list(SPECTRAL_MUTANTS))
    def test_checks_fail_on_their_mutant(self, request, monkeypatch, fixture, name):
        alg = request.getfixturevalue(fixture)
        report = verify_spectral_theorem(alg)
        assert [c.name for c in report.checks] == SPECTRAL_CHECKS and report.passed
        assert_rows_read_their_residuals(report, alg, DEFAULT_TOL)
        alter, expected = SPECTRAL_MUTANTS[name]
        extend = spectrum._extend
        monkeypatch.setattr(spectrum, "_extend", lambda a, v: alter(*extend(a, v)))
        report = verify_spectral_theorem(alg)
        assert {c.name for c in report.checks if not c.passed} == expected
        assert_rows_read_their_residuals(report, alg, DEFAULT_TOL)

    @pytest.mark.parametrize("fixture", ["fn3", "conj3"])
    def test_a_rank_deficient_round_trip_reads_about_one(self, request, monkeypatch, fixture):
        alg = request.getfixturevalue(fixture)
        alter, _ = SPECTRAL_MUTANTS["class_1_copies_class_0"]
        extend = spectrum._extend
        monkeypatch.setattr(spectrum, "_extend", lambda a, v: alter(*extend(a, v)))
        rows = {c.name: c for c in verify_spectral_theorem(alg).checks}
        assert rows["injectivity_conditioning"].max_residual == 2.0
        assert rows["round_trip"].max_residual == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("fixture", ["fn3", "conj3"])
    @pytest.mark.parametrize("pair", [(0, 0), (1, 2), (3, 4), (5, 5)], ids=lambda p: f"{p[0]}-{p[1]}")
    def test_multiplicative_sees_a_single_pair_defect(self, request, fixture, pair):
        # the certificate takes one random left slot against every basis
        # element, so a defect in any one product B_i B_j must show
        alg = request.getfixturevalue(fixture)
        mutant = copy.copy(alg)
        mutant.structure = alg.structure.copy()
        mutant.structure[pair] += 1e-6 * np.random.default_rng(1).standard_normal(alg.dim)
        for cls in spectrum_classes(alg):
            w = cls.even_rep
            assert character_residuals(w)["multiplicative"] <= 1e-14
            defective = Character(mutant, w.a_values, w.b_values)
            assert character_residuals(defective)["multiplicative"] > 1e-8


class TestKernels:
    def test_lemma_checks_pass(self, fn3, conj3):
        for alg in (fn3, conj3):
            for cls in spectrum_classes(alg):
                results = kernel_lemma_checks(alg, cls.even_rep, samples=40, seed=10)
                assert all(r.passed for r in results), [
                    (r.name, r.max_residual) for r in results if not r.passed
                ]

    @pytest.mark.parametrize("theta", [0.0, 1e-10, 1e-6, 0.3, 1.5])
    @pytest.mark.parametrize("p, q", [(4, 4), (5, 2), (2, 5)])
    def test_largest_principal_angle(self, theta, p, q):
        """Spans of Q[:, :p] and Q[:, :q] with one column of the second tilted
        by theta out of the first: the largest angle is theta."""
        rng = np.random.default_rng(17)
        n = 9
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        A, B = Q[:, :p], Q[:, :q].copy()
        B[:, 0] = np.cos(theta) * Q[:, 0] + np.sin(theta) * Q[:, -1]
        assert _largest_principal_angle(A, B) == pytest.approx(theta, rel=1e-12, abs=1e-15)
        assert _largest_principal_angle(B, A) == pytest.approx(theta, rel=1e-12, abs=1e-15)

    def test_tilted_partner_kernel_fails(self, fn3, monkeypatch):
        """The partner's kernel tilted by 1e-6 out of the true kernel must
        fail equal_even_parts_equal_kernels."""
        w = spectrum_classes(fn3)[0].even_rep
        K = w.kernel_basis()
        U = np.linalg.svd(K)[0]
        tilted = K.copy()
        tilted[:, 0] = np.cos(1e-6) * K[:, 0] + np.sin(1e-6) * U[:, -1]
        kernel_basis = Character.kernel_basis

        def tilt_partner(self, tol=1e-8):
            return kernel_basis(self, tol) if self is w else tilted

        monkeypatch.setattr(Character, "kernel_basis", tilt_partner)
        results = {r.name: r for r in kernel_lemma_checks(fn3, w, samples=10, seed=10)}
        verdict = results["equal_even_parts_equal_kernels"]
        assert not verdict.passed
        assert verdict.max_residual == pytest.approx(1e-6, rel=1e-6)

    def test_scaled_character_fails_the_norm_identity(self, fn3):
        # s w is not multiplicative: ||s w(x)||^2 against ||s w(x^dag x)|| is
        # s^2 against s on every sample, a residual of (s - 1) / (s + 1); its
        # kernel is w's, where s w(x^dag x) still vanishes
        w, s = spectrum_classes(fn3)[0].even_rep, 1.001
        scaled = Character(fn3, s * w.a_values, s * w.b_values)
        results = {r.name: r for r in kernel_lemma_checks(fn3, scaled, samples=20, seed=10)}
        assert {name for name, r in results.items() if not r.passed} == {"kernel_norm_identity"}
        assert results["kernel_norm_identity"].max_residual == pytest.approx((s - 1) / (s + 1), rel=1e-9)

    def test_noise_on_a_fails_kernel_vanishing_forward(self, fn3):
        # the noisy functional's kernel holds elements x with w(x^dag x) != 0;
        # the noise also breaks the norm identity
        w = spectrum_classes(fn3)[0].even_rep
        noise = 1e-6 * np.random.default_rng(0).standard_normal(w.a_values.shape)
        noisy = Character(fn3, w.a_values + noise, w.b_values)
        results = {r.name: r for r in kernel_lemma_checks(fn3, noisy, samples=20, seed=10)}
        failed = {name for name, r in results.items() if not r.passed}
        assert failed == {"kernel_vanishing_forward", "kernel_norm_identity"}
        assert 1e-7 < results["kernel_vanishing_forward"].max_residual < 1e-5

    def test_kernel_dimension(self, fn3):
        w = spectrum_classes(fn3)[0].even_rep
        assert w.kernel_basis().shape == (6, 4)

    def test_kernel_elements_vanish_quadratically(self, fn3):
        w = spectrum_classes(fn3)[1].even_rep
        K = w.kernel_basis()
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.standard_normal(K.shape[1]) + 1j * rng.standard_normal(K.shape[1])
            x = fn3.element(K @ c)
            v = w(x)
            assert abs(v.a) + abs(v.b) <= 1e-8 * max(1.0, x.norm())
            vq = w(x.dagger() * x)
            assert abs(vq.a) + abs(vq.b) <= 1e-7 * max(1.0, x.norm() ** 2)

    def test_partner_has_the_same_kernel(self, fn3):
        cls = spectrum_classes(fn3)[2]
        K1, K2 = cls.even_rep.kernel_basis(), cls.partner.kernel_basis()
        # Same column space: projecting one basis onto the other is lossless.
        proj = K2 @ (K2.conj().T @ K1)
        assert np.allclose(proj, K1, atol=1e-9)


class TestCharacterQuotients:
    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_quotient_by_character_kernel_is_rank_one(self, points):
        alg = build_function_algebra(points)
        for om in even_characters(alg):
            ideal = character_kernel_ideal(alg, om)
            quot, cmap = quotient_with_map(alg, ideal, tol=1e-9)
            assert quot.dim == 2
            w = extend_character(alg, om)
            # Express quotient coordinates in the (unit, generator) frame;
            # the induced map must be the extended character.
            P = np.linalg.inv(
                np.column_stack([quot.unit_coords, quot.odd_generator_coords])
            )
            rng = np.random.default_rng(12)
            for _ in range(10):
                x = alg.random_element(rng)
                mu, nu = P @ (cmap @ x.coords)
                v = w(x)
                assert abs(mu - v.a) + abs(nu - v.b) <= 1e-8
