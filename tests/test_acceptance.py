"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line with
its wall-clock time and enforces the stated tolerance and time budget.  Run
with ``pytest -v tests/test_acceptance.py`` to see one line per criterion.
"""

import json
import time

import numpy as np
import pytest

from kreinalg import (
    DeformedAlgebra,
    KElem,
    build_function_algebra,
    check_bimodule_axioms,
    check_commutative_symmetric,
    check_cstar_identity,
    check_decomposition,
    check_full,
    check_imprimitivity,
    check_krein_identity,
    check_odd_symmetry,
    character_kernel_ideal,
    conjugate_algebra,
    deformed_check,
    even_characters,
    evenness_residual,
    extend_character,
    k_automorphisms,
    k_gamma,
    k_mul,
    k_norm,
    kernel_lemma_checks,
    quotient_with_map,
    random_unitary,
    spectrum_classes,
    verify_spectral_theorem,
)
from kreinalg.cli import main as cli_main

from test_kalgebra import brute_force_generator_images, svd_norm


class _Gate:
    """Context manager: times a criterion and prints its verdict line."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and dt <= self.budget else "FAIL"
        print(f"ACCEPTANCE {verdict}: {self.name} ({dt:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert dt <= self.budget, f"{self.name} exceeded {self.budget}s ({dt:.2f}s)"
        return False


def family(sizes, conjugate_seed=None):
    for n in sizes:
        alg = build_function_algebra(n)
        if conjugate_seed is None:
            yield n, alg
        else:
            rng = np.random.default_rng(conjugate_seed + n)
            yield n, conjugate_algebra(alg, random_unitary(alg.ambient_dim, rng))


def test_criterion_1_counterexample_arithmetic():
    with _Gate("counterexample arithmetic at the reflected twist", 1.0):
        for sign in (+1, -1):
            alg = DeformedAlgebra(np.pi, sign)
            x = (1j, 1.0 + 0j)
            assert abs(alg.norm(alg.mul(x, x)) - 2.0 * np.sqrt(2.0)) <= 1e-12
            assert abs(alg.norm(x) ** 2 - 2.0) <= 1e-12
            # submultiplicativity fails by exactly sqrt(2)
            ratio = alg.norm(alg.mul(x, x)) / alg.norm(x) ** 2
            assert abs(ratio - np.sqrt(2.0)) <= 1e-12


def test_criterion_2_deformation_landscape(tmp_path):
    with _Gate("64-cell deformation sweep isolates the untwisted skew cell", 5.0):
        report_path = tmp_path / "cells.json"
        code = cli_main(
            ["counterexample", "--grid", "64", "--report", str(report_path), "--samples", "100"]
        )
        assert code == 0
        blob = json.loads(report_path.read_text())
        assert blob["passing_cells"] == [[0.0, -1]]
        assert blob["unique_pass_at_theta0_minus"] is True
        assert blob["pi_flagged_non_banach"] is True
        assert len(blob["cells"]) == 128


def test_criterion_3_automorphism_inventory():
    with _Gate("unital *-automorphisms are exactly {id, grading symmetry}", 1.0):
        autos = k_automorphisms()
        assert len(autos) == 2
        images = sorted((round(f.e_image.a.real, 12), round(f.e_image.b.real, 12)) for f in autos)
        assert images == [(0.0, -1.0), (0.0, 1.0)]
        rng = np.random.default_rng(31)
        for f in autos:
            target = k_gamma if f.e_image.b.real < 0 else (lambda v: v)
            for _ in range(100):
                r = rng.standard_normal(4)
                x = KElem(complex(r[0], r[1]), complex(r[2], r[3]))
                got, want = f(x), target(x)
                assert abs(got.a - want.a) + abs(got.b - want.b) == 0.0
        found = sorted(brute_force_generator_images(), key=lambda p: p[1].real)
        assert len(found) == 2
        assert abs(found[0][0]) < 1e-6 and abs(found[0][1] + 1.0) < 1e-6
        assert abs(found[1][0]) < 1e-6 and abs(found[1][1] - 1.0) < 1e-6


def test_criterion_4_norm_oracle():
    with _Gate("closed-form norm matches the SVD oracle on 1000 samples", 5.0):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            r = rng.standard_normal(4) * 10.0
            x = KElem(complex(r[0], r[1]), complex(r[2], r[3]))
            assert abs(k_norm(x) - svd_norm(x)) <= 1e-12 * max(1.0, svd_norm(x))


def test_criterion_5_axiom_suite():
    with _Gate("axiom suite over function algebras and rotated copies", 30.0):
        plain = list(family([1, 2, 4, 8, 16]))
        rotated = list(family([1, 2, 4, 8, 16], conjugate_seed=500))
        for n, alg in plain + rotated:
            resid = dict(alg.validation_residuals)
            assert resid.pop("basis_independence") > 1e-3
            assert max(resid.values()) <= 1e-9
            assert check_cstar_identity(alg).passed
            assert check_krein_identity(alg).passed
            assert check_decomposition(alg).passed
            assert all(r.passed for r in check_bimodule_axioms(alg))
            assert check_imprimitivity(alg).passed
            assert check_full(alg)
            verdict = check_commutative_symmetric(alg)
            assert verdict.commutative
            ov = check_odd_symmetry(alg)
            assert ov.exists is True and ov.isometric
            assert ov.max_residual <= 1e-9


def test_criterion_6_spectral_theorem():
    with _Gate("spectral theorem across the family, isometric round trip", 60.0):
        for n, alg in list(family([1, 2, 4, 8, 16])) + list(
            family([1, 2, 4, 8, 16], conjugate_seed=600)
        ):
            report = verify_spectral_theorem(alg, tol=1e-9)
            assert report.passed
            assert report.spectrum_size == n
            assert report.transform_rank == 2 * n
            by_name = {c.name: c for c in report.checks}
            for key in (
                "homomorphism_product",
                "homomorphism_star",
                "unital",
                "intertwines_alpha",
                "intertwines_odd_symmetry",
                "isometry",
                "round_trip",
            ):
                assert by_name[key].passed and by_name[key].max_residual <= 1e-9


def test_criterion_7_character_oracle():
    with _Gate("characters equal point evaluations; one even member per class", 10.0):
        for n in (1, 2, 3, 4):
            alg = build_function_algebra(n)
            omegas = even_characters(alg)
            assert len(omegas) == n
            eye = np.eye(alg.dim)
            table = sorted(
                tuple(int(np.round(om.eval_coords(eye[2 * p]).real)) for p in range(n))
                for om in omegas
            )
            assert table == sorted(
                tuple(1 if q == p else 0 for q in range(n)) for p in range(n)
            )
            # sharpness: rounded table is within tolerance of the raw values
            for om in omegas:
                raw = [om.eval_coords(eye[2 * p]) for p in range(n)]
                assert all(
                    min(abs(v - 0.0), abs(v - 1.0)) <= 1e-8 for v in raw
                )
            for cls in spectrum_classes(alg):
                assert evenness_residual(cls.even_rep) <= 1e-8
                assert evenness_residual(cls.partner) > 0.5


def test_criterion_8_character_quotients():
    with _Gate("character-kernel quotients are two-dimensional rank-one copies", 30.0):
        for n in range(1, 9):
            alg = build_function_algebra(n)
            for om in even_characters(alg):
                ideal = character_kernel_ideal(alg, om)
                quot, cmap = quotient_with_map(alg, ideal, tol=1e-9)
                assert quot.dim == 2
                # the quotient is a copy of the rank-one algebra: in the
                # (unit, generator) frame the product is the rank-one product
                P = np.linalg.inv(
                    np.column_stack([quot.unit_coords, quot.odd_generator_coords])
                )
                rng = np.random.default_rng(81)
                w = extend_character(alg, om)
                for _ in range(5):
                    x, y = alg.random_element(rng), alg.random_element(rng)
                    qx, qy = cmap @ x.coords, cmap @ y.coords
                    vx, vy = KElem(*(P @ qx)), KElem(*(P @ qy))
                    prod = KElem(*(P @ quot.mul_coords(qx, qy)))
                    want = k_mul(vx, vy)
                    assert abs(prod.a - want.a) + abs(prod.b - want.b) <= 1e-8
                    # induced map agrees with the extended character
                    wx = w(x)
                    assert abs(vx.a - wx.a) + abs(vx.b - wx.b) <= 1e-8


def test_criterion_9_kernel_lemmas():
    with _Gate("kernel identities for characters on 100+ samples", 30.0):
        rng = np.random.default_rng(91)
        for n in (2, 4):
            alg = build_function_algebra(n)
            rotated = conjugate_algebra(alg, random_unitary(alg.ambient_dim, rng))
            for a in (alg, rotated):
                for cls in spectrum_classes(a):
                    for w in (cls.even_rep, cls.partner):
                        results = kernel_lemma_checks(a, w, samples=100, seed=92)
                        for r in results:
                            assert r.passed, (r.name, r.max_residual)
                            assert r.max_residual <= 1e-8
