"""Tests for the rank-one building block and its deformed relatives.

Norm values are cross-checked against an independent singular-value oracle,
and the automorphism inventory against a brute-force grid search over
candidate generator images.  Both oracles live in this file so they cannot
drift with the library implementation.
"""

import json

import numpy as np
import pytest

from kreinalg import (
    K_E,
    K_ONE,
    DeformedAlgebra,
    KElem,
    deformed_check,
    k_automorphisms,
    k_close,
    k_epsilon,
    k_gamma,
    k_mul,
    k_norm,
    k_star,
)
from kreinalg import kalgebra


def svd_norm(x):
    """Operator norm of the defining 2x2 matrix, via SVD.  Independent oracle."""
    m = np.array([[x.a, x.b], [x.b, x.a]], dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def random_elems(n, seed, scale=10.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 4)) * scale
    return [KElem(complex(r[0], r[1]), complex(r[2], r[3])) for r in raw]


class TestArithmetic:
    def test_product_frozen_example(self):
        # (a, b)(c, d) = (ac + bd, ad + bc)
        assert k_mul(KElem(1, 2), KElem(3, 4)) == KElem(11, 10)

    def test_unit(self):
        x = KElem(2 + 1j, -3j)
        assert k_mul(K_ONE, x) == x
        assert k_mul(x, K_ONE) == x

    def test_generator_squares_to_unit(self):
        assert k_mul(K_E, K_E) == K_ONE

    def test_commutative(self):
        for x, y in zip(random_elems(50, 1), random_elems(50, 2)):
            assert k_close(k_mul(x, y), k_mul(y, x), tol=0.0)

    def test_operator_overloads(self):
        x, y = KElem(1, 2j), KElem(-1j, 3)
        assert x * y == k_mul(x, y)
        assert x + y == KElem(1 - 1j, 3 + 2j)
        assert x - y == KElem(1 + 1j, -3 + 2j)
        assert 2 * x == KElem(2, 4j)
        assert -x == KElem(-1, -2j)
        assert x.star() == k_star(x)

    def test_json_round_trip(self):
        x = KElem(1.5 - 2.25j, 3j)
        blob = json.dumps(x.to_json_dict())
        assert KElem.from_json_dict(json.loads(blob)) == x


class TestStar:
    def test_frozen_example(self):
        # (a, b)* = (conj a, -conj b)
        assert k_star(KElem(1 + 2j, 3 - 4j)) == KElem(1 - 2j, -3 - 4j)

    def test_generator_is_skew(self):
        assert k_star(K_E) == KElem(0, -1)

    def test_involution_and_antimultiplicativity(self):
        for x, y in zip(random_elems(50, 3), random_elems(50, 4)):
            assert k_close(k_star(k_star(x)), x, tol=0.0)
            assert k_close(k_star(k_mul(x, y)), k_mul(k_star(y), k_star(x)), tol=1e-12)


class TestNorm:
    def test_frozen_values(self):
        assert k_norm(KElem(1j, 1)) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert k_norm(K_ONE) == 1.0
        assert k_norm(K_E) == 1.0
        assert k_norm(KElem(3, 4)) == 7.0  # max(|3+4|, |3-4|)

    def test_matches_svd_oracle(self):
        for x in random_elems(500, 5):
            assert abs(k_norm(x) - svd_norm(x)) <= 1e-12 * max(1.0, svd_norm(x))

    def test_submultiplicative_and_subadditive(self):
        for x, y in zip(random_elems(200, 6), random_elems(200, 7)):
            slack = 1e-12 * max(1.0, k_norm(x) * k_norm(y))
            assert k_norm(k_mul(x, y)) <= k_norm(x) * k_norm(y) + slack
            assert k_norm(x + y) <= k_norm(x) + k_norm(y) + slack

    def test_star_fails_cstar_identity_somewhere(self):
        # The plain involution is not compatible with the norm: (1, 1) is a
        # nonzero element with x* x = 0.
        x = KElem(1, 1)
        assert k_mul(k_star(x), x) == KElem(0, 0)
        assert k_norm(x) == 2.0


class TestFundamentalSymmetry:
    def test_frozen_example(self):
        assert k_gamma(KElem(2, 3 - 1j)) == KElem(2, -3 + 1j)

    def test_involutive_isometric_multiplicative(self):
        for x, y in zip(random_elems(100, 8), random_elems(100, 9)):
            assert k_close(k_gamma(k_gamma(x)), x, tol=0.0)
            assert k_norm(k_gamma(x)) == pytest.approx(k_norm(x), abs=1e-12)
            assert k_close(k_gamma(k_mul(x, y)), k_mul(k_gamma(x), k_gamma(y)), tol=0.0)

    def test_restores_cstar_identity(self):
        # || gamma(x*) x || = ||x||^2, including the witness where the bare
        # involution collapses to zero.
        x = KElem(1, 1)
        assert k_norm(k_mul(k_gamma(k_star(x)), x)) == pytest.approx(4.0, abs=1e-15)
        for y in random_elems(200, 10):
            lhs = k_norm(k_mul(k_gamma(k_star(y)), y))
            assert lhs == pytest.approx(k_norm(y) ** 2, rel=1e-12)


class TestSwap:
    def test_frozen_values(self):
        assert k_epsilon(KElem(4j, 3)) == KElem(3, 4j)
        assert k_norm(k_epsilon(KElem(4j, 3))) == 5.0
        assert k_norm(KElem(4j, 3)) == 5.0

    def test_is_multiplication_by_generator(self):
        for x in random_elems(100, 11):
            assert k_close(k_epsilon(x), k_mul(K_E, x), tol=0.0)

    def test_anticommutes_with_symmetry(self):
        x = KElem(1, 0)
        assert k_epsilon(k_gamma(x)) == -k_gamma(k_epsilon(x))
        for y in random_elems(100, 12):
            assert k_close(k_epsilon(k_gamma(y)), -k_gamma(k_epsilon(y)), tol=0.0)

    def test_isometric(self):
        for x in random_elems(100, 13):
            assert k_norm(k_epsilon(x)) == pytest.approx(k_norm(x), abs=1e-12)


def brute_force_generator_images(step=0.125, bound=1.5):
    """Grid search for images (a, b) of the odd generator under a unital
    *-automorphism.  The defining constraints are

        (a, b)^2 = (1, 0)      (the image squares to the unit)
        (a, b)* = -(a, b)      (the image stays skew-adjoint)

    which reduce to  a^2 + b^2 = 1, 2ab = 0, Re a = 0, Im b = 0.  Coarse
    residual threshold first, then local refinement of each surviving cluster.
    """
    pts = np.arange(-bound, bound + step / 2.0, step)
    ar, ai, br, bi = np.meshgrid(pts, pts, pts, pts, indexing="ij")
    a = ar + 1j * ai
    b = br + 1j * bi

    def residual(a, b):
        return (
            np.abs(a * a + b * b - 1.0)
            + np.abs(2.0 * a * b)
            + np.abs(a + np.conj(a))
            + np.abs(b - np.conj(b))
        )

    r = residual(a, b)
    keep = r < 0.3
    survivors = np.stack([a[keep], b[keep]], axis=1)
    assert survivors.size > 0

    # Greedy clustering by proximity.
    clusters = []
    for p in survivors:
        for c in clusters:
            if np.linalg.norm(p - c[0]) < 0.5:
                c.append(p)
                break
        else:
            clusters.append([p])

    refined = []
    for c in clusters:
        members = np.array(c)
        best = members[np.argmin([residual(*m) for m in members])]
        span = step
        for _ in range(6):
            offs = np.linspace(-span, span, 9)
            oa_r, oa_i, ob_r, ob_i = np.meshgrid(offs, offs, offs, offs, indexing="ij")
            ca = best[0] + oa_r + 1j * oa_i
            cb = best[1] + ob_r + 1j * ob_i
            rr = residual(ca, cb)
            k = np.unravel_index(np.argmin(rr), rr.shape)
            best = np.array([ca[k], cb[k]])
            span *= 0.2
        assert residual(*best) < 1e-6
        refined.append(best)
    return refined


class TestAutomorphisms:
    def test_exactly_two(self):
        autos = k_automorphisms()
        assert len(autos) == 2
        images = sorted(auto.e_image.b.real for auto in autos)
        assert images == [-1.0, 1.0]
        assert all(auto.e_image.a == 0 for auto in autos)

    def test_identity_and_symmetry(self):
        ident, gamma = sorted(k_automorphisms(), key=lambda f: -f.e_image.b.real)
        for x in random_elems(100, 14):
            assert k_close(ident(x), x, tol=0.0)
            assert k_close(gamma(x), k_gamma(x), tol=0.0)

    def test_composition_table(self):
        ident, gamma = sorted(k_automorphisms(), key=lambda f: -f.e_image.b.real)
        assert gamma.compose(gamma).same_as(ident)
        assert gamma.compose(ident).same_as(gamma)
        assert ident.compose(gamma).same_as(gamma)
        assert ident.compose(ident).same_as(ident)

    def test_norm_preserving(self):
        for auto in k_automorphisms():
            for x in random_elems(100, 15):
                assert k_norm(auto(x)) == pytest.approx(k_norm(x), abs=1e-12)

    def test_brute_force_agrees(self):
        found = brute_force_generator_images()
        assert len(found) == 2
        found = sorted(found, key=lambda p: p[1].real)
        assert abs(found[0][0]) < 1e-6 and abs(found[0][1] + 1.0) < 1e-6
        assert abs(found[1][0]) < 1e-6 and abs(found[1][1] - 1.0) < 1e-6


class TestDeformed:
    def test_counterexample_arithmetic(self):
        # x = y = i + e in the reflected cell: the candidate norm gives
        # ||x y|| = 2 sqrt(2) yet ||x|| ||y|| = 2.
        for sign in (+1, -1):
            alg = DeformedAlgebra(np.pi, sign)
            x = (1j, 1.0 + 0j)
            xy = alg.mul(x, x)
            assert abs(alg.norm(xy) - 2.0 * np.sqrt(2.0)) <= 1e-12
            assert abs(alg.norm(x) * alg.norm(x) - 2.0) <= 1e-12

    def test_untwisted_skew_cell_is_the_rank_one_algebra(self):
        alg = DeformedAlgebra(0.0, -1)
        verdict = deformed_check(alg, samples=200, seed=3)
        assert verdict.is_banach and verdict.is_krein
        assert verdict.witness is None
        assert verdict.norm_discrepancy <= 1e-9
        # Pairwise agreement with the concrete rank-one operations.
        for x, y in zip(random_elems(100, 16), random_elems(100, 17)):
            pa, pb = (x.a, x.b), (y.a, y.b)
            prod = alg.mul(pa, pb)
            assert k_close(KElem(*prod), k_mul(x, y), tol=1e-12)
            st = alg.star(pa)
            assert k_close(KElem(*st), k_star(x), tol=0.0)
            assert alg.norm(pa) == pytest.approx(k_norm(x), abs=1e-12)

    def test_untwisted_plain_cell_fails_only_the_compatibility_identity(self):
        verdict = deformed_check(DeformedAlgebra(0.0, +1), samples=200, seed=4)
        assert verdict.is_banach
        assert not verdict.is_krein
        assert verdict.witness is not None
        assert verdict.witness.check == "krein_identity"

    def test_twisted_cells_fail_submultiplicativity(self):
        for theta in (np.pi / 3.0, np.pi / 2.0, np.pi, 2.0):
            for sign in (+1, -1):
                verdict = deformed_check(DeformedAlgebra(theta, sign), samples=50, seed=5)
                assert not verdict.is_banach
                assert not verdict.is_krein
                assert verdict.witness is not None
                assert verdict.witness.check == "submultiplicative"
                assert verdict.witness.lhs > verdict.witness.rhs

    def test_stops_drawing_samples_once_both_checks_fail(self, monkeypatch):
        # At theta = pi the prepended probe already fails both checks.
        drawn = []
        sample = kalgebra._sample_element
        monkeypatch.setattr(kalgebra, "_sample_element", lambda rng: drawn.append(1) or sample(rng))
        samples = 100
        verdict = deformed_check(DeformedAlgebra(np.pi, -1), samples=samples)
        assert not verdict.is_banach and not verdict.is_krein
        assert len(drawn) < 2 * samples

    def test_left_regular_norm_agrees_when_untwisted(self):
        alg = DeformedAlgebra(0.0, -1)
        for x in random_elems(100, 18):
            p = (x.a, x.b)
            assert alg.left_regular_norm(p) == pytest.approx(alg.norm(p), abs=1e-12)

    def test_left_regular_norm_splits_from_formula_at_pi(self):
        # Frozen discrepancy: at theta = pi the left-regular operator of
        # (1, i) has norm 2 while the candidate formula yields sqrt(2).
        alg = DeformedAlgebra(np.pi, -1)
        p = (1.0 + 0j, 1j)
        assert alg.norm(p) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert alg.left_regular_norm(p) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeformedAlgebra(0.0, 0)
        with pytest.raises(ValueError):
            deformed_check(DeformedAlgebra(0.0, -1), samples=0)
