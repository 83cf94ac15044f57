"""Characters, spectrum classes and the Gelfand transform.

A character maps a graded algebra onto the rank-one model, commutes with the
fundamental symmetries and preserves the grading.  Characters come in pairs
{w, gamma.w}; each pair holds exactly one representative fixed by the odd
symmetries on both sides, and the set of pairs is coordinatized by the
C*-characters of the even part.  The Gelfand transform evaluates the even
representative of every class and lands in the function algebra over the
class set; for commutative, imprimitive instances with an odd generator it
is an isometric *-isomorphism.  ``verify_spectral_theorem`` checks the
character axioms of the transform's rows on the basis (multiplicativity
through one random slot, the rest as linear identities).  It samples no
ambient norm: an injective *-homomorphism between C*-algebras is isometric,
so the isometry check reads those axioms, the rank and the closure
certificates construction took.

Even characters are read off the even block of the structure tensor: the
even part is a copy of C^m, so left multiplication by a generic element is
diagonalizable with the minimal projections as eigenvectors, and the
characters are the dual basis.  A combination that fails to separate them is
retried with fresh coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kalgebra import KElem
from .finite_krein import (
    CheckResult,
    DEFAULT_TOL,
    GradedElement,
    KreinAlgebra,
    _implied,
    _left_mul,
    _pairs_to_json,
    _products,
    _random_coords,
    _rank,
    _worst,
    check_commutative_symmetric,
    check_full,
    check_odd_symmetry,
)

__all__ = [
    "NotCommutativeError",
    "ClusteringAmbiguityError",
    "MissingOddGeneratorError",
    "SpectralHypothesisError",
    "EvenCharacter",
    "Character",
    "SpectrumClass",
    "even_characters",
    "extend_character",
    "spectrum_classes",
    "gelfand",
    "gelfand_matrix",
    "character_residuals",
    "evenness_residual",
    "character_kernel_ideal",
    "verify_spectral_theorem",
    "kernel_lemma_checks",
    "SpectralReport",
]

CHARACTER_TOL = 1e-8


class NotCommutativeError(ValueError):
    """Characters are only computed for commutative even parts."""


class ClusteringAmbiguityError(RuntimeError):
    """No random combination of the even basis yielded multiplicative
    characters within the allowed attempts."""


class MissingOddGeneratorError(ValueError):
    """Extending an even character needs the algebra's odd generator."""


class SpectralHypothesisError(RuntimeError):
    """A spectral-theorem hypothesis failed; ``hypothesis`` names it."""

    def __init__(self, message: str, hypothesis: str):
        super().__init__(message)
        self.hypothesis = hypothesis


@dataclass(frozen=True, eq=False)
class EvenCharacter:
    """C*-character of the even part, stored on the even coordinate basis."""

    algebra: KreinAlgebra
    values: np.ndarray  # value on column j of algebra.even_basis

    def eval_coords(self, coords) -> complex:
        """Value on an element of the even part, given full coordinates."""
        c = self.algebra.even_basis.conj().T @ np.asarray(coords, dtype=complex)
        return complex(self.values @ c)

    def sort_key(self) -> tuple:
        # keyed on the values on the algebra's own basis: even_basis is an
        # arbitrary orthonormal basis of a degenerate singular subspace, so
        # ``values`` may change under roundoff where these do not
        key = []
        for v in np.round(self.values @ self.algebra.even_basis.conj().T, 9):
            key.extend((float(v.real) + 0.0, float(v.imag) + 0.0))
        return tuple(key)


def even_characters(
    algebra: KreinAlgebra,
    seed: int = 7,
    tol: float = CHARACTER_TOL,
    retries: int = 5,
) -> list[EvenCharacter]:
    """All characters of the (commutative) even part, one per minimal projection.

    Works on the even block of the structure tensor: left multiplication by
    a random real combination of the even basis is diagonalized, its
    eigenvectors are the minimal projections, and the rows of the inverse
    eigenvector matrix, scaled to read 1 on the unit, are the characters.
    They are accepted when multiplicative to ``tol`` relative to their size;
    otherwise the next combination is tried, and after ``retries`` attempts
    a ClusteringAmbiguityError is raised.  The result is sorted
    lexicographically by value tuple and its length always equals the even
    dimension.
    """
    eb = algebra.even_basis
    # L[i, a, j]: coordinate a of the product of even basis elements i and j
    L = np.einsum("ka,ijk->iaj", eb.conj(), _products(algebra, eb, eb))
    comm = float(np.max(np.abs(L - L.transpose(2, 1, 0)), initial=0.0))
    if comm > tol * max(1.0, float(np.max(np.abs(algebra.structure)))):
        raise NotCommutativeError(
            f"even part is not commutative (residual {comm:.3e})"
        )

    unit = eb.conj().T @ algebra.unit_coords
    rng = np.random.default_rng(seed)
    for _ in range(max(1, retries)):
        _, V = np.linalg.eig(np.einsum("i,iaj->aj", rng.standard_normal(L.shape[0]), L))
        W = np.linalg.inv(V)
        W = W / (W @ unit)[:, None]
        gap = np.einsum("ra,iaj->rij", W, L) - W[:, :, None] * W[:, None, :]
        resid = float(np.max(np.abs(gap)))
        if resid <= tol * max(1.0, float(np.max(np.abs(W)))) ** 2:
            chars = [EvenCharacter(algebra, w) for w in W]
            chars.sort(key=EvenCharacter.sort_key)
            return chars
    raise ClusteringAmbiguityError(
        "no combination of the even basis separated the characters "
        f"(multiplicativity residual {resid:.3e})"
    )


@dataclass(frozen=True, eq=False)
class Character:
    """Character into the rank-one algebra, stored by value on each basis element."""

    algebra: KreinAlgebra
    a_values: np.ndarray
    b_values: np.ndarray

    def on_basis(self, i: int) -> KElem:
        return KElem(self.a_values[i], self.b_values[i])

    def __call__(self, x) -> KElem:
        coords = x.coords if isinstance(x, GradedElement) else np.asarray(x, dtype=complex)
        return KElem(complex(self.a_values @ coords), complex(self.b_values @ coords))

    def gamma_composed(self) -> "Character":
        return Character(self.algebra, self.a_values, -self.b_values)

    def functional_matrix(self) -> np.ndarray:
        return np.vstack([self.a_values, self.b_values])

    def kernel_basis(self, tol: float = CHARACTER_TOL) -> np.ndarray:
        """Orthonormal columns spanning {x : w(x) = 0}."""
        W = self.functional_matrix()
        _, s, vh = np.linalg.svd(W)
        return vh[_rank(s, tol):].conj().T

    def to_json_list(self) -> list:
        """``[w(B_i).to_json_dict() for each basis element B_i]``, built from the
        value arrays without a KElem per entry."""
        a, b = _pairs_to_json(self.a_values), _pairs_to_json(self.b_values)
        return [{"a": x, "b": y} for x, y in zip(a, b)]


def _extend(algebra: KreinAlgebra, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a- and b-values (rows) of the extensions of the even characters whose
    values on the even basis are the rows of ``values``: e times the odd part
    and the grading projections are formed once for all of them."""
    if algebra.odd_generator_coords is None:
        raise MissingOddGeneratorError(
            "algebra has no odd generator; even characters cannot be extended"
        )
    eye, alpha = np.eye(algebra.dim), algebra.alpha_coord
    eps = _left_mul(algebra, algebra.odd_generator_coords)
    # omega on full coordinates, applied to the even part and to e times the odd part
    phi = values @ algebra.even_basis.conj().T
    return phi @ (eye + alpha) / 2.0, phi @ eps @ (eye - alpha) / 2.0


def extend_character(algebra: KreinAlgebra, omega: EvenCharacter) -> Character:
    """Even-symmetry-invariant character extending an even-part character.

    The odd part is reached through the odd generator: the value on x is the
    even-part value on the even component plus the swapped value on e times
    the odd component.
    """
    a_vals, b_vals = _extend(algebra, omega.values)
    return Character(algebra, a_vals, b_vals)


def _axiom_residuals(algebra: KreinAlgebra, A: np.ndarray, B: np.ndarray) -> dict[str, float]:
    """Residuals of the character axioms, on the basis, for the characters
    whose a- and b-values are the rows of A and B.

    ``multiplicative`` is a certificate: with x a complex Gaussian combination
    of the basis seeded from the basis bytes, it is the worst over j of
    ||w(x B_j) - w(x) w(B_j)|| relative to max(1, ||w(x)|| ||w(B_j)||), all
    characters stacked, with products taken in the rank-one algebra.  The
    identity is linear in x, so a defect on any basis pair survives the random
    slot almost surely (Freivalds, 1977); O(N d^2) time after the O(d^3) left
    multiplication matrix of x.  The others are absolute and linear on the
    basis: w(B_j^*) = w(B_j)^*, w(1) = 1, w(alpha B_j) = gamma w(B_j) (which
    also makes b vanish on the even part and a on the odd part, once
    alpha^2 = id), and, when the algebra has an odd generator e,
    w(e B_j) = epsilon w(B_j) (``odd_symmetry``).
    """
    x = _random_coords(np.random.default_rng(algebra._seed), 1, algebra.dim)[0]
    xB = algebra._left_matrices(x).T  # column j: coordinates of x B_j
    xa, xb = (A @ x)[:, None], (B @ x)[:, None]
    gap = np.concatenate([A @ xB - xa * A - xb * B, B @ xB - xa * B - xb * A])
    scale = np.linalg.norm([xa, xb]) * np.linalg.norm(np.concatenate([A, B]), axis=0)

    def worst(*diffs: np.ndarray) -> float:
        return max(float(np.max(np.abs(diff), initial=0.0)) for diff in diffs)

    u, alpha, star = algebra.unit_coords, algebra.alpha_coord, algebra.star_coord
    out = {
        "multiplicative": _worst(np.linalg.norm(gap, axis=0), scale),
        "unital": worst(A @ u - 1.0, B @ u),
        "star": worst(A @ star - A.conj(), B @ star + B.conj()),
        "alpha_equivariance": worst(A @ alpha - A, B @ alpha + B),
    }
    if algebra.odd_generator_coords is not None:
        eps = _left_mul(algebra, algebra.odd_generator_coords)
        out["odd_symmetry"] = worst(B @ eps - A, A @ eps - B)
    return out


def character_residuals(w: Character) -> dict[str, float]:
    """Named residuals of the character axioms (see ``_axiom_residuals``);
    ``multiplicative`` is relative, the others are absolute."""
    out = _axiom_residuals(w.algebra, w.a_values[None], w.b_values[None])
    out.pop("odd_symmetry", None)
    return out


def evenness_residual(w: Character) -> float:
    """Residual of invariance under the odd symmetries on both sides.

    Zero (numerically) exactly for the even representative of a class;
    composing with gamma flips the sign, so the partner always fails.
    """
    if w.algebra.odd_generator_coords is None:
        raise MissingOddGeneratorError("algebra has no odd generator")
    return _axiom_residuals(w.algebra, w.a_values[None], w.b_values[None])["odd_symmetry"]


@dataclass(frozen=True, eq=False)
class SpectrumClass:
    """Pair {w, gamma.w} of characters, keyed by its even representative."""

    even_rep: Character
    partner: Character


def spectrum_classes(
    algebra: KreinAlgebra, seed: int = 7, tol: float = CHARACTER_TOL
) -> list[SpectrumClass]:
    """All character classes, ordered by the even-part value tuples; every
    even character is extended by one product (see ``extend_character``)."""
    omegas = even_characters(algebra, seed=seed, tol=tol)
    A, B = _extend(algebra, np.array([om.values for om in omegas]))
    classes = []
    for a_vals, b_vals in zip(A, B):
        w = Character(algebra, a_vals, b_vals)
        classes.append(SpectrumClass(even_rep=w, partner=w.gamma_composed()))
    return classes


def gelfand_matrix(classes: list[SpectrumClass]) -> np.ndarray:
    """Transform as a matrix into function-algebra coordinates.

    Row 2c is the even-value functional of class c, row 2c+1 the odd-value
    functional, matching the (even, odd) per-point basis ordering of
    ``build_function_algebra``.
    """
    rows = []
    for cls in classes:
        rows.append(cls.even_rep.a_values)
        rows.append(cls.even_rep.b_values)
    return np.array(rows)


def gelfand(algebra: KreinAlgebra, x, classes: list[SpectrumClass] | None = None) -> list[KElem]:
    """Gelfand transform of x: its value at every spectrum class."""
    if classes is None:
        classes = spectrum_classes(algebra)
    el = x if isinstance(x, GradedElement) else GradedElement(algebra, x)
    return [cls.even_rep(el) for cls in classes]


def character_kernel_ideal(
    algebra: KreinAlgebra, omega: EvenCharacter, tol: float = CHARACTER_TOL
) -> list[GradedElement]:
    """Alpha-invariant ideal attached to an even character.

    Even component: the kernel of omega inside the even part.  Odd
    component: the odd part times that kernel.  Quotienting by it leaves a
    rank-one algebra.
    """
    eb = algebra.even_basis
    m = eb.shape[1]
    vals = np.asarray(omega.values, dtype=complex).reshape(1, m)
    _, s, vh = np.linalg.svd(vals)
    rank = _rank(s, tol)
    ker_cols = vh[rank:].conj().T  # (m, m - rank)
    even_kernel = eb @ ker_cols  # (d, m - rank) coordinates in the full algebra
    ob = algebra.odd_basis
    members = [even_kernel.T]
    if ob.shape[1] and even_kernel.shape[1]:
        members.append(_products(algebra, ob, even_kernel).reshape(-1, algebra.dim))
    stacked = np.concatenate(members, axis=0)
    _, s2, vh2 = np.linalg.svd(stacked)
    return [GradedElement(algebra, row) for row in vh2[: _rank(s2, tol)]]


@dataclass
class SpectralReport:
    """Outcome of the spectral-theorem verification."""

    checks: list[CheckResult]
    spectrum_size: int
    classes: list[SpectrumClass]
    transform_rank: int
    condition_number: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "spectrum_size": int(self.spectrum_size),
            "transform_rank": int(self.transform_rank),
            "condition_number": float(self.condition_number),
            "passed": bool(self.passed),
            "characters": [
                {
                    "even": cls.even_rep.to_json_list(),
                    "partner": cls.partner.to_json_list(),
                }
                for cls in self.classes
            ],
        }


def verify_spectral_theorem(
    algebra: KreinAlgebra, *, seed: int = 42, tol: float = DEFAULT_TOL
) -> SpectralReport:
    """Check that the Gelfand transform is an isometric *-isomorphism.

    Raises SpectralHypothesisError (naming the hypothesis) unless the
    algebra is commutative with symmetric odd bimodule, the odd part is
    full, and a valid odd generator is present.  Then verifies, with T the
    transform matrix: injectivity/surjectivity through its rank and
    conditioning; on the basis, the character axioms of its rows through
    ``_axiom_residuals`` (the homomorphism property as a random-slot
    certificate; the star property, unitality and the intertwining of both
    symmetries as linear identities) and the round trip
    max_j ||(T^+ T - I) e_j||.  An injective *-homomorphism between
    C*-algebras is isometric, so ``isometry`` passes when T has rank d and
    the homomorphism, star, unit and alpha residuals and the closure
    certificates of the ``isometry`` row of ``finite_krein._IMPLIED`` are
    within tol; its residual is their maximum.  ``seed`` seeds the character
    finder.
    """
    if not check_commutative_symmetric(algebra, tol=max(tol, algebra.tol)).commutative:
        raise SpectralHypothesisError(
            "algebra is not commutative with symmetric odd bimodule",
            hypothesis="commutative",
        )
    if not check_full(algebra, tol=max(tol, algebra.tol)):
        raise SpectralHypothesisError("odd part not full", hypothesis="full")
    ov = check_odd_symmetry(algebra, tol=max(tol, algebra.tol))
    if ov.exists is not True:
        raise SpectralHypothesisError(
            "no valid odd symmetry (odd generator absent or defective)",
            hypothesis="odd symmetry",
        )

    ctol = max(tol, CHARACTER_TOL)
    classes = spectrum_classes(algebra, seed=seed, tol=ctol)
    N = len(classes)
    d = algebra.dim
    T = gelfand_matrix(classes)

    checks: list[CheckResult] = []
    checks.append(
        CheckResult(
            "spectrum_size",
            N == algebra.even_basis.shape[1],
            float(abs(N - algebra.even_basis.shape[1])),
        )
    )

    sv = np.linalg.svd(T, compute_uv=False)
    rank = _rank(sv, max(tol, 1e-12))
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    checks.append(CheckResult("surjectivity_rank", rank == 2 * N, float(2 * N - rank)))
    checks.append(
        CheckResult(
            "injectivity_conditioning",
            rank == d and np.isfinite(cond),
            0.0 if rank == d else float(d - rank),
            detail=f"condition number {cond:.6e}",
        )
    )

    r = _axiom_residuals(algebra, T[0::2], T[1::2])
    implied = [r[key] for key in ("multiplicative", "star", "unital", "alpha_equivariance")]
    closure = _implied("isometry", algebra, tol)
    r_iso = float(np.max(implied + [closure.max_residual]))
    Tinv = np.linalg.pinv(T) if rank == d else None
    r_round = 0.0 if Tinv is None else float(np.max(np.linalg.norm(Tinv @ T - np.eye(d), axis=0)))
    for name, key in (
        ("homomorphism_product", "multiplicative"),
        ("homomorphism_star", "star"),
        ("unital", "unital"),
        ("intertwines_alpha", "alpha_equivariance"),
        ("intertwines_odd_symmetry", "odd_symmetry"),
    ):
        checks.append(CheckResult(name, r[key] <= tol, r[key]))
    checks.append(CheckResult("isometry", rank == d and r_iso <= tol, r_iso))
    checks.append(
        CheckResult("round_trip", Tinv is not None and r_round <= tol, r_round)
    )

    passed = all(c.passed for c in checks)
    return SpectralReport(checks, N, classes, rank, cond, passed)


def _largest_principal_angle(K: np.ndarray, Kp: np.ndarray) -> float:
    """Largest principal angle between the spans of two orthonormal bases."""
    A, B = (K, Kp) if K.shape[1] >= Kp.shape[1] else (Kp, K)
    return float(np.arcsin(min(1.0, np.linalg.norm(B - A @ (A.conj().T @ B), 2))))


def kernel_lemma_checks(
    algebra: KreinAlgebra,
    w: Character,
    samples: int = 100,
    seed: int = 23,
    tol: float = CHARACTER_TOL,
) -> list[CheckResult]:
    """Kernel facts for a character w.

    * w(x) = 0 iff w(x^dag x) = 0, checked in both directions through the
      exact identity ||w(x)||^2 = ||w(x^dag x)|| on random samples and on
      random elements of the kernel;
    * characters with equal even parts (w and gamma.w) have equal kernels,
      compared through the largest principal angle between the kernel
      subspaces.  With A the orthonormal basis of more columns and B the
      other, its sine is ||B - A (A^H B)||_2 (Knyazev and Argentati, SIAM J.
      Sci. Comput. 23(6), 2002), which stays accurate for small angles.
    """

    def dagger_square(X: np.ndarray) -> np.ndarray:
        return algebra.mul_coords(np.conj(X) @ algebra.dagger_coord.T, X)

    def w_norm(X: np.ndarray) -> np.ndarray:
        a, b = X @ w.a_values, X @ w.b_values
        return np.maximum(np.abs(a + b), np.abs(a - b))

    rng = np.random.default_rng(seed)
    K = w.kernel_basis(tol)
    z = rng.standard_normal((samples, 2, K.shape[1]))
    X = (z[:, 0] + 1j * z[:, 1]) @ K.T
    r_forward = _worst(w_norm(dagger_square(X)), np.linalg.norm(X, axis=-1) ** 2)

    X = _random_coords(rng, samples, algebra.dim)
    lhs = w_norm(X) ** 2
    r_identity = _worst(np.abs(lhs - w_norm(dagger_square(X))), lhs)

    Kp = w.gamma_composed().kernel_basis(tol)
    same_dim = K.shape[1] == Kp.shape[1]
    r_angles = 0.0
    if K.shape[1] and Kp.shape[1]:
        r_angles = _largest_principal_angle(K, Kp)

    return [
        CheckResult("kernel_vanishing_forward", r_forward <= tol, r_forward),
        CheckResult("kernel_norm_identity", r_identity <= tol, r_identity),
        CheckResult(
            "equal_even_parts_equal_kernels",
            same_dim and r_angles <= tol,
            r_angles,
        ),
    ]
