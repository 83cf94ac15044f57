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
through one random slot, the rest as linear identities), each relative to
the sizes of its terms, and samples no ambient norm: an injective
*-homomorphism between C*-algebras is isometric, so with the axioms and the
rank reported as rows of their own, the isometry row reads only the closure
certificates construction took.

Even characters are read off one multiplication matrix: the even part is a
copy of C^m, so left multiplication by a generic even element is
diagonalizable with the minimal projections as eigenvectors, and the
characters are the dual basis.  The finder certifies nothing: the
character axioms are ``verify_spectral_theorem``'s rows, in the random slot
construction kept, and its hypotheses, commutativity among them, are
``verify``'s rows, computed once (``finite_krein._hypothesis_rows``).
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
    _hypothesis_rows,
    _implied,
    _pairs_to_json,
    _random_coords,
    _rank,
    _relative,
    check_commutative_symmetric,
)

__all__ = [
    "NotCommutativeError",
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
# the character finder's one combination: every entry point finds the same characters
_FINDER_SEED = 42


class NotCommutativeError(ValueError):
    """Characters are only computed for commutative algebras."""


class MissingOddGeneratorError(ValueError):
    """Extending an even character needs the algebra's odd generator."""


class SpectralHypothesisError(RuntimeError):
    """A spectral-theorem hypothesis failed; ``hypothesis`` names it, ``check`` is its row."""

    def __init__(self, message: str, hypothesis: str, check: CheckResult):
        super().__init__(message)
        self.hypothesis, self.check = hypothesis, check


@dataclass(frozen=True, eq=False)
class EvenCharacter:
    """C*-character of the even part, stored on the even coordinate basis."""

    algebra: KreinAlgebra
    values: np.ndarray  # value on column j of algebra.even_basis

    def eval_coords(self, coords) -> complex:
        """Value on an element of the even part, given full coordinates."""
        c = self.algebra.even_basis.conj().T @ np.asarray(coords, dtype=complex)
        return complex(self.values @ c)


def even_characters(algebra: KreinAlgebra, *, tol: float = CHARACTER_TOL) -> list[EvenCharacter]:
    """All characters of the even part of a commutative algebra, one per
    minimal projection.

    Raises NotCommutativeError unless ``check_commutative_symmetric`` passes
    at ``tol``.  Left multiplication by one real combination x of the even
    basis, drawn from the fixed ``_FINDER_SEED``, restricted to the even part,
    is diagonalized: its eigenvectors are the minimal projections, and the
    rows of the inverse eigenvector matrix, scaled to read 1 on the unit, are
    the characters.  They are not tested here: a combination that does not
    separate them, or a structure tensor that is not multiplicative, gives
    rows that are not characters, which ``character_residuals`` reads (as
    ``verify_spectral_theorem``'s rows do).  The result depends on the
    algebra alone.  It is sorted lexicographically by the values on the
    algebra's basis, rounded to 9 decimals, and its length always equals the
    even dimension.  O(d^3): one multiplication matrix.
    """
    verdict = check_commutative_symmetric(algebra, tol)
    if not verdict.commutative:
        raise NotCommutativeError(
            f"algebra is not commutative (residual {verdict.commutator_residual:.3e})"
        )
    return [EvenCharacter(algebra, w) for w in _character_values(algebra)]


def _character_values(algebra: KreinAlgebra) -> np.ndarray:
    """``even_characters`` past its guard: row c is character c on the even basis."""
    eb = algebra.even_basis
    x = eb @ np.random.default_rng(_FINDER_SEED).standard_normal(eb.shape[1])
    # [a, j]: coordinate a of x e_j on the even part
    W = np.linalg.inv(np.linalg.eig(eb.conj().T @ (algebra._left_matrices(x).T @ eb))[1])
    W = W / (W @ (eb.conj().T @ algebra.unit_coords))[:, None]
    # keyed on the values on the algebra's own basis: even_basis is an
    # arbitrary orthonormal basis of a degenerate singular subspace, so W may
    # change under roundoff where these do not.  Row c of keys is (re, im) of
    # each value in turn; lexsort's primary key is last
    keys = np.round(W @ eb.conj().T, 9).view(float)
    return W[np.lexsort(keys.T[::-1])]


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
    eps = algebra._left_matrices(algebra.odd_generator_coords).T  # column j: e B_j
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

    ``multiplicative`` is a certificate: with x the random slot construction
    kept (``KreinAlgebra._slot``), a complex Gaussian combination of the
    basis, it is the worst ||w(x B_j) - w(x) w(B_j)||, with products taken
    in the rank-one algebra.  The identity is linear in x, so a defect on any
    basis pair survives the slot almost surely (Freivalds, 1977); O(N d^2)
    time after the O(d^3) left multiplication matrix of x.  The others are
    linear on the basis: w(B_j^*) = w(B_j)^*, w(1) = 1,
    w(alpha B_j) = gamma w(B_j) (which also makes b vanish on the even part
    and a on the odd part, once alpha^2 = id), and, when the algebra has an
    odd generator e, w(e B_j) = epsilon w(B_j) (``odd_symmetry``).  Each is
    worst over characters and basis elements, relative to the sizes of its
    terms; w(c) may vanish, so it is sized by its factors ||w|| ||c||.  w(1)
    is a sum that cancels in an ill-conditioned frame, so it is sized entry by
    entry, ||(|A| |u|, |B| |u|)|| for u the unit's coordinates, as alpha(x)
    is sized by |alpha_coord| |x|.
    """
    norm, x = np.linalg.norm, algebra._slot
    sizes = np.hypot(norm(A, axis=1), norm(B, axis=1))[:, None]  # ||w|| of every character

    def linear(M: np.ndarray, a, b, rhs_size=sizes) -> float:
        # w(M_j) against (a, b)_j for every character w and every column M_j of M
        err = np.hypot(abs(A @ M - a), abs(B @ M - b))
        return _relative(err, sizes * norm(M, axis=0) + rhs_size)

    xa, xb = (A @ x)[:, None], (B @ x)[:, None]
    u = algebra.unit_coords
    wu = np.stack([A, B]) @ u  # rows: a- and b-values of w(1)
    wu_size = norm(np.stack([abs(A), abs(B)]) @ abs(u), axis=0)  # ||(|A| |u|, |B| |u|)||
    xB = algebra._left_matrices(x).T  # column j: coordinates of x B_j
    out = {
        "multiplicative": linear(xB, xa * A + xb * B, xa * B + xb * A, sizes * np.hypot(abs(xa), abs(xb))),
        "unital": _relative(norm(wu - [[1.0], [0.0]], axis=0), wu_size + 1.0),
        "star": linear(algebra.star_coord, A.conj(), -B.conj()),
        "alpha_equivariance": linear(algebra.alpha_coord, A, -B),
    }
    if algebra.odd_generator_coords is not None:
        out["odd_symmetry"] = linear(algebra._left_matrices(algebra.odd_generator_coords).T, B, A)
    return out


def character_residuals(w: Character) -> dict[str, float]:
    """Named residuals of the character axioms (see ``_axiom_residuals``),
    each relative to the sizes of the terms it compares."""
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


def spectrum_classes(algebra: KreinAlgebra, *, tol: float = CHARACTER_TOL) -> list[SpectrumClass]:
    """All character classes, ordered by the even-part value tuples; every
    even character is extended by one product (see ``extend_character``).
    Nothing tests that they are characters: read ``character_residuals``."""
    return _classes(algebra, np.array([om.values for om in even_characters(algebra, tol=tol)]))


def _classes(algebra: KreinAlgebra, values: np.ndarray) -> list[SpectrumClass]:
    """The classes of the even characters whose values on the even basis are the rows of ``values``."""
    reps = [Character(algebra, a, b) for a, b in zip(*_extend(algebra, values))]
    return [SpectrumClass(even_rep=w, partner=w.gamma_composed()) for w in reps]


def gelfand_matrix(classes: list[SpectrumClass]) -> np.ndarray:
    """Transform as a matrix into function-algebra coordinates.

    Row 2c is the even-value functional of class c, row 2c+1 the odd-value
    functional, matching the (even, odd) per-point basis ordering of
    ``build_function_algebra``.
    """
    return np.array([v for cls in classes for v in (cls.even_rep.a_values, cls.even_rep.b_values)])


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
        members.append((even_kernel.T @ algebra._left_matrices(ob.T)).reshape(-1, algebra.dim))
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
            # a class's partner is its even representative with b negated
            "characters": [{"even": cls.even_rep.to_json_list()} for cls in self.classes],
        }


def verify_spectral_theorem(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> SpectralReport:
    """Check that the Gelfand transform is an isometric *-isomorphism.

    The hypotheses are the rows of ``_hypothesis_rows`` at max(tol,
    algebra.tol), listed first: commutative (its residual within that tol),
    full, and odd symmetry (a generator present and its row passing; its
    ``isometric`` adds only closure certificates construction held within
    algebra.tol).  The first that fails raises SpectralHypothesisError, with
    its row; else the finder runs past its guard.  Then checks each fact
    once, with T the transform matrix: injectivity through its rank
    (``injectivity_conditioning``, residual d - rank, passing at 0; under
    the hypotheses d = 2N, so rank d is also surjectivity); on the basis,
    the character axioms of its rows through ``_axiom_residuals`` (the
    homomorphism property as a random-slot certificate; the star property,
    unitality and the intertwining of both symmetries as linear
    identities); ``isometry``, the ``isometry`` row of
    ``finite_krein._IMPLIED``, since an injective *-homomorphism between
    C*-algebras is isometric and the rows before it are that premise; and
    the round trip max_j ||(T^+ T - I) e_j|| / (||T^+ T e_j|| + 1), which
    reads about 1 when T has a kernel.  Every other row passes exactly when
    its residual is within tol, and the report passes when every row does.
    ``spectrum_size`` is the number of classes, which is the even dimension
    by construction.
    """
    htol = max(tol, algebra.tol)
    full, cs, odd = hypotheses = _hypothesis_rows(algebra, htol)
    for row, holds, name, message in (
        (cs, cs.max_residual <= htol, "commutative", "algebra is not commutative with symmetric odd bimodule"),
        (full, full.passed, "full", "odd part not full"),
        (odd, odd.passed and algebra.odd_generator_coords is not None, "odd symmetry",
         "no valid odd symmetry (odd generator absent or defective)"),
    ):
        if not holds:
            raise SpectralHypothesisError(message, name, row)

    classes = _classes(algebra, _character_values(algebra))
    d = algebra.dim
    T = gelfand_matrix(classes)

    sv = np.linalg.svd(T, compute_uv=False)
    rank = _rank(sv, max(tol, 1e-12))
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    checks = [
        *hypotheses,
        CheckResult(
            "injectivity_conditioning",
            rank == d,
            float(d - rank),
            detail=f"condition number {cond:.6e}",
        )
    ]
    r = _axiom_residuals(algebra, T[0::2], T[1::2])
    for name, key in (
        ("homomorphism_product", "multiplicative"),
        ("homomorphism_star", "star"),
        ("unital", "unital"),
        ("intertwines_alpha", "alpha_equivariance"),
        ("intertwines_odd_symmetry", "odd_symmetry"),
    ):
        checks.append(CheckResult(name, r[key] <= tol, r[key]))
    checks.append(_implied("isometry", algebra, tol))
    TT = np.linalg.pinv(T) @ T
    r_round = _relative(np.linalg.norm(TT - np.eye(d), axis=0), np.linalg.norm(TT, axis=0) + 1.0)
    checks.append(CheckResult("round_trip", r_round <= tol, r_round))

    passed = all(c.passed for c in checks)
    return SpectralReport(checks, len(classes), classes, rank, cond, passed)


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
    XX = dagger_square(X)  # w(x^dag x) vanishes on the kernel: sized ||w|| ||x^dag x||
    size = np.linalg.norm(w.functional_matrix()) * np.linalg.norm(XX, axis=-1)
    r_forward = _relative(w_norm(XX), size)

    X = _random_coords(rng, samples, algebra.dim)
    lhs, rhs = w_norm(X) ** 2, w_norm(dagger_square(X))
    r_identity = _relative(np.abs(lhs - rhs), lhs + rhs)

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
