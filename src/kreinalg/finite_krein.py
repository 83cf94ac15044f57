"""Finite-dimensional Krein C*-algebras realized inside a matrix algebra.

An instance is a linearly independent family of complex n x n matrices whose
span is closed under products and adjoints, together with a unitary
involution U implementing the fundamental symmetry alpha(x) = U x U.  The
Krein involution is x* = alpha(x^dag) with x^dag the ambient adjoint, the
norm is the ambient operator norm, and the grading splits every element into
even and odd parts (x +- alpha(x))/2.

Elements are stored as coordinate vectors against the basis; matrices are
materialized on demand.  Construction is the one ambient-to-coordinate step.
Independence is the margin sigma_min / sigma_max of the vectorized basis,
from ``eigvalsh`` of its d x d Gram matrix; the Gram matrix keeps only half
the digits, so a margin that its rounding error bound could move by more
than 1%, or that reads below 2 tol, is taken again from a QR of the basis
(``_independence``).  Construction picks d entries
(p_t, q_t) of the basis matrices by partial pivoting on the vectorized basis
(an interpolative decomposition; in exact arithmetic the rows DEIM picks on
an orthonormal frame of the span, which is never formed); the coordinates
of any span member are its pivot entries times the inverse of the d x d
block of the basis at those entries.  So the structure tensor (coordinates
of every basis product) needs only the pivot entries
(B_i B_j)[p_t, q_t] = B_i[p_t, :] B_j[:, q_t], in O(d^3 n) time, no product
is formed whole, and one inverse of the block maps all d^2 of them to
coordinates in one GEMM; ``dagger_coord`` and ``alpha_coord`` come from
the pivot entries of B_j^H and U B_j U alike.  The pivot solve fits each
image exactly on the pivots, so closure is certified off them: one seeded
random combination of the basis fills the left slot of the products, or
stands in for the basis under the adjoint and alpha, and Gaussian probe
columns V test the defects in O(d n^2 s) time for s = _PROBES (Freivalds,
1977); construction keeps that combination as the random slot of the later
Freivalds tests.  ``coords_of_matrix`` keeps a full span-membership residual.
The unit is a span member like any other: where I_n lies in the span it is
the unit, and the pivot solve of I_n gives its coordinates; otherwise (a
corner subalgebra) lstsq on u B_i = B_i gives them.  Its backward error is
taken on the full system u B_i = B_i u = B_i, in the Frobenius norm.  After
construction, an element's multiplication matrix is one GEMM against the
structure tensor (``KreinAlgebra._left_matrices``); fullness reads that of
g = sum_j y_j^dag y_j.  Every residual is relative to the sizes of the terms
it compares (``_relative``), with no floor.

The axiom checks are theorems of matrix arithmetic.  The norm axioms hold
for every matrix: ||x^dag x|| = ||x||^2, <x|x> >= 0, ||x x^dag|| =
||x^dag x||, the isometry of x -> e x for a unitary e and of an injective
*-homomorphism.  So do the algebraic ones: products of matrices associate,
(x^dag)^dag = x, and U^2 = I makes alpha = Ad U an involutive automorphism.
A check of any of them can fail only where the coordinate data
(``structure``, ``dagger_coord``, ``alpha_coord``) disagrees with the basis,
which is what the closure certificates measure; so those checks report the
certificates they follow from as construction took them, and do not
re-certify attributes rebound later.  ``_IMPLIED`` maps each such check to
its theorem and its certificates.  The Krein involution's matrix
``star_coord`` is derived from ``alpha_coord`` and ``dagger_coord``.

Instance files store complex entries as [re, im] pairs.  A matrix is
written from the float64 view of its pairs (``_pairs_view``), which orjson
spells as nested lists, so no list tree is built.  A matrix given as a JSON
list tree is read by checking the types and lengths of its rows, pairs and
leaves in C-level passes, then converting its leaves in one pass and
rejecting NaN, infinite and out-of-range numbers; only a malformed matrix
is walked row by row, to name its first offender.  The CLI decodes the
matrices of a canonical file from its bytes, and builds no tree of them.

The odd part of a commutative instance carries two Hilbert bimodule inner
products over the even part, and an optional odd generator e (e^2 = unit,
e* = -e, e odd) represents the odd symmetry x -> e x.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

__all__ = [
    "AlgebraValidationError",
    "SpanError",
    "NotOddElementError",
    "NotAnIdealError",
    "NotAlphaInvariantError",
    "InstanceFormatError",
    "CheckResult",
    "KreinAlgebra",
    "GradedElement",
    "build_function_algebra",
    "conjugate_algebra",
    "random_unitary",
    "dagger",
    "decompose",
    "inner_products",
    "check_full",
    "CommutativeSymmetricVerdict",
    "check_commutative_symmetric",
    "OddSymmetryVerdict",
    "check_odd_symmetry",
    "check_cstar_identity",
    "check_krein_identity",
    "check_decomposition",
    "check_bimodule_axioms",
    "check_imprimitivity",
    "quotient_by_ideal",
    "quotient_with_map",
    "algebra_to_instance_dict",
    "algebra_from_instance_dict",
    "function_algebra_instance",
]

DEFAULT_TOL = 1e-9
_PROBES = 4  # Gaussian probe columns of the product-closure check


class AlgebraValidationError(ValueError):
    """Construction input does not describe a valid graded matrix algebra."""


class SpanError(ValueError):
    """A matrix failed the span-membership residual test."""


class NotOddElementError(ValueError):
    """An operation restricted to the odd part received a non-odd element."""


class NotAnIdealError(ValueError):
    """The proposed subspace is not a two-sided ideal."""


class NotAlphaInvariantError(ValueError):
    """The proposed ideal is not invariant under the fundamental symmetry."""


class InstanceFormatError(ValueError):
    """A serialized instance is malformed; ``field`` names the offender."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message if not field_path else f"{field_path}: {message}")
        self.field = field_path


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    max_residual: float
    detail: str | None = None
    witness: object | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
        }
        if self.detail is not None:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _vec(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[:-2] + (-1,))


def _random_coords(rng: np.random.Generator, samples: int, k: int) -> np.ndarray:
    """Rows of standard complex Gaussian coordinates (real, then imaginary part per row)."""
    z = rng.standard_normal((samples, 2, k))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _relative(err, size) -> float:
    """The largest err / size, elementwise: every residual here and in ``spectrum``
    is an error over the summed sizes of the terms it compares, with no floor, so
    no verdict moves when the basis is scaled (README, "Residuals").  A zero error
    reads 0 and a NaN propagates; 0 for no samples."""
    err = np.asarray(err, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(err == 0, 0.0, err / size), initial=0.0))


def _rank(s: np.ndarray, tol: float) -> int:
    """Numerical rank from descending singular values: the count above tol * s[0]."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def _positive_tol(tol) -> float:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    return float(tol)


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a complex array; AlgebraValidationError naming the argument
    if an entry is NaN or infinite, which no residual test below could catch."""
    arr = np.asarray(values, dtype=complex)
    if not np.isfinite(arr).all():
        raise AlgebraValidationError(f"{name} has non-finite entries")
    return arr


def _interpolation_entries(cols: np.ndarray) -> np.ndarray:
    """One row index per column of ``cols`` (m x d, independent columns; here
    flat^T): the largest entry of that column's residual after interpolating
    it at the rows chosen so far, the rows partial pivoting picks in an LU of
    ``cols``.  With cols = F R for F an orthonormal frame of its range and R
    upper triangular, column j's residual is R_jj times that of F's column j,
    so in exact arithmetic these are the rows DEIM picks on F (Chaturantabut
    & Sorensen, SIAM J. Sci. Comput. 32(5), 2010), and the block
    cols[piv] = F[piv] R gives cond(K) <= cond(flat) cond(F[piv]) for
    K = flat[:, piv], in any coordinate frame, with F[piv] DEIM's block, well
    conditioned in practice.  F is never formed.  O(m d^2)."""
    d = cols.shape[1]
    piv = np.empty(d, dtype=np.intp)
    for j in range(d):
        c = np.linalg.solve(cols[piv[:j], :j], cols[piv[:j], j])
        piv[j] = np.argmax(np.abs(cols[:, j] - cols[:, :j] @ c))
    return piv


def _independence(flat: np.ndarray, tol: float) -> float:
    """sigma_min / sigma_max of the vectorized basis ``flat`` (d x m, m = n^2),
    from ``eigvalsh`` of its d x d Gram matrix G = flat flat^H: one O(d^2 m)
    GEMM, 2-5x faster than a Householder QR of flat^T.  Forming G commits an
    error of norm at most 4 m eps tr(G) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.5; eigvalsh's own is smaller), and by
    Weyl's inequality each sigma^2 moves by no more.  So the Gram reading is
    kept only when sigma_min^2 is at least 100 times that bound, which holds it
    within 1% of the truth, and when it is at least 2 tol; otherwise (a nearly
    dependent basis: the Gram matrix keeps only half the digits) the margin is
    taken again from the singular values of R in flat^T = QR, as it is when
    tr(G) lies outside 2^+-800, where forming G could overflow or lose digits
    to underflow.  More matrices than entries (d > m) cannot be independent
    and read 0."""
    d, m = flat.shape
    if d > m:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # such a G is not read
        gram = flat @ flat.conj().T
        trace = float(np.trace(gram).real)  # ||flat||_F^2
    if 2.0**-800 <= trace <= 2.0**800:  # False for inf and NaN too
        ev = np.linalg.eigvalsh(gram)  # ascending sigma^2
        margin = _relative(math.sqrt(max(ev[0], 0.0)), math.sqrt(ev[-1]))
        if ev[0] >= 400.0 * m * np.finfo(float).eps * trace and margin >= 2.0 * tol:
            return margin
    sv = np.linalg.svd(np.linalg.qr(flat.T, mode="r"), compute_uv=False)
    return _relative(sv[-1], sv[0])


def _certificates(algebra: "KreinAlgebra") -> tuple[float, float, float]:
    """Closure certificates (product, adjoint, alpha) of the algebra's current
    ``structure``, ``dagger_coord`` and ``alpha_coord`` against its basis.

    Gaussian probe columns V (n x _PROBES, E||M V||_F^2 = ||M||_F^2) and two
    random combinations x, y of the basis are drawn, in that order, from the
    seed of the basis bytes, so each certificate is a function of the input
    alone and no fixed probe can be aimed at; construction keeps x as
    ``algebra._slot``, the random slot of the later checks.  Each compares a
    probed image M V with the probed span member R V of its coordinates,
    relative to ||M V|| + ||R V||.  product: the worst over j, for M = X B_j
    and X = sum_i x_i B_i; the closure defects E_ij = B_i B_j -
    sum_k structure[i, j, k] B_k enter it linearly in x, so a nonzero E_ij
    survives the random slot and the probes almost surely (Freivalds, 1977).
    adjoint and alpha: M = Y^H and U Y U for Y = sum_j y_j B_j.  The pivot
    solve fits every image to zero on the pivots, so only the probes see a
    defect.  O(d n^2 _PROBES + d^2 n _PROBES): on a 2-core host, 0.4 ms for
    rotated N = 16 and 12 ms for N = 64."""
    B, U, d, n = algebra.basis, algebra.symmetry_unitary, algebra.dim, algebra.ambient_dim
    rng = np.random.default_rng(algebra._seed)
    V = _random_coords(rng, n, _PROBES) / np.sqrt(_PROBES)
    BV = B @ V  # (d, n, s)
    x, y = _random_coords(rng, 2, d)
    algebra._slot = x
    BV_cols = BV.transpose(1, 0, 2).reshape(n, d * _PROBES)  # [B_1 V ... B_d V]
    prods = (algebra.materialize(x) @ BV_cols).reshape(n, d, _PROBES).transpose(1, 0, 2).reshape(d, -1)
    Y, BV, norm = algebra.materialize(y), BV.reshape(d, -1), np.linalg.norm
    pairs = (  # probed images M V and the probed span members R V of their coordinates
        (prods, algebra._left_matrices(x) @ BV),
        ((Y.conj().T @ V).reshape(-1), algebra.dagger_coord @ np.conj(y) @ BV),
        ((U @ (Y @ (U @ V))).reshape(-1), algebra.alpha_coord @ y @ BV),
    )
    return tuple(_relative(norm(M - R, axis=-1), norm(M, axis=-1) + norm(R, axis=-1)) for M, R in pairs)


@dataclass(frozen=True, eq=False)
class GradedElement:
    """Element of a :class:`KreinAlgebra`, stored as basis coordinates."""

    algebra: "KreinAlgebra"
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex).reshape(-1)
        if c.shape != (self.algebra.dim,):
            raise ValueError(
                f"expected {self.algebra.dim} coordinates, got {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def matrix(self) -> np.ndarray:
        return self.algebra.materialize(self.coords)

    def norm(self) -> float:
        return self.algebra.op_norm(self.coords)

    @property
    def even_part(self) -> "GradedElement":
        return GradedElement(self.algebra, self.algebra.even_projection(self.coords))

    @property
    def odd_part(self) -> "GradedElement":
        return GradedElement(self.algebra, self.algebra.odd_projection(self.coords))

    def alpha(self) -> "GradedElement":
        return GradedElement(self.algebra, self.algebra.alpha_coord @ self.coords)

    def star(self) -> "GradedElement":
        # antilinear: coordinates conjugate before the basis-image matrix
        return GradedElement(self.algebra, self.algebra.star_coord @ np.conj(self.coords))

    def dagger(self) -> "GradedElement":
        return GradedElement(self.algebra, self.algebra.dagger_coord @ np.conj(self.coords))

    def _grading_gap(self, sign: int) -> float:
        """alpha(x) against sign * x, alpha(x) sized by its factors entry by entry,
        |alpha_coord| |x|, since it cancels in an ill-conditioned basis."""
        A, x, norm = self.algebra.alpha_coord, self.coords, np.linalg.norm
        return _relative(norm(A @ x - sign * x), norm(abs(A) @ abs(x)) + norm(x))

    def is_odd(self, tol: float = DEFAULT_TOL) -> bool:
        return self._grading_gap(-1) <= tol

    def is_even(self, tol: float = DEFAULT_TOL) -> bool:
        return self._grading_gap(1) <= tol

    def __add__(self, other):
        if isinstance(other, GradedElement) and other.algebra is self.algebra:
            return GradedElement(self.algebra, self.coords + other.coords)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GradedElement) and other.algebra is self.algebra:
            return GradedElement(self.algebra, self.coords - other.coords)
        return NotImplemented

    def __neg__(self):
        return GradedElement(self.algebra, -self.coords)

    def __mul__(self, other):
        if isinstance(other, GradedElement) and other.algebra is self.algebra:
            return GradedElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        if isinstance(other, (int, float, complex)):
            return GradedElement(self.algebra, other * self.coords)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GradedElement(self.algebra, other * self.coords)
        return NotImplemented


class KreinAlgebra:
    """Graded matrix algebra with fundamental symmetry alpha(x) = U x U.

    Parameters
    ----------
    basis : array_like, shape (d, n, n)
        Linearly independent matrices whose span is closed under products
        and adjoints.
    symmetry_unitary : array_like, shape (n, n)
        Unitary involution (U^2 = 1) whose conjugation preserves the span.
    odd_generator : array_like, optional
        Coordinates of a candidate odd generator e.  Its algebraic
        properties (e odd, e^2 = unit, e* = -e) are *not* enforced here;
        ``check_odd_symmetry`` reports on them, so defective generators can
        be represented and diagnosed.
    tol : float
        Relative residual bound for all construction validations.  Must be
        positive and finite.

    Construction costs O(d^3 n + d n^2 s) time for s = _PROBES, plus
    O(d^2 n^2) for the Gram matrix of the vectorized basis (and a QR of it
    when the Gram margin is too small to trust, ``_independence``), the
    choice of the pivot entries and the alpha images at them, plus the
    unit, which is always solved for, never supplied: the pivot solve of
    I_n, O(d^3 + d n^2), and its O(d^3) backward error (``_resolve_unit``).
    The closure certificates (``_certificates``) are taken once, here:
    ``validation_residuals`` keeps them as ``product_closure``,
    ``adjoint_closure`` and ``alpha_closure``, and ``_slot`` keeps their x.
    """

    def __init__(
        self,
        basis,
        symmetry_unitary,
        *,
        odd_generator=None,
        tol: float = DEFAULT_TOL,
    ):
        tol = _positive_tol(tol)
        B = _finite("basis", basis)
        if B.ndim != 3 or B.shape[0] < 1 or B.shape[1] != B.shape[2]:
            raise AlgebraValidationError(
                f"basis must have shape (d, n, n), got {B.shape}"
            )
        U = _finite("symmetry_unitary", symmetry_unitary)
        n = B.shape[1]
        if U.shape != (n, n):
            raise AlgebraValidationError(
                f"symmetry_unitary must be {n} x {n}, got {U.shape}"
            )

        self.basis = B
        self.dim = int(B.shape[0])
        self.ambient_dim = n
        self.tol = tol
        self.symmetry_unitary = U
        self.validation_residuals: dict[str, float] = {}

        d = self.dim
        flat = _vec(B)  # (d, n^2), rows are vectorized basis matrices
        self.validation_residuals["basis_independence"] = indep = _independence(flat, tol)
        if not indep > tol:
            raise AlgebraValidationError("basis is not linearly independent")
        # interpolative decomposition: d entries (p_t, q_t), the rows partial
        # pivoting of flat^T picks, fix the coordinates of any span member
        # through the d x d block K = flat[:, piv] of the basis at those entries
        self._pivots = piv = _interpolation_entries(flat.T)
        self._block = flat[:, piv].T  # coordinates c of M solve K^T c = M[p, q]

        # U^H U and U^2 against I, each sized ||U||^2 + ||I||: ||U^H U|| = ||U||^2 >= ||U^2||
        size = np.linalg.norm(U, 2) ** 2 + 1.0
        r_unitary = _relative(np.linalg.norm(U.conj().T @ U - np.eye(n), 2), size)
        self.validation_residuals["symmetry_unitarity"] = r_unitary
        if not r_unitary <= tol:
            raise AlgebraValidationError("symmetry_unitary not unitary")
        r_invol = _relative(np.linalg.norm(U @ U - np.eye(n), 2), size)
        self.validation_residuals["symmetry_involution"] = r_invol
        if not r_invol <= tol:
            raise AlgebraValidationError("symmetry_unitary is not an involution")

        # seeds the certificates: a function of the input alone
        digest = hashlib.blake2b(repr(B.shape).encode(), digest_size=8)
        digest.update(np.ascontiguousarray(B))
        self._seed = int.from_bytes(digest.digest(), "little")
        self.structure = self._pivot_structure()
        # images of the basis at the pivots: B_j^H[p, q] = conj(B_j[q, p]) and
        # (U B_j U)[p, q] = U[p, :] B_j U[:, q]; columns are image coordinates
        p, q = np.divmod(piv, n)
        self.dagger_coord = np.linalg.solve(self._block, np.conj(B[:, q, p]).T)
        self.alpha_coord = np.linalg.solve(self._block, np.einsum("jtb,bt->tj", U[p] @ B, U[:, q]))
        for key, resid, message in zip(
            ("product_closure", "adjoint_closure", "alpha_closure"),
            _certificates(self),
            (
                "basis span is not closed under multiplication",
                "basis span is not closed under adjoints",
                "symmetry does not preserve the basis span",
            ),
        ):
            self.validation_residuals[key] = resid
            if not resid <= tol:
                raise AlgebraValidationError(message)

        self.unit_coords, r_unit = self._resolve_unit()
        self.validation_residuals["unit"] = r_unit
        if not r_unit <= tol:
            raise AlgebraValidationError("algebra has no multiplicative unit in the span")

        # grading projections and orthonormal coordinate bases of the two parts.
        # alpha^2 = 1 makes each projection idempotent, and an idempotent's
        # nonzero singular values are >= 1 (in a suitable orthonormal basis
        # it is [[I, X], [0, 0]], with singular values 1 and sqrt(1 + s^2)),
        # so the 0.5 cut parts them from rounding-level zeros in any frame
        proj_even = (np.eye(d) + self.alpha_coord) / 2.0
        u_svd, s_svd, _ = np.linalg.svd(proj_even)
        self.even_basis = u_svd[:, s_svd > 0.5]
        proj_odd = (np.eye(d) - self.alpha_coord) / 2.0
        u_svd, s_svd, _ = np.linalg.svd(proj_odd)
        self.odd_basis = u_svd[:, s_svd > 0.5]
        if self.even_basis.shape[1] + self.odd_basis.shape[1] != d:
            raise AlgebraValidationError("grading projections do not split the span")

        if odd_generator is None:
            self.odd_generator_coords = None
        else:
            e = _finite("odd_generator", odd_generator).reshape(-1)
            if e.shape != (d,):
                raise AlgebraValidationError(
                    f"odd_generator needs {d} coordinates, got {e.shape}"
                )
            self.odd_generator_coords = e

    @property
    def star_coord(self) -> np.ndarray:
        """Matrix of the Krein involution x* = alpha(x^dag) on conjugated
        coordinates, A D for A = ``alpha_coord`` and D = ``dagger_coord``;
        derived on each read, so it cannot disagree with them."""
        return self.alpha_coord @ self.dagger_coord

    # -- coordinate plumbing ------------------------------------------------

    def _pivot_structure(self) -> np.ndarray:
        """Structure tensor from the pivot entries of every basis product,
        (B_i B_j)[p_t, q_t] = B_i[p_t, :] B_j[:, q_t], taken as one batched
        product over t: O(d^3 n), and no product is formed whole.  The d^2
        right-hand sides share the block K^T, so one inverse of it and one
        GEMM give their coordinates, written straight in (i, j, k) order
        (BLAS runs a solve with d^2 right-hand sides as triangular solves:
        2.0 against 0.4 ms at d = 32 and 7.7 against 0.8 ms at d = 48, the
        inverse included, medians on a 2-core Xeon).  Multiplying by the
        inverse keeps the solve's forward error, of order cond(K) eps, though
        not its backward error (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., sec. 14.1); the closure certificates test the
        tensor against the basis itself.  A method of its own so that its
        d^3 temporaries are freed before the next stage."""
        B, d = self.basis, self.dim
        p, q = np.divmod(self._pivots, self.ambient_dim)
        entries = B[:, p, :].transpose(1, 0, 2) @ B[:, :, q].transpose(2, 1, 0)  # (t, i, j)
        # ((i, j), k) = entries^T inv(K^T)^T
        return (entries.reshape(d, d * d).T @ np.linalg.inv(self._block).T).reshape(d, d, d)

    def _resolve_unit(self) -> tuple[np.ndarray, float]:
        """The unit's coordinates, solved for, and their normwise backward
        error on the full (2d^2, d) system u B_i = B_i u = B_i.

        If I_n lies in the span it is the unit, in any frame, so the solve is
        the pivot solve of I_n (``coords_of_matrix``), in O(d^3 + d n^2).
        Where I_n is not in the span (a corner subalgebra), or its coordinates
        miss tol, the unit is lstsq on the left half u B_i = B_i, a (d^2, d)
        system, in O(d^4): a left unit e of a dagger-closed algebra is its
        unit, since x e^dag = (e x^dag)^dag = x makes e = e e^dag = e^dag.
        The error's ||A|| is the Frobenius norm, sqrt(2) ||structure||_F, in
        O(d^3): Higham's bound holds for any consistent norm, and
        ||A||_F >= ||A||_2."""
        S, d = self.structure, self.dim
        # row j of F: column j of the full system's left half, so c @ F gives the
        # coordinates of every c B_i; c @ S (stacked, no copy) those of every B_i c
        F = S.reshape(d, d * d)
        rhs = np.eye(d).reshape(-1)
        norm_a = math.sqrt(2.0) * float(np.linalg.norm(S))  # A's halves rearrange S

        def backward_error(c: np.ndarray) -> float:
            # ||A x - b|| / (||A|| ||x|| + ||b||) (Higham, Accuracy and Stability of
            # Numerical Algorithms, 2nd ed., Thm 7.1): the absolute residual grows
            # like cond^2 of a change of basis, this does not
            gap = np.concatenate([c @ F - rhs, (c @ S).reshape(-1) - rhs])
            # ||b|| = sqrt(2d): b stacks vec(I_d) twice
            return _relative(np.linalg.norm(gap), norm_a * np.linalg.norm(c) + math.sqrt(2.0 * d))

        with suppress(SpanError):
            sol = self.coords_of_matrix(np.eye(self.ambient_dim))
            resid = backward_error(sol)
            if resid <= self.tol:
                return sol, resid
        sol = np.linalg.lstsq(F.T, rhs, rcond=None)[0]
        return sol, backward_error(sol)

    def materialize(self, coords) -> np.ndarray:
        """Ambient matrix of coordinates (..., d); a stack gives a stack."""
        return np.tensordot(np.asarray(coords, dtype=complex), self.basis, axes=1)

    def coords_of_matrix(self, mat, tol: float | None = None) -> np.ndarray:
        """Coordinates (..., d) of ambient matrices (..., n, n), raising SpanError
        when the worst span residual, relative to both sides, exceeds tol."""
        tol = self.tol if tol is None else tol
        vecs = _vec(np.asarray(mat, dtype=complex))
        entries = vecs[..., self._pivots].reshape(-1, self.dim)
        coords = np.linalg.solve(self._block, entries.T).T.reshape(vecs.shape[:-1] + (self.dim,))
        recon, norm = coords @ _vec(self.basis), np.linalg.norm
        resid = _relative(norm(recon - vecs, axis=-1), norm(recon, axis=-1) + norm(vecs, axis=-1))
        if not resid <= tol:
            raise SpanError(f"matrix is not in the basis span (residual {resid:.3e})")
        return coords

    def _left_matrices(self, rows) -> np.ndarray:
        """Left multiplication matrices (..., d, d) of coordinate rows c (..., d),
        [j, k] = coordinate k of c B_j: one GEMM against the structure tensor."""
        rows, d = np.asarray(rows), self.dim
        return (rows @ self.structure.reshape(d, d * d)).reshape(rows.shape[:-1] + (d, d))

    def mul_coords(self, c1, c2) -> np.ndarray:
        """Coordinates of c1 c2; stacked rows (..., d) multiply row by row:
        each row of c2 times the left multiplication matrix of its row of c1."""
        return (np.asarray(c2)[..., None, :] @ self._left_matrices(c1))[..., 0, :]

    def even_projection(self, coords) -> np.ndarray:
        return (coords + coords @ self.alpha_coord.T) / 2.0

    def odd_projection(self, coords) -> np.ndarray:
        return (coords - coords @ self.alpha_coord.T) / 2.0

    def op_norm(self, coords) -> float | np.ndarray:
        """Ambient operator norm, the largest singular value of the dense
        matrix; stacked rows give an array of norms.  A row with a NaN or
        infinite coordinate reads NaN: the SVD cannot take it."""
        c = np.asarray(coords, dtype=complex)
        rows = c.reshape(-1, self.dim)
        finite = np.isfinite(rows).all(axis=-1)
        norms = np.full(len(rows), np.nan)
        norms[finite] = np.linalg.norm(self.materialize(rows[finite]), 2, axis=(-2, -1))
        return norms.reshape(c.shape[:-1])[()]

    # -- element factories ----------------------------------------------------

    def element(self, coords) -> GradedElement:
        return GradedElement(self, coords)

    def element_from_matrix(self, mat, tol: float | None = None) -> GradedElement:
        return GradedElement(self, self.coords_of_matrix(mat, tol))

    @property
    def unit(self) -> GradedElement:
        return GradedElement(self, self.unit_coords)

    @property
    def odd_generator(self) -> GradedElement | None:
        if self.odd_generator_coords is None:
            return None
        return GradedElement(self, self.odd_generator_coords)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> GradedElement:
        return GradedElement(self, scale * _random_coords(rng, 1, self.dim)[0])

    def random_odd_element(self, rng: np.random.Generator, scale: float = 1.0) -> GradedElement:
        k = self.odd_basis.shape[1]
        if k == 0:
            raise NotOddElementError("algebra has trivial odd part")
        return GradedElement(self, scale * (self.odd_basis @ _random_coords(rng, 1, k)[0]))


def _own(algebra: KreinAlgebra, x) -> GradedElement:
    """Coerce x into an element of ``algebra``, span-checking foreign input."""
    if isinstance(x, GradedElement):
        if x.algebra is algebra:
            return x
        return algebra.element_from_matrix(x.matrix())
    return GradedElement(algebra, x)


# -- constructors -------------------------------------------------------------


def _function_algebra_arrays(points: int) -> tuple[np.ndarray, ...]:
    """C(X) (x) K over ``points`` points in closed form: the basis, the symmetry
    unitary and the odd generator's coordinates (see
    ``build_function_algebra``).  InstanceFormatError on ``points`` when numpy
    cannot allocate the dense basis."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    n = 2 * points
    try:
        basis = np.zeros((n, n, n), dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise InstanceFormatError(f"too large to build: {exc}", "points") from exc
    for p in range(points):
        basis[2 * p, 2 * p, 2 * p] = 1.0
        basis[2 * p, 2 * p + 1, 2 * p + 1] = 1.0
        basis[2 * p + 1, 2 * p, 2 * p + 1] = 1.0
        basis[2 * p + 1, 2 * p + 1, 2 * p] = 1.0
    sym = np.diag(np.tile([1.0, -1.0], points)).astype(complex)
    odd_gen = np.tile([0.0, 1.0], points).astype(complex)
    return basis, sym, odd_gen


def build_function_algebra(points: int, tol: float = DEFAULT_TOL) -> KreinAlgebra:
    """Algebra of rank-one-algebra valued functions on a finite point set.

    The ambient space is block diagonal with one 2x2 block per point.  Basis
    ordering is (even, odd) per point: the even element is the identity on
    one block, the odd one is [[0, 1], [1, 0]] on the same block.  The
    fundamental symmetry acts blockwise as conjugation by diag(1, -1) and the
    odd generator is the constant function with value [[0, 1], [1, 0]].
    """
    basis, sym, odd_gen = _function_algebra_arrays(points)
    return KreinAlgebra(basis, sym, odd_generator=odd_gen, tol=tol)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with the standard phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _conjugated(basis: np.ndarray, symmetry: np.ndarray, unitary, tol: float) -> tuple:
    """Q B Q^H for the basis stack and for the symmetry unitary, once Q passes
    ||Q^H Q - I||_2 <= tol; AlgebraValidationError otherwise."""
    Q = np.asarray(unitary, dtype=complex)
    n = symmetry.shape[0]
    if Q.shape != (n, n):
        raise AlgebraValidationError(f"conjugating unitary must be {n} x {n}")
    gap = np.linalg.norm(Q.conj().T @ Q - np.eye(n), 2)
    if not _relative(gap, np.linalg.norm(Q, 2) ** 2 + 1.0) <= tol:  # ||Q^H Q|| = ||Q||^2
        raise AlgebraValidationError("conjugating matrix is not unitary")
    return Q @ basis @ Q.conj().T, Q @ symmetry @ Q.conj().T


def conjugate_algebra(algebra: KreinAlgebra, unitary, tol: float | None = None) -> KreinAlgebra:
    """Unitarily conjugated copy; coordinates keep their meaning."""
    tol = _positive_tol(algebra.tol if tol is None else tol)
    basis, sym = _conjugated(algebra.basis, algebra.symmetry_unitary, unitary, tol)
    return KreinAlgebra(basis, sym, odd_generator=algebra.odd_generator_coords, tol=tol)


# -- graded structure ops ------------------------------------------------------


def dagger(algebra: KreinAlgebra, x) -> GradedElement:
    """Associated C*-involution alpha(x)* = ambient adjoint of x."""
    return _own(algebra, x).dagger()


def decompose(algebra: KreinAlgebra, x) -> tuple[GradedElement, GradedElement]:
    """Split x into its even and odd parts (x +- alpha(x))/2."""
    el = _own(algebra, x)
    return el.even_part, el.odd_part


def inner_products(algebra: KreinAlgebra, x, y, tol: float | None = None) -> tuple[GradedElement, GradedElement]:
    """Left and right even-valued inner products of two odd elements.

    left  = x y^dag,  right = x^dag y.  Raises NotOddElementError unless
    both arguments lie in the odd part within tolerance.
    """
    tol = algebra.tol if tol is None else tol
    ex, ey = _own(algebra, x), _own(algebra, y)
    for name, el in (("x", ex), ("y", ey)):
        if not el.is_odd(tol):
            raise NotOddElementError(f"{name} is not in the odd part")
    left = ex * ey.dagger()
    right = ex.dagger() * ey
    return left, right


def _fullness_margin(algebra: KreinAlgebra) -> float:
    """sigma_min / sigma_max of x -> g x on the even part, for g = sum_j y_j^dag y_j
    over the odd coordinate basis {y_j}.  span{x^dag y : x, y odd} is an ideal
    p A_+ of the even part, p a central projection, and g = p g; so the odd
    part is full exactly when g is invertible, and the margin is 0 when it is
    not (Raeburn & Williams, Morita Equivalence and Continuous-Trace
    C*-Algebras, AMS 1998, ch. 2).  O(d^3): no pair product is formed."""
    ob, d = algebra.odd_basis, algebra.dim
    G = (algebra.dagger_coord @ np.conj(ob)) @ ob.T  # sum_j dagger(y_j) y_j^T
    g = G.reshape(d * d) @ algebra.structure.reshape(d * d, d)  # sum_il G[i, l] S[i, l, :]
    s = np.linalg.svd(algebra._left_matrices(g).T @ algebra.even_basis, compute_uv=False)
    return _relative(s[-1], s[0])


def check_full(algebra: KreinAlgebra, tol: float = DEFAULT_TOL) -> bool:
    """Whether span{x^dag y : x, y odd} is all of the even part: ``_fullness_margin`` > tol."""
    return _fullness_margin(algebra) > tol


@dataclass(frozen=True)
class CommutativeSymmetricVerdict:
    """Joint verdict on both conditions, which are equivalent (see
    ``check_commutative_symmetric``): one flag and the one relative residual it reads."""

    commutative: bool
    commutator_residual: float


def check_commutative_symmetric(
    algebra: KreinAlgebra, tol: float = DEFAULT_TOL
) -> CommutativeSymmetricVerdict:
    """Commutativity as x B_j = B_j x for every basis element B_j, x the random
    slot construction kept (``_certificates``): the commutator is linear in x,
    so a noncommuting pair survives it almost surely (Freivalds, 1977).
    ``commutative`` is whether the residual ||L - R||_F / (||L||_F + ||R||_F),
    L[j] and R[j] the coordinates of x B_j and B_j x, meets tol, in O(d^2)
    memory.  The same flag is the verdict on a commutative even part plus a
    symmetric odd bimodule (a x = x a, x y^dag = y^dag x for even a, odd x, y):
    y -> y^dag maps the odd part onto itself, so those commutators are S - S^T
    in a graded basis, S the structure tensor, and no second flag or residual
    is kept."""
    left, right = algebra._left_matrices(algebra._slot), algebra._slot @ algebra.structure
    comm = _relative(np.linalg.norm(left - right), np.linalg.norm(left) + np.linalg.norm(right))
    return CommutativeSymmetricVerdict(comm <= tol, comm)


@dataclass(frozen=True)
class OddSymmetryVerdict:
    """Verdict on the supplied odd generator.

    ``exists`` is None when no generator was supplied: whether one exists is
    then unknown, no search is attempted.
    """

    exists: bool | None
    isometric: bool | None
    max_residual: float
    failures: tuple[str, ...] = ()

    @property
    def absent(self) -> bool:
        return self.exists is None


def check_odd_symmetry(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> OddSymmetryVerdict:
    """Verify the supplied odd generator and the isometry of x -> e x.

    Checks alpha(e) = -e, e^2 = unit and e* = -e, relative to the sizes of the
    terms.  alpha(e), e^2 and e* cancel in an ill-conditioned basis, so they are
    sized by their factors entry by entry (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.5).  With e odd, e* = alpha(e^dag) =
    -e gives e^dag = e, so e^2 = 1 makes e unitary and ||e x|| = ||x|| holds
    wherever the coordinates agree with the basis, as does alpha(e x) =
    -e alpha(x), which is therefore not tested: ``isometric`` is the three
    tests passing and the ``odd_symmetry`` row of ``_IMPLIED`` within tol, and
    ``max_residual`` covers all six.  With no generator supplied the verdict
    reports existence as unknown.
    """
    e = algebra.odd_generator_coords
    if e is None:
        return OddSymmetryVerdict(None, None, 0.0, ("odd generator absent",))
    norm, u, absolute = np.linalg.norm, algebra.unit_coords, np.abs(e)
    star_matrix = algebra.star_coord  # a GEMM on each read: read once
    square, star = algebra._left_matrices(e).T @ e, star_matrix @ np.conj(e)
    square_size = norm(absolute @ np.tensordot(absolute, np.abs(algebra.structure), 1))
    star_size = norm(np.abs(star_matrix) @ absolute)
    # (residual, failure message); a NaN residual fails like a large one
    tests = [
        (algebra.odd_generator._grading_gap(-1), "generator is not odd"),
        (_relative(norm(square - u), square_size + norm(u)), "generator squared is not the unit"),
        (_relative(norm(star + e), star_size + norm(e)), "generator is not Krein anti-selfadjoint"),
    ]
    failures = tuple(message for r, message in tests if not r <= tol)

    closure = _implied("odd_symmetry", algebra, tol)
    resid = float(np.max([r for r, _ in tests] + [closure.max_residual]))
    isometric = not failures and closure.passed

    return OddSymmetryVerdict(not failures, isometric, resid, failures)


# -- checks that matrix arithmetic guarantees ------------------------------------

# check -> (the theorem of matrix arithmetic it reads, the closure certificates
# it follows from).  The theorem can fail only where the coordinate data
# disagrees with the basis, so the check reports the largest of those
# certificates.  The rows before ``odd_symmetry`` are verify's; the last two
# are the ``isometric`` flag of ``check_odd_symmetry`` and
# ``verify_spectral_theorem``'s ``isometry``.  README lists the same table.
_CLOSURES = ("product", "adjoint", "alpha")
_IMPLIED = {
    "cstar_identity": ("||x^dag x|| = ||x||^2", ("product", "adjoint")),
    "krein_identity": ("with A^2 = I, alpha(x*) = x^dag: the C*-identity", _CLOSURES),
    "decomposition": ("alpha(x_+-) -+ x_+- = +-(A^2 - I) x / 2, and A^2 = Ad U^2 = id", ("alpha",)),
    "bimodule_associativity": ("(a x) b = a (x b)", ("product",)),
    "bimodule_inner_compat": (
        "x^dag (a y) = (a^dag x)^dag y and (x b) y^dag = x (y b^dag)^dag", ("product", "adjoint")
    ),
    "bimodule_even_valued": ("x y^dag and x^dag y are even: alpha is a *-automorphism", _CLOSURES),
    "bimodule_positivity": ("<x|x> = x^dag x >= 0", ("product", "adjoint")),
    "bimodule_norms_coincide": ("||x x^dag|| = ||x^dag x||", ("product", "adjoint")),
    "imprimitivity": ("(x y^dag) z = x (y^dag z)", ("product", "adjoint")),
    "odd_symmetry": ("||e x|| = ||x|| for unitary e; alpha(e x) = -e alpha(x) for odd e", _CLOSURES),
    "isometry": ("an injective *-homomorphism is isometric", _CLOSURES),
}
_VERIFY_ROWS = tuple(_IMPLIED)[:-2]


def _implied(name: str, algebra: KreinAlgebra, tol: float) -> CheckResult:
    """The check ``name`` of ``_IMPLIED``: the largest of its certificates."""
    worst = max(algebra.validation_residuals[f"{c}_closure"] for c in _IMPLIED[name][1])
    return CheckResult(name, worst <= tol, worst)


def _implied_rows(algebra: KreinAlgebra, tol: float):
    """Yield verify's rows of ``_IMPLIED``, in order.  With a trivial odd (or
    even) part one ``bimodule_trivial`` row stands for the five bimodule rows,
    and with a trivial odd part ``imprimitivity`` holds vacuously."""
    odd, even = algebra.odd_basis.shape[1], algebra.even_basis.shape[1]
    for name in _VERIFY_ROWS:
        if name.startswith("bimodule_") and not (odd and even):
            if name == "bimodule_associativity":  # the first bimodule row
                yield CheckResult("bimodule_trivial", True, 0.0, detail="odd part trivial")
        elif name == "imprimitivity" and not odd:
            yield CheckResult(name, True, 0.0, detail="odd part trivial")
        else:
            yield _implied(name, algebra, tol)


def check_cstar_identity(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> CheckResult:
    """The ``cstar_identity`` row of ``_IMPLIED``."""
    return _implied("cstar_identity", algebra, tol)


def check_krein_identity(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> CheckResult:
    """The ``krein_identity`` row of ``_IMPLIED``."""
    return _implied("krein_identity", algebra, tol)


def check_decomposition(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> CheckResult:
    """The ``decomposition`` row of ``_IMPLIED``."""
    return _implied("decomposition", algebra, tol)


def check_bimodule_axioms(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The ``bimodule_*`` rows of ``_IMPLIED``, as ``_implied_rows`` yields them."""
    return [r for r in _implied_rows(algebra, tol) if r.name.startswith("bimodule_")]


def check_imprimitivity(algebra: KreinAlgebra, *, tol: float = DEFAULT_TOL) -> CheckResult:
    """The ``imprimitivity`` row of ``_IMPLIED``, as ``_implied_rows`` yields it."""
    return next(r for r in _implied_rows(algebra, tol) if r.name == "imprimitivity")


def _verify_rows(algebra: KreinAlgebra, tol: float) -> list[CheckResult]:
    """The rows of ``verify``, in order: ``construction``, the largest
    validation residual but ``basis_independence``; the rows of
    ``_implied_rows``; ``fullness``, the ``_fullness_margin``, which is worse
    when smaller and so passes above tol; ``commutative_symmetric``, which is
    informational and passes whatever its one flag reads; and
    ``odd_symmetry``, which passes when the generator is absent, since its
    existence is then unknown, and otherwise when it is ``isometric``."""
    construction = max(
        v for k, v in algebra.validation_residuals.items() if k != "basis_independence"
    )
    margin = _fullness_margin(algebra)
    cs = check_commutative_symmetric(algebra, tol)
    ov = check_odd_symmetry(algebra, tol=tol)
    odd_detail = "odd generator absent; existence unknown" if ov.absent else "; ".join(ov.failures)
    return [
        CheckResult("construction", construction <= tol, construction),
        *_implied_rows(algebra, tol),
        CheckResult("fullness", margin > tol, margin, f"even dim {algebra.even_basis.shape[1]}"),
        CheckResult("commutative_symmetric", True, cs.commutator_residual, f"commutative={cs.commutative}"),
        CheckResult("odd_symmetry", bool(ov.absent or ov.isometric), ov.max_residual, odd_detail or None),
    ]


# -- quotients -----------------------------------------------------------------


def quotient_with_map(
    algebra: KreinAlgebra, ideal_basis: Sequence, tol: float | None = None
) -> tuple[KreinAlgebra, np.ndarray]:
    """Quotient by an alpha-invariant two-sided ideal, plus the coordinate map.

    The quotient is represented faithfully by compressing to the orthogonal
    complement of the ideal's joint range; for a self-adjoint ideal of a
    matrix C*-algebra the compression kernel is exactly the ideal, so the
    compression norm is the quotient C*-norm.  Returns the quotient algebra
    and the (new_dim x old_dim) matrix taking old coordinates to quotient
    coordinates.
    """
    tol = algebra.tol if tol is None else tol
    d, n = algebra.dim, algebra.ambient_dim
    rows = [np.asarray(_own(algebra, x).coords, dtype=complex) for x in ideal_basis]
    _, s, vh = np.linalg.svd(np.reshape(rows, (-1, d)), full_matrices=True)
    k = _rank(s, tol)
    # orthonormal rows spanning the ideal coords (k, d) and their complement (d - k, d)
    ortho, comp = vh[:k], vh[k:]

    def outside(vectors: np.ndarray, sizes=None) -> float:
        # coordinate vectors off the ideal coordinate span, relative to their sizes
        gap = np.linalg.norm(vectors - (vectors @ ortho.conj().T) @ ortho, axis=-1)
        return _relative(gap, np.linalg.norm(vectors, axis=-1) if sizes is None else sizes)

    if k:
        # ideal_r B_j and B_i ideal_r may vanish: sized ||ideal_r|| = 1 times a structure slice
        S, norm = algebra.structure, np.linalg.norm
        left = outside(algebra._left_matrices(ortho), norm(S, axis=(0, 2)))  # [r, j, :]
        r_ideal = max(left, outside(ortho @ S, norm(S, axis=(1, 2))[:, None]))  # [i, r, :]
        if not r_ideal <= tol:
            raise NotAnIdealError(
                f"subspace is not a two-sided ideal (residual {r_ideal:.3e})"
            )
        r_alpha = outside((algebra.alpha_coord @ ortho.T).T)
        if not r_alpha <= tol:
            raise NotAlphaInvariantError(
                f"ideal is not alpha-invariant (residual {r_alpha:.3e})"
            )
        r_star = outside((algebra.dagger_coord @ np.conj(ortho).T).T)
        if not r_star <= tol:
            raise NotAnIdealError(
                f"ideal is not closed under the adjoint (residual {r_star:.3e})"
            )
        if outside(algebra.unit_coords[None, :]) <= tol:
            raise NotAnIdealError("ideal contains the unit; quotient would be trivial")

    ideal_mats = algebra.materialize(ortho)  # (k, n, n)
    u_full, s_full, _ = np.linalg.svd(
        ideal_mats.transpose(1, 0, 2).reshape(n, k * n), full_matrices=True
    )
    rank_v = _rank(s_full, tol)
    W = u_full[:, rank_v:]  # orthonormal basis of the complement of the ideal range
    if W.shape[1] == 0:
        raise NotAnIdealError("ideal range covers the whole space; quotient would be trivial")

    compressed = W.conj().T @ algebra.basis @ W  # (d, m, m)
    new_basis = np.einsum("ci,ipq->cpq", comp, compressed)
    new_sym = W.conj().T @ algebra.symmetry_unitary @ W
    quot = KreinAlgebra(new_basis, new_sym, tol=tol)

    # coordinate map: old basis vector i -> coords of W^dag B_i W in the new basis.
    # [ortho; comp] is unitary and the compression kills the ideal, so
    # W^dag B_i W = sum_c conj(comp[c, i]) new_basis[c]
    cmap = comp.conj()
    if algebra.odd_generator_coords is not None:
        # the map is linear, so it carries the generator's coordinates along
        quot.odd_generator_coords = cmap @ algebra.odd_generator_coords
    return quot, cmap


def quotient_by_ideal(
    algebra: KreinAlgebra, ideal_basis: Sequence, tol: float | None = None
) -> KreinAlgebra:
    """Quotient Krein algebra by an alpha-invariant two-sided ideal."""
    quot, _ = quotient_with_map(algebra, ideal_basis, tol)
    return quot


# -- serialization -------------------------------------------------------------


def _pairs_view(M) -> np.ndarray:
    """The [re, im] pairs of a complex array as float64, shape M.shape + (2,):
    a view of M itself when M is C-contiguous complex.  orjson writes it
    natively, as the lists of ``_pairs_to_json``."""
    M = np.asarray(M)
    return np.ascontiguousarray(M, dtype=complex).view(float).reshape(M.shape + (2,))


def _pairs_to_json(M) -> list:
    """Nested [re, im] lists of a complex array, one pair per entry."""
    return _pairs_view(M).tolist()


_PAIR_MESSAGE = "expected a [re, im] pair of numbers"


def _all_pairs(pairs: list) -> bool:
    """Whether every entry is a [re, im] pair of numbers.

    C-level passes over the entries and their leaves collect the distinct
    types, which are then checked once each.  The type check stays explicit
    because numpy would also read "1.0", True and None as floats.
    """
    return (
        all(issubclass(t, (list, tuple)) for t in set(map(type, pairs)))
        and set(map(len, pairs)) <= {2}
        and all(
            issubclass(t, (int, float)) and not issubclass(t, bool)
            for t in set(map(type, chain.from_iterable(pairs)))
        )
    )


def _pairs_from_json(pairs: list, shape: tuple, field_path: str) -> np.ndarray:
    """Complex array of the given shape from checked [re, im] pairs, listed in
    reading order, converted in one pass over the leaves; the first pair
    holding a NaN, an infinity or an integer beyond the float range (Python's
    json reads all three) is named in an InstanceFormatError."""
    with suppress(OverflowError):
        arr = np.fromiter(chain.from_iterable(pairs), dtype=float, count=2 * len(pairs))
        if np.isfinite(arr).all():
            return arr.view(complex).reshape(shape)
    for i, pair in enumerate(pairs):
        try:
            finite = all(map(math.isfinite, pair))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            path = field_path + "".join(f"[{j}]" for j in np.unravel_index(i, shape))
            raise InstanceFormatError("expected a [re, im] pair of finite numbers", path)


def _first_bad_pair(pairs: list) -> int:
    return next(i for i, v in enumerate(pairs) if not _all_pairs([v]))


def _matrix_from_json(rows, field_path: str) -> np.ndarray:
    """Complex matrix of a list of equal-length rows of [re, im] pairs.  The
    rows and pairs of the whole matrix are checked in C-level passes; only a
    malformed matrix is walked row by row, to name its first offender."""
    if not isinstance(rows, list) or not rows:
        raise InstanceFormatError("expected a non-empty list of rows", field_path)
    m = len(rows[0]) if isinstance(rows[0], list) else 0
    pairs = None
    if all(issubclass(t, list) for t in set(map(type, rows))) and set(map(len, rows)) == {m}:
        pairs = list(chain.from_iterable(rows))
    if pairs is None or not _all_pairs(pairs):
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != m:
                raise InstanceFormatError("rows must all have equal length", f"{field_path}[{i}]")
            if not _all_pairs(row):
                raise InstanceFormatError(_PAIR_MESSAGE, f"{field_path}[{i}][{_first_bad_pair(row)}]")
    return _pairs_from_json(pairs, (len(rows), m), field_path)


def _coords_from_json(vals, field_path: str) -> np.ndarray:
    if not isinstance(vals, list) or not vals:
        raise InstanceFormatError("expected a non-empty coordinate list", field_path)
    if not _all_pairs(vals):
        raise InstanceFormatError(_PAIR_MESSAGE, f"{field_path}[{_first_bad_pair(vals)}]")
    return _pairs_from_json(vals, (len(vals),), field_path)


def function_algebra_instance(points: int) -> dict:
    return {"kind": "function_algebra", "points": int(points)}


def _matrix_instance(basis, symmetry_unitary, odd_generator, leaf=_pairs_view) -> dict:
    """The matrix_algebra instance of these complex arrays, each basis matrix,
    the unitary and the generator's coordinates passed through ``leaf``."""
    return {
        "kind": "matrix_algebra",
        "ambient_dim": len(symmetry_unitary),
        "basis": [leaf(m) for m in basis],
        "symmetry_unitary": leaf(symmetry_unitary),
        "odd_generator": None if odd_generator is None else leaf(np.reshape(odd_generator, -1)),
    }


def algebra_to_instance_dict(algebra: KreinAlgebra) -> dict:
    return _matrix_instance(
        algebra.basis, algebra.symmetry_unitary, algebra.odd_generator_coords, _pairs_to_json
    )


def algebra_from_instance_dict(data, tol: float = DEFAULT_TOL) -> KreinAlgebra:
    """Build an algebra from its JSON form; InstanceFormatError on bad input,
    AlgebraValidationError when the data is well-formed but not an algebra.
    A matrix_algebra's basis is a list of matrices, or one (d, n, n) complex
    array already decoded, and its symmetry_unitary a matrix, or one (n, n)
    complex array already decoded, as the CLI reads both from a canonical
    file."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object", "")
    kind = data.get("kind")
    if kind == "function_algebra":
        points = data.get("points")
        if not isinstance(points, int) or isinstance(points, bool) or points < 1:
            raise InstanceFormatError("points must be a positive integer", "points")
        return build_function_algebra(points, tol=tol)
    if kind == "matrix_algebra":
        for key in ("ambient_dim", "basis", "symmetry_unitary"):
            if key not in data:
                raise InstanceFormatError("required field missing", key)
        n = data["ambient_dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InstanceFormatError("ambient_dim must be a positive integer", "ambient_dim")
        basis = data["basis"]
        if not isinstance(basis, np.ndarray):
            if not isinstance(basis, list) or not basis:
                raise InstanceFormatError("expected a non-empty list of matrices", "basis")
            mats = []
            for i, rows in enumerate(basis):
                M = _matrix_from_json(rows, f"basis[{i}]")
                if M.shape != (n, n):
                    raise InstanceFormatError(
                        f"matrix must be {n} x {n}, got {M.shape}", f"basis[{i}]"
                    )
                mats.append(M)
            basis = np.array(mats)
        U = data["symmetry_unitary"]
        if not isinstance(U, np.ndarray):
            U = _matrix_from_json(U, "symmetry_unitary")
        if U.shape != (n, n):
            raise InstanceFormatError(
                f"matrix must be {n} x {n}, got {U.shape}", "symmetry_unitary"
            )
        e = data.get("odd_generator")
        e_coords = None if e is None else _coords_from_json(e, "odd_generator")
        if e_coords is not None and e_coords.shape != (len(basis),):
            raise InstanceFormatError(
                f"needs {len(basis)} coordinates, got {e_coords.shape[0]}", "odd_generator"
            )
        return KreinAlgebra(basis, U, odd_generator=e_coords, tol=tol)
    raise InstanceFormatError(
        "kind must be 'function_algebra' or 'matrix_algebra'", "kind"
    )
