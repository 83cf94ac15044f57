"""Finite-dimensional Krein C*-algebras realized inside a matrix algebra.

An instance is a linearly independent family of complex n x n matrices whose
span is closed under products and adjoints, together with a unitary
involution U implementing the fundamental symmetry alpha(x) = U x U.  The
Krein involution is x* = alpha(x^dag) with x^dag the ambient adjoint, the
norm is the ambient operator norm, and the grading splits every element into
even and odd parts (x +- alpha(x))/2.

Elements are stored as coordinate vectors against the basis; matrices are
materialized on demand.  Construction is the one ambient-to-coordinate step.
It picks d entries (p_t, q_t) of the basis matrices greedily on an
orthonormal frame of the span (an interpolative decomposition); the
coordinates of any span member are its pivot entries times the inverse of
the d x d block of the basis at those entries.  So the structure
tensor (coordinates of every basis product) needs only the pivot entries
(B_i B_j)[p_t, q_t] = B_i[p_t, :] B_j[:, q_t], in O(d^3 n) time, and no
product is formed whole; ``dagger_coord`` and ``alpha_coord`` come from
the pivot entries of B_j^H and U B_j U alike.  The pivot solve fits each
image exactly on the pivots, so closure is certified off them: one seeded
random combination of the basis fills the left slot of the products, or
stands in for the basis under the adjoint and alpha, and Gaussian probe
columns V test the defects in O(d n^2 s) time for s = _PROBES (Freivalds,
1977).  ``coords_of_matrix`` keeps a full span-membership residual.  The
unit solves a 2d x d random sketch of its (2d^2, d) system,
u w_1 = w_1 and w_2 u = w_2 for seeded Gaussian w_1, w_2 (Halko, Martinsson
& Tropp, SIAM Rev. 53(2), 2011), in O(d^3); its backward error stays on the
full system, and a sketched unit that fails it is solved again on the full
system.

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

Instance files store complex entries as [re, im] pairs.  A matrix is read
by checking the types and lengths of its rows, pairs and leaves in C-level
passes, then converting its leaves with one ``np.fromiter`` and rejecting
NaN, infinite and out-of-range numbers, and written from one stacked array;
only a malformed matrix is walked row by row, to name its first offender.
The CLI parses and builds these JSON trees with the cyclic garbage
collector paused: they hold no reference cycles, so refcounting frees them,
and a collector pass over their (at N = 64, millions of) lists would find
nothing to collect.

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


def _products(algebra: "KreinAlgebra", A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coordinates of every product a_p b_q of the coordinate columns of A (d x p)
    and B (d x q); shape (p, q, d).  B^T times the left multiplication matrices
    of the a_p (the contraction ``mul_coords`` uses), as one batched GEMM."""
    return B.T @ algebra._left_matrices(A.T)


def _dag(algebra: "KreinAlgebra", cols: np.ndarray) -> np.ndarray:
    """Adjoints of coordinate columns; the adjoint is antilinear."""
    return algebra.dagger_coord @ np.conj(cols)


def _left_mul(algebra: "KreinAlgebra", c: np.ndarray) -> np.ndarray:
    """Matrix of x -> c x on coordinates; column j holds the coordinates of c B_j."""
    return np.einsum("i,ijk->kj", c, algebra.structure)


def _random_coords(rng: np.random.Generator, samples: int, k: int) -> np.ndarray:
    """Rows of standard complex Gaussian coordinates (real, then imaginary part per row)."""
    z = rng.standard_normal((samples, 2, k))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _worst(err, scale) -> float:
    """Largest error relative to max(1, scale); 0 for no samples."""
    return float(np.max(np.asarray(err) / np.maximum(1.0, scale), initial=0.0))


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    """Worst norm of stacked coordinate vectors ``diff`` relative to ``ref``."""
    return _worst(np.linalg.norm(diff, axis=-1), np.linalg.norm(ref, axis=-1))


def _probe_gap(image_V: np.ndarray, coords: np.ndarray, BV: np.ndarray) -> float:
    """``_rel`` of a probed image M V (n x s) against the probed span member
    of coordinates ``coords`` (sum_k coords_k B_k) V, with BV = B @ V."""
    return _rel((image_V - np.tensordot(coords, BV, axes=1)).reshape(-1), image_V.reshape(-1))


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


def _interpolation_entries(frame: np.ndarray) -> np.ndarray:
    """One row index per column of ``frame`` (m x d, orthonormal columns): the
    largest entry of that column's residual after interpolating it at the rows
    chosen so far (DEIM, Chaturantabut & Sorensen, SIAM J. Sci. Comput. 32(5),
    2010; the rows partial pivoting would pick in an LU of ``frame``).  The
    d x d block of the frame at these rows is well conditioned in practice.
    With flat^T = frame R, the basis block at the same entries is
    R^T frame[piv]^T, so cond(K) <= cond(flat) cond(frame[piv]) in any
    coordinate frame.  O(m d^2)."""
    d = frame.shape[1]
    piv = np.empty(d, dtype=np.intp)
    for j in range(d):
        c = np.linalg.solve(frame[piv[:j], :j], frame[piv[:j], j])
        piv[j] = np.argmax(np.abs(frame[:, j] - frame[:, :j] @ c))
    return piv


def _certificates(algebra: "KreinAlgebra") -> tuple[float, float, float]:
    """Closure certificates (product, adjoint, alpha) of the algebra's current
    ``structure``, ``dagger_coord`` and ``alpha_coord`` against its basis.

    Gaussian probe columns V (n x _PROBES, E||M V||_F^2 = ||M||_F^2) and two
    random combinations x, y of the basis are drawn, in that order, from the
    seed of the basis bytes, so each certificate is a function of the input
    alone and no fixed probe can be aimed at.  product: the worst over j of
    ||sum_i x_i E_ij V|| / max(1, ||X B_j V||) for the closure defects
    E_ij = B_i B_j - sum_k structure[i, j, k] B_k and X = sum_i x_i B_i; the
    defect is linear in x, so a nonzero E_ij survives the random slot and the
    probes almost surely (Freivalds, 1977).  adjoint and alpha:
    ||Y^H V - R V|| / max(1, ||Y^H V||) and the same for U Y U, for
    Y = sum_j y_j B_j and R the span member of the image's coordinates.  The
    pivot solve fits every image to zero on the pivots, so only the probes
    see a defect.  O(d n^2 _PROBES + d^2 n _PROBES): on a 2-core host, 0.4 ms
    for rotated N = 16 and 12 ms for N = 64."""
    B, U, d, n = algebra.basis, algebra.symmetry_unitary, algebra.dim, algebra.ambient_dim
    rng = np.random.default_rng(algebra._seed)
    V = _random_coords(rng, n, _PROBES) / np.sqrt(_PROBES)
    BV = B @ V  # (d, n, s)
    x, y = _random_coords(rng, 2, d)
    BV_cols = BV.transpose(1, 0, 2).reshape(n, d * _PROBES)  # [B_1 V ... B_d V]
    prods = (algebra.materialize(x) @ BV_cols).reshape(n, d, _PROBES).transpose(1, 0, 2).reshape(d, -1)
    xS = (x @ algebra.structure.reshape(d, d * d)).reshape(d, d)
    Y = algebra.materialize(y)
    return (
        _rel(prods - xS @ BV.reshape(d, -1), prods),
        _probe_gap(Y.conj().T @ V, algebra.dagger_coord @ np.conj(y), BV),
        _probe_gap(U @ (Y @ (U @ V)), algebra.alpha_coord @ y, BV),
    )


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

    def is_odd(self, tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.coords)))
        return float(np.linalg.norm(self.algebra.even_projection(self.coords))) <= tol * scale

    def is_even(self, tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.coords)))
        return float(np.linalg.norm(self.algebra.odd_projection(self.coords))) <= tol * scale

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
    unit_coords : array_like, optional
        Coordinates of the multiplicative unit; solved for when omitted.
    odd_generator : array_like, optional
        Coordinates of a candidate odd generator e.  Its algebraic
        properties (e odd, e^2 = unit, e* = -e) are *not* enforced here;
        ``check_odd_symmetry`` reports on them, so defective generators can
        be represented and diagnosed.
    tol : float
        Relative residual bound for all construction validations.  Must be
        positive and finite.

    Construction costs O(d^3 n + d n^2 s) time for s = _PROBES, plus
    O(d^2 n^2) for one QR factorisation of the vectorized basis, the choice
    of the pivot entries and the alpha images at them, plus the unit: an
    O(d^3) sketch solve and one O(d^4) Gram GEMM for its backward error (see
    ``_resolve_unit``).  The closure certificates (``_certificates``) are
    taken once, here: ``validation_residuals`` keeps them as
    ``product_closure``, ``adjoint_closure`` and ``alpha_closure``.
    """

    def __init__(
        self,
        basis,
        symmetry_unitary,
        *,
        unit_coords=None,
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
        # flat^T = frame r with orthonormal columns: r has the singular values of flat
        frame, r = np.linalg.qr(flat.T)
        sv = np.linalg.svd(r, compute_uv=False)
        # more matrices than entries cannot be independent, whatever the d-th
        # singular value (there are only min(d, n^2) of them) would say
        indep = float(sv[-1] / sv[0]) if d <= n * n and sv[0] > 0 else 0.0
        self.validation_residuals["basis_independence"] = indep
        if not indep > tol:
            raise AlgebraValidationError("basis is not linearly independent")
        # interpolative decomposition: d entries (p_t, q_t), chosen on the span's
        # orthonormal frame, fix the coordinates of any span member through the
        # d x d block K = flat[:, piv] of the basis at those entries
        self._pivots = piv = _interpolation_entries(frame)
        self._block = flat[:, piv].T  # coordinates c of M solve K^T c = M[p, q]
        del frame  # as large as the basis; free it before the structure tensor

        r_unitary = float(np.linalg.norm(U.conj().T @ U - np.eye(n), 2))
        self.validation_residuals["symmetry_unitarity"] = r_unitary
        if not r_unitary <= tol:
            raise AlgebraValidationError("symmetry_unitary not unitary")
        r_invol = float(np.linalg.norm(U @ U - np.eye(n), 2))
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

        self.unit_coords, r_unit = self._resolve_unit(unit_coords)
        self.validation_residuals["unit"] = r_unit
        if not r_unit <= tol:
            raise AlgebraValidationError("algebra has no multiplicative unit in the span")

        # grading projections and orthonormal coordinate bases of the two parts
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

    def _batch_coords(self, mats: np.ndarray) -> tuple[np.ndarray, float]:
        """Coordinates (..., d) of matrices (..., n, n) plus the worst span residual."""
        vecs = _vec(mats)
        entries = vecs[..., self._pivots].reshape(-1, self.dim)
        coords = np.linalg.solve(self._block, entries.T).T.reshape(vecs.shape[:-1] + (self.dim,))
        recon = coords @ _vec(self.basis)
        recon -= vecs
        errs = np.linalg.norm(recon, axis=-1)
        scales = np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
        return coords, float(np.max(errs / scales, initial=0.0))

    def _pivot_structure(self) -> np.ndarray:
        """Structure tensor from the pivot entries of every basis product,
        (B_i B_j)[p_t, q_t] = B_i[p_t, :] B_j[:, q_t], taken as one batched
        product over t: O(d^3 n), and no product is formed whole.  A method of
        its own so that its d^3 temporaries are freed before the next stage."""
        B, d = self.basis, self.dim
        p, q = np.divmod(self._pivots, self.ambient_dim)
        entries = B[:, p, :].transpose(1, 0, 2) @ B[:, :, q].transpose(2, 1, 0)  # (t, i, j)
        coords = np.linalg.solve(self._block, entries.reshape(d, d * d))  # (k, (i, j))
        return np.ascontiguousarray(coords.T).reshape(d, d, d)

    def _sketched_unit(self) -> np.ndarray:
        """Least-squares solution of the 2d x d sketch u w_1 = w_1, w_2 u = w_2
        of the unit's system, for complex Gaussian w_1, w_2 seeded from the
        basis (Halko, Martinsson & Tropp, SIAM Rev. 53(2), 2011).  A generic
        element of a unital algebra is invertible, so the unit is the sketch's
        only solution.  O(d^3)."""
        S, d = self.structure, self.dim
        w = _random_coords(np.random.default_rng([self._seed, 1]), 2, d)
        # (c w_1)_k = sum_j c_j (w_1 @ S)[j, k], (w_2 c)_k = sum_j c_j (w_2 @ S_flat)[j, k]
        sketch = np.concatenate([(w[0] @ S).T, (w[1] @ S.reshape(d, d * d)).reshape(d, d).T])
        return np.linalg.lstsq(sketch, w.reshape(-1), rcond=None)[0]

    def _resolve_unit(self, unit_coords) -> tuple[np.ndarray, float]:
        """The unit's coordinates, given or solved for, and their normwise
        backward error on the full (2d^2, d) system u B_i = B_i u = B_i.

        The solve is ``_sketched_unit``; a sketched unit that fails tol is
        replaced by lstsq on the full system, O(d^4), so the sketch never
        rejects an instance the full solve accepts.  The error's ||A||_2 comes
        from eigvalsh of the d x d Gram matrix A^H A, one O(d^4) GEMM."""
        S, d = self.structure, self.dim
        # row j of F and of T: column j of the full system's left and right halves,
        # so c @ F and c @ T give the coordinates of every c B_i and B_i c
        F = S.reshape(d, d * d)
        T = S.transpose(1, 0, 2).reshape(d, d * d)
        rhs = np.tile(np.eye(d).reshape(-1), 2)
        norm_a = math.sqrt(max(np.linalg.eigvalsh(F @ F.conj().T + T @ T.conj().T)[-1], 0.0))

        def backward_error(c: np.ndarray) -> float:
            # ||A x - b|| / (||A|| ||x|| + ||b||) (Higham, Accuracy and Stability of
            # Numerical Algorithms, 2nd ed., Thm 7.1): the absolute residual grows
            # like cond^2 of a change of basis, this does not
            gap = np.concatenate([c @ F, c @ T]) - rhs
            return float(np.linalg.norm(gap) / (norm_a * np.linalg.norm(c) + np.linalg.norm(rhs)))

        if unit_coords is not None:
            sol = _finite("unit_coords", unit_coords).reshape(-1)
            if sol.shape != (d,):
                raise AlgebraValidationError(
                    f"unit_coords needs {d} coordinates, got {sol.shape}"
                )
            return sol, backward_error(sol)
        sol = self._sketched_unit()
        resid = backward_error(sol)
        if not resid <= self.tol:
            sol = np.linalg.lstsq(np.concatenate([F, T], axis=1).T, rhs, rcond=None)[0]
            resid = backward_error(sol)
        return sol, resid

    def materialize(self, coords) -> np.ndarray:
        """Ambient matrix of coordinates (..., d); a stack gives a stack."""
        return np.tensordot(np.asarray(coords, dtype=complex), self.basis, axes=1)

    def coords_of_matrix(self, mat, tol: float | None = None) -> np.ndarray:
        """Coordinates of an ambient matrix, raising SpanError off the span."""
        tol = self.tol if tol is None else tol
        coords, resid = self._batch_coords(np.asarray(mat, dtype=complex))
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
    unitary, the unit's coordinates and the odd generator's coordinates (see
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
    unit = np.tile([1.0, 0.0], points).astype(complex)
    odd_gen = np.tile([0.0, 1.0], points).astype(complex)
    return basis, sym, unit, odd_gen


def build_function_algebra(points: int, tol: float = DEFAULT_TOL) -> KreinAlgebra:
    """Algebra of rank-one-algebra valued functions on a finite point set.

    The ambient space is block diagonal with one 2x2 block per point.  Basis
    ordering is (even, odd) per point: the even element is the identity on
    one block, the odd one is [[0, 1], [1, 0]] on the same block.  The
    fundamental symmetry acts blockwise as conjugation by diag(1, -1) and the
    odd generator is the constant function with value [[0, 1], [1, 0]].
    """
    basis, sym, unit, odd_gen = _function_algebra_arrays(points)
    return KreinAlgebra(basis, sym, unit_coords=unit, odd_generator=odd_gen, tol=tol)


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
    if not np.linalg.norm(Q.conj().T @ Q - np.eye(n), 2) <= tol:
        raise AlgebraValidationError("conjugating matrix is not unitary")
    return Q @ basis @ Q.conj().T, Q @ symmetry @ Q.conj().T


def conjugate_algebra(algebra: KreinAlgebra, unitary, tol: float | None = None) -> KreinAlgebra:
    """Unitarily conjugated copy; coordinates keep their meaning."""
    tol = _positive_tol(algebra.tol if tol is None else tol)
    basis, sym = _conjugated(algebra.basis, algebra.symmetry_unitary, unitary, tol)
    return KreinAlgebra(
        basis,
        sym,
        unit_coords=algebra.unit_coords,
        odd_generator=algebra.odd_generator_coords,
        tol=tol,
    )


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


def check_full(algebra: KreinAlgebra, tol: float = DEFAULT_TOL) -> bool:
    """Whether span{x^dag y : x, y odd} is all of the even part."""
    ob = algebra.odd_basis
    # coordinates of all products dagger(x_i) y_j for the odd coordinate basis
    prods = _products(algebra, _dag(algebra, ob), ob).reshape(-1, algebra.dim)
    return _rank(np.linalg.svd(prods, compute_uv=False), tol) == algebra.even_basis.shape[1]


@dataclass(frozen=True)
class CommutativeSymmetricVerdict:
    """Joint verdict; the two conditions are equivalent (see
    ``check_commutative_symmetric``), so flags and residuals come from one residual."""

    commutative: bool
    symmetric_bimodule: bool
    commutator_residual: float
    symmetry_residual: float


def check_commutative_symmetric(
    algebra: KreinAlgebra, tol: float = DEFAULT_TOL
) -> CommutativeSymmetricVerdict:
    """Commutativity as max |S - S^T| relative to max(1, max |S|), for S the
    structure tensor.  It is also the verdict on a commutative even part plus a
    symmetric odd bimodule (a x = x a and x y^dag = y^dag x for even a, odd x, y):
    y -> y^dag maps the odd part onto itself, so those commutators are S - S^T
    in a graded basis, and one vanishes iff the other does."""
    s = algebra.structure
    comm = float(np.max(np.abs(s - s.transpose(1, 0, 2)), initial=0.0))
    commutative = comm <= tol * max(1.0, float(np.max(np.abs(s))))
    return CommutativeSymmetricVerdict(commutative, commutative, comm, comm)


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

    Checks e odd, e^2 = unit, e* = -e and the anticommutation of x -> e x
    with alpha on the basis.  With e odd, e* = alpha(e^dag) = -e gives
    e^dag = e, so e^2 = 1 makes e unitary and ||e x|| = ||x|| holds wherever
    the coordinates agree with the basis: ``isometric`` is the four tests
    passing and the ``odd_symmetry`` row of ``_IMPLIED`` within tol, and
    ``max_residual`` covers all seven.  With no generator supplied the
    verdict reports existence as unknown.
    """
    e = algebra.odd_generator_coords
    if e is None:
        return OddSymmetryVerdict(None, None, 0.0, ("odd generator absent",))
    eps = _left_mul(algebra, e)  # eps(x) = e x
    scale = max(1.0, float(np.linalg.norm(e)))
    alpha = algebra.alpha_coord
    # (residual, failure message); a NaN residual fails like a large one
    tests = [
        (float(np.linalg.norm(algebra.even_projection(e))) / scale, "generator is not odd"),
        (
            float(np.linalg.norm(eps @ e - algebra.unit_coords)) / scale**2,
            "generator squared is not the unit",
        ),
        (
            float(np.linalg.norm(algebra.star_coord @ np.conj(e) + e)) / scale,
            "generator is not Krein anti-selfadjoint",
        ),
        # eps(alpha(x)) = -alpha(eps(x)) on every basis vector
        (
            float(np.max(np.linalg.norm(eps @ alpha + alpha @ eps, axis=0))) / scale,
            "odd symmetry does not anticommute with alpha",
        ),
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
# are the ``isometric`` flag of ``check_odd_symmetry`` and the certificate half
# of ``verify_spectral_theorem``'s ``isometry``.  README lists the same table.
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
    "odd_symmetry": ("||e x|| = ||x|| for unitary e", _CLOSURES),
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

    def outside(vectors: np.ndarray) -> float:
        # residual of coordinate vectors against the ideal coordinate span
        return _rel(vectors - (vectors @ ortho.conj().T) @ ortho, vectors)

    if k:
        # structure[i, j, k] holds (B_i B_j)_k
        left = np.einsum("ri,ijk->rjk", ortho, algebra.structure)   # ideal * basis_j
        right = np.einsum("rj,ijk->rik", ortho, algebra.structure)  # basis_i * ideal
        r_ideal = max(outside(left.reshape(-1, d)), outside(right.reshape(-1, d)))
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
        unit_resid = outside(algebra.unit_coords[None, :])
        if unit_resid <= tol:
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

    # coordinate map: old basis vector i -> coords of W^dag B_i W in the new basis
    coords, resid = quot._batch_coords(compressed)
    if not resid <= tol:
        raise SpanError(f"matrix is not in the basis span (residual {resid:.3e})")
    cmap = coords.T
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


def _pairs_to_json(M) -> list:
    """Nested [re, im] lists of a complex array, one pair per entry."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


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


def _matrix_instance(basis, symmetry_unitary, odd_generator, leaf=None) -> dict:
    """The matrix_algebra instance of these complex arrays, each basis matrix,
    the unitary and the generator's coordinates passed through ``leaf`` when
    one is given."""
    leaf = leaf or (lambda a: a)
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
    AlgebraValidationError when the data is well-formed but not an algebra."""
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
        raw_basis = data["basis"]
        if not isinstance(raw_basis, list) or not raw_basis:
            raise InstanceFormatError("expected a non-empty list of matrices", "basis")
        mats = []
        for i, rows in enumerate(raw_basis):
            M = _matrix_from_json(rows, f"basis[{i}]")
            if M.shape != (n, n):
                raise InstanceFormatError(
                    f"matrix must be {n} x {n}, got {M.shape}", f"basis[{i}]"
                )
            mats.append(M)
        U = _matrix_from_json(data["symmetry_unitary"], "symmetry_unitary")
        if U.shape != (n, n):
            raise InstanceFormatError(
                f"matrix must be {n} x {n}, got {U.shape}", "symmetry_unitary"
            )
        e = data.get("odd_generator")
        e_coords = None if e is None else _coords_from_json(e, "odd_generator")
        if e_coords is not None and e_coords.shape != (len(mats),):
            raise InstanceFormatError(
                f"needs {len(mats)} coordinates, got {e_coords.shape[0]}", "odd_generator"
            )
        return KreinAlgebra(np.array(mats), U, odd_generator=e_coords, tol=tol)
    raise InstanceFormatError(
        "kind must be 'function_algebra' or 'matrix_algebra'", "kind"
    )
