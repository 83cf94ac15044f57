"""The rank-one Krein C*-algebra and its two-parameter deformations.

The rank-one algebra consists of the complex 2x2 matrices [[a, b], [b, a]],
written T_{a,b}, with the Krein involution T_{a,b}* = T_{conj(a), -conj(b)},
the fundamental symmetry gamma: T_{a,b} -> T_{a,-b} and the odd symmetry
epsilon: T_{a,b} -> T_{b,a}.  Elements are stored as the coordinate pair
(a, b); the matrix picture appears only in test oracles.

The deformed family twists the square of the odd unit e by a phase
exp(i*theta) and the involution by a sign.  ``deformed_check`` probes each
member for submultiplicativity of the candidate norm and for the Krein
C*-identity under the grading symmetry.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KElem",
    "K_ONE",
    "K_E",
    "k_mul",
    "k_star",
    "k_gamma",
    "k_epsilon",
    "k_norm",
    "k_close",
    "KAutomorphism",
    "k_automorphisms",
    "DeformedAlgebra",
    "DeformedWitness",
    "DeformedVerdict",
    "deformed_check",
]


@dataclass(frozen=True)
class KElem:
    """Element a*1 + b*e of the rank-one algebra, e the odd unit."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def __add__(self, other: "KElem") -> "KElem":
        if not isinstance(other, KElem):
            return NotImplemented
        return KElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "KElem") -> "KElem":
        if not isinstance(other, KElem):
            return NotImplemented
        return KElem(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "KElem":
        return KElem(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, KElem):
            return k_mul(self, other)
        if isinstance(other, (int, float, complex)):
            return KElem(other * self.a, other * self.b)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return KElem(other * self.a, other * self.b)
        return NotImplemented

    def star(self) -> "KElem":
        return k_star(self)

    def norm(self) -> float:
        return k_norm(self)

    def to_json_dict(self) -> dict:
        return {"a": [self.a.real, self.a.imag], "b": [self.b.real, self.b.imag]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "KElem":
        return cls(complex(d["a"][0], d["a"][1]), complex(d["b"][0], d["b"][1]))


K_ONE = KElem(1, 0)
K_E = KElem(0, 1)


def k_mul(x: KElem, y: KElem) -> KElem:
    """Product T_{a,b} T_{c,d} = T_{ac+bd, ad+bc}."""
    return KElem(x.a * y.a + x.b * y.b, x.a * y.b + x.b * y.a)


def k_star(x: KElem) -> KElem:
    """Krein involution T_{a,b} -> T_{conj(a), -conj(b)}."""
    return KElem(x.a.conjugate(), -x.b.conjugate())


def k_gamma(x: KElem) -> KElem:
    """Fundamental symmetry T_{a,b} -> T_{a,-b}."""
    return KElem(x.a, -x.b)


def k_epsilon(x: KElem) -> KElem:
    """Odd symmetry T_{a,b} -> T_{b,a}; equals left multiplication by e."""
    return KElem(x.b, x.a)


def k_norm(x: KElem) -> float:
    """Operator norm max{|a+b|, |a-b|} of the matrix [[a, b], [b, a]]."""
    return max(abs(x.a + x.b), abs(x.a - x.b))


def k_close(x: KElem, y: KElem, tol: float = 1e-12) -> bool:
    return abs(x.a - y.a) <= tol and abs(x.b - y.b) <= tol


@dataclass(frozen=True)
class KAutomorphism:
    """Unital *-automorphism of the rank-one algebra, fixed by the image of e."""

    name: str
    e_image: KElem

    def __call__(self, x: KElem) -> KElem:
        # phi(a*1 + b*e) = a*1 + b*phi(e)
        return KElem(x.a + x.b * self.e_image.a, x.b * self.e_image.b)

    def compose(self, other: "KAutomorphism") -> "KAutomorphism":
        return KAutomorphism(f"{self.name}.{other.name}", self(other.e_image))

    def same_as(self, other: "KAutomorphism", tol: float = 1e-12) -> bool:
        return k_close(self.e_image, other.e_image, tol)


def k_automorphisms() -> list[KAutomorphism]:
    """All unital *-automorphisms of the rank-one algebra.

    An automorphism fixes the even part pointwise and is determined by the
    image T_{a,b} of the odd unit, constrained by phi(e)^2 = 1 and
    phi(e*) = -phi(e):

        a^2 + b^2 = 1,  2ab = 0,  conj(a) = -a,  conj(b) = b.

    The branch b = 0 needs a^2 = 1 with a purely imaginary, which is empty;
    the branch a = 0 needs b real with b^2 = 1.  Hence exactly the identity
    and the fundamental symmetry remain.
    """
    return [
        KAutomorphism("identity", KElem(0, 1)),
        KAutomorphism("gamma", KElem(0, -1)),
    ]


@dataclass(frozen=True)
class DeformedAlgebra:
    """Two-dimensional unital algebra with e*e = exp(i theta), e* = sign exp(-i theta) e.

    Elements are pairs (m, n) of complex scalars standing for m*1 + n*e.  The
    candidate norm is max{|m+n|, |m-n|} and the candidate fundamental symmetry
    is the grading map (m, n) -> (m, -n); neither is assumed to satisfy the
    Banach or Krein axioms, that is what ``deformed_check`` decides.
    """

    theta: float
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def twist(self) -> complex:
        return cmath.exp(1j * self.theta)

    def mul(self, x, y):
        m1, n1 = x
        m2, n2 = y
        return (m1 * m2 + n1 * n2 * self.twist, m1 * n2 + n1 * m2)

    def star(self, x):
        m, n = x
        return (m.conjugate(), self.sign * self.twist.conjugate() * n.conjugate())

    def grading(self, x):
        return (x[0], -x[1])

    def norm(self, x) -> float:
        return max(abs(x[0] + x[1]), abs(x[0] - x[1]))

    def left_regular_norm(self, x) -> float:
        """Operator norm of left multiplication on the basis {1, e}.

        Comparison oracle only: at theta = 0 it agrees with ``norm``, away
        from zero the two may differ and the gap is reported, not resolved.
        """
        m, n = x
        mat = np.array([[m, n * self.twist], [n, m]])
        return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class DeformedWitness:
    """First violating input of a failed check, with both sides of the bound."""

    check: str
    x: tuple
    y: tuple
    lhs: float
    rhs: float


@dataclass(frozen=True)
class DeformedVerdict:
    is_banach: bool
    is_krein: bool
    witness: DeformedWitness | None
    norm_discrepancy: float


# Known hard case: at theta = pi this pair breaks submultiplicativity by a
# factor sqrt(2), and it stresses the Krein identity for every theta != 0.
_PROBE = (1j, 1.0 + 0j)


def _disk_point(rng) -> complex:
    r = np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return r * complex(np.cos(phi), np.sin(phi))


def _sample_element(rng):
    return (_disk_point(rng), _disk_point(rng))


def deformed_check(
    alg: DeformedAlgebra,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> DeformedVerdict:
    """Probe a deformed algebra for the Banach and Krein axioms.

    Draws ``samples`` element pairs with coordinates uniform in the complex
    unit disk (deterministic in ``seed``), prepends the explicit witness
    x = y = i*1 + e, and tests

    * submultiplicativity  ||xy|| <= ||x|| ||y||,
    * the Krein identity   ||alpha(x*) x|| = ||x||^2

    for the candidate norm and grading symmetry.  The verdict carries the
    first violation found and the largest gap between the candidate norm and
    the left-regular operator norm seen along the way.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    # drawn lazily: the loop stops once both checks have failed
    pairs = itertools.chain(
        [(_PROBE, _PROBE)],
        ((_sample_element(rng), _sample_element(rng)) for _ in range(samples)),
    )

    witness = None
    is_banach = True
    is_krein = True
    discrepancy = 0.0

    for x, y in pairs:
        nx, ny = alg.norm(x), alg.norm(y)
        for z in (x, y):
            discrepancy = max(discrepancy, abs(alg.norm(z) - alg.left_regular_norm(z)))
        if is_banach:
            nxy = alg.norm(alg.mul(x, y))
            if nxy > nx * ny + tol * max(1.0, nx * ny):
                is_banach = False
                if witness is None:
                    witness = DeformedWitness("submultiplicative", x, y, nxy, nx * ny)
        if is_krein:
            lhs = alg.norm(alg.mul(alg.grading(alg.star(x)), x))
            if abs(lhs - nx * nx) > tol * max(1.0, nx * nx):
                is_krein = False
                if witness is None:
                    witness = DeformedWitness("krein_identity", x, x, lhs, nx * nx)
        if not is_banach and not is_krein:
            break

    return DeformedVerdict(is_banach, is_krein, witness, discrepancy)
