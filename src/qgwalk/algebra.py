"""Dense model of the multi-matrix *-algebra C^d + M_m(C).

An element carries a vector of abelian coordinates and a single matrix
block.  A weighted trace functional plays the role of the invariant
state; the weights are normalized so that the unit integrates to 1.
The L1 norm is the integral of the absolute value, with the matrix part
realized through singular values (Tr|X| = Tr sqrt(X*X)), so that
non-Hermitian differences are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class ShapeMismatchError(ValueError):
    """Two elements live in different algebras."""


@dataclass(frozen=True)
class AlgebraShape:
    """Dimensions and integration weights of C^d + M_m(C).

    Invariant: abelian_dim * weight_abelian + matrix_dim * weight_matrix = 1,
    so the unit has integral one.
    """

    abelian_dim: int
    matrix_dim: int
    weight_abelian: float
    weight_matrix: float

    def __post_init__(self) -> None:
        if self.abelian_dim < 1:
            raise ValueError("abelian_dim must be positive")
        if self.matrix_dim < 0:
            raise ValueError("matrix_dim must be nonnegative")
        if self.weight_abelian <= 0 or (self.matrix_dim > 0 and self.weight_matrix <= 0):
            raise ValueError("weights must be positive")
        total = self.abelian_dim * self.weight_abelian + self.matrix_dim * self.weight_matrix
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights do not normalize the unit (got {total!r})")

    @staticmethod
    def kac_paljutkin() -> "AlgebraShape":
        """Shape of the eight-dimensional algebra C^4 + M_2(C)."""
        return AlgebraShape(4, 2, 1.0 / 8.0, 2.0 / 8.0)

    @staticmethod
    def sekine(n: int) -> "AlgebraShape":
        """Shape of the 2n^2-dimensional algebra C^(n^2) + M_n(C)."""
        if n < 2:
            raise ValueError("n must be at least 2")
        return AlgebraShape(n * n, n, 1.0 / (2.0 * n * n), 1.0 / (2.0 * n))


class AlgebraElement:
    """Immutable element of C^d + M_m(C).

    Supports addition, scalar multiplication, the blockwise (pointwise)
    product and the adjoint.  Arrays are copied on construction and
    marked read-only.
    """

    __slots__ = ("shape", "abelian", "matrix")

    def __init__(self, shape: AlgebraShape, abelian, matrix) -> None:
        ab = np.array(abelian, dtype=np.complex128).reshape(-1)
        mat = np.array(matrix, dtype=np.complex128)
        if ab.shape != (shape.abelian_dim,):
            raise ValueError(f"abelian part must have length {shape.abelian_dim}")
        m = shape.matrix_dim
        if mat.shape != (m, m):
            raise ValueError(f"matrix block must be {m}x{m}")
        ab.setflags(write=False)
        mat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "abelian", ab)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _check(self, other: "AlgebraElement") -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.shape, self.abelian + other.abelian, self.matrix + other.matrix)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.shape, self.abelian - other.abelian, self.matrix - other.matrix)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, -self.abelian, -self.matrix)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.shape, self.abelian * other.abelian, self.matrix @ other.matrix
            )
        return AlgebraElement(self.shape, self.abelian * other, self.matrix * other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.shape, scalar * self.abelian, scalar * self.matrix)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, np.conj(self.abelian), self.matrix.conj().T)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(
            np.allclose(self.abelian, other.abelian, atol=tol, rtol=0.0)
            and np.allclose(self.matrix, other.matrix, atol=tol, rtol=0.0)
        )

    def __repr__(self) -> str:
        return f"AlgebraElement(d={self.shape.abelian_dim}, m={self.shape.matrix_dim})"


def unit(shape: AlgebraShape) -> AlgebraElement:
    """The unit: all abelian entries 1 and an identity matrix block."""
    return AlgebraElement(shape, np.ones(shape.abelian_dim), np.eye(shape.matrix_dim))


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(
        shape, np.zeros(shape.abelian_dim), np.zeros((shape.matrix_dim, shape.matrix_dim))
    )


def haar_integral(x: AlgebraElement) -> complex:
    """Weighted trace: w_ab * sum(abelian) + w_mat * Tr(matrix)."""
    s = x.shape
    return complex(s.weight_abelian * x.abelian.sum() + s.weight_matrix * np.trace(x.matrix))


def l1_norm(x: AlgebraElement) -> float:
    """Integral of |x|; the matrix part contributes its singular values."""
    s = x.shape
    total = s.weight_abelian * np.abs(x.abelian).sum()
    if s.matrix_dim > 0:
        total += s.weight_matrix * np.linalg.svd(x.matrix, compute_uv=False).sum()
    return float(total)


def l2_norm(x: AlgebraElement) -> float:
    """Norm induced by the inner product <a, b> = integral of a* b."""
    val = haar_integral(x.adjoint() * x)
    return float(np.sqrt(max(val.real, 0.0)))


def qtv_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """Total variation distance between the functionals of a and b.

    Equals half the L1 norm of the difference of the densities.
    """
    a._check(b)
    return 0.5 * l1_norm(a - b)


def positivity_failures(abelian, matrix, tol: float = DEFAULT_TOL) -> list[tuple[str, object]]:
    """One (condition, witness) per violated positivity condition of abelian + matrix.

    The abelian part must be real and nonnegative, with its worst entry
    as witness (index into ``abelian``'s own shape); the matrix part, a
    block or a stack of blocks, must be hermitian (witness: the largest
    deviation) and then positive semi-definite (the smallest eigenvalue).
    Each comparison is written so that NaN fails it, as in a density that
    overflowed.
    """
    failures: list[tuple[str, object]] = []
    imag = np.abs(abelian.imag)
    if not imag.max(initial=0.0) <= tol:
        idx = np.unravel_index(imag.argmax(), abelian.shape)
        failures.append(("abelian coefficient not real", (tuple(int(k) for k in idx), complex(abelian[idx]))))
    rmin = abelian.real.min(initial=0.0)
    if not rmin >= -tol:
        idx = np.unravel_index(abelian.real.argmin(), abelian.shape)
        failures.append(("negative abelian coefficient", (tuple(int(k) for k in idx), float(rmin))))
    if matrix.size:
        hdev = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max()
        if not hdev <= tol:
            failures.append(("matrix not hermitian", float(hdev)))
        else:
            emin = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().swapaxes(-1, -2))).min())
            if not emin >= -tol:
                failures.append(("matrix not PSD", emin))
    return failures


def is_positive(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Check positivity: real nonnegative abelian part, PSD matrix block."""
    return not positivity_failures(x.abelian, x.matrix, tol)
