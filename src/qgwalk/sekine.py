"""Representation theory of the Sekine quantum groups KP_n.

The algebra is C^(n^2) + M_n(C) with abelian coordinates indexed by
(i, j) in Z_n x Z_n.  Irreducible representations:

* one-dimensional rho_l^+/- for l in Z_n, and sigma_l^+/- when n is even;
* two-dimensional X(u, v) for u in Z_n and 1 <= v <= floor((n-1)/2),
  of which only the characters are ever materialized.

Central elements are stored as coefficient maps over the irreducible
characters.  Fourier profiles collect the 2x2 matrices of a functional
on the X(u, v) family, extended to v = 0 and (even n) v = n/2 where the
2x2 block decomposes into a pair of one-dimensional representations;
convolution is the blockwise matrix product.

Matrix-unit convention: the entry pattern E_{m, m+l} uses 1-based row m
wrapped mod n, i.e. 0-based row r and column (r + l) % n; the sign
(-1)^m in sigma characters uses the 1-based row index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    ShapeMismatchError,
    haar_integral,
    l2_norm,
)

RHO_PLUS = "rho+"
RHO_MINUS = "rho-"
SIGMA_PLUS = "sigma+"
SIGMA_MINUS = "sigma-"
X = "X"

_ONE_DIM_KINDS = (RHO_PLUS, RHO_MINUS, SIGMA_PLUS, SIGMA_MINUS)


class InvalidLabelError(ValueError):
    """Label does not name an irreducible representation of KP_n."""


class NotCentralError(ValueError):
    """Element is not a linear combination of irreducible characters."""


@dataclass(frozen=True, order=True)
class IrrepLabel:
    """Name of an irreducible representation of KP_n.

    One-dimensional labels use ``index``; two-dimensional labels X(u, v)
    use ``index`` for u and ``sub`` for v.
    """

    kind: str
    index: int
    sub: int = 0

    @property
    def dim(self) -> int:
        return 2 if self.kind == X else 1

    def __str__(self) -> str:
        if self.kind == X:
            return f"X:{self.index},{self.sub}"
        return f"{self.kind}:{self.index}"


def rho_plus(l: int) -> IrrepLabel:
    return IrrepLabel(RHO_PLUS, l)


def rho_minus(l: int) -> IrrepLabel:
    return IrrepLabel(RHO_MINUS, l)


def sigma_plus(l: int) -> IrrepLabel:
    return IrrepLabel(SIGMA_PLUS, l)


def sigma_minus(l: int) -> IrrepLabel:
    return IrrepLabel(SIGMA_MINUS, l)


def x_label(u: int, v: int) -> IrrepLabel:
    return IrrepLabel(X, u, v)


def trivial_label() -> IrrepLabel:
    return IrrepLabel(RHO_PLUS, 0)


def genuine_x_range(n: int) -> range:
    """Values of v for which X(u, v) is a genuine 2-dim irreducible."""
    return range(1, (n - 1) // 2 + 1)


def block_v_range(n: int) -> range:
    """Values of v indexing the stored 2x2 blocks, composites included."""
    return range(0, n // 2 + 1)


def check_label(n: int, label: IrrepLabel) -> None:
    if label.kind in (RHO_PLUS, RHO_MINUS):
        if not 0 <= label.index < n or label.sub != 0:
            raise InvalidLabelError(f"{label} invalid for n={n}")
    elif label.kind in (SIGMA_PLUS, SIGMA_MINUS):
        if n % 2 != 0:
            raise InvalidLabelError(f"{label} requires even n, got n={n}")
        if not 0 <= label.index < n or label.sub != 0:
            raise InvalidLabelError(f"{label} invalid for n={n}")
    elif label.kind == X:
        if not (0 <= label.index < n and label.sub in genuine_x_range(n)):
            raise InvalidLabelError(f"{label} invalid for n={n}")
    else:
        raise InvalidLabelError(f"unknown label kind {label.kind!r}")


def irrep_labels(n: int) -> list[IrrepLabel]:
    """All irreducible representation labels of KP_n, in canonical order."""
    labels = [rho_plus(l) for l in range(n)] + [rho_minus(l) for l in range(n)]
    if n % 2 == 0:
        labels += [sigma_plus(l) for l in range(n)] + [sigma_minus(l) for l in range(n)]
    labels += [x_label(u, v) for v in genuine_x_range(n) for u in range(n)]
    return labels


@lru_cache(maxsize=64)
def _tables(n: int):
    """Cached per-n data: eta powers, DFT matrix, cosine table, labels."""
    eta = np.exp(2j * np.pi * np.arange(n) / n)
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # dft[i, l] = eta^(il)
    cos = np.cos(2.0 * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # cos[j, v]
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^index, 0-based
    return eta, dft, cos, signs, tuple(irrep_labels(n))


def _shift_matrix(n: int, l: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n)
    m[rows, (rows + l) % n] = 1.0
    return m


def character(n: int, label: IrrepLabel) -> AlgebraElement:
    """The character of an irreducible representation as an algebra element."""
    check_label(n, label)
    shape = AlgebraShape.sekine(n)
    eta, dft, cos, _, _ = _tables(n)
    rows = np.arange(n)
    if label.kind == X:
        u, v = label.index, label.sub
        ab = 2.0 * np.outer(dft[:, u], cos[:, v])  # entry (s, t): 2 eta^(su) cos(2 pi t v / n)
        return AlgebraElement(shape, ab.reshape(-1), np.zeros((n, n)))
    l = label.index
    col = np.repeat(dft[:, l][:, None], n, axis=1)  # eta^(il), constant in j
    sign = 1.0 if label.kind in (RHO_PLUS, SIGMA_PLUS) else -1.0
    if label.kind in (RHO_PLUS, RHO_MINUS):
        ab = col
        mat = sign * _shift_matrix(n, l)
    else:
        parity = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^j, j 0-based
        ab = col * parity[None, :]
        mat = np.zeros((n, n), dtype=np.complex128)
        mat[rows, (rows + l) % n] = sign * (-1.0) ** (rows + 1)
    return AlgebraElement(shape, ab.reshape(-1), mat)


@dataclass(frozen=True)
class CentralElement:
    """Linear combination a = sum_alpha a_alpha chi_alpha of characters.

    Absent labels carry coefficient zero.
    """

    n: int
    coeffs: dict[IrrepLabel, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label in self.coeffs:
            check_label(self.n, label)

    def coefficient(self, label: IrrepLabel) -> complex:
        return complex(self.coeffs.get(label, 0.0))

    def items(self):
        return sorted(self.coeffs.items())

    def allclose(self, other: "CentralElement", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        labels = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coefficient(a) - other.coefficient(a)) <= tol for a in labels)


def _coeff_slot(n: int, label: IrrepLabel) -> int:
    """Position of a label in the flat coefficient layout of ``_split_coeffs``."""
    if label.kind == X:
        return 4 * n + label.index * (n // 2 + 1) + label.sub
    return _ONE_DIM_KINDS.index(label.kind) * n + label.index


def _split_coeffs(n: int, flat: np.ndarray):
    """Per-kind views rp, rm, sp, sm (length n) and xv (n x (n//2 + 1)) of a flat vector."""
    return (*flat[: 4 * n].reshape(4, n), flat[4 * n :].reshape(n, n // 2 + 1))


def _coeff_arrays(a: CentralElement):
    """Coefficients split into dense per-kind arrays (zeros where absent)."""
    n = a.n
    flat = np.zeros(4 * n + n * (n // 2 + 1), dtype=np.complex128)
    for label, c in a.coeffs.items():
        flat[_coeff_slot(n, label)] = c
    return _split_coeffs(n, flat)


def _element_arrays(n, rp, rm, sp, sm, xv):
    """Canonical coordinates (abelian n x n, matrix n x n) from per-kind arrays."""
    eta, dft, cos, signs, _ = _tables(n)
    vs = np.array(genuine_x_range(n), dtype=int)
    t = np.repeat((rp + rm)[:, None], n, axis=1)
    if n % 2 == 0:
        t = t + np.outer(sp + sm, signs)
    if vs.size:
        t = t + 2.0 * (xv[:, vs] @ cos[:, vs].T)
    abelian = dft @ t

    rows = np.arange(n)
    band_plus = rp - rm
    mat = np.zeros((n, n), dtype=np.complex128)
    for l in range(n):
        cols = (rows + l) % n
        vals = np.full(n, band_plus[l], dtype=np.complex128)
        if n % 2 == 0:
            vals = vals + (-1.0) ** (rows + 1) * (sp[l] - sm[l])
        mat[rows, cols] += vals
    return abelian, mat


def central_to_element(a: CentralElement) -> AlgebraElement:
    """Expand a central element into canonical coordinates.

    Abelian entry (i, j) is sum_l T[l, j] eta^(il) with
    T[l, j] = a_{rho_l^+} + a_{rho_l^-} + (-1)^j (a_{sigma_l^+} + a_{sigma_l^-})
              + 2 sum_v a_{X(l,v)} cos(2 pi j v / n),
    and matrix entry (1-based i, j) on the band l = j - i is
    a_{rho_l^+} - a_{rho_l^-} + (-1)^i (a_{sigma_l^+} - a_{sigma_l^-}).
    """
    n = a.n
    abelian, mat = _element_arrays(n, *_coeff_arrays(a))
    return AlgebraElement(AlgebraShape.sekine(n), abelian.reshape(-1), mat)


def element_to_central(x: AlgebraElement, tol: float = DEFAULT_TOL, n: int | None = None) -> CentralElement:
    """Project onto the span of characters via a_alpha = int chi_alpha^* x.

    Raises NotCentralError when the projection residual exceeds
    tol * max(1, l2_norm(x)).
    """
    if n is None:
        n = x.shape.matrix_dim
    if x.shape != AlgebraShape.sekine(n):
        raise ValueError("element does not live in C(KP_n)")
    eta, dft, cos, signs, labels = _tables(n)
    w_ab = x.shape.weight_abelian
    w_mat = x.shape.weight_matrix
    ab = x.abelian.reshape(n, n)
    rows = np.arange(n)
    bands = np.array([x.matrix[rows, (rows + l) % n] for l in range(n)])  # bands[l, r]
    band_sum = bands.sum(axis=1)
    band_alt = (bands * ((-1.0) ** (rows + 1))[None, :]).sum(axis=1)

    dft_conj = dft.conj()
    row_sums = dft_conj.T @ ab  # entry (l, j): sum_i eta^(-il) x[i, j]
    plain = row_sums.sum(axis=1)  # sum_{i,j} eta^(-il) x[i,j]
    alt = (row_sums * signs[None, :]).sum(axis=1)

    coeffs: dict[IrrepLabel, complex] = {}

    def put(label, value):
        if abs(value) > 1e-15:
            coeffs[label] = complex(value)

    for l in range(n):
        put(rho_plus(l), w_ab * plain[l] + w_mat * band_sum[l])
        put(rho_minus(l), w_ab * plain[l] - w_mat * band_sum[l])
    if n % 2 == 0:
        for l in range(n):
            put(sigma_plus(l), w_ab * alt[l] + w_mat * band_alt[l])
            put(sigma_minus(l), w_ab * alt[l] - w_mat * band_alt[l])
    for v in genuine_x_range(n):
        weighted = row_sums @ cos[:, v]  # sum_j cos(2 pi j v / n) * row_sums[l, j]
        for u in range(n):
            put(x_label(u, v), 2.0 * w_ab * weighted[u])

    result = CentralElement(n, coeffs)
    residual = l2_norm(x - central_to_element(result))
    if residual > tol * max(1.0, l2_norm(x)):
        raise NotCentralError(f"projection residual {residual:.3e} exceeds tolerance")
    return result


@dataclass(frozen=True)
class StateReport:
    """Outcome of a state check with one entry per violated condition."""

    is_state: bool
    failures: list[tuple[str, object]] = field(default_factory=list)


def validate_state(a: CentralElement, tol: float = DEFAULT_TOL) -> StateReport:
    """Check that F(a) is a state.

    Requires the trivial coefficient to be 1, all abelian coordinates
    real and nonnegative, and the matrix block positive semi-definite.
    """
    failures: list[tuple[str, object]] = []
    norm = a.coefficient(trivial_label())
    if abs(norm - 1.0) > tol:
        failures.append(("normalization", norm))
    x = central_to_element(a)
    ab = x.abelian.reshape(a.n, a.n)
    imax = np.abs(ab.imag).max()
    if imax > tol:
        idx = np.unravel_index(np.abs(ab.imag).argmax(), ab.shape)
        failures.append(("abelian coefficient not real", (tuple(int(k) for k in idx), complex(ab[idx]))))
    rmin = ab.real.min()
    if rmin < -tol:
        idx = np.unravel_index(ab.real.argmin(), ab.shape)
        failures.append(("negative abelian coefficient", (tuple(int(k) for k in idx), float(rmin))))
    m = x.matrix
    hdev = np.abs(m - m.conj().T).max()
    if hdev > tol:
        failures.append(("matrix not hermitian", float(hdev)))
    else:
        emin = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if emin < -tol:
            failures.append(("matrix not PSD", emin))
    return StateReport(not failures, failures)


def fourier_block(a: CentralElement, u: int, v: int) -> np.ndarray:
    """2x2 Fourier matrix of the functional F(a) at block (u, v).

    For genuine v this is a_{X(n-u, v)}/2 times the identity; v = 0 and
    v = n/2 carry the rho and sigma pairs respectively.
    """
    n = a.n
    if not 0 <= u < n:
        raise InvalidLabelError(f"u={u} out of range for n={n}")
    eta, _, _, _, _ = _tables(n)
    nu = (n - u) % n
    if v == 0:
        p = a.coefficient(rho_plus(nu))
        m = a.coefficient(rho_minus(nu))
        return 0.5 * np.array([[p + m, p - m], [p - m, p + m]], dtype=np.complex128)
    if n % 2 == 0 and v == n // 2:
        p = a.coefficient(sigma_plus(nu))
        m = a.coefficient(sigma_minus(nu))
        s = (-1.0) ** u
        return 0.5 * np.array([[p + m, s * (p - m)], [s * (p - m), p + m]], dtype=np.complex128)
    if v in genuine_x_range(n):
        return 0.5 * a.coefficient(x_label(nu, v)) * np.eye(2, dtype=np.complex128)
    raise InvalidLabelError(f"v={v} out of range for n={n}")


@dataclass(frozen=True)
class FourierProfile:
    """Fourier matrices of a functional on C(KP_n).

    ``blocks`` maps (u, v) with v in 0..floor(n/2) to a 2x2 matrix;
    ``scalars`` redundantly stores the values on the one-dimensional
    representations.  The blocks are the source of truth for products.
    """

    n: int
    blocks: dict[tuple[int, int], np.ndarray]
    scalars: dict[IrrepLabel, complex]

    def block(self, u: int, v: int) -> np.ndarray:
        return self.blocks[(u, v)]

    def scalar(self, label: IrrepLabel) -> complex:
        return self.scalars[label]

    def allclose(self, other: "FourierProfile", tol: float = 1e-10) -> bool:
        if self.n != other.n or self.blocks.keys() != other.blocks.keys():
            return False
        if any(
            not np.allclose(self.blocks[k], other.blocks[k], atol=tol, rtol=0.0)
            for k in self.blocks
        ):
            return False
        return all(abs(self.scalars[k] - other.scalars[k]) <= tol for k in self.scalars)


def fourier_profile(x: AlgebraElement) -> FourierProfile:
    """Fourier matrices of F(x) for an arbitrary element x of C(KP_n).

    Block (u, v) has diagonal entries w_ab * sum_{s,t} eta^(su +- tv) x_(s,t)
    and off-diagonal entries w_mat * sum_m eta^(+-mv) X_{m+u, m} with
    1-based m; one-dimensional values are int(character * x).
    """
    n = x.shape.matrix_dim
    if x.shape != AlgebraShape.sekine(n):
        raise ValueError("element does not live in C(KP_n)")
    eta, dft, _, _, labels = _tables(n)
    w_ab = x.shape.weight_abelian
    w_mat = x.shape.weight_matrix
    ab = x.abelian.reshape(n, n)
    rows = np.arange(n)
    # fab[u, w] = sum_{s,t} eta^(su + tw) x[s, t] for all residues w
    fab = dft.T @ ab @ dft
    # band[u, r] = X[(r + u) % n, r]
    band = np.array([x.matrix[(rows + u) % n, rows] for u in range(n)])
    phase = np.exp(2j * np.pi * (rows + 1)[None, :] * np.arange(n)[:, None] / n)  # [v, m] = eta^(mv)
    off_plus = band @ phase.T  # entry (u, v): sum_m eta^(mv) X_{m+u, m}
    off_minus = band @ phase.conj().T

    blocks: dict[tuple[int, int], np.ndarray] = {}
    for u in range(n):
        for v in block_v_range(n):
            blocks[(u, v)] = np.array(
                [
                    [w_ab * fab[u, v], w_mat * off_plus[u, v]],
                    [w_mat * off_minus[u, v], w_ab * fab[u, (n - v) % n]],
                ],
                dtype=np.complex128,
            )
    scalars: dict[IrrepLabel, complex] = {}
    for label in labels:
        if label.kind == X:
            continue
        scalars[label] = haar_integral(character(n, label) * x)
    return FourierProfile(n, blocks, scalars)


def central_profile(a: CentralElement) -> FourierProfile:
    """Fourier profile of a central element, via the closed block forms."""
    n = a.n
    blocks = {(u, v): fourier_block(a, u, v) for u in range(n) for v in block_v_range(n)}
    scalars: dict[IrrepLabel, complex] = {}
    for label in irrep_labels(n):
        if label.kind == X:
            continue
        kind = label.kind
        if kind in (SIGMA_PLUS, SIGMA_MINUS) and label.index % 2 == 1:
            # sigma_l^+- has adjoint sigma_(-l)^-+ when l is odd
            kind = SIGMA_MINUS if kind == SIGMA_PLUS else SIGMA_PLUS
        scalars[label] = a.coefficient(IrrepLabel(kind, (n - label.index) % n))
    return FourierProfile(n, blocks, scalars)


def convolve(x: FourierProfile, y: FourierProfile) -> FourierProfile:
    """Profile of the convolution, x first: blockwise matrix product."""
    if x.n != y.n:
        raise ShapeMismatchError(f"n={x.n} vs n={y.n}")
    blocks = {k: x.blocks[k] @ y.blocks[k] for k in x.blocks}
    scalars = {k: x.scalars[k] * y.scalars[k] for k in x.scalars}
    return FourierProfile(x.n, blocks, scalars)


def profile_to_central(p: FourierProfile) -> CentralElement:
    """Recover central coefficients from a profile's block structure."""
    n = p.n
    coeffs: dict[IrrepLabel, complex] = {}

    def put(label, value):
        if abs(value) > 1e-15:
            coeffs[label] = complex(value)

    for l in range(n):
        b = p.block((n - l) % n, 0)
        put(rho_plus(l), b[0, 0] + b[0, 1])
        put(rho_minus(l), b[0, 0] - b[0, 1])
    if n % 2 == 0:
        for l in range(n):
            u = (n - l) % n
            b = p.block(u, n // 2)
            s = (-1.0) ** u
            put(sigma_plus(l), b[0, 0] + s * b[0, 1])
            put(sigma_minus(l), b[0, 0] - s * b[0, 1])
    for v in genuine_x_range(n):
        for u in range(n):
            put(x_label(u, v), 2.0 * p.block((n - u) % n, v)[0, 0])
    return CentralElement(n, coeffs)
