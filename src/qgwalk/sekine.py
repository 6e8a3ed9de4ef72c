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

import cmath
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    ShapeMismatchError,
    l2_norm,
    positivity_failures,
)

# Projected coefficients below COEFF_CUTOFF in modulus are rounding noise
# (about 1e-16 per term of O(1) coordinates), so they are dropped and an
# absent character stays absent from the coefficient map.
COEFF_CUTOFF = 1e-15

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


def parse_label(text: str, n: int) -> IrrepLabel:
    """The label ``text`` names, checked for n: the inverse of ``IrrepLabel.__str__``, each index read by ``int``."""
    kind, _, rest = text.partition(":")
    try:
        indices = [int(t) for t in rest.split(",")]
    except ValueError:
        indices = []
    if len(indices) != (2 if kind == X else 1) or kind not in (*_ONE_DIM_KINDS, X):
        raise InvalidLabelError(f"unknown label {text!r}")
    label = IrrepLabel(kind, *indices)
    _slot(n, label)
    return label


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


def _slot(n: int, label: IrrepLabel) -> int:
    """The slot of ``label`` in the flat layout of ``_split_coeffs``: kind * n + l for rho+- and sigma+-, and
    4n + u (n//2 + 1) + v for X(u, v).  InvalidLabelError if it names no irreducible of KP_n (sigma at odd n first)."""
    if label.kind in (SIGMA_PLUS, SIGMA_MINUS) and n % 2 != 0:
        raise InvalidLabelError(f"{label} requires even n, got n={n}")
    if label.kind == X and 0 <= label.index < n and 1 <= label.sub <= (n - 1) // 2:  # v in genuine_x_range(n)
        return 4 * n + label.index * (n // 2 + 1) + label.sub
    if label.kind in _ONE_DIM_KINDS and 0 <= label.index < n and label.sub == 0:
        return _ONE_DIM_KINDS.index(label.kind) * n + label.index
    if label.kind != X and label.kind not in _ONE_DIM_KINDS:
        raise InvalidLabelError(f"unknown label kind {label.kind!r}")
    raise InvalidLabelError(f"{label} invalid for n={n}")


def irrep_labels(n: int) -> list[IrrepLabel]:
    """All irreducible representation labels of KP_n, in canonical order."""
    labels = [rho_plus(l) for l in range(n)] + [rho_minus(l) for l in range(n)]
    if n % 2 == 0:
        labels += [sigma_plus(l) for l in range(n)] + [sigma_minus(l) for l in range(n)]
    labels += [x_label(u, v) for v in genuine_x_range(n) for u in range(n)]
    return labels


@lru_cache(maxsize=64)
def _tables(n: int):
    """Cached per-n data: DFT matrix, cosine table, signs."""
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # dft[i, l] = eta^(il)
    cos = np.cos(2.0 * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # cos[j, v]
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^index, 0-based
    return dft, cos, signs


@dataclass(frozen=True)
class CentralElement:
    """Linear combination a = sum_alpha a_alpha chi_alpha of characters.

    Absent labels carry coefficient zero.  ``coeffs`` is a read-only copy of the map given.
    """

    n: int
    coeffs: Mapping[IrrepLabel, complex] = field(default_factory=dict)
    _slots: np.ndarray = field(init=False, compare=False, repr=False)  # each label's slot (``_slot``), in order
    _values: np.ndarray = field(init=False, compare=False, repr=False)  # each label's coefficient, in order

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        object.__setattr__(self, "_slots", np.array([_slot(self.n, label) for label in self.coeffs], dtype=int))
        object.__setattr__(self, "_values", np.fromiter(self.coeffs.values(), np.complex128, len(self.coeffs)))

    def coefficient(self, label: IrrepLabel) -> complex:
        return complex(self.coeffs.get(label, 0.0))

    def allclose(self, other: "CentralElement", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        labels = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coefficient(a) - other.coefficient(a)) <= tol for a in labels)


def _split_coeffs(n: int, flat: np.ndarray):
    """Per-kind views rp, rm, sp, sm (length n) and xv (n x (n//2 + 1)) of a flat vector.

    A stack of flat vectors, one per row, gives the views with the same
    leading axes.
    """
    lead = flat.shape[:-1]
    bands = flat[..., : 4 * n].reshape(*lead, 4, n)
    return (*np.moveaxis(bands, -2, 0), flat[..., 4 * n :].reshape(*lead, n, n // 2 + 1))


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Complex zeros of ``shape``; a size past numpy's limit raises MemoryError, as one it cannot allocate does."""
    try:
        return np.zeros(shape, dtype=np.complex128)
    except ValueError as exc:  # "Maximum allowed dimension exceeded", "array is too big"
        raise MemoryError(str(exc)) from None


def _place(n: int, slots, values: np.ndarray) -> np.ndarray:
    """``values`` at ``slots`` of the flat layout of ``_split_coeffs``, zeros elsewhere: one flat vector per row."""
    flat = _zeros((*values.shape[:-1], 4 * n + n * (n // 2 + 1)))
    flat[..., slots] = values
    return flat


def _coeff_vector(a: CentralElement) -> np.ndarray:
    """Coefficients in the flat layout of ``_split_coeffs`` (zeros where absent), placed at the element's slots."""
    return _place(a.n, a._slots, a._values)


def walk_columns(a: CentralElement) -> tuple[list[IrrepLabel], np.ndarray, np.ndarray, np.ndarray]:
    """(keys, slots, ratios, dims) of the non-trivial labels of ``a`` in sorted order, the columns of its walk.

    The order is the X slots, from 4n on, then the others, each in slot order, as "X" < "rho+" < "rho-" <
    "sigma+" < "sigma-": no label is compared.  The ratios are a_alpha / d_alpha.
    """
    labels = list(a.coeffs)
    perm = np.lexsort((a._slots, a._slots < 4 * a.n))
    perm = perm[a._slots[perm] != 0]  # slot 0 is the trivial label
    slots = a._slots[perm]
    dims = np.where(slots >= 4 * a.n, 2.0, 1.0)  # X labels have dimension 2
    return list(map(labels.__getitem__, perm.tolist())), slots, a._values[perm] / dims, dims


def fourier_density(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density of the central element with flat coefficients ``flat``, in the Fourier picture.

    Returns (abelian, beta, s): the 2-D DFT of the abelian part, the (l, w)
    grid S with S[:, 0] = rp + rm, S[:, n/2] = sp + sm (even n) and
    S[:, +-v] = xv[:, v], which ``np.fft`` lists at [-j, -i] for (i, j); and
    the spectra beta = DFT(b) and DFT(s) of the rho bands b = rp - rm and
    the sigma bands s = sp - sm, whose circulants make up the matrix block
    C(b) + diag((-1)^m) C(s) over the 1-based rows m (``density_blocks``).
    """
    half = n // 2 + 1
    rp, rm, sp, sm, xv = _split_coeffs(n, flat)
    rows = np.empty((*flat.shape[:-1], half + 2, n), dtype=np.complex128)  # S[:, v] for v <= n/2, then b and s
    rows[..., :half, :] = xv.swapaxes(-1, -2)  # its rows v = 0 and n/2 hold no label
    rows[..., 0, :] = rp + rm
    if n % 2 == 0:
        rows[..., n // 2, :] = sp + sm
    rows[..., half, :] = rp - rm
    rows[..., half + 1, :] = sp - sm
    # the DFT over l of the distinct rows; the mirrored rows S[:, n - v] copy theirs
    over_l = np.fft.fft(rows)
    abelian = np.fft.fft(np.concatenate((over_l[..., :half, :], over_l[..., n - half : 0 : -1, :]), axis=-2), axis=-2)
    return abelian, over_l[..., half, :], over_l[..., half + 1, :]


def density_blocks(beta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The matrix block of ``fourier_density`` as a stack of blocks, unitarily equivalent to it.

    Odd n: the 1x1 blocks beta_w.  Even n: diag((-1)^m) swaps the frequencies w and w + h, h = n/2,
    so the block splits into the 2x2 blocks [[beta_w, -s_(w+h)], [-s_w, beta_(w+h)]], w < h.
    """
    h, odd = divmod(beta.shape[-1], 2)
    if odd:
        return beta[..., None, None]
    return np.stack((beta[..., :h], -s[..., h:], -s[..., :h], beta[..., h:]), axis=-1).reshape(*beta.shape[:-1], h, 2, 2)


def _trace_norms(beta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The trace norms of the 2x2 ``density_blocks(beta, s)``, even n, from ``beta`` and ``s`` alone.

    A 2x2 matrix A with singular values s1, s2 has s1 s2 = |det A| and s1^2 + s2^2 = ||A||_F^2, so
    s1 + s2 = sqrt(||A||_F^2 + 2 |det A|); conjugating by diag(1, -1) drops the signs of s.  Each block
    is scaled by 2^-e, with e the exponent of its largest real or imaginary part, before it is squared:
    scaling by a power of two is exact, the squares neither underflow in the tail nor overflow, and no
    reciprocal of a subnormal is taken.  The rows [b_w, s_w] and [b_(w+h), s_(w+h)] fix the order in
    which the squares are summed and the products taken, so that no pinned distance moves.
    """
    h = beta.shape[-1] // 2
    parts = np.stack((beta[..., :h], s[..., :h], beta[..., h:], s[..., h:]), axis=-1)
    parts = parts.reshape(*beta.shape[:-1], h, 2, 2).view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    scaled = np.ldexp(parts, -e[..., None, None])
    prod = scaled.view(np.complex128)
    prod = prod[..., 0, :] * prod[..., 1, :]  # b_w b_(w+h) and s_w s_(w+h)
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1).sum(axis=-1) + 2.0 * np.abs(prod[..., 0] - prod[..., 1])), e)


def walk_synthesis(n: int, slots: np.ndarray) -> tuple[Callable[[np.ndarray], tuple], tuple[float, ...], int]:
    """(synth, weights, width) of the KP_n walk whose non-trivial coefficients sit at ``slots`` (``walks.WalkTable``).

    ``synth`` maps a (K, m) stack of coefficients at the slots to the density of each row in the Fourier
    picture, by ``fourier_density``: its abelian values and the singular values of its matrix block, which
    are |beta_w|, or with sigma slots (2n..4n-1) the trace norms of the 2x2 ``density_blocks``.  When every
    slot is rho+- (below 2n), the abelian part does not depend on j: the n equal values of each row i fold
    into one, with n times the weight, and a row costs two length-n FFTs.  ``width`` is the number of complex
    values ``synth`` holds per row in its largest array.
    """
    if (slots < 2 * n).all():

        def rho_synth(c):
            flat = np.zeros((len(c), 2 * n), dtype=np.complex128)
            flat[:, slots] = c
            rp, rm = flat[:, :n], flat[:, n:]
            # the abelian part at j = 0 and the spectrum of the circulant block
            return (np.fft.fft(np.stack([rp + rm, rp - rm], axis=1)),)

        return rho_synth, (1.0 / (2.0 * n),), 2 * n

    sigma = ((2 * n <= slots) & (slots < 4 * n)).any()

    def synth(c):
        abelian, beta, s = fourier_density(n, _place(n, slots, c))
        return abelian, _trace_norms(beta, s) if sigma else beta

    shape = AlgebraShape.sekine(n)
    return synth, (shape.weight_abelian, shape.weight_matrix), (n + 2) * n


def _element_arrays(n, rp, rm, sp, sm, xv):
    """Canonical coordinates (abelian n x n, matrix n x n) from per-kind arrays."""
    dft, cos, signs = _tables(n)
    vs = np.array(genuine_x_range(n), dtype=int)
    t = np.repeat((rp + rm)[:, None], n, axis=1)
    if n % 2 == 0:
        t = t + np.outer(sp + sm, signs)
    if vs.size:
        t = t + 2.0 * (xv[:, vs] @ cos[:, vs].T)
    abelian = dft @ t

    rows = np.arange(n)
    bands = (rows[None, :] - rows[:, None]) % n  # bands[r, c] = l for column c = r + l
    mat = (rp - rm)[bands]
    if n % 2 == 0:
        mat = mat - signs[:, None] * (sp - sm)[bands]  # (-1)^(r+1) with 0-based row r
    return abelian, mat


def character(n: int, label: IrrepLabel) -> AlgebraElement:
    """The character of an irreducible representation as an algebra element."""
    return central_to_element(CentralElement(n, {label: 1.0}))


def central_to_element(a: CentralElement) -> AlgebraElement:
    """Expand a central element into canonical coordinates.

    Abelian entry (i, j) is sum_l T[l, j] eta^(il) with
    T[l, j] = a_{rho_l^+} + a_{rho_l^-} + (-1)^j (a_{sigma_l^+} + a_{sigma_l^-})
              + 2 sum_v a_{X(l,v)} cos(2 pi j v / n),
    and matrix entry (1-based i, j) on the band l = j - i is
    a_{rho_l^+} - a_{rho_l^-} + (-1)^i (a_{sigma_l^+} - a_{sigma_l^-}).
    """
    n = a.n
    abelian, mat = _element_arrays(n, *_split_coeffs(n, _coeff_vector(a)))
    return AlgebraElement(AlgebraShape.sekine(n), abelian.reshape(-1), mat)


def element_to_central(x: AlgebraElement, tol: float = DEFAULT_TOL) -> CentralElement:
    """Project onto the span of characters via a_alpha = int chi_alpha^* x.

    The projection reads the coefficients off the Fourier profile of x
    (see ``profile_to_central``).  Raises NotCentralError when the
    projection residual exceeds tol * max(1, l2_norm(x)).
    """
    n = x.shape.matrix_dim
    if x.shape != AlgebraShape.sekine(n):
        raise ValueError("element does not live in C(KP_n)")
    result = profile_to_central(fourier_profile(x))
    residual = l2_norm(x - central_to_element(result))
    if residual > tol * max(1.0, l2_norm(x)):
        raise NotCentralError(f"projection residual {residual:.3e} exceeds tolerance")
    return result


@dataclass(frozen=True)
class StateReport:
    """Outcome of a state check with one entry per violated condition."""

    is_state: bool
    failures: list[tuple[str, object]] = field(default_factory=list)

    def require(self) -> None:
        """Raise NotAStateError unless the report describes a state."""
        if not self.is_state:
            raise NotAStateError(self)


class NotAStateError(ValueError):
    """The driving coefficients do not define a state; ``report`` says why.

    The one way in which KP_n, KP and the dual refuse a non-state.
    """

    def __init__(self, report: StateReport):
        super().__init__(f"not a state: {report.failures}")
        self.report = report


def _modulus(z: complex) -> float:
    """abs(z), or inf where the modulus of finite parts passes the float range: Python's abs raises there."""
    try:
        return abs(z)
    except OverflowError:
        return cmath.inf


def validate_state(a: CentralElement, tol: float = DEFAULT_TOL) -> StateReport:
    """Check that F(a) is a state.

    Requires every coefficient to be finite, the trivial coefficient to
    be 1, and F(a) positive: all abelian coordinates real and
    nonnegative and the matrix block positive semi-definite, as
    ``algebra.positivity_failures`` decides on ``fourier_density``'s abelian
    values and ``density_blocks`` (so "matrix not hermitian" measures the blocks).
    A density whose check leaves the floating-point range (finite coefficients
    near 1e308) fails once, as "Fourier density out of range", witnessed by
    the label of the largest coefficient.
    """
    failures: list[tuple[str, object]] = [
        ("coefficient not finite", (str(l), complex(c))) for l, c in a.coeffs.items() if not cmath.isfinite(c)
    ]
    if failures:
        return StateReport(False, failures)
    norm = a.coefficient(trivial_label())
    if _modulus(norm - 1.0) > tol:
        failures.append(("normalization", norm))
    with np.errstate(over="ignore", invalid="ignore"):  # a density that overflows fails the checks, unwarned
        abelian, beta, s = fourier_density(a.n, _coeff_vector(a))
        found = positivity_failures(abelian, density_blocks(beta, s), tol)
    if not all(cmath.isfinite(w[1] if isinstance(w, tuple) else w) for _, w in found):
        # an overflowed value or deviation is no witness to print: name the largest coefficient
        failures.append(("Fourier density out of range", str(max(a.coeffs, key=lambda l: _modulus(a.coeffs[l])))))
        return StateReport(False, failures)
    for name, witness in found:
        if isinstance(witness, tuple):  # an abelian witness, whose (i, j) the FFT lists at [-j, -i]
            (q, p), value = witness
            witness = ((-p % a.n, -q % a.n), value)
        failures.append((name, witness))
    return StateReport(not failures, failures)


def fourier_block(a: CentralElement, u: int, v: int) -> np.ndarray:
    """2x2 Fourier matrix of the functional F(a) at block (u, v).

    For genuine v this is a_{X(n-u, v)}/2 times the identity.  At v = 0
    it is [[p + m, p - m], [p - m, p + m]]/2 with p, m the coefficients at
    rho_(n-u)^+-; at v = n/2 the same with the sigma pair and the
    off-diagonal entries signed by (-1)^u.
    """
    n = a.n
    if not 0 <= u < n:
        raise InvalidLabelError(f"u={u} out of range for n={n}")
    if not 0 <= v <= n // 2:  # the stored blocks, composites included
        raise InvalidLabelError(f"v={v} out of range for n={n}")
    return central_profile(a).blocks[u, v]


@dataclass(frozen=True)
class FourierProfile:
    """Fourier matrices of a functional on C(KP_n).

    ``blocks[u, v]`` is the 2x2 matrix at (u, v) for v in 0..floor(n/2),
    an array of shape (n, n//2 + 1, 2, 2).  The values on the
    one-dimensional representations live in the composite v = 0 and
    (even n) v = n/2 blocks; ``scalars`` reads them off.
    """

    n: int
    blocks: np.ndarray

    @property
    def scalars(self) -> dict[IrrepLabel, complex]:
        """Values on the one-dimensional representations, keyed by label."""
        values = _one_dim_values(self)
        return {
            IrrepLabel(kind, l): complex(values[i, l])
            for i, kind in enumerate(_ONE_DIM_KINDS[: len(values)])
            for l in range(self.n)
        }

    def allclose(self, other: "FourierProfile", tol: float = 1e-10) -> bool:
        return self.n == other.n and np.allclose(self.blocks, other.blocks, atol=tol, rtol=0.0)


def _one_dim_values(p: FourierProfile) -> np.ndarray:
    """Rows rho+, rho- (and sigma+, sigma- for even n) of the values at l.

    rho_l^+- reads b[0, 0] +- b[0, 1] off block (l, 0), sigma_l^+- off (l, n/2).
    """
    n = p.n
    rows = []
    for v in (0, n // 2) if n % 2 == 0 else (0,):
        b = p.blocks[:, v]
        rows += [b[:, 0, 0] + b[:, 0, 1], b[:, 0, 0] - b[:, 0, 1]]
    return np.array(rows)


def fourier_profile(x: AlgebraElement) -> FourierProfile:
    """Fourier matrices of F(x) for an arbitrary element x of C(KP_n).

    Block (u, v) has diagonal entries w_ab * sum_{s,t} eta^(su +- tv) x_(s,t)
    and off-diagonal entries w_mat * sum_m eta^(+-mv) X_{m+u, m} with
    1-based m.
    """
    n = x.shape.matrix_dim
    if x.shape != AlgebraShape.sekine(n):
        raise ValueError("element does not live in C(KP_n)")
    dft, _, _ = _tables(n)
    w_ab = x.shape.weight_abelian
    w_mat = x.shape.weight_matrix
    ab = x.abelian.reshape(n, n)
    rows = np.arange(n)
    vs = np.arange(n // 2 + 1)
    # fab[u, w] = sum_{s,t} eta^(su + tw) x[s, t] for all residues w
    fab = dft.T @ ab @ dft
    # band[u, r] = X[(r + u) % n, r]
    band = x.matrix[(rows[:, None] + rows[None, :]) % n, rows[None, :]]
    phase = np.exp(2j * np.pi * np.outer(rows + 1, vs) / n)  # [m, v] = eta^(mv), 1-based m
    blocks = np.empty((n, vs.size, 2, 2), dtype=np.complex128)
    blocks[..., 0, 0] = w_ab * fab[:, vs]
    blocks[..., 0, 1] = w_mat * (band @ phase)  # sum_m eta^(mv) X_{m+u, m}
    blocks[..., 1, 0] = w_mat * (band @ phase.conj())
    blocks[..., 1, 1] = w_ab * fab[:, (n - vs) % n]
    return FourierProfile(n, blocks)


def central_profile(a: CentralElement) -> FourierProfile:
    """Fourier profile of a central element, via the closed block forms of ``fourier_block``."""
    n = a.n
    rp, rm, sp, sm, xv = _split_coeffs(n, _coeff_vector(a))
    _, _, signs = _tables(n)
    nu = (n - np.arange(n)) % n
    diag = 0.5 * xv[nu]  # the v = 0 and v = n/2 columns of xv hold no label
    off = np.zeros_like(diag)
    diag[:, 0], off[:, 0] = 0.5 * (rp + rm)[nu], 0.5 * (rp - rm)[nu]
    if n % 2 == 0:
        diag[:, n // 2], off[:, n // 2] = 0.5 * (sp + sm)[nu], 0.5 * signs * (sp - sm)[nu]
    blocks = np.empty((*diag.shape, 2, 2), dtype=np.complex128)
    blocks[..., 0, 0] = blocks[..., 1, 1] = diag
    blocks[..., 0, 1] = blocks[..., 1, 0] = off
    return FourierProfile(n, blocks)


def convolve(x: FourierProfile, y: FourierProfile) -> FourierProfile:
    """Profile of the convolution, x first: blockwise matrix product."""
    if x.n != y.n:
        raise ShapeMismatchError(f"n={x.n} vs n={y.n}")
    return FourierProfile(x.n, np.matmul(x.blocks, y.blocks))


def profile_to_central(p: FourierProfile) -> CentralElement:
    """Recover central coefficients from a profile's block structure.

    The coefficient at rho_l^+- is the value on rho_(n-l)^+-.  For
    sigma the same holds with + and - swapped when l is odd, since
    sigma_l^+- has adjoint sigma_(-l)^-+ then.  The coefficient at
    X(u, v) is the trace b00 + b11 of block (n-u, v): the orthogonal
    projection onto the character, which is 2 b00 on a central profile.
    """
    n = p.n
    values = _one_dim_values(p)
    nu = (n - np.arange(n)) % n
    flat = np.zeros(4 * n + n * (n // 2 + 1), dtype=np.complex128)
    rp, rm, sp, sm, xv = _split_coeffs(n, flat)
    rp[:], rm[:] = values[0, nu], values[1, nu]
    if n % 2 == 0:
        odd = nu % 2 == 1
        sp[:] = np.where(odd, values[3, nu], values[2, nu])
        sm[:] = np.where(odd, values[2, nu], values[3, nu])
    vs = np.array(genuine_x_range(n), dtype=int)
    genuine = p.blocks[nu][:, vs]
    xv[:, vs] = genuine[..., 0, 0] + genuine[..., 1, 1]
    labels = irrep_labels(n)
    values = flat[[_slot(n, l) for l in labels]].tolist()
    return CentralElement(n, {l: c for l, c in zip(labels, values) if abs(c) > COEFF_CUTOFF})
