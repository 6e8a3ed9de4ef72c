"""Random walks on the dual of KP_n.

The dual algebra carries the basis dual to the canonical one; its
irreducible characters are the n^2 coordinate functionals e^(i,j)
(one-dimensional) together with one n-dimensional representation Xhat.
The inverse Fourier transform identifies e^(i,j) with e_(-i,-j) and
E^(i,j) with E_(i,j)/n inside C(KP_n); under this identification the
dual convolution becomes the pointwise product, the dual Haar state is
evaluation against e_(0,0), and the distance to it has an exact
expression through the Fourier profile of the walk element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
)
from .sekine import StateReport
from .sekine import fourier_profile  # noqa: F401 -- kept bound here: perfbench's tracer test patches this binding
from .walks import WalkTable, _PowerEngine

XHAT = "Xhat"

DualKey = tuple[int, int] | str


@dataclass(frozen=True)
class DualCentralElement:
    """Character coefficients of an element of the dual algebra.

    Keys are (i, j) pairs for the coordinate characters and "Xhat" for
    the n-dimensional one; absent keys carry coefficient zero.
    """

    n: int
    coeffs: dict[DualKey, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.coeffs:
            if key == XHAT:
                continue
            i, j = key
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"key {key} outside Z_{self.n} x Z_{self.n}")

    def coefficient(self, key: DualKey) -> complex:
        return complex(self.coeffs.get(key, 0.0))

    def dimension(self, key: DualKey) -> int:
        return self.n if key == XHAT else 1


def dual_validate_state(a: DualCentralElement, tol: float = DEFAULT_TOL) -> StateReport:
    """States are exactly the real nonnegative coefficient maps with
    unit coefficient at (0, 0)."""
    failures: list[tuple[str, object]] = []
    norm = a.coefficient((0, 0))
    if abs(norm - 1.0) > tol:
        failures.append(("normalization", norm))
    for key, c in sorted(a.coeffs.items(), key=str):
        c = complex(c)
        if abs(c.imag) > tol:
            failures.append(("coefficient not real", (key, c)))
        elif c.real < -tol:
            failures.append(("negative coefficient", (key, c.real)))
    return StateReport(not failures, failures)


def dual_fourier_values(a: DualCentralElement) -> dict[DualKey, complex]:
    """Fourier values of the dual functional.

    The value at e^(i,j) is the coefficient at (-i, -j); the Xhat block
    is the scalar a_Xhat / n times the identity, recorded by its scalar.
    """
    n = a.n
    values: dict[DualKey, complex] = {}
    for i in range(n):
        for j in range(n):
            c = a.coefficient(((-i) % n, (-j) % n))
            if c != 0.0:
                values[(i, j)] = c
    values[XHAT] = a.coefficient(XHAT) / n
    return values


def _dual_table(a: DualCentralElement) -> WalkTable:
    """The dual walk as seen by the engine.

    With D the 2-D DFT of the powered non-trivial coefficient grid and
    A the powered Xhat coefficient, the density of a^k - h against the
    dual Haar state takes the values D(u, w) on the primal irreducibles:
    rho_l^+- see D(l, 0), shifted by +-n A at l = 0; sigma_l^+- see
    D(l, n/2); and the genuine 2x2 blocks X(u, v) are diagonal,
    diag(D(u, v), D(u, -v)), weighted by their dimension 2.  Listing D
    twice, once with +n A and once with -n A at (0, 0), gives every value
    the weight 1/(2n^2) of the algebra C^(2n^2).
    """
    n = a.n
    keys = sorted(key for key in a.coeffs if key not in ((0, 0), XHAT)) + [XHAT]
    cells = np.array([i * n + j for i, j in keys[:-1]], dtype=int)
    dims = np.array([1.0] * len(cells) + [float(n)])
    ratios = np.array([a.coefficient(key) for key in keys], dtype=np.complex128) / dims

    def synth(c):
        grid = np.zeros(n * n, dtype=np.complex128)
        grid[cells] = c[:-1]
        plus = np.fft.fft2(grid.reshape(n, n)).reshape(-1)
        minus = plus.copy()
        plus[0] += n * c[-1]
        minus[0] -= n * c[-1]
        return np.concatenate([plus, minus]), np.zeros((0, 0))

    shape = AlgebraShape(2 * n * n, 0, 1.0 / (2 * n * n), 0.0)
    return WalkTable(shape, keys, ratios, dims, n, np.ones(len(keys), bool), synth)


def dual_power(a: DualCentralElement, k: int) -> DualCentralElement:
    """Coefficients of the k-th convolution power: a_alpha^k / d_alpha^(k-1).

    The coefficient at (0, 0) is 1, as for a state.
    """
    engine = _PowerEngine(_dual_table(a))
    powered = zip(engine.table.keys, engine.coefficients(k).tolist())
    return DualCentralElement(a.n, {(0, 0): 1.0, **{key: c for key, c in powered if c != 0.0}})


def dual_to_primal(a: DualCentralElement) -> AlgebraElement:
    """Identification into C(KP_n): e^(i,j) -> e_(-i,-j), E^(ij) -> E_ij / n.

    The index reflection is applied here and nowhere else.
    """
    n = a.n
    ab = np.zeros((n, n), dtype=np.complex128)
    for key, c in a.coeffs.items():
        if key == XHAT:
            continue
        i, j = key
        ab[(-i) % n, (-j) % n] += complex(c)
    mat = (a.coefficient(XHAT) / n) * np.eye(n, dtype=np.complex128)
    return AlgebraElement(AlgebraShape.sekine(n), ab.reshape(-1), mat)


def _require_dual_state(a: DualCentralElement, tol: float = DEFAULT_TOL) -> None:
    report = dual_validate_state(a, tol)
    if not report.is_state:
        raise ValueError(f"not a state on the dual: {report.failures}")


def dual_qtv_to_haar(a: DualCentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Exact distance of the k-th dual convolution power to the dual Haar state.

    The density of the walk state with respect to the dual Haar state
    has blocks 2n^2 * Fhat(w)(alpha) over the primal irreducibles, where
    w is the walk element in C(KP_n); the dual Haar state itself has the
    unit density.  The distance is half the weighted trace norm of the
    difference (see ``_dual_table``).
    """
    _require_dual_state(a, tol)
    return _PowerEngine(_dual_table(a)).qtv(k)


def dual_bounds(a: DualCentralElement, k: int, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Lower and upper mixing bounds for the dual walk at step k."""
    _require_dual_state(a, tol)
    engine = _PowerEngine(_dual_table(a))
    return engine.lower(k), engine.upper(k)


@dataclass(frozen=True)
class EpsilonVector:
    """0/1 limit data: one flag per coordinate character plus one for Xhat."""

    n: int
    abelian: frozenset[tuple[int, int]]
    xhat: int

    def describe(self) -> dict:
        return {"abelian": sorted(self.abelian), "xhat": self.xhat}


def epsilon_to_element(eps: EpsilonVector) -> AlgebraElement:
    """Limit of the dual walk as an element of C(KP_n).

    Pointwise powers converge coordinatewise, so the limit is the 0/1
    element supported on the reflected flags, with matrix part 0 or the
    identity.  It is a central idempotent of the pointwise algebra.
    """
    n = eps.n
    ab = np.zeros((n, n), dtype=np.complex128)
    for i, j in eps.abelian:
        ab[(-i) % n, (-j) % n] = 1.0
    mat = float(eps.xhat) * np.eye(n, dtype=np.complex128)
    return AlgebraElement(AlgebraShape.sekine(n), ab.reshape(-1), mat)


def is_pointwise_central_idempotent(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Idempotent for the pointwise product and central in that algebra."""
    sq = x * x
    if not sq.allclose(x, tol):
        return False
    m = x.matrix
    scalar = m[0, 0] if x.shape.matrix_dim else 0.0
    return bool(np.abs(m - scalar * np.eye(x.shape.matrix_dim)).max() <= tol)


@dataclass(frozen=True)
class DualClassification:
    kind: str  # "haar" | "idempotent" | "diverges"
    epsilon: EpsilonVector | None = None


def dual_classify(a: DualCentralElement, tol: float = DEFAULT_TOL) -> DualClassification:
    """Limit of the dual walk from the coefficient-to-dimension gaps."""
    _require_dual_state(a, tol)
    n = a.n
    above = False
    hits: set[DualKey] = set()
    for key, c in a.coeffs.items():
        if key == (0, 0):
            continue
        d = a.dimension(key)
        val = complex(c).real
        if val > d + tol:
            above = True
        elif abs(val - d) <= tol:
            hits.add(key)
    if above:
        return DualClassification("diverges")
    if not hits:
        return DualClassification("haar")
    abelian = {key for key in hits if key != XHAT}
    abelian.add((0, 0))
    eps = EpsilonVector(n, frozenset(abelian), 1 if XHAT in hits else 0)
    return DualClassification("idempotent", eps)
