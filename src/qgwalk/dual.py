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

import cmath
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
)
from .sekine import StateReport, _modulus, _zeros
from .sekine import fourier_profile  # noqa: F401 -- kept bound here: perfbench's tracer test patches this binding
from .walks import LimitClassification, WalkGroup, WalkTable, _PowerEngine, classify_walk

XHAT = "Xhat"

DualKey = tuple[int, int] | str


@dataclass(frozen=True)
class DualCentralElement:
    """Character coefficients of an element of the dual algebra.

    Keys are (i, j) pairs for the coordinate characters and "Xhat" for
    the n-dimensional one; absent keys carry coefficient zero.  ``coeffs`` is a read-only copy.
    """

    n: int
    coeffs: Mapping[DualKey, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.coeffs:
            if key == XHAT:
                continue
            if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, (int, np.integer)) for x in key)):
                raise ValueError(f"key {key!r} is not an (i, j) pair of integers or 'Xhat'")
            if not (0 <= key[0] < self.n and 0 <= key[1] < self.n):
                raise ValueError(f"key {key} outside Z_{self.n} x Z_{self.n}")
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))

    def coefficient(self, key: DualKey) -> complex:
        return complex(self.coeffs.get(key, 0.0))


def parse_key(text: str, n: int) -> DualKey:
    """The key a config label names, checked for n: (i, j) from "e:i,j", or "Xhat"."""
    if text == XHAT:
        return XHAT
    try:  # a text without the prefix gives no indices to unpack
        i, j = (int(t) for t in text[2:].split(",")) if text.startswith("e:") else ()
    except ValueError as exc:
        raise ValueError(f"unknown label {text!r}") from exc
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"index {text!r} outside Z_{n} x Z_{n}")
    return (i, j)


def dual_validate_state(a: DualCentralElement, tol: float = DEFAULT_TOL) -> StateReport:
    """States are exactly the finite, real nonnegative coefficient maps
    with unit coefficient at (0, 0)."""
    failures: list[tuple[str, object]] = []
    norm = a.coefficient((0, 0))
    if _modulus(norm - 1.0) > tol:
        failures.append(("normalization", norm))
    for key, c in sorted(a.coeffs.items(), key=str):
        c = complex(c)
        if not cmath.isfinite(c):
            failures.append(("coefficient not finite", (key, c)))
        elif abs(c.imag) > tol:
            failures.append(("coefficient not real", (key, c)))
        elif c.real < -tol:
            failures.append(("negative coefficient", (key, c.real)))
    return StateReport(not failures, failures)


def dual_fourier_values(a: DualCentralElement) -> dict[DualKey, complex]:
    """Fourier values of the dual functional.

    The value at e^(i,j) is the coefficient at (-i, -j), read off the
    reflected grid of ``dual_to_primal``; the Xhat block is the scalar
    a_Xhat / n times the identity, recorded by its scalar.
    """
    n = a.n
    grid = dual_to_primal(a).abelian.reshape(n, n)
    values: dict[DualKey, complex] = {(int(i), int(j)): complex(grid[i, j]) for i, j in zip(*np.nonzero(grid))}
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
        grid = _zeros((len(c), n * n))
        grid[:, cells] = c[:, :-1]
        plus = np.fft.fft2(grid.reshape(-1, n, n)).reshape(len(c), -1)
        minus = plus.copy()
        plus[:, 0] += n * c[:, -1]
        minus[:, 0] -= n * c[:, -1]
        return (np.concatenate([plus, minus], axis=1),)

    return WalkTable(keys, ratios, dims, n, slice(None), synth, (1.0 / (2 * n * n),), 2 * n * n)


def dual_power(a: DualCentralElement, k: int) -> DualCentralElement:
    """Coefficients of the k-th convolution power: a_alpha^k / d_alpha^(k-1).

    The coefficient at (0, 0) is 1, as for a state.
    """
    engine = _PowerEngine(_dual_table(a))
    powered = zip(engine.table.keys, engine.powers((k,))[0].tolist())
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


def dual_qtv_to_haar(a: DualCentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Exact distance of the k-th dual convolution power to the dual Haar state.

    The density of the walk state with respect to the dual Haar state
    has blocks 2n^2 * Fhat(w)(alpha) over the primal irreducibles, where
    w is the walk element in C(KP_n); the dual Haar state itself has the
    unit density.  The distance is half the weighted trace norm of the
    difference (see ``_dual_table``).
    """
    dual_validate_state(a, tol).require()
    return _PowerEngine(_dual_table(a)).qtv_many((k,))[0]


def dual_bounds(a: DualCentralElement, k: int, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Lower and upper mixing bounds for the dual walk at step k."""
    dual_validate_state(a, tol).require()
    return _PowerEngine(_dual_table(a)).bounds_many((k,))[0]


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
    identity: ``dual_to_primal`` of coefficient 1 at each flag and n at
    a flagged Xhat.  It is a central idempotent of the pointwise algebra.
    """
    flags = DualCentralElement(eps.n, {**dict.fromkeys(eps.abelian, 1.0), XHAT: eps.n * eps.xhat})
    return dual_to_primal(flags)


def is_pointwise_central_idempotent(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Idempotent for the pointwise product and central in that algebra."""
    sq = x * x
    if not sq.allclose(x, tol):
        return False
    m = x.matrix
    scalar = m[0, 0] if x.shape.matrix_dim else 0.0
    return bool(np.abs(m - scalar * np.eye(x.shape.matrix_dim)).max() <= tol)


def _dual_limit(a: DualCentralElement, ones: frozenset) -> tuple[str, EpsilonVector | None, str]:
    """Epsilon flags the ratios at 1."""
    if not ones:
        return "haar", None, "dual:haar"
    return "idempotent", EpsilonVector(a.n, frozenset(ones - {XHAT} | {(0, 0)}), int(XHAT in ones)), "dual:idempotent"


DUAL_WALK = WalkGroup(
    key=parse_key,
    element=DualCentralElement,
    check=lambda a, tol: dual_validate_state(a, tol),
    table=lambda a: _dual_table(a),
    limit=_dual_limit,
    diverges="dual:diverges",
    describe=lambda eps: {"epsilon": eps.describe()},
    meta=("outcome", "epsilon"),
    brief=True,
)


def dual_classify(a: DualCentralElement, tol: float = DEFAULT_TOL) -> LimitClassification:
    """Limit of the dual walk: ``limit`` is the epsilon vector that flags the ratios at 1.

    A coefficient above its dimension puts its ratio outside the disc,
    and the walk diverges.
    """
    return classify_walk(DUAL_WALK, a, tol)
