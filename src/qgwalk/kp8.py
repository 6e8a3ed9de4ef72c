"""The eight-dimensional Kac-Paljutkin quantum group.

The algebra is C^4 + M_2(C).  Irreducible representations: four
one-dimensional rho(1)..rho(4) and one two-dimensional, written X here,
whose matrix coefficients are fully explicit.  That makes the 2x2
Fourier block computable from first principles, which doubles as an
independent oracle for the block calculus used elsewhere.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    haar_integral,
    unit,
)
from .algebra import l1_norm  # noqa: F401 -- kept bound here: perfbench's tracer test patches this binding
from .sekine import StateReport, _modulus
from .walks import AmbiguousBoundaryError, LimitClassification, WalkGroup, WalkTable, _PowerEngine, classify_walk

KP_SHAPE = AlgebraShape.kac_paljutkin()

_E = np.exp(1j * np.pi / 4.0)


_KP_UNIT = unit(KP_SHAPE)

# Elements are immutable, so the characters are built once and shared.
_KP_IRREPS = {
    "rho1": _KP_UNIT,
    "rho2": AlgebraElement(KP_SHAPE, [1, -1, -1, 1], np.diag([1.0, -1.0])),
    "rho3": AlgebraElement(KP_SHAPE, [1, -1, -1, 1], np.diag([-1.0, 1.0])),
    "rho4": AlgebraElement(KP_SHAPE, [1, 1, 1, 1], -np.eye(2)),
    "chiX": AlgebraElement(KP_SHAPE, [2, 0, 0, -2], np.zeros((2, 2))),
}


# The engine's view of KP: the non-trivial characters rho2, rho3, rho4,
# chiX and their dimensions.  Every character has a diagonal matrix
# block, so each is stored as the 8-vector of its abelian part followed
# by its matrix diagonal, listed twice: with weight 1/8 per entry
# (_KP_WEIGHTS) that is the abelian weight 1/8 and the matrix weight 2/8
# of C^4 + M_2(C).
_KP_KEYS = ("g2", "g3", "g4", "gX")
_KP_DIMS = np.array([1.0, 1.0, 1.0, 2.0])
_KP_DIAGONAL = np.array(
    [
        np.concatenate([x.abelian, np.diag(x.matrix), np.diag(x.matrix)])
        for x in (_KP_IRREPS[name] for name in ("rho2", "rho3", "rho4", "chiX"))
    ],
    dtype=np.complex128,
)
_KP_WEIGHTS = (1.0 / 8.0,)
# The lower bound uses rho2..rho4 only: the first three keys.
_KP_LOWER = slice(0, 3)


def kp_irreps() -> dict[str, AlgebraElement]:
    """Characters of the five irreducibles: rho1..rho4 and chiX."""
    return dict(_KP_IRREPS)


def x_matrix_coefficients() -> list[list[AlgebraElement]]:
    """The four entries of the two-dimensional representation."""
    s = KP_SHAPE
    z = np.zeros((2, 2), dtype=np.complex128)
    x11 = AlgebraElement(s, [1, -1, 1, -1], z)
    x12 = AlgebraElement(s, [0, 0, 0, 0], np.array([[0, _E], [np.conj(_E), 0]]))
    x21 = AlgebraElement(s, [0, 0, 0, 0], np.array([[0, np.conj(_E)], [_E, 0]]))
    x22 = AlgebraElement(s, [1, 1, -1, -1], z)
    return [[x11, x12], [x21, x22]]


@dataclass(frozen=True)
class KPCoefficients:
    """Coefficients of g = sum g_u rho(u) + gX chiX."""

    n: ClassVar[int] = 2  # the Kac-Paljutkin group is KP_2
    g1: complex = 1.0
    g2: complex = 0.0
    g3: complex = 0.0
    g4: complex = 0.0
    gX: complex = 0.0

    def as_tuple(self):
        return (complex(self.g1), complex(self.g2), complex(self.g3), complex(self.g4), complex(self.gX))

    @functools.cached_property
    def _engine(self) -> _PowerEngine:
        """The walk engine of this state, built on first use and kept.

        Callers ask for k = 1, 2, ... on the same state, one k per call,
        so its table, moduli and phases are built once per state.  It
        depends on the frozen fields alone, so it cannot go stale, and as
        no field it takes no part in equality, hashing or ``replace``.
        """
        return _PowerEngine(_kp_table(self))


def kp_element(g: KPCoefficients) -> AlgebraElement:
    irr = _KP_IRREPS
    out = g.g1 * irr["rho1"] + g.g2 * irr["rho2"] + g.g3 * irr["rho3"] + g.g4 * irr["rho4"]
    return out + g.gX * irr["chiX"]


def kp_validate_state(g: KPCoefficients, tol: float = DEFAULT_TOL) -> StateReport:
    """State conditions: g1 = 1, all coefficients finite and real, five inequalities (one failure if out of range)."""
    failures: list[tuple[str, object]] = []
    g1, g2, g3, g4, gx = g.as_tuple()
    for name, val in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4), ("gX", gx)):
        if not cmath.isfinite(val):
            failures.append(("coefficient not finite", (name, val)))
        elif abs(val.imag) > tol:
            failures.append(("coefficient not real", (name, val)))
    if _modulus(g1 - 1.0) > tol:
        failures.append(("normalization", g1))
    checks = [
        ("1+g2+g3+g4+2gX", (1 + g2 + g3 + g4 + 2 * gx).real),
        ("1+g2+g3+g4-2gX", (1 + g2 + g3 + g4 - 2 * gx).real),
        ("1+g2-g3-g4", (1 + g2 - g3 - g4).real),
        ("1-g2+g3-g4", (1 - g2 + g3 - g4).real),
        ("1-g2-g3+g4", (1 - g2 - g3 + g4).real),
    ]
    if all(cmath.isfinite(val) for _, val in checks):
        failures += [("inequality violated", (name, val)) for name, val in checks if val < -tol]
    else:  # an overflowed value is no witness to print: name the coefficient of largest modulus
        failures.append(("inequality out of range", max(_KP_KEYS, key=lambda key: _modulus(getattr(g, key)))))
    return StateReport(not failures, failures)


def _kp_synth(c: np.ndarray) -> tuple[np.ndarray]:
    return (c @ _KP_DIAGONAL,)


def _kp_table(g: KPCoefficients) -> WalkTable:
    ratios = np.array((g.g2, g.g3, g.g4, g.gX), dtype=np.complex128) / _KP_DIMS
    return WalkTable(_KP_KEYS, ratios, _KP_DIMS, 2, _KP_LOWER, _kp_synth, _KP_WEIGHTS, _KP_DIAGONAL.shape[1])


def kp_convolution_power(g: KPCoefficients, k: int) -> KPCoefficients:
    """Coefficientwise power g_alpha^k / d_alpha^(k-1); g1 is 1, as for a state."""
    engine = g._engine
    return KPCoefficients(1.0, **dict(zip(engine.table.keys, engine.powers((k,))[0].tolist())))


def kp_qtv_to_haar(g: KPCoefficients, k: int) -> float:
    """Exact distance of the k-th convolution power to the Haar state."""
    kp_validate_state(g).require()
    return g._engine.qtv_many((k,))[0]


def kp_bounds(g: KPCoefficients, k: int) -> tuple[float, float]:
    """Lower and upper mixing bounds at step k."""
    kp_validate_state(g).require()
    return g._engine.bounds_many((k,))[0]


@dataclass(frozen=True)
class KPProfile:
    """Fourier data of a functional on the Kac-Paljutkin algebra."""

    values: dict[str, complex]  # one-dimensional representations rho1..rho4
    xblock: np.ndarray  # 2x2 matrix on the two-dimensional representation


def kp_fourier_profile(x: AlgebraElement) -> KPProfile:
    """Fourier matrices of F(x), built from the explicit coefficients."""
    if x.shape != KP_SHAPE:
        raise ValueError("element does not live in C(KP)")
    irr = _KP_IRREPS
    values = {name: haar_integral(irr[name] * x) for name in ("rho1", "rho2", "rho3", "rho4")}
    xc = x_matrix_coefficients()
    block = np.array(
        [[haar_integral(xc[i][j] * x) for j in range(2)] for i in range(2)],
        dtype=np.complex128,
    )
    return KPProfile(values, block)


def kp_central_block(g: KPCoefficients) -> np.ndarray:
    """Closed form of the 2x2 block for a character combination: gX/2 * I."""
    return 0.5 * complex(g.gX) * np.eye(2, dtype=np.complex128)


def pal_idempotents() -> list[AlgebraElement]:
    """Elements whose Fourier transforms are the eight idempotent states.

    Indexing follows the classical list: entry i holds the element of
    phi_{i+1}, with phi_8 the Haar state.
    """
    s = KP_SHAPE
    z = np.zeros((2, 2))
    return [
        AlgebraElement(s, [8, 0, 0, 0], z),
        AlgebraElement(s, [4, 4, 0, 0], z),
        AlgebraElement(s, [4, 0, 4, 0], z),
        AlgebraElement(s, [4, 0, 0, 4], z),
        AlgebraElement(s, [2, 2, 2, 2], z),
        AlgebraElement(s, [2, 0, 0, 2], np.diag([2.0, 0.0])),
        AlgebraElement(s, [2, 0, 0, 2], np.diag([0.0, 2.0])),
        unit(s),
    ]


# The limit phi_i of a convergent walk, named by the keys of the ratios at
# 1; None is the Haar state.  The state inequalities leave no other set up
# to the tolerance, and one that appears anyway is reported as ambiguous.
_KP_LIMITS = {
    frozenset(): None,
    frozenset({"g2", "g3", "g4", "gX"}): 1,
    frozenset({"g2", "g3", "g4"}): 4,
    frozenset({"g4"}): 5,
    frozenset({"g2"}): 6,
    frozenset({"g3"}): 7,
}


def _kp_key(text: str, n: None) -> str:
    """A config label: g1 or a key of the engine's table."""
    if text != "g1" and text not in _KP_KEYS:
        raise ValueError(f"unknown label {text!r}")
    return text


def _kp_limit(g: KPCoefficients, ones: frozenset) -> tuple[str, int | None, str]:
    if ones not in _KP_LIMITS:
        raise AmbiguousBoundaryError(f"no idempotent state has the ratios {sorted(ones)} at 1")
    index = _KP_LIMITS[ones]
    kind = "haar" if index is None else "pal"
    return kind, index, f"kp:{kind}"


KP_WALK = WalkGroup(
    key=_kp_key,
    element=lambda n, coeffs: KPCoefficients(**{"g1": 0.0, **coeffs}),
    check=lambda g, tol: kp_validate_state(g, tol),
    table=lambda g: _kp_table(g),
    limit=_kp_limit,
    diverges="kp:diverges",
    describe=lambda index: {"index": index},
    meta=("outcome", "index", "period"),
    label=lambda key: "gX/2" if key == "gX" else key,  # gX is reported as its ratio gX/2
    has_n=False,
)


def kp_classify(g: KPCoefficients, tol: float = DEFAULT_TOL) -> LimitClassification:
    """Decide the limit of the walk driven by g among the phi_i (``limit`` is i; phi_1 is reached at k = 1)."""
    return classify_walk(KP_WALK, g, tol)
