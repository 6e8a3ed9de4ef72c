"""The eight-dimensional Kac-Paljutkin quantum group.

The algebra is C^4 + M_2(C).  Irreducible representations: four
one-dimensional rho(1)..rho(4) and one two-dimensional, written X here,
whose matrix coefficients are fully explicit.  That makes the 2x2
Fourier block computable from first principles, which doubles as an
independent oracle for the block calculus used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    haar_integral,
    unit,
)
from .algebra import l1_norm  # noqa: F401 -- kept bound here: perfbench's tracer test patches this binding
from .sekine import StateReport
from .walks import WalkTable, _PowerEngine, circle_period

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
# by its matrix diagonal, listed twice: with weight 1/8 per entry that is
# the abelian weight 1/8 and the matrix weight 2/8 of C^4 + M_2(C).
_KP_KEYS = ("g2", "g3", "g4", "gX")
_KP_DIMS = np.array([1.0, 1.0, 1.0, 2.0])
_KP_DIAGONAL = np.array(
    [
        np.concatenate([x.abelian, np.diag(x.matrix), np.diag(x.matrix)])
        for x in (_KP_IRREPS[name] for name in ("rho2", "rho3", "rho4", "chiX"))
    ]
)
_KP_DIAGONAL_SHAPE = AlgebraShape(8, 0, 1.0 / 8.0, 0.0)
# The lower bound uses rho2..rho4 only.
_KP_LOWER = np.array([True, True, True, False])

# A KP ratio on the unit circle repeats with period p when
# |r^p - 1| <= KP_PERIOD_TOL.  For real coefficients those ratios are
# +-1, so the tolerance only has to sit between rounding (about 1e-16 p)
# and the distance 2 between the two.
KP_PERIOD_TOL = 1e-10


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

    g1: complex = 1.0
    g2: complex = 0.0
    g3: complex = 0.0
    g4: complex = 0.0
    gX: complex = 0.0

    def as_tuple(self):
        return (complex(self.g1), complex(self.g2), complex(self.g3), complex(self.g4), complex(self.gX))


def kp_element(g: KPCoefficients) -> AlgebraElement:
    irr = _KP_IRREPS
    out = g.g1 * irr["rho1"] + g.g2 * irr["rho2"] + g.g3 * irr["rho3"] + g.g4 * irr["rho4"]
    return out + g.gX * irr["chiX"]


def kp_validate_state(g: KPCoefficients, tol: float = DEFAULT_TOL) -> StateReport:
    """State conditions: g1 = 1, all coefficients real, five inequalities."""
    failures: list[tuple[str, object]] = []
    g1, g2, g3, g4, gx = g.as_tuple()
    for name, val in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4), ("gX", gx)):
        if abs(val.imag) > tol:
            failures.append(("coefficient not real", (name, val)))
    if abs(g1 - 1.0) > tol:
        failures.append(("normalization", g1))
    checks = [
        ("1+g2+g3+g4+2gX", (1 + g2 + g3 + g4 + 2 * gx).real),
        ("1+g2+g3+g4-2gX", (1 + g2 + g3 + g4 - 2 * gx).real),
        ("1+g2-g3-g4", (1 + g2 - g3 - g4).real),
        ("1-g2+g3-g4", (1 - g2 + g3 - g4).real),
        ("1-g2-g3+g4", (1 - g2 - g3 + g4).real),
    ]
    for name, val in checks:
        if val < -tol:
            failures.append(("inequality violated", (name, val)))
    return StateReport(not failures, failures)


def _kp_synth(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return c @ _KP_DIAGONAL, np.zeros((0, 0))


def _kp_table(g: KPCoefficients) -> WalkTable:
    ratios = np.array(g.as_tuple()[1:]) / _KP_DIMS
    return WalkTable(_KP_DIAGONAL_SHAPE, _KP_KEYS, ratios, _KP_DIMS, 2, _KP_LOWER, _kp_synth)


def kp_convolution_power(g: KPCoefficients, k: int) -> KPCoefficients:
    """Coefficientwise power g_alpha^k / d_alpha^(k-1); g1 is 1, as for a state."""
    engine = _PowerEngine(_kp_table(g))
    return KPCoefficients(1.0, **dict(zip(engine.table.keys, engine.coefficients(k).tolist())))


def kp_qtv_to_haar(g: KPCoefficients, k: int) -> float:
    """Exact distance of the k-th convolution power to the Haar state (g1 is 1)."""
    return _PowerEngine(_kp_table(g)).qtv(k)


def kp_bounds(g: KPCoefficients, k: int) -> tuple[float, float]:
    """Lower and upper mixing bounds at step k."""
    report = kp_validate_state(g)
    if not report.is_state:
        raise ValueError(f"not a state: {report.failures}")
    engine = _PowerEngine(_kp_table(g))
    return engine.lower(k), engine.upper(k)


@dataclass(frozen=True)
class KPProfile:
    """Fourier data of a functional on the Kac-Paljutkin algebra."""

    values: dict[str, complex]  # one-dimensional representations rho1..rho4
    xblock: np.ndarray  # 2x2 matrix on the two-dimensional representation

    def allclose(self, other: "KPProfile", tol: float = 1e-10) -> bool:
        if any(abs(self.values[k] - other.values[k]) > tol for k in self.values):
            return False
        return bool(np.allclose(self.xblock, other.xblock, atol=tol, rtol=0.0))


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


PAL_COUNT = 8


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


@dataclass(frozen=True)
class KPClassification:
    """Asymptotic behaviour of a Kac-Paljutkin random walk."""

    kind: str  # "haar" | "pal" | "diverges"
    pal_index: int | None = None  # 1-based index of the limit phi_i
    period: int | None = None
    immediate: bool = False  # limit already reached at k = 1
    evidence: dict[str, float] = field(default_factory=dict)


def kp_classify(g: KPCoefficients, tol: float = DEFAULT_TOL) -> KPClassification:
    """Decide the limit of the walk driven by g among the phi_i."""
    report = kp_validate_state(g, tol)
    if not report.is_state:
        raise ValueError(f"not a state: {report.failures}")
    _, g2, g3, g4, gx = (v.real for v in g.as_tuple())
    evidence = {"g2": abs(g2), "g3": abs(g3), "g4": abs(g4), "gX/2": abs(gx) / 2.0}

    def is_one(v):
        return abs(v - 1.0) <= tol

    def is_minus_one(v):
        return abs(v + 1.0) <= tol

    if abs(gx - 2.0) <= tol:
        return KPClassification("pal", pal_index=1, immediate=True, evidence=evidence)
    if abs(gx + 2.0) <= tol or any(is_minus_one(v) for v in (g2, g3, g4)):
        period = circle_period(_kp_table(g).ratios, 16, KP_PERIOD_TOL, tol)
        return KPClassification("diverges", period=period, evidence=evidence)
    ones = sum(1 for v in (g2, g3, g4) if is_one(v))
    if ones >= 2:
        return KPClassification("pal", pal_index=4, evidence=evidence)
    if is_one(g2):
        return KPClassification("pal", pal_index=6, evidence=evidence)
    if is_one(g3):
        return KPClassification("pal", pal_index=7, evidence=evidence)
    if is_one(g4):
        return KPClassification("pal", pal_index=5, evidence=evidence)
    return KPClassification("haar", evidence=evidence)
