"""Convolution powers of central states on KP_n and their asymptotics.

The k-th convolution power of a = sum a_alpha chi_alpha has coefficients
a_alpha^k / d_alpha^(k-1), so the whole walk is driven by the ratios
a_alpha / d_alpha.  A walk converges when every nontrivial ratio lies in
the open unit disc or equals 1; the limit is then read off from the
coefficients that sit exactly at 1, and reconstructed as one of the
central idempotent states.  Ratios on the unit circle away from 1 force
divergence, cyclic when the angles are commensurable.

The walk engine here also drives the Kac-Paljutkin group and the dual of
KP_n: each group describes itself by a WalkTable.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraShape,
    l1_norm,
)
from .idempotents import (
    HaarSpec,
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    IdempotentSpec,
    build_idempotent,
    has_reflection_symmetry,
    is_subgroup,
)
from .sekine import (
    CentralElement,
    IrrepLabel,
    _coeff_slot,
    _element_arrays,
    _split_coeffs,
    central_to_element,
    rho_plus,
    trivial_label,
    validate_state,
)

# A ratio whose modulus lies within ROOT_TOL of 1, or whose phase lies
# within ROOT_TOL of a root of unity of the group's order, is powered
# exactly there, so boundary walks do not drift off the circle.
ROOT_TOL = 1e-12


class NotAStateError(ValueError):
    """The driving coefficients do not define a state."""


class AmbiguousBoundaryError(RuntimeError):
    """A ratio sits too close to the unit circle to classify reliably."""


def _require_state(a: CentralElement, tol: float = DEFAULT_TOL) -> None:
    report = validate_state(a, tol)
    if not report.is_state:
        raise NotAStateError(f"not a state: {report.failures}")


@dataclass(frozen=True)
class WalkTable:
    """What the walk engine needs to know about one group and one state.

    ``ratios`` are the non-trivial r_alpha = a_alpha / d_alpha, named by
    ``keys``, with dimensions ``dims``; ``lower`` marks the ratios that
    enter the lower bound.  Phases that are ``order``-th roots of unity
    are powered exactly.  ``synth`` maps the powered coefficients
    a_alpha^k / d_alpha^(k-1) to the (abelian, matrix) coordinates of
    a^k - h in an algebra of the given ``shape``.  The trivial character
    is the unit and the state's trivial coefficient is 1, so a^k - h is
    the sum over the non-trivial characters alone: nothing is
    subtracted, and small distances keep their relative precision.
    """

    shape: AlgebraShape
    keys: Sequence
    ratios: np.ndarray
    dims: np.ndarray
    order: int
    lower: np.ndarray
    synth: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _kpn_table(a: CentralElement) -> WalkTable:
    n = a.n
    labels = sorted(label for label in a.coeffs if label != trivial_label())
    slots = np.array([_coeff_slot(n, label) for label in labels], dtype=int)
    dims = np.array([float(label.dim) for label in labels])
    ratios = np.array([a.coefficient(label) for label in labels], dtype=np.complex128) / dims
    size = 4 * n + n * (n // 2 + 1)

    def synth(c):
        flat = np.zeros(size, dtype=np.complex128)
        flat[slots] = c
        return _element_arrays(n, *_split_coeffs(n, flat))

    # negated n-th roots of unity are exact too (rho^- coefficients of boundary walks)
    order = math.lcm(2, n)
    return WalkTable(AlgebraShape.sekine(n), labels, ratios, dims, order, np.ones(len(labels), bool), synth)


def _finite(x):
    if not np.isfinite(x).all():
        raise OverflowError("the powers of the walk leave the floating-point range")
    return x


class _PowerEngine:
    """Convolution powers, exact distance and mixing bounds of one walk.

    The k-th power has coefficients a_alpha^k / d_alpha^(k-1) = d_alpha
    r_alpha^k.  Powers are taken in polar form, |r_alpha|^k times
    exp(i k theta_alpha), with exact phases at the roots of unity; a
    state has |r_alpha| <= 1, so nothing overflows, and a non-finite
    result raises OverflowError.  The same formulas serve KP_n (built
    from a CentralElement), the Kac-Paljutkin group and the dual of KP_n
    (built from their WalkTable):

    * qtv = 1/2 ||a^k - h||_1, the L1 norm of ``algebra``;
    * upper = 1/2 sqrt(sum d_alpha^2 |r_alpha|^(2k));
    * lower = 1/2 max |r_alpha|^k over the table's lower-bound ratios.
    """

    def __init__(self, a: CentralElement | WalkTable):
        self.table = t = a if isinstance(a, WalkTable) else _kpn_table(a)
        mod = np.abs(t.ratios)
        self._mod = np.where(np.abs(mod - 1.0) <= ROOT_TOL, 1.0, mod)
        self._turns = None  # the phases, set on the first power; the bounds never need them

    def coefficients(self, k: int) -> np.ndarray:
        """a_alpha^k / d_alpha^(k-1) for the table's non-trivial characters."""
        if k < 1:
            raise ValueError("k must be positive")
        t = self.table
        if self._turns is None:
            # phases in units of 2 pi / order, snapped to integers at roots of unity
            turns = np.arctan2(t.ratios.imag, t.ratios.real) * (t.order / (2.0 * np.pi))
            root = np.rint(turns)
            self._turns = np.where(np.abs(turns - root) <= ROOT_TOL, root, turns)
        # reducing mod order keeps the phases of roots of unity exact at every k
        phase = np.exp((2j * np.pi / t.order) * ((self._turns * k) % t.order))
        return _finite(t.dims * self._mod**k * phase)

    def qtv(self, k: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            ab, mat = self.table.synth(self.coefficients(k))
            return _finite(0.5 * l1_norm(AlgebraElement(self.table.shape, ab, mat)))

    def lower(self, k: int) -> float:
        return 0.5 * math.pow(float(self._mod[self.table.lower].max(initial=0.0)), k)

    def upper(self, k: int) -> float:
        # the sum is taken relative to the largest ratio, so no term overflows
        top = float(self._mod.max(initial=0.0))
        if top == 0.0:
            return 0.0
        total = float(self.table.dims**2 @ (self._mod / top) ** (2 * k))
        return 0.5 * math.pow(top, k) * math.sqrt(total)


def convolution_power(a: CentralElement, k: int) -> CentralElement:
    """Coefficients of the k-th convolution power of a state."""
    if k == 1:
        return a
    engine = _PowerEngine(a)
    powered = zip(engine.table.keys, engine.coefficients(k))
    return CentralElement(a.n, {trivial_label(): 1.0, **{l: complex(c) for l, c in powered if c != 0.0}})


def qtv_to_haar(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Exact total variation distance of the k-th power to the Haar state."""
    _require_state(a, tol)
    return _PowerEngine(a).qtv(k)


def ds_upper_bound(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Upper mixing bound: sqrt of the weighted power sums of |a_alpha|."""
    _require_state(a, tol)
    return _PowerEngine(a).upper(k)


def ds_lower_bound(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Lower mixing bound: half the k-th power of the largest ratio."""
    _require_state(a, tol)
    return _PowerEngine(a).lower(k)


def circle_period(ratios, max_period: int, tol: float, circle_tol: float) -> int | None:
    """Smallest asymptotic period of the powers of some coefficient ratios.

    Ratios inside the unit disc die out; the period is the smallest
    p <= max_period with |r^p - 1| <= tol for every ratio r on the
    circle (| |r| - 1 | <= circle_tol), and None when there is none.
    """
    r = np.asarray(ratios, dtype=np.complex128)
    circle = r[np.abs(np.abs(r) - 1.0) <= circle_tol]
    for p in range(1, max_period + 1):
        if np.all(np.abs(circle**p - 1.0) <= tol):
            return p
    return None


@dataclass(frozen=True)
class LabelEvidence:
    """Position of one coefficient ratio relative to the unit circle."""

    label: IrrepLabel
    ratio_modulus: float
    equals_one: bool
    on_circle: bool


@dataclass(frozen=True)
class LimitClassification:
    """Asymptotic behaviour of the walk driven by a central state."""

    kind: str  # "haar" | "idempotent" | "diverges"
    spec: IdempotentSpec | None = None
    period: int | None = None
    branch: str = ""
    evidence: list[LabelEvidence] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _evidence(a: CentralElement, tol: float) -> list[LabelEvidence]:
    out = []
    for label in sorted(a.coeffs):
        if label == trivial_label():
            continue
        r = a.coefficient(label) / label.dim
        on_circle = abs(abs(r) - 1.0) <= tol
        out.append(LabelEvidence(label, abs(r), on_circle and abs(r - 1.0) <= tol, on_circle))
    return out


def _limit_element(a: CentralElement, tol: float) -> CentralElement:
    """Coefficient map of lim a^(*k): d_alpha where the ratio is 1, else 0."""
    coeffs = {}
    for label, c in a.coeffs.items():
        if abs(c / label.dim - 1.0) <= tol:
            coeffs[label] = complex(label.dim)
    return CentralElement(a.n, coeffs)


def _recognize_idempotent(limit: CentralElement, tol: float = 1e-8) -> IdempotentSpec:
    """Match a limit element against the idempotent-state normal forms."""
    n = limit.n
    x = central_to_element(limit)
    ab = x.abelian.reshape(n, n).real
    mat = x.matrix
    peak = ab.max()
    support = {(i, j) for i in range(n) for j in range(n) if ab[i, j] > 0.5 * peak}
    if np.abs(mat).max() <= tol:
        if not is_subgroup(n, support):
            raise AmbiguousBoundaryError("limit support is not a subgroup")
        if not has_reflection_symmetry(n, support):
            raise AmbiguousBoundaryError("limit support lacks reflection symmetry")
        spec: IdempotentSpec = HGammaSpec(frozenset(support))
    else:
        i_support = sorted({i for i, _ in support})
        j_support = sorted({j for _, j in support})
        q = n // len(j_support)
        diag_rows = [m for m in range(1, n + 1) if abs(mat[m - 1, m - 1]) > tol]
        residues = {m % q for m in diag_rows}
        if len(residues) != 1:
            raise AmbiguousBoundaryError("diagonal support has no single residue")
        l = residues.pop()
        if i_support == list(range(n)):
            spec = HGammaLSpec(q, l)
        else:
            p = n // len(i_support)
            base = diag_rows[0] - 1  # 0-based row; tau read off its band values
            tau = tuple(
                int(round((mat[base, (base + t * q) % n] / q).real)) for t in range(n // q)
            )
            spec = HGammaLTauSpec(p, q, l, tau)
    rebuilt = build_idempotent(spec, n)
    if l1_norm(rebuilt - x) > 1e-6:
        raise AmbiguousBoundaryError(f"reconstructed {spec} does not match the limit")
    return spec


def _branch_name(a: CentralElement, spec: IdempotentSpec, tol: float) -> str:
    even = a.n % 2 == 0
    if isinstance(spec, HGammaSpec):
        return "even:rho-paired" if even else "odd:rho-paired"
    if isinstance(spec, HGammaLSpec):
        return "even:sigma-split-q2"
    if isinstance(spec, HGammaLTauSpec):
        if spec.q == 1:
            return "even:plus-only" if even else "odd:plus-only"
        return "even:sigma-pair-q2"
    return "haar"


def detect_cycle(
    a: CentralElement,
    max_period: int = 16,
    tol: float = 1e-8,
) -> int | None:
    """Smallest asymptotic period of the coefficient powers.

    Computed exactly from the ratios on the unit circle (see
    ``circle_period``); None when it exceeds max_period.
    """
    _require_state(a)
    return circle_period(_kpn_table(a).ratios, max_period, tol, tol)


def classify_limit(
    a: CentralElement, tol: float = DEFAULT_TOL, max_period: int | None = None
) -> LimitClassification:
    """Decide convergence and identify the limit state if one exists."""
    _require_state(a, tol)
    evidence = _evidence(a, tol)
    notes: list[str] = []
    if a.n == 2 and any(e.label.kind.startswith("sigma") for e in evidence):
        notes.append("n=2: sigma indices are taken mod 2, so sigma_2 denotes sigma_0")
    for e in evidence:
        if not e.on_circle and abs(e.ratio_modulus - 1.0) <= 10.0 * tol:
            raise AmbiguousBoundaryError(
                f"{e.label}: ratio modulus {e.ratio_modulus!r} is too close to the circle"
            )
    divergent = [e for e in evidence if e.on_circle and not e.equals_one]
    if divergent:
        period = detect_cycle(a, max_period=max_period or max(2 * a.n, 16))
        return LimitClassification(
            "diverges", period=period, branch="boundary-divergence", evidence=evidence, notes=notes
        )
    boundary = [e for e in evidence if e.equals_one]
    if not boundary:
        return LimitClassification("haar", spec=HaarSpec(), branch="haar", evidence=evidence, notes=notes)
    limit = _limit_element(a, tol)
    spec = _recognize_idempotent(limit)
    return LimitClassification(
        "idempotent",
        spec=spec,
        branch=_branch_name(a, spec, tol),
        evidence=evidence,
        notes=notes,
    )


def cutoff_state(n: int) -> CentralElement:
    """The cosine-coefficient state a_{rho_l^+} = cos(2 pi l / n), odd n.

    For even n the coefficient at l = n/2 would be -1 and the walk
    would not converge to the Haar state, so even n is rejected.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the cosine walk requires odd n >= 3")
    coeffs = {rho_plus(l): complex(math.cos(2.0 * math.pi * l / n)) for l in range(n)}
    return CentralElement(n, coeffs)


def cutoff_bounds(n: int, k: int) -> tuple[float, float, float]:
    """(lower, sharp upper, threshold upper) for the cosine walk.

    The lower bound and the sharp upper bound hold at every step; the
    simple exponential upper bound is certified for k >= n^2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the cosine walk requires odd n >= 3")
    if k < 1:
        raise ValueError("k must be positive")
    pi2 = math.pi**2
    lower = 0.5 * math.exp(-k * (pi2 / (2.0 * n * n) + math.pi**4 / (4.0 * n**4)))
    ratio = math.exp(-k * pi2 / (n * n))
    upper_sharp = math.sqrt(ratio / (2.0 * (1.0 - math.exp(-3.0 * k * pi2 / (n * n)))))
    upper_theorem = math.exp(-k * pi2 / (2.0 * n * n))
    return lower, upper_sharp, upper_theorem


@dataclass(frozen=True)
class WalkStep:
    k: int
    qtv: float
    lower: float
    upper: float


@dataclass(frozen=True)
class WalkReport:
    """Per-step distances plus the final classification of a walk."""

    n: int
    steps: list[WalkStep]
    classification: LimitClassification
    cycle: int | None = None


def walk_trace(
    a: CentralElement,
    k_max: int,
    tol: float = DEFAULT_TOL,
    max_period: int | None = None,
) -> WalkReport:
    """Record exact distance and both bounds for k = 1..k_max."""
    _require_state(a, tol)
    engine = _PowerEngine(a)
    steps = []
    for k in range(1, k_max + 1):
        steps.append(WalkStep(k, engine.qtv(k), engine.lower(k), engine.upper(k)))
    classification = classify_limit(a, tol, max_period=max_period)
    cycle = None
    if classification.kind == "diverges":
        cycle = classification.period
    return WalkReport(a.n, steps, classification, cycle)
