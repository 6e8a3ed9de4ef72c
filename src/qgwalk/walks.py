"""Convolution powers of central states on KP_n and their asymptotics.

The k-th convolution power of a = sum a_alpha chi_alpha has coefficients
a_alpha^k / d_alpha^(k-1), so the whole walk is driven by the ratios
a_alpha / d_alpha.  A walk converges when every nontrivial ratio lies in
the open unit disc or equals 1.  The limit of a convergent walk of
central states is a central idempotent state, named exactly from the
labels whose ratio is 1 (``idempotents.spec_from_labels``).  Ratios on
the unit circle away from 1 force divergence, cyclic when the angles
are commensurable.

The walk engine here also drives the Kac-Paljutkin group and the dual of
KP_n: each group describes itself by a WalkTable.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import DEFAULT_TOL
from .idempotents import (
    AmbiguousBoundaryError,
    HaarSpec,
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    IdempotentSpec,
    spec_from_labels,
)
from .sekine import (
    CentralElement,
    NotAStateError,  # noqa: F401 -- re-exported: the name callers of the walk functions catch
    StateReport,
    parse_label,
    rho_plus,
    trivial_label,
    validate_state,
    walk_columns,
    walk_synthesis,
)

# A ratio whose modulus lies within ROOT_TOL of 1, or whose phase lies
# within ROOT_TOL of a root of unity of the group's order, is powered
# exactly there, so boundary walks do not drift off the circle.
ROOT_TOL = 1e-12

# A ratio off the circle by more than tol but at most AMBIGUITY_FACTOR
# tol is too close to call: an error in the coefficients an order of
# magnitude above the tolerance would move it onto the circle.
AMBIGUITY_FACTOR = 10.0

# The engine powers and synthesises the steps of a walk a chunk of k at a
# time: a chunk holds about CHUNK_VALUES complex values per array (the
# table's ``width`` values per k), so a long walk on a large n needs no
# more memory than a short one.  2^13 values (128 KiB) per array keep a
# walk-mix pass as fast as 2^14 with half the transient memory.
CHUNK_VALUES = 2**13


class WalkTable(NamedTuple):
    """What the walk engine needs to know about one group and one state.

    ``ratios`` are the non-trivial r_alpha = a_alpha / d_alpha, named by ``keys`` in
    the order the evidence prints, with dimensions ``dims``; ``lower`` is the slice of
    the ratios that enter the lower bound.  Phases that are ``order``-th roots of unity
    are powered exactly.  ``synth`` maps the powered coefficients
    a_alpha^k / d_alpha^(k-1), a (K, m) array with one row per k, to the
    density of each a^k - h in the Fourier picture: a tuple of arrays
    with a leading K axis whose entries are its values, or the trace
    norms of its blocks, each counted with the Haar weight of the same
    place in ``weights``, so that ||a^k - h||_1 is
    sum_s weights[s] sum |synth(c)[s][row of k]|.  ``width`` is the
    number of complex values ``synth`` holds per k in its largest array,
    by which the engine sizes its chunks of k.  The trivial character is
    the unit and the state's trivial coefficient is 1, so a^k - h is the
    sum over the non-trivial characters alone: nothing is subtracted,
    and small distances keep their relative precision.  A table is an
    immutable named tuple, which is built on every one-k call and costs
    a fifth of a frozen dataclass to build.
    """

    keys: Sequence
    ratios: np.ndarray
    dims: np.ndarray
    order: int
    lower: slice
    synth: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    weights: tuple[float, ...]
    width: int


def _kpn_table(a: CentralElement) -> WalkTable:
    """The KP_n walk as seen by the engine: the Fourier values of a^k - h, keyed by the labels in sorted order."""
    return _flat_table(a.n, *walk_columns(a))


def _flat_table(n: int, keys: Sequence, slots: np.ndarray, ratios: np.ndarray, dims: np.ndarray) -> WalkTable:
    """The KP_n walk table of the non-trivial ``ratios`` at ``slots``, synthesised by ``sekine.walk_synthesis``."""
    # negated n-th roots of unity are exact too (rho^- coefficients of boundary walks)
    return WalkTable(keys, ratios, dims, math.lcm(2, n), slice(None), *walk_synthesis(n, slots))


def _finite(values: np.ndarray) -> list:
    if not np.isfinite(values).all():
        raise OverflowError("the powers of the walk leave the floating-point range")
    return values.tolist()


@dataclass(frozen=True)
class WalkStep:
    k: int
    qtv: float
    lower: float
    upper: float


class _PowerEngine:
    """Convolution powers, exact distance and mixing bounds of one walk.

    The k-th power has coefficients a_alpha^k / d_alpha^(k-1) = d_alpha
    r_alpha^k.  Powers are taken in polar form, |r_alpha|^k times
    exp(i k theta_alpha), with exact phases at the roots of unity; a
    state has |r_alpha| <= 1, so nothing overflows, and a non-finite
    result raises OverflowError.  The same formulas serve KP_n, the
    Kac-Paljutkin group and the dual of KP_n, each described by its
    WalkTable.  All three values are read off the same magnitudes
    |r_alpha|^k:

    * qtv = 1/2 ||a^k - h||_1, the weighted abs-sum of the table's
      Fourier values (``WalkTable.synth``) of the phased powers; no step
      builds the element or takes an SVD;
    * upper = 1/2 sqrt(sum d_alpha^2 |r_alpha|^(2k)), half the 2-norm of
      the powered magnitudes d_alpha |r_alpha|^k;
    * lower = 1/2 max |r_alpha|^k over the table's lower-bound ratios.

    Each call takes a sequence of k and gives one row or value per k;
    ``measure`` gives all three from one pass, so a walk is one engine call.
    A call for the bounds alone forms no phase factor and no synthesis: the
    phase angles are set when the engine is built.  The work runs over the
    ks a chunk at a time, with a leading K axis (see ``CHUNK_VALUES``); a
    one-k question is a batch of one k, whose row 0 is the answer.  The ks
    stay Python ints: k mod ``order`` is taken in integer arithmetic, and k
    itself enters as a float, so k = 10**307 works where an int64 array
    could not hold it.
    """

    def __init__(self, table: WalkTable):
        self.table = table
        mod = np.abs(table.ratios)
        # per-character rows of shape (1, m), against which the column of ks broadcasts
        self._mod = np.where(np.abs(mod - 1.0) <= ROOT_TOL, 1.0, mod)[None]
        self._dims = table.dims[None]
        # phases in units of 2 pi / order, snapped to integers at roots of unity
        turns = np.arctan2(table.ratios.imag, table.ratios.real)[None] * (table.order / (2.0 * np.pi))
        root = np.rint(turns)
        self._exact = np.abs(turns - root) <= ROOT_TOL
        self._turns = np.where(self._exact, root, turns)

    def _magnitudes(self, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each k as the nearest float, and |r_alpha|^k.

        The floats are a column, one row per k; the magnitudes have one
        row per k and one column per non-trivial character.
        """
        if min(ks, default=1) < 1:
            raise ValueError("k must be positive")
        exps = np.array(ks, dtype=float)[:, None]
        mag = self._mod**exps
        if 2 in ks:
            # squared, as the pinned k = 2 rows were: an array power of 2.0 can be an ulp off x*x
            mag[exps[:, 0] == 2.0] = np.square(self._mod[0])
        return exps, mag

    def _phased(self, ks: Sequence[int], exps: np.ndarray, size: np.ndarray) -> np.ndarray:
        """The powers d_alpha r_alpha^k from the ks, the ks as floats (``exps``) and the moduli ``size``."""
        t = self.table
        # k mod order in integer arithmetic, as a column
        reduced = np.array([k % t.order for k in ks], dtype=float)[:, None]
        # Integer turns take the reduced k, so roots of unity stay exact at
        # every k; so do powers that are 0, whose phase does not matter and
        # must not overflow.
        steps = np.where(self._exact | (size == 0.0), reduced, exps)
        return size * np.exp((2j * np.pi / t.order) * ((self._turns * steps) % t.order))

    def powers(self, ks: Sequence[int]) -> np.ndarray:
        """a_alpha^k / d_alpha^(k-1): one row per k, one column per non-trivial character.

        A non-finite power raises.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            exps, mag = self._magnitudes(ks)
            c = self._phased(ks, exps, self._dims * mag)
        _finite(c)
        return c

    def _pass(self, ks: Sequence[int], distance: bool, bounds: bool) -> list[list[float]]:
        """One power pass: the columns qtv if ``distance``, lower and upper if ``bounds``.

        A non-finite value raises.
        """
        t = self.table
        chunk = max(1, CHUNK_VALUES // t.width)
        qtv: list[float] = []
        lower: list[float] = []
        upper: list[float] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(ks), chunk):
                part = ks[start : start + chunk]
                exps, mag = self._magnitudes(part)
                size = self._dims * mag
                if distance:
                    values = t.synth(self._phased(part, exps, size))
                    sums = [w * np.add.reduce(np.abs(v).reshape(len(part), -1), axis=1) for w, v in zip(t.weights, values)]
                    # added left to right, from the first sum rather than from 0.0: no extra array operation
                    qtv += _finite(0.5 * sum(sums[1:], sums[0]))
                if bounds:
                    lower += _finite(0.5 * np.maximum.reduce(mag[:, t.lower], axis=1, initial=0.0))
                    # each row is scaled by a power of two, so its squares neither underflow nor
                    # overflow; the 1/2 enters the exponent, so the result is rounded once
                    _, e = np.frexp(np.maximum.reduce(size, axis=1, keepdims=True, initial=0.0))
                    scaled = np.ldexp(size, -e)
                    upper += _finite(np.ldexp(np.sqrt(np.add.reduce(scaled * scaled, axis=1)), e[:, 0] - 1))
        return [qtv] * distance + [lower, upper] * bounds

    def qtv_many(self, ks: Sequence[int]) -> list[float]:
        """qtv at each k."""
        return self._pass(ks, True, False)[0]

    def bounds_many(self, ks: Sequence[int]) -> list[tuple[float, float]]:
        """(lower, upper) at each k."""
        return list(zip(*self._pass(ks, False, True)))

    def measure(self, ks: Sequence[int]) -> list[list[float]]:
        """The columns qtv, lower and upper over the ks, from one power pass."""
        return self._pass(ks, True, True)

    def settled(self, floor: float) -> float:
        """A k from which qtv, lower and upper all stay below ``floor``, in closed form.

        Diaconis-Shahshahani: qtv <= upper = 1/2 sqrt(sum d_alpha^2 |r_alpha|^(2k))
        <= 1/2 sqrt(sum d_alpha^2) max|r_alpha|^k, and since every d_alpha >= 1,
        lower <= 1/2 max|r_alpha|^k is below the same bound.  The k returned is
        the first at which that bound falls under ``floor``, or the one after;
        1 when no ratio is non-zero, and ``math.inf`` when a ratio lies on or
        outside the circle, where nothing settles.
        """
        top = float(self._mod.max(initial=0.0))
        if top >= 1.0:
            return math.inf
        if top == 0.0:
            return 1
        scale = 0.5 * math.sqrt(float(np.square(self._dims).sum()))
        # the exact first k is floor(log(floor / scale) / log(top)) + 1; one more absorbs the rounding of the logs
        return math.floor(math.log(floor / scale) / math.log(top)) + 2


def convolution_power(a: CentralElement, k: int) -> CentralElement:
    """Coefficients of the k-th convolution power of a state."""
    if k == 1:
        return a
    engine = _PowerEngine(_kpn_table(a))
    powered = zip(engine.table.keys, engine.powers((k,))[0])
    return CentralElement(a.n, {trivial_label(): 1.0, **{l: complex(c) for l, c in powered if c != 0.0}})


def qtv_to_haar(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Exact total variation distance of the k-th power to the Haar state."""
    validate_state(a, tol).require()
    return _PowerEngine(_kpn_table(a)).qtv_many((k,))[0]


def ds_upper_bound(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Upper mixing bound: sqrt of the weighted power sums of |a_alpha|."""
    validate_state(a, tol).require()
    return _PowerEngine(_kpn_table(a)).bounds_many((k,))[0][1]


def ds_lower_bound(a: CentralElement, k: int, tol: float = DEFAULT_TOL) -> float:
    """Lower mixing bound: half the k-th power of the largest ratio."""
    validate_state(a, tol).require()
    return _PowerEngine(_kpn_table(a)).bounds_many((k,))[0][0]


def circle_period(ratios, max_period: int, tol: float) -> int | None:
    """Smallest p <= max_period with |r^p - 1| <= p tol for each given ratio r on the circle.

    A ratio within tol of a p-th root of unity meets that bound; None
    when no p does.
    """
    for p in range(1, max_period + 1):
        if all(abs(r**p - 1.0) <= p * tol for r in ratios):
            return p
    return None


@dataclass(frozen=True)
class LabelEvidence:
    """Position of one coefficient ratio relative to the unit circle."""

    label: object  # the key of the ratio in its WalkTable
    ratio_modulus: float
    equals_one: bool
    on_circle: bool


@dataclass(frozen=True)
class LimitClassification:
    """Asymptotic behaviour of the walk driven by a state, in any group."""

    kind: str  # "haar" | "diverges" | "idempotent" (KP_n, dual) | "pal" (KP)
    limit: object = None  # KP_n: the IdempotentSpec; KP: the i of phi_i; dual: the EpsilonVector
    period: int | None = None
    branch: str = ""
    evidence: list[LabelEvidence] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    table: WalkTable | None = field(default=None, compare=False, repr=False)  # the walk's engine table


class WalkGroup(NamedTuple):
    """A group's pieces of ``classify_walk`` and what the CLI prints of its walks.

    The slots that call a module's functions look them up when called, so
    a patched module attribute takes effect.  A ``classify`` document
    holds the kind as outcome, the branch, the notes, the keys ``describe``
    gives for a limit other than Haar and, unless ``brief``, the evidence
    and the period.
    """

    key: Callable[[str, int | None], object]  # the key a config label names, checked for n; ValueError if none
    element: Callable[[int | None, dict], object]  # the state, from n and the coefficients by key (absent: 0)
    check: Callable[[object, float], StateReport]
    table: Callable[[object], WalkTable]
    limit: Callable[[object, frozenset], tuple[str, object, str]]  # (kind, limit, branch) from the keys at 1
    diverges: str  # the branch of a diverging walk
    describe: Callable[[object], dict]
    meta: tuple[str, ...]  # the document keys the ``run`` meta holds
    notes: Callable[[object], list[str]] = lambda a: []
    label: Callable[[object], str] = str  # the name the evidence prints for a key
    brief: bool = False
    null_period: bool = False  # the meta holds a diverging walk's period even when none is found
    has_n: bool = True  # a config names the modulus n


def classify_walk(group: WalkGroup, a, tol: float = DEFAULT_TOL, max_period: int | None = None) -> LimitClassification:
    """Check the state once, build its table once, decide the circle once and name the limit.

    A ratio r is on the circle when | |r| - 1 | <= tol and equals one
    when also |r - 1| <= tol; off the circle by at most AMBIGUITY_FACTOR
    tol it raises AmbiguousBoundaryError.  A walk with a ratio on the
    circle away from 1 diverges, with the period of its ratios on the
    circle searched up to max(2n, 16) by default (KP counts as KP_2); a
    ratio outside the disc diverges with no period.  Any other walk
    converges to the limit its group names from the keys whose ratio is 1.
    """
    group.check(a, tol).require()
    table = group.table(a)
    evidence, ratios = [], table.ratios.tolist()
    for key, r in zip(table.keys, ratios):
        mod = abs(r)  # Python's abs: np.abs can differ in the last place, and the evidence prints it
        on_circle = abs(mod - 1.0) <= tol
        if not on_circle and abs(mod - 1.0) <= AMBIGUITY_FACTOR * tol:
            raise AmbiguousBoundaryError(f"{key}: ratio modulus {mod!r} is too close to the circle")
        evidence.append(LabelEvidence(key, mod, on_circle and abs(r - 1.0) <= tol, on_circle))
    notes = group.notes(a)
    outside = any(e.ratio_modulus > 1.0 and not e.on_circle for e in evidence)
    if outside or any(e.on_circle and not e.equals_one for e in evidence):
        circle = [r for r, e in zip(ratios, evidence) if e.on_circle]
        period = None if outside else circle_period(circle, max_period or max(2 * a.n, 16), tol)
        return LimitClassification("diverges", None, period, group.diverges, evidence, notes, table)
    kind, limit, branch = group.limit(a, frozenset(e.label for e in evidence if e.equals_one))
    return LimitClassification(kind, limit, None, branch, evidence, notes, table)


def _branch_name(n: int, spec: IdempotentSpec) -> str:
    even = n % 2 == 0
    if isinstance(spec, HGammaSpec):
        return "even:rho-paired" if even else "odd:rho-paired"
    if isinstance(spec, HGammaLSpec):
        return "even:sigma-split-q2"
    if isinstance(spec, HGammaLTauSpec):
        if spec.q == 1:
            return "even:plus-only" if even else "odd:plus-only"
        return "even:sigma-pair-q2"
    return "haar"


def _kpn_limit(a: CentralElement, ones: frozenset) -> tuple[str, IdempotentSpec, str]:
    # lim a^(*k) has coefficient d_alpha where the ratio is 1, else 0
    spec = spec_from_labels(a.n, ones)
    return "haar" if isinstance(spec, HaarSpec) else "idempotent", spec, _branch_name(a.n, spec)


def _describe_spec(spec: IdempotentSpec) -> dict:
    """The spec, its type as the outcome, and its q, l and p."""
    d = spec.describe()
    return {key: d[key] for key in ("q", "l", "p") if key in d} | {"outcome": d["type"], "spec": d}


def _kpn_notes(a: CentralElement) -> list[str]:
    sigma = a.n == 2 and any(label.kind.startswith("sigma") for label in a.coeffs)
    return ["n=2: sigma indices are taken mod 2, so sigma_2 denotes sigma_0"] if sigma else []


KPN_WALK = WalkGroup(
    key=parse_label,
    element=CentralElement,
    check=lambda a, tol: validate_state(a, tol),
    table=lambda a: _kpn_table(a),
    limit=_kpn_limit,
    diverges="boundary-divergence",
    describe=_describe_spec,
    meta=("outcome", "spec", "period", "branch"),
    notes=_kpn_notes,
    null_period=True,
)


def detect_cycle(
    a: CentralElement,
    max_period: int | None = None,
    tol: float = DEFAULT_TOL,
) -> int | None:
    """Smallest asymptotic period of the coefficient powers: 1 for a walk that converges.

    A reading of ``classify_limit``, with its tolerance and default
    max_period; None when the period exceeds max_period.
    """
    c = classify_limit(a, tol, max_period)
    return c.period if c.kind == "diverges" else 1


def classify_limit(
    a: CentralElement, tol: float = DEFAULT_TOL, max_period: int | None = None
) -> LimitClassification:
    """Decide convergence of a KP_n walk and identify the limit state if one exists."""
    return classify_walk(KPN_WALK, a, tol, max_period)


def _cosines(n: int) -> np.ndarray:
    """cos(2 pi l / n) for l = 0..n-1, the coefficients of the cosine walk; odd n >= 3 only.

    For even n the coefficient at l = n/2 would be -1 and the walk
    would not converge to the Haar state, so even n is rejected.  An n too large for memory is refused at once.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the cosine walk requires odd n >= 3")
    return np.fromiter((math.cos(2.0 * math.pi * l / n) for l in range(n)), np.float64, count=n)


def cutoff_state(n: int) -> CentralElement:
    """The cosine-coefficient state a_{rho_l^+} = cos(2 pi l / n), odd n.

    It is a state, so no caller needs to check it: the trivial
    coefficient is cos 0 = 1; the abelian part is
    sum_l cos(2 pi l / n) eta^(il) = (n/2)(delta_{i,1} + delta_{i,n-1}),
    constant in j, real and nonnegative; the matrix block is the real
    symmetric circulant with entry cos(2 pi l / n) on band l, whose
    eigenvalues are (n/2)(delta_{w,1} + delta_{w,n-1}) >= 0.
    """
    return CentralElement(n, {rho_plus(l): complex(c) for l, c in enumerate(_cosines(n))})


def cutoff_table(n: int) -> WalkTable:
    """The engine table of ``cutoff_state(n)``, built from its coefficients alone.

    The ratios are the cosines at the rho_l^+ slots l = 1..n-1, each of
    dimension 1, and the keys are those l: no label and no element is
    built.  The keys name no label, so the table is for powering only
    (``cutoff``); ``classify_walk`` needs the labels of ``_kpn_table``.
    """
    ratios = _cosines(n)[1:].astype(np.complex128)
    return _flat_table(n, range(1, n), np.arange(1, n), ratios, np.ones(n - 1))


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
class WalkReport:
    """Per-step distances plus the final classification of a walk."""

    n: int
    steps: list[WalkStep]
    classification: LimitClassification


def walk_trace(
    a: CentralElement,
    k_max: int,
    tol: float = DEFAULT_TOL,
    max_period: int | None = None,
) -> WalkReport:
    """Record exact distance and both bounds for k = 1..k_max."""
    classification = classify_limit(a, tol, max_period=max_period)  # the state check
    ks = range(1, k_max + 1)
    steps = [WalkStep(k, q, lo, up) for k, q, lo, up in zip(ks, *_PowerEngine(classification.table).measure(ks))]
    return WalkReport(a.n, steps, classification)
