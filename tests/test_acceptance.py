"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line.  Criterion 3b
checks the no-cut-off window at c = 0: the cosine-walk distance at
k = n^2 lies between 1/2 exp(-pi^2/2 - pi^4/(4n^2)) and exp(-pi^2/2),
two bounds that stay away from 0 and 1 uniformly in n, and it agrees
with a 50-digit reference.  An earlier window of [0.05, 0.95] was
dropped: the certified upper bound exp(-k pi^2 / 2n^2) is about 7.2e-3
at k = n^2, so no correct distance can reach 0.05 there.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from qgwalk.algebra import l1_norm
from qgwalk.dual import (
    XHAT,
    DualCentralElement,
    dual_classify,
    dual_fourier_values,
    epsilon_to_element,
    is_pointwise_central_idempotent,
)
from qgwalk.idempotents import (
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    build_idempotent,
    enumerate_central_idempotents,
    idempotent_profile,
    is_central_functional,
    is_idempotent_state,
)
from qgwalk.kp8 import (
    KPCoefficients,
    kp_bounds,
    kp_central_block,
    kp_classify,
    kp_convolution_power,
    kp_element,
    kp_fourier_profile,
    kp_qtv_to_haar,
    kp_validate_state,
    pal_idempotents,
)
from qgwalk.sekine import (
    CentralElement,
    central_profile,
    central_to_element,
    convolve,
    fourier_profile,
    rho_minus,
    rho_plus,
    sigma_plus,
    trivial_label,
    validate_state,
    x_label,
)
from qgwalk.walks import (
    _kpn_table,
    _PowerEngine,
    classify_limit,
    convolution_power,
    cutoff_bounds,
    cutoff_state,
    detect_cycle,
    walk_trace,
)
from conftest import random_central_state
from test_kp8 import random_valid_kp


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{'  ' + detail if detail else ''}")


def transient_horizon(ratios, floor=1e-8) -> int:
    m = max((r for r in ratios if r < 1 - 1e-9), default=0.0)
    return 1 if m == 0.0 else math.ceil(math.log(floor) / math.log(m))


def test_criterion_1_kp_bound_sandwich():
    """500 random valid coefficient vectors, k = 1..50, within 1e-9, < 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(500):
        g = random_valid_kp(rng)
        _, g2, g3, g4, gx = g.as_tuple()
        for k in range(1, 51):
            q = kp_qtv_to_haar(g, k)
            lower = 0.5 * max(abs(g2), abs(g3), abs(g4)) ** k
            upper = math.sqrt(
                0.25 * (abs(g2) ** (2 * k) + abs(g3) ** (2 * k) + abs(g4) ** (2 * k))
                + abs(gx) ** (2 * k) / 4.0**k
            )
            assert lower - 1e-9 <= q <= upper + 1e-9, (g, k, lower, q, upper)
            lo_impl, up_impl = kp_bounds(g, k)
            assert lo_impl == pytest.approx(lower, abs=1e-12)
            assert up_impl == pytest.approx(upper, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report("1 (bound sandwich, 8-dim group)", True, f"{elapsed:.2f}s")


def test_criterion_2_sekine_bound_sandwich():
    """n = 3..12, 200 random central states each, k = 1..50, < 60 s."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for n in range(3, 13):
        for _ in range(200):
            a = random_central_state(n, rng)
            trace = walk_trace(a, 50)
            for s in trace.steps:
                assert s.lower - 1e-9 <= s.qtv <= s.upper + 1e-9, (n, s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report("2 (bound sandwich, Sekine family)", True, f"{elapsed:.2f}s")


def _cutoff_grid():
    for n in (5, 15, 51):
        for c in (-2, -1, 0, 1, 2):
            yield n, c, math.ceil(math.exp(c) * n * n)


def test_criterion_3_cutoff_bounds():
    """Lower bound at every k; theorem upper bound for k >= n^2; < 120 s."""
    t0 = time.perf_counter()
    values = {}
    for n, c, k in _cutoff_grid():
        engine = _PowerEngine(_kpn_table(cutoff_state(n)))
        q = engine.qtv_many((k,))[0]
        values[(n, c)] = q
        lower, _, upper_theorem = cutoff_bounds(n, k)
        assert lower - 1e-9 <= q, (n, c, k, lower, q)
        if k >= n * n:
            assert q <= upper_theorem + 1e-9, (n, c, k, q, upper_theorem)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
    report("3 (cut-off bounds)", True, f"{elapsed:.2f}s")


def _cosine_qtv_reference(n: int, k: int) -> float:
    """qtv = sum_i |s_i - 1| / 2n at 50 digits, s_i = sum_l cos(2 pi l/n)^k cos(2 pi i l/n).

    The l = 0 term of s_i is exactly 1, so s_i - 1 is summed over l != 0
    directly; for odd n the terms l and n - l agree.
    """
    with mpmath.workdps(50):
        cos = [mpmath.cos(2 * mpmath.pi * m / n) for m in range(n)]
        half = [cos[l] ** k for l in range(1, (n - 1) // 2 + 1)]
        total = mpmath.fsum(
            abs(2 * mpmath.fsum(p * cos[(i * l) % n] for l, p in enumerate(half, start=1)))
            for i in range(n)
        )
        return float(total / (2 * n))


def test_criterion_3_no_cutoff_window_at_c0():
    """No cut-off at c = 0: the distance at k = n^2 sits in a fixed window.

    For n = 5, 15, 51 the exact distance at k = n^2 must lie in
    [lower_n, upper] with lower_n = 1/2 exp(-pi^2/2 - pi^4/(4n^2)) and
    upper = exp(-pi^2/2).  Uniformly in odd n >= 3, lower_n is at least
    1/2 exp(-pi^2/2 - pi^4/36) > 0 and upper < 1, so the window is
    bounded away from 0 and 1.  Each value must also match a 50-digit
    reference to a relative 1e-9, so a wrong value cannot pass by
    falling inside the window.  The window [0.05, 0.95] that this test
    once asserted contradicts the certified upper bound at k = n^2; it
    holds at k = e^-1 n^2 and e^-2 n^2 instead.
    """
    upper = math.exp(-math.pi**2 / 2)
    rows = []
    ok = True
    for n in (5, 15, 51):
        k = n * n
        q = _PowerEngine(_kpn_table(cutoff_state(n))).qtv_many((k,))[0]
        lower = 0.5 * math.exp(-math.pi**2 / 2 - math.pi**4 / (4 * n * n))
        ref = _cosine_qtv_reference(n, k)
        rel = abs(q - ref) / ref
        rows.append(f"n={n}: {lower:.4e} <= {q:.4e} <= {upper:.4e} (ref {ref:.4e}, rel {rel:.1e})")
        ok = ok and lower <= q <= upper and rel <= 1e-9
    detail = "; ".join(rows)
    report("3b (no-cut-off window at c = 0)", ok, detail)
    assert ok, f"distance at k = n^2 outside its window or off the reference: {detail}"


def _n5_witnesses():
    n = 5
    # limit h_Gamma: all rho pairs at 1, decaying X part
    coeffs = {}
    for l in range(n):
        coeffs[rho_plus(l)] = 1.0
        coeffs[rho_minus(l)] = 1.0
    for u in range(n):
        coeffs[x_label(u, 1)] = 0.5
    h_gamma = CentralElement(n, coeffs)
    plus_only = CentralElement(
        n,
        {**{rho_plus(l): 1.0 for l in range(n)}, **{rho_minus(l): 0.5 for l in range(n)}},
    )
    eta = np.exp(2j * np.pi / n)
    phi = CentralElement(n, {rho_plus(l): eta**l for l in range(n)})
    return [
        (cutoff_state(n), "haar", None),
        (h_gamma, "idempotent", HGammaSpec(frozenset((0, j) for j in range(n)))),
        (plus_only, "idempotent", HGammaLTauSpec(n, 1, 0, (1,) * n)),
        (phi, "diverges", None),
    ]


def _n6_witnesses():
    n = 6
    strict = CentralElement(n, {trivial_label(): 1.0, rho_plus(1): 0.3, rho_plus(5): 0.3})
    h_gamma = CentralElement(
        n,
        {
            rho_plus(0): 1.0, rho_minus(0): 1.0, rho_plus(3): 1.0, rho_minus(3): 1.0,
            x_label(0, 1): 0.25, x_label(3, 1): 0.25,
        },
    )
    sigma_split = CentralElement(
        n,
        {trivial_label(): 1.0, sigma_plus(0): 1.0, x_label(0, 1): 0.5, x_label(0, 2): 0.5},
    )
    plus_only = CentralElement(
        n,
        {**{rho_plus(l): 1.0 for l in range(n)}, **{rho_minus(l): 0.5 for l in range(n)}},
    )
    sigma_pair = CentralElement(
        n,
        {**{rho_plus(2 * i): 1.0 for i in range(3)}, **{sigma_plus(2 * i): 1.0 for i in range(3)}},
    )
    flip = CentralElement(n, {rho_plus(0): 1.0, rho_minus(0): -1.0})
    # boundary coefficients at l in {0, 3} concentrate the limit on the
    # annihilator of {0, 3} in the first coordinate: the even residues
    gamma = frozenset((i, j) for i in (0, 2, 4) for j in range(n))
    return [
        (strict, "haar", None),
        (h_gamma, "idempotent", HGammaSpec(gamma)),
        (sigma_split, "idempotent", HGammaLSpec(2, 0)),
        (plus_only, "idempotent", HGammaLTauSpec(n, 1, 0, (1,) * n)),
        (sigma_pair, "idempotent", HGammaLTauSpec(3, 2, 0, (1, 1, 1))),
        (flip, "diverges", None),
    ]


def test_criterion_4_classification_witnesses():
    """One witness per limit branch for n = 5 and n = 6, plus all KP cases."""
    for witnesses in (_n5_witnesses(), _n6_witnesses()):
        for a, kind, spec in witnesses:
            assert validate_state(a).is_state, a
            c = classify_limit(a)
            assert c.kind == kind, (a.n, kind, c)
            if spec is not None:
                assert c.limit == spec, (a.n, spec, c.limit)
            if kind == "idempotent":
                ratios = [abs(v) / l.dim for l, v in a.coeffs.items()]
                k = transient_horizon(ratios)
                x = central_to_element(convolution_power(a, k))
                assert l1_norm(x - build_idempotent(c.limit, a.n)) <= 1e-6

    kp_cases = [
        ((1, 1, 1, 1, 2), "pal", 1),
        ((1, 1, 1, 1, 0.5), "pal", 4),
        ((1, 1, 0.5, 0.5, 0), "pal", 6),
        ((1, 0.5, 1, 0.5, 0), "pal", 7),
        ((1, 0.5, 0.5, 1, 0), "pal", 5),
        ((1, 1, 1, 1, -2), "diverges", None),
        ((1, 0.4, 0.3, 0.2, 0.1), "haar", None),
    ]
    for tup, kind, index in kp_cases:
        g = KPCoefficients(*tup)
        assert kp_validate_state(g).is_state
        c = kp_classify(g)
        assert c.kind == kind and (index is None or c.limit == index), (tup, c)
        if kind == "pal":
            ratios = [abs(g.g2), abs(g.g3), abs(g.g4), abs(g.gX) / 2]
            k = transient_horizon(ratios)
            x = kp_element(kp_convolution_power(g, k))
            assert l1_norm(x - pal_idempotents()[c.limit - 1]) <= 1e-6

    # exact endpoints of the gX = +-2 branches
    assert kp_element(KPCoefficients(1, 1, 1, 1, 2)).allclose(pal_idempotents()[0])
    g = KPCoefficients(1, 1, 1, 1, -2)
    assert kp_classify(g).period == 2
    assert np.allclose(kp_element(g).abelian, [0, 0, 0, 8])
    assert np.allclose(kp_element(kp_convolution_power(g, 2)).abelian, [8, 0, 0, 0])
    report("4 (classification witnesses)", True)


def test_criterion_5_idempotency_and_centrality():
    """Projector profiles and exact centrality for every enumerated state.

    Deviation from the stated criterion, recorded in the decisions
    ledger: phi_2 and phi_3 are idempotent but NOT central (their
    2x2 Fourier block is diag(0, 1) resp. diag(1, 0)), which is exactly
    why no character-driven walk converges to them.  The test asserts
    the true centrality split.
    """
    for n in range(2, 13):
        for spec in enumerate_central_idempotents(n):
            x = build_idempotent(spec, n)
            assert is_idempotent_state(x, 1e-10), (n, spec)
            assert is_central_functional(x), (n, spec)
            if isinstance(spec, (HGammaLSpec, HGammaLTauSpec)):
                got = fourier_profile(x)
                assert got.allclose(idempotent_profile(spec, n), 1e-10), (n, spec)
    central_expected = [True, False, False, True, True, True, True, True]
    for i, (x, expect) in enumerate(zip(pal_idempotents(), central_expected), 1):
        assert is_idempotent_state(x, 1e-10, group="kp"), f"phi_{i}"
        got = is_central_functional(x, group="kp")
        assert got == expect, f"phi_{i}: central={got}, expected {expect}"
    report("5 (idempotency and centrality)", True, "phi_2/phi_3 verified non-central")


def test_criterion_6_cyclic_examples():
    """Periods of the rotation walks and the matrix-flip walk."""

    def phi(n, p):
        eta = np.exp(2j * np.pi / n)
        q = n // p
        return CentralElement(n, {rho_plus(l * p): eta ** (l * p) for l in range(q)})

    def psi(n, p):
        eta = np.exp(2j * np.pi / n)
        q = n // p
        coeffs = {}
        for l in range(q):
            coeffs[rho_plus(l * p)] = eta ** (l * p)
            coeffs[rho_minus(l * p)] = -(eta ** (l * p))
        return CentralElement(n, coeffs)

    for n, p, period in ((6, 2, 3), (9, 3, 3), (5, 1, 5)):
        a = phi(n, p)
        assert validate_state(a).is_state
        assert detect_cycle(a, 2 * n) == period, (n, p)

    for n, p in ((9, 3), (6, 2), (8, 2)):
        q = n // p
        a = psi(n, p)
        assert validate_state(a).is_state
        assert detect_cycle(a, 2 * n) == math.lcm(2, q), (n, p)

    for n in (3, 4, 7):
        a = CentralElement(n, {rho_plus(0): 1.0, rho_minus(0): -1.0})
        assert detect_cycle(a, 2 * n) == 2
        even = central_to_element(convolution_power(a, 2))
        full = build_idempotent(
            HGammaSpec(frozenset((i, j) for i in range(n) for j in range(n))), n
        )
        # paper's wording calls the even steps "the Haar state"; the even
        # steps equal the uniform idempotent of the abelian subgroup, the
        # element 2 sum e_(i,j), not the unit (see the decisions ledger)
        assert l1_norm(even - full) <= 1e-10
    report("6 (cyclic examples)", True)


def test_criterion_7_oracle_equivalence():
    """Convolution powers vs profile products; the explicit KP block."""
    rng = np.random.default_rng(707)
    count = 0
    while count < 100:
        n = int(rng.integers(2, 11))
        a = random_central_state(n, rng)
        prof = central_profile(a)
        acc = prof
        for k in range(2, 31):
            acc = convolve(acc, prof)
            direct = central_profile(convolution_power(a, k))
            assert acc.allclose(direct, 1e-10), (n, k)
        count += 1

    for _ in range(100):
        g = KPCoefficients(*(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        block = kp_fourier_profile(kp_element(g)).xblock
        assert np.abs(block - kp_central_block(g)).max() <= 1e-12
    report("7 (oracle equivalence)", True)


def test_criterion_8_dual_proposition():
    """Three limit branches on the dual; limits are central idempotents."""
    n = 4
    haar_case = DualCentralElement(n, {(0, 0): 1.0, (1, 0): 0.5, XHAT: 1.0})
    assert dual_classify(haar_case).kind == "haar"

    diverge_case = DualCentralElement(n, {(0, 0): 1.0, (2, 1): 1.5})
    assert dual_classify(diverge_case).kind == "diverges"

    limit_cases = [
        DualCentralElement(n, {(0, 0): 1.0, XHAT: float(n)}),
        DualCentralElement(n, {(0, 0): 1.0, (1, 0): 1.0, (2, 2): 0.5}),
        DualCentralElement(n, {(0, 0): 1.0, (0, 2): 1.0, XHAT: float(n)}),
    ]
    for a in limit_cases:
        c = dual_classify(a)
        assert c.kind == "idempotent"
        x = epsilon_to_element(c.limit)
        # criterion 5's checks, transported to the dual structure where the
        # convolution is the pointwise product (see the decisions ledger):
        # blockwise idempotency of the dual Fourier data and centrality as
        # commutation, i.e. a scalar matrix part
        assert is_pointwise_central_idempotent(x, 1e-12)
        vals = dual_fourier_values(
            DualCentralElement(
                n,
                {**{k: 1.0 for k in c.limit.abelian},
                 **({XHAT: float(n)} if c.limit.xhat else {})},
            )
        )
        assert all(abs(v * v - v) <= 1e-12 for v in vals.values())
        assert np.allclose(x.matrix, c.limit.xhat * np.eye(n))
    report("8 (dual proposition)", True)
