import math

import mpmath
import numpy as np
import pytest

from qgwalk.algebra import l1_norm
from qgwalk.idempotents import (
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    build_idempotent,
)
from qgwalk.sekine import (
    CentralElement,
    central_profile,
    central_to_element,
    convolve,
    profile_to_central,
    rho_minus,
    rho_plus,
    sigma_minus,
    sigma_plus,
    trivial_label,
    validate_state,
    x_label,
)
from qgwalk.walks import (
    NotAStateError,
    classify_limit,
    convolution_power,
    cutoff_bounds,
    cutoff_state,
    detect_cycle,
    ds_lower_bound,
    ds_upper_bound,
    qtv_to_haar,
    walk_trace,
)
from conftest import random_central_state
from test_acceptance import _cosine_qtv_reference


def eta(n):
    return np.exp(2j * np.pi / n)


def phi_p(n, p):
    q = n // p
    return CentralElement(n, {rho_plus(l * p): eta(n) ** (l * p) for l in range(q)})


def psi_p(n, p):
    q = n // p
    coeffs = {}
    for l in range(q):
        coeffs[rho_plus(l * p)] = eta(n) ** (l * p)
        coeffs[rho_minus(l * p)] = -(eta(n) ** (l * p))
    return CentralElement(n, coeffs)


def plus_only_state(n, minus=0.5):
    coeffs = {rho_plus(l): 1.0 for l in range(n)}
    coeffs.update({rho_minus(l): minus for l in range(n)})
    return CentralElement(n, coeffs)


class TestConvolutionPower:
    def test_k1_identity(self, rng):
        a = random_central_state(4, rng)
        assert convolution_power(a, 1) is a

    def test_phi_p_powers_rotate(self):
        n, p = 6, 2
        a = phi_p(n, p)
        b = convolution_power(a, 4)
        for l in range(3):
            assert b.coefficient(rho_plus(l * p)) == pytest.approx(
                eta(n) ** (4 * l * p), abs=1e-12
            )

    def test_power_matches_profile_products(self, rng):
        for n in (3, 4, 6):
            a = random_central_state(n, rng)
            prof = central_profile(a)
            acc = prof
            for k in range(2, 12):
                acc = convolve(acc, prof)
                direct = central_profile(convolution_power(a, k))
                assert acc.allclose(direct, 1e-10)

    def test_additivity_of_powers(self, rng):
        a = random_central_state(5, rng)
        p1 = central_profile(convolution_power(a, 7))
        p2 = central_profile(convolution_power(a, 5))
        combined = profile_to_central(convolve(p1, p2))
        assert combined.allclose(convolution_power(a, 12), 1e-9)

    def test_large_k_no_overflow(self):
        a = plus_only_state(5)
        b = convolution_power(a, 10**6)
        assert abs(b.coefficient(rho_plus(1)) - 1.0) < 1e-9
        assert abs(b.coefficient(rho_minus(1))) < 1e-300 or b.coefficient(rho_minus(1)) == 0.0


class TestQtvToHaar:
    def test_unit_driver_zero(self):
        a = CentralElement(4, {trivial_label(): 1.0})
        for k in (1, 5, 20):
            assert qtv_to_haar(a, k) == pytest.approx(0.0, abs=1e-14)

    def test_phi_p_stays_far(self):
        a = phi_p(6, 2)
        for k in range(1, 13):
            assert qtv_to_haar(a, k) >= 0.5 - 1e-12

    def test_requires_state(self):
        a = CentralElement(3, {trivial_label(): 1.0, rho_plus(1): 5.0})
        with pytest.raises(NotAStateError):
            qtv_to_haar(a, 1)

    def test_sandwich_random_states(self, rng):
        for n in range(3, 11):
            for _ in range(5):
                a = random_central_state(n, rng)
                for k in (1, 2, 5, 10, 25, 50):
                    q = qtv_to_haar(a, k)
                    assert ds_lower_bound(a, k) - 1e-9 <= q <= ds_upper_bound(a, k) + 1e-9

    def test_tail_matches_high_precision_reference(self):
        # distances from 1e-9 down to 3e-15 keep their relative precision:
        # the unit is never subtracted, so nothing cancels
        n = 51
        a = cutoff_state(n)
        for c in (1.4, 1.5, 1.6, 1.7, 1.8, 1.9):
            k = round(math.exp(c) * n * n)
            ref = _cosine_qtv_reference(n, k)
            assert qtv_to_haar(a, k) == pytest.approx(ref, rel=1e-9, abs=0.0), (c, k)


class TestBounds:
    def test_unit_bounds_zero(self):
        a = CentralElement(5, {trivial_label(): 1.0})
        assert ds_upper_bound(a, 3) == 0.0
        assert ds_lower_bound(a, 3) == 0.0

    def test_cosine_upper_bound_chain(self):
        # the closed-form chain dominates the Fourier sum bound
        for n in (5, 9, 15):
            a = cutoff_state(n)
            for k in (n, n * n, 2 * n * n):
                chain = math.sqrt(
                    math.exp(-k * math.pi**2 / n**2)
                    / (2 * (1 - math.exp(-3 * k * math.pi**2 / n**2)))
                )
                assert ds_upper_bound(a, k) <= chain + 1e-12

    def test_cosine_lower_bound_chain(self):
        for n in (5, 9):
            a = cutoff_state(n)
            for k in (1, n, n * n):
                closed = 0.5 * math.cos(math.pi / n) ** k
                assert ds_lower_bound(a, k) == pytest.approx(closed, rel=1e-12)
                assert closed >= 0.5 * math.exp(
                    -k * math.pi**2 / (2 * n**2) - k * math.pi**4 / (4 * n**4)
                )

    def test_boundary_coefficient_keeps_half(self):
        a = phi_p(5, 1)
        for k in (1, 10, 100):
            assert ds_lower_bound(a, k) == pytest.approx(0.5)


class TestClassify:
    def test_cosine_converges_to_haar(self):
        for n in (3, 5, 9):
            c = classify_limit(cutoff_state(n))
            assert c.kind == "haar"

    def test_h_gamma_branch(self):
        # rho_l^+- all equal to 1 with an X transient: limit h_Gamma
        n = 5
        coeffs = {}
        for l in range(n):
            coeffs[rho_plus(l)] = 1.0
            coeffs[rho_minus(l)] = 1.0
        for u in range(n):
            coeffs[x_label(u, 1)] = 0.5
        a = CentralElement(n, coeffs)
        assert validate_state(a).is_state
        c = classify_limit(a)
        assert c.kind == "idempotent"
        assert isinstance(c.spec, HGammaSpec)
        assert c.spec.members == frozenset((0, j) for j in range(n))

    def test_sigma_split_branch(self):
        # even n, sigma_0^+ = 1: limit h_(q=2, l)
        n = 6
        for l, label in ((0, sigma_plus(0)), (1, sigma_minus(0))):
            coeffs = {trivial_label(): 1.0, label: 1.0, x_label(0, 1): 0.5, x_label(0, 2): 0.5}
            a = CentralElement(n, coeffs)
            assert validate_state(a).is_state
            c = classify_limit(a)
            assert c.kind == "idempotent"
            assert c.spec == HGammaLSpec(2, l)

    def test_plus_only_branch(self):
        for n in (5, 6):
            c = classify_limit(plus_only_state(n))
            assert c.kind == "idempotent"
            assert c.spec == HGammaLTauSpec(n, 1, 0, tuple([1] * n))

    def test_sigma_pair_branch(self):
        n = 6
        coeffs = {}
        for i in range(3):
            coeffs[rho_plus(2 * i)] = 1.0
            coeffs[sigma_plus(2 * i)] = 1.0
        a = CentralElement(n, coeffs)
        assert validate_state(a).is_state
        c = classify_limit(a)
        assert c.spec == HGammaLTauSpec(3, 2, 0, (1, 1, 1))

    def test_phi_p_diverges(self):
        c = classify_limit(phi_p(6, 2))
        assert c.kind == "diverges" and c.period == 3

    def test_ambiguous_boundary_reported_not_guessed(self):
        from qgwalk.walks import AmbiguousBoundaryError

        n = 5
        coeffs = {rho_plus(l): 1.0 for l in range(n)}
        coeffs.update({rho_minus(l): 1.0 - 5e-9 for l in range(n)})
        a = CentralElement(n, coeffs)
        assert validate_state(a).is_state
        with pytest.raises(AmbiguousBoundaryError):
            classify_limit(a, tol=1e-9)

    def test_n2_sigma_note(self):
        a = CentralElement(2, {trivial_label(): 1.0, sigma_plus(0): 0.5})
        assert validate_state(a).is_state
        c = classify_limit(a)
        assert any("sigma" in note for note in c.notes)


class TestDetectCycle:
    def test_phi_p_periods(self):
        assert detect_cycle(phi_p(6, 2), 10) == 3
        assert detect_cycle(phi_p(9, 3), 10) == 3
        assert detect_cycle(phi_p(5, 1), 10) == 5

    def test_psi_p_period_lcm(self):
        assert detect_cycle(psi_p(9, 3), 10) == 6

    def test_matrix_flip_period_two(self):
        for n in (3, 4):
            a = CentralElement(n, {rho_plus(0): 1.0, rho_minus(0): -1.0})
            assert detect_cycle(a, 8) == 2
            even = central_to_element(convolution_power(a, 2))
            full = build_idempotent(
                HGammaSpec(frozenset((i, j) for i in range(n) for j in range(n))), n
            )
            assert even.allclose(full, 1e-10)

    def test_asymptotic_period_with_transient(self):
        # boundary part has period 2, transient part decays
        n = 5
        coeffs = {rho_plus(0): 1.0, rho_minus(0): -1.0}
        coeffs.update({rho_plus(l): 0.5 for l in range(1, n)})
        coeffs.update({rho_minus(l): -0.5 for l in range(1, n)})
        a = CentralElement(n, coeffs)
        assert validate_state(a).is_state
        assert detect_cycle(a, 8, tol=1e-8) == 2

    def test_none_when_period_exceeds_cap(self):
        # true period 5 is invisible with max_period 3
        assert detect_cycle(phi_p(5, 1), 3) is None


class TestCutoff:
    def test_cutoff_state_coefficients(self):
        a = cutoff_state(3)
        assert a.coefficient(rho_plus(0)) == pytest.approx(1.0)
        assert a.coefficient(rho_plus(1)) == pytest.approx(math.cos(2 * math.pi / 3))
        assert a.coefficient(rho_plus(2)) == pytest.approx(math.cos(4 * math.pi / 3))

    def test_cutoff_state_abelian_value(self):
        x = central_to_element(cutoff_state(5))
        assert x.abelian.reshape(5, 5)[1, 0] == pytest.approx(2.5)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            cutoff_state(4)

    def test_bounds_high_precision_reference(self):
        # closed forms against 50-digit evaluation
        with mpmath.workdps(50):
            for n, k in ((5, 25), (15, 225), (51, 2601), (5, 7), (15, 100)):
                lo, us, ut = cutoff_bounds(n, k)
                pi = mpmath.pi
                lo_ref = 0.5 * mpmath.e ** (-k * (pi**2 / (2 * n**2) + pi**4 / (4 * n**4)))
                us_ref = mpmath.sqrt(
                    mpmath.e ** (-k * pi**2 / n**2)
                    / (2 * (1 - mpmath.e ** (-3 * k * pi**2 / n**2)))
                )
                ut_ref = mpmath.e ** (-k * pi**2 / (2 * n**2))
                assert lo == pytest.approx(float(lo_ref), rel=1e-12)
                assert us == pytest.approx(float(us_ref), rel=1e-12)
                assert ut == pytest.approx(float(ut_ref), rel=1e-12)

    def test_theorem_upper_value_n5(self):
        _, _, ut = cutoff_bounds(5, 25)
        assert ut == pytest.approx(7.191883e-3, rel=1e-6)

    def test_lower_below_sharp_upper_past_threshold(self):
        for n in range(3, 52, 2):
            ks = np.unique(np.linspace(n * n, 10 * n * n, 40, dtype=int))
            for k in ks:
                lo, us, _ = cutoff_bounds(n, int(k))
                assert lo <= us + 1e-15

    def test_all_bounds_vanish(self):
        lo, us, ut = cutoff_bounds(5, 10**6)
        assert lo < 1e-300 and us < 1e-300 and ut < 1e-300


class TestWalkTrace:
    def test_unit_trace_zero(self):
        a = CentralElement(3, {trivial_label(): 1.0})
        report = walk_trace(a, 10)
        assert all(s.qtv == 0.0 and s.lower == 0.0 and s.upper == 0.0 for s in report.steps)

    def test_cosine_trace_within_cutoff_bounds(self):
        n = 5
        report = walk_trace(cutoff_state(n), 200)
        for s in report.steps:
            lo, us, ut = cutoff_bounds(n, s.k)
            assert lo - 1e-9 <= s.qtv <= us + 1e-9
            if s.k >= n * n:
                assert s.qtv <= ut + 1e-9
        assert report.classification.kind == "haar"

    def test_random_state_sandwich(self, rng):
        a = random_central_state(6, rng)
        report = walk_trace(a, 30)
        for s in report.steps:
            assert s.lower - 1e-9 <= s.qtv <= s.upper + 1e-9

    def test_divergent_walk_reports_cycle(self):
        report = walk_trace(phi_p(6, 2), 12)
        assert report.classification.kind == "diverges"
        assert report.cycle == 3


class TestConvergenceRates:
    def test_convergent_branches_reach_their_idempotent(self):
        # transient^k <= 1e-8 forces the L1 gap to the limit below 1e-6
        cases = []
        n = 5
        coeffs = {}
        for l in range(n):
            coeffs[rho_plus(l)] = 1.0
            coeffs[rho_minus(l)] = 1.0
        for u in range(n):
            coeffs[x_label(u, 1)] = 0.5
        cases.append(CentralElement(n, coeffs))
        cases.append(plus_only_state(5))
        cases.append(plus_only_state(6))
        for a in cases:
            c = classify_limit(a)
            assert c.kind == "idempotent"
            transient = max(
                (abs(v / l.dim) for l, v in a.coeffs.items() if abs(v / l.dim) < 1 - 1e-9),
                default=0.0,
            )
            k = 1 if transient == 0.0 else math.ceil(math.log(1e-8) / math.log(transient))
            x = central_to_element(convolution_power(a, k))
            limit = build_idempotent(c.spec, a.n)
            assert l1_norm(x - limit) <= 1e-6

    def test_haar_convergence_rate(self, rng):
        # qtv <= (n / sqrt(2)) M^k for strictly contracting states
        for n in (3, 4, 5):
            a = random_central_state(n, rng)
            ratios = [abs(v) / l.dim for l, v in a.coeffs.items() if l != trivial_label()]
            m = max(ratios, default=0.0)
            if m >= 1 - 1e-9:
                continue
            for k in (1, 5, 10, 30):
                assert qtv_to_haar(a, k) <= (a.n / math.sqrt(2.0)) * m**k + 1e-9
