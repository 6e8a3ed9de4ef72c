import numpy as np
import pytest

from qgwalk.algebra import haar_integral, l1_norm, qtv_distance, unit
from qgwalk.idempotents import is_central_functional, is_idempotent_state
from qgwalk.kp8 import (
    KP_SHAPE,
    KPCoefficients,
    kp_bounds,
    kp_central_block,
    kp_classify,
    kp_convolution_power,
    kp_element,
    kp_fourier_profile,
    kp_irreps,
    kp_qtv_to_haar,
    kp_validate_state,
    pal_idempotents,
    x_matrix_coefficients,
)
from qgwalk.sekine import NotAStateError


def random_valid_kp(rng) -> KPCoefficients:
    """Rejection-sample real coefficient vectors satisfying the state conditions."""
    while True:
        g2, g3, g4 = rng.uniform(-1, 1, 3)
        if 1 + g2 - g3 - g4 < 0 or 1 - g2 + g3 - g4 < 0 or 1 - g2 - g3 + g4 < 0:
            continue
        cap = 0.5 * (1 + g2 + g3 + g4)
        if cap < 0:
            continue
        gx = rng.uniform(-cap, cap) if cap > 0 else 0.0
        return KPCoefficients(1.0, g2, g3, g4, gx)


class TestIrreps:
    def test_rho1_is_unit(self):
        assert kp_irreps()["rho1"].allclose(unit(KP_SHAPE))

    def test_chi_x_abelian(self):
        assert np.allclose(kp_irreps()["chiX"].abelian, [2, 0, 0, -2])

    def test_rho2_matrix(self):
        assert np.allclose(kp_irreps()["rho2"].matrix, np.diag([1.0, -1.0]))

    def test_characters_orthonormal(self):
        irr = list(kp_irreps().values())
        for i, a in enumerate(irr):
            for j, b in enumerate(irr):
                val = haar_integral(a.adjoint() * b)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_x_coefficients_form_a_representation(self):
        # unitarity: sum_k X_ik X_jk^* = delta_ij as algebra elements
        xc = x_matrix_coefficients()
        for i in range(2):
            for j in range(2):
                acc = xc[i][0] * xc[j][0].adjoint() + xc[i][1] * xc[j][1].adjoint()
                expect = unit(KP_SHAPE) if i == j else 0.0 * unit(KP_SHAPE)
                assert acc.allclose(expect, 1e-12)

    def test_x_character_consistency(self):
        xc = x_matrix_coefficients()
        assert (xc[0][0] + xc[1][1]).allclose(kp_irreps()["chiX"], 1e-12)


class TestValidateState:
    def test_phi1_coefficients(self):
        assert kp_validate_state(KPCoefficients(1, 1, 1, 1, 2)).is_state

    def test_interior_point(self):
        assert kp_validate_state(KPCoefficients(1, 0.5, 0.5, 0.5, 0)).is_state

    def test_gx_too_large(self):
        report = kp_validate_state(KPCoefficients(1, 0, 0, 0, 3))
        assert not report.is_state

    def test_walk_functions_refuse_with_the_report(self):
        g = KPCoefficients(1, 0, 0, 0, 3)
        for call in (kp_classify, lambda g: kp_bounds(g, 2), lambda g: kp_qtv_to_haar(g, 3)):
            with pytest.raises(NotAStateError) as info:
                call(g)
            assert info.value.report == kp_validate_state(g)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_rejected(self, bad):
        for slot in range(5):
            values = [1, 0, 0, 0, 0]
            values[slot] = bad
            report = kp_validate_state(KPCoefficients(*values))
            assert not report.is_state
            names = [w[0] for name, w in report.failures if name == "coefficient not finite"]
            assert names == [("g1", "g2", "g3", "g4", "gX")[slot]]

    def test_complex_rejected(self):
        report = kp_validate_state(KPCoefficients(1, 0.5j, 0, 0, 0))
        assert not report.is_state


class TestFourierOracle:
    def test_central_block_formula(self, rng):
        # first-principles block against gX/2 * identity
        for _ in range(100):
            g = KPCoefficients(*(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
            prof = kp_fourier_profile(kp_element(g))
            assert np.abs(prof.xblock - kp_central_block(g)).max() < 1e-12

    def test_one_dim_values_are_coefficients(self, rng):
        # rho(u) are involutions, so the value at rho(u) is g_u
        for _ in range(20):
            g = KPCoefficients(*(rng.standard_normal(5)))
            prof = kp_fourier_profile(kp_element(g))
            assert prof.values["rho1"] == pytest.approx(complex(g.g1), abs=1e-12)
            assert prof.values["rho2"] == pytest.approx(complex(g.g2), abs=1e-12)
            assert prof.values["rho4"] == pytest.approx(complex(g.g4), abs=1e-12)


class TestConvolution:
    def test_e2_e3_coefficients_always_equal(self, rng):
        for _ in range(50):
            g = random_valid_kp(rng)
            for k in (1, 2, 5, 9):
                x = kp_element(kp_convolution_power(g, k))
                assert x.abelian[1] == pytest.approx(x.abelian[2], abs=1e-12)

    def test_bounds_example(self):
        lo, up = kp_bounds(KPCoefficients(1, 0.5, 0.5, 0.5, 0), 1)
        assert lo == pytest.approx(0.25)
        assert up == pytest.approx(np.sqrt(3) / 4)

    def test_haar_driver_zero_bounds(self):
        lo, up = kp_bounds(KPCoefficients(1, 0, 0, 0, 0), 3)
        assert lo == 0.0 and up == 0.0

    def test_sandwich(self, rng):
        for _ in range(100):
            g = random_valid_kp(rng)
            for k in (1, 2, 5, 10, 25, 50):
                lo, up = kp_bounds(g, k)
                q = kp_qtv_to_haar(g, k)
                assert lo - 1e-9 <= q <= up + 1e-9

    def test_distance_matches_element_oracle(self, rng):
        # the explicit element of the k-th power, with the unit subtracted
        for _ in range(50):
            g = random_valid_kp(rng)
            _, g2, g3, g4, gx = g.as_tuple()
            for k in (1, 2, 5, 50):
                powered = KPCoefficients(1.0, g2**k, g3**k, g4**k, gx**k / 2.0 ** (k - 1))
                oracle = 0.5 * l1_norm(kp_element(powered) - unit(KP_SHAPE))
                assert kp_qtv_to_haar(g, k) == pytest.approx(oracle, abs=1e-12)

    def test_exponential_envelope(self, rng):
        # convergent walks decay like (sqrt(7)/2) g_m^k
        for _ in range(30):
            g = random_valid_kp(rng)
            gm = max(abs(g.g2), abs(g.g3), abs(g.g4), abs(g.gX) / 2)
            if gm >= 1 - 1e-9:
                continue
            for k in (1, 10, 30):
                assert kp_qtv_to_haar(g, k) <= np.sqrt(7) / 2 * gm**k + 1e-9


class TestClassification:
    def test_six_cases(self):
        cases = [
            ((1, 1, 1, 1, 2), "pal", 1),
            ((1, 1, 1, 1, 0.5), "pal", 4),
            ((1, 1, 0.5, 0.5, 0), "pal", 6),
            ((1, 0.5, 1, 0.5, 0), "pal", 7),
            ((1, 0.5, 0.5, 1, 0), "pal", 5),
            ((1, 1, 1, 1, -2), "diverges", None),
        ]
        for tup, kind, index in cases:
            g = KPCoefficients(*tup)
            assert kp_validate_state(g).is_state
            c = kp_classify(g)
            assert c.kind == kind
            if index is not None:
                assert c.limit == index

    def test_haar_case(self):
        c = kp_classify(KPCoefficients(1, 0.5, 0.5, 0.5, 0))
        assert c.kind == "haar"

    def test_phi1_exact_at_k1(self):
        g = KPCoefficients(1, 1, 1, 1, 2)
        c = kp_classify(g)
        assert c.limit == 1
        assert kp_element(g).allclose(pal_idempotents()[0])

    def test_gx_minus_two_alternation(self):
        g = KPCoefficients(1, 1, 1, 1, -2)
        c = kp_classify(g)
        assert c.kind == "diverges" and c.period == 2
        odd = kp_element(g)
        assert np.allclose(odd.abelian, [0, 0, 0, 8]) and np.allclose(odd.matrix, 0.0)
        even = kp_element(kp_convolution_power(g, 2))
        assert np.allclose(even.abelian, [8, 0, 0, 0]) and np.allclose(even.matrix, 0.0)

    def test_negative_one_coefficient_diverges(self):
        g = KPCoefficients(1, -1, -1, 1, 0)
        assert kp_validate_state(g).is_state
        c = kp_classify(g)
        assert c.kind == "diverges" and c.period == 2

    def test_convergent_cases_reach_limit(self):
        cases = [
            ((1, 1, 1, 1, 0.5), 4),
            ((1, 1, 0.5, 0.5, 0), 6),
            ((1, 0.5, 1, 0.5, 0), 7),
            ((1, 0.5, 0.5, 1, 0), 5),
        ]
        for tup, index in cases:
            g = KPCoefficients(*tup)
            transient = max(
                t
                for t in (abs(g.g2), abs(g.g3), abs(g.g4), abs(g.gX) / 2)
                if t < 1 - 1e-9
            )
            k = int(np.ceil(np.log(1e-8) / np.log(transient)))
            x = kp_element(kp_convolution_power(g, k))
            assert l1_norm(x - pal_idempotents()[index - 1]) <= 1e-6


class TestPalIdempotents:
    def test_listed_elements(self):
        els = pal_idempotents()
        assert np.allclose(els[0].abelian, [8, 0, 0, 0])
        assert np.allclose(els[5].abelian, [2, 0, 0, 2])
        assert np.allclose(els[5].matrix, np.diag([2.0, 0.0]))
        assert els[7].allclose(unit(KP_SHAPE))

    def test_all_idempotent_states(self):
        for x in pal_idempotents():
            assert is_idempotent_state(x, 1e-10, group="kp")

    def test_centrality_split(self):
        # phi_2 and phi_3 are the non-central idempotents, which is why no
        # character-driven walk converges to them
        central = [True, False, False, True, True, True, True, True]
        for x, expect in zip(pal_idempotents(), central):
            assert is_central_functional(x, group="kp") == expect

    def test_distance_between_distinct_idempotents_positive(self):
        els = pal_idempotents()
        for i in range(8):
            for j in range(i + 1, 8):
                assert qtv_distance(els[i], els[j]) > 0.05
