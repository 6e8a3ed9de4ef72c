import numpy as np
import pytest

from qgwalk.algebra import AlgebraShape
from qgwalk.dual import (
    XHAT,
    DualCentralElement,
    dual_bounds,
    dual_classify,
    dual_fourier_values,
    dual_power,
    dual_qtv_to_haar,
    dual_to_primal,
    dual_validate_state,
    epsilon_to_element,
    is_pointwise_central_idempotent,
)
from qgwalk.sekine import NotAStateError, fourier_profile, genuine_x_range


def random_dual_state(n, rng, boundary=False):
    coeffs = {(0, 0): 1.0}
    for _ in range(rng.integers(1, 6)):
        i, j = (int(t) for t in rng.integers(0, n, 2))
        if (i, j) != (0, 0):
            coeffs[(i, j)] = float(rng.uniform(0, 1.0 if not boundary else 1.0))
    if boundary:
        i, j = (int(t) for t in rng.integers(0, n, 2))
        if (i, j) != (0, 0):
            coeffs[(i, j)] = 1.0
    coeffs[XHAT] = float(rng.uniform(0, n))
    return DualCentralElement(n, coeffs)


class TestValidate:
    def test_counit_like_state(self):
        assert dual_validate_state(DualCentralElement(3, {(0, 0): 1.0})).is_state

    def test_xhat_at_dimension(self):
        assert dual_validate_state(DualCentralElement(4, {(0, 0): 1.0, XHAT: 4.0})).is_state

    def test_negative_coefficient_rejected(self):
        report = dual_validate_state(DualCentralElement(3, {(0, 0): 1.0, (1, 0): -0.5}))
        assert not report.is_state
        assert report.failures[0][0] == "negative coefficient"

    def test_normalization(self):
        report = dual_validate_state(DualCentralElement(3, {(0, 0): 2.0}))
        assert not report.is_state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "-inf", "nan-im"])
    @pytest.mark.parametrize("key", [(1, 0), XHAT, (0, 0)])
    def test_non_finite_reported(self, bad, key):
        a = DualCentralElement(3, {(0, 0): 1.0, (2, 1): 0.5, key: bad})
        report = dual_validate_state(a)
        assert not report.is_state
        assert [w[0] for name, w in report.failures if name == "coefficient not finite"] == [key]

    def test_every_walk_function_refuses_with_the_report(self):
        a = DualCentralElement(3, {(0, 0): 1.0, (1, 0): -0.5})
        for call in (dual_classify, lambda a: dual_qtv_to_haar(a, 2), lambda a: dual_bounds(a, 2)):
            with pytest.raises(NotAStateError) as info:
                call(a)
            assert info.value.report == dual_validate_state(a)


class TestFourierValues:
    def test_counit_values(self):
        vals = dual_fourier_values(DualCentralElement(3, {(0, 0): 1.0}))
        assert vals[(0, 0)] == 1.0
        assert vals[XHAT] == 0.0
        assert all(v == 0 for k, v in vals.items() if k not in ((0, 0), XHAT))

    def test_index_reflection(self):
        # the coefficient at (1, 2) shows up at label (-1, -2) and nowhere else
        n = 5
        vals = dual_fourier_values(DualCentralElement(n, {(0, 0): 1.0, (1, 2): 0.7}))
        assert vals[(4, 3)] == pytest.approx(0.7)
        assert (1, 2) not in vals

    def test_xhat_scaling(self):
        n = 4
        vals = dual_fourier_values(DualCentralElement(n, {(0, 0): 1.0, XHAT: float(n)}))
        assert vals[XHAT] == pytest.approx(1.0)

    def test_power_raises_values(self, rng):
        n = 4
        a = random_dual_state(n, rng)
        v1 = dual_fourier_values(a)
        v3 = dual_fourier_values(dual_power(a, 3))
        for key in v1:
            assert v3.get(key, 0.0) == pytest.approx(v1[key] ** 3, abs=1e-12)


class TestIdentification:
    def test_single_reflection_applied_once(self):
        # regression for the double-negation trap: coefficient at (1, 0)
        # must land on e_(n-1, 0), not back on e_(1, 0)
        n = 5
        x = dual_to_primal(DualCentralElement(n, {(0, 0): 1.0, (1, 0): 0.5}))
        ab = x.abelian.reshape(n, n)
        assert ab[4, 0] == pytest.approx(0.5)
        assert ab[1, 0] == pytest.approx(0.0)

    def test_matrix_scaling(self):
        n = 3
        x = dual_to_primal(DualCentralElement(n, {(0, 0): 1.0, XHAT: 2.0}))
        assert np.allclose(x.matrix, (2.0 / 3.0) * np.eye(3))


def profile_qtv(a, k):
    """The distance from the Fourier profile of the primal walk element.

    The density against the dual Haar state has blocks 2n^2 Fhat(w)(alpha)
    over the primal irreducibles; half its weighted trace norm minus the
    unit density is the distance.
    """
    n = a.n
    powered = {key: complex(c) ** k / (n if key == XHAT else 1) ** (k - 1) for key, c in a.coeffs.items()}
    prof = fourier_profile(dual_to_primal(DualCentralElement(n, powered)))
    scale = 2.0 * n * n
    total = sum(abs(scale * val - 1.0) for val in prof.scalars.values())
    for v in genuine_x_range(n):
        for u in range(n):
            diff = scale * prof.blocks[(u, v)] - np.eye(2)
            total += 2.0 * np.linalg.svd(diff, compute_uv=False).sum()
    return 0.5 * total / scale


class TestQtv:
    def test_pinned_single_coefficient(self):
        # one nontrivial one-dimensional coefficient pins the distance:
        # lower = upper = (1/2) c^k
        for n in (2, 3, 5):
            a = DualCentralElement(n, {(0, 0): 1.0, (1, 0): 0.5})
            lo, up = dual_bounds(a, 2)
            assert lo == pytest.approx(1 / 8)
            assert up == pytest.approx(1 / 8)
            assert dual_qtv_to_haar(a, 2) == pytest.approx(1 / 8, abs=1e-12)

    def test_haar_driver(self):
        a = DualCentralElement(4, {(0, 0): 1.0})
        assert dual_bounds(a, 3) == (0.0, 0.0)
        assert dual_qtv_to_haar(a, 3) == pytest.approx(0.0, abs=1e-12)

    def test_sandwich_random_states(self, rng):
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                a = random_dual_state(n, rng)
                for k in (1, 2, 5, 10):
                    lo, up = dual_bounds(a, k)
                    q = dual_qtv_to_haar(a, k)
                    assert lo - 1e-9 <= q <= up + 1e-9

    def test_distance_matches_profile_oracle(self, rng):
        for n in range(2, 9):
            for _ in range(6):
                a = random_dual_state(n, rng, boundary=bool(rng.integers(2)))
                for k in (1, 2, 5, 50):
                    assert dual_qtv_to_haar(a, k) == pytest.approx(profile_qtv(a, k), abs=1e-12)

    def test_density_normalization(self, rng):
        # Plancherel check behind the distance formula: the weighted trace
        # of profile blocks recovers the coefficient of e_(0,0)
        n = 4
        from conftest import random_element

        x = random_element(AlgebraShape.sekine(n), rng)
        prof = fourier_profile(x)
        total = sum(prof.scalars.values())
        for v in genuine_x_range(n):
            for u in range(n):
                total += 2.0 * np.trace(prof.blocks[(u, v)])
        assert total == pytest.approx(x.abelian[0], abs=1e-10)


class TestClassify:
    def test_haar_branch(self):
        a = DualCentralElement(3, {(0, 0): 1.0, (1, 0): 0.5})
        assert dual_classify(a).kind == "haar"

    def test_idempotent_branch_xhat(self):
        n = 3
        a = DualCentralElement(n, {(0, 0): 1.0, XHAT: float(n)})
        c = dual_classify(a)
        assert c.kind == "idempotent"
        assert c.limit.xhat == 1
        assert c.limit.abelian == frozenset({(0, 0)})
        x = epsilon_to_element(c.limit)
        ab = x.abelian.reshape(n, n)
        assert ab[0, 0] == 1.0 and np.allclose(x.matrix, np.eye(n))

    def test_diverges_branch(self):
        a = DualCentralElement(3, {(0, 0): 1.0, (1, 0): 1.5})
        assert dual_classify(a).kind == "diverges"

    def test_limits_are_pointwise_central_idempotents(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(10):
                a = random_dual_state(n, rng, boundary=True)
                c = dual_classify(a)
                if c.kind != "idempotent":
                    continue
                x = epsilon_to_element(c.limit)
                assert is_pointwise_central_idempotent(x, 1e-12)
                # dual Fourier values of the limit are a projector family
                vals = dual_fourier_values(
                    DualCentralElement(
                        n,
                        {**{k: 1.0 for k in c.limit.abelian},
                         **({XHAT: float(n)} if c.limit.xhat else {})},
                    )
                )
                for v in vals.values():
                    assert abs(v * v - v) < 1e-12

    def test_limit_matches_coefficient_powers(self, rng):
        # epsilon flags appear exactly where (a_alpha / d_alpha)^k -> 1
        n = 4
        a = DualCentralElement(
            n, {(0, 0): 1.0, (1, 0): 1.0, (2, 1): 0.5, XHAT: float(n)}
        )
        c = dual_classify(a)
        assert c.limit.abelian == frozenset({(0, 0), (1, 0)})
        assert c.limit.xhat == 1
        big = dual_power(a, 64)
        assert big.coefficient((1, 0)) == pytest.approx(1.0)
        assert abs(big.coefficient((2, 1))) < 1e-18
        assert big.coefficient(XHAT) == pytest.approx(n, abs=1e-9)

    def test_pointwise_commutation_with_random_elements(self, rng):
        # centrality in the dual sense: the limit commutes pointwise
        from conftest import random_element

        n = 3
        a = DualCentralElement(n, {(0, 0): 1.0, XHAT: float(n)})
        x = epsilon_to_element(dual_classify(a).limit)
        for _ in range(20):
            y = random_element(AlgebraShape.sekine(n), rng)
            assert (x * y).allclose(y * x, 1e-10)
