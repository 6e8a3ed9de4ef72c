import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgwalk.algebra import (
    AlgebraElement,
    AlgebraShape,
    ShapeMismatchError,
    haar_integral,
    is_positive,
    l1_norm,
    positivity_failures,
    qtv_distance,
    unit,
    zero,
)
from conftest import random_element

KP = AlgebraShape.kac_paljutkin()


def kp_el(abelian, matrix=None):
    return AlgebraElement(KP, abelian, np.zeros((2, 2)) if matrix is None else matrix)


class TestShape:
    def test_unit_normalization_kp(self):
        assert KP.abelian_dim == 4 and KP.matrix_dim == 2
        assert KP.weight_abelian == pytest.approx(1 / 8)
        assert KP.weight_matrix == pytest.approx(1 / 4)

    def test_unit_normalization_sekine(self):
        for n in range(2, 9):
            s = AlgebraShape.sekine(n)
            assert n * n * s.weight_abelian + n * s.weight_matrix == pytest.approx(1.0)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            AlgebraShape(4, 2, 0.25, 0.25)


class TestHaarIntegral:
    def test_unit_integrates_to_one(self):
        for shape in (KP, AlgebraShape.sekine(2), AlgebraShape.sekine(7)):
            assert haar_integral(unit(shape)) == pytest.approx(1.0)

    def test_kp_character_chi_x(self):
        chi = kp_el([2, 0, 0, -2])
        assert haar_integral(chi) == pytest.approx(0.0)

    def test_kp_e1(self):
        assert haar_integral(kp_el([1, 0, 0, 0])) == pytest.approx(1 / 8)


class TestL1Norm:
    def test_zero(self):
        assert l1_norm(zero(KP)) == 0.0

    def test_unit(self):
        assert l1_norm(unit(KP)) == pytest.approx(1.0)

    def test_chi_x(self):
        assert l1_norm(kp_el([2, 0, 0, -2])) == pytest.approx(0.5)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            x = random_element(KP, rng)
            y = random_element(KP, rng)
            assert l1_norm(x + y) <= l1_norm(x) + l1_norm(y) + 1e-12

    def test_absolute_homogeneity(self, rng):
        for _ in range(50):
            x = random_element(AlgebraShape.sekine(4), rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert l1_norm(c * x) == pytest.approx(abs(c) * l1_norm(x), abs=1e-12)


class TestQtvDistance:
    def test_self_distance_zero(self, rng):
        x = random_element(KP, rng)
        assert qtv_distance(x, x) == 0.0

    def test_point_mass_example(self):
        # unit vs 2n^2 e_(0,0) at n = 2, by direct L1 evaluation:
        # abelian |1-8| + 3*|1| weighted 1/8, matrix identity weighted 1/4
        shape = AlgebraShape.sekine(2)
        b = AlgebraElement(shape, [8, 0, 0, 0], np.zeros((2, 2)))
        oracle = 0.5 * ((7 + 1 + 1 + 1) / 8 + (1 + 1) / 4)
        assert oracle == pytest.approx(0.875)
        assert qtv_distance(unit(shape), b) == pytest.approx(oracle)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            qtv_distance(random_element(KP, rng), random_element(AlgebraShape.sekine(3), rng))


class TestIsPositive:
    def test_unit_positive(self):
        assert is_positive(unit(KP), 1e-9)

    def test_negative_abelian_entry(self):
        assert not is_positive(kp_el([1, -1, 0, 0]), 1e-9)

    def test_cosine_element_positive(self):
        # circulant cosine matrix plus a nonnegative abelian vector
        n = 7
        shape = AlgebraShape.sekine(n)
        ab = np.zeros((n, n))
        ab[1, :] = n / 2
        ab[n - 1, :] = n / 2
        rows = np.arange(n)
        mat = np.cos(2 * np.pi * (rows[None, :] - rows[:, None]) / n)
        assert is_positive(AlgebraElement(shape, ab.reshape(-1), mat), 1e-9)

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_positive(kp_el([1, 1, 1, 1], mat), 1e-9)


class TestPositivityFailures:
    def test_positive_element_has_none(self):
        assert positivity_failures(unit(KP).abelian, unit(KP).matrix, 1e-9) == []

    def test_each_condition_names_its_worst_witness(self):
        ab = np.array([[1.0, -0.5], [2 + 0.3j, -2.0]])
        failures = positivity_failures(ab, np.array([[1.0, 0.2], [0.0, 1.0]]), 1e-9)
        assert failures == [
            ("abelian coefficient not real", ((1, 0), 2 + 0.3j)),
            ("negative abelian coefficient", ((1, 1), -2.0)),
            ("matrix not hermitian", 0.2),
        ]

    def test_psd_checked_only_on_a_hermitian_block(self):
        failures = positivity_failures(np.ones(3), np.diag([1.0, -0.25]), 1e-9)
        assert failures == [("matrix not PSD", -0.25)]

    def test_nan_fails_every_condition(self):
        # a density that overflowed holds NaN, which every comparison with the tolerance must refuse
        nan = np.array([[np.nan]])
        assert [name for name, _ in positivity_failures(np.array([np.nan * 1j]), nan, 1e-9)] == [
            "abelian coefficient not real",
            "negative abelian coefficient",
            "matrix not hermitian",
        ]
        assert positivity_failures(np.ones(1), np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-9)[0][0] == "matrix not hermitian"

    def test_tolerance_absorbs_small_violations(self):
        assert positivity_failures(np.array([-1e-10, 1e-10j]), np.diag([-1e-10, 1.0]), 1e-9) == []

    def test_empty_matrix_block(self):
        assert positivity_failures(np.array([1.0, 0.0]), np.zeros((0, 0)), 1e-9) == []


class TestStarAlgebraProperties:
    def test_haar_positive_on_squares(self, rng):
        for shape in (KP, AlgebraShape.sekine(5)):
            for _ in range(50):
                x = random_element(shape, rng)
                val = haar_integral(x.adjoint() * x)
                assert abs(val.imag) < 1e-10
                assert val.real >= -1e-12

    def test_haar_of_adjoint_is_conjugate(self, rng):
        for _ in range(50):
            x = random_element(AlgebraShape.sekine(3), rng)
            assert haar_integral(x.adjoint()) == pytest.approx(np.conj(haar_integral(x)))

    def test_haar_tracial(self, rng):
        for _ in range(50):
            x = random_element(AlgebraShape.sekine(4), rng)
            y = random_element(AlgebraShape.sekine(4), rng)
            assert haar_integral(x * y) == pytest.approx(haar_integral(y * x))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
def test_l1_triangle_property(n, seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape.sekine(n)
    x = random_element(shape, rng)
    y = random_element(shape, rng)
    assert l1_norm(x + y) <= l1_norm(x) + l1_norm(y) + 1e-12


def test_svd_contract_small_dense(rng):
    # singular values of U diag(s) V* must come back to relative 1e-12
    for m in (2, 8, 32, 64):
        s = np.sort(rng.uniform(0.1, 10.0, m))[::-1]
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        got = np.linalg.svd(u @ np.diag(s) @ v.conj().T, compute_uv=False)
        assert np.max(np.abs(got - s) / s) < 1e-12
