import numpy as np
import pytest

from qgwalk.algebra import AlgebraElement, AlgebraShape, haar_integral, positivity_failures, unit
from qgwalk.sekine import (
    CentralElement,
    InvalidLabelError,
    NotAStateError,
    NotCentralError,
    StateReport,
    central_profile,
    central_to_element,
    character,
    convolve,
    element_to_central,
    fourier_block,
    fourier_profile,
    irrep_labels,
    profile_to_central,
    rho_minus,
    rho_plus,
    sigma_plus,
    trivial_label,
    validate_state,
    x_label,
)
from conftest import random_central, random_central_state, random_element

ALL_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


class TestIrrepTable:
    def test_dimension_completeness(self):
        for n in ALL_N:
            assert sum(l.dim**2 for l in irrep_labels(n)) == 2 * n * n

    def test_trivial_is_unit(self):
        for n in (2, 3, 6):
            x = character(n, rho_plus(0))
            assert x.allclose(unit(x.shape))

    def test_sigma_requires_even_n(self):
        with pytest.raises(InvalidLabelError):
            character(3, sigma_plus(0))

    def test_x_range(self):
        with pytest.raises(InvalidLabelError):
            character(2, x_label(0, 1))
        with pytest.raises(InvalidLabelError):
            character(5, x_label(0, 3))

    def test_character_values(self):
        # X character entry: 2 cos(2 pi / 3) = -1 at (s, t) = (0, 1)
        c = character(3, x_label(0, 1))
        assert c.abelian.reshape(3, 3)[0, 1] == pytest.approx(-1.0)
        # sigma_0^+ entry at (i, j) = (0, 1): (-1)^1 = -1
        c = character(2, sigma_plus(0))
        assert c.abelian.reshape(2, 2)[0, 1] == pytest.approx(-1.0)

    def test_orthonormality(self):
        for n in ALL_N:
            labels = irrep_labels(n)
            chars = [character(n, l) for l in labels]
            for i, a in enumerate(chars):
                for j, b in enumerate(chars):
                    val = haar_integral(a.adjoint() * b)
                    assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10), (
                        n,
                        labels[i],
                        labels[j],
                    )


class TestCentralElement:
    def test_trivial_gives_unit(self):
        a = CentralElement(4, {trivial_label(): 1.0})
        assert central_to_element(a).allclose(unit(AlgebraShape.sekine(4)))

    def test_phi_p_coordinates(self):
        # a_{rho_{lp}^+} = eta^{lp} gives abelian value q exactly when q | (i+1)
        n, p, q = 6, 2, 3
        eta = np.exp(2j * np.pi / n)
        a = CentralElement(n, {rho_plus(l * p): eta ** (l * p) for l in range(q)})
        ab = central_to_element(a).abelian.reshape(n, n)
        for i in range(n):
            for j in range(n):
                expect = q if (i + 1) % q == 0 else 0.0
                assert ab[i, j] == pytest.approx(expect, abs=1e-12)

    def test_cosine_coordinates(self):
        # cosine coefficients give (n/2)(delta_{i,1} + delta_{i,n-1})
        n = 7
        a = CentralElement(n, {rho_plus(l): np.cos(2 * np.pi * l / n) for l in range(n)})
        ab = central_to_element(a).abelian.reshape(n, n)
        expect = np.zeros((n, n))
        expect[1, :] = n / 2
        expect[n - 1, :] = n / 2
        assert np.allclose(ab, expect, atol=1e-12)

    def test_round_trip(self, rng):
        for n in (2, 3, 5, 8):
            a = random_central(n, rng)
            b = element_to_central(central_to_element(a))
            assert a.allclose(b, 1e-12)

    def test_matrix_unit_not_central(self):
        n = 3
        mat = np.zeros((n, n))
        mat[0, 1] = 1.0
        x = AlgebraElement(AlgebraShape.sekine(n), np.zeros(n * n), mat)
        with pytest.raises(NotCentralError):
            element_to_central(x)

    def test_j_reflection_symmetry(self, rng):
        # abelian coordinates of central elements are even in j
        for n in (3, 4, 6):
            ab = central_to_element(random_central(n, rng)).abelian.reshape(n, n)
            for j in range(n):
                assert np.allclose(ab[:, j], ab[:, (-j) % n], atol=1e-12)


class TestValidateState:
    def test_cosine_state(self):
        n = 9
        a = CentralElement(n, {rho_plus(l): np.cos(2 * np.pi * l / n) for l in range(n)})
        assert validate_state(a).is_state

    def test_phi_p_state(self):
        n, p, q = 6, 2, 3
        eta = np.exp(2j * np.pi / n)
        a = CentralElement(n, {rho_plus(l * p): eta ** (l * p) for l in range(q)})
        assert validate_state(a).is_state

    def test_rho0_minus_bounded(self):
        a = CentralElement(4, {trivial_label(): 1.0, rho_minus(0): -2.0})
        report = validate_state(a)
        assert not report.is_state
        assert any("PSD" in name or "negative" in name for name, _ in report.failures)

    def test_normalization_failure(self):
        a = CentralElement(3, {trivial_label(): 0.5})
        report = validate_state(a)
        assert not report.is_state
        assert report.failures[0][0] == "normalization"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "-inf", "nan-im"])
    def test_non_finite_reported(self, bad):
        for label in (trivial_label(), rho_plus(1), x_label(1, 1)):
            a = CentralElement(5, {trivial_label(): 1.0, rho_plus(2): 0.1, label: bad})
            report = validate_state(a)
            assert not report.is_state
            assert [(name, w[0]) for name, w in report.failures] == [("coefficient not finite", str(label))]


def _dense_state_failures(a: CentralElement) -> list:
    """The state check on the dense element: normalization, then positivity of central_to_element(a)."""
    norm = a.coefficient(trivial_label())
    failures = [("normalization", norm)] if abs(norm - 1.0) > 1e-9 else []
    x = central_to_element(a)
    return failures + positivity_failures(x.abelian.reshape(a.n, a.n), x.matrix, 1e-9)


def _hermitian_central(n: int, rng) -> CentralElement:
    """c + c* for a random central c: a self-adjoint density, almost never positive."""
    c = central_to_element(random_central(n, rng))
    return element_to_central(c + c.adjoint(), tol=1e-8)


class TestFourierStateCheck:
    """validate_state reads the Fourier density; the dense element is its oracle."""

    def test_agrees_with_the_dense_check(self, rng):
        draws = {
            "complex": lambda n: random_central(n, rng),
            "hermitian": lambda n: _hermitian_central(n, rng),
            "state": lambda n: random_central_state(n, rng),
        }
        kinds = set()
        for n in range(2, 14):
            for kind, draw in draws.items():
                for _ in range(20):
                    a = draw(n)
                    got, want = validate_state(a).failures, _dense_state_failures(a)
                    assert [name for name, _ in got] == [name for name, _ in want], (n, kind)
                    dense = central_to_element(a).abelian.reshape(n, n)
                    for (name, witness), (_, expected) in zip(got, want):
                        kinds.add(name)
                        if name == "matrix not PSD":
                            assert witness == pytest.approx(expected, rel=1e-12, abs=0.0)
                        # an abelian witness is the worst value; ties may pick another index, which holds it
                        elif name == "negative abelian coefficient":
                            (i, j), value = witness
                            assert abs(dense[i, j].real - value) <= 1e-12 * max(1.0, abs(value))
                            assert value == pytest.approx(dense.real.min(), rel=1e-12)
                        elif name == "abelian coefficient not real":
                            (i, j), value = witness
                            assert abs(dense[i, j] - value) <= 1e-12 * max(1.0, abs(value))
                            assert abs(value.imag) == pytest.approx(np.abs(dense.imag).max(), rel=1e-12)
        assert kinds >= {"abelian coefficient not real", "negative abelian coefficient", "matrix not hermitian", "matrix not PSD"}


class TestNotAStateError:
    def test_require_raises_with_the_report(self):
        report = validate_state(CentralElement(3, {trivial_label(): 0.5}))
        with pytest.raises(NotAStateError) as info:
            report.require()
        assert info.value.report is report
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith("not a state: ")

    def test_require_passes_a_state(self):
        assert StateReport(True).require() is None


class TestFourierBlock:
    def test_unit_block(self):
        a = CentralElement(5, {trivial_label(): 1.0})
        assert np.allclose(fourier_block(a, 0, 0), 0.5 * np.ones((2, 2)))

    def test_x_reflection(self):
        # block at (u, v) reads the coefficient at X(n-u, v)
        n = 5
        a = CentralElement(n, {trivial_label(): 1.0, x_label(1, 1): 2.0})
        assert np.allclose(fourier_block(a, 4, 1), np.eye(2))

    def test_cosine_x_blocks_vanish(self):
        n = 5
        a = CentralElement(n, {rho_plus(l): np.cos(2 * np.pi * l / n) for l in range(n)})
        for v in (1, 2):
            for u in range(n):
                assert np.allclose(fourier_block(a, u, v), 0.0)

    def test_invalid_block(self):
        a = CentralElement(5, {trivial_label(): 1.0})
        with pytest.raises(InvalidLabelError):
            fourier_block(a, 0, 3)


class TestFourierProfile:
    def test_profile_matches_blocks_on_central(self, rng):
        for n in ALL_N:
            a = random_central(n, rng)
            assert fourier_profile(central_to_element(a)).allclose(central_profile(a), 1e-10)

    def test_scalars_match_character_integrals(self, rng):
        # the one-dimensional values read off the composite blocks against
        # an independent route: int(character * x)
        for n in (2, 3, 4, 5, 6, 7):
            x = random_element(AlgebraShape.sekine(n), rng)
            scalars = fourier_profile(x).scalars
            labels = [l for l in irrep_labels(n) if l.dim == 1]
            assert sorted(scalars) == sorted(labels)
            for label in labels:
                expect = haar_integral(character(n, label) * x)
                assert abs(scalars[label] - expect) <= 1e-12 * max(1.0, abs(expect)), (n, label)

    def test_point_mass_profile_is_identity(self):
        # 2n^2 e_(0,0) has every genuine block equal to the identity
        n = 5
        ab = np.zeros(n * n)
        ab[0] = 2 * n * n
        x = AlgebraElement(AlgebraShape.sekine(n), ab, np.zeros((n, n)))
        p = fourier_profile(x)
        for v in (1, 2):
            for u in range(n):
                assert np.allclose(p.blocks[u, v], np.eye(2), atol=1e-12)

    def test_profile_round_trip(self, rng):
        for n in (3, 4, 6):
            a = random_central(n, rng)
            rec = profile_to_central(central_profile(a))
            assert rec.allclose(a, 1e-10)

    def test_profile_to_central_is_the_orthogonal_projection(self, rng):
        # on an element that is not central, every coefficient is
        # int(chi^* x): the genuine blocks contribute their trace b00 + b11
        for n in (2, 3, 4, 5, 6, 7):
            x = random_element(AlgebraShape.sekine(n), rng)
            a = profile_to_central(fourier_profile(x))
            for label in irrep_labels(n):
                expect = haar_integral(character(n, label).adjoint() * x)
                assert abs(a.coefficient(label) - expect) <= 1e-12 * max(1.0, abs(expect)), (n, label)


class TestConvolve:
    def test_haar_absorbing(self, rng):
        n = 4
        haar = central_profile(CentralElement(n, {trivial_label(): 1.0}))
        # Haar profile: trivial scalar 1, every other block zero
        haar_blocks = np.zeros((n, n // 2 + 1, 2, 2))
        haar_blocks[0, 0] = 0.5 * np.ones((2, 2))
        assert haar.blocks.shape == haar_blocks.shape
        assert np.allclose(haar.blocks, haar_blocks)
        s = central_profile(random_central_state(n, rng))
        left = convolve(haar, s)
        right = convolve(s, haar)
        assert left.allclose(haar, 1e-10) and right.allclose(haar, 1e-10)

    def test_character_calculus_oracle(self, rng):
        # profile product agrees with the coefficient rule a b / d
        for n in (2, 3, 5, 6):
            a = random_central(n, rng)
            b = random_central(n, rng)
            prod = convolve(central_profile(a), central_profile(b))
            expect = CentralElement(
                n,
                {l: a.coefficient(l) * b.coefficient(l) / l.dim for l in irrep_labels(n)},
            )
            assert prod.allclose(central_profile(expect), 1e-10)

    def test_associativity(self, rng):
        n = 4
        p = [central_profile(random_central(n, rng)) for _ in range(3)]
        left = convolve(convolve(p[0], p[1]), p[2])
        right = convolve(p[0], convolve(p[1], p[2]))
        assert left.allclose(right, 1e-10)

    def test_central_profiles_commute_with_arbitrary(self, rng):
        # the testable shadow of centrality: blockwise commutation
        for n in (3, 4, 5):
            a = central_profile(random_central(n, rng))
            y = fourier_profile(random_element(AlgebraShape.sekine(n), rng))
            assert convolve(a, y).allclose(convolve(y, a), 1e-10)

    def test_state_modulus_bound(self, rng):
        # states satisfy |a_alpha| <= d_alpha
        for n in (2, 3, 4, 6):
            for _ in range(20):
                a = random_central_state(n, rng)
                assert validate_state(a).is_state
                for label, c in a.coeffs.items():
                    assert abs(c) <= label.dim + 1e-9

    def test_qtv_between_states_in_unit_interval(self, rng):
        from qgwalk.algebra import qtv_distance

        for n in (2, 5):
            x = central_to_element(random_central_state(n, rng))
            y = central_to_element(random_central_state(n, rng))
            assert -1e-12 <= qtv_distance(x, y) <= 1.0 + 1e-9
