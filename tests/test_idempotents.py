from itertools import product

import numpy as np
import pytest

from qgwalk.algebra import AlgebraElement, AlgebraShape, haar_integral, unit
from qgwalk.idempotents import (
    ENUMERATION_CAP,
    AmbiguousBoundaryError,
    HaarSpec,
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    InvalidSpecError,
    annihilator,
    build_idempotent,
    check_sign_vector,
    enumerate_central_idempotents,
    hermite_form,
    idempotent_profile,
    is_central_functional,
    is_idempotent_state,
    is_subgroup,
    spec_from_labels,
    subgroup_from_generators,
    subgroups_znxzn,
    valid_sign_vectors,
)
from qgwalk.sekine import (
    CentralElement,
    central_to_element,
    element_to_central,
    fourier_profile,
    irrep_labels,
    rho_minus,
    rho_plus,
    sigma_minus,
    sigma_plus,
    x_label,
)
from conftest import probe_central, random_central, random_element


def closed_under_sums(n, members):
    """The brute-force |S|^2 subgroup test: (0, 0) and every sum of two members."""
    mset = set(members)
    return (0, 0) in mset and all(((a + c) % n, (b + d) % n) in mset for a, b in mset for c, d in mset)


def closure(n, points):
    """The subgroup that the points generate, by adding them until nothing changes."""
    members = {(0, 0)}
    while True:
        grown = members | {((a + x) % n, (b + y) % n) for a, b in members for x, y in points}
        if grown == members:
            return frozenset(members)
        members = grown


def brute_annihilator(n, points):
    return frozenset(
        (i, j) for i in range(n) for j in range(n) if all((i * x + j * y) % n == 0 for x, y in points)
    )


def has_reflection_symmetry(n, members):
    """Closure of Gamma under (k, l) -> (k, -l)."""
    return all((a, (-b) % n) in members for a, b in members)


def lazy_walk(e):
    """(e + counit)/2: ratio 1 where e's ratio is 1, and 1/2 where e's is 0."""
    return CentralElement(e.n, {l: (e.coefficient(l) + l.dim) / 2 for l in irrep_labels(e.n)})


def all_specs(n):
    specs = [HaarSpec()] + [HGammaSpec(m) for m in subgroups_znxzn(n)]
    for q in range(2, n + 1):
        if n % q == 0:
            specs += [HGammaLSpec(q, l) for l in range(q)]
    for q in range(1, n):
        if n % q == 0 and n // q > 1:
            for tau in valid_sign_vectors(n // q):
                specs += [HGammaLTauSpec(n // q, q, l, tau) for l in range(q)]
    return specs


class TestSubgroups:
    def test_against_two_generator_closure(self):
        for n in (2, 3, 4, 5, 6):
            pairs = list(product(range(n), repeat=2))
            brute = {
                subgroup_from_generators(n, [g1, g2]) for g1 in pairs for g2 in pairs
            }
            hnf = subgroups_znxzn(n)
            assert len(hnf) == len(set(hnf))
            assert set(hnf) == brute

    def test_all_are_subgroups(self):
        for n in (4, 6, 9):
            for members in subgroups_znxzn(n):
                assert is_subgroup(n, members)
                assert n * n % len(members) == 0


class TestHermiteForm:
    """is_subgroup and annihilator read off the Hermite form, against the brute-force oracles."""

    def test_every_subgroup(self):
        for n in range(1, 13):
            for members in subgroups_znxzn(n):
                a, c, b = hermite_form(n, members)
                assert n % a == 0 and n % b == 0 and 0 <= c < b and (n // a) * c % b == 0
                assert len(members) == n * n // (a * b)
                assert closed_under_sums(n, members) and is_subgroup(n, members)
                assert subgroup_from_generators(n, members) == members
                dual = annihilator(n, members)
                assert dual == brute_annihilator(n, members), (n, sorted(members))
                assert annihilator(n, dual) == members

    def test_random_sets(self, rng):
        for n in range(1, 13):
            groups = subgroups_znxzn(n)
            for _ in range(60):
                size = int(rng.integers(1, min(n * n, 12) + 1))
                points = {tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(size)}
                # a subgroup with points added or taken away is a near miss for the size test
                group = set(groups[int(rng.integers(len(groups)))])
                near = group ^ points if rng.random() < 0.5 else group | points
                for members in (points, points | {(0, 0)}, near):
                    assert is_subgroup(n, members) == closed_under_sums(n, members), (n, sorted(members))
                    assert annihilator(n, members) == brute_annihilator(n, members), (n, sorted(members))
                    assert subgroup_from_generators(n, members) == closure(n, members)


class TestSignVectors:
    def test_constant_always_valid(self):
        for p in (2, 3, 5, 8):
            assert tuple([1] * p) in valid_sign_vectors(p)

    def test_alternating_for_even_length(self):
        assert (1, -1) in valid_sign_vectors(2)
        assert (1, -1, 1, -1) in valid_sign_vectors(4)
        assert len(valid_sign_vectors(3)) == 1

    def test_exhaustive_small(self):
        # a brute-force DFT filter over all sign vectors agrees, in verdict and in message
        for p in range(2, 13):
            omega = np.exp(2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
            brute = []
            for bits in product((1, -1), repeat=p):
                d = omega @ np.array(bits, dtype=np.complex128)
                if np.abs(d.imag).max() > 1e-9:
                    failure = "non-real"
                elif d.real.min() < -1e-9:
                    failure = "negative"
                else:
                    brute.append(bits)
                    check_sign_vector(bits, p)
                    continue
                with pytest.raises(InvalidSpecError, match=f"^tau has a {failure} Fourier value$"):
                    check_sign_vector(bits, p)
            assert sorted(brute) == sorted(valid_sign_vectors(p))


class TestBuildIdempotent:
    def test_haar_is_unit(self):
        x = build_idempotent(HaarSpec(), 5)
        assert x.allclose(unit(AlgebraShape.sekine(5)))

    def test_full_group(self):
        n = 4
        full = frozenset(product(range(n), repeat=2))
        x = build_idempotent(HGammaSpec(full), n)
        assert np.allclose(x.abelian, 2.0)
        assert np.allclose(x.matrix, 0.0)
        assert haar_integral(x) == pytest.approx(1.0)

    def test_type4_with_q1(self):
        # q = 1, l = 0, constant tau: full matrix of ones
        n = 5
        spec = HGammaLTauSpec(n, 1, 0, tuple([1] * n))
        x = build_idempotent(spec, n)
        ab = x.abelian.reshape(n, n)
        assert np.allclose(ab[0, :], n) and np.allclose(ab[1:, :], 0.0)
        assert np.allclose(x.matrix, 1.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_idempotent(HGammaLSpec(2, 0), 5)  # 2 does not divide 5
        with pytest.raises(InvalidSpecError):
            build_idempotent(HGammaSpec(frozenset({(0, 0), (1, 0)})), 3)  # not closed
        with pytest.raises(InvalidSpecError):
            build_idempotent(HGammaLTauSpec(3, 1, 0, (1, -1, -1)), 3)  # negative DFT

    def test_all_specs_are_idempotent_states(self):
        for n in (2, 3, 4, 5, 6, 7, 8):
            for spec in all_specs(n):
                x = build_idempotent(spec, n)
                assert haar_integral(x) == pytest.approx(1.0)
                assert is_idempotent_state(x, 1e-10), (n, spec)

    def test_unit_scaled_not_idempotent(self):
        assert not is_idempotent_state(2.0 * unit(AlgebraShape.sekine(3)), 1e-10)
        # normalized but not positive: the refusal comes from the positivity check
        one = unit(AlgebraShape.sekine(3))
        assert not is_idempotent_state(AlgebraElement(one.shape, [3, 1, 1, 1, 1, 1, 1, 1, -1], one.matrix), 1e-10)


class TestIdempotentProfile:
    def test_element_profile_matches_closed_form(self):
        for n in (2, 3, 4, 5, 6, 8, 9):
            for spec in all_specs(n):
                if not isinstance(spec, (HGammaLSpec, HGammaLTauSpec)):
                    continue
                got = fourier_profile(build_idempotent(spec, n))
                assert got.allclose(idempotent_profile(spec, n), 1e-10), (n, spec)

    def test_q2_l0_block(self):
        n = 6
        b = idempotent_profile(HGammaLSpec(2, 0), n).blocks[0, n // 2]
        assert np.allclose(b, 0.5 * np.ones((2, 2)))

    def test_q2_l1_block(self):
        n = 6
        b = idempotent_profile(HGammaLSpec(2, 1), n).blocks[0, n // 2]
        assert np.allclose(b, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_tau_blocks_vanish_off_lattice(self):
        n = 6
        spec = HGammaLTauSpec(3, 2, 0, (1, 1, 1))
        prof = idempotent_profile(spec, n)
        for u in range(n):
            for v in range(n // 2 + 1):
                if u % 2 != 0:
                    assert np.allclose(prof.blocks[u, v], 0.0)


class TestCentrality:
    def test_central_element_functionals_are_central(self, rng):
        for n in (3, 4):
            a = central_to_element(random_central(n, rng))
            assert is_central_functional(a)

    def test_point_mass_off_identity_not_central(self):
        n = 4
        ab = np.zeros(n * n)
        ab[1] = 2 * n * n  # e_(0,1)
        x = AlgebraElement(AlgebraShape.sekine(n), ab, np.zeros((n, n)))
        assert not is_central_functional(x)

    def test_q1_constant_tau_central(self):
        n = 5
        x = build_idempotent(HGammaLTauSpec(n, 1, 0, tuple([1] * n)), n)
        assert is_central_functional(x)

    def test_h_gamma_centrality_matches_reflection_symmetry(self):
        for n in (3, 4, 6):
            for members in subgroups_znxzn(n):
                x = build_idempotent(HGammaSpec(members), n)
                assert is_central_functional(x) == has_reflection_symmetry(n, members), (n, sorted(members))

    def test_h_ql_central_iff_q_is_two(self):
        for n in (4, 6, 8, 9):
            for q in (q for q in range(2, n + 1) if n % q == 0):
                x = build_idempotent(HGammaLSpec(q, 0), n)
                assert is_central_functional(x) == (q == 2), (n, q)


class TestCentralityOracle:
    """The exact block test against the random commutation probe it replaced."""

    def test_agrees_on_every_candidate(self, rng):
        for n in range(2, 9):
            for spec in all_specs(n):
                x = build_idempotent(spec, n)
                assert is_central_functional(x) == probe_central(x, 20, rng), (n, spec)

    def test_agrees_on_kp_idempotents(self, rng):
        from qgwalk.kp8 import pal_idempotents

        for i, x in enumerate(pal_idempotents(), 1):
            got = is_central_functional(x, group="kp")
            assert got == probe_central(x, 20, rng, group="kp"), f"phi_{i}"

    def test_agrees_on_random_elements(self, rng):
        from qgwalk.kp8 import KP_SHAPE

        for n in (3, 4, 5, 6, 7):
            x = random_element(AlgebraShape.sekine(n), rng)
            assert not is_central_functional(x) and not probe_central(x, 5, rng), n
            a = central_to_element(random_central(n, rng))
            assert is_central_functional(a) and probe_central(a, 5, rng), n
        y = random_element(KP_SHAPE, rng)
        assert not is_central_functional(y, group="kp") and not probe_central(y, 5, rng, group="kp")


class TestEnumeration:
    def test_n2_contents(self):
        specs = enumerate_central_idempotents(2)
        gammas = [s for s in specs if isinstance(s, HGammaSpec)]
        qls = [s for s in specs if isinstance(s, HGammaLSpec)]
        taus = [s for s in specs if isinstance(s, HGammaLTauSpec)]
        haars = [s for s in specs if isinstance(s, HaarSpec)]
        assert len(haars) == 1
        assert len(gammas) == 5  # every subgroup of Z_2 x Z_2 is reflection symmetric
        assert sorted((s.q, s.l) for s in qls) == [(2, 0), (2, 1)]
        assert sorted(s.tau for s in taus) == [(1, -1), (1, 1)]  # q = 1 only; q = 2 needs p > 1

    def test_no_even_divisor_families_for_odd_n(self):
        specs = enumerate_central_idempotents(3)
        assert not any(isinstance(s, HGammaLSpec) for s in specs)
        taus = [s for s in specs if isinstance(s, HGammaLTauSpec)]
        assert all(s.q == 1 and s.tau == (1, 1, 1) for s in taus)

    def test_all_enumerated_pass_checks(self):
        for n in (2, 3, 4, 5, 6):
            for spec in enumerate_central_idempotents(n):
                x = build_idempotent(spec, n)
                assert is_idempotent_state(x, 1e-10)
                assert is_central_functional(x)

    def test_no_duplicates(self):
        for n in range(2, 13):
            specs = enumerate_central_idempotents(n)
            keys = set()
            for spec in specs:
                x = build_idempotent(spec, n)
                key = np.round(np.concatenate([x.abelian, x.matrix.reshape(-1)]), 8).tobytes()
                assert key not in keys
                keys.add(key)

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_central_idempotents(25)

    def test_closed_form_is_the_dense_filter(self):
        # the oracle: every candidate built densely and kept when both dense checks pass
        for n in range(2, ENUMERATION_CAP + 1):
            dense = [s for s in all_specs(n) if is_idempotent_state(x := build_idempotent(s, n)) and is_central_functional(x)]
            assert enumerate_central_idempotents(n) == dense, n

    def test_builds_no_element(self, monkeypatch):
        import qgwalk.idempotents as idem

        for name in ("build_idempotent", "is_idempotent_state", "is_central_functional", "fourier_profile"):
            monkeypatch.setattr(idem, name, None)
        assert len(idem.enumerate_central_idempotents(ENUMERATION_CAP)) == 109

    def test_every_central_idempotent_is_its_own_limit(self):
        # closing the loop with the walk classifier: the walk driven by a
        # central idempotent e, and the lazy walk (e + counit)/2, whose
        # ratios are 1 where e's are and 1/2 elsewhere, both name e
        from qgwalk.walks import classify_limit

        for n in range(2, ENUMERATION_CAP + 1):
            for spec in enumerate_central_idempotents(n):
                e = element_to_central(build_idempotent(spec, n))
                for a in (e, lazy_walk(e)):
                    c = classify_limit(a)
                    assert c.kind == ("haar" if isinstance(spec, HaarSpec) else "idempotent")
                    assert c.limit == spec, (n, spec, c.limit)


class TestSpecFromLabels:
    def test_haar(self):
        assert spec_from_labels(5, []) == HaarSpec()

    @pytest.mark.parametrize(
        "n, labels",
        [
            (5, {rho_plus(1)}),  # unpaired, and not every rho_m
            (5, {rho_minus(1), x_label(0, 1)}),  # unpaired rho- with an X label
            (5, {rho_minus(0), rho_plus(1), rho_minus(1)}),  # paired, but (0, 0) and (1, 0) are no subgroup
            (3, {rho_minus(1), rho_minus(2)}),  # every rho_m, with tau = (+, -, -) of negative DFT
            (4, {sigma_plus(0), sigma_minus(0)}),  # both signs of sigma_0 with an unpaired rho_0
            (4, {sigma_minus(0), rho_plus(2), sigma_plus(2)}),  # h_(2,2,1,(+,+)) but with sigma_2^+
        ],
    )
    def test_labels_naming_no_idempotent_are_refused(self, n, labels):
        with pytest.raises(AmbiguousBoundaryError):
            spec_from_labels(n, labels)

    def test_spec_labels_with_one_label_dropped_are_refused(self):
        for n in (4, 6, 8):
            for spec in enumerate_central_idempotents(n):
                if isinstance(spec, (HaarSpec, HGammaSpec)):
                    continue
                ones = set(element_to_central(build_idempotent(spec, n)).coeffs) - {rho_plus(0)}
                assert spec_from_labels(n, ones) == spec
                for label in ones if len(ones) > 1 else ():  # h_(2,l) less its one label is Haar
                    with pytest.raises(AmbiguousBoundaryError):
                        spec_from_labels(n, ones - {label})

    def test_lazy_walk_to_h_gamma_at_n_201(self):
        from qgwalk.walks import classify_limit

        n = 201
        gamma = subgroup_from_generators(n, [(0, 1), (3, 0)])
        assert len(gamma) == 13467
        e = element_to_central(build_idempotent(HGammaSpec(gamma), n))
        c = classify_limit(lazy_walk(e))
        assert c.kind == "idempotent" and c.limit == HGammaSpec(gamma)
