import dataclasses
import json
import math
import pathlib
import sys
import tracemalloc
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgwalk import algebra, dual, kp8
from qgwalk.algebra import l1_norm
from qgwalk.idempotents import (
    HaarSpec,
    HGammaLSpec,
    HGammaLTauSpec,
    HGammaSpec,
    build_idempotent,
    enumerate_central_idempotents,
    idempotent_profile,
    subgroups_znxzn,
    validate_spec,
)
from qgwalk.sekine import (
    CentralElement,
    IrrepLabel,
    _slot,
    central_profile,
    central_to_element,
    convolve,
    element_to_central,
    fourier_profile,
    genuine_x_range,
    irrep_labels,
    profile_to_central,
    rho_minus,
    rho_plus,
    sigma_minus,
    sigma_plus,
    trivial_label,
    validate_state,
    x_label,
)
from qgwalk import walks
from qgwalk.walks import (
    AmbiguousBoundaryError,
    NotAStateError,
    _PowerEngine,
    classify_limit,
    classify_walk,
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
        for n in (51, 101, 201):
            a = cutoff_state(n)
            for c in (1.4, 1.5, 1.6, 1.7, 1.8, 1.9):
                k = round(math.exp(c) * n * n)
                ref = _cosine_qtv_reference(n, k)
                assert qtv_to_haar(a, k) == pytest.approx(ref, rel=1e-9, abs=0.0), (n, c, k)


def _dense_kpn_qtv(engine, n, k):
    """1/2 ||a^k - h||_1 from the dense coordinates of a^k - h and an SVD of its matrix block."""
    powered = CentralElement(n, dict(zip(engine.table.keys, engine.powers((k,))[0])))
    return 0.5 * l1_norm(central_to_element(powered))


def _dense_kp_qtv(engine, n, k):
    """1/2 ||a^k - h||_1 on C^4 + M_2(C) (n is None): a^k - h has no rho1 term."""
    return 0.5 * l1_norm(kp8.kp_element(kp8.KPCoefficients(0.0, *engine.powers((k,))[0])))


def _dense_dual_qtv(engine, n, k):
    """Half the weighted trace norm of 2n^2 times the Fourier profile of the primal element of a^k - h."""
    powered = dual.DualCentralElement(n, dict(zip(engine.table.keys, engine.powers((k,))[0])))
    prof = fourier_profile(dual.dual_to_primal(powered))
    scale = 2.0 * n * n
    total = sum(abs(scale * value) for value in prof.scalars.values())
    for v in genuine_x_range(n):
        for u in range(n):
            total += 2.0 * np.linalg.svd(scale * prof.blocks[u, v], compute_uv=False).sum()
    return 0.5 * total / scale


DENSE_QTV = {"kpn": _dense_kpn_qtv, "kp": _dense_kp_qtv, "kpn-dual": _dense_dual_qtv}


def _keep(a, kinds):
    """The convolution of a with the central idempotent state whose ratios are 1 on ``kinds``, 0 elsewhere.

    Convolving multiplies each coefficient by that ratio, so the labels of
    other kinds drop out and the result is again a state.  The idempotent
    is h_Gamma with Gamma = {0} x Z_n for the rho labels alone and
    {0} x 2Z_n (even n) for the rho and sigma labels.
    """
    return CentralElement(a.n, {label: c for label, c in a.coeffs.items() if label.kind in kinds})


class TestSpectralDistance:
    """The engine's qtv against the dense synthesis and SVD it replaced."""

    def test_matches_dense_oracle_on_random_states(self):
        rng = np.random.default_rng(20261018)
        rho, sigma = ("rho+", "rho-"), ("sigma+", "sigma-")
        for n in range(2, 41):
            a = random_central_state(n, rng)
            states = [a, _keep(a, rho)]  # odd n: X without sigma; even n: both
            if n % 2 == 0:
                states.append(_keep(a, rho + sigma))
            for state in states:
                validate_state(state).require()
                engine = _PowerEngine(walks._kpn_table(state))
                for k in (1, 2, 5, 50, 400):
                    dense = _dense_kpn_qtv(engine, n, k)
                    kinds = sorted({label.kind for label in state.coeffs})
                    assert engine.qtv_many((k,))[0] == pytest.approx(dense, rel=1e-12, abs=0.0), (n, kinds, k)

    def test_matches_dense_oracle_on_run_goldens(self):
        # the configs whose CSVs tests/data/run pins, at their k_max = 30
        from qgwalk.cli import _walk, parse_config, tolerance_of

        paths = sorted((pathlib.Path(__file__).parent / "data" / "run").glob("*.json"))
        cases = [case for path in paths for case in json.loads(path.read_text()) if "stderr" not in case]
        assert len(cases) > 100
        for case in cases:
            cfg = parse_config(case["config"])
            engine = _PowerEngine(_walk(cfg, tolerance_of(cfg))[2])
            for k in range(1, cfg.k_max + 1):
                dense = DENSE_QTV[cfg.group](engine, cfg.n, k)
                assert engine.qtv_many((k,))[0] == pytest.approx(dense, rel=1e-12, abs=0.0), (case["name"], k)

    def test_no_step_takes_an_svd(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("the engine took an SVD")

        tables = [
            walks._kpn_table(random_central_state(n, rng)) for n in (5, 6)  # with X labels, and with sigma labels
        ]
        tables += [
            walks._kpn_table(cutoff_state(9)),
            kp8._kp_table(kp8.KPCoefficients(1.0, 0.5, 0.25, 0.0, 0.25)),
            dual._dual_table(dual.DualCentralElement(3, {(0, 0): 1.0, (1, 0): 0.5, dual.XHAT: 1.0})),
        ]
        assert not hasattr(walks, "l1_norm")  # so a walk reaches the dense norm only through algebra
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(algebra, "l1_norm", refuse)
        for table in tables:
            assert _PowerEngine(table).qtv_many((3,))[0] > 0.0

    def test_rho_only_tables_fold_the_abelian_part(self):
        # rho labels only: two length-n spectra under the one weight 1/(2n)
        table = walks._kpn_table(cutoff_state(7))
        assert table.weights == (1.0 / 14.0,)
        (values,) = table.synth(_PowerEngine(table).powers((2,)))
        assert values.shape == (1, 2, 7)
        a = CentralElement(6, {trivial_label(): 1.0, rho_plus(1): 0.25, sigma_plus(0): 0.25})
        assert len(walks._kpn_table(a).weights) == 2

    def test_tiny_and_subnormal_sigma_blocks(self):
        # the 2x2 closed form scales each block by its exponent: neither the
        # squares underflow nor a reciprocal of a subnormal is taken
        def qtv(scale):
            a = CentralElement(4, {trivial_label(): 1.0, rho_plus(1): 0.3 * scale, sigma_minus(2): 0.2j * scale})
            return _PowerEngine(walks._kpn_table(a)).qtv_many((1,))[0]

        for scale in (1e-160, 1e-200, 1e-300):
            assert qtv(scale) == pytest.approx(scale * qtv(1.0), rel=1e-12)
        assert 0.0 < qtv(5e-320) < 1e-319  # subnormal: finite, but no relative precision


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
        assert isinstance(c.limit, HGammaSpec)
        assert c.limit.members == frozenset((0, j) for j in range(n))

    def test_sigma_split_branch(self):
        # even n, sigma_0^+ = 1: limit h_(q=2, l)
        n = 6
        for l, label in ((0, sigma_plus(0)), (1, sigma_minus(0))):
            coeffs = {trivial_label(): 1.0, label: 1.0, x_label(0, 1): 0.5, x_label(0, 2): 0.5}
            a = CentralElement(n, coeffs)
            assert validate_state(a).is_state
            c = classify_limit(a)
            assert c.kind == "idempotent"
            assert c.limit == HGammaLSpec(2, l)

    def test_plus_only_branch(self):
        for n in (5, 6):
            c = classify_limit(plus_only_state(n))
            assert c.kind == "idempotent"
            assert c.limit == HGammaLTauSpec(n, 1, 0, tuple([1] * n))

    def test_sigma_pair_branch(self):
        n = 6
        coeffs = {}
        for i in range(3):
            coeffs[rho_plus(2 * i)] = 1.0
            coeffs[sigma_plus(2 * i)] = 1.0
        a = CentralElement(n, coeffs)
        assert validate_state(a).is_state
        c = classify_limit(a)
        assert c.limit == HGammaLTauSpec(3, 2, 0, (1, 1, 1))

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

    def test_ratio_near_the_circle_is_ambiguous_as_in_classify_limit(self):
        # a ratio 5e-9 inside the circle: one tolerance decides both the
        # state check and the circle, so neither function calls it a period
        a = CentralElement(4, {rho_plus(0): 1.0, rho_plus(2): -(1 - 5e-9)})
        assert validate_state(a).is_state
        for decide in (detect_cycle, classify_limit):
            with pytest.raises(AmbiguousBoundaryError):
                decide(a)

    def test_default_max_period_is_that_of_classify_limit(self):
        a = phi_p(20, 1)
        assert detect_cycle(a) == classify_limit(a).period == 20

    def test_classify_goldens(self):
        # 1 for a walk that converges, the golden's period (or None) for one that diverges
        from qgwalk.cli import parse_config, tolerance_of

        paths = sorted((pathlib.Path(__file__).parent / "data" / "classify").glob("*.json"))
        cases = [case for path in paths for case in json.loads(path.read_text()) if case["config"]["group"] == "kpn"]
        outcomes = set()
        for case in cases:
            cfg, golden = parse_config(case["config"]), json.loads(case["classify"])
            expected = golden.get("period") if golden["outcome"] == "diverges" else 1
            a = CentralElement(cfg.n, cfg.by_label)
            assert detect_cycle(a, tol=tolerance_of(cfg)) == expected, case["name"]
            outcomes.add(golden["outcome"] == "diverges")
        assert outcomes == {False, True}

    def test_classify_limit_validates_once(self, monkeypatch):
        calls = []

        def counted(a, *args):
            calls.append(a)
            return validate_state(a, *args)

        monkeypatch.setattr(walks, "validate_state", counted)
        for a, period in ((phi_p(6, 2), 3), (psi_p(9, 3), 6), (phi_p(5, 1), 5)):
            calls.clear()
            c = classify_limit(a)
            assert c.kind == "diverges" and c.period == period
            assert calls == [a]
            assert c.period == detect_cycle(a, 2 * a.n)


def _batch_tables():
    """One table of every kind the engine powers, from random states and boundary walks."""
    rng = np.random.default_rng(20261019)
    rho, sigma = ("rho+", "rho-"), ("sigma+", "sigma-")
    odd, even = random_central_state(7, rng), random_central_state(8, rng)
    states = {
        "kpn odd n, X labels": odd,
        "kpn even n, sigma and X labels": even,
        "kpn even n, sigma labels": _keep(even, rho + sigma),
        "kpn rho only": _keep(odd, rho),
        "kpn on the circle": psi_p(9, 3),
        "kpn cosine": cutoff_state(9),
    }
    tables = {name: walks._kpn_table(a) for name, a in states.items()}
    tables["kp"] = kp8._kp_table(kp8.KPCoefficients(1.0, *rng.uniform(-0.45, 0.45, 3), rng.uniform(-0.2, 0.2)))
    coeffs = {(int(i), int(j)): c for i, j, c in zip(*rng.integers(0, 5, (2, 8)), rng.uniform(0.0, 0.9, 8))}
    coeffs.update({(0, 0): 1.0, (2, 3): -0.5j, dual.XHAT: 2.5})
    tables["dual"] = dual._dual_table(dual.DualCentralElement(5, coeffs))
    return tables


BATCH_TABLES = _batch_tables()
BATCH_KS = [*range(1, 30), 50, 400, 2, 1, 2**53 + 1, 10**30 + 1, 10**307]


def _bits(values):
    return np.asarray(values).view(np.uint64).tolist()


class TestBatchedEngine:
    """The engine runs every k of a walk through one batched call; each value is the one-k value, bit for bit."""

    @pytest.mark.parametrize("name", sorted(BATCH_TABLES))
    def test_batched_equals_per_k(self, name):
        engine = _PowerEngine(BATCH_TABLES[name])
        assert _bits(engine.qtv_many(BATCH_KS)) == _bits([engine.qtv_many((k,))[0] for k in BATCH_KS])
        assert _bits(engine.powers(BATCH_KS)) == _bits([engine.powers((k,))[0] for k in BATCH_KS])
        pairs = engine.bounds_many(BATCH_KS)
        assert _bits(pairs) == _bits([engine.bounds_many((k,))[0] for k in BATCH_KS])
        assert _bits(list(zip(*engine.measure(BATCH_KS)))) == _bits(
            [(q, lo, up) for q, (lo, up) in zip(engine.qtv_many(BATCH_KS), pairs)]
        )

    @pytest.mark.parametrize("name", sorted(BATCH_TABLES))
    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunk_seams(self, name, per_chunk, monkeypatch):
        table = BATCH_TABLES[name]
        whole = _PowerEngine(table).qtv_many(BATCH_KS)
        monkeypatch.setattr(walks, "CHUNK_VALUES", per_chunk * table.width)
        assert _bits(_PowerEngine(table).qtv_many(BATCH_KS)) == _bits(whole)

    @pytest.mark.parametrize(
        "table",
        [kp8._kp_table(kp8.KPCoefficients(1.0, 0.1)), walks._kpn_table(CentralElement(3, {rho_plus(1): 0.1}))],
        ids=["kp g2", "kpn one column"],
    )
    def test_k2_is_squared(self, table):
        # numpy's array power of 2.0 can be an ulp off x*x, depending on the CPU and the width of
        # the array: 0.1 may give 0.01 where np.square gives 0.010000000000000002, and the pinned
        # k = 2 rows were squared
        engine = _PowerEngine(table)
        column = list(table.ratios).index(0.1)
        for ks in ([2, 3], (2,)):
            assert _bits([engine.powers(ks)[0, column]]) == _bits([complex(np.square(0.1))])

    def test_empty_batch(self):
        engine = _PowerEngine(BATCH_TABLES["kp"])
        assert engine.qtv_many([]) == [] and engine.bounds_many([]) == [] and engine.measure([]) == [[], [], []]

    def test_huge_k_alone_and_mixed(self):
        # the huge ks have no int64 form; batched with small ones they keep exact phases and decay to 0
        engine = _PowerEngine(walks._kpn_table(CentralElement(4, {trivial_label(): 1.0, rho_plus(2): -1.0, rho_plus(1): 0.5})))
        ks = [2**53 + 1, 10**30 + 1, 10**307, 2, 3]
        powers = engine.powers(ks)
        # the ratio -1 sits at a root of unity of order 4: its powers alternate with the parity of k
        assert np.allclose(powers[:, 1], [-1.0, -1.0, 1.0, 1.0, -1.0], rtol=0.0, atol=1e-15)
        assert powers[2, 0] == 0.0 and powers[4, 0] == 0.125

    def test_walk_memory_is_bounded(self):
        # unchunked, 1000 steps at n = 201 would hold about 650 MB per array
        engine = _PowerEngine(walks._kpn_table(random_central_state(201, np.random.default_rng(201))))
        tracemalloc.start()
        try:
            engine.qtv_many(range(1, 1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


class TestSettled:
    """``_PowerEngine.settled``: the first k at which the Diaconis-Shahshahani bound falls below a floor."""

    @pytest.mark.parametrize(
        "table",
        [
            walks._kpn_table(CentralElement(4, {trivial_label(): 1.0})),
            kp8._kp_table(kp8.KPCoefficients()),
            dual._dual_table(dual.DualCentralElement(3, {(0, 0): 1.0})),
            walks._kpn_table(CentralElement(4, {trivial_label(): 1.0, rho_plus(1): 0.0})),
        ],
        ids=["kpn", "kp", "dual", "kpn zero ratio"],
    )
    def test_haar_state_settles_at_1(self, table):
        assert _PowerEngine(table).settled(2.5e-16) == 1

    @pytest.mark.parametrize(
        "table",
        [
            walks._kpn_table(phi_p(6, 2)),  # eta_pow ratios, snapped onto the circle
            walks._kpn_table(CentralElement(4, {trivial_label(): 1.0, rho_plus(1): 1.0 + 1e-13, rho_plus(2): 0.5})),
            dual._dual_table(dual.DualCentralElement(3, {(0, 0): 1.0, (1, 0): 2.0})),  # outside the disc
        ],
        ids=["eta_pow", "within ROOT_TOL above 1", "dual above 1"],
    )
    def test_nothing_settles_on_or_outside_the_circle(self, table):
        assert _PowerEngine(table).settled(2.5e-16) == math.inf

    @pytest.mark.parametrize("floor", [2.5e-16, 1e-3, 1e-300])
    @pytest.mark.parametrize("name", sorted(BATCH_TABLES))
    def test_first_k_under_the_bound(self, name, floor):
        # settled is the exact first k below the floor, or one past it
        engine = _PowerEngine(BATCH_TABLES[name])
        s = engine.settled(floor)
        top = float(engine._mod.max())
        if top >= 1.0:
            assert s == math.inf
            return
        scale = 0.5 * math.sqrt(float(np.square(engine._dims).sum()))
        assert scale * top**s < floor <= scale * top ** (s - 2)


def _random_label_subset(n, rng):
    """A random subset of the labels of KP_n with random coefficients, a fifth of them 0, in random order."""
    labels = [l for l in irrep_labels(n) if l != trivial_label() and rng.random() < 0.6]
    if rng.random() < 0.8:  # the trivial label is left out of the table, whether present or not
        labels.append(trivial_label())
    values = rng.standard_normal((len(labels), 2)) @ [1.0, 1j]
    values[rng.random(len(labels)) < 0.2] = 0.0
    order = rng.permutation(len(labels))
    return CentralElement(n, {labels[i]: complex(values[i]) for i in order})


class TestKpnTableOrder:
    """The KP_n table orders its labels by slot, which must be their sorted order."""

    def test_keys_are_the_sorted_labels(self):
        drawn = set()
        for n in range(2, 14):
            rng = np.random.default_rng(1000 + n)
            for _ in range(12):
                a = _random_label_subset(n, rng)
                table = walks._kpn_table(a)
                labels = sorted(l for l in a.coeffs if l != trivial_label())
                assert table.keys == labels
                # the per-label reference, with the same numpy division
                dims = np.array([float(l.dim) for l in labels])
                ratios = np.array([a.coefficient(l) for l in labels], dtype=np.complex128) / dims
                assert _bits(table.dims) == _bits(dims) and _bits(table.ratios) == _bits(ratios)
                drawn |= {(n % 2, l.kind, a.coeffs[l] == 0) for l in labels}
                drawn.add((n % 2, "trivial", trivial_label() in a.coeffs))
        # both parities, every kind, zero and non-zero coefficients, with and without the trivial label
        kinds = {0: ("X", "rho+", "rho-", "sigma+", "sigma-", "trivial"), 1: ("X", "rho+", "rho-", "trivial")}
        assert drawn == {(p, kind, zero) for p, ks in kinds.items() for kind in ks for zero in (False, True)}


# (group, n, a state's coefficients, (key, value) changes that reach no built element, a key outside the group)
FIXED_CASES = {
    "kpn": (walks.KPN_WALK, 5, {rho_plus(l): math.cos(2 * math.pi * l / 5) for l in range(5)},
            [(rho_plus(1), 5.0), (x_label(0, 1), 0.3)], rho_plus(7)),
    "kpn-dual": (dual.DUAL_WALK, 3, {(0, 0): 1.0, (1, 0): 0.5, dual.XHAT: 1.0},
                 [((1, 0), 2.0), ((2, 2), 0.25), ((5, 7), 0.5)], (5, 7)),
}


@pytest.mark.parametrize("case", FIXED_CASES.values(), ids=FIXED_CASES.keys())
class TestStateFixedWhenBuilt:
    """A built state keeps its coefficients: nothing done to a dict afterwards reaches it."""

    def test_coeffs_refuse_assignment(self, case):
        group, n, coeffs, changes, outside = case
        a = group.element(n, dict(coeffs))
        for key, value in [*changes, (outside, 0.5)]:
            with pytest.raises(TypeError):
                a.coeffs[key] = value
        assert a.coeffs == coeffs

    def test_the_given_dict_does_not_reach_the_state(self, case):
        group, n, coeffs, changes, _ = case
        given = dict(coeffs)
        a = group.element(n, given)

        def readings():
            c = classify_walk(group, a)
            return dict(a.coeffs), group.check(a, algebra.DEFAULT_TOL), c, _PowerEngine(c.table).measure(range(1, 6))

        before = readings()
        given.update(changes)
        assert readings() == before and a.coeffs == coeffs

    def test_replace_checks_and_copies_the_new_coefficients(self, case):
        group, n, coeffs, changes, outside = case
        a = group.element(n, coeffs)
        with pytest.raises(ValueError, match="outside|invalid"):
            dataclasses.replace(a, coeffs={**coeffs, outside: 0.5})
        given = dict(coeffs)
        b = dataclasses.replace(a, coeffs=given)
        given.update(changes)
        assert b == a and b.coeffs == coeffs
        with pytest.raises(TypeError):
            b.coeffs[outside] = 0.5

    def test_equal_states_compare_equal(self, case):
        group, n, coeffs, changes, _ = case
        assert group.element(n, coeffs) == group.element(n, dict(reversed(coeffs.items())))
        assert group.element(n, coeffs) != group.element(n, {**coeffs, changes[0][0]: changes[0][1]})


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

    # The reference: the bounds of the table's float moduli (the engine's own
    # |r_alpha|, snapped to 1 within ROOT_TOL) in 50 digits.  Relative to
    # those moduli the bounds are exact up to rounding; a k-th power of |r|
    # would amplify the rounding of |r| itself k times.
    @staticmethod
    def _reference(table, k):
        mods = np.abs(table.ratios)
        mods[np.abs(mods - 1.0) <= walks.ROOT_TOL] = 1.0
        with mpmath.workdps(50):
            powered = np.array([mpmath.mpf(float(m)) ** k for m in mods], dtype=object)
            lower = max(powered[table.lower], default=mpmath.mpf(0)) / 2
            upper = mpmath.sqrt(mpmath.fsum((float(d) * p) ** 2 for d, p in zip(table.dims, powered))) / 2
        return lower, upper

    def _assert_bounds(self, table, ks):
        engine = _PowerEngine(table)
        for k, (lower, upper) in zip(ks, engine.bounds_many(ks)):
            for value, ref in zip((lower, upper), self._reference(table, k)):
                # relative 1e-15, measured against at least the smallest normal float
                assert abs(value - ref) <= 1e-15 * max(abs(ref), sys.float_info.min), (k, value, ref)
            assert upper >= lower, (k, lower, upper)

    @pytest.mark.parametrize("name", sorted(BATCH_TABLES))
    def test_match_high_precision_reference(self, name):
        self._assert_bounds(BATCH_TABLES[name], BATCH_KS)

    @pytest.mark.parametrize("k, top", [(1, 1e-170), (2, 1e-85), (3, 10 ** (-170 / 3))])
    def test_tiny_powers_are_scaled(self, k, top):
        # |r|^k is about 1e-170, so d^2 |r|^(2k) underflows unless each row is scaled
        a = random_central_state(6, np.random.default_rng(1170))
        table = walks._kpn_table(a)
        t = top / np.abs(table.ratios).max()
        tiny = CentralElement(6, {l: c if l == trivial_label() else t * c for l, c in a.coeffs.items()})
        validate_state(tiny).require()
        engine = _PowerEngine(walks._kpn_table(tiny))
        lower, upper = engine.bounds_many((k,))[0]
        assert lower > 1e-171
        assert upper > 1e-171
        self._assert_bounds(engine.table, [k])

    @pytest.mark.parametrize("labels", [(rho_minus(0),), (rho_plus(1), rho_plus(4)), (rho_minus(2), rho_minus(3))])
    def test_subnormal_powers_keep_the_sandwich(self, labels):
        # no slack: a row scaled by its exponent rounds once, after the square root
        for m in range(1, 60):
            engine = _PowerEngine(walks._kpn_table(CentralElement(5, {trivial_label(): 1.0, **dict.fromkeys(labels, m * 5e-324)})))
            for k in (1, 2):
                lower, upper = engine.bounds_many((k,))[0]
                assert lower <= engine.qtv_many((k,))[0] <= upper, (m, k)

    def test_on_the_circle_at_huge_k(self):
        # every ratio of phi_5 lies on the circle: its powers keep modulus 1 at k = 10**307
        a = phi_p(5, 1)
        self._assert_bounds(walks._kpn_table(a), [10**307])
        assert ds_lower_bound(a, 10**307) == 0.5
        assert ds_upper_bound(a, 10**307) == pytest.approx(0.5 * math.sqrt(4), rel=1e-15)


class TestHugeK:
    """Powers at k far beyond 2^53 keep exact phases and do not overflow."""

    def test_root_of_unity_phase_beyond_2_53(self):
        engine = _PowerEngine(walks._kpn_table(CentralElement(4, {trivial_label(): 1.0, rho_plus(2): -1.0})))
        for k in (2**53 + 1, 2**60 + 3, 10**30 + 1):
            assert engine.powers((k,))[0][0] == pytest.approx(-1.0)
            assert engine.powers((k + 1,))[0][0] == pytest.approx(1.0)

    def test_order_n_roots_beyond_2_53(self):
        n = 5
        engine = _PowerEngine(walks._kpn_table(phi_p(n, 1)))
        k = 2**55 + 2
        expected = [eta(n) ** ((l * k) % n) for l in range(1, n)]
        assert np.allclose(engine.powers((k,))[0], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "power",
        [
            lambda: convolution_power(CentralElement(3, {trivial_label(): 1.0, rho_plus(1): 2.0}), 1200),
            lambda: kp8.kp_convolution_power(kp8.KPCoefficients(1.0, 2.0), 1200),
            lambda: dual.dual_power(dual.DualCentralElement(3, {(0, 0): 1.0, (1, 0): 2.0}), 1200),
        ],
        ids=["kpn", "kp", "dual"],
    )
    def test_power_past_the_float_range_raises_without_a_warning(self, power):
        # these are not states: a ratio above 1 powers past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^the powers of the walk leave the floating-point range$"):
                power()

    def test_decayed_power_has_no_phase(self):
        engine = _PowerEngine(walks._kpn_table(cutoff_state(61)))
        k = 10**307
        assert np.all(engine.powers((k,))[0] == 0)
        assert engine.qtv_many((k,))[0] == 0.0 and engine.bounds_many((k,))[0] == (0.0, 0.0)


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

    @pytest.mark.parametrize("n", [*range(3, 62, 2), 101, 201])
    def test_cutoff_state_is_a_state(self, n):
        report = validate_state(cutoff_state(n))
        assert report.is_state, report.failures

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

    @pytest.mark.parametrize("n", [*range(3, 62, 2), 101, 201])
    def test_table_is_the_state_table(self, n):
        # the label-free table of cutoff is the labelled table of the state, bit for bit
        flat, labelled = walks.cutoff_table(n), walks._kpn_table(cutoff_state(n))
        assert labelled.keys == [rho_plus(l) for l in flat.keys] and list(flat.keys) == list(range(1, n))
        assert flat.ratios.tobytes() == labelled.ratios.tobytes()
        assert flat.dims.tobytes() == labelled.dims.tobytes()
        assert (flat.order, flat.lower, flat.weights, flat.width) == (
            labelled.order, labelled.lower, labelled.weights, labelled.width
        )
        powered = _PowerEngine(labelled).powers([1, 2, 3, n * n, 10**12])
        ours, theirs = flat.synth(powered), labelled.synth(powered)
        assert len(ours) == len(theirs)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(ours, theirs))

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 10])
    def test_table_and_state_reject_the_same_n(self, n):
        for build in (cutoff_state, walks.cutoff_table):
            with pytest.raises(ValueError, match=r"^the cosine walk requires odd n >= 3$"):
                build(n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: qtv_to_haar(cutoff_state(5), 0), "k must be positive"),
        (lambda: cutoff_bounds(4, 1), "the cosine walk requires odd n >= 3"),
        (lambda: cutoff_bounds(5, 0), "k must be positive"),
        (lambda: dual.DualCentralElement(3, {(3, 0): 1.0}), "key (3, 0) outside Z_3 x Z_3"),
        (
            lambda: dual.DualCentralElement(3, {(0, 0): 1.0, (1.5, 0): 0.5}),
            "key (1.5, 0) is not an (i, j) pair of integers or 'Xhat'",
        ),
        (lambda: dual.DualCentralElement(3, {(1,): 1.0}), "key (1,) is not an (i, j) pair of integers or 'Xhat'"),
        (lambda: dual.DualCentralElement(3, {"e:1,0": 1.0}), "key 'e:1,0' is not an (i, j) pair of integers or 'Xhat'"),
        (lambda: _slot(4, IrrepLabel("tau", 0)), "unknown label kind 'tau'"),
        (lambda: _slot(5, sigma_plus(7)), "sigma+:7 requires even n, got n=5"),
        (lambda: _slot(4, IrrepLabel("rho+", 0, 1)), "rho+:0 invalid for n=4"),
        (lambda: _slot(4, x_label(0, 0)), "X:0,0 invalid for n=4"),
        (lambda: validate_spec(HGammaSpec(frozenset({(0, 0), (5, 0)})), 4), "member (5, 0) outside Z_4 x Z_4"),
        (lambda: validate_spec(HGammaLSpec(2, 2), 4), "l=2 outside Z_2"),
        (lambda: validate_spec(HGammaLTauSpec(2, 3, 0, (1, 1)), 4), "need p > 1 and p*q = n, got p=2, q=3, n=4"),
        (lambda: validate_spec(HGammaLTauSpec(2, 2, 2, (1, 1)), 4), "l=2 outside Z_2"),
        (lambda: validate_spec("nope", 4), "unknown spec 'nope'"),
        (lambda: idempotent_profile(HaarSpec(), 4), "closed-form profile exists for the diagonal families only"),
        (lambda: validate_spec(HGammaLTauSpec(4, 1, 0, (1, 1, -1, 1)), 4), "tau has a negative Fourier value"),
        (lambda: validate_spec(HGammaLTauSpec(3, 1, 0, (1, 1, -1)), 3), "tau has a non-real Fourier value"),
        (lambda: validate_spec(HGammaLTauSpec(2, 2, 0, (1, 2)), 4), "tau entries must be +1 or -1"),
        (lambda: validate_spec(HGammaLTauSpec(2, 2, 0, (1,)), 4), "tau must have length 2"),
    ],
    ids=[
        "qtv-k",
        "bounds-n",
        "bounds-k",
        "dual-key",
        "dual-key-float",
        "dual-key-short",
        "dual-key-text",
        "label-kind",
        "sigma-odd-n",
        "one-dim-sub",
        "x-sub-zero",
        "gamma-member",
        "q-l",
        "p-q-n",
        "p-q-l",
        "unknown-spec",
        "profile-family",
        "tau-negative",
        "tau-non-real",
        "tau-entries",
        "tau-length",
    ],
)
def test_library_value_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
        assert report.classification.period == 3

    def test_table_is_built_once(self, monkeypatch):
        calls = []
        original = walks._kpn_table
        monkeypatch.setattr(walks, "_kpn_table", lambda a: calls.append(a) or original(a))
        walk_trace(cutoff_state(5), 5)
        assert len(calls) == 1


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
            limit = build_idempotent(c.limit, a.n)
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


# Steps at which the invariants are checked, from the first steps into the tails.
FIBONACCI_K = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)
INVARIANT_SLACK = 1e-12


def _at_most(x, y):
    """x <= y up to INVARIANT_SLACK relative to the larger of the two.

    Subnormal values carry no relative precision (a state 5e-324 away
    from the Haar state has qtv 5e-324 and upper bound 0.0 at k = 1), so
    differences below the smallest normal float are forgiven.
    """
    return x <= y + INVARIANT_SLACK * max(abs(x), abs(y)) + sys.float_info.min


def assert_walk_invariants(table):
    engine = _PowerEngine(table)
    previous = 1.0
    for k in FIBONACCI_K:
        qtv, (lower, upper) = engine.qtv_many((k,))[0], engine.bounds_many((k,))[0]
        assert 0.0 <= qtv and _at_most(qtv, 1.0), (k, qtv)
        assert _at_most(qtv, previous), (k, previous, qtv)
        assert _at_most(lower, qtv) and _at_most(qtv, upper), (k, lower, qtv, upper)
        previous = qtv


def _weights(draw, count):
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    total = sum(w)
    return [x / total for x in w] if total > 0 else [1.0] + [0.0] * (count - 1)


@lru_cache(maxsize=None)
def _kpn_idempotents(n):
    return [element_to_central(build_idempotent(spec, n)) for spec in enumerate_central_idempotents(n)]


@st.composite
def kpn_states(draw):
    """Convex combinations of a random state and central idempotent states of KP_n."""
    n = draw(st.integers(2, 10))
    parts = [random_central_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))]
    parts += draw(st.lists(st.sampled_from(_kpn_idempotents(n)), max_size=3))
    coeffs = {}
    for w, part in zip(_weights(draw, len(parts)), parts):
        for label, c in part.coeffs.items():
            coeffs[label] = coeffs.get(label, 0.0) + w * c
    return CentralElement(n, coeffs)


@st.composite
def kp_states(draw):
    """Points of KP's state polytope.

    The density of g is positive iff p = (1+g2+g3+g4+2gX, 1+g2+g3+g4-2gX,
    1+g2-g3-g4, 1-g2+g3-g4, 1-g2-g3+g4) >= 0, and its Haar integral
    (p1 + p2 + 2 p3 + 2 p4 + 2 p5)/8 is 1, so the vertices are p = 8, 8,
    4, 4, 4 times a unit vector.
    """
    w = _weights(draw, 5)
    p = [8 * w[0], 8 * w[1], 4 * w[2], 4 * w[3], 4 * w[4]]
    s = (p[0] + p[1]) / 2  # 1 + g2 + g3 + g4
    g2, g3, g4 = ((s + p[i]) / 2 - 1 for i in (2, 3, 4))
    return kp8.KPCoefficients(1.0, g2, g3, g4, (p[0] - p[1]) / 4)


_subgroups = lru_cache(maxsize=None)(subgroups_znxzn)


@st.composite
def dual_states(draw):
    """Convex combinations of subgroup indicators of Z_n x Z_n, with Xhat for the whole group."""
    n = draw(st.integers(2, 10))
    groups = draw(st.lists(st.sampled_from(_subgroups(n)), min_size=1, max_size=3))
    coeffs = {}
    for w, group in zip(_weights(draw, len(groups)), groups):
        for key in group:
            coeffs[key] = coeffs.get(key, 0.0) + w
        if len(group) == n * n:
            coeffs[dual.XHAT] = coeffs.get(dual.XHAT, 0.0) + w * n
    return dual.DualCentralElement(n, coeffs)


class TestWalkInvariants:
    """On genuine states of every group: 0 <= qtv <= 1, qtv non-increasing, lower <= qtv <= upper."""

    @settings(max_examples=100, deadline=None)
    @given(kpn_states())
    def test_kpn(self, a):
        validate_state(a).require()
        assert_walk_invariants(walks._kpn_table(a))

    @settings(max_examples=100, deadline=None)
    @given(kp_states())
    def test_kp(self, g):
        kp8.kp_validate_state(g).require()
        assert_walk_invariants(kp8._kp_table(g))

    @settings(max_examples=100, deadline=None)
    @given(dual_states())
    def test_dual(self, a):
        dual.dual_validate_state(a).require()
        assert_walk_invariants(dual._dual_table(a))


class TestClassifierAgreesWithEngine:
    """Through ``classify_walk``, at tol = 1e-9: qtv(10^11) == 0.0 exactly when the walk is classified haar.

    A haar walk has every ratio more than 10 tol inside the circle, and
    |r|^(10^11) <= e^-1000 is 0.0 in double precision; any other walk has
    a ratio on the circle, which keeps |r|^(10^11) >= e^-100 > 0.
    """

    @pytest.mark.parametrize(
        "group, states",
        [(walks.KPN_WALK, kpn_states()), (kp8.KP_WALK, kp_states()), (dual.DUAL_WALK, dual_states())],
        ids=["kpn", "kp", "dual"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_haar_exactly_when_the_distance_vanishes(self, group, states, data):
        a = data.draw(states)
        try:
            c = walks.classify_walk(group, a)
        except AmbiguousBoundaryError:
            return
        assert (_PowerEngine(c.table).qtv_many((10**11,))[0] == 0.0) == (c.kind == "haar"), c
