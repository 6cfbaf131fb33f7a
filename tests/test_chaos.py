import os
import sys
import tracemalloc
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchaos import chaos, cli, engine, model, rng, solver
from mfchaos.chaos import (RunDiagnostics, _one_coupled_run, build_reference_flow,
                           coupling_error_curve, estimate_chaos_rate, fit_loglog,
                           marginal_tv_study, oracle_mean_flow,
                           stability_perturbation_test, theoretical_exponent)
from mfchaos.engine import (BlowUpError, ConstantLaw, GaussianLaw, SimConfig, coupled_stack,
                            simulate_coupled, simulate_frozen, simulate_interacting)
from mfchaos.measures import pinsker_check
from mfchaos.model import ModelError, make_delay_model, make_linear_model, make_sqrt_model
from mfchaos.solver import MeasureFlow

GAUSS = GaussianLaw(1.0, 0.5)
CFG = SimConfig(T=1.0, dt=0.02, N=64, seed=555)
N_SMALL = [64, 256, 1024]


@pytest.fixture(scope="module")
def linear_setup():
    mdl = make_linear_model()
    ref = build_reference_flow(CFG, mdl, GAUSS, M=8192)
    return mdl, ref


class TestTheoreticalExponent:
    def test_heavy_moment_gives_half(self):
        assert theoretical_exponent(4.0) == 0.5

    def test_light_moment_gives_fraction(self):
        assert theoretical_exponent(1.5) == pytest.approx(1.0 / 3.0)

    def test_limit_is_half(self):
        assert theoretical_exponent(1e12) == pytest.approx(0.5)

    def test_rejects_p_at_most_one_and_two(self):
        for bad in (0.5, 1.0, 2.0):
            with pytest.raises(ValueError):
                theoretical_exponent(bad)

    def test_rate_sweep_rejects_p_two_before_stepping(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a run was stepped")

        monkeypatch.setattr(chaos, "_coupled_sweep", sweep)
        mdl = make_linear_model(p=2.0)
        ref = build_reference_flow(CFG, mdl, GAUSS, M=64)   # stepped only when read
        with pytest.raises(ValueError, match="moment order 2"):
            estimate_chaos_rate(CFG, mdl, N_SMALL, 2, ref)


class TestFitLoglog:
    def test_exact_power_law(self):
        xs = np.array([8, 16, 32, 64, 128], dtype=float)
        slope, intercept, stderr = fit_loglog(xs, 3.0 * xs ** -0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    # sizes span at least a factor of two, as a sweep's N_list does
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.integers(1, 1 << 16), min_size=3, max_size=12, unique=True)
           .filter(lambda v: max(v) >= 2 * min(v)),
           s=st.floats(-2.0, 2.0), log_c=st.floats(-5.0, 5.0))
    def test_exact_power_laws_recovered(self, xs, s, log_c):
        xs = np.array(xs, dtype=float)
        slope, intercept, stderr = fit_loglog(xs, np.exp(log_c) * xs ** s)
        assert abs(slope - s) <= 1e-12
        assert abs(intercept - log_c) <= 1e-12
        assert stderr < 1e-9

    def test_constant_values(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, _, _ = fit_loglog(xs, np.full(4, 2.5))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_recovery_within_three_stderr(self):
        rng = np.random.default_rng(123)
        xs = np.logspace(1, 4, 7)
        ys = 2.0 * xs ** -0.5 * np.exp(rng.normal(0, 0.05, size=7))
        slope, _, stderr = fit_loglog(xs, ys)
        assert abs(slope - (-0.5)) <= 3.0 * stderr

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([1, 2], [1, 2])
        with pytest.raises(ValueError, match="degenerate"):
            fit_loglog([1, 2, 3], [1.0, 0.0, 1.0])


class TestChaosRate:
    def test_linear_slope_in_band(self, linear_setup):
        mdl, ref = linear_setup
        rep = estimate_chaos_rate(CFG, mdl, N_SMALL, 8, ref)
        assert -0.65 <= rep.slope <= -0.25
        assert rep.theoretical == 0.5
        assert all(d.triangle_ok for d in rep.runs)

    def test_errors_non_increasing_across_zoo(self):
        # one inversion at adjacent N tolerated (Monte Carlo noise)
        cases = [make_linear_model(), make_sqrt_model(),
                 make_delay_model(beta=0.5, r=0.2, sigma0=0.2)]
        for mdl in cases:
            cfg = SimConfig(T=1.0, dt=0.02, N=64, seed=555)
            ref = build_reference_flow(cfg, mdl, GAUSS, M=8192)
            rep = estimate_chaos_rate(cfg, mdl, N_SMALL, 8, ref)
            inversions = sum(b > a for a, b in zip(rep.error_mean, rep.error_mean[1:]))
            assert inversions <= 1

    def test_deterministic_model_rate_from_initial_data(self):
        # sigma = 0 and no mean-field term: the only error source is the
        # initial sampling, whose W1 rate for Gaussian data is ~ N^-1/2
        mdl = make_linear_model(c=0.0, sigma0=0.0)
        ref = build_reference_flow(CFG, mdl, GAUSS, M=8192)
        rep = estimate_chaos_rate(CFG, mdl, N_SMALL, 8, ref)
        assert -0.65 <= rep.slope <= -0.25

    def test_self_reference_degenerate(self):
        # zero dynamics from a point initial law: every run's empirical flow
        # equals the reference, all errors vanish, the fit must refuse
        mdl = make_linear_model(a=0.0, c=0.0, sigma0=0.0)
        law = ConstantLaw(1.0)
        ref = build_reference_flow(CFG, mdl, law, M=64)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_chaos_rate(CFG, mdl, N_SMALL, 4, ref)

    def test_validation(self, linear_setup):
        mdl, ref = linear_setup
        with pytest.raises(ValueError):
            estimate_chaos_rate(CFG, mdl, [64, 64, 128], 4, ref)
        with pytest.raises(ValueError):
            estimate_chaos_rate(CFG, mdl, [64, 128], 4, ref)
        with pytest.raises(ValueError):
            estimate_chaos_rate(CFG, mdl, N_SMALL, 1, ref)
        # the coupling sweep shares the replica and ordering rules, not the three-size one
        for N_list, replicas in (([64, 64], 2), ([128, 64], 2), ([64, 128], 1)):
            with pytest.raises(ValueError):
                coupling_error_curve(CFG, mdl, ref, N_list, replicas)

    def test_worker_count_invariance(self, linear_setup):
        mdl, ref = linear_setup
        a = estimate_chaos_rate(CFG, mdl, N_SMALL, 4, ref, workers=1)
        b = estimate_chaos_rate(CFG, mdl, N_SMALL, 4, ref, workers=3)
        assert np.array_equal(a.error_mean, b.error_mean)
        assert a.slope == b.slope
        assert [d.seed for d in a.runs] == [d.seed for d in b.runs]
        # the coupling sweep, on the same dispatch
        c1 = coupling_error_curve(CFG, mdl, ref, N_SMALL, 4, workers=1)
        c3 = coupling_error_curve(CFG, mdl, ref, N_SMALL, 4, workers=3)
        assert c1.error_mean.tobytes() == c3.error_mean.tobytes()
        assert c1.error_stderr.tobytes() == c3.error_stderr.tobytes()
        assert repr(c1.slope) == repr(c3.slope)

    def test_worker_count_invariance_across_the_draw_ahead_size(self):
        # criterion 10 where N reaches _AHEAD_MIN: that N draws each step's
        # noise on its run's helper thread, in every per-N worker thread
        # too, here with the interpreter switching threads far more often
        mdl = make_linear_model()
        cfg = SimConfig(T=0.03, dt=0.01, N=64, seed=2024)
        ref = build_reference_flow(cfg, mdl, GAUSS, M=512)
        N_list = [engine._AHEAD_MIN // 16, engine._AHEAD_MIN // 4, engine._AHEAD_MIN]
        one = estimate_chaos_rate(cfg, mdl, N_list, 2, ref, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            two = estimate_chaos_rate(cfg, mdl, N_list, 2, ref, workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert repr(one.runs) == repr(two.runs)

    def test_interacting_half_of_coupled_run_matches_plain(self, linear_setup):
        # the sweep records coupled runs; their interacting halves are the
        # same trajectories a plain interacting run would produce
        mdl, ref = linear_setup
        cfg = SimConfig(T=1.0, dt=0.02, N=128, seed=777)
        coupled = simulate_coupled(cfg, mdl, ref)
        plain = simulate_interacting(cfg, mdl, GAUSS)
        assert np.array_equal(coupled.interacting.values, plain.values)


def score_every_row(config, model, reference, N, replicas, master_seed):
    """The per-N sweep task with an exact W1 for every row at every grid time."""
    seeds = [rng.derive_seed(master_seed, N, r) for r in range(replicas)]
    w1_sup = np.zeros(2 * replicas)
    pairing_sup = np.zeros(replicas)

    def score(k, x, xs):
        np.maximum(w1_sup, reference.w1_at(k, xs), out=w1_sup)
        gap = np.abs(x[:replicas] - x[replicas:]).mean(axis=1)
        np.maximum(pairing_sup, gap, out=pairing_sup)

    coupled_stack(replace(config, N=N), model, reference, seeds, observe=score)
    runs = []
    for r, seed in enumerate(seeds):
        hat, tld, pair = float(w1_sup[r]), float(w1_sup[replicas + r]), float(pairing_sup[r])
        runs.append(RunDiagnostics(N=N, replica=r, seed=seed, w1_sup=hat, pairing_sup=pair,
                                   limit_w1_sup=tld, triangle_ok=hat <= pair + tld + 1e-12))
    return runs


@st.composite
def sorted_stack(draw, rows, n):
    """A (rows, n) stack of sorted samples: continuous values, or ties from {-2, ..., 2}."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        vals = gen.normal(0.0, draw(st.sampled_from([0.01, 1.0, 100.0])), size=(rows, n))
    else:
        vals = gen.integers(-2, 3, size=(rows, n)).astype(float)
    return np.sort(vals, axis=1)


class TestSkippedScoring:
    """The sweep scores a row exactly only where its skeleton bound lets the sup rise."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), N=st.integers(1, 40), K=st.integers(1, 5),
           counts=st.sampled_from(["N divides M", "M divides N", "any"]),
           shift=st.sampled_from([0.0, 3.0, -1e3, 1e6]))
    def test_bound_is_never_below_the_exact_w1(self, data, N, K, counts, shift):
        if counts == "N divides M":
            M = N * data.draw(st.integers(1, 12))
        elif counts == "M divides N":
            M = data.draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
        else:
            M = data.draw(st.integers(1, 150))
        times = np.linspace(0.0, 0.2, 3)
        ref = MeasureFlow(times, data.draw(sorted_stack(3, M)), presorted=True)
        xs = data.draw(sorted_stack(K, N)) + shift
        bound = chaos._w1_upper_bound(ref, N)
        for k in range(len(times)):
            # the margin the sweep's skip rule allows for rounding
            assert np.all(bound(k, xs) * (1 + 1e-9) >= ref.w1_at(k, xs))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_row_blocked_gaps_are_the_gaps_taken_at_once(self, monkeypatch, rows):
        # the skeleton bound's and the pairing gap's row means, over blocks of
        # one, three or every row: each row is reduced alone, bit for bit
        g = np.random.default_rng(0)
        xs, ys = g.normal(size=(7, 1000)), g.normal(size=(7, 1000))
        monkeypatch.setattr(chaos, "_W1_BLOCK_BYTES", 8 * 1000 * rows)
        for other in (ys, ys[0]):
            assert (chaos._mean_gaps(xs, other).tobytes()
                    == np.abs(xs - other).mean(axis=1).tobytes())

    @pytest.mark.parametrize("N_list", [[16, 64, 512], [24, 40, 96]], ids=["nested", "non-nested"])
    @pytest.mark.parametrize("name", ["linear", "sqrt", "delay"])
    def test_runs_are_bit_equal_to_scoring_every_row(self, name, N_list):
        if name == "delay":
            mdl = make_delay_model(beta=0.5, r=0.06, a=-0.3, sigma0=0.3, m="uniform", atoms=4)
            cfg = SimConfig(T=0.4, dt=0.02, N=16, seed=31)
        else:
            mdl = make_linear_model() if name == "linear" else make_sqrt_model()
            cfg = SimConfig(T=0.4, dt=0.02, N=16, seed=31)
        ref = build_reference_flow(cfg, mdl, GAUSS, M=256)
        for N in N_list:
            got = engine._drain(_one_coupled_run(cfg, mdl, ref, N, 4))
            assert repr(got) == repr(score_every_row(cfg, mdl, ref, N, 4, cfg.seed))

    def test_fewer_rows_reach_the_kernel_than_scoring_every_row(self, linear_setup, monkeypatch):
        mdl, ref = linear_setup
        rows = []
        kernel = solver.w1_sorted_rows

        def counting(xs, ys):
            rows.append(len(xs))
            return kernel(xs, ys)

        monkeypatch.setattr(solver, "w1_sorted_rows", counting)
        replicas = 5
        for N in N_SMALL:
            engine._drain(_one_coupled_run(CFG, mdl, ref, N, replicas))
        # skeleton curves included
        assert 0 < sum(rows) < 2 * replicas * len(N_SMALL) * (CFG.steps + 1)


class TestStackedReplicas:
    """The per-N task steps every replica of both twins as one stack."""

    @pytest.mark.parametrize("name", ["linear", "delay"])
    def test_replicas_match_standalone_coupled_runs(self, name):
        if name == "linear":
            mdl, cfg = make_linear_model(), SimConfig(T=0.4, dt=0.02, N=16, seed=31)
        else:
            mdl = make_delay_model(beta=0.5, r=0.06, a=-0.3, sigma0=0.3, m="uniform", atoms=4)
            cfg = SimConfig(T=0.4, dt=0.02, N=16, seed=31)
        ref = build_reference_flow(cfg, mdl, GAUSS, M=256)
        for N in (16, 24):   # nesting with M and not
            runs = engine._drain(_one_coupled_run(cfg, mdl, ref, N, 3))
            assert len(runs) == 3
            for r, got in enumerate(runs):
                seed = rng.derive_seed(cfg.seed, N, r)
                rec = simulate_coupled(replace(cfg, N=N, seed=seed), mdl, ref)
                hat = float(np.max(ref.w1_curve(MeasureFlow.from_record(rec.interacting))))
                tld = float(np.max(ref.w1_curve(MeasureFlow.from_record(rec.limit))))
                pair = float(np.max(rec.error_curve))
                want = RunDiagnostics(N=N, replica=r, seed=seed, w1_sup=hat, pairing_sup=pair,
                                      limit_w1_sup=tld, triangle_ok=hat <= pair + tld + 1e-12)
                assert repr(got) == repr(want)

    def test_blow_up_names_the_particle_and_step_of_the_first_replica_to_fail(self):
        cubic = replace(make_linear_model(sigma0=0.5),
                        drift=lambda t, x, mu: np.asarray(x, dtype=float) ** 3)
        cfg = SimConfig(T=10.0, dt=0.25, N=4, seed=18)
        law = GaussianLaw(0.0, 0.5)
        flow = MeasureFlow.constant_flow(cfg.times, [0.0, 1.0], initial_law=law)
        alone = []
        with np.errstate(over="ignore"):
            with pytest.raises(BlowUpError) as stacked:
                engine._drain(_one_coupled_run(cfg, cubic, flow, 4, 5))
            for r in range(5):
                seed = rng.derive_seed(cfg.seed, 4, r)
                with pytest.raises(BlowUpError) as one:
                    simulate_coupled(replace(cfg, seed=seed), cubic, flow)
                alone.append((one.value.step, r, one.value.particle))
        step, first, particle = min(alone)
        assert first > 0 and len({step for step, _, _ in alone}) > 1
        assert (stacked.value.step, stacked.value.particle) == (step, particle)

    def test_bad_coefficient_at_sane_state_is_model_error(self):
        nan_sigma = replace(make_linear_model(), sigma=lambda t, x: np.where(
            np.asarray(x) > 1.0, np.nan, 0.1))
        cfg = SimConfig(T=1.0, dt=0.1, N=4, seed=0)
        flow = MeasureFlow.constant_flow(cfg.times, [2.0], initial_law=ConstantLaw(2.0))
        with pytest.raises(ModelError, match="non-finite"):
            engine._drain(_one_coupled_run(cfg, nan_sigma, flow, 4, 3))


class TestPerNDispatch:
    """One dispatch for every sweep: each share of N steps its own reference
    copy and its runs in one time loop; results come back in order."""

    def test_shares_take_largest_N_first_and_results_come_back_in_order(self, monkeypatch):
        submitted = []

        class StubPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args[3])
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(chaos, "ThreadPoolExecutor", StubPool)
        times = np.linspace(0.0, 0.2, 3)
        ref = MeasureFlow(times, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), presorted=True)
        seen = []

        def run(flow, N):
            for k in range(flow.steps + 1):
                seen.append((N, k, flow.measure_at(k).mean))
                if k < flow.steps:
                    yield k
            return N, len(seen)

        sizes = [64, 4096, 16, 4096, 256]
        assert chaos._shares(sizes, 2) == [[1, 4], [0, 2, 3]]
        out = chaos._per_n(run, ref, sizes, 2)
        assert submitted == [[1, 4], [0, 2, 3]]
        # each share steps its runs together, grid time by grid time, smaller index first
        assert seen[:4] == [(4096, 0, 0.5), (256, 0, 0.5), (4096, 1, 2.5), (256, 1, 2.5)]
        assert out == [(64, 13), (4096, 5), (16, 14), (4096, 15), (256, 6)]
        seen.clear()
        assert [N for N, _ in chaos._per_n(run, ref, sizes, 1)] == sizes
        assert [k for _, k, _ in seen] == [k for k in range(3) for _ in sizes]

    def test_duplicate_sizes_come_back_in_N_list_order(self, linear_setup):
        # the coupled sweeps reject such a list; the dispatch itself keeps any order
        mdl, ref = linear_setup
        N_list = [64, 16, 64]

        def run(flow, N):
            return _one_coupled_run(CFG, mdl, flow, N, 2)
        one = chaos._per_n(run, ref, N_list, 1)
        two = chaos._per_n(run, ref, N_list, 2)
        assert [d.N for runs in two for d in runs] == [64, 64, 16, 16, 64, 64]
        assert repr(two) == repr(one)
        assert repr(two[0]) == repr(two[2])


class TestCouplingCurve:
    def test_self_coupling_zeros(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.5, dt=0.02, N=32, seed=3)
        rec = simulate_interacting(cfg, mdl, GAUSS)
        own = MeasureFlow.from_record(rec, initial_law=GAUSS)
        out = simulate_coupled(cfg, mdl, own)
        assert np.all(out.error_curve == 0.0)

    def test_slope_tracks_w1_slope(self, linear_setup):
        mdl, ref = linear_setup
        rep = estimate_chaos_rate(CFG, mdl, N_SMALL, 8, ref)
        cup = coupling_error_curve(CFG, mdl, ref, N_SMALL, 8)
        assert all(a > b for a, b in zip(cup.error_mean, cup.error_mean[1:]))
        assert abs(cup.slope - rep.slope) <= 0.15

    def test_triangle_inequality_exact_per_run(self, linear_setup):
        mdl, ref = linear_setup
        rep = estimate_chaos_rate(CFG, mdl, N_SMALL, 8, ref)
        for d in rep.runs:
            assert d.w1_sup <= d.pairing_sup + d.limit_w1_sup + 1e-12


class TestTvStudy:
    def test_requires_ellipticity_floor(self, linear_setup):
        _, ref = linear_setup
        bare = make_sqrt_model()   # sigma(0) = 0: no floor declared
        assert bare.sigma_sq_floor == 0.0
        with pytest.raises(ValueError, match="sigma_sq_floor"):
            marginal_tv_study(CFG, bare, ref, N_SMALL, 4, [0.5])

    def test_requires_a_replica(self, linear_setup):
        mdl, ref = linear_setup
        with pytest.raises(ValueError, match="at least one replica"):
            marginal_tv_study(CFG, mdl, ref, N_SMALL, 0, [0.5])

    def test_decreasing_trend_in_N(self, linear_setup):
        mdl, ref = linear_setup
        rep = marginal_tv_study(CFG, mdl, ref, [16, 64, 256, 1024], 12, [0.5, 1.0])
        for j in range(rep.table.shape[1]):
            col = rep.table[:, j]
            assert col[0] > col[-1]
            inversions = sum(b > a for a, b in zip(col, col[1:]))
            assert inversions <= 1

    def test_self_reference_hits_floor(self, linear_setup):
        # pool the interacting samples and use them as their own reference:
        # the estimator sees identical sample sets
        from dataclasses import replace
        from mfchaos import rng as noise
        mdl, _ = linear_setup
        cfg = SimConfig(T=0.5, dt=0.05, N=64, seed=12)
        run_seed = noise.derive_seed(cfg.seed, 64, 0)   # replica seed the study uses
        rec = simulate_interacting(replace(cfg, seed=run_seed), mdl, GAUSS)
        own = MeasureFlow.from_record(rec, initial_law=GAUSS)
        rep = marginal_tv_study(cfg, mdl, own, [64], 1, [0.5])
        assert rep.table[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_pinsker_on_shared_histogram(self, linear_setup):
        # discretize two marginals on one histogram; the variation norm and
        # entropy computed there satisfy the quadratic bound exactly
        mdl, ref = linear_setup
        cfg = SimConfig(T=0.5, dt=0.05, N=256, seed=31)
        rec = simulate_interacting(cfg, mdl, GAUSS)
        a = rec.values[-1]
        b = ref.values[ref.steps // 2]
        edges = np.histogram_bin_edges(np.concatenate([a, b]), bins=24)
        p, _ = np.histogram(a, bins=edges)
        q, _ = np.histogram(b, bins=edges)
        p = (p + 1.0) / (p + 1.0).sum()    # smoothed so q << p
        q = (q + 1.0) / (q + 1.0).sum()
        var, ent, holds = pinsker_check(p, q)
        assert holds
        assert var ** 2 <= 2.0 * ent + 1e-12

    def test_off_grid_time_rejected_and_horizon_accepted(self, linear_setup):
        mdl, ref = linear_setup
        with pytest.raises(ValueError, match="not an integer multiple"):
            marginal_tv_study(CFG, mdl, ref, [16], 1, [0.51])
        with pytest.raises(ValueError, match=r"\[0, T"):
            marginal_tv_study(CFG, mdl, ref, [16], 1, [CFG.T + CFG.dt])
        rep = marginal_tv_study(CFG, mdl, ref, [16], 1, [CFG.T])
        assert rep.times == [CFG.T] and np.isfinite(rep.table).all()


class TestFlowFit:
    """Every flow that drives or scores a run sits on the run's grid and
    carries the law the run starts from."""

    CFG = SimConfig(T=0.2, dt=0.02, N=8, seed=1)

    @staticmethod
    def reference(T, dt):
        return build_reference_flow(SimConfig(T=T, dt=dt, N=8, seed=1), make_linear_model(),
                                    GAUSS, M=64)

    @pytest.mark.parametrize("entry", [
        lambda cfg, mdl, ref: simulate_coupled(cfg, mdl, ref),
        lambda cfg, mdl, ref: estimate_chaos_rate(cfg, mdl, [4, 8, 16], 2, ref),
        lambda cfg, mdl, ref: coupling_error_curve(cfg, mdl, ref, [4, 8, 16], 2),
    ], ids=["simulate_coupled", "estimate_chaos_rate", "coupling_error_curve"])
    def test_coupled_runs_reject_another_horizon(self, entry):
        ref = self.reference(T=0.4, dt=0.04)   # the run's step count, twice its horizon
        assert ref.steps == self.CFG.steps
        with pytest.raises(engine.EngineError, match="grid does not match"):
            entry(self.CFG, make_linear_model(), ref)

    @pytest.mark.parametrize("T", [0.1, 0.4], ids=["shorter", "longer"])
    def test_tv_study_rejects_another_horizon(self, T):
        ref = self.reference(T=T, dt=self.CFG.dt)
        with pytest.raises(engine.EngineError, match="grid does not match"):
            marginal_tv_study(self.CFG, make_linear_model(), ref, [4, 8], 1, [0.1])

    @pytest.mark.parametrize("entry", [
        lambda cfg, mdl, flow: simulate_frozen(cfg, mdl, flow, 8, cfg.seed),
        lambda cfg, mdl, flow: simulate_coupled(cfg, mdl, flow),
        lambda cfg, mdl, flow: marginal_tv_study(cfg, mdl, flow, [4, 8], 1, [0.1]),
        lambda cfg, mdl, flow: simulate_interacting(cfg, mdl, flow.initial_law),
        lambda cfg, mdl, flow: build_reference_flow(cfg, mdl, flow.initial_law, M=8),
    ], ids=["simulate_frozen", "simulate_coupled", "marginal_tv_study", "simulate_interacting",
            "build_reference_flow"])
    def test_flow_without_initial_law(self, entry):
        flow = MeasureFlow.constant_flow(self.CFG.times, [0.0, 1.0])
        assert flow.initial_law is None
        with pytest.raises(engine.EngineError, match="no initial law to draw the ensemble from"):
            entry(self.CFG, make_linear_model(), flow)


class TestStability:
    def test_zero_perturbation(self):
        st = stability_perturbation_test(SimConfig(T=0.5, dt=0.02, N=32, seed=1),
                                         make_linear_model(), 0.0, GAUSS)
        assert np.all(st.mean_abs_diff == 0.0)
        assert st.response_ratio == 0.0

    def test_linear_response_constant_in_delta(self):
        # linear dynamics: gap/delta is delta-free; end value has closed form
        a, c = -1.0, 0.5
        mdl = make_linear_model(a=a, c=c)
        cfg = SimConfig(T=1.0, dt=0.01, N=256, seed=3)
        end_ratios = []
        for d in (1e-3, 1e-2, 1e-1):
            st = stability_perturbation_test(cfg, mdl, d, GAUSS)
            assert st.response_ratio == pytest.approx(1.0, abs=1e-9)
            end_ratios.append(st.mean_abs_diff[-1] / d)
        assert np.ptp(end_ratios) <= 1e-9 * max(end_ratios)
        assert end_ratios[0] == pytest.approx(np.exp(a + c), abs=2 * cfg.dt)

    def test_sqrt_response_bounded(self):
        # pinned from pilot (observed 1.0) with 2x headroom
        mdl = make_sqrt_model()
        cfg = SimConfig(T=1.0, dt=0.01, N=256, seed=3)
        for d in (1e-3, 1e-2, 1e-1):
            st = stability_perturbation_test(cfg, mdl, d, GAUSS)
            assert st.response_ratio <= 2.0


# blows up only in an interacting stack of 16 or 32 particles, and faster at 32;
# the reference paths and their twins (M samples) and the mean flow (one) decay
_GROWTH = {16: 1e10, 32: 1e20}
GROWS = replace(make_linear_model(),
                drift=lambda t, x, mu: np.asarray(x, dtype=float) * _GROWTH.get(mu.n, -1.0))


class TestStreamedReference:
    """The sweeps step the reference alongside their runs, one row at a time."""

    def test_sweep_memory_does_not_grow_with_the_horizon(self):
        mdl, M = make_linear_model(), 1 << 14

        def peak(T):
            cfg = SimConfig(T=T, dt=0.01, N=8, seed=4)
            tracemalloc.start()
            try:
                ref = build_reference_flow(cfg, mdl, GAUSS, M=M)
                estimate_chaos_rate(cfg, mdl, [8, 16, 32], 2, ref)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(0.1), peak(0.4)
        extra_rows = (40 - 10) * M * 8   # bytes a stored reference would add
        assert long - short < extra_rows / 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # pool threads overflow too
    def test_sweep_raises_the_smallest_failing_N(self, tmp_path, monkeypatch):
        cfg = SimConfig(T=0.5, dt=0.01, N=8, seed=9)
        ref = build_reference_flow(cfg, GROWS, GAUSS, M=64)
        with np.errstate(over="ignore", invalid="ignore"):
            alone = {}
            for N in _GROWTH:
                with pytest.raises(BlowUpError) as exc:
                    engine._drain(_one_coupled_run(cfg, GROWS, ref, N, 2))
                alone[N] = exc.value
            assert alone[32].step < alone[16].step
            for workers in (1, 2):
                with pytest.raises(BlowUpError) as swept:
                    estimate_chaos_rate(cfg, GROWS, [8, 16, 32], 2, ref, workers=workers)
                assert (swept.value.step, swept.value.particle) == \
                    (alone[16].step, alone[16].particle)
            monkeypatch.setitem(model.MODEL_ZOO, "linear", lambda p=4.0: GROWS)
            out = tmp_path / "o"
            code = cli.main(["chaos-rate", "--seed", "9", "--set", "sim.T=0.5",
                             "--set", "chaos.N_list=8,16,32", "--set", "chaos.replicas=2",
                             "--set", "chaos.M=64", "--out", str(out)])
        assert code == 3
        assert not any(os.scandir(out))   # nothing published, nothing staged


class TestShareWorkspace:
    """A share's reference and stacks step out of one set of step buffers."""

    def test_a_smaller_stack_adds_less_than_two_of_its_buffers(self):
        # stacks of 4 seeds up to N = 4096 draw on the stepping thread (below
        # _AHEAD_MIN); a stack with buffers of its own would add its sorted,
        # update and draw buffers and its ring buffer, four (2R, N) arrays
        cfg = SimConfig(T=0.1, dt=0.01, N=8, seed=5)
        mdl, R = make_linear_model(), 4
        assert R * 4096 < engine._AHEAD_MIN
        ref = build_reference_flow(cfg, mdl, GAUSS, M=256)

        def peak(sizes):
            tracemalloc.start()
            try:
                chaos._per_n(lambda flow, N: _one_coupled_run(cfg, mdl, flow, N, R),
                             ref, sizes, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        added = peak([1024, 2048, 4096]) - peak([2048, 4096])
        assert added < 2 * (2 * R * 1024 * 8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_workspace_is_released_and_a_later_solo_run_keeps_its_bits(self, monkeypatch):
        made = []

        class Watched(engine._Workspace):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(engine, "_Workspace", Watched)
        cfg = SimConfig(T=0.5, dt=0.01, N=8, seed=9)
        mdl = make_linear_model()
        ref = build_reference_flow(cfg, mdl, GAUSS, M=64)

        def solo():
            return repr(engine._drain(_one_coupled_run(cfg, mdl, ref, 24, 2)))

        want = solo()
        out = chaos._per_n(lambda flow, N: _one_coupled_run(cfg, mdl, flow, N, 2),
                           ref, [8, 16, 32], 1)
        assert [d.N for runs in out for d in runs] == [8, 8, 16, 16, 32, 32]
        assert made and all(w() is None for w in made)
        made.clear()
        bad = build_reference_flow(cfg, GROWS, GAUSS, M=64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as failed:
                chaos._per_n(lambda flow, N: _one_coupled_run(cfg, GROWS, flow, N, 2),
                             bad, [8, 16, 32], 1)
        # the raised error, which the test still holds, keeps no workspace alive
        assert failed.value.step > 0
        assert made and all(w() is None for w in made)
        assert solo() == want


class TestReferenceFlows:
    def test_oracle_mean_flow_linear_closed_form(self):
        mdl = make_linear_model()
        flow = oracle_mean_flow(CFG, mdl, GAUSS)
        k = np.arange(CFG.steps + 1)
        oracle = GAUSS.mean * (1.0 + (-1.0 + 0.5) * CFG.dt) ** k
        assert np.allclose(flow.means, oracle, atol=1e-12)

    @pytest.mark.parametrize("M", [256, 300], ids=["nesting", "non-nesting"])
    @pytest.mark.parametrize("make", [make_linear_model, make_sqrt_model],
                             ids=["linear", "sqrt"])
    def test_reference_flow_equals_the_sorted_frozen_record(self, make, M):
        mdl = make()
        seed = rng.derive_seed(CFG.seed, chaos._REF_STREAM)
        mean_flow = oracle_mean_flow(CFG, mdl, GAUSS)
        expect = MeasureFlow.from_record(simulate_frozen(CFG, mdl, mean_flow, M, seed))
        got = build_reference_flow(CFG, mdl, GAUSS, M=M)
        assert got.values.tobytes() == expect.values.tobytes()
        assert got.times.tobytes() == expect.times.tobytes()
        assert got.initial_law == GAUSS

    def test_reference_flow_deterministic(self):
        mdl = make_linear_model()
        a = build_reference_flow(CFG, mdl, GAUSS, M=256)
        b = build_reference_flow(CFG, mdl, GAUSS, M=256)
        assert np.array_equal(a.values, b.values)
