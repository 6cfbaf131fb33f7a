import pickle
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchaos import engine, rng
from mfchaos.engine import (BlowUpError, BoundedParetoLaw, ConstantLaw, EngineError,
                            GaussianLaw, ParticleEnsemble, SimConfig,
                            WideSummary,
                            simulate_coupled, simulate_frozen,
                            simulate_interacting, simulate_mollified)
from mfchaos.model import (ModelError, ModelSpec, make_delay_model, make_linear_model,
                           make_sqrt_model)
from mfchaos.measures import EmpiricalMeasure
from mfchaos.paths import DelayMeasure
from mfchaos.solver import MeasureFlow
from mfchaos.chaos import _one_coupled_run, oracle_mean_flow


GAUSS = GaussianLaw(1.0, 0.5)


def zero_model():
    mdl = make_linear_model(a=0.0, c=0.0, sigma0=0.0)
    return mdl


class TestSimConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SimConfig(T=1.0, dt=0.3, N=1, seed=0)
        with pytest.raises(ValueError, match="delay"):   # the window is the ensemble's
            ParticleEnsemble(r=0.25e-1 * 1.5, dt=0.01, init_values=np.zeros(1))
        cfg = SimConfig(T=1.0, dt=1e-3, N=1, seed=0)   # 999.999... steps rounds fine
        assert cfg.steps == 1000

    def test_times_grid(self):
        cfg = SimConfig(T=0.5, dt=0.25, N=1, seed=0)
        assert np.allclose(cfg.times, [0.0, 0.25, 0.5])


class TestSampleInitial:
    def test_constant_sampler(self):
        assert np.array_equal(ConstantLaw(3.0).sample(0, 5), np.full(5, 3.0))

    def test_gaussian_determinism_and_distinctness(self):
        a = GAUSS.sample(42, 8)
        assert np.array_equal(a, GAUSS.sample(42, 8))
        assert len(set(a.tolist())) == len(a)

    def test_prefix_stability(self):
        # draw i depends only on (seed, i), not on the ensemble size
        assert np.array_equal(GAUSS.sample(1, 4), GAUSS.sample(1, 16)[:4])

    def test_pareto_moment_against_closed_form(self):
        law = BoundedParetoLaw(tail=1.5, lo=0.5, hi=50.0)
        draws = law.sample(7, 1_000_000)
        p = 4.0
        sample_moment = np.mean(draws ** p)
        assert np.isfinite(sample_moment)
        assert sample_moment == pytest.approx(law.moment(p), rel=0.10)
        # closed form itself cross-checked by quadrature
        from scipy.integrate import quad
        a, lo, hi = law.tail, law.lo, law.hi
        norm = 1.0 - (lo / hi) ** a
        pdf = lambda x: a * lo ** a * x ** (-a - 1.0) / norm
        oracle, _ = quad(lambda x: x ** p * pdf(x), lo, hi, limit=200)
        assert law.moment(p) == pytest.approx(oracle, rel=1e-9)


class TestStepInteracting:
    def test_no_dynamics_single_particle(self):
        from mfchaos.engine import step_interacting
        ens = ParticleEnsemble(r=0.0, dt=0.1, init_values=np.array([2.5]))
        for k in range(5):
            step_interacting(ens, zero_model(), k * 0.1, 0.1, seed=0)
        assert np.all(ens.current == 2.5)

    def test_manual_steps_match_simulate(self):
        from mfchaos.engine import step_interacting
        cfg = SimConfig(T=0.3, dt=0.1, N=16, seed=44)
        mdl = make_sqrt_model()
        rec = simulate_interacting(cfg, mdl, GAUSS)
        ens = ParticleEnsemble.from_law(cfg, mdl, GAUSS)
        for k in range(cfg.steps):
            step_interacting(ens, mdl, k * cfg.dt, cfg.dt, seed=cfg.seed)
        assert np.array_equal(ens.current, rec.values[-1])

    def test_time_counter_mismatch_rejected(self):
        from mfchaos.engine import EngineError, step_interacting
        ens = ParticleEnsemble(r=0.0, dt=0.1, init_values=np.array([1.0]))
        with pytest.raises(EngineError, match="step counter"):
            step_interacting(ens, zero_model(), 0.7, 0.1, seed=0)


class TestInteracting:
    def test_no_dynamics_constant_path(self):
        cfg = SimConfig(T=1.0, dt=0.1, N=1, seed=0)
        rec = simulate_interacting(cfg, zero_model(), ConstantLaw(2.5))
        assert np.all(rec.values == 2.5)

    def test_linear_mean_matches_ode_oracle(self):
        # sigma = 0: ensemble mean follows m' = (a + c) m; m(1) = e^(a+c)
        a, c = -1.0, 0.5
        mdl = make_linear_model(a=a, c=c, sigma0=0.0)
        cfg = SimConfig(T=1.0, dt=1e-2, N=8, seed=0)
        rec = simulate_interacting(cfg, mdl, ConstantLaw(1.0))
        assert rec.means[-1] == pytest.approx(np.exp(a + c), abs=2 * cfg.dt)

    def test_delay_mean_matches_method_of_steps(self):
        # x' = x(t - 1) with flat unit history: x(t) = 1 + t on [0, 1]
        mdl = make_delay_model(beta=1.0, r=1.0, sigma0=0.0)
        cfg = SimConfig(T=1.0, dt=1e-2, N=4, seed=0)
        rec = simulate_interacting(cfg, mdl, ConstantLaw(1.0))
        assert np.allclose(rec.means, 1.0 + rec.times, atol=2 * cfg.dt)

    def test_atom_beyond_window_rejected(self):
        # an atom at -0.254 lies outside a hand-built r = 0.25 window, though within dt/2 of it
        from mfchaos.engine import step_interacting
        mdl = make_delay_model(beta=1.0, r=0.254, sigma0=0.0)
        ens = ParticleEnsemble(r=0.25, dt=0.01, init_values=np.ones(4))
        with pytest.raises(EngineError, match=r"lag -0.254, beyond the ensemble's window \[-0.25, 0\]"):
            step_interacting(ens, mdl, 0.0, 0.01, seed=0)
        assert ens.step_index == 0

    def test_rerun_bit_identical(self):
        cfg = SimConfig(T=0.5, dt=0.01, N=64, seed=9)
        mdl = make_sqrt_model()
        a = simulate_interacting(cfg, mdl, GAUSS)
        b = simulate_interacting(cfg, mdl, GAUSS)
        assert np.array_equal(a.values, b.values)

    def test_blowup_detected_with_location(self):
        mdl = make_linear_model()
        cubic = replace(mdl, drift=lambda t, x, mu: np.asarray(x, dtype=float) ** 3)
        cfg = SimConfig(T=10.0, dt=1.0, N=3, seed=0)
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as exc:
            simulate_interacting(cfg, cubic, ConstantLaw(100.0))
        assert exc.value.particle in range(3)
        assert "step" in str(exc.value)

    def test_blowup_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(BlowUpError(3, 5, 0.05)))
        assert type(err) is BlowUpError
        assert (err.particle, err.step, err.t) == (3, 5, 0.05)
        assert str(err) == str(BlowUpError(3, 5, 0.05))

    @pytest.mark.parametrize("name, run, N, T", [
        pytest.param(name, run, N, T, id=f"{name}-{run}{size}")
        for N, T, size in [(9001, 0.3, ""), (engine._AHEAD_MIN, 0.04, "-drawn-ahead")]
        for name in ["linear-cached-read-only-sigma", "sqrt"]
        for run in ["interacting", "frozen", "coupled"]])
    def test_steps_equal_the_expression_form_bitwise(self, name, run, N, T):
        # the engine writes the update in place, using the step's draw as
        # scratch; an in-test loop of the plain expression is the reference,
        # a coefficient's array is never written, and a coupled twin's noise
        # is not overwritten by its interacting system's update; from
        # _AHEAD_MIN streams on, each next step's draw is made on a helper thread
        cfg = SimConfig(T=T, dt=0.01, N=N, seed=12)
        if name == "sqrt":
            mdl = make_sqrt_model()
        else:
            cached = np.full(cfg.N, 0.3)
            cached.flags.writeable = False
            mdl = replace(make_linear_model(), sigma=lambda t, x: cached)
        flow = oracle_mean_flow(cfg, mdl, GAUSS)

        def step(x, t, mu, z):
            drift = mdl.drift(t, x, mu) + mdl.path_drift(t, None, mu)
            return x + drift * cfg.dt + mdl.sigma(t, x) * np.sqrt(cfg.dt) * z

        x = twin = GAUSS.sample(cfg.seed, cfg.N)
        expect, expect_twin = [x], [twin]
        for k in range(cfg.steps):
            t = k * cfg.dt
            z = rng.normals(cfg.seed, rng.STREAM_DRIVE, k, cfg.N)
            x = step(x, t, EmpiricalMeasure(np.sort(x), presorted=True), z)
            twin = step(twin, t, flow.measure_at(k), z)
            expect.append(x)
            expect_twin.append(twin)
        if run == "interacting":
            got = simulate_interacting(cfg, mdl, GAUSS).values
        elif run == "frozen":
            got = simulate_frozen(cfg, mdl, flow, cfg.N, cfg.seed).values
            expect = expect_twin
        else:
            rec = simulate_coupled(cfg, mdl, flow)
            got = rec.interacting.values
            assert rec.limit.values.tobytes() == np.array(expect_twin).tobytes()
        assert got.tobytes() == np.array(expect).tobytes()
        if name != "sqrt":
            assert np.all(cached == 0.3)

    def test_bad_coefficient_at_sane_state_is_model_error(self):
        from mfchaos.model import ModelError
        mdl = make_linear_model()
        nan_sigma = replace(mdl, sigma=lambda t, x: np.where(
            np.asarray(x) > 1.0, np.nan, 0.1))
        cfg = SimConfig(T=1.0, dt=0.1, N=4, seed=0)
        with pytest.raises(ModelError, match="non-finite"):
            simulate_interacting(cfg, nan_sigma, ConstantLaw(2.0))

    @pytest.mark.parametrize("name,mdl,law,r,pinned_C", [
        ("linear", make_linear_model(), GAUSS, 0.0, 1.1),
        ("sqrt", make_sqrt_model(), GAUSS, 0.0, 1.4),
        ("delay", make_delay_model(beta=1.0, r=0.5, sigma0=0.2), GAUSS, 0.5, 2.2),
        ("linear-pareto", make_linear_model(), BoundedParetoLaw(1.5, 0.5, 50.0), 0.0, 1.2),
    ])
    def test_moment_bound_regression(self, name, mdl, law, r, pinned_C):
        # sup_t mean|X(t)| <= C (1 + mean |X(0)|); C pinned from pilot runs
        # with 2x headroom, regressions fail the pin; r is the run's window
        assert mdl.delay_measure.span == r
        cfg = SimConfig(T=1.0, dt=0.01, N=512, seed=11)
        rec = simulate_interacting(cfg, mdl, law)
        ratio = np.abs(rec.values).mean(axis=1).max() / (1.0 + np.abs(rec.values[0]).mean())
        assert ratio <= pinned_C

    @pytest.mark.parametrize("mdl,pin", [(make_linear_model(), 2.6), (make_sqrt_model(), 8.2)])
    def test_second_moment_stable_over_long_horizon(self, mdl, pin):
        # contractive drift: second moment stays bounded over a 10x horizon
        cfg = SimConfig(T=10.0, dt=0.01, N=512, seed=0)
        rec = simulate_interacting(cfg, mdl, GAUSS)
        assert (rec.values ** 2).mean(axis=1).max() <= pin


class TestLazyRun:
    def test_one_grid_time_per_next_and_the_eager_result_at_the_end(self):
        cfg = SimConfig(T=0.05, dt=0.01, N=64, seed=3)
        seen, states = [], []

        def observe(k, x, xs):
            seen.append(k)
            states.append(x.copy())

        mdl = make_sqrt_model()
        stepper = engine._run(cfg, mdl, ParticleEnsemble.from_law(cfg, mdl, GAUSS),
                              cfg.seed, observe=observe, lazy=True)
        assert seen == []
        for k in range(cfg.steps):
            assert next(stepper) == k and seen[-1] == k
        with pytest.raises(StopIteration):
            next(stepper)
        assert seen == list(range(cfg.steps + 1))
        want = engine._run(cfg, mdl, ParticleEnsemble.from_law(cfg, mdl, GAUSS), cfg.seed)
        assert np.array(states).tobytes() == want.values.tobytes()


class TestCoefficientBuffers:
    """A step writes the coefficients into memory the run already holds,
    through `out=` where a coefficient takes it, and copies them in where
    it does not."""

    @staticmethod
    def peak_rise(stepper) -> int:
        """Bytes the traced peak rises over five steps, after a first step
        has made the run's buffers."""
        tracemalloc.start()
        try:
            next(stepper)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                next(stepper)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
            stepper.close()

    def test_a_large_sqrt_step_allocates_no_particle_sized_array(self):
        # simulate's run: the wide summary observes, the next draw is made ahead;
        # a float64 array of the particles is 8N bytes, and the update's
        # boolean isfinite mask of N bytes stays allowed
        cfg = SimConfig(T=0.1, dt=0.01, N=65536, seed=3)
        mdl = make_sqrt_model()
        stepper = engine._run(cfg, mdl, ParticleEnsemble.from_law(cfg, mdl, GAUSS), cfg.seed,
                              observe=WideSummary(cfg.times).observe, lazy=True)
        assert self.peak_rise(stepper) < 4 * cfg.N

    def test_a_coupled_stack_step_allocates_no_particle_sized_array(self):
        # (40, 512): 20 interacting systems and their twins on a frozen flow; the
        # drift's in-place add of the (20, 1) mean column takes numpy's iterator
        # buffer of 8,192 values (64 KiB), which stays below the 80 KiB bound
        cfg = SimConfig(T=0.1, dt=0.01, N=512, seed=3)
        mdl = make_linear_model()
        stepper = engine.coupled_stack(cfg, mdl, oracle_mean_flow(cfg, mdl, GAUSS),
                                       list(range(20)), observe=lambda k, x, xs: None,
                                       lazy=True)
        assert self.peak_rise(stepper) < 4 * 40 * cfg.N

    @pytest.mark.parametrize("name", ["sqrt", "linear-scalar-sigma", "sqrt-plain-sigma"])
    def test_coefficients_without_out_give_the_same_bits(self, name):
        # a coefficient is probed on its own: a plain (t, x[, mu]) callable beside
        # a zoo coefficient taking out=, as the oracle's silent sigma sits
        if name == "linear-scalar-sigma":
            zoo = make_linear_model()
            plain = replace(zoo, drift=lambda t, x, mu: zoo.drift(t, x, mu),
                            sigma=lambda t, x: 0.2)
        else:
            zoo = make_sqrt_model()
            plain = replace(zoo, sigma=lambda t, x: zoo.sigma(t, x))
            if name == "sqrt":
                plain = replace(plain, drift=lambda t, x, mu: zoo.drift(t, x, mu))
        cfg = SimConfig(T=0.2, dt=0.01, N=300, seed=4)
        flow = oracle_mean_flow(cfg, zoo, GAUSS)

        def records(mdl):
            return [simulate_interacting(cfg, mdl, GAUSS).values.tobytes(),
                    simulate_frozen(cfg, mdl, flow, cfg.N, cfg.seed).values.tobytes(),
                    engine.coupled_stack(cfg, mdl, flow, [4, 5, 4]).values.tobytes()]

        assert records(plain) == records(zoo)

    def test_a_nan_written_into_out_at_a_sane_state_is_model_error(self):
        def drift(t, x, mu, out=None):
            out = np.multiply(-1.0, x, out=out)
            out[..., 5] = np.nan
            return out

        mdl = replace(make_linear_model(), drift=drift)
        cfg = SimConfig(T=0.1, dt=0.01, N=8, seed=0)
        with pytest.raises(ModelError, match="particle 5 at t=0 "):
            simulate_interacting(cfg, mdl, GAUSS)
        stack = ParticleEnsemble.from_law(cfg, mdl, GAUSS, seed=[1, 2, 3])
        with pytest.raises(ModelError, match="particle 5 at t=0 "):
            engine._run(cfg, mdl, stack, [1, 2, 3])


class TestDrawAhead:
    """From _AHEAD_MIN values per step on, `_run` draws step k+1's increments
    on a helper thread while step k runs; the helper never outlives the run."""

    N = engine._AHEAD_MIN
    # a stack that reaches _AHEAD_MIN only per step: 4 seeds of 2^13 streams,
    # each seed on two rows as in a coupled stack
    SEEDS = [21, 22, 23, 24]
    ROWS = SEEDS * 2
    ROW = engine._AHEAD_MIN // 4

    @staticmethod
    def spy(monkeypatch) -> list:
        """Every rng.normals call as (stream, step, thread ident)."""
        draws = []
        normals = rng.normals

        def spying(seed, stream, step, n, out=None):
            draws.append((stream, step, threading.get_ident()))
            return normals(seed, stream, step, n, out=out)

        monkeypatch.setattr(rng, "normals", spying)
        return draws

    def test_one_drive_draw_per_step_and_none_beyond(self, monkeypatch):
        draws = self.spy(monkeypatch)
        cfg = SimConfig(T=0.05, dt=0.01, N=self.N, seed=3)
        simulate_interacting(cfg, make_sqrt_model(), GAUSS)
        drive = [(k, who) for stream, k, who in draws if stream == rng.STREAM_DRIVE]
        assert sorted(k for k, _ in drive) == list(range(cfg.steps))
        assert any(who != threading.get_ident() for _, who in drive)   # drawn ahead

    def test_a_draw_the_helper_never_starts_is_made_in_step(self, monkeypatch):
        # a helper that never gets a core: each step takes its draw back and
        # makes it on the stepping thread, into the same buffer, with the same bits
        cfg = SimConfig(T=0.05, dt=0.01, N=self.N, seed=3)
        want = simulate_interacting(cfg, make_sqrt_model(), GAUSS).values

        class NeverStarts:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Future()

        monkeypatch.setattr(engine, "ThreadPoolExecutor", NeverStarts)
        got = []
        stepping = threading.Thread(daemon=True, target=lambda: got.append(
            simulate_interacting(cfg, make_sqrt_model(), GAUSS).values))
        stepping.start()
        stepping.join(timeout=120)
        assert not stepping.is_alive()
        assert got[0].tobytes() == want.tobytes()

    def test_blow_up_with_a_draw_in_flight_names_the_same_particle_and_step(self, monkeypatch):
        cubic = replace(make_linear_model(sigma0=1.0),
                        drift=lambda t, x, mu: np.asarray(x, dtype=float) ** 3)
        cfg = SimConfig(T=1.0, dt=0.1, N=self.N, seed=8)

        def blow_up() -> BlowUpError:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
                simulate_interacting(cfg, cubic, ConstantLaw(1.0))
            return exc.value

        threads = threading.active_count()
        draws = self.spy(monkeypatch)
        ahead = blow_up()
        assert threading.active_count() == threads
        assert ahead.step < cfg.steps - 1
        # the next step's draw was in flight when the step blew up
        assert max(k for stream, k, _ in draws if stream == rng.STREAM_DRIVE) == ahead.step + 1
        monkeypatch.setattr(engine, "_AHEAD_MIN", self.N + 1)
        in_step = blow_up()
        assert (ahead.particle, ahead.step, ahead.t) == (in_step.particle, in_step.step, in_step.t)

    def stack(self, cfg, mdl, law):
        return ParticleEnsemble.from_law(cfg, mdl, law, seed=self.ROWS)

    def test_stack_draws_ahead_per_step_and_none_beyond(self, monkeypatch):
        draws = self.spy(monkeypatch)
        cfg = SimConfig(T=0.05, dt=0.01, N=self.ROW, seed=3)
        mdl = make_sqrt_model()
        engine._run(cfg, mdl, self.stack(cfg, mdl, GAUSS), self.ROWS)
        drive = [(k, who) for stream, k, who in draws if stream == rng.STREAM_DRIVE]
        # one draw per distinct seed and step, and none beyond the last step
        assert sorted(k for k, _ in drive) == sorted(list(range(cfg.steps)) * len(self.SEEDS))
        assert any(who != threading.get_ident() for _, who in drive)   # drawn ahead
        # one of those seeds alone stays below the gate and draws on the caller's thread
        draws.clear()
        simulate_interacting(cfg, make_sqrt_model(), GAUSS)
        assert {who for stream, _, who in draws} == {threading.get_ident()}

    def test_stack_drawn_ahead_is_bitwise_the_stack_drawn_in_step(self, monkeypatch):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.1, dt=0.01, N=self.ROW, seed=5)
        ref = oracle_mean_flow(cfg, mdl, GAUSS)

        def both():
            return (engine.coupled_stack(cfg, mdl, ref, self.SEEDS).values,
                    engine._drain(_one_coupled_run(cfg, mdl, ref, self.ROW, len(self.SEEDS))))

        ahead_values, ahead_runs = both()
        monkeypatch.setattr(engine, "_AHEAD_MIN", 2 * len(self.SEEDS) * self.ROW + 1)
        in_step_values, in_step_runs = both()
        assert ahead_values.tobytes() == in_step_values.tobytes()
        assert repr(ahead_runs) == repr(in_step_runs)

    def test_stack_blow_up_with_a_draw_in_flight_joins_the_helper(self, monkeypatch):
        cubic = replace(make_linear_model(sigma0=1.0),
                        drift=lambda t, x, mu: np.asarray(x, dtype=float) ** 3)
        cfg = SimConfig(T=1.0, dt=0.1, N=self.ROW, seed=8)

        def blow_up() -> BlowUpError:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
                engine._run(cfg, cubic, self.stack(cfg, cubic, ConstantLaw(1.0)), self.ROWS)
            return exc.value

        threads = threading.active_count()
        draws = self.spy(monkeypatch)
        ahead = blow_up()
        assert threading.active_count() == threads
        assert ahead.step < cfg.steps - 1
        assert max(k for stream, k, _ in draws if stream == rng.STREAM_DRIVE) == ahead.step + 1
        monkeypatch.setattr(engine, "_AHEAD_MIN", len(self.SEEDS) * self.ROW + 1)
        in_step = blow_up()
        assert (ahead.particle, ahead.step, ahead.t) == (in_step.particle, in_step.step, in_step.t)

    @pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "in-step"])
    def test_a_coupled_stack_of_K_pairs_fills_draw_buffers_of_K_rows(self, monkeypatch, ahead):
        # 2K rows, K seeds: each step fills one row per seed, each a row of a
        # buffer of K rows; drawn ahead there are two such buffers, else one
        K, N = len(self.SEEDS), self.ROW
        cfg = SimConfig(T=0.05, dt=0.01, N=N, seed=5)
        mdl = make_linear_model()
        flow = oracle_mean_flow(cfg, mdl, GAUSS)
        if not ahead:
            monkeypatch.setattr(engine, "_AHEAD_MIN", K * N + 1)
        outs = []
        normals = rng.normals

        def spying(seed, stream, step, n, out=None):
            if stream == rng.STREAM_DRIVE:
                outs.append((step, out))
            return normals(seed, stream, step, n, out=out)

        monkeypatch.setattr(rng, "normals", spying)
        engine.coupled_stack(cfg, mdl, flow, self.SEEDS, observe=lambda k, x, xs: None)
        assert sorted(k for k, _ in outs) == sorted(list(range(cfg.steps)) * K)
        assert all(out.shape == (N,) and out.base.size == K * N for _, out in outs)
        assert len({id(out.base) for _, out in outs}) == (2 if ahead else 1)
        for k in range(cfg.steps):
            at = sorted(out.ctypes.data for step, out in outs if step == k)
            assert np.diff(at).tolist() == [8 * N] * (K - 1)   # K rows of one buffer

    @pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "in-step"])
    def test_no_step_writes_its_draw(self, monkeypatch, ahead):
        # each filled draw is read-only until its next fill: a step that wrote
        # it would raise, and reading it alone gives the unwrapped bits
        cfg = SimConfig(T=0.05, dt=0.01, N=64, seed=5)
        lin, lagged = make_linear_model(), make_delay_model(r=0.03, sigma0=0.2)
        flow = oracle_mean_flow(cfg, lin, GAUSS)
        if ahead:
            monkeypatch.setattr(engine, "_AHEAD_MIN", 1)

        def runs():
            own = ParticleEnsemble.from_law(cfg, lin, GAUSS, seed=self.SEEDS)
            delay = ParticleEnsemble.from_law(cfg, lagged, GAUSS, seed=self.SEEDS)
            return [engine._run(cfg, lin, own, self.SEEDS).values.tobytes(),
                    engine.coupled_stack(cfg, lin, flow, self.SEEDS).values.tobytes(),
                    engine._run(cfg, lagged, delay, self.SEEDS).values.tobytes()]

        want = runs()
        fill = engine._increments

        def read_only(seeds, k, out):
            out.flags.writeable = True
            fill(seeds, k, out)
            out.flags.writeable = False
            return out

        monkeypatch.setattr(engine, "_increments", read_only)
        assert runs() == want

    @pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "in-step"])
    @pytest.mark.parametrize("groups", [engine._OWN_LAW,
                                        ((slice(0, 2), None), (slice(2, 5), None))],
                             ids=["one-group", "two-groups"])
    def test_scattered_repeated_seeds_step_as_each_seed_alone(self, monkeypatch, groups, ahead):
        # no group's rows read consecutive draw rows, so each reads an index array
        seeds = [5, 6, 5, 7, 6]
        cfg = SimConfig(T=0.05, dt=0.01, N=64, seed=0)
        mdl = make_sqrt_model()
        if ahead:
            monkeypatch.setattr(engine, "_AHEAD_MIN", 1)
        stack = ParticleEnsemble.from_law(cfg, mdl, GAUSS, seed=seeds)
        got = engine._run(cfg, mdl, stack, seeds, groups).values
        for i, s in enumerate(seeds):
            alone = simulate_interacting(replace(cfg, seed=s), mdl, GAUSS).values
            assert got[:, i].tobytes() == alone.tobytes()


class TestFrozen:
    def test_point_flow_reproduces_ou_mean(self):
        # freeze the measure at the ODE mean: paths are an OU-type recursion
        # whose sample mean matches the oracle within a CLT band
        a, c, sigma0 = -1.0, 0.5, 0.2
        mdl = make_linear_model(a=a, c=c, sigma0=sigma0)
        cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=21)
        flow = oracle_mean_flow(cfg, mdl, ConstantLaw(1.0))
        n_paths = 4000
        rec = simulate_frozen(cfg, mdl, flow, n_paths, seed=77)
        band = 3.0 * sigma0 / np.sqrt(n_paths)
        assert abs(rec.means[-1] - flow.means[-1]) <= band

    def test_frozen_equals_interacting_without_coupling(self):
        # sigma = 0 and b free of the measure: the frozen system is the
        # interacting system regardless of the flow
        mdl = make_linear_model(a=-0.8, c=0.0, sigma0=0.0)
        cfg = SimConfig(T=0.5, dt=0.01, N=32, seed=13)
        junk_flow = MeasureFlow.constant_flow(cfg.times, np.linspace(-5, 5, 16),
                                              initial_law=GAUSS)
        frozen = simulate_frozen(cfg, mdl, junk_flow, n_paths=32, seed=cfg.seed)
        inter = simulate_interacting(cfg, mdl, GAUSS)
        assert np.array_equal(frozen.values, inter.values)

    def test_same_seed_identical(self):
        mdl = make_sqrt_model()
        cfg = SimConfig(T=0.5, dt=0.01, N=8, seed=1)
        flow = oracle_mean_flow(cfg, mdl, GAUSS)
        a = simulate_frozen(cfg, mdl, flow, 100, seed=5)
        b = simulate_frozen(cfg, mdl, flow, 100, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_grid_mismatch_rejected(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=1.0, dt=0.01, N=8, seed=0)
        other = SimConfig(T=1.0, dt=0.02, N=8, seed=0)
        flow = oracle_mean_flow(other, mdl, GAUSS)
        with pytest.raises(Exception, match="grid"):
            simulate_frozen(cfg, mdl, flow, 8, seed=0)


class TestCoupled:
    def test_self_coupling_is_exact_zero(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.5, dt=0.01, N=64, seed=2)
        rec = simulate_interacting(cfg, mdl, GAUSS)
        own_flow = MeasureFlow.from_record(rec, initial_law=GAUSS)
        coupled = simulate_coupled(cfg, mdl, own_flow)
        assert np.all(coupled.error_curve == 0.0)

    def test_error_decreases_with_N(self):
        mdl = make_linear_model()
        errs = []
        for N in (64, 256, 1024):
            per_rep = []
            for rep in range(8):
                cfg = SimConfig(T=0.5, dt=0.02, N=N, seed=1000 * N + rep)
                ref = oracle_mean_flow(cfg, mdl, GAUSS)
                per_rep.append(simulate_coupled(cfg, mdl, ref).error_curve.max())
            errs.append(np.mean(per_rep))
        assert errs[0] > errs[1] > errs[2]

    def test_deterministic_gap_matches_closed_form(self):
        # sigma = 0, deterministic quantile initial data: the coupling gap has
        # a closed form and scales like the initial empirical mean bias
        a, c = -1.0, 0.5
        mdl = make_linear_model(a=a, c=c, sigma0=0.0)
        law = BoundedParetoLaw(tail=1.5, lo=0.5, hi=10.0)

        class QuantileLaw:
            name = "quantile-pareto"

            def sample(self, seed, n):
                # left-endpoint quantile discretization: O(1/N) mean bias
                u = np.arange(n) / n
                al, lo, hi = law.tail, law.lo, law.hi
                return lo * (1.0 - u * (1.0 - (lo / hi) ** al)) ** (-1.0 / al)

            @property
            def mean(self):
                return law.moment(1.0)

        qlaw = QuantileLaw()
        sup_gaps = {}
        for N in (8, 16, 32, 64):
            cfg = SimConfig(T=1.0, dt=0.05, N=N, seed=0)
            ref = oracle_mean_flow(cfg, mdl, qlaw)
            rec = simulate_coupled(cfg, mdl, ref)
            # closed form: gap_i(k+1) = (1 + a dt) gap_i(k) + c dt (xbar_k - m_k)
            # with xbar and m both geometric, so gap is an explicit sum
            delta0 = qlaw.sample(0, N).mean() - qlaw.mean
            K = cfg.steps
            g = 0.0
            gaps = [0.0]
            for k in range(K):
                g = (1 + a * cfg.dt) * g + c * cfg.dt * (1 + (a + c) * cfg.dt) ** k * delta0
                gaps.append(abs(g))
            oracle_curve = np.array(gaps)
            assert np.allclose(rec.error_curve, oracle_curve, atol=1e-12)
            sup_gaps[N] = rec.error_curve.max()
        # O(1/N): each doubling of N halves the gap (up to quantile-tail wiggle)
        for N in (8, 16, 32):
            assert sup_gaps[N] / sup_gaps[2 * N] == pytest.approx(2.0, rel=0.35)


class TestMollified:
    def test_constant_sigma_identical_run(self):
        mdl = make_linear_model(sigma0=0.3)
        cfg = SimConfig(T=0.5, dt=0.01, N=32, seed=4)
        plain = simulate_interacting(cfg, mdl, GAUSS)
        moll = simulate_mollified(cfg, mdl, 16, GAUSS)
        assert np.allclose(plain.values, moll.values, atol=1e-12)

    def test_cauchy_trend_in_n(self):
        # runs at growing n share noise, so successive gaps must shrink
        mdl = make_sqrt_model(sigma0=0.5)
        cfg = SimConfig(T=0.5, dt=0.01, N=256, seed=8)
        recs = {n: simulate_mollified(cfg, mdl, n, GAUSS) for n in (4, 16, 64, 256)}
        plain = simulate_interacting(cfg, mdl, GAUSS)
        gaps = [np.abs(recs[n].values - recs[m].values).mean(axis=1).max()
                for n, m in ((4, 16), (16, 64), (64, 256))]
        assert gaps[0] > gaps[1] > gaps[2]
        gap_vs_plain = {n: np.abs(recs[n].values - plain.values).mean(axis=1).max()
                        for n in (4, 256)}
        assert gap_vs_plain[256] < gap_vs_plain[4]


class TestRecord:
    def test_csv_round_trip_values(self, tmp_path):
        cfg = SimConfig(T=0.2, dt=0.1, N=3, seed=0)
        rec = simulate_interacting(cfg, make_linear_model(), GAUSS)
        p = tmp_path / "rec.csv"
        rec.write_csv(p)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "t,particle,value"
        t, i, v = rows[4].split(",")
        k, idx = 1, 0   # row 4 = second time, first particle
        assert float(t) == rec.times[k]
        assert float(v) == rec.values[k, idx]

    def test_wide_form_headers(self, tmp_path):
        cfg = SimConfig(T=0.2, dt=0.1, N=8, seed=0)
        summary = WideSummary(cfg.times)
        simulate_interacting(cfg, make_linear_model(), GAUSS, observe=summary.observe)
        p = tmp_path / "rec.csv"
        summary.write_csv(p)
        assert p.read_text().splitlines()[0] == "t,q05,q25,q50,q75,q95,mean"

    @pytest.mark.parametrize("width", [1, 7], ids=["contiguous", "ring-buffer-column"])
    def test_wide_summary_matches_whole_record_formula(self, width):
        # the whole-record axis=1 forms are the reference; N spans several
        # 8192-element blocks, so a blocked sum or a strided read would show
        rng = np.random.default_rng(11)
        values = rng.standard_normal((6, 20_001)) * 3.0 + 1.0
        summary = WideSummary(np.arange(6) * 0.1)
        buf = np.empty((values.shape[1], width))
        for k, row in enumerate(values):
            buf[:, k % width] = row
            x = buf[:, k % width]
            summary.observe(k, x, np.sort(x))
        expect = np.column_stack([np.percentile(values, WideSummary.QUANTILES, axis=1).T,
                                  values.mean(axis=1)])
        assert np.array_equal(summary.rows, expect)

    @settings(max_examples=200, deadline=None)
    @given(n=st.one_of(st.integers(1, 5000), st.just(131_072)),
           kind=st.sampled_from(["continuous", "ties", "constant", "signed-zero"]),
           offset=st.sampled_from([0.0, 1e6, -1e6]), seed=st.integers(0, 2 ** 32 - 1))
    def test_wide_summary_percentiles_equal_numpy_bitwise(self, n, kind, offset, seed):
        pick = np.random.default_rng(seed)
        if kind == "continuous":
            x = pick.standard_normal(n) * 3.0 + offset
        elif kind == "ties":
            x = pick.integers(-3, 4, n) * 0.5 + offset
        elif kind == "constant":
            x = np.full(n, pick.standard_normal() + offset)
        else:
            x = np.full(n, -0.0)   # numpy's weight at a clipped index shows in the sign
        summary = WideSummary(np.zeros(1))
        summary.observe(0, x, np.sort(x))
        expect = np.percentile(x, WideSummary.QUANTILES)
        assert summary.rows[0, :-1].tobytes() == expect.tobytes()


class TestEnsemble:
    def test_full_window_of_the_wrong_width_rejected(self):
        # r/dt + 1 = 6 values span [-0.5, 0]; two would be read as six
        with pytest.raises(ValueError, match="holds 6 values, got 2"):
            ParticleEnsemble(r=0.5, dt=0.1, init_values=np.arange(6.).reshape(3, 2))
        with pytest.raises(ValueError, match="holds 1 values, got 3"):
            ParticleEnsemble(r=0.0, dt=0.1, init_values=np.zeros((2, 4, 3)), stacked=True)
        ens = ParticleEnsemble(r=0.5, dt=0.1, init_values=np.arange(18.).reshape(3, 6))
        assert ens.batch().value_at(-0.25).tolist() == [2.5, 8.5, 14.5]

    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_window_must_be_finite_and_non_negative(self, r):
        # neither is a one-column window
        with pytest.raises(ValueError, match=r"^r must be finite and >= 0"):
            ParticleEnsemble(r=r, dt=0.1, init_values=np.ones(3))

    def test_window_is_the_models_delay_span(self):
        cfg = SimConfig(T=0.2, dt=0.02, N=3, seed=0)
        mdl = make_delay_model(r=0.06, m="uniform", atoms=4)
        ens = ParticleEnsemble.from_law(cfg, mdl, GAUSS)
        assert (ens.r, ens.buf.shape) == (0.06, (3, 4))
        assert ParticleEnsemble.from_law(cfg, make_linear_model(), GAUSS).buf.shape == (3, 1)

    def test_stack_is_built_with_one_copy(self):
        # the rate sweep's largest stack: the seeds' rows, then the ring buffer, and no more
        cfg = SimConfig(T=0.2, dt=0.02, N=4096, seed=0)
        seeds = list(range(500, 540))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = ParticleEnsemble.from_law(cfg, make_linear_model(), GAUSS, seed=seeds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ens.buf.shape == (40, 4096, 1)
        assert peak < 2.1 * ens.buf.nbytes
        for row, s in zip(ens.buf, seeds):
            assert row[:, 0].tobytes() == GAUSS.sample(s, 4096).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (3, 4)])
    def test_buffer_never_aliases_the_callers_values(self, shape):
        values = np.arange(12.0)[:int(np.prod(shape))].reshape(shape)
        ens = ParticleEnsemble(r=0.3, dt=0.1, init_values=values)
        ens.advance(np.full(3, -1.0))
        assert not np.shares_memory(ens.buf, values)
        assert values.tolist() == np.arange(12.0)[:int(np.prod(shape))].reshape(shape).tolist()

    def test_ring_buffer_matches_segments(self):
        ens = ParticleEnsemble(r=0.4, dt=0.2, init_values=np.array([1.0, 2.0]))
        ens.advance(np.array([10.0, 20.0]))
        batch = ens.batch()
        assert [batch.value_at(s)[0] for s in (-0.4, -0.2, 0.0)] == [1.0, 1.0, 10.0]
        assert batch.value_at(-0.4)[1] == 2.0
        assert batch.value_at(0.0)[1] == 20.0

    def test_integral_against_dirac(self):
        ens = ParticleEnsemble(r=0.5, dt=0.25, init_values=np.array([3.0]))
        ens.advance(np.array([5.0]))
        m = DelayMeasure.dirac(-0.5)
        assert ens.batch().integral_against(m)[0] == 3.0
