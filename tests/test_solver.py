import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mfchaos.engine import ConstantLaw, GaussianLaw, SimConfig
from mfchaos.model import make_linear_model, make_sqrt_model
from mfchaos.solver import (MeasureFlow, apply_phi, default_lambda,
                            rho_metric, solve_fixed_point)
from mfchaos.chaos import oracle_mean_flow

GAUSS = GaussianLaw(1.0, 0.5)


def random_flow(rng, times, m):
    return MeasureFlow(times, rng.normal(size=(len(times), m)))


class TestRhoMetric:
    def test_identical_flows(self):
        t = np.linspace(0, 1, 11)
        f = random_flow(np.random.default_rng(0), t, 8)
        assert rho_metric(f, f, 3.0) == 0.0

    def test_lambda_zero_is_plain_sup(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 1, 11)
        a, b = random_flow(rng, t, 8), random_flow(rng, t, 8)
        assert rho_metric(a, b, 0.0) == pytest.approx(np.max(a.w1_curve(b)))

    def test_single_time_difference_weighted(self):
        # flows equal except W1 = 1 at t = T = 1, lambda = 2: rho = e^-2
        t = np.linspace(0, 1, 5)
        base = np.zeros((5, 4))
        bumped = base.copy()
        bumped[-1] += 1.0
        a = MeasureFlow(t, base)
        b = MeasureFlow(t, bumped)
        assert rho_metric(a, b, 2.0) == pytest.approx(np.exp(-2.0))

    def test_metric_properties_fuzz(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 1, 6)
        for _ in range(200):
            a, b, c = (random_flow(rng, t, 6) for _ in range(3))
            lam = float(rng.uniform(0, 4))
            assert rho_metric(a, b, lam) == pytest.approx(rho_metric(b, a, lam), abs=1e-14)
            assert rho_metric(a, b, lam) <= (rho_metric(a, c, lam)
                                             + rho_metric(c, b, lam) + 1e-12)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0, 1, 6)
        for _ in range(100):
            a, b = random_flow(rng, t, 5), random_flow(rng, t, 5)
            assert rho_metric(a, b, 3.0) <= rho_metric(a, b, 1.0) + 1e-14

    def test_grid_mismatch_rejected(self):
        a = MeasureFlow(np.linspace(0, 1, 5), np.zeros((5, 2)))
        b = MeasureFlow(np.linspace(0, 2, 5), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            rho_metric(a, b, 1.0)


class TestApplyPhi:
    def test_zero_dynamics_returns_point_mass_flow(self):
        mdl = make_linear_model(a=0.0, c=0.0, sigma0=0.0)
        cfg = SimConfig(T=0.5, dt=0.1, N=4, seed=0)
        law = ConstantLaw(2.0)
        guess = MeasureFlow.constant_flow(cfg.times, np.full(16, 2.0), initial_law=law)
        out = apply_phi(cfg, mdl, guess, M=16, seed=1)
        assert np.all(out.values == 2.0)

    def test_linear_output_mean_tracks_oracle(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=0)
        oracle = oracle_mean_flow(cfg, mdl, GAUSS)
        M = 4000
        out = apply_phi(cfg, mdl, oracle, M=M, seed=3)
        band = 3.0 * (0.2 + 0.5) / np.sqrt(M)
        assert abs(out.means[-1] - oracle.means[-1]) <= band

    def test_deterministic_given_seed_and_flow(self):
        mdl = make_sqrt_model()
        cfg = SimConfig(T=0.5, dt=0.01, N=4, seed=0)
        flow = oracle_mean_flow(cfg, mdl, GAUSS)
        a = apply_phi(cfg, mdl, flow, M=64, seed=9)
        b = apply_phi(cfg, mdl, flow, M=64, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_keeps_no_record_beside_the_flow(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=0)
        flow = oracle_mean_flow(cfg, mdl, GAUSS)
        tracemalloc.start()
        try:
            out = apply_phi(cfg, mdl, flow, M=8192, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the flow and one step's temporaries; a whole record sorted again took twice the flow
        assert peak < 1.5 * out.values.nbytes
        assert out.initial_law == GAUSS

    def test_needs_two_paths(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.5, dt=0.1, N=4, seed=0)
        flow = oracle_mean_flow(cfg, mdl, GAUSS)
        with pytest.raises(ValueError):
            apply_phi(cfg, mdl, flow, M=1, seed=0)


class TestSolveFixedPoint:
    def test_zero_dynamics_converges_immediately(self):
        mdl = make_linear_model(a=0.0, c=0.0, sigma0=0.0)
        cfg = SimConfig(T=0.5, dt=0.1, N=4, seed=0)
        res = solve_fixed_point(cfg, mdl, ConstantLaw(1.5), M=32, tol=1e-9)
        assert res.converged and res.reason == "tol"
        assert res.rhos == [0.0]

    @pytest.mark.filterwarnings("ignore:tol=")
    def test_linear_contraction_then_floor(self):
        mdl = make_linear_model()
        lam = default_lambda(mdl)
        assert lam == pytest.approx(4.0 * (0.5 + 0.0 + 1.0))
        cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=17)
        res = solve_fixed_point(cfg, mdl, GAUSS, M=10_000, lam=lam, tol=1e-6,
                                max_iter=20)
        assert res.converged
        # contraction: while above the floor, successive rhos shrink hard
        for r0, r1 in zip(res.rhos, res.rhos[1:]):
            if r0 > 2.0 * res.noise_floor:
                assert r1 / r0 < 0.9
        # the solved flow's mean tracks the oracle within 2%
        oracle = oracle_mean_flow(cfg, mdl, GAUSS)
        rel = abs(res.flow.means[-1] - oracle.means[-1]) / abs(oracle.means[-1])
        assert rel < 0.02

    @pytest.mark.filterwarnings("ignore:tol=")
    def test_sqrt_model_mean_matches_rk4_oracle(self):
        # mean ODE m' = kappa*theta + (c - kappa) m, solved by RK4 at fine step
        kappa, theta, c = 1.0, 1.0, 0.5
        mdl = make_sqrt_model(kappa=kappa, theta=theta, c=c, sigma0=0.2)
        cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=23)
        res = solve_fixed_point(cfg, mdl, GAUSS, M=10_000)
        assert res.converged

        def f(m):
            return kappa * theta + (c - kappa) * m

        m, h = GAUSS.mean, 1e-4
        for _ in range(int(round(1.0 / h))):
            k1 = f(m); k2 = f(m + 0.5 * h * k1)
            k3 = f(m + 0.5 * h * k2); k4 = f(m + h * k3)
            m += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert abs(res.flow.means[-1] - m) / abs(m) < 0.02

    @pytest.mark.filterwarnings("ignore:tol=")
    def test_self_consistency_residual(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=1.0, dt=0.02, N=4, seed=29)
        res = solve_fixed_point(cfg, mdl, GAUSS, M=4000)
        again = apply_phi(cfg, mdl, res.flow, M=res.flow.m, seed=987654)
        moved = rho_metric(res.flow, again, res.lam)
        assert moved <= 2.0 * (1e-3 + res.noise_floor)

    def test_nonconvergence_reported_not_silent(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.5, dt=0.05, N=4, seed=31)
        with pytest.warns(UserWarning, match="noise floor"):
            res = solve_fixed_point(cfg, mdl, GAUSS, M=64, tol=1e-12, max_iter=2)
        assert not res.converged
        assert res.reason == "max_iter"
        assert len(res.rhos) == 2

    def test_tol_below_floor_warns(self):
        mdl = make_linear_model()
        cfg = SimConfig(T=0.5, dt=0.05, N=4, seed=37)
        with pytest.warns(UserWarning, match="noise floor"):
            solve_fixed_point(cfg, mdl, GAUSS, M=32, tol=1e-9, max_iter=6)

    @pytest.mark.filterwarnings("ignore:tol=")
    def test_agreement_with_large_interacting_run(self):
        # the fixed point IS the mean-field limit: an interacting run at
        # N = M stays within a few chaos-scale W1 units of the solved flow
        from mfchaos.engine import simulate_interacting
        mdl = make_linear_model()
        M = 4096
        cfg = SimConfig(T=1.0, dt=0.02, N=M, seed=41)
        res = solve_fixed_point(cfg, mdl, GAUSS, M=M)
        rec = simulate_interacting(cfg, mdl, GAUSS)
        flow_n = MeasureFlow.from_record(rec)
        gap = float(np.max(res.flow.w1_curve(flow_n)))
        # pinned from pilot: both sides carry O(M^-1/2) ~ 0.016 of W1 noise
        assert gap < 0.08


class TestMeasureAt:
    def test_built_once_and_shared(self):
        f = random_flow(np.random.default_rng(2), np.linspace(0, 1, 6), 16)
        mu = f.measure_at(3)
        assert np.array_equal(mu.samples, f.values[3])
        assert mu.mean == float(f.values[3].mean())

    def test_concurrent_first_use(self):
        # sweep threads share one reference flow; whichever thread builds a
        # measure first, every caller must see the same samples and mean
        f = random_flow(np.random.default_rng(4), np.linspace(0, 1, 51), 64)
        seen = [[] for _ in range(8)]

        def work(slot):
            for k in range(len(f.times)):
                mu = f.measure_at(k)
                seen[slot].append((k, mu.mean, mu.samples[0], mu.samples[-1]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        want = [(k, float(row.mean()), row[0], row[-1]) for k, row in enumerate(f.values)]
        assert all(s == want for s in seen)


class TestFlowSerialization:
    def test_csv_round_trip(self, tmp_path):
        t = np.linspace(0, 0.2, 3)
        f = MeasureFlow(t, np.array([[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]]))
        p = tmp_path / "flow.csv"
        f.write_csv(p)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "t,sample_index,value"
        assert len(rows) == 1 + 3 * 2

    def test_diagnostics_csv(self, tmp_path):
        from mfchaos.solver import FixedPointResult
        f = MeasureFlow(np.linspace(0, 1, 2), np.zeros((2, 2)))
        res = FixedPointResult(flow=f, rhos=[0.5, 0.1], converged=True,
                               reason="tol", noise_floor=0.01, lam=6.0)
        p = tmp_path / "diag.csv"
        res.write_diagnostics_csv(p)
        assert p.read_text().splitlines()[1] == "0,0.5"
