"""Acceptance suite: one test per release criterion, tolerances pinned here.

Each test prints a PASS line with the measured quantity once its
assertions hold (run with -s or -rP to see them). The heavy rate sweep is
shared between the criteria that consume it, so it runs once per session
(twice including the determinism re-run, which is the point of that
criterion).
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from mfchaos import rng as noise
from mfchaos.chaos import build_reference_flow, estimate_chaos_rate
from mfchaos.engine import ConstantLaw, GaussianLaw, SimConfig, simulate_interacting
from mfchaos.measures import EmpiricalMeasure, pinsker_check, w1
from mfchaos.model import make_delay_model, make_linear_model, make_sqrt_model
from mfchaos.solver import default_lambda, solve_fixed_point
from mfchaos.yamada import make_yamada, mollifier_error_bound, mollify_sigma
from mfchaos.chaos import oracle_mean_flow


MASTER_SEED = 20260810
GAUSS = GaussianLaw(1.0, 0.5)

# criterion 5 experiment definition (shared by 6, 8 and 10)
SWEEP_CFG = SimConfig(T=1.0, dt=0.01, N=64, seed=MASTER_SEED)
SWEEP_N = [64, 128, 256, 512, 1024, 2048, 4096]
SWEEP_REPLICAS = 20
SWEEP_M = 32_768


def report(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="session")
def linear_sweep():
    mdl = make_linear_model(a=-1.0, c=0.5, sigma0=0.2)
    t0 = time.monotonic()
    ref = build_reference_flow(SWEEP_CFG, mdl, GAUSS, M=SWEEP_M)
    rep = estimate_chaos_rate(SWEEP_CFG, mdl, SWEEP_N, SWEEP_REPLICAS, ref, workers=2)
    elapsed = time.monotonic() - t0
    return mdl, ref, rep, elapsed


def test_criterion_1_w1_bruteforce_equivalence():
    t0 = time.monotonic()
    perm_tables = {n: np.array(list(itertools.permutations(range(n)))) for n in range(1, 7)}
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        x = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        y = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        brute = np.abs(x[perm_tables[n]] - y).mean(axis=1).min()
        fast = w1(EmpiricalMeasure(x), EmpiricalMeasure(y))
        worst = max(worst, abs(fast - brute))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, f"sorted W1 == assignment optimum on 1e4 instances "
              f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_yamada_audit():
    t0 = time.monotonic()
    tol = 1e-8
    for eps in (0.05, 0.1, 0.3):
        yw = make_yamada(eps)
        x = np.linspace(-2.0, 2.0, 10_000)
        v, vp = yw.V(x), yw.V_prime(x)
        ax = np.abs(x)
        assert np.all(v <= ax + tol)                      # V <= |x|
        assert np.all(v >= ax - eps - tol)                # |x| - eps <= V
        signed = np.sign(x) * vp
        assert np.all(signed >= -tol) and np.all(signed <= 1.0 + tol)
        lo, hi = yw.support
        on = np.exp(np.linspace(np.log(lo), np.log(hi), 10_000))
        vpp = yw.V_second(on)
        assert np.all(vpp >= -tol)
        assert np.all(vpp * on <= 2.0 * eps + tol)        # V'' <= 2 eps / |x|
        off = np.array([lo * 0.25, lo * 0.9999 - lo, hi * 1.0001, 5.0])
        assert np.all(yw.V_second(np.abs(off)) <= tol)
        assert abs(yw.mass() - 1.0) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, f"V sandwich, derivative range and kernel bound hold at 1e-8 "
              f"on 1e4-point grids for eps in {{0.05, 0.1, 0.3}} ({elapsed:.1f}s)")


def test_criterion_3_mollification_bound():
    t0 = time.monotonic()
    mdl = make_sqrt_model(sigma0=1.0)   # K_sigma = 1, alpha = 1/2
    grid = np.linspace(-2.0, 2.0, 4001)
    base = mdl.sigma(0.0, grid)
    gaps = {}
    for n in (4, 16, 64, 256):
        sn = mollify_sigma(mdl, n)
        gaps[n] = float(np.max(np.abs(sn(0.0, grid) - base)))
        bound = mollifier_error_bound(1.0, 0.5, n)
        # the bound is attained at the kink, so allow kernel-quadrature
        # roundoff of one part in 1e6
        assert gaps[n] <= bound * (1.0 + 1e-6)
    for n in (4, 16, 64):
        assert gaps[n] / gaps[4 * n] >= 1.8
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, f"sup-gap under K n^-1/2 * rho-moment for n in {{4,...,256}}, "
              f"shrink x{gaps[4]/gaps[16]:.2f} per 4x n ({elapsed:.1f}s)")


def test_criterion_4_deterministic_oracles():
    t0 = time.monotonic()
    dt = 1e-3
    a, c = -1.0, 0.5
    lin = make_linear_model(a=a, c=c, sigma0=0.0)
    cfg = SimConfig(T=1.0, dt=dt, N=8, seed=MASTER_SEED)
    rec = simulate_interacting(cfg, lin, ConstantLaw(1.0))
    lin_err = abs(rec.means[-1] - np.exp(a + c))
    assert lin_err <= 2.0 * dt

    dmdl = make_delay_model(beta=1.0, r=1.0, sigma0=0.0)
    dcfg = SimConfig(T=1.0, dt=dt, N=8, seed=MASTER_SEED)
    drec = simulate_interacting(dcfg, dmdl, ConstantLaw(1.0))
    delay_err = float(np.max(np.abs(drec.means - (1.0 + drec.times))))
    assert delay_err <= 2.0 * dt
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(4, f"mean-field ODE gap {lin_err:.2e} and delay ramp gap "
              f"{delay_err:.2e} within 2*dt at dt=1e-3 ({elapsed:.1f}s)")


def test_criterion_5_chaos_rate_linear(linear_sweep):
    _, _, rep, elapsed = linear_sweep
    assert elapsed < 600.0
    assert -0.65 <= rep.slope <= -0.35
    report(5, f"linear-model rate slope {rep.slope:.3f} "
              f"(stderr {rep.slope_stderr:.3f}) in [-0.65, -0.35]; "
              f"sweep took {elapsed:.0f}s")


def test_criterion_6_hoelder_rate_study():
    mdl = make_sqrt_model(kappa=1.0, theta=1.0, c=0.5, sigma0=0.2)
    ref = build_reference_flow(SWEEP_CFG, mdl, GAUSS, M=SWEEP_M)
    rep = estimate_chaos_rate(SWEEP_CFG, mdl, SWEEP_N, SWEEP_REPLICAS, ref, workers=2)
    assert np.all(np.isfinite(rep.error_mean))   # completed without blow-up
    assert rep.slope <= -0.3
    report(6, f"sqrt-diffusion study finite with slope {rep.slope:.3f} <= -0.3 "
              f"(exact -1/2 not asserted: explicit stepping degrades at alpha=1/2)")


@pytest.mark.filterwarnings("ignore:tol=")
def test_criterion_7_picard_contraction():
    t0 = time.monotonic()
    mdl = make_linear_model(a=-1.0, c=0.5, sigma0=0.2)
    lam = default_lambda(mdl)
    assert lam == pytest.approx(4.0 * (0.5 + 0.0 + 1.0))
    cfg = SimConfig(T=1.0, dt=0.01, N=4, seed=MASTER_SEED)
    res = solve_fixed_point(cfg, mdl, GAUSS, M=10_000, lam=lam, tol=1e-6, max_iter=25)
    assert res.converged
    checked = 0
    for r0, r1 in zip(res.rhos, res.rhos[1:]):
        if r0 > 2.0 * res.noise_floor:
            assert r1 / r0 < 0.9
            checked += 1
    assert checked >= 1 or res.rhos[0] <= 2.0 * res.noise_floor
    oracle = GAUSS.mean * np.exp(-0.5)
    rel = abs(res.flow.means[-1] - oracle) / abs(oracle)
    assert rel < 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(7, f"rho sequence {['%.4f' % r for r in res.rhos]} contracts to the "
              f"noise floor {res.noise_floor:.4f}; final mean off oracle by "
              f"{100 * rel:.2f}% ({elapsed:.0f}s)")


def test_criterion_8_triangle_inequality_every_run(linear_sweep):
    _, _, rep, _ = linear_sweep
    total = len(rep.runs)
    ok = sum(d.triangle_ok for d in rep.runs)
    assert ok == total == len(SWEEP_N) * SWEEP_REPLICAS
    report(8, f"W1(hat, ref) <= pairing + W1(tilde, ref) held in {ok}/{total} runs")


def test_criterion_9_pinsker_exact():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(100_000):
        k = int(rng.integers(2, 8))
        p = rng.random(k) + 1e-6
        q = rng.random(k) + 1e-6
        var, ent, holds = pinsker_check(p / p.sum(), q / q.sum())
        if not holds or var * var > 2.0 * ent + 1e-12:
            violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    report(9, f"variation-squared <= 2*entropy on 1e5 discrete pairs, "
              f"0 violations at 1e-12 slack ({elapsed:.0f}s)")


def test_criterion_10_determinism_across_parallelism(linear_sweep, tmp_path):
    mdl, ref, rep, _ = linear_sweep    # fixture ran with workers=2
    rerun = estimate_chaos_rate(SWEEP_CFG, mdl, SWEEP_N, SWEEP_REPLICAS, ref, workers=5)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    for out, r in ((a, rep), (b, rerun)):
        r.write_csv(out / "rate.csv")
        r.write_summary_csv(out / "summary.csv")
        r.write_runs_csv(out / "runs.csv")
    for name in ("rate.csv", "summary.csv", "runs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    report(10, "full sweep re-run at a different worker count is byte-identical")
