"""Absolute golden digests of the reproducibility contract.

Relative tests (reruns agree, worker counts agree) pass even when a
refactor changes every number. These pin the exact output bits: the
SHA-256 of `.tobytes()` for the noise streams, for short runs of every
stepping path (interacting, frozen, coupled, by hand, Picard) on the linear,
`sqrt` and path-dependent `delay` models (including a delay measure whose
atoms fall between grid columns), of the stability gap on those three
models, and of the CSV bytes of small rate, coupling and marginal TV
sweeps, the rate sweeps scoring sample counts that divide the reference
size and counts that do not (their W1 sums segments of unequal length),
on the linear model and on `sqrt`. Every other CSV
artifact is pinned as well: long and wide `record.csv` (from the library
and from the CLI's `simulate`), the Picard
`flow.csv` and `diagnostics.csv`, `summary.csv`, and the CLI's
`assumptions.csv` and `yamada_audit.csv`, and the `repr` of whole
assumption reports, which also hold the witnesses `assumptions.csv` leaves
out. A change that alters any digest on purpose must say why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from mfchaos import cli, rng
from mfchaos.chaos import (build_reference_flow, coupling_error_curve, estimate_chaos_rate,
                           marginal_tv_study, oracle_mean_flow, stability_perturbation_test)
from mfchaos.engine import (GaussianLaw, ParticleEnsemble, PathRecord, SimConfig, WideSummary,
                            simulate_coupled, simulate_frozen, simulate_interacting,
                            step_interacting)
from mfchaos.model import (ModelSpec, check_assumptions, make_delay_model, make_linear_model,
                           make_sqrt_model)
from mfchaos.paths import DelayMeasure
from mfchaos.solver import solve_fixed_point

SEED = 20260810
CFG = SimConfig(T=0.2, dt=0.02, N=16, seed=SEED)
REF_M = 512
NESTED_N = [16, 128, 512, 1024]    # below, at and above REF_M, nesting with it
NON_NESTED_N = [24, 40, 96]        # none divides REF_M, none is a multiple of it
# uniform delay atoms at lags -0.06, -0.04, -0.02, 0 sit on the step grid
DELAY_CFG = SimConfig(T=0.2, dt=0.02, N=32, seed=SEED)
# 64 uniform atoms on [-1, 0] at dt = 0.01: all but the end atoms fall between grid columns
OFF_GRID_CFG = SimConfig(T=0.3, dt=0.01, N=32, seed=5)

GOLDEN = {
    "normals":
        "fc4c06774cd91ee7ab713bff74e36fe69ae571c729b562ae4545eb779e3b3e55",
    "uniforms":
        "c046d76ec5195eff91eb40c1697e8a28db36ac04725084418b28b3dc4472d741",
    "coupled.interacting":
        "13a5e1a04f2b7e913ba20789c7ff486705a0424ea1e1c02ef3dfaa1238c7bfde",
    "coupled.limit":
        "5bdb32de394d90b0aee52e71f6c795bec9e6c43b833d6983e96ecd19d20a61fb",
    "nested.rate.csv":
        "28399925756919daf2f31242283ffed3aa1012d9c8e9ee57007cb14d0ebb0670",
    "nested.runs.csv":
        "e6885f620802356b8392d46b7b075014c134e1758d794012b7fe7a3e0ebd4d9b",
    "non_nested.rate.csv":
        "b9802b6845172dc5f5fd202dcfdcbcadea6a4aa182831a86406c3e1d5afeb452",
    "non_nested.runs.csv":
        "e838c724f6a7fa5d5262c4806701984d2d65c6e0c55ebe2b3050b1f173e0cfd2",
    "frozen":
        "d9012d50cf354d4e1554d5c3a43d84619df8b15d42dab2162896ec34cc1f2172",
    "sqrt.interacting":
        "a52933e9ce4eb5edcfbecddaafe4f421632c88f53aaa6f6b9663dac72a3b0d85",
    "sqrt.coupled.interacting":
        "a52933e9ce4eb5edcfbecddaafe4f421632c88f53aaa6f6b9663dac72a3b0d85",
    "sqrt.coupled.limit":
        "8db0aabc75c09b56cc08791f98db773a552a6218aeb03e5362387a42f37852f6",
    "delay.interacting":
        "1c50c4a867db1a68668b5a411ab83cb037342318d2368cd4a3636cd74bf48eba",
    "delay.coupled.interacting":
        "1c50c4a867db1a68668b5a411ab83cb037342318d2368cd4a3636cd74bf48eba",
    "delay.coupled.limit":
        "1c50c4a867db1a68668b5a411ab83cb037342318d2368cd4a3636cd74bf48eba",
    "off_grid.interacting":
        "bfa58003511cef8459565f56c4499823e71266117e5daa1c36a47359ad30b271",
    "off_grid.reference":
        "e2f5d8c6563f365bc3a43330eff32153f48a3f866208bb1142556b5d35868a9b",
    "step_interacting":
        "0b1f22178bba38b56f3cdacbdf757be2c173fb113a81abb879ae1b697d8d1494",
    "solve.flow":
        "9f004def77f374d81d14a4894c4bb3fa229105ecb310a2dba5586235c3079b68",
    "solve.rhos":
        "cffce14ed27d9cc9384568756f735e0f4bd0deae6ee7e72535d5041a1efa2588",
    "sqrt.runs.csv":
        "14e47d4bb470a7244bc4f1f7570c2429e41fee75c6f33e2ccf743f049e2d661d",
    "coupling.csv":
        "5436265c2b2d4174af21ae7e01112d9e4593966b79c1c7da4604ee7763db84cc",
    "stability.linear":
        "4d0e8f43d5d64b1d01bd2de3e2a0658a372d507bb3dd5ddc726511a0fecd30f4",
    "stability.sqrt":
        "4741fb2937425c27ff443fcad612ef1289e5303bb83a76858395aaec46d94fe6",
    "stability.delay":
        "7cf63dfc5fd9b5799084baaf490199bca6297831cc0b86058712b95b67e846a3",
    "nested.tv.csv":
        "3c00d8c223dc953326ba2727e3de5b72f4ae5b91f911acc6e815ba00418eb4f3",
    "delay.tv.csv":
        "aedb10d6377986b92adf3e648329e6e3a027227995afb908422adb5e8f8462ba",
    "nested.summary.csv":
        "e5b05b982ea9b6129f922f4750ee032da82bf72bb0ef52c024130b82d506966a",
    "non_nested.summary.csv":
        "76d9639f9999f3ea07d95705e676b9a0c9c2f55f702558929adf9da889eb6083",
    "linear.long.record.csv":
        "e0b99f00b282bf5d14b52df60490dac0b7b559720ed2bf2159b337f5eb647a1d",
    "linear.wide.record.csv":
        "519319ff41095271ee95971ef8c84adea0bdc88ba3000624ede78a9848018eb6",
    "delay.long.record.csv":
        "8aecd57335c208c79410baabc94bcbc067b53b5ca5dadfb25eb7c2c86193faab",
    "delay.wide.record.csv":
        "f50686b5be33f8f589f42e21ac66969ede21d0a152864c10233fcbf9a005553a",
    "solve.flow.csv":
        "4014352965a0a4287c5ef91f3ff8c1b9823c94042c798a8608eab0dfe31f6237",
    "solve.diagnostics.csv":
        "f14cce24522bf84cc884fcd4d0b133f90ec8b960467a419427190585d31870b8",
    "assumptions.csv":
        "29e7f49fd2ea6f49211f4e4f14c0ba27e9497613bdd5ba9b046e2576983b75cf",
    "yamada_audit.csv":
        "101459e2f2135cc170fe24ac5ae6cffcd6de53c62557d4e91d8a55490865e48f",
    "delay.assumptions.csv":
        "2f33cc796a266434eecae5b73c05b3b88f5f20752202e3fff00b6ca8fa817d49",
    "audit.linear.0":
        "ddfaa0009349e26dcb74fe555ec2db4829d6fc30cd2318bdca75898bb82b63ef",
    "audit.linear.1":
        "5c599ebd12ae30d75c46c31817d27d38bf09c7dd03319f0fc2fb669ddbb713a3",
    "audit.linear.20260810":
        "f5c3afaeef4f7bf494e4a1b2347023d978beba796d15b107a17c6dc0bcbf2bfd",
    "audit.sqrt.0":
        "2a3849d3383b47a18ea767a33c0a4a07e09ed4d747af59e265a50153deb9858e",
    "audit.sqrt.1":
        "fc4527ae13349dbd46bab78b783cd72a25656098681e76bb21e64c9f541c55c7",
    "audit.sqrt.20260810":
        "94817c71ccb73d168c73e625df1b2d54ba8cc807181e331ca5663b427e6a1e97",
    "audit.delay.0":
        "0d858117e820db4a12682516b7871bd6f69f6a069ca1993d4412a251e445654f",
    "audit.delay.1":
        "f436a30bd52ac765afb4d16e56206cabd3755bdaba308be45926b2b85556f2ce",
    "audit.delay.20260810":
        "7fc5b897e3f624445d968d4a202309fb7022abf43309d61228d18951d846e372",
    "audit.delay-uniform-8.0":
        "1d8464553db6bfe63d39b85f695ef33bccefb7e68b2639dec7410845e2d6b1bc",
    "audit.delay-uniform-8.1":
        "f5ea2796199643bf877355220cfe7b544d9704c7d04d479b95e7acc181266471",
    "audit.delay-uniform-8.20260810":
        "69f84f3273351856c232164a8f5039c8c14065e0bd0bfb582c3a362435440466",
    "audit.sqrt-alpha-1.0":
        "9f7a3ed57dd92c774d337635b1d4a7cab0e7bdc96178019a0b43fde813c7f906",
    "audit.sqrt-alpha-1.1":
        "31cddd2d46c0de9f55430dde9ae4d61fb349b64bbda9e4fa9c3c2a9504c543d4",
    "audit.sqrt-alpha-1.20260810":
        "778f946416296050f171381f09932df175cb3bcd86afa045e7b77b4d44985df2",
    "audit.timed.0":
        "dba04233f6cba37d835f7a6c9ff6a65cef2d30ea9e3552e55a4cb02bb55fd275",
    "audit.timed.1":
        "e0b0a6cdc2fac554623eb05bca715237ea1772222e2c7150f45c836208bc2310",
    "audit.timed.20260810":
        "9e40b902510d6f24ab5ca5670d85317cecc472125223d2770a8c389774d547c6",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def reference():
    mdl = make_linear_model()
    return mdl, build_reference_flow(CFG, mdl, GaussianLaw(1.0, 0.5), M=REF_M)


def test_noise_streams():
    assert sha(rng.normals(SEED, rng.STREAM_DRIVE, 7, 1000).tobytes()) == GOLDEN["normals"]
    assert sha(rng.uniforms(SEED, rng.STREAM_INIT, 3, 1000).tobytes()) == GOLDEN["uniforms"]


def test_coupled_run(reference):
    mdl, ref = reference
    rec = simulate_coupled(CFG, mdl, ref)
    assert sha(rec.interacting.values.tobytes()) == GOLDEN["coupled.interacting"]
    assert sha(rec.limit.values.tobytes()) == GOLDEN["coupled.limit"]


def test_frozen_run():
    # paths frozen to the oracle mean flow, with no observer: the run keeps its record
    mdl, law = make_linear_model(), GaussianLaw(1.0, 0.5)
    rec = simulate_frozen(CFG, mdl, oracle_mean_flow(CFG, mdl, law), 64, SEED)
    assert sha(rec.values.tobytes()) == GOLDEN["frozen"]


@pytest.mark.parametrize("label,N_list", [("nested", NESTED_N), ("non_nested", NON_NESTED_N)])
def test_rate_sweep_csv(reference, tmp_path, label, N_list):
    mdl, ref = reference
    rep = estimate_chaos_rate(CFG, mdl, N_list, 2, ref)
    rep.write_csv(tmp_path / "rate.csv")
    rep.write_runs_csv(tmp_path / "runs.csv")
    rep.write_summary_csv(tmp_path / "summary.csv")
    assert sha((tmp_path / "rate.csv").read_bytes()) == GOLDEN[f"{label}.rate.csv"]
    assert sha((tmp_path / "runs.csv").read_bytes()) == GOLDEN[f"{label}.runs.csv"]
    assert sha((tmp_path / "summary.csv").read_bytes()) == GOLDEN[f"{label}.summary.csv"]


def test_sqrt_rate_sweep_runs_csv(tmp_path):
    # nested and non-nested counts; the sweep scores exactly only rows whose sup could rise
    mdl = make_sqrt_model()
    ref = build_reference_flow(CFG, mdl, GaussianLaw(1.0, 0.5), M=REF_M)
    rep = estimate_chaos_rate(CFG, mdl, [16, 24, 64, 128], 3, ref)
    rep.write_runs_csv(tmp_path / "runs.csv")
    assert sha((tmp_path / "runs.csv").read_bytes()) == GOLDEN["sqrt.runs.csv"]


def delay_model():
    return make_delay_model(beta=0.5, r=0.06, a=-0.3, sigma0=0.3, m="uniform", atoms=4)


def test_sqrt_runs():
    mdl = make_sqrt_model()
    law = GaussianLaw(1.0, 0.5)
    cfg = SimConfig(T=0.2, dt=0.02, N=64, seed=SEED)
    rec = simulate_interacting(cfg, mdl, law)
    assert sha(rec.values.tobytes()) == GOLDEN["sqrt.interacting"]
    ref = build_reference_flow(cfg, mdl, law, M=256)
    pair = simulate_coupled(cfg, mdl, ref)
    assert sha(pair.interacting.values.tobytes()) == GOLDEN["sqrt.coupled.interacting"]
    assert sha(pair.limit.values.tobytes()) == GOLDEN["sqrt.coupled.limit"]


def test_delay_runs():
    mdl = delay_model()
    law = GaussianLaw(1.0, 0.5)
    rec = simulate_interacting(DELAY_CFG, mdl, law)
    assert sha(rec.values.tobytes()) == GOLDEN["delay.interacting"]
    ref = build_reference_flow(DELAY_CFG, mdl, law, M=256)
    pair = simulate_coupled(DELAY_CFG, mdl, ref)
    assert sha(pair.interacting.values.tobytes()) == GOLDEN["delay.coupled.interacting"]
    assert sha(pair.limit.values.tobytes()) == GOLDEN["delay.coupled.limit"]


@pytest.mark.filterwarnings("error::UserWarning")
def test_off_grid_delay_atoms():
    # atoms are read by interpolation where they are declared, silently
    mdl = make_delay_model(beta=0.5, r=1.0, a=-0.3, sigma0=0.3, m="uniform", atoms=64)
    law = GaussianLaw(1.0, 0.5)
    rec = simulate_interacting(OFF_GRID_CFG, mdl, law)
    assert sha(rec.values.tobytes()) == GOLDEN["off_grid.interacting"]
    ref = build_reference_flow(OFF_GRID_CFG, mdl, law, M=256)
    assert sha(ref.values.tobytes()) == GOLDEN["off_grid.reference"]


def test_step_interacting_by_hand():
    mdl = delay_model()
    ens = ParticleEnsemble.from_law(DELAY_CFG, mdl, GaussianLaw(1.0, 0.5))
    states = []
    for k in range(3):
        step_interacting(ens, mdl, k * DELAY_CFG.dt, DELAY_CFG.dt, seed=SEED)
        states.append(ens.current.copy())
    assert sha(np.array(states).tobytes()) == GOLDEN["step_interacting"]


@pytest.mark.filterwarnings("error::UserWarning")
def test_picard_solve(tmp_path):
    # no tolerance is set, so the solve has none below the noise floor to warn of
    res = solve_fixed_point(CFG, make_linear_model(), GaussianLaw(1.0, 0.5), M=64, max_iter=3)
    assert sha(res.flow.values.tobytes()) == GOLDEN["solve.flow"]
    assert sha(np.array(res.rhos + [res.noise_floor]).tobytes()) == GOLDEN["solve.rhos"]
    res.flow.write_csv(tmp_path / "flow.csv")
    res.write_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert sha((tmp_path / "flow.csv").read_bytes()) == GOLDEN["solve.flow.csv"]
    assert sha((tmp_path / "diagnostics.csv").read_bytes()) == GOLDEN["solve.diagnostics.csv"]


def test_coupling_sweep_csv(reference, tmp_path):
    mdl, ref = reference
    rep = coupling_error_curve(CFG, mdl, ref, [16, 32, 64], 2)
    rep.write_csv(tmp_path / "coupling.csv")
    assert sha((tmp_path / "coupling.csv").read_bytes()) == GOLDEN["coupling.csv"]


@pytest.mark.parametrize("label", ["linear", "sqrt", "delay"])
def test_stability_gap(label):
    mdl, cfg = {"linear": (make_linear_model(), CFG),
                "sqrt": (make_sqrt_model(), CFG),
                "delay": (delay_model(), DELAY_CFG)}[label]
    st = stability_perturbation_test(cfg, mdl, 0.1, GaussianLaw(1.0, 0.5))
    assert sha(np.concatenate([st.times, st.mean_abs_diff]).tobytes()) == \
        GOLDEN[f"stability.{label}"]


@pytest.mark.parametrize("workers", [1, 2])
def test_tv_study_csv(reference, tmp_path, workers):
    mdl, ref = reference
    rep = marginal_tv_study(CFG, mdl, ref, NESTED_N, 2, [0.0, 0.1, 0.2], workers=workers)
    rep.write_csv(tmp_path / "tv.csv")
    assert sha((tmp_path / "tv.csv").read_bytes()) == GOLDEN["nested.tv.csv"]


def test_delay_tv_study_csv(tmp_path):
    mdl = delay_model()
    ref = build_reference_flow(DELAY_CFG, mdl, GaussianLaw(1.0, 0.5), M=256)
    rep = marginal_tv_study(DELAY_CFG, mdl, ref, [16, 32, 64], 3, [0.06, 0.2])
    rep.write_csv(tmp_path / "tv.csv")
    assert sha((tmp_path / "tv.csv").read_bytes()) == GOLDEN["delay.tv.csv"]


@pytest.mark.parametrize("form", ["long", "wide"])
@pytest.mark.parametrize("label", ["linear", "delay", "cli"])
def test_record_csv(tmp_path, label, form):
    if label == "cli":   # the CLI's defaults at CFG's grid and size: the linear record
        assert cli.main(["simulate", "--seed", str(SEED), "--set", "sim.T=0.2",
                         "--set", "sim.dt=0.02", "--set", "sim.N=16",
                         "--set", f"record.form={form}", "--out", str(tmp_path)]) == 0
        label = "linear"
    else:
        mdl, cfg = {"linear": (make_linear_model(), CFG),
                    "delay": (delay_model(), DELAY_CFG)}[label]
        table = PathRecord.blank(cfg.times, (cfg.N,)) if form == "long" else WideSummary(cfg.times)
        simulate_interacting(cfg, mdl, GaussianLaw(1.0, 0.5), observe=table.observe)
        table.write_csv(tmp_path / "record.csv")
    assert sha((tmp_path / "record.csv").read_bytes()) == GOLDEN[f"{label}.{form}.record.csv"]


@pytest.mark.parametrize("name,argv", [
    # the linear model's audit holds a `nan` estimate and an empty declared cell
    ("assumptions.csv", ["check-assumptions", "--set", "check.samples=2000"]),
    ("yamada_audit.csv", ["yamada-verify", "--epsilon", "0.1", "--set", "yamada.n_list=4,16"]),
    # a path drift that integrates a one-particle batch against uniform atoms
    ("delay.assumptions.csv", ["check-assumptions", "--set", "model.name=delay",
                               "--set", "model.m=uniform", "--set", "model.atoms=4",
                               "--set", "check.samples=2000"]),
])
def test_cli_audit_csv(tmp_path, name, argv):
    assert cli.main([*argv, "--seed", str(SEED), "--out", str(tmp_path)]) == 0
    artifact = ".".join(name.split(".")[-2:])   # a digest's name ends in its file's
    assert sha((tmp_path / artifact).read_bytes()) == GOLDEN[name]


def timed_model():
    """Every coefficient reads t, so the audit's tuples at each time are pinned."""
    dm = DelayMeasure.uniform(0.5, 3)
    return ModelSpec(
        name="timed", drift=lambda t, x, mu: (t - 1.0) * x + t * mu.mean,
        path_drift=lambda t, seg, mu: (1.0 - 0.5 * t) * seg.integral_against(dm) + t * mu.mean,
        sigma=lambda t, x: (1.0 + t) * np.sqrt(np.abs(x)),
        K_b=1.0, K_B=1.0, K_sigma=2.0, alpha=0.5, delay_measure=dm)


AUDITED = {
    "linear": make_linear_model,
    "sqrt": make_sqrt_model,
    "delay": make_delay_model,
    "delay-uniform-8": lambda: make_delay_model(m="uniform", atoms=8),
    "sqrt-alpha-1": lambda: make_sqrt_model(alpha=1.0),
    "timed": timed_model,
}


@pytest.mark.parametrize("seed", [0, 1, SEED])
@pytest.mark.parametrize("label", AUDITED)
def test_assumption_report(label, seed):
    rep = check_assumptions(AUDITED[label](), sample_count=2_000, seed=seed)
    assert sha(repr(rep).encode()) == GOLDEN[f"audit.{label}.{seed}"]
