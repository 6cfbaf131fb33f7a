"""Absolute golden digests of the reproducibility contract.

Relative tests (reruns agree, worker counts agree) pass even when a
refactor changes every number. These pin the exact output bits: the
SHA-256 of `.tobytes()` for the noise streams, for short runs of every
stepping path (interacting, coupled, by hand, Picard) on the linear,
`sqrt` and path-dependent `delay` models (including a delay measure whose
atoms fall between grid columns), of the stability gap on those three
models, and of the CSV bytes of small rate, coupling and marginal TV
sweeps, the rate sweeps going through both the nested W1 path (sample
counts dividing the reference size) and the general one. Every other CSV
artifact is pinned as well: long and wide `record.csv`, the Picard
`flow.csv` and `diagnostics.csv`, `summary.csv`, and the CLI's
`assumptions.csv` and `yamada_audit.csv`. A change that alters any digest
on purpose must say why in CHANGES.md.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mfchaos import cli, rng
from mfchaos.chaos import (build_reference_flow, coupling_error_curve, estimate_chaos_rate,
                           marginal_tv_study, stability_perturbation_test)
from mfchaos.engine import (GaussianLaw, ParticleEnsemble, SimConfig, simulate_coupled,
                            simulate_interacting, step_interacting)
from mfchaos.model import make_delay_model, make_linear_model, make_sqrt_model
from mfchaos.solver import solve_fixed_point

SEED = 20260810
CFG = SimConfig(T=0.2, dt=0.02, N=16, seed=SEED)
REF_M = 512
NESTED_N = [16, 128, 512, 1024]    # below, at and above REF_M, nesting with it
NON_NESTED_N = [24, 40, 96]        # none divides REF_M, none is a multiple of it
# uniform delay atoms at lags -0.06, -0.04, -0.02, 0 sit on the step grid
DELAY_CFG = SimConfig(T=0.2, dt=0.02, N=32, seed=SEED, r=0.06)
# 64 uniform atoms on [-1, 0] at dt = 0.01: all but the end atoms fall between grid columns
OFF_GRID_CFG = SimConfig(T=0.3, dt=0.01, N=32, seed=5, r=1.0)

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
        "0790abfe5a7e0c3d6ac3b58ac9f68d0c0a47ce99569b4e7a678ae80dd029e768",
    "non_nested.runs.csv":
        "3fc027a9fda86ebb389f470d25d1fbd173cf176e30c32cdb47d3051d59835d99",
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
    ens = ParticleEnsemble.from_law(DELAY_CFG, GaussianLaw(1.0, 0.5))
    states = []
    for k in range(3):
        step_interacting(ens, mdl, k * DELAY_CFG.dt, DELAY_CFG.dt, seed=SEED)
        states.append(ens.current.copy())
    assert sha(np.array(states).tobytes()) == GOLDEN["step_interacting"]


def test_picard_solve(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # tol sits below the noise floor at M=64
        res = solve_fixed_point(CFG, make_linear_model(), GaussianLaw(1.0, 0.5), M=64,
                                max_iter=3)
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
@pytest.mark.parametrize("label", ["linear", "delay"])
def test_record_csv(tmp_path, label, form):
    mdl, cfg = {"linear": (make_linear_model(), CFG), "delay": (delay_model(), DELAY_CFG)}[label]
    rec = simulate_interacting(cfg, mdl, GaussianLaw(1.0, 0.5))
    rec.write_csv(tmp_path / "record.csv", form=form)
    assert sha((tmp_path / "record.csv").read_bytes()) == GOLDEN[f"{label}.{form}.record.csv"]


@pytest.mark.parametrize("name,argv", [
    # the linear model's audit holds a `nan` estimate and an empty declared cell
    ("assumptions.csv", ["check-assumptions", "--set", "check.samples=2000"]),
    ("yamada_audit.csv", ["yamada-verify", "--epsilon", "0.1", "--set", "yamada.n_list=4,16"]),
])
def test_cli_audit_csv(tmp_path, name, argv):
    assert cli.main([*argv, "--seed", str(SEED), "--out", str(tmp_path)]) == 0
    assert sha((tmp_path / name).read_bytes()) == GOLDEN[name]
