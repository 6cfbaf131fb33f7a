"""Absolute golden digests of the reproducibility contract.

Relative tests (reruns agree, worker counts agree) pass even when a
refactor changes every number. These pin the exact output bits: the
SHA-256 of `.tobytes()` for the noise streams and one coupled run, and of
the CSV bytes of a small rate sweep that goes through both the nested
W1 path (sample counts dividing the reference size) and the general one.
A change that alters any digest on purpose must say why in CHANGES.md.
"""

import hashlib

import pytest

from mfchaos import rng
from mfchaos.chaos import build_reference_flow, estimate_chaos_rate
from mfchaos.engine import GaussianLaw, SimConfig, simulate_coupled
from mfchaos.model import make_linear_model

SEED = 20260810
CFG = SimConfig(T=0.2, dt=0.02, N=16, seed=SEED)
REF_M = 512
NESTED_N = [16, 128, 512, 1024]    # below, at and above REF_M, nesting with it
NON_NESTED_N = [24, 40, 96]        # none divides REF_M, none is a multiple of it

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
    assert sha((tmp_path / "rate.csv").read_bytes()) == GOLDEN[f"{label}.rate.csv"]
    assert sha((tmp_path / "runs.csv").read_bytes()) == GOLDEN[f"{label}.runs.csv"]
