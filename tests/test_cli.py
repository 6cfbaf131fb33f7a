import os
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfchaos import cli, engine, model
from mfchaos.cli import ConfigError, main, parse_config


def run_cli(*args):
    return main(list(args))


TINY = ("--set", "sim.T=0.1", "--set", "sim.dt=0.01", "--set", "sim.N=8",
        "--set", "chaos.N_list=8,16,32", "--set", "chaos.M=64", "--set", "solve.M=64")

# input the library itself rejects with ValueError, past the config parser
BAD_INPUT = {
    "one-replica": ("chaos-rate", "--set", "chaos.replicas=1"),
    "decreasing-N_list": ("chaos-rate", "--set", "chaos.N_list=32,16,8"),
    # an initial law whose moment order, its tail, the rate fit excludes,
    # rejected before any N is stepped
    "chaos-rate-moment-order-two": ("chaos-rate", "--set", "init.name=pareto",
                                    "--set", "init.tail=2"),
    "coupling-one-replica": ("coupling", "--set", "chaos.replicas=1"),
    "coupling-repeated-N": ("coupling", "--set", "chaos.N_list=8,8"),
    # the study time is on the grid, so only the repeat can be rejected
    "tv-study-repeated-N": ("tv-study", "--set", "chaos.N_list=8,8", "--set", "chaos.times=0.1"),
    "one-path": ("solve", "--set", "solve.M=1"),
    "negative-lambda": ("solve", "--set", "solve.lambda=-1"),
    "unknown-record-form": ("simulate", "--set", "record.form=bogus"),
    "init-key-of-another-law": ("simulate", "--set", "init.tail=3"),
    "check-assumptions-init-key-of-another-law": ("check-assumptions", "--set", "init.tail=3"),
    "yamada-verify-init-key-of-another-law": ("yamada-verify", "--set", "init.tail=3"),
    "yamada-verify-model-key-of-another-model": ("yamada-verify", "--set", "model.beta=3"),
    "reversed-box": ("check-assumptions", "--set", "check.box=3,-3"),
    "epsilon-below-floor": ("yamada-verify", "--epsilon", "0.001"),
    "simulate-zero-workers": ("simulate", "--set", "sim.workers=0"),
    "simulate-negative-workers": ("simulate", "--set", "sim.workers=-1"),
    "chaos-rate-zero-workers": ("chaos-rate", "--set", "sim.workers=0"),
    "chaos-rate-negative-workers": ("chaos-rate", "--set", "sim.workers=-1"),
    # T/dt overflows a float, so the step count is not finite
    "overflowing-horizon": ("simulate", "--set", "sim.T=1e300", "--set", "sim.dt=1e-300"),
    # values a subcommand would run on without doing its work, then report a success
    "check-assumptions-negative-samples": ("check-assumptions", "--set", "check.samples=-5"),
    "chaos-zero-reference": ("chaos-rate", "--set", "chaos.M=0"),
    "coupling-negative-reference": ("coupling", "--set", "chaos.M=-5"),
    "solve-zero-iterations": ("solve", "--set", "solve.max_iter=0"),
    "tv-study-no-times": ("tv-study", "--set", "chaos.times="),
    "unknown-init-law": ("simulate", "--set", "init.name=cauchy"),
    "delay-fractional-atoms": ("simulate", "--set", "model.name=delay", "--set", "model.atoms=2.5"),
    # a model factory's own complaint about one of its parameters
    "delay-unknown-measure": ("simulate", "--set", "model.name=delay", "--set", "model.m=3"),
    "delay-no-atoms": ("simulate", "--set", "model.name=delay", "--set", "model.m=uniform",
                       "--set", "model.atoms=0"),
    "delay-negative-window": ("simulate", "--set", "model.name=delay", "--set", "model.r=-1"),
    "delay-infinite-window": ("simulate", "--set", "model.name=delay", "--set", "model.r=inf"),
    # the run's delay window is the model's, so it must sit on the time grid
    "delay-window-off-grid": ("simulate", "--set", "model.name=delay", "--set", "model.r=0.254"),
    # an initial law's own complaint about one of its parameters
    "pareto-hi-below-lo": ("simulate", "--set", "init.name=pareto", "--set", "init.lo=5",
                           "--set", "init.hi=1"),
    "pareto-zero-tail": ("simulate", "--set", "init.name=pareto", "--set", "init.tail=0"),
    "pareto-unbounded": ("simulate", "--set", "init.name=pareto", "--set", "init.hi=inf"),
    "gaussian-negative-std": ("simulate", "--set", "init.std=-1"),
    "gaussian-nan-std": ("simulate", "--set", "init.std=nan"),
    "constant-infinite-value": ("simulate", "--set", "init.name=constant",
                                "--set", "init.value=inf"),
}

# cases of BAD_INPUT whose one config error line names the key at fault
NAMED_KEY = {
    "chaos-rate-moment-order-two": "init.tail",
    "check-assumptions-negative-samples": "check.samples",
    "chaos-zero-reference": "chaos.M",
    "coupling-negative-reference": "chaos.M",
    "solve-zero-iterations": "solve.max_iter",
    "tv-study-no-times": "chaos.times",
    "unknown-init-law": "init.name",
    "delay-fractional-atoms": "model.atoms",
    "delay-unknown-measure": "model.m",
    "delay-no-atoms": "model.atoms",
    "delay-negative-window": "model.r",
    "delay-infinite-window": "model.r",
    "delay-window-off-grid": "model.r",
    "pareto-hi-below-lo": "init.hi",
    "pareto-zero-tail": "init.tail",
    "pareto-unbounded": "init.hi",
    "gaussian-negative-std": "init.std",
    "gaussian-nan-std": "init.std",
    "constant-infinite-value": "init.value",
}

# `simulate` runs whose wide record.csv is summarized as they step; N is
# above the 8192-element buffer of numpy's reductions
STREAMED = {
    "linear": ("--set", "sim.N=9000"),
    "sqrt": ("--set", "model.name=sqrt", "--set", "sim.N=9000"),
    "delay": ("--set", "model.name=delay", "--set", "model.m=uniform", "--set", "model.atoms=5",
              "--set", "model.r=0.2", "--set", "model.beta=0.5", "--set", "model.sigma0=0.2",
              "--set", "sim.N=9000", "--set", "sim.T=0.5"),
}

BLOWUP = ("simulate", "--set", "model.name=linear", "--set", "model.a=80.0",
          "--set", "model.c=0.0", "--set", "sim.dt=0.25", "--set", "sim.T=200.0",
          "--set", "sim.N=2", "--set", "init.name=constant", "--set", "init.value=1e30")


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.name = linear\nsim.N = 32\n")
        rc = parse_config(str(cfg), {})
        assert rc.raw("model.name") == "linear"
        assert rc.get_int("sim.N") == 32
        assert rc.get_float("sim.dt") == 0.01       # default filled
        assert rc.get_int("chaos.replicas") == 20   # default filled

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nsim.N = 8  # trailing\n")
        assert parse_config(str(cfg), {}).get_int("sim.N") == 8

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sim.bogus = 3\n")
        with pytest.raises(ConfigError, match="sim.bogus"):
            parse_config(str(cfg), {})

    def test_dt_not_dividing_T_names_dt(self):
        rc = parse_config(None, {"sim.dt": "0.3"})
        with pytest.raises(ConfigError, match="sim.dt"):
            rc.sim_config()

    @pytest.mark.parametrize("key,value", [("sim.N", "0"), ("sim.dt", "0"), ("sim.T", "0")])
    def test_bad_grid_value_names_its_key(self, key, value):
        rc = parse_config(None, {key: value})
        with pytest.raises(ConfigError, match=f"^key '{key}': "):
            rc.sim_config()

    def test_alpha_out_of_range_cites_interval(self):
        rc = parse_config(None, {"model.alpha": "0.3"})
        with pytest.raises(ConfigError, match=r"^key 'model.alpha': .*\[1/2, 1\]"):
            rc.model()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sim.N = 32\n")
        rc = parse_config(str(cfg), {"sim.N": "64"})
        assert rc.get_int("sim.N") == 64

    def test_type_errors_name_key(self):
        rc = parse_config(None, {"sim.N": "many"})
        with pytest.raises(ConfigError, match="sim.N"):
            rc.sim_config()

    def test_readme_defaults_block_matches(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("Config keys and defaults", 1)[1].split("```")[1]
        pairs = [re.match(r"\s*([\w.]+)\s*=\s*(\S+)", ln.split("#", 1)[0])
                 for ln in block.splitlines() if ln.strip()]
        assert pairs and all(pairs)
        assert {m[1]: m[2] for m in pairs} == {m[1]: cli._DEFAULTS[m[1]] for m in pairs}


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        assert run_cli("simulate", "--set", "sim.dt=0.3", "--out", str(tmp_path)) == 2

    def test_unknown_model_is_two(self, tmp_path):
        assert run_cli("simulate", "--set", "model.name=zebra", "--out", str(tmp_path)) == 2

    def test_moment_order_is_no_model_key(self, tmp_path, capsys):
        # the rate's moment order is the initial law's; no model declares one
        assert run_cli("chaos-rate", *TINY, "--set", "model.p=4", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "config error: unknown key 'model.p'\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_is_three(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path),
                       "--set", "model.name=linear", "--set", "model.a=80.0",
                       "--set", "model.c=0.0", "--set", "sim.dt=0.25",
                       "--set", "sim.T=200.0", "--set", "sim.N=2",
                       "--set", "init.name=constant", "--set", "init.value=1e30")
        assert code == 3

    @pytest.mark.filterwarnings("ignore:tol=")
    def test_nonconvergence_is_four(self, tmp_path):
        code = run_cli("solve", "--out", str(tmp_path),
                       "--set", "solve.M=64", "--set", "solve.tol=1e-12",
                       "--set", "solve.max_iter=1", "--set", "sim.N=4",
                       "--set", "sim.T=0.2", "--set", "sim.dt=0.05")
        assert code == 4
        # non-convergence still publishes its diagnostics (that IS the report)
        assert (tmp_path / "diagnostics.csv").exists()

    def test_failed_audit_is_five_and_publishes_its_table(self, tmp_path, capsys):
        # alpha = 1 declares a Lipschitz sqrt diffusion, which it is not near 0
        code = run_cli("check-assumptions", "--set", "model.name=sqrt", "--set", "model.alpha=1.0",
                       "--set", "check.samples=500", "--out", str(tmp_path))
        assert code == 5
        assert capsys.readouterr().out == "assumption audit: VIOLATIONS FOUND\n"
        rows = (tmp_path / "assumptions.csv").read_text().splitlines()
        assert "sigma_hoelder" in rows[3] and rows[3].endswith(",0")
        assert (tmp_path / "run_manifest.txt").exists()

    def test_failed_yamada_row_is_five_and_publishes_its_table(self, tmp_path, monkeypatch):
        # a zero error bound makes every mollification row fail
        monkeypatch.setattr(cli.yamada, "mollifier_error_bound", lambda *a: 0.0)
        code = run_cli("yamada-verify", "--epsilon", "0.1", "--set", "yamada.n_list=4",
                       "--out", str(tmp_path))
        assert code == 5
        last = (tmp_path / "yamada_audit.csv").read_text().splitlines()[-1]
        assert last.startswith("n=4,mollify_sup_gap,") and last.endswith(",0")
        assert (tmp_path / "run_manifest.txt").exists()

    @pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=list(BAD_INPUT))
    def test_rejected_input_is_two(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run_cli(argv[0], *TINY, *argv[1:], "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([ln for ln in err.splitlines() if ln.startswith("config error:")]) == 1
        assert not any(os.scandir(out))   # nothing published, nothing staged

    @pytest.mark.parametrize("case", NAMED_KEY)
    def test_rejected_value_names_its_key(self, tmp_path, capsys, case):
        argv = BAD_INPUT[case]
        assert run_cli(argv[0], *TINY, *argv[1:], "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"config error: key {NAMED_KEY[case]!r}: ")

    def test_bad_record_form_is_rejected_before_stepping(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "simulate_interacting", lambda *a, **k: calls.append(a))
        code = run_cli("simulate", *TINY, "--set", "record.form=bogus", "--out", str(tmp_path))
        assert code == 2
        assert calls == []


class TestArtifacts:
    def test_yamada_verify_writes_audit(self, tmp_path):
        assert run_cli("yamada-verify", "--epsilon", "0.1", "--out", str(tmp_path)) == 0
        text = (tmp_path / "yamada_audit.csv").read_text()
        assert text.startswith("epsilon,check,max_violation,passed")
        assert ",0\n" not in text   # every audit row passed
        assert (tmp_path / "run_manifest.txt").exists()

    def test_simulate_writes_record_and_manifest(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path), "--seed", "5",
                       "--set", "sim.N=16", "--set", "sim.T=0.2")
        assert code == 0
        assert (tmp_path / "record.csv").read_text().startswith("t,q05")
        manifest = (tmp_path / "run_manifest.txt").read_text()
        assert "seed = 5" in manifest
        assert "version.mfchaos" in manifest

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "o"   # blows up part way through a streamed wide record
        code = run_cli("simulate", "--out", str(out),
                       "--set", "model.a=80.0", "--set", "model.c=0.0",
                       "--set", "sim.dt=0.25", "--set", "sim.T=200.0",
                       "--set", "sim.N=2", "--set", "init.name=constant",
                       "--set", "init.value=1e30", "--set", "record.form=wide")
        assert code == 3
        assert not any(os.scandir(out))   # nothing published, nothing staged

    @pytest.mark.parametrize("argv", STREAMED.values(), ids=list(STREAMED))
    def test_wide_record_equals_whole_record_summary(self, tmp_path, argv):
        assert run_cli("simulate", "--seed", "3", *argv, "--out", str(tmp_path / "cli")) == 0
        rc = parse_config(None, {"seed": "3", **dict(a.split("=") for a in argv[1::2])})
        cfg, mdl = cli._sim_and_model(rc)
        rec = engine.simulate_interacting(cfg, mdl, rc.initial_law())
        whole = engine.WideSummary(rec.times)
        for k, row in enumerate(rec.values):
            whole.observe(k, row, np.sort(row))
        whole.write_csv(tmp_path / "whole.csv")
        assert (tmp_path / "cli" / "record.csv").read_bytes() == \
            (tmp_path / "whole.csv").read_bytes()

    def test_wide_simulate_keeps_no_trajectory(self, tmp_path):
        N, steps = 65_536, 100
        tracemalloc.start()
        try:
            assert run_cli("simulate", "--set", f"sim.N={N}", "--out", str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record_bytes = 8 * N * (steps + 1)   # 53 MB
        assert peak < record_bytes / 4

    def test_run_removes_other_subcommands_artifacts(self, tmp_path):
        assert run_cli("solve", *TINY, "--set", "solve.tol=0.5", "--out", str(tmp_path)) == 0
        (tmp_path / "notes.txt").write_text("kept")
        assert run_cli("simulate", *TINY, "--out", str(tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["notes.txt", "record.csv", "run_manifest.txt"]
        assert (tmp_path / "notes.txt").read_text() == "kept"

    def test_run_keeps_same_named_files_where_no_run_was(self, tmp_path):
        for name in ("summary.csv", "flow.csv"):
            (tmp_path / name).write_text("the user's own")
        assert run_cli("simulate", *TINY, "--out", str(tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["flow.csv", "record.csv", "run_manifest.txt", "summary.csv"]
        for name in ("summary.csv", "flow.csv"):
            assert (tmp_path / name).read_text() == "the user's own"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_published_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert run_cli("solve", *TINY, "--set", "solve.tol=0.5", "--out", str(tmp_path)) == 0
            published = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            # a failing run into the same directory leaves it exactly as it was
            assert run_cli(*BLOWUP, "--out", str(tmp_path)) == 3
        finally:
            os.umask(old)
        assert sorted(published) == ["diagnostics.csv", "flow.csv", "run_manifest.txt"]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == published
        for name in published:
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask

    def test_failed_publish_never_leaves_a_stale_manifest(self, tmp_path, monkeypatch):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        solve = ("solve", *TINY, "--set", "solve.tol=0.5")
        assert run_cli(*solve, "--seed", "1", "--out", str(out)) == 0
        assert run_cli(*solve, "--seed", "2", "--out", str(fresh)) == 0
        replace, calls = os.replace, []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", second_fails)
        with pytest.raises(OSError, match="disk full"):
            run_cli(*solve, "--seed", "2", "--out", str(out))
        monkeypatch.undo()
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        assert not any(name.startswith(".staging.") for name in left)
        if "run_manifest.txt" in left:   # a manifest vouches for every file beside it
            assert "seed = 2" in left.pop("run_manifest.txt").decode().splitlines()
            assert left == {p.name: p.read_bytes() for p in fresh.iterdir()
                            if p.name != "run_manifest.txt"}

    def test_chaos_rate_outputs(self, tmp_path):
        code = run_cli("chaos-rate", "--out", str(tmp_path), "--seed", "9",
                       "--set", "chaos.N_list=16,32,64", "--set", "chaos.replicas=3",
                       "--set", "chaos.M=512", "--set", "sim.T=0.5")
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "slope,stderr,theoretical_exponent"
        slope = float(summary[1].split(",")[0])
        assert slope < 0.0
        assert (tmp_path / "rate.csv").exists()
        assert (tmp_path / "runs.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["chaos-rate", "--seed", "4", "--set", "chaos.N_list=16,32,64",
                "--set", "chaos.replicas=2", "--set", "chaos.M=256",
                "--set", "sim.T=0.2"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        for name in ("rate.csv", "summary.csv", "runs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_check_assumptions_csv(self, tmp_path):
        code = run_cli("check-assumptions", "--out", str(tmp_path),
                       "--set", "check.samples=500")
        assert code == 0
        text = (tmp_path / "assumptions.csv").read_text()
        assert text.startswith("check,estimate,declared,passed")
        assert "no violation" in text

    def test_tv_study_runs_on_linear(self, tmp_path):
        code = run_cli("tv-study", "--out", str(tmp_path),
                       "--set", "chaos.N_list=16,64", "--set", "chaos.replicas=2",
                       "--set", "chaos.M=256", "--set", "chaos.times=0.5")
        assert code == 0
        assert (tmp_path / "tv.csv").read_text().startswith("N,t,tv_estimate")

    def test_tv_study_refuses_without_floor(self, tmp_path):
        code = run_cli("tv-study", "--out", str(tmp_path),
                       "--set", "model.name=sqrt",
                       "--set", "chaos.N_list=16,64", "--set", "chaos.replicas=2")
        assert code == 2

    def test_manifest_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--out", str(a), "--seed", "7",
                       "--set", "sim.N=16", "--set", "sim.T=0.2",
                       "--set", "record.form=long") == 0
        # the manifest is itself a valid config file reproducing the run
        assert run_cli("simulate", "--config", str(a / "run_manifest.txt"),
                       "--out", str(b)) == 0
        assert (a / "record.csv").read_bytes() == (b / "record.csv").read_bytes()

    def test_delay_model_adopts_window_from_model(self, tmp_path):
        sets = {"model.name": "delay", "model.r": "0.2", "model.m": "uniform",
                "model.atoms": "5", "model.sigma0": "0.1", "sim.N": "8", "sim.T": "0.5",
                "record.form": "long"}
        argv = [a for k, v in sets.items() for a in ("--set", f"{k}={v}")]
        assert run_cli("simulate", "--seed", "3", *argv, "--out", str(tmp_path / "cli")) == 0
        cfg = engine.SimConfig(T=0.5, dt=0.01, N=8, seed=3)
        mdl = model.make_delay_model(r=0.2, m="uniform", atoms=5, sigma0=0.1)
        engine.simulate_interacting(cfg, mdl, engine.GaussianLaw()).write_csv(tmp_path / "lib.csv")
        assert (tmp_path / "cli" / "record.csv").read_bytes() == \
            (tmp_path / "lib.csv").read_bytes()

    @pytest.mark.parametrize("line", ["sim.r = 0.2", "solve.common_noise = 0", "model.p = 4.0"],
                             ids=["sim.r", "solve.common_noise", "model.p"])
    def test_manifest_with_a_removed_key_exits_two(self, tmp_path, capsys, line):
        old = tmp_path / "old_manifest.txt"
        old.write_text(f"subcommand = simulate\n{line}\n")
        assert run_cli("simulate", "--config", str(old), "--out", str(tmp_path / "o")) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_solve_writes_flow_and_diagnostics(self, tmp_path):
        code = run_cli("solve", "--out", str(tmp_path),
                       "--set", "solve.M=256", "--set", "solve.tol=0.2",
                       "--set", "sim.T=0.2", "--set", "sim.dt=0.02")
        assert code == 0
        assert (tmp_path / "flow.csv").read_text().startswith("t,sample_index,value")
        assert (tmp_path / "diagnostics.csv").read_text().startswith("iter,rho")

    def test_config_file_end_to_end(self, tmp_path):
        cfg = tmp_path / "delay.cfg"
        cfg.write_text(
            "# uniform-measure delay model, small rate sweep\n"
            "model.name = delay\n"
            "model.r = 0.2\n"
            "model.beta = 0.5\n"
            "model.sigma0 = 0.2\n"
            "model.m = uniform\n"
            "model.atoms = 5\n"
            "sim.T = 0.5\n"
            "sim.dt = 0.05\n"
            "chaos.N_list = 32,64,128\n"
            "chaos.replicas = 3\n"
            "chaos.M = 1024\n"
            "seed = 3\n")
        out = tmp_path / "out"
        assert run_cli("chaos-rate", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "rate.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["32", "64", "128"]
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs[0] > errs[-1]


RUN_IMPORTS = """
import sys, tempfile
sys.path.insert(0, sys.argv[1])
import mfchaos.cli
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    for args in (["simulate", "--set", "model.name=sqrt", "--set", "sim.N=32768",
                  "--set", "sim.T=0.1", "--out", out + "/sim"],
                 ["chaos-rate", "--set", "chaos.N_list=16,32,64", "--set", "chaos.replicas=2",
                  "--set", "chaos.M=256", "--set", "sim.T=0.2", "--set", "sim.workers=2",
                  "--out", out + "/rate"]):
        assert mfchaos.cli.main(args) == 0, args
print(sorted(set(sys.modules) - before))
"""


def test_default_solve_writes_nothing_to_stderr(tmp_path):
    # no tolerance is set, so none lies below the noise floor to warn of
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "mfchaos.cli", "solve", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_a_run_imports_nothing_the_cli_import_did_not():
    # a module first imported mid-run would move its cost from start-up into the run;
    # the simulate forks a drawer, the sweep runs on two workers
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", RUN_IMPORTS, src], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def _live(pgid: int) -> list[int]:
    """Every process of the group that is not a zombie, read from /proc."""
    live = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat") as fh:
                state, _ppid, group = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(group) == pgid and state != "Z":
            live.append(int(name))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads processes from /proc")
def test_a_killed_run_leaves_no_drawer(tmp_path):
    # the run's drawer reads end-of-file once the run is gone, and exits
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "mfchaos.cli", "simulate",
                             "--set", "model.name=sqrt", "--set", "sim.N=131072",
                             "--set", "sim.T=30", "--out", str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_live(proc.pid)) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_live(proc.pid)) == 2   # the run and its drawer
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    deadline = time.monotonic() + 2
    while _live(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _live(proc.pid) == []
