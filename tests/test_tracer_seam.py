"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py patches the program's layer entry points by name and
reads some of their positional arguments. This runs its `install` and a
tiny `chaos-rate` sweep or `tv-study` in a fresh process and checks the
work counts it derives from the spans, and that each artifact is written
under exactly one `cli.write` span. No time is measured or bounded.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Recorder, install, layer_metrics
rec = Recorder("seam")
install(rec)
from mfchaos import cli
status = cli.main(["chaos-rate", "--out", *sys.argv[3:]])
metrics, _ = layer_metrics(rec.spans, 0, 0, 0.0)
print(json.dumps({"status": status, **metrics}))
"""


def test_traced_tiny_sweep_counts_its_work(tmp_path):
    N_list, replicas, M, steps = [8, 16, 32], 2, 64, 10
    args = ["--set", "chaos.N_list=" + ",".join(map(str, N_list)),
            "--set", f"chaos.replicas={replicas}", "--set", f"chaos.M={M}",
            "--set", "sim.T=0.1", "--set", "sim.dt=0.01"]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src"), str(tmp_path / "out"), *args],
        capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.splitlines()[-1])
    assert m["status"] == 0
    reference_steps = steps * (1 + M)   # the oracle's mean particle, then M frozen paths
    assert m["engine.particle_steps"] == 2 * replicas * sum(N_list) * steps + reference_steps
    assert m["measures.w1_rows"] == 2 * replicas * len(N_list) * (steps + 1)
    assert m["chaos.runs"] == len(N_list)


TRACE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Recorder, install, layer_metrics
rec = Recorder("seam")
install(rec)
from mfchaos import cli
status = cli.main(sys.argv[3:])
metrics, _ = layer_metrics(rec.spans, 0, 0, 0.0)
print(json.dumps({"status": status, **metrics}))
"""

TINY = {"N_list": [8, 16, 32], "replicas": 2, "M": 64, "steps": 10}


def _traced(tmp_path, command, *extra):
    args = [command, "--out", str(tmp_path / "out"),
            "--set", "chaos.N_list=" + ",".join(map(str, TINY["N_list"])),
            "--set", f"chaos.replicas={TINY['replicas']}", "--set", f"chaos.M={TINY['M']}",
            "--set", "sim.T=0.1", "--set", "sim.dt=0.01", *extra]
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src"), *args],
        capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.splitlines()[-1])
    assert m["status"] == 0
    return m


def test_traced_tiny_tv_study_counts_its_steps(tmp_path):
    m = _traced(tmp_path, "tv-study", "--set", "chaos.times=0.05,0.1")
    steps = TINY["steps"]
    reference_steps = steps * (1 + TINY["M"])
    assert m["engine.particle_steps"] == (reference_steps
                                          + TINY["replicas"] * sum(TINY["N_list"]) * steps)


@pytest.mark.parametrize("command,extra", [("chaos-rate", ()),
                                           ("tv-study", ("--set", "chaos.times=0.1"))])
def test_two_worker_sweeps_never_split_particles(tmp_path, command, extra):
    m = _traced(tmp_path, command, "--set", "sim.workers=2", *extra)
    assert m["engine.pool_dispatches"] == 0


SPANS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Recorder, install
rec = Recorder("seam")
install(rec)
from mfchaos import cli
status = cli.main(sys.argv[3:])
print(json.dumps({"status": status, "spans": [[s[0], s[1], s[4]] for s in rec.spans]}))
"""


def test_traced_sweep_writes_each_artifact_once(tmp_path):
    args = ["chaos-rate", "--out", str(tmp_path / "out"),
            "--set", "chaos.N_list=" + ",".join(map(str, TINY["N_list"])),
            "--set", f"chaos.replicas={TINY['replicas']}", "--set", f"chaos.M={TINY['M']}",
            "--set", "sim.T=0.1", "--set", "sim.dt=0.01"]
    proc = subprocess.run(
        [sys.executable, "-c", SPANS, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src"), *args],
        capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["status"] == 0
    name = {sid: n for sid, n, _ in out["spans"]}
    parent_of = {sid: parent for sid, _, parent in out["spans"]}

    def ancestors(sid):
        while (sid := parent_of[sid]) is not None:
            yield name[sid]

    writes = [sid for sid, n, _ in out["spans"] if n == "cli.write"]
    # rate.csv, summary.csv, runs.csv and run_manifest.txt, none inside another
    assert len(writes) == 4
    assert all("cli.write" not in ancestors(sid) for sid in writes)
