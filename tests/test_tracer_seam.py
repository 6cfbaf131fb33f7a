"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py patches the program's layer entry points by name and
reads some of their positional arguments. This runs its `install` and a
tiny `chaos-rate` sweep in a fresh process and checks the work counts it
derives from the spans. No time is measured or bounded.
"""

import json
import os
import subprocess
import sys

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
