"""The mfchaos benchmark: drive the `mfchaos` CLI, one fresh process per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from `src/`
there. Every invocation writes into `.bench_out/<workload>/`, and so does
the benchmark. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the run header, each invocation, the checks and the artifact digests.

--trace 0 reports the end-to-end metrics (medians over the run's
invocations). --trace 1 runs one plain invocation and two traced ones and
reports the per-layer metrics from the traced runs' spans, plus the
tracing overhead. See README.md in this directory for the workloads and
the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from stats import median
from tracer import EXACT_COUNTS, UNITS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 20260810

WORKLOADS = {
    # criterion 5 exactly: linear model, N = 64..4096, 20 replicas, M = 8 * 4096
    "rate-sweep": ["chaos-rate", "--set", "sim.workers=1"],
    # Hoelder case alpha = 1/2 at large N: vectorized per-particle stepping, 101
    # large rng draws and a 101-row quantile CSV. It stands in for picard-solve,
    # whose line-by-line 30 MB CSV write was too noisy on a shared host (README.md)
    "sim-sqrt": ["simulate", "--set", "model.name=sqrt", "--set", "sim.N=131072"],
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

SETUP_PROBES = 4        # extra set-up-only launches per run, for the setup_s median
MIN_TIMED = 2           # timed invocations per run even when one outlasts --seconds
TRACED_RUNS = 2         # traced invocations per traced run; their counts must agree
RUN_BUDGET_S = 165.0    # a run must end within 180 s, checks included
MANIFEST = "run_manifest.txt"


class Invocation:
    """One child process: its timings, resource use and artifacts."""

    def __init__(self, kind: str):
        self.kind = kind
        self.problems: list[str] = []
        self.stamps: dict = {}
        self.elapsed_s = 0.0
        self.setup_s = self.wall_s = None
        self.cpu_s = self.rss_mib = 0.0
        self.digests: dict[str, str] = {}
        self.bytes_written = self.rows_written = 0
        self.log_path = ""

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        return {"kind": self.kind, "ok": self.ok, "problems": self.problems,
                "setup_s": self.setup_s, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.rss_mib, "elapsed_s": self.elapsed_s,
                "status": self.stamps.get("status")}


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage, killing it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _hash_artifacts(inv: Invocation, out_dir: str) -> None:
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                inv.bytes_written += len(chunk)
                inv.rows_written += chunk.count(b"\n")
        if name != MANIFEST:   # the manifest echoes `out` and the library versions
            inv.digests[name] = h.hexdigest()


def _child_env() -> dict:
    """The environment with the checkout's src/ first on the import path."""
    src = os.path.join(os.getcwd(), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def spawn(kind: str, mode: str, workload: str, seed: int, work: str, op: str,
          deadline: float, importtime: bool = False) -> Invocation:
    inv = Invocation(kind)
    out_rel = os.path.join(".bench_out", workload, "probe" if mode == "setup" else "out")
    shutil.rmtree(out_rel, ignore_errors=True)
    stamp = os.path.join(work, f"{op}.json")
    inv.log_path = os.path.join(work, f"{op}.log")
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            os.path.join(HERE, "child.py"), stamp, mode, op, "--",
            *WORKLOADS[workload], "--seed", str(seed), "--out", out_rel]
    src = os.path.join(os.getcwd(), "src")
    with open(inv.log_path, "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=_child_env())
        status, usage = _wait(proc, deadline)
        inv.elapsed_s = (time.monotonic_ns() - t0) * 1e-9
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.rss_mib = usage.ru_maxrss / 1024.0
    if status != 0:
        inv.problems.append(f"exit status {status} (log {inv.log_path})")
    try:
        with open(stamp) as fh:
            inv.stamps = json.load(fh)
    except (OSError, ValueError):
        inv.problems.append("no timestamps written")
        return inv
    src_file = inv.stamps["versions"]["mfchaos_file"]
    if not os.path.abspath(src_file).startswith(src + os.sep):
        inv.problems.append(f"imported mfchaos from {src_file}, not from {src}")
    if "call_ns" in inv.stamps:
        inv.setup_s = (inv.stamps["call_ns"] - t0) * 1e-9
    if mode != "setup" and inv.ok:
        if "commit_ns" not in inv.stamps:
            inv.problems.append("artifacts were never committed")
        else:
            inv.wall_s = (inv.stamps["commit_ns"] - inv.stamps["call_ns"]) * 1e-9
            _hash_artifacts(inv, out_rel)
    return inv


def _yamada_import_s(log_path: str) -> float:
    """Cumulative import time of mfchaos.yamada from `-X importtime` output."""
    with open(log_path, errors="replace") as fh:
        for line in fh:
            parts = line.split("|")
            if line.startswith("import time:") and parts[-1].strip() == "mfchaos.yamada":
                return int(parts[1]) * 1e-6
    return 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _remember(state: dict, key: str, value, what: str, problems: list[str]) -> None:
    """Record value under key, or fail if an earlier run recorded another."""
    seen = state.setdefault(key, value)
    if seen != value:
        problems.append(f"{what} differ from an earlier run with the same seed: "
                        f"{seen} != {value}")


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mfchaos", "cli.py")):
        print("perfbench: src/mfchaos/cli.py not found; run from the root of an mfchaos "
              "checkout", file=sys.stderr)
        return 2

    t_run = time.monotonic()
    deadline = t_run + RUN_BUDGET_S
    wl, seed = args.workload, args.seed
    work = os.path.join(".bench_out", wl)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    emit({"header": {"workload": wl, "seed": seed, "seconds": args.seconds,
                     "trace": args.trace, "argv": WORKLOADS[wl], "nproc": os.cpu_count(),
                     "cpu_model": _cpu_model(), "loadavg_before": os.getloadavg()}})

    def run(kind: str, mode: str, importtime: bool = False) -> Invocation:
        inv = spawn(kind, mode, wl, seed, work, f"{kind}{len(invocations)}",
                    deadline, importtime)
        invocations.append(inv)
        emit({"invocation": inv.summary()})
        return inv

    invocations: list[Invocation] = []
    # warm-up: compiles bytecode and fills the page cache, as any earlier use would
    run("warmup", "setup")
    if args.trace:
        timed = [run("plain", "run")]
        traced = [run("traced", "trace", importtime=True) for _ in range(TRACED_RUNS)]
    else:
        probes = [run("probe", "setup") for _ in range(SETUP_PROBES)]
        timed, traced = [], []
        while True:
            inv = run("timed", "run")
            timed.append(inv)
            predicted_end = time.monotonic() - t_run + inv.elapsed_s
            # keep 10 s of the budget for the output check
            if predicted_end > RUN_BUDGET_S - 10.0 or (
                    len(timed) >= MIN_TIMED and predicted_end > args.seconds):
                break

    problems: list[str] = []
    full = [inv for inv in timed + traced if inv.ok]
    ref = full[0] if full else None
    for inv in full[1:]:
        if inv.digests != ref.digests:
            inv.problems.append("artifact digests differ from the run's first invocation")

    check = {"ok": False, "problems": ["no invocation produced artifacts"]}
    if ref is not None:
        try:
            out = subprocess.run([sys.executable, os.path.join(HERE, "check.py"), wl,
                                  os.path.join(work, "out")], capture_output=True, text=True,
                                 env=_child_env(),
                                 timeout=max(1.0, deadline - time.monotonic() + 10.0))
            check = json.loads(out.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            check = {"ok": False, "problems": ["checker timed out"]}
        except (IndexError, ValueError):
            check = {"ok": False, "problems": [f"checker failed: {out.stderr[-2000:]}"]}
    emit({"check": check})
    if not check["ok"]:
        problems.extend(check["problems"])

    layer = {}
    if ref is not None:
        state_path = os.path.join(".bench_out", "state.json")
        state = _load_json(state_path)
        _remember(state, f"digests/{wl}/{seed}/{' '.join(WORKLOADS[wl])}", ref.digests,
                  "artifact digests", problems)
        golden = _load_json(os.path.join(HERE, "golden.json")).get(str(seed), {}).get(wl)
        emit({"digests": ref.digests,
              "golden": "not recorded" if golden is None else
                        ("match" if golden == ref.digests else "differs")})
        traced_ok = [inv for inv in traced if inv.ok]
        if traced_ok:
            per_run = [layer_metrics(inv.stamps["spans"], inv.bytes_written, inv.rows_written,
                                     _yamada_import_s(inv.log_path))
                       for inv in traced_ok]
            counts = [{k: m[k] for k in EXACT_COUNTS} for m, _ in per_run]
            if any(c != counts[0] for c in counts):
                problems.append(f"exact counts differ between traced invocations: {counts}")
            _remember(state, f"counts/{wl}/{seed}/{' '.join(WORKLOADS[wl])}", counts[0],
                      "exact counts", problems)
            for k in per_run[0][0]:
                vals = [m[k] for m, _ in per_run]
                layer[k] = vals[0] if len(set(vals)) == 1 else median(vals)
            layer["trace_overhead_frac"] = (
                median([inv.wall_s for inv in traced_ok]) / ref.wall_s - 1.0)
            emit({"stop_reason": per_run[0][1], "exact_counts": counts[0]})
        with open(state_path, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
    if problems:
        for inv in invocations:
            if inv.ok and inv.kind not in ("warmup", "probe"):
                inv.problems.append("run-level check failed")

    failed = sum(not inv.ok for inv in invocations)
    if args.trace:
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in UNITS.items()}
    else:
        good = [inv for inv in invocations if inv.ok] or invocations
        setups = [inv.setup_s for inv in good if inv.kind != "warmup" and inv.setup_s]
        runs = [inv for inv in good if inv.kind == "timed"] or timed
        values = {
            "setup_s": median(setups) if setups else median([p.elapsed_s for p in probes]),
            "wall_s": median([inv.wall_s or inv.elapsed_s for inv in runs]),
            "cpu_s": median([inv.cpu_s for inv in runs]),
            "peak_rss_mb": median([inv.rss_mib for inv in runs]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        emit({"samples": {"setup_s": len(setups), "wall_s": len(runs), "cpu_s": len(runs),
                          "peak_rss_mb": len(runs)}})
    versions = next((inv.stamps["versions"] for inv in invocations if inv.stamps), {})
    emit({"footer": {"versions": versions, "loadavg_after": os.getloadavg(),
                     "run_s": time.monotonic() - t_run, "problems": problems}})
    emit({"correct": not problems and failed == 0, "attempted": len(invocations),
          "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
