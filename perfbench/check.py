"""Check the artifacts of one benchmark invocation.

    python3 perfbench/check.py WORKLOAD OUT_DIR

Prints one JSON object {"ok": bool, "problems": [...], "facts": {...}}.
The tolerances are those of the acceptance suite and are not loosened:

* rate sweep: the fitted slope lies in [-0.65, -0.35] and every run's
  triangle inequality holds;
* large-N simulation: every grid time has a finite row, and the final
  ensemble mean is within 2% of the oracle mean recursion.

The oracle is rebuilt from the invocation's own run_manifest.txt, which
the CLI writes as a complete, valid config file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

SLOPE_BAND = (-0.65, -0.35)
MEAN_REL_TOL = 0.02


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out_dir: str):
    from mfchaos import cli
    return cli.RunConfig(cli.parse_config_file(os.path.join(out_dir, "run_manifest.txt")))


def _oracle_final_mean(rc) -> float:
    from mfchaos import chaos
    flow = chaos.oracle_mean_flow(rc.sim_config(), rc.model(), rc.initial_law())
    return float(flow.means[-1])


def _close(value: float, oracle: float) -> bool:
    return abs(value - oracle) <= MEAN_REL_TOL * abs(oracle)


def check(workload: str, out_dir: str) -> tuple[list[str], dict]:
    problems: list[str] = []
    facts: dict = {}
    if workload.startswith("rate-sweep"):
        slope = float(_rows(os.path.join(out_dir, "summary.csv"))[0]["slope"])
        runs = _rows(os.path.join(out_dir, "runs.csv"))
        n_ok = sum(r["triangle_ok"] == "1" for r in runs)
        facts.update(slope=slope, runs=len(runs), triangle_ok=n_ok)
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            problems.append(f"slope {slope} outside {SLOPE_BAND}")
        if len(runs) != 140 or n_ok != len(runs):
            problems.append(f"triangle inequality holds in {n_ok} of {len(runs)} runs (140 expected)")
    elif workload == "sim-sqrt":
        rc = _manifest(out_dir)
        rows = _rows(os.path.join(out_dir, "record.csv"))
        n_times = len(rc.sim_config().times)
        finite = all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k != "t")
        mean = float(rows[-1]["mean"])
        oracle = _oracle_final_mean(rc)
        facts.update(rows=len(rows), final_mean=mean, oracle_mean=oracle)
        if len(rows) != n_times or not finite:
            problems.append(f"record.csv has {len(rows)} rows (finite: {finite}), "
                            f"{n_times} expected")
        if not _close(mean, oracle):
            problems.append(f"final mean {mean} not within 2% of oracle {oracle}")
    else:
        problems.append(f"no checks for workload {workload!r}")
    return problems, facts


def main() -> int:
    workload, out_dir = sys.argv[1:]
    try:
        problems, facts = check(workload, out_dir)
    except Exception as e:   # any failure to read or rebuild is a failed check
        problems, facts = [f"check could not run: {e!r}"], {}
    print(json.dumps({"ok": not problems, "problems": problems, "facts": facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
