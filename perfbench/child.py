"""Run one `mfchaos` CLI invocation in this fresh process, with timestamps.

    python3 perfbench/child.py STAMP_FILE MODE OP -- <mfchaos arguments>

MODE is `run` (plain invocation), `setup` (stop at the subcommand's first
call) or `trace` (record spans around the layer entry points). The child
writes STAMP_FILE as JSON: CLOCK_MONOTONIC readings at the subcommand's
first call and after the artifacts are committed, the exit status, the
library versions and, when tracing, the spans. The program itself is
imported from `src/` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    stamp_path, mode, op, sep, *cli_argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: child.py STAMP_FILE run|setup|trace OP -- ARGS...")
    stamps: dict = {"mode": mode, "op": op}
    rec = None
    if mode == "trace":
        from tracer import Recorder, install
        rec = Recorder(op)
        install(rec)
    import numpy
    import scipy
    import mfchaos.cli as cli

    def dump() -> None:
        stamps["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "mfchaos_file": cli.__file__}
        if rec is not None:
            stamps["spans"] = rec.spans
        with open(stamp_path, "w") as fh:
            json.dump(stamps, fh, separators=(",", ":"))

    sub = cli_argv[0]
    command = cli._SUBCOMMANDS[sub]

    def timed_command(rc, art):
        stamps["call_ns"] = time.monotonic_ns()
        if mode == "setup":
            dump()
            os._exit(0)
        return command(rc, art)

    commit = cli.ArtifactWriter.commit

    def timed_commit(self):
        commit(self)
        stamps["commit_ns"] = time.monotonic_ns()

    cli._SUBCOMMANDS[sub] = timed_command
    cli.ArtifactWriter.commit = timed_commit
    status = cli.main(cli_argv)
    stamps["status"] = status
    dump()
    return status


if __name__ == "__main__":
    sys.exit(main())
