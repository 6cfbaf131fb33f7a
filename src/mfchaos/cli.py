"""Command-line front end: config parsing, dispatch, CSV artifacts.

Config files are flat `key = value` lines with dotted sections
(`model.name = linear`, `sim.dt = 0.01`); `#` starts a comment. Flags
override file values. Every run writes a manifest echoing the resolved
configuration plus seed and library versions, which is enough to
reproduce the run byte for byte. Artifacts are staged in one hidden
directory inside the output directory and renamed into place (mode
`0o666 & ~umask`) only on success, the manifest last. Where an earlier
run's manifest was, any other subcommand's artifact it left is removed;
where none was, files of the same names are the caller's and stay. A
failing run removes that directory and leaves the rest as it was.

Exit codes: 0 success, 2 configuration error (bad input, a `ValueError`
included, as one `config error:` line), 3 numerical blow-up, 4 non-convergence,
5 an audit (`check-assumptions`, `yamada-verify`) with a failed row. Exits 4
and 5 still publish their tables: they are the report.
"""

from __future__ import annotations

import argparse
import inspect
import os
import shutil
import sys
import tempfile

import numpy as np
import scipy

from . import __version__, chaos, engine, model as model_mod, solver, yamada
from .engine import BlowUpError, EngineError, SimConfig
from .model import ModelError
from .paths import _ratio_as_int
from .table import write_table


class ConfigError(Exception):
    pass


_DEFAULTS: dict[str, str] = {
    "seed": "0",
    "out": ".",
    "model.name": "linear",
    "init.name": "gaussian",
    "sim.T": "1.0",
    "sim.dt": "0.01",
    "sim.N": "256",
    "sim.workers": "1",
    "record.form": "wide",
    "chaos.N_list": "64,128,256,512,1024,2048,4096",
    "chaos.replicas": "20",
    "chaos.times": "0.5,1.0",
    "solve.M": "10000",
    "solve.max_iter": "25",
    "yamada.epsilon": "0.05,0.1,0.3",
    "yamada.n_list": "4,16,64,256",
    "check.box": "-3,3",
    "check.samples": "10000",
}

# keys that are accepted but have no default (absent unless set)
_OPTIONAL = {"chaos.M", "chaos.bin_width", "solve.lambda", "solve.tol"}


def _factory_keys(prefix: str, table: dict) -> set[str]:
    """A `<prefix>.*` key for each parameter some factory in table takes."""
    return {f"{prefix}.{p}" for factory in table.values()
            for p in inspect.signature(factory).parameters}


# every accepted key; the model.* and init.* ones are those the factories take
_KEYS = {*_DEFAULTS, *_OPTIONAL, *_factory_keys("model", model_mod.MODEL_ZOO),
         *_factory_keys("init", engine.INITIAL_LAWS)}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected `key = value`, got {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "subcommand" or key.startswith("version."):
            continue   # manifest echo lines; a manifest doubles as a config
        if key not in _KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        values[key] = val
    return values


class RunConfig:
    """Resolved configuration: file values patched by flag overrides."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(_DEFAULTS)
        for k, v in values.items():
            if k not in _KEYS:
                raise ConfigError(f"unknown key {k!r}")
            self.values[k] = v

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str) -> str:
        return self.values[key]

    def _convert(self, key: str, conv, what: str):
        try:
            return conv(self.values[key])
        except (ValueError, TypeError) as e:
            raise ConfigError(f"key {key!r}: expected {what}, got {self.values[key]!r}") from e

    def get_float(self, key: str) -> float:
        return self._convert(key, float, "a number")

    def get_int(self, key: str) -> int:
        return self._convert(key, lambda s: int(str(s), 0), "an integer")

    def get_count(self, key: str) -> int:
        n = self.get_int(key)
        if n < 1:
            raise ConfigError(f"key {key!r}: must be >= 1, got {n!r}")
        return n

    def _list(self, key: str, conv, what: str) -> list:
        items = self._convert(key, lambda s: [conv(x) for x in str(s).split(",") if x.strip()],
                              what)
        if not items:   # no value to run on is not a run
            raise ConfigError(f"key {key!r}: expected {what}, got {self.values[key]!r}")
        return items

    def get_floats(self, key: str) -> list[float]:
        return self._list(key, float, "a comma-separated number list")

    def get_ints(self, key: str) -> list[int]:
        return self._list(key, int, "a comma-separated integer list")

    # -- assembled objects ---------------------------------------------------

    def sim_config(self) -> SimConfig:
        self.get_count("sim.workers")
        try:
            return SimConfig(
                T=self.get_float("sim.T"), dt=self.get_float("sim.dt"),
                N=self.get_int("sim.N"), seed=self.get_int("seed"),
            )
        except ValueError as e:
            msg = str(e)
            field = msg.split()[0].rstrip(":")   # SimConfig names the field or grid at fault first
            key = "sim.dt" if field == "horizon" else "sim." + field
            raise ConfigError(f"key {key!r}: {msg}") from e

    def _factory(self, prefix: str, table: dict, what: str):
        """The factory `<prefix>.name` picks from table, its name, and its
        parameters from the other `<prefix>.*` keys, each read as the
        parameter's default is typed."""
        name = self.raw(prefix + ".name")
        if name not in table:
            raise ConfigError(f"key '{prefix}.name': unknown {what} {name!r} "
                              f"(available: {sorted(table)})")
        factory = table[name]
        accepted = inspect.signature(factory).parameters
        params = {}
        for key in list(self.values):
            if not key.startswith(prefix + ".") or key == prefix + ".name":
                continue
            pname = key.split(".", 1)[1]
            if pname not in accepted:
                raise ConfigError(f"key {key!r}: {what} {name!r} does not take "
                                  f"parameter {pname!r}")
            read = {str: self.raw, int: self.get_int}.get(type(accepted[pname].default),
                                                          self.get_float)
            params[pname] = read(key)
        return factory, name, params

    def model(self) -> model_mod.ModelSpec:
        factory, _, params = self._factory("model", model_mod.MODEL_ZOO, "model")
        try:
            return factory(**params)
        except ValueError as e:
            # a factory's message opens with the parameter at fault, as SimConfig's
            # with its field; one that opens otherwise (a ModelSpec check) names none
            word = str(e).partition(" ")[0].rstrip(":")
            key = f"model.{word}" if word in params else "model"
            raise ConfigError(f"key {key!r}: {e}") from e

    def initial_law(self):
        cls, name, params = self._factory("init", engine.INITIAL_LAWS, "initial law")
        try:
            return cls(**params)
        except (TypeError, ValueError) as e:
            word = str(e).partition(" ")[0]   # as in `model`, the parameter at fault
            key = f"init.{word}" if word in params else "init.name"
            raise ConfigError(f"key {key!r}: bad parameters for {name!r}: {e}") from e

    def manifest_lines(self, subcommand: str) -> list[str]:
        lines = [f"subcommand = {subcommand}"]
        for k in sorted(self.values):
            lines.append(f"{k} = {self.values[k]}")
        lines.append(f"version.mfchaos = {__version__}")
        lines.append(f"version.numpy = {np.__version__}")
        lines.append(f"version.scipy = {scipy.__version__}")
        return lines


_MANIFEST = "run_manifest.txt"
# every file a subcommand may publish besides the manifest; a run over an
# earlier one (a directory holding a manifest) removes those of them it did
# not write, so no earlier run's file outlives it
_ARTIFACTS = ("record.csv", "flow.csv", "diagnostics.csv", "rate.csv", "summary.csv",
              "runs.csv", "coupling.csv", "tv.csv", "assumptions.csv", "yamada_audit.csv")


class ArtifactWriter:
    """Stage files in one hidden directory inside `out_dir`, publish them on success."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.staging = tempfile.mkdtemp(prefix=".staging.", dir=out_dir)

    def path_for(self, name: str) -> str:
        if name not in _ARTIFACTS and name != _MANIFEST:
            raise KeyError(f"{name!r} is not in cli._ARTIFACTS")
        return os.path.join(self.staging, name)

    def commit(self) -> None:
        """Rename the staged files into place, the manifest last, after
        removing the old one and, if there was one, every known artifact
        this run did not write: a directory holding a manifest holds one
        complete run and nothing else of ours, even if a rename fails part
        way. Where no manifest was, no file of the caller's is touched."""
        staged = os.listdir(self.staging)
        try:
            os.remove(os.path.join(self.out_dir, _MANIFEST))
        except FileNotFoundError:
            pass
        else:
            for name in _ARTIFACTS:
                if name not in staged:
                    try:
                        os.remove(os.path.join(self.out_dir, name))
                    except FileNotFoundError:
                        pass
        for name in sorted(staged, key=lambda n: n == _MANIFEST):
            os.replace(os.path.join(self.staging, name), os.path.join(self.out_dir, name))
        os.rmdir(self.staging)

    def abort(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _sim_and_model(rc: RunConfig):
    """Build (SimConfig, ModelSpec); the run's delay window is the model's,
    which must sit on the time grid."""
    mdl = rc.model()
    cfg = rc.sim_config()
    try:
        _ratio_as_int(mdl.delay_measure.span, cfg.dt, "delay window")
    except ValueError as e:
        raise ConfigError(f"key 'model.r': {e}") from e
    return cfg, mdl


# ---------------------------------------------------------------------------
# subcommands


# record.form -> the table `simulate` fills as the run steps; the wide one
# keeps no trajectory
_RECORD_FORMS = {
    "long": lambda cfg: engine.PathRecord.blank(cfg.times, (cfg.N,)),
    "wide": lambda cfg: engine.WideSummary(cfg.times),
}


def _cmd_simulate(rc: RunConfig, art: ArtifactWriter) -> int:
    form = rc.raw("record.form")
    if form not in _RECORD_FORMS:
        raise ConfigError(f"key 'record.form': unknown record form {form!r} "
                          f"(available: {list(_RECORD_FORMS)})")
    cfg, mdl = _sim_and_model(rc)
    table = _RECORD_FORMS[form](cfg)
    engine.simulate_interacting(cfg, mdl, rc.initial_law(), observe=table.observe)
    table.write_csv(art.path_for("record.csv"))
    return 0


def _cmd_solve(rc: RunConfig, art: ArtifactWriter) -> int:
    cfg, mdl = _sim_and_model(rc)
    lam, tol = (rc.get_float(k) if rc.has(k) else None for k in ("solve.lambda", "solve.tol"))
    res = solver.solve_fixed_point(
        cfg, mdl, rc.initial_law(), M=rc.get_int("solve.M"), lam=lam, tol=tol,
        max_iter=rc.get_count("solve.max_iter"))
    res.flow.write_csv(art.path_for("flow.csv"))
    res.write_diagnostics_csv(art.path_for("diagnostics.csv"))
    if not res.converged:
        print(f"non-convergence after {res.iterations} iterations "
              f"(noise floor {res.noise_floor:g}); diagnostics written", file=sys.stderr)
        return 4
    return 0


def _reference(rc: RunConfig, cfg: SimConfig, mdl) -> solver.MeasureFlow:
    n_list = rc.get_ints("chaos.N_list")
    M = rc.get_count("chaos.M") if rc.has("chaos.M") else 8 * max(n_list)
    return chaos.build_reference_flow(cfg, mdl, rc.initial_law(), M)


def _cmd_chaos_rate(rc: RunConfig, art: ArtifactWriter) -> int:
    cfg, mdl = _sim_and_model(rc)
    try:   # the initial law's moment order; only pareto's, its tail, is finite
        chaos.theoretical_exponent(rc.initial_law().moment_order)
    except ValueError as e:
        raise ConfigError(f"key 'init.tail': {e}") from e
    ref = _reference(rc, cfg, mdl)
    report = chaos.estimate_chaos_rate(cfg, mdl, rc.get_ints("chaos.N_list"),
                                       rc.get_int("chaos.replicas"), ref,
                                       workers=rc.get_int("sim.workers"))
    report.write_csv(art.path_for("rate.csv"))
    report.write_summary_csv(art.path_for("summary.csv"))
    report.write_runs_csv(art.path_for("runs.csv"))
    return 0


def _cmd_coupling(rc: RunConfig, art: ArtifactWriter) -> int:
    cfg, mdl = _sim_and_model(rc)
    ref = _reference(rc, cfg, mdl)
    rep = chaos.coupling_error_curve(cfg, mdl, ref, rc.get_ints("chaos.N_list"),
                                     rc.get_int("chaos.replicas"),
                                     workers=rc.get_int("sim.workers"))
    rep.write_csv(art.path_for("coupling.csv"))
    return 0


def _cmd_tv_study(rc: RunConfig, art: ArtifactWriter) -> int:
    cfg, mdl = _sim_and_model(rc)
    ref = _reference(rc, cfg, mdl)
    bw = rc.get_float("chaos.bin_width") if rc.has("chaos.bin_width") else None
    rep = chaos.marginal_tv_study(cfg, mdl, ref, rc.get_ints("chaos.N_list"),
                                  rc.get_int("chaos.replicas"),
                                  rc.get_floats("chaos.times"), bin_width=bw,
                                  workers=rc.get_int("sim.workers"))
    rep.write_csv(art.path_for("tv.csv"))
    return 0


def _cmd_check_assumptions(rc: RunConfig, art: ArtifactWriter) -> int:
    mdl = rc.model()
    box = rc.get_floats("check.box")
    if len(box) != 2:
        raise ConfigError("key 'check.box': expected `lo,hi`")
    report = model_mod.check_assumptions(mdl, box=(box[0], box[1]),
                                         sample_count=rc.get_count("check.samples"),
                                         seed=rc.get_int("seed"))
    declared = {"K_b": mdl.K_b, "K_B": mdl.K_B, "K_sigma": mdl.K_sigma}
    # an undeclared constant prints as repr("") == "''"
    rows = [([name], [est], [repr(declared.get(const, ""))], [int(ok)])
            for name, est, const, ok in report.rows()]
    write_table(art.path_for("assumptions.csv"), "check,estimate,declared,passed",
                [*rows, ([f"# {report.note}"],)])
    print("assumption audit:", "pass" if report.all_ok else "VIOLATIONS FOUND")
    return 0 if report.all_ok else 5


def _cmd_yamada_verify(rc: RunConfig, art: ArtifactWriter) -> int:
    eps_list = rc.get_floats("yamada.epsilon")
    n_list = rc.get_ints("yamada.n_list")
    rows = []
    for eps in eps_list:
        yw = yamada.make_yamada(eps)
        grid = np.linspace(-2.0, 2.0, 10_001)
        v = yw.V(grid)
        vp = yw.V_prime(grid)
        ax = np.abs(grid)
        checks = {
            "V_lower": float(np.max((ax - eps) - v)),
            "V_upper": float(np.max(v - ax)),
            "Vp_range": float(max(np.max(np.sign(grid) * vp) - 1.0,
                                  np.max(-np.sign(grid) * vp))),
            "mass": float(abs(yw.mass() - 1.0)),
        }
        lo, hi = yw.support
        sg = np.exp(np.linspace(np.log(lo), np.log(hi), 10_001))
        checks["Vpp_bound"] = float(np.max(yw.V_second(sg) * sg - 2.0 * eps))
        off = np.array([lo * 0.5, hi * 2.0])
        checks["Vpp_support"] = float(np.max(yw.V_second(off)))
        rows += [([eps], [name], [viol], [int(viol <= 1e-8)]) for name, viol in checks.items()]
    # mollification audit on the square-root diffusion
    mdl = model_mod.make_sqrt_model(sigma0=1.0)
    grid = np.linspace(-2.0, 2.0, 2001)
    base = mdl.sigma(0.0, grid)
    for n in n_list:
        sn = yamada.mollify_sigma(mdl, n)(0.0, grid)
        gap = float(np.max(np.abs(sn - base)))
        bound = yamada.mollifier_error_bound(mdl.K_sigma, mdl.alpha, n)
        rows.append(([f"n={n}"], ["mollify_sup_gap"], [gap], [int(gap <= bound * (1 + 1e-6))]))
    write_table(art.path_for("yamada_audit.csv"), "epsilon,check,max_violation,passed", rows)
    return 0 if all(passed == [1] for *_, passed in rows) else 5


_SUBCOMMANDS = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "chaos-rate": _cmd_chaos_rate,
    "coupling": _cmd_coupling,
    "tv-study": _cmd_tv_study,
    "check-assumptions": _cmd_check_assumptions,
    "yamada-verify": _cmd_yamada_verify,
}


def parse_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    values = parse_config_file(path) if path else {}
    values.update(overrides)
    return RunConfig(values)


def run(subcommand: str, rc: RunConfig) -> int:
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    art = ArtifactWriter(rc.raw("out"))
    try:
        rc.model()          # every subcommand rejects a model.* or init.* key
        rc.initial_law()    # it cannot honor, as `simulate` does
        status = _SUBCOMMANDS[subcommand](rc, art)
        _write_lines(art.path_for(_MANIFEST), rc.manifest_lines(subcommand))
        art.commit()
        return status
    except BaseException:
        art.abort()
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfchaos",
        description="mean-field particle simulations and propagation-of-chaos experiments")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="path to a `key = value` config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key; repeatable")
    parser.add_argument("--epsilon", help="shorthand for --set yamada.epsilon=...")
    args = parser.parse_args(argv)

    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            print(f"config error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        k, v = item.split("=", 1)
        overrides[k.strip()] = v.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    if args.epsilon is not None:
        overrides["yamada.epsilon"] = args.epsilon

    # the first matching class decides; setup-level engine complaints
    # (grid/flow mismatches) and values the library rejects are config errors
    failures = {ConfigError: ("config error", 2), BlowUpError: ("numerical blow-up", 3),
                ModelError: ("model error", 3), EngineError: ("config error", 2),
                ValueError: ("config error", 2)}
    try:
        rc = parse_config(args.config, overrides)
        return run(args.subcommand, rc)
    except tuple(failures) as e:
        label, code = next(v for cls, v in failures.items() if isinstance(e, cls))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
