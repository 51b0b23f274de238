"""Command-line entry points: sweep, solve, sample, validate.

Experiments are described by a JSON config; every flag overrides the
corresponding config field, and --dump-config prints the merged result
so any run can be reproduced from its printed config alone. All outputs
are deterministic for a fixed config: rerunning a sweep produces a
byte-identical CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .allocation import SolverOptions, StateAllocations, solve_fixed_modes
from .channel import (DETERMINISTIC, RAYLEIGH, ChannelState, FadingModel, States,
                      load_states, sample_states, save_states)
from .oracle import GridSpec, brute_force_fixed_modes, midpoint_convexity_probe
from .ratepower import Mode
from .switching import SwitchReport, solve_baseline, solve_switching

SWEEP_HEADER = "lambda,energy_switch,energy_pnc_only,energy_dnc_only,f_u,iterations,pnc_state_fraction"

DEFAULT_LAMBDAS = tuple(0.25 * k for k in range(1, 13))


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_number(value, kind=numbers.Real) -> bool:
    """A JSON number of `kind`; bools are not, though Python counts them as ints."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_int(name: str, value, least: int) -> None:
    """An integer field: bools and floats are refused, not truncated."""
    if not _is_number(value, numbers.Integral):
        raise ConfigError(f"config field '{name}' must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"config field '{name}' must be >= {least}, got {value!r}")


def _check_positive(name: str, value, below: float = math.inf) -> None:
    """A positive finite number, and below `below` where that is given."""
    if not (_is_number(value) and 0 < value < below):
        bound = "" if below == math.inf else f" and below {below:g}"
        raise ConfigError(f"config field '{name}' must be positive{bound}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: rate targets, channel model, solver settings."""

    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    n_states: int = 1000
    seed: int = 7
    fading_kind: str = RAYLEIGH
    reciprocal: bool = True
    states_path: str | None = None
    epsilon: float = 1e-4
    max_iter: int = 200
    init_mode: Mode = Mode.SPCDNC
    rate_rtol: float = 1e-9
    f_tol: float = 1e-6
    output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        if not self.lambdas:
            raise ConfigError("config field 'lambdas' must be a non-empty list")
        for v in self.lambdas:
            if not (_is_number(v) and 0 <= v < math.inf):
                raise ConfigError(f"config field 'lambdas' must hold nonnegative numbers, got {v!r}")
        _check_int("n_states", self.n_states, 1)
        _check_int("seed", self.seed, 0)
        _check_positive("epsilon", self.epsilon)
        _check_positive("tolerances.rate_rtol", self.rate_rtol, below=1.0)
        _check_positive("tolerances.f_tol", self.f_tol)
        _check_int("max_iter", self.max_iter, 1)
        for name in ("states_path", "output"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"config field '{name}' must be a path or null, "
                                  f"got {getattr(self, name)!r}")
        if not isinstance(self.reciprocal, bool):
            raise ConfigError(f"config field 'fading.reciprocal' must be true or false, "
                              f"got {self.reciprocal!r}")
        if self.fading_kind not in (RAYLEIGH, DETERMINISTIC):
            raise ConfigError(f"config field 'fading.kind' must be '{RAYLEIGH}' or "
                              f"'{DETERMINISTIC}', got {self.fading_kind!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        known = {"lambdas", "n_states", "seed", "fading", "states_path", "epsilon",
                 "max_iter", "init_mode", "tolerances", "output"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs: dict = {}
        for key in ("lambdas", "n_states", "seed", "states_path", "epsilon",
                    "max_iter", "output"):
            if key in raw:
                kwargs[key] = raw[key]
        if not isinstance(kwargs.get("lambdas", []), list):
            raise ConfigError(f"config field 'lambdas' must be a list, got {raw['lambdas']!r}")
        fading = raw.get("fading", {})
        if not isinstance(fading, dict):
            raise ConfigError("config field 'fading' must be an object")
        if "kind" in fading:
            kwargs["fading_kind"] = fading["kind"]
        if "reciprocal" in fading:
            kwargs["reciprocal"] = fading["reciprocal"]
        if "init_mode" in raw:
            try:
                kwargs["init_mode"] = Mode(raw["init_mode"])
            except ValueError:
                raise ConfigError(f"config field 'init_mode' must be one of "
                                  f"{[m.value for m in Mode]}, got {raw['init_mode']!r}") from None
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("config field 'tolerances' must be an object")
        if "rate_rtol" in tol:
            kwargs["rate_rtol"] = tol["rate_rtol"]
        if "f_tol" in tol:
            kwargs["f_tol"] = tol["f_tol"]
        try:
            return cls(**kwargs)
        except TypeError as err:
            raise ConfigError(str(err)) from None

    def to_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "n_states": self.n_states,
            "seed": self.seed,
            "fading": {"kind": self.fading_kind, "reciprocal": self.reciprocal},
            "states_path": self.states_path,
            "epsilon": self.epsilon,
            "max_iter": self.max_iter,
            "init_mode": self.init_mode.value,
            "tolerances": {"rate_rtol": self.rate_rtol, "f_tol": self.f_tol},
            "output": self.output,
        }

    def solver_options(self) -> SolverOptions:
        return SolverOptions(rate_rtol=self.rate_rtol, f_tol=self.f_tol)

    def resolve_states(self) -> States:
        """The shared channel draw used by every rate target of the experiment."""
        if self.states_path is not None:
            return load_states(self.states_path)
        model = FadingModel(kind=self.fading_kind, reciprocal=self.reciprocal) \
            if self.fading_kind == RAYLEIGH else None
        if model is None:
            raise ConfigError("deterministic fading needs 'states_path'")
        return sample_states(self.n_states, self.seed, model)


@dataclass(frozen=True)
class SweepRow:
    target_rate: float
    energy_switch: float
    energy_pnc_only: float
    energy_dnc_only: float
    f_u: float
    iterations: int
    pnc_state_fraction: float


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Both baselines plus the switching solution for every rate target.

    One shared channel draw serves the whole sweep so curves differ only
    in the target. The switching loop's first solve is the init-mode
    baseline; only the other one is solved apart. Rows come back ordered
    by target. Non-convergence is visible as iterations == max_iter.
    """
    states = config.resolve_states()
    opts = config.solver_options()
    rows = []
    for lam in sorted(config.lambdas):
        report = solve_switching(states, lam, epsilon=config.epsilon,
                                 max_iter=config.max_iter,
                                 init_mode=config.init_mode, opts=opts)
        energy = {m: solve_baseline(states, lam, m, opts).avg_energy
                  for m in Mode if m is not config.init_mode}
        energy[config.init_mode] = report.energy_trace[0]
        n = len(states)
        rows.append(SweepRow(
            target_rate=lam,
            energy_switch=report.final.avg_energy,
            energy_pnc_only=energy[Mode.PNC],
            energy_dnc_only=energy[Mode.SPCDNC],
            f_u=report.final.split.f_u,
            iterations=report.iterations,
            pnc_state_fraction=report.mode_counts[0] / n,
        ))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r.target_rate),
            _fmt(r.energy_switch),
            _fmt(r.energy_pnc_only),
            _fmt(r.energy_dnc_only),
            _fmt(r.f_u),
            str(r.iterations),
            _fmt(r.pnc_state_fraction),
        ]))
    return "\n".join(lines) + "\n"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


# one per_state item as json.dumps(..., sort_keys=True, indent=2) prints it
_STATE_JSON = ('    {\n      "mode": "%s",\n      "power_d": %s,\n      "power_u": %s,\n'
               '      "rate_d": %s,\n      "rate_u": %s\n    }')
_BLOCK = 4096  # states formatted per pass; bounds the strings alive at once


def _repr12(values: np.ndarray) -> list[str]:
    """repr(float(f"{v:.12g}")) of each nonnegative value, in one formatting pass.

    The '.12g' text has repr's digits except at subnormals (repr's shortest
    form is shorter there, 5e-324 against 4.94065645841e-324), and its
    notation differs where the text is an integer (repr adds ".0") or the
    exponent is 12 to 15 (repr writes the digits out). Only values in a mask
    that holds those three classes take the round trip through float: those
    below 1e-307, and those within 1e-11 relative of an integer, which holds
    every value that rounds to one at 12 digits and every value from 1e11 up.
    """
    texts = (("%.12g\n" * values.size) % tuple(values.tolist())).split("\n")
    redo = (values < 1e-307) | (np.abs(values - np.rint(values)) <= 1e-11 * values)
    for i in np.flatnonzero(redo).tolist():
        texts[i] = repr(float(texts[i]))
    return texts


def _per_state_json(per: StateAllocations) -> str:
    """The per_state list as json.dumps(_round12(...), sort_keys=True, indent=2) nests it."""
    cols = (per.power_d, per.power_u, per.rate_d, per.rate_u)
    blocks = []
    for start in range(0, len(per), _BLOCK):
        part = slice(start, start + _BLOCK)
        modes = np.where(per.pnc[part], Mode.PNC.value, Mode.SPCDNC.value).tolist()
        texts = iter(_repr12(np.column_stack([c[part] for c in cols]).ravel()))
        items = zip(modes, texts, texts, texts, texts)
        blocks.append(",\n".join([_STATE_JSON] * len(modes)) % tuple(chain.from_iterable(items)))
    return "[\n" + ",\n".join(blocks) + "\n  ]"


def run_solve(config: ExperimentConfig, states: Sequence[ChannelState]) -> str:
    """Full switching schedule for a single rate target, as stable JSON.

    Keys are sorted, the indent is 2 and floats are rounded to 12
    significant digits. The per-state list is written straight from the
    allocation's columns, the rest through json.
    """
    if len(config.lambdas) != 1:
        raise ConfigError("solve needs exactly one rate target; pass --lambda with one value")
    lam = config.lambdas[0]
    report = solve_switching(states, lam, epsilon=config.epsilon,
                             max_iter=config.max_iter, init_mode=config.init_mode,
                             opts=config.solver_options())
    alloc = report.final
    doc = {
        "f_u": alloc.split.f_u,
        "f_d": alloc.split.f_d,
        "duals": {"beta1": alloc.duals.beta1, "beta2": alloc.duals.beta2,
                  "gamma": alloc.duals.gamma},
        "avg_energy": alloc.avg_energy,
        "avg_rate_u": alloc.avg_rate_u,
        "avg_rate_d": alloc.avg_rate_d,
        "per_state": None,
        "target_rate": lam,
        "iterations": report.iterations,
        "converged": report.converged,
        "energy_trace": list(report.energy_trace),
    }
    # per_state is the document's only null; its list goes in that place
    head, tail = json.dumps(_round12(doc), sort_keys=True, indent=2).split("null", 1)
    return "".join((head, _per_state_json(alloc.per_state), tail, "\n"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"{mark} {c.name}{suffix}")
        failed = sum(1 for c in self.checks if not c.passed)
        if not self.checks:
            lines.append("no checks configured; trivially passing")
        lines.append("all checks passed" if failed == 0 else f"{failed} check(s) failed")
        return "\n".join(lines) + "\n"


Check = tuple[str, Callable[[], tuple[bool, str]]]

_BATTERY_SEED0 = 1101
_BATTERY_LAMBDAS = (0.25, 0.5, 1.0)


def battery_instances() -> list[tuple[int, int, float]]:
    """(seed, state count, rate target) of the ten standard small instances."""
    return [(_BATTERY_SEED0 + i, (i % 4) + 1, _BATTERY_LAMBDAS[i % 3]) for i in range(10)]


def _mode_vectors(n: int) -> dict[str, list[Mode]]:
    return {
        "pnc": [Mode.PNC] * n,
        "dnc": [Mode.SPCDNC] * n,
        "mixed": [Mode.PNC if i % 2 == 0 else Mode.SPCDNC for i in range(n)],
    }


def _agreement_check(seed: int, n: int, lam: float, label: str, modes: list[Mode],
                     opts: SolverOptions) -> Check:
    name = f"oracle-agreement[seed={seed},n={n},lam={_fmt(lam)},modes={label}]"

    def run() -> tuple[bool, str]:
        states = sample_states(n, seed)
        solved = solve_fixed_modes(states, modes, lam, opts)
        oracle = brute_force_fixed_modes(states, modes, lam)
        rel = abs(solved.avg_energy - oracle.energy) / max(oracle.energy, 1e-30)
        detail = (f"solver {_fmt(solved.avg_energy)} vs oracle {_fmt(oracle.energy)} "
                  f"(rel {rel:.2e})")
        return rel <= 1e-3, detail

    return name, run


def _convexity_checks() -> list[Check]:
    from .allocation import perspective_downlink_energy, perspective_energy

    state = ChannelState(1.3, 0.7, 0.9, 1.8)
    surfaces = {
        "convexity[pnc-uplink]": perspective_energy(state, Mode.PNC),
        "convexity[dnc-uplink]": perspective_energy(state, Mode.SPCDNC),
        "convexity[downlink]": perspective_downlink_energy(state),
    }
    checks: list[Check] = []
    for name, fn in surfaces.items():
        def run(fn=fn) -> tuple[bool, str]:
            probe = midpoint_convexity_probe(fn, (0.0, 3.0), (0.05, 0.95), 2000, seed=42)
            return probe.passed, f"worst violation {probe.worst_violation:.2e}"
        checks.append((name, run))

    def negative_control() -> tuple[bool, str]:
        probe = midpoint_convexity_probe(lambda t, f: -t * t, (0.0, 3.0), (0.05, 0.95),
                                         2000, seed=42)
        # the concave surface must be caught
        return not probe.passed, f"worst violation {probe.worst_violation:.2e}"

    checks.append(("convexity[negative-control]", negative_control))
    return checks


def default_battery(config: ExperimentConfig | None = None) -> list[Check]:
    """Oracle-agreement checks on the standard instances plus convexity probes."""
    opts = (config or ExperimentConfig()).solver_options()
    checks: list[Check] = []
    for seed, n, lam in battery_instances():
        for label, modes in _mode_vectors(n).items():
            checks.append(_agreement_check(seed, n, lam, label, modes, opts))
    checks.extend(_convexity_checks())
    return checks


def run_validate(config: ExperimentConfig,
                 battery: Sequence[Check] | None = None) -> ValidationReport:
    """Run the check battery; an empty battery passes trivially."""
    if battery is None:
        battery = default_battery(config)
    results = []
    for name, run in battery:
        try:
            passed, detail = run()
        except Exception as err:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, passed, detail))
    return ValidationReport(tuple(results))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twrelay",
        description="Energy-minimal scheduling for two-way relay networks over fading channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("sweep", "energy vs rate-target table for switching and both baselines"),
            ("solve", "full switching schedule for one rate target and a state file"),
            ("sample", "draw channel states and write them as CSV"),
            ("validate", "run the built-in oracle and convexity check battery")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")
        p.add_argument("--seed", type=int, metavar="U64", help="override RNG seed")
        p.add_argument("--states", metavar="CSV", help="channel states file (overrides sampling)")
        p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
        p.add_argument("--epsilon", type=float, metavar="F",
                       help="override switching termination threshold")
        p.add_argument("--lambda", dest="lambdas", metavar="LIST",
                       help="override rate targets, comma-separated")
        p.add_argument("--n-states", type=int, metavar="N", help="override sampled state count")
        p.add_argument("--dump-config", action="store_true",
                       help="print the merged config as JSON and exit")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"{args.config}:{err.lineno}:{err.colno}: {err.msg}") from None
        config = ExperimentConfig.from_dict(raw)
    else:
        config = ExperimentConfig()
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.states is not None:
        updates["states_path"] = args.states
    if args.out is not None:
        updates["output"] = args.out
    if args.epsilon is not None:
        updates["epsilon"] = args.epsilon
    if args.n_states is not None:
        updates["n_states"] = args.n_states
    if args.lambdas is not None:
        try:
            lams = tuple(float(tok) for tok in args.lambdas.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"--lambda expects numbers, got {args.lambdas!r}") from None
        if not lams:
            raise ConfigError("--lambda expects at least one value")
        updates["lambdas"] = lams
    try:
        return replace(config, **updates) if updates else config
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as err:
        print(f"twrelay: config error: {err}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(config.to_dict(), sort_keys=True, indent=2))
        return 0
    try:
        if args.command == "sweep":
            _emit(sweep_csv(run_sweep(config)), config.output)
        elif args.command == "solve":
            if config.states_path is None:
                print("twrelay: solve needs --states (or a config states_path)",
                      file=sys.stderr)
                return 2
            _emit(run_solve(config, config.resolve_states()), config.output)
        elif args.command == "sample":
            states = config.resolve_states()
            if config.output is None:
                print("twrelay: sample needs --out", file=sys.stderr)
                return 2
            save_states(states, config.output)
        elif args.command == "validate":
            report = run_validate(config)
            _emit(report.text(), config.output)
            if not report.passed:
                return 1
    except (ConfigError, ValueError) as err:
        print(f"twrelay: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
