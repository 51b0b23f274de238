"""The benchmark's workloads, their set-up and their correctness checks.

Each workload builds its inputs from the workload seed in its constructor
(that is the timed set-up), runs one op per `op(k)` call through the
public entry points of `twrelay.cli`, and checks each op's output in
`check(k, out)`, which returns a list of problems (empty when the op is
correct). Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
from dataclasses import replace
from pathlib import Path

# Pinned seed-7 regressions, copied from tests/test_switching.py: baselines
# on the 1000-state seed-7 draw, and the switching trace and final mode
# counts at lambda = 2.
REF_PNC_ONLY = {0.25: 0.9244643416488798, 3.0: 256.8635041593319}
REF_DNC_ONLY = {0.25: 0.9312313818517889, 3.0: 871.9666999254872}
REF_TRACE_LAM2 = (119.94415315973495, 57.92491617664933, 57.76837591300949)
REF_MODES_LAM2 = (892, 108)
REF_RTOL = 1e-9

RATE_RTOL = 1e-9  # solve-50k: delivered average rates may fall short by this much
ORACLE_RTOL = 1e-3  # validate-oracle: solver vs oracle energy agreement

SIZES = {
    # sweep_n, sweep_lambdas: states per sweep draw and its targets (None:
    # the CLI default); solve_n: states in the solve CSV; oracle_n: (n of
    # the first instance, n of the others) in validate-oracle
    "full": {"sweep_n": 1000, "sweep_lambdas": None, "solve_n": 50_000, "oracle_n": (4, 3)},
    "tiny": {"sweep_n": 30, "sweep_lambdas": (0.5, 2.0), "solve_n": 300, "oracle_n": (2, 1)},
}

SWEEP_DRAWS = 3  # a run cycles through this many seeded draws
SOLVE_LAMBDA = 1.0
VALIDATE_CYCLE = 40
VALIDATE_LAMBDAS = (0.25, 0.5, 1.0)
VALIDATE_MODES = ("pnc", "dnc", "mixed")

_DETAIL = re.compile(r"solver (\S+) vs oracle (\S+) \(rel")
# run_solve's JSON has sorted keys and indent 2, so every per-state rate is
# on a line of its own and the time fractions are top-level lines.
_JSON_NUMBER = r"(-?[0-9][0-9.eE+-]*)"
_RATE = {key: re.compile(rf'^ +"{key}": {_JSON_NUMBER},?$', re.M) for key in ("rate_u", "rate_d")}
_FRACTION = {key: re.compile(rf'^  "{key}": {_JSON_NUMBER},?$', re.M) for key in ("f_u", "f_d")}


def sub_seeds(seed: int, count: int) -> list[int]:
    """`count` program seeds derived from the workload seed."""
    rnd = random.Random(seed)
    return [rnd.randrange(2**31) for _ in range(count)]


def reference_check(tw) -> list[str]:
    """Seed-7 energies against the pinned regressions, to REF_RTOL relative."""
    states = tw.channel.sample_states(1000, 7)
    got = []
    for lam, want in REF_PNC_ONLY.items():
        got.append((f"pnc-only@{lam}", tw.switching.solve_baseline(
            states, lam, tw.ratepower.Mode.PNC).avg_energy, want))
    for lam, want in REF_DNC_ONLY.items():
        got.append((f"dnc-only@{lam}", tw.switching.solve_baseline(
            states, lam, tw.ratepower.Mode.SPCDNC).avg_energy, want))
    report = tw.switching.solve_switching(states, 2.0)
    problems = []
    if len(report.energy_trace) != len(REF_TRACE_LAM2):
        problems.append(f"seed-7 switching trace has {len(report.energy_trace)} entries, "
                        f"want {len(REF_TRACE_LAM2)}")
    got += [(f"trace[{i}]@2", g, w)
            for i, (g, w) in enumerate(zip(report.energy_trace, REF_TRACE_LAM2))]
    if report.mode_counts != REF_MODES_LAM2:
        problems.append(f"seed-7 mode counts {report.mode_counts}, want {REF_MODES_LAM2}")
    for label, g, w in got:
        if not abs(g - w) <= REF_RTOL * abs(w):
            problems.append(f"seed-7 {label}: {g!r} vs pinned {w!r}")
    return problems


class Reruns:
    """Byte-for-byte comparison of an op's output with its first run on the same input."""

    def __init__(self):
        self._digests: dict = {}

    def check(self, key, text: str) -> list[str]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self._digests.setdefault(key, digest)
        return [] if digest == first else [f"rerun of input {key} differs from its first run"]


class Sweep:
    """One op is one default `twrelay sweep`: 1000 states, 12 targets."""

    name = "sweep"
    root = "cli.run_sweep"

    def __init__(self, tw, seed: int, size: dict, workdir: Path):
        self.cli = tw.cli
        base = tw.cli.ExperimentConfig()
        if size["sweep_lambdas"] is not None:
            base = replace(base, lambdas=size["sweep_lambdas"])
        self.configs = [replace(base, seed=s, n_states=size["sweep_n"])
                        for s in sub_seeds(seed, SWEEP_DRAWS)]
        self.reruns = Reruns()

    def op(self, k: int) -> str:
        return self.cli.sweep_csv(self.cli.run_sweep(self.configs[k % len(self.configs)]))

    def check(self, k: int, out: str) -> list[str]:
        config = self.configs[k % len(self.configs)]
        lines = out.splitlines()
        if not lines or lines[0] != self.cli.SWEEP_HEADER:
            return ["sweep CSV header differs from the pinned one"]
        rows = [line.split(",") for line in lines[1:]]
        problems = []
        if [float(r[0]) for r in rows] != sorted(config.lambdas):
            problems.append("sweep rows do not list the configured targets in order")
        for r in rows:
            e_switch, e_dnc = float(r[1]), float(r[3])
            if not e_switch <= e_dnc:
                problems.append(f"lambda {r[0]}: energy_switch {r[1]} > energy_dnc_only {r[3]}")
        return problems + self.reruns.check(k % len(self.configs), out)

    def probe_states(self, tw):
        c = self.configs[0]
        return tw.channel.sample_states(c.n_states, c.seed)

    def close(self):
        pass


class Solve50k:
    """One op is `twrelay solve` on a 50,000-state CSV at lambda = 1, returning JSON."""

    name = "solve-50k"
    root = "cli.run_solve"

    def __init__(self, tw, seed: int, size: dict, workdir: Path):
        self.cli = tw.cli
        self.path = workdir / f"states-{os.getpid()}.csv"
        code = tw.cli.main(["sample", "--n-states", str(size["solve_n"]),
                            "--seed", str(seed), "--out", str(self.path)])
        if code != 0:
            raise RuntimeError(f"twrelay sample exited with {code}")
        self.n_states = size["solve_n"]
        self.config = replace(tw.cli.ExperimentConfig(), lambdas=(SOLVE_LAMBDA,),
                              states_path=str(self.path))
        self.reruns = Reruns()

    def op(self, k: int) -> str:
        return self.cli.run_solve(self.config, self.config.resolve_states())

    def check(self, k: int, out: str) -> list[str]:
        # Scanned rather than json.loads-ed: 50,000 parsed dicts would add
        # to this process's peak memory, which is measured for the program.
        floor = SOLVE_LAMBDA * (1.0 - RATE_RTOL)
        problems = []
        for phase, rate, fraction in (("uplink", "rate_u", "f_u"), ("downlink", "rate_d", "f_d")):
            rates = [float(m.group(1)) for m in _RATE[rate].finditer(out)]
            f = [float(m.group(1)) for m in _FRACTION[fraction].finditer(out)]
            if len(rates) != self.n_states or len(f) != 1:
                problems.append(f"JSON holds {len(rates)} {rate} values and {len(f)} {fraction}")
                continue
            v = f[0] * math.fsum(rates) / len(rates)
            if not v >= floor:
                problems.append(f"time-scaled average {phase} rate {v!r} < {floor!r}")
        return problems + self.reruns.check(0, out)

    def probe_states(self, tw):
        return tw.channel.load_states(self.path)

    def close(self):
        self.path.unlink(missing_ok=True)


class ValidateOracle:
    """One op is one oracle-agreement check of `twrelay validate`.

    The instances form a fixed cycle. The first is the validate battery's
    own 4-state instance with all-PNC modes (seed 1104, lambda = 0.25), the
    same in every run: a 4-state check costs 4-9 s and its oracle arrays
    set the run's peak memory, both varying with the draw, so a seeded
    4-state draw would make the op mix and peak memory differ from seed to
    seed. The other instances have 3 states, seeds derived from the
    workload seed, and step through the battery's targets and mode
    vectors. Sizes 1 and 2 are left out because there the solver, not the
    oracle, takes most of the op.
    """

    name = "validate-oracle"
    root = "cli.run_validate"

    def __init__(self, tw, seed: int, size: dict, workdir: Path):
        self.cli = tw.cli
        self.config = tw.cli.ExperimentConfig()
        opts = self.config.solver_options()
        first_n, other_n = size["oracle_n"]
        first = next(i for i in tw.cli.battery_instances() if i[1] == first_n)
        self.instances = [(*first, "pnc")]
        for k, s in enumerate(sub_seeds(seed, VALIDATE_CYCLE - 1), start=1):
            self.instances.append((s, other_n, VALIDATE_LAMBDAS[k % 3],
                                   VALIDATE_MODES[(k // 3) % 3]))
        self.checks = [tw.cli._agreement_check(s, n, lam, label,
                                               tw.cli._mode_vectors(n)[label], opts)
                       for s, n, lam, label in self.instances]
        self.rel_errs: list[float] = []
        self.reruns = Reruns()

    def op(self, k: int) -> str:
        return self.cli.run_validate(self.config, [self.checks[k % len(self.checks)]]).text()

    def check(self, k: int, out: str) -> list[str]:
        first = out.splitlines()[0]
        m = _DETAIL.search(first)
        if not first.startswith("ok ") or m is None:
            return [f"validate reported: {first}"]
        solver, oracle = float(m.group(1)), float(m.group(2))
        rel = abs(solver - oracle) / max(oracle, 1e-30)
        self.rel_errs.append(rel)
        problems = [] if rel <= ORACLE_RTOL else [f"solver vs oracle rel {rel:.3e}: {first}"]
        return problems + self.reruns.check(k % len(self.checks), out)

    def probe_states(self, tw):
        s, n, _, _ = self.instances[0]
        return tw.channel.sample_states(n, s)

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (Sweep, Solve50k, ValidateOracle)}
