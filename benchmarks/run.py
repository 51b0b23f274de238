"""twrelay benchmark: one workload, one seed, one process, one client.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Ops run in a closed loop: the next starts only when the previous one has
returned, as a CLI user waits. The loop runs while one more op of median
length fits in `--seconds` of op time (at least one op), and every op's
output is checked. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it records the environment. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` ops alternate untraced and traced on the same input and the
metrics are the per-layer ones (see README.md). The full record, spans
included, goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import tracing
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # one in this process, the others each in a fresh interpreter
PROBE_REPEATS = 21
SCAN_MAX_STATES = 1000  # the 99-point split scan holds 99 x n arrays
PROBE_PHASE_RATE = 2.0  # in-phase average rate target: lambda = 1 at f = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up, print its seconds and exit")
    return p.parse_args(argv)


def import_twrelay():
    """The twrelay package and its modules, imported from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twrelay
    from twrelay import allocation, channel, cli, oracle, ratepower, switching
    if Path(twrelay.__file__).resolve().parent != SRC / "twrelay":
        raise ImportError(f"twrelay imported from {twrelay.__file__}, not from {SRC}")
    return SimpleNamespace(package=twrelay, allocation=allocation, channel=channel, cli=cli,
                           oracle=oracle, ratepower=ratepower, switching=switching)


def timed_setup(args, workload_cls, recorder=None):
    """Import twrelay and build the workload's inputs; returns (seconds, tw, workload).

    With a recorder the set-up's own layer calls are traced under a
    `cli.setup` root span.
    """
    t0 = time.perf_counter()
    tw = import_twrelay()
    make, traced = workload_cls, contextlib.nullcontext()
    if recorder is not None:
        make = recorder.wrap("cli.setup", workload_cls)
        traced = recorder.installed(workload_boundaries(tw))
    with traced:
        wl = make(tw, args.seed, workloads.SIZES[args.size], OUT_DIR)
    return time.perf_counter() - t0, tw, wl


def workload_boundaries(tw):
    """(module, public name, span name, keep call payload) at each layer boundary."""
    cli, sw = tw.cli, tw.switching
    return [
        (cli, "load_states", "channel.load_states", False),
        (cli, "sample_states", "channel.sample_states", False),
        (cli, "save_states", "channel.save_states", False),
        (cli, "solve_switching", "switching.solve_switching", True),
        (cli, "solve_baseline", "switching.solve_baseline", True),
        (cli, "solve_fixed_modes", "allocation.solve_fixed_modes", True),
        (cli, "brute_force_fixed_modes", "oracle.brute_force_fixed_modes", False),
        (sw, "solve_fixed_modes", "allocation.solve_fixed_modes", False),
        (sw, "prefer_pnc", "ratepower.prefer_pnc", False),
    ]


def setup_in_children(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(args, tw) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "twrelay": tw.package.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


class Tally:
    """Attempted and failed ops, with the first few problems for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"{label}: {p}", file=sys.stderr)
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def run_op(wl, k: int, fn=None):
    """One op: (wall s, cpu s, output or None, problems).

    Cyclic garbage left by the previous op is collected first, untimed, so
    each op starts from the heap a fresh CLI process would have and peak
    memory does not depend on when the collector last ran.
    """
    fn = fn or wl.op
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = fn(k)
    except Exception as err:  # a raising op is a failed op; the loop goes on
        return (time.perf_counter() - w0, time.process_time() - c0, None,
                [f"raised {type(err).__name__}: {err}"])
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    try:
        problems = wl.check(k, out)
    except Exception as err:
        problems = [f"check raised {type(err).__name__}: {err}"]
    return wall, cpu, out, problems


def fits(walls: list[float], seconds: float) -> bool:
    """Whether one more op of median length still ends within `seconds` of op time."""
    return sum(walls) + statistics.median(walls) <= seconds


def measure(args, wl, tally: Tally, setups: list[float]) -> tuple[dict, dict]:
    walls, cpus = [], []
    k = 0
    while not walls or fits(walls, args.seconds):
        wall, cpu, out, problems = run_op(wl, k)
        del out  # the next op runs with no earlier output alive, as in a fresh CLI process
        walls.append(wall)
        cpus.append(cpu)
        tally.add(f"op {k}", problems)
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_cpu_p50_s": (statistics.median(cpus), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"setup_s": setups, "op_wall_s": walls, "op_cpu_s": cpus}


def measure_traced(args, tw, wl, tally: Tally, recorder, setup_spans) -> tuple[dict, dict]:
    boundaries = workload_boundaries(tw)
    pairs, sums, compacted = [], [], []
    k = 0
    while not pairs or fits([u + t for u, t in pairs], args.seconds):
        wall_u, _, out_u, problems = run_op(wl, k)
        tally.add(f"op {k}", problems)
        with recorder.installed(boundaries):
            wall_t, _, out_t, problems = run_op(wl, k, recorder.wrap(wl.root, wl.op))
        spans = recorder.reset()
        if out_u is not None and out_t != out_u:
            problems = problems + ["traced output differs from the untraced run"]
        tally.add(f"traced op {k}", problems)
        pairs.append((wall_u, wall_t))
        sums.append(layers.op_summary(tw, spans))
        compacted.append(tracing.compact(spans))
        del spans  # kept payloads hold the op's states and allocations
        k += 1
    probes = layers.probe(tw, wl.probe_states(tw), PROBE_REPEATS, SCAN_MAX_STATES,
                          PROBE_PHASE_RATE)
    metrics = layers.metrics(setup_spans, sums, pairs, probes, getattr(wl, "rel_errs", []))
    metrics["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    record = {"pairs_wall_s": pairs, "probes_ms": probes,
              "setup_spans": tracing.compact(setup_spans), "op_spans": compacted}
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported, here and in every child
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (SRC / "twrelay" / "__init__.py").is_file():
        print(f"no twrelay sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        seconds, _, wl = timed_setup(args, workload_cls)
        wl.close()
        print(repr(seconds))
        return 0

    recorder = tracing.Recorder() if args.trace else None
    setup_s, tw, wl = timed_setup(args, workload_cls, recorder)
    setup_spans = recorder.reset() if recorder else []
    tally = Tally()
    try:
        try:
            problems = workloads.reference_check(tw)
        except Exception as err:
            problems = [f"raised {type(err).__name__}: {err}"]
        tally.add("seed-7 reference", problems)
        if args.trace:
            metrics, record = measure_traced(args, tw, wl, tally, recorder, setup_spans)
        else:
            setups = [setup_s] + setup_in_children(args)
            metrics, record = measure(args, wl, tally, setups)
    finally:
        wl.close()

    env = environment(args, tw)
    record.update(env=env, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
