"""Per-layer metrics of a traced run, computed from its spans.

Layers are the twrelay modules. Spans come from boundary wrappers (see
tracing.py and `run.workload_boundaries`); every time below is in
seconds per op, averaged over the traced ops, unless its name says
otherwise. Means are used so that the layer self times add up: cli.self_s
+ channel.self_s + switching.self_s + allocation.fixed_solve_s +
ratepower.prefer_pnc_s + oracle.busy_s = trace.op_s, and
trace.self_gap_frac reports how far the sum is off.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from tracing import NAME, PARENT, PAYLOAD, Recorder, duration, layer, self_times

FIXED = "allocation.solve_fixed_modes"
SWITCH = "switching.solve_switching"
BASELINE = "switching.solve_baseline"
ORACLE = "oracle.brute_force_fixed_modes"
PREFER = "ratepower.prefer_pnc"
LAYERS = ("cli", "channel", "switching", "allocation", "ratepower", "oracle")


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def span_cost_us(calls: int) -> float:
    """Microseconds a span wrapper adds to one call, timed around a no-op."""
    def noop():
        return None

    traced = Recorder().wrap("probe.noop", noop)
    times = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * (times[1] - times[0]) / calls


def probe(tw, states, repeats: int, scan_max_states: int, phase_rate: float) -> dict:
    """Median ms of the allocation layer's multiplier solves and split scan.

    Modes alternate PNC / SPC-DNC over the states so both uplink branches
    run. The scan uses at most `scan_max_states` states and is repeated a
    fifth as often. Also the cost of one span, for trace.span_cost_s.
    """
    a, mode = tw.allocation, tw.ratepower.Mode
    modes = [mode.PNC if i % 2 == 0 else mode.SPCDNC for i in range(len(states))]
    few = states[:scan_max_states]
    f_values = [i / 100 for i in range(1, 100)]
    return {
        "beta1_ms": _median_ms(lambda: a.solve_beta1(states, modes, phase_rate), repeats),
        "beta2_ms": _median_ms(lambda: a.solve_beta2(states, phase_rate), repeats),
        "scan_ms": _median_ms(lambda: a.scan_split_energies(
            few, modes[:len(few)], phase_rate / 2, f_values), max(1, repeats // 5)),
        "span_us": span_cost_us(100_000),
    }


def _final_allocations(span):
    """(allocation, states) of a kept solve call, or None."""
    if not isinstance(span[PAYLOAD], tuple):
        return None
    args, _, out = span[PAYLOAD]
    if span[NAME] == SWITCH:
        return out.final, args[0]
    return out, args[0]


def op_summary(tw, spans) -> dict:
    """Per-layer totals of one traced op; spans[0] is the op's root span."""
    s = defaultdict(float)
    s["fixed_durations"] = []
    selfs = self_times(spans)
    fixed_children = defaultdict(int)
    for i, span in enumerate(spans):
        name, d = span[NAME], duration(span)
        s[f"self.{layer(span)}"] += selfs[i]
        s[f"n.{name}"] += 1
        s[f"t.{name}"] += d
        if name == FIXED:
            s["fixed_durations"].append(d)
            if isinstance(span[PAYLOAD], Exception):
                s["failures"] += 1
            if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == SWITCH:
                fixed_children[span[PARENT]] += 1
        if name == BASELINE and isinstance(span[PAYLOAD], tuple):
            args, kwargs, _ = span[PAYLOAD]
            m = args[2] if len(args) > 2 else kwargs["mode"]
            s[f"baseline.{m.value}"] += d
        final = _final_allocations(span) if name in (SWITCH, BASELINE, FIXED) else None
        if final is not None:
            alloc, states = final
            s["kkt_worst"] = max(s["kkt_worst"],
                                 tw.allocation.kkt_residuals(alloc, states).worst)
    for j, count in fixed_children.items():
        if not isinstance(spans[j][PAYLOAD], tuple):
            continue
        report = spans[j][PAYLOAD][2]
        s["switch.iterations"] += report.iterations
        s["switch.accepted"] += report.iterations - 1
        s["switch.attempted"] += count - 1
        s["switch.fixed_solves"] += count
    s["op"] = duration(spans[0])
    s["spans"] = len(spans)
    return s


def metrics(setup_spans, sums, pairs, probes, rel_errs) -> dict:
    """Per-layer metric name -> (value, unit) for one traced run.

    `sums` holds the `op_summary` of each traced op, `pairs` the
    (untraced, traced) wall seconds of each op pair, `rel_errs` the
    solver-vs-oracle errors of every op.
    """
    n_ops = len(sums)

    def mean(key):
        return sum(s.get(key, 0.0) for s in sums) / n_ops

    def total(key):
        return sum(s.get(key, 0.0) for s in sums)

    fixed_durs = [d for s in sums for d in s["fixed_durations"]]
    setup_t = defaultdict(float)
    for span in setup_spans:
        setup_t[span[NAME]] += duration(span)
    attempted = total("switch.attempted")
    op_total = total("op")
    self_sum = sum(mean(f"self.{name}") for name in LAYERS)
    overheads = [t / u - 1.0 for u, t in pairs]
    return {
        "allocation.fixed_solve_calls": (mean(f"n.{FIXED}"), "count"),
        "allocation.fixed_solve_s": (mean(f"t.{FIXED}"), "s"),
        "allocation.fixed_solve_p50_ms": (
            1e3 * statistics.median(fixed_durs) if fixed_durs else 0.0, "ms"),
        "allocation.beta1_ms": (probes["beta1_ms"], "ms"),
        "allocation.beta2_ms": (probes["beta2_ms"], "ms"),
        "allocation.scan_ms": (probes["scan_ms"], "ms"),
        "allocation.kkt_worst": (max(s["kkt_worst"] for s in sums), "abs"),
        "allocation.failures": (total("failures"), "count"),
        "switching.solve_s": (mean(f"t.{SWITCH}"), "s"),
        "switching.self_s": (mean("self.switching"), "s"),
        "switching.iterations": (mean("switch.iterations"), "count"),
        "switching.fixed_solves": (mean("switch.fixed_solves"), "count"),
        "switching.accept_ratio": (
            total("switch.accepted") / attempted if attempted else 0.0, "ratio"),
        "switching.baseline_pnc_s": (mean("baseline.pnc"), "s"),
        "switching.baseline_dnc_s": (mean("baseline.spc-dnc"), "s"),
        "ratepower.prefer_pnc_calls": (mean(f"n.{PREFER}"), "count"),
        "ratepower.prefer_pnc_s": (mean(f"t.{PREFER}"), "s"),
        "cli.self_s": (mean("self.cli"), "s"),
        "channel.self_s": (mean("self.channel"), "s"),
        "channel.load_s": (mean("t.channel.load_states"), "s"),
        "channel.sample_s": (
            setup_t["channel.sample_states"] + mean("t.channel.sample_states"), "s"),
        "channel.save_s": (
            setup_t["channel.save_states"] + mean("t.channel.save_states"), "s"),
        "oracle.calls": (mean(f"n.{ORACLE}"), "count"),
        "oracle.busy_s": (mean(f"t.{ORACLE}"), "s"),
        "oracle.share": (total(f"t.{ORACLE}") / op_total, "ratio"),
        "oracle.max_rel_err": (max(rel_errs) if rel_errs else 0.0, "ratio"),
        "trace.op_s": (op_total / n_ops, "s"),
        "trace.self_gap_frac": (abs(self_sum - op_total / n_ops) / (op_total / n_ops), "ratio"),
        "trace.overhead_frac": (statistics.median(overheads), "ratio"),
        "trace.span_cost_s": (mean("spans") * probes["span_us"] * 1e-6, "s"),
    }
