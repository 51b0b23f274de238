"""Minimum-energy allocation for a fixed per-state strategy assignment.

Given fading states, a per-state uplink strategy, and a long-run average
exchange-rate target, this module finds the uplink/downlink time split,
per-state rates, and per-state powers that minimize the average energy
per channel use subject to

    f_u * mean(rate_u) >= target,   f_d * mean(rate_d) >= target,
    f_u + f_d <= 1.

With x = 2^rate every state's power is a (x - o) + b x (x - 1), with the
coefficients from `ratepower`. At a fixed split the problem is convex and
separable across states: every rate is the stationary point of its power
curve at a common multiplier, clamped at zero. The docstrings below hold
the method:

- `_Phase`: one phase's curves, and the sorted table of its linear states;
- `_solve_multiplier`: the multiplier that meets a phase's rate target;
- `_search_split`: the time split for a fixed set of silent states;
- `_optimize_split`: which PNC states to hold silent;
- `_rates` and `_powers`: the per-state map of the schedule returned.

Everything here is deterministic: fixed-order numpy reductions, fixed
iteration schedules, no RNG. All inputs are treated as immutable, apart
from those values a `States` keeps, which depend on its read-only gains
only, so no result depends on what was solved on it before.
"""

from __future__ import annotations

import copy
import math
import numbers
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelState, as_states
from .ratepower import Mode, broadcast_curve, curve_power, dnc_curve, is_pnc, pnc_curve

LN2 = math.log(2.0)
_MAX = sys.float_info.max

# Root of x ln(x) - x + 1/2 = 0. A PNC state whose stationary point
# x = beta1 / (ln2 (1/g1r + 1/g2r)) lies below this value costs more to
# keep active at the margin than to silence outright.
_SILENCE_X = 2.155535203500502


@dataclass(frozen=True)
class KktPoint:
    """Multipliers of the two average-rate constraints and the time budget."""

    beta1: float
    beta2: float
    gamma: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "gamma"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


@dataclass(frozen=True)
class TimeSplit:
    """Uplink and downlink fractions of the frame; slack is never kept."""

    f_u: float
    f_d: float

    def __post_init__(self):
        if not (self.f_u > 0.0 and self.f_d > 0.0):
            raise ValueError(f"time fractions must be positive, got {self.f_u!r}, {self.f_d!r}")
        if self.f_u + self.f_d > 1.0 + 1e-12:
            raise ValueError(f"time fractions exceed the frame: {self.f_u!r} + {self.f_d!r} > 1")


@dataclass(frozen=True)
class StateAllocation:
    """Strategy, rates (bits/use), and powers for one fading state."""

    mode: Mode
    rate_u: float
    rate_d: float
    power_u: float
    power_d: float

    def __post_init__(self):
        is_pnc(self.mode)  # refuses anything not a Mode
        for name in ("rate_u", "rate_d", "power_u", "power_d"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")
        # a silent phase transmits nothing
        if (self.rate_u == 0.0) != (self.power_u == 0.0):
            raise ValueError("rate_u and power_u must vanish together")
        if (self.rate_d == 0.0) != (self.power_d == 0.0):
            raise ValueError("rate_d and power_d must vanish together")


class StateAllocations(Sequence[StateAllocation]):
    """Per-state schedule as columns: a PNC mask and four read-only float64 arrays.

    pnc marks the states whose uplink runs PNC; rate_u, rate_d, power_u and
    power_d hold what `StateAllocation` holds, and its invariants are
    checked on the whole columns, the first offending state giving the
    error. As a sequence an index builds that state's `StateAllocation`, a
    slice gives a `StateAllocations`, and it compares equal to any
    sequence of equal items.
    """

    __slots__ = ("pnc", "rate_u", "rate_d", "power_u", "power_d")

    def __init__(self, pnc, rate_u, rate_d, power_u, power_d):
        self.pnc = np.array(pnc, dtype=bool)
        self.rate_u, self.rate_d, self.power_u, self.power_d = (
            np.array(v, dtype=float) for v in (rate_u, rate_d, power_u, power_d))
        cols = (self.pnc, self.rate_u, self.rate_d, self.power_u, self.power_d)
        if any(c.shape != self.pnc.shape for c in cols) or self.pnc.ndim != 1:
            raise ValueError("per-state columns must be one-dimensional and of equal length")
        for c in cols:
            c.flags.writeable = False
        nums = np.array(cols[1:])
        bad = (~((nums >= 0.0) & (nums < math.inf)).all(axis=0)
               | ((self.rate_u == 0.0) != (self.power_u == 0.0))
               | ((self.rate_d == 0.0) != (self.power_d == 0.0)))
        if bad.any():
            self[int(bad.argmax())]  # raises StateAllocation's own error

    @classmethod
    def of(cls, per_state: Sequence[StateAllocation]) -> "StateAllocations":
        """`per_state` as columns; a `StateAllocations` comes back as it is."""
        if isinstance(per_state, StateAllocations):
            return per_state
        items = list(per_state)
        return cls([sa.mode is Mode.PNC for sa in items],
                   *([getattr(sa, name) for sa in items]
                     for name in ("rate_u", "rate_d", "power_u", "power_d")))

    def __len__(self) -> int:
        return self.pnc.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return StateAllocations(*(c[key] for c in self._columns()))
        i = operator.index(key)
        return StateAllocation(Mode.PNC if self.pnc[i] else Mode.SPCDNC, float(self.rate_u[i]),
                               float(self.rate_d[i]), float(self.power_u[i]),
                               float(self.power_d[i]))

    def _columns(self):
        return self.pnc, self.rate_u, self.rate_d, self.power_u, self.power_d

    def __eq__(self, other):
        if isinstance(other, StateAllocations):
            return all(np.array_equal(a, b)
                       for a, b in zip(self._columns(), other._columns()))
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"StateAllocations(n={len(self)}, pnc={int(np.count_nonzero(self.pnc))})"


@dataclass(frozen=True)
class Allocation:
    """Complete solution: split, per-state schedule, duals, and averages.

    avg_energy is the average energy per channel use,
    mean_n(f_u * power_u + f_d * power_d); avg_rate_u and avg_rate_d are
    the time-scaled average rates f * mean(rate). per_state may be given as
    any sequence of `StateAllocation`s and is kept as `StateAllocations`.
    """

    split: TimeSplit
    per_state: StateAllocations
    duals: KktPoint
    avg_energy: float
    avg_rate_u: float
    avg_rate_d: float

    def __post_init__(self):
        object.__setattr__(self, "per_state", StateAllocations.of(self.per_state))


@dataclass(frozen=True)
class KktResiduals:
    """Stationarity residuals of an allocation; see `kkt_residuals`."""

    uplink_rate: float
    downlink_rate: float
    uplink_time: float
    downlink_time: float
    gamma: float
    clamped_uplink: tuple[int, ...]
    clamped_downlink: tuple[int, ...]
    beta1: float
    beta2: float
    time_scale: float

    @property
    def worst(self) -> float:
        """Largest residual, in the units of its condition."""
        return max(self.uplink_rate, self.downlink_rate, self.uplink_time, self.downlink_time)

    @property
    def worst_relative(self) -> float:
        """Largest residual over its scale: beta1, beta2, or time_scale for the split.

        A zero scale leaves the residual as it is. Unlike `worst` it does
        not shrink with the energies, so a wrong split at large gains
        still shows.
        """
        return max(_relative(self.uplink_rate, self.beta1),
                   _relative(self.downlink_rate, self.beta2),
                   _relative(self.uplink_time, self.time_scale),
                   _relative(self.downlink_time, self.time_scale))


def _relative(residual: float, scale: float) -> float:
    return residual / scale if scale > 0.0 else residual


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and switches of the allocation solver.

    rate_rtol: relative tolerance on the average rate of the multiplier
        solves; up to 3 Newton steps past it take the error to 1e-15. Below
        1, so that a probe with every state silent never counts as close.
    f_tol: split-search bracket width on the uplink fraction, below which
        one last Newton step ends the search.
    f_lo, f_hi: search interval for the uplink fraction.
    max_bisect_iter: step cap of one multiplier solve (exceeded means error).
    refine_uplink: search the silent prefixes of the PNC states (see
        `_optimize_split`); disable to get the plain water-filling map only.
    """

    rate_rtol: float = 1e-9
    f_tol: float = 1e-6
    f_lo: float = 1e-3
    f_hi: float = 1.0 - 1e-3
    max_bisect_iter: int = 200
    refine_uplink: bool = True

    def __post_init__(self):
        if not (0.0 < self.rate_rtol < 1.0 and self.f_tol > 0.0):
            raise ValueError("need 0 < rate_rtol < 1 and f_tol > 0")
        if not (0.0 < self.f_lo < self.f_hi < 1.0):
            raise ValueError("need 0 < f_lo < f_hi < 1")
        k = self.max_bisect_iter
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"max_bisect_iter must be an integer of at least 1, got {k!r}")


def pnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary PNC uplink rate at multiplier beta1, clamped at zero.

    Setting the slope of the PNC sum power equal to beta1 gives
    2^rate = beta1 / (ln2 * (1/g1r + 1/g2r)).
    """
    return _single_rate(_uplink([state], [Mode.PNC]), beta1)


def dnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary SPC-DNC uplink rate at multiplier beta1, clamped at zero.

    The slope condition is quadratic in x = 2^rate:

        (2 ln2 / g_Mr) x^2 + ln2 (1/g_mr - 1/g_Mr) x = beta1

    and the rate is log2 of its positive root (see `_stationary_x`).
    """
    return _single_rate(_uplink([state], [Mode.SPCDNC]), beta1)


def downlink_rate_given_beta2(beta2: float, state: ChannelState) -> float:
    """Stationary broadcast rate at multiplier beta2: max(0, log2(beta2 g_rm / ln2))."""
    return _single_rate(_downlink([state]), beta2)


def _single_rate(phase: _Phase, beta: float) -> float:
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError(f"multiplier must be nonnegative and finite, got {beta!r}")
    if beta == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_rates(phase, beta)[0])


class _Phase:
    """One phase's per-state power curves P = a (x - o) + b x (x - 1), x = 2^rate.

    At multiplier beta a state's stationary point solves P'(rate) = beta,
    that is qa x^2 + qb x = beta with qa = 2 ln2 b and qb = ln2 (a - b);
    linear curves (b = 0: the broadcast and PNC) give x = beta inv_qb.
    `quad` holds (qa, 4 qa, qb, a, o, b) of the quadratic states, or None.

    The linear states also form a table for `_rate_sums`: `table` lists them
    by inv_qb, largest first (ties by descending index), so the states
    active at any beta are a head of it, its first `cap` at most; the rest
    are silent at every beta (`silenced`). `neg_inv` holds -inv_qb in that
    order, `log_sum[m]` the sum of log2(inv_qb[table[0]] / inv_qb[table[i]])
    over its first m entries and `ao_sum[m]` that of a o.

    `order` lists every state with its linear ones in table order
    (`_linear_order`), so `table` picks them out without a sort, and is
    `order` itself when every curve is linear. Inputs are
    treated as immutable, and the arrays are read-only, since a `States`
    keeps its downlink phase for every later solve (`_downlink`).
    """

    __slots__ = ("n", "a", "o", "b", "inv_qb", "linear", "table", "neg_inv", "log_sum",
                 "ao_sum", "cap", "quad")

    def __init__(self, a, o, b, order):
        self.a, self.o, self.b = np.broadcast_arrays(a, o, b)
        self.n = self.a.size
        qb = LN2 * (self.a - self.b)
        self.linear = self.b == 0.0
        self.inv_qb = np.divide(1.0, qb, out=np.zeros(self.n), where=self.linear)
        self.quad = None
        if not self.linear.all():
            qa = 2.0 * LN2 * self.b
            self.quad = (qa, 4.0 * qa, qb, self.a, self.o, self.b)
            if self.linear.any():
                # the quadratic states' rows of one block: separate copies
                # fragment the heap enough to raise a 50k solve's peak memory
                quad = ~self.linear
                block = np.empty((len(self.quad), int(np.count_nonzero(quad))))
                for row, v in zip(block, self.quad):
                    np.compress(quad, v, out=row)
                block.flags.writeable = False
                self.quad = tuple(block)
        self.table = order if self.quad is None else order[self.linear[order]]
        self.cap = m = self.table.size
        self.neg_inv = self.inv_qb[self.table]
        np.negative(self.neg_inv, out=self.neg_inv)
        self.log_sum, self.ao_sum = np.zeros(m + 1), np.zeros(m + 1)
        if m:
            ratio = np.divide(self.neg_inv[0], self.neg_inv)  # inv_qb[table[0]] / inv_qb
            np.cumsum(np.log2(ratio, out=ratio), out=self.log_sum[1:])
            ao = self.a[self.table]
            np.cumsum(np.multiply(ao, self.o[self.table], out=ao), out=self.ao_sum[1:])
        for name in self.__slots__:
            v = getattr(self, name)
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def silenced(self, k: int) -> "_Phase":
        """Copy with k more states at the table's tail silent at every beta.

        Those are the linear states with the largest qb, the PNC states
        that `_optimize_split` silences. Only `cap` changes.
        """
        out = copy.copy(self)
        out.cap = self.cap - k
        return out


def _pnc_mask(modes) -> np.ndarray:
    """Where `modes` is PNC; a boolean array is taken as that mask already.

    Otherwise every entry must be a `Mode` (`is_pnc`): an array of modes is
    read entry by entry, not as a mask.
    """
    if isinstance(modes, np.ndarray) and modes.dtype == bool:
        return modes
    return np.array([is_pnc(m) for m in modes], dtype=bool)


def _linear_order(a) -> np.ndarray:
    """States of the linear curves with coefficients a by x = 1 / (ln2 a) per unit of beta.

    Largest first, ties by descending index, and read-only: `_Phase`'s
    table order.
    """
    order = np.argsort(np.divide(1.0, LN2 * a), kind="stable")[::-1]
    order.flags.writeable = False
    return order


def _pnc_order(st) -> np.ndarray:
    """`_linear_order` of the PNC curves of a `States`, built once and kept in it."""
    if "pnc_order" not in st._derived:
        st._derived["pnc_order"] = _linear_order(pnc_curve(st.g1r, st.g2r)[0])
    return st._derived["pnc_order"]


def _uplink(states: Sequence[ChannelState], modes) -> _Phase:
    """Uplink curves: PNC where `modes` says so (`_pnc_mask`), SPC-DNC elsewhere."""
    st, pnc = as_states(states), _pnc_mask(modes)
    dnc = dnc_curve(st.g_mr, st.g_Mr)
    return _Phase(*(np.where(pnc, p, d) for p, d in zip(pnc_curve(st.g1r, st.g2r), dnc)),
                  _pnc_order(st) if pnc.any() else np.empty(0, int))


def _downlink(states: Sequence[ChannelState]) -> _Phase:
    """Broadcast curves, built once per `States` and kept in it."""
    st = as_states(states)
    if "downlink" not in st._derived:
        a, o, b = broadcast_curve(st.g_rm)
        st._derived["downlink"] = _Phase(a, o, b, _linear_order(a))
    return st._derived["downlink"]


def _quadratic_x(qa4, qb, beta: float):
    """Positive root x of qa x^2 + qb x = beta > 0 per state, beta a scalar or a column."""
    # as 2s / (t + sqrt(t^2 + 4 qa)) with s = sqrt(beta), t = qb / s, which
    # neither cancels nor overflows before x
    s = np.sqrt(beta)
    t = qb / s
    return 2.0 * s / (t + np.sqrt(t * t + qa4))


def _stationary_x(ph: _Phase, beta):
    """Unclamped stationary points x = 2^rate at beta > 0: a scalar, or a column (a row each)."""
    x = beta * ph.inv_qb
    if ph.quad is not None:
        x[..., ~ph.linear] = _quadratic_x(*ph.quad[1:3], beta)
    x[..., ph.table[ph.cap:]] = 0.0  # silent at every beta
    return x


def _rates(ph: _Phase, beta):
    """Clamped stationary rates at beta > 0: a scalar, or a column (a row each).

    The per-state map of the schedule returned, which `kkt_residuals` checks
    apart from the table's sums that the split probes take (`_rate_sums`).
    """
    return np.log2(np.maximum(_stationary_x(ph, beta), 1.0))


def _powers(ph: _Phase, rates):
    """Powers, their slopes P'(rate), and the mean envelope term over the last axis.

    The envelope term P - rate P' is d(f P(T/f))/df at fixed throughput
    T = f rate. Silent states use no power and add no envelope term.
    Raises RuntimeError where a power or the mean overflows float64.
    """
    active = rates > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp2(rates)
        p = np.where(active, curve_power(x, ph.a, ph.o, ph.b), 0.0)
        slope = LN2 * x * (ph.a + ph.b * (2.0 * x - 1.0))
        env = np.where(active, p - rates * slope, 0.0).mean(axis=-1)
    if not (np.isfinite(p).all() and np.isfinite(env).all()):
        raise RuntimeError("transmit power overflows float64")
    return p, slope, env


def _active(ph: _Phase, beta: float) -> int:
    """How many linear states are active at beta > 0: a head of the table, capped.

    A state is active where beta inv_qb > 1 in float64, as in the per-state
    map. That product grows with inv_qb, so the active states are those
    with inv_qb at least the least float t with beta t > 1.
    """
    t = 1.0 / beta
    while beta * t > 1.0:
        t = math.nextafter(t, 0.0)
    while not beta * t > 1.0:
        t = math.nextafter(t, math.inf)
    return min(int(ph.neg_inv.searchsorted(-t, "right")), ph.cap)


def _rate_sums(ph: _Phase, beta: float):
    """Mean of `_rates` at beta > 0 and its slope in ln(beta), from the table's sums.

    The sorted-breakpoint water-filling of Palomar and Fonollosa (IEEE TSP
    53(2), 2005): the m active linear states add m log2(beta inv0) -
    log_sum[m] to the rate sum, inv0 leading the table, and m / ln2 to the
    slope, which is (qa x + qb) / ((2 qa x + qb) ln2) per active state; the
    quadratic states take one pass. Returns (mean rate, slope, m, clamped x
    of the quadratic states or None), the last two for `_mean_power`.
    """
    m = _active(ph, beta) if ph.cap else 0
    rate = m * math.log2(-beta * ph.neg_inv[0]) - float(ph.log_sum[m]) if m else 0.0
    slope = m / LN2
    x = None
    if ph.quad is not None:
        qa, qa4, qb = ph.quad[:3]
        x = np.maximum(_quadratic_x(qa4, qb, beta), 1.0)
        r = np.log2(x)
        rate += float(r.sum())
        qx = qa * x
        slope += float(((qx + qb) / ((2.0 * qx + qb) * LN2)).sum(where=r > 0.0))
    return rate / ph.n, slope / ph.n, m, x


def _mean_power(ph: _Phase, beta: float, m: int, x) -> float:
    """Mean power at beta of a `_rate_sums` probe with m active linear states and quadratic x.

    An active linear state costs a (beta inv_qb - o), and a inv_qb = 1/ln2.
    """
    power = beta * m / LN2 - float(ph.ao_sum[m])
    if x is not None:
        a, o, b = ph.quad[3:]
        power += float(curve_power(x, a, o, b).sum(where=x > 1.0))
    return power / ph.n


def _solve_multiplier(ph: _Phase, target: float, opts: SolverOptions,
                      warm: tuple[float, float, float] | None = None):
    """Solve mean_rate(beta) = target for beta >= 0 by Newton steps in u = ln beta.

    `_rate_sums` gives the mean rate and its slope in u. The rate is
    nondecreasing in u, and for PNC and downlink states linear in u between
    the points where a state leaves its clamp, where a step is exact. Steps
    start at 1, or at the step beta0 exp((target - target0) / slope0) from a
    neighbouring solve's `warm` = (target0, beta0, slope0); one that leaves
    the bracket of points below and above the target becomes a
    factor 4 while that side is open, else the geometric midpoint. The
    search stops at a rate error of 1e-15 relative, or 3 steps after it is
    within opts.rate_rtol, or where a step no longer moves beta, or at the
    upper end of a bracket closed on adjacent floats. Returns beta with its
    probe's mean rate, slope, m and x (`_rate_sums`; 0, 0, 0, 0 and None for
    target 0). Raises RuntimeError when beta or 2^rate would overflow
    float64, or after opts.max_bisect_iter steps. The caller sets numpy's
    error state: overflow, invalid and divide ignored.
    """
    if target <= 0.0:
        return 0.0, 0.0, 0.0, 0, None
    t0, b0, s0 = warm or (target, 1.0, 1.0)
    beta = min(b0 * math.exp(min((target - t0) / s0, 709.0)), _MAX) or b0  # b0 on underflow
    lo, hi = 0.0, math.inf
    polish = 0
    for _ in range(opts.max_bisect_iter):
        rate, slope, m, x = _rate_sums(ph, beta)
        err = rate - target
        close = abs(err) <= opts.rate_rtol * target
        polish += close
        if polish > 3 or abs(err) <= 1e-15 * target:
            return beta, rate, slope, m, x
        if err < 0.0:
            lo = beta
        else:
            hi = beta
        step = -err / slope if slope > 0.0 else math.copysign(math.inf, -err)
        nxt = beta * math.exp(min(step, 709.0))
        if not lo < nxt < hi:
            if close:
                return beta, rate, slope, m, x  # no Newton step left inside the bracket
            if 0.0 < lo and hi < math.inf:
                nxt = math.sqrt(lo) * math.sqrt(hi)
            else:
                nxt = min(4.0 * beta if err < 0.0 else 0.25 * beta, _MAX)
            if not lo < nxt < hi:
                if hi < math.inf:
                    # adjacent floats: the least beta probed that reaches the
                    # target, unless 2^rate overflows to inf there
                    upper = _rate_sums(ph, hi)
                    if upper[0] < math.inf:
                        return (hi, *upper)
                raise RuntimeError("rate target unreachable in float64")
        beta = nxt
    raise RuntimeError("multiplier search did not reach tolerance within the iteration cap")


def _solve_phase(ph: _Phase, target: float, opts: SolverOptions, warm):
    """Multiplier, rate slope, active linear states, mean power and mean envelope term.

    At a stationary point P'(rate) = beta on every active state, so the
    mean envelope term is the mean power less beta times the mean rate.
    Raises RuntimeError where the sum of either over the states overflows
    float64, as `_powers` does, so that the per-state map can build the
    probe returned. Runs under the caller's error state, as
    `_solve_multiplier` does.
    """
    beta, rate, slope, m, x = _solve_multiplier(ph, target, opts, warm)
    power = _mean_power(ph, beta, m, x)
    env = power - beta * rate
    if not (math.isfinite(power) and math.isfinite(env * ph.n)):
        raise RuntimeError("transmit power overflows float64")
    return beta, slope, m, power, env


def _per_state(ph: _Phase, beta: float):
    """Rates, powers and mean envelope term of the per-state map at beta."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rates = _rates(ph, beta)
    p, _, env = _powers(ph, rates)
    return rates, p, float(env)


# active_u: the linear (PNC) uplink states active at beta1
_SplitEval = namedtuple("_SplitEval", "f_u energy beta1 beta2 active_u mean_dup mean_ddn")


def _evaluate_split(up: _Phase, dn: _Phase, lam: float, f_u: float, opts: SolverOptions,
                    warm: dict):
    """Solve both phases at a fixed split: (derivative d, Newton step d / d', evaluation).

    d = mean_dup - mean_ddn is the derivative of the reduced objective in
    f_u. Each phase costs the perspective f U(lam / f) of its least mean
    power U, so d' = lam^2 (kappa1 / f_u^3 + kappa2 / f_d^3) with kappa =
    U'' = beta / slope; d' can overflow float64 where d does not, so both are
    scaled by the larger beta's power of two before dividing. Each phase's
    (target, beta, slope) goes into `warm` for the next solve. A phase that
    overflows gives no evaluation, a NaN step and an infinite d pointing
    away from it: an uplink overflow means f_u is too small (every smaller
    f_u overflows too), a downlink overflow means it is too large.
    """
    f_d = 1.0 - f_u
    t1, t2 = lam / f_u, lam / f_d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            beta1, s1, m_u, p_u, dup = _solve_phase(up, t1, opts, warm.get("up"))
        except RuntimeError:
            return -math.inf, math.nan, None
        try:
            beta2, s2, _, p_d, ddn = _solve_phase(dn, t2, opts, warm.get("dn"))
        except RuntimeError:
            return math.inf, math.nan, None
    warm["up"], warm["dn"] = (t1, beta1, s1), (t2, beta2, s2)
    ev = _SplitEval(f_u=f_u, energy=f_u * p_u + f_d * p_d, beta1=beta1, beta2=beta2,
                    active_u=m_u, mean_dup=dup, mean_ddn=ddn)
    e = math.frexp(max(beta1, beta2))[1]
    slope = lam * lam * (math.ldexp(beta1, -e) / s1 / f_u ** 3
                         + math.ldexp(beta2, -e) / s2 / f_d ** 3)
    return dup - ddn, math.ldexp(dup - ddn, -e) / slope, ev


def _search_split(up: _Phase, dn: _Phase, lam: float, opts: SolverOptions,
                  warm: dict) -> _SplitEval | None:
    """Stationary split for a fixed silent set, by bracketed Newton steps.

    With the silent set fixed the reduced objective is convex in f_u; its
    minimizer is the sign change of d, whose Newton step `_evaluate_split`
    gives. Steps start at the last search's split, warm["f_u"], or
    mid-interval, and each probe moves one end of the bracket [f_lo, f_hi]
    to it by the sign of d. A step past an end of [f_lo, f_hi] not yet
    probed probes that end, where d pointing outward ends the search. A
    step that otherwise leaves the bracket, is NaN (an infeasible probe), or
    comes while |d| has not halved over two probes (a jump in d can cycle
    the steps) bisects. The search stops at |d| < 1e-11 (|mean_dup| +
    |mean_ddn|), which scales with the gains, at a step below 1e-15 f, or
    after one last step inside a bracket narrower than opts.f_tol, whose
    ends can still carry a |d| too large for the KKT check. Returns the
    probe where the bracket closed, such as an end whose d points outward
    (a boundary optimum, where d does not vanish), if it is feasible; else
    the feasible evaluation with the smallest |d|, or None when none is.
    """
    lo, hi = opts.f_lo, opts.f_hi
    unprobed = {lo, hi}
    best, best_d = None, math.inf
    f = warm.get("f_u", 0.5 * (lo + hi))
    d_before = d_last = math.inf  # |d| two probes back and one probe back
    last = False
    while not last:
        last = hi - lo < opts.f_tol
        d, step, ev = _evaluate_split(up, dn, lam, f, opts, warm)
        unprobed.discard(f)
        if ev is not None:
            if abs(d) < best_d:
                best, best_d = ev, abs(d)
            if abs(d) < 1e-11 * (abs(ev.mean_dup) + abs(ev.mean_ddn)):
                break
        if d < 0.0:
            lo = f
        else:
            hi = f
        if lo == hi:  # the bracket closed at this probe
            best = ev or best
            break
        if abs(step) <= 1e-15 * f:
            break
        f = min(max(f - step, lo), hi)  # NaN stays NaN; an unprobed end gets probed
        if f not in unprobed and not (lo < f < hi and abs(d) <= 0.5 * d_before):
            f = 0.5 * (lo + hi)
        d_before, d_last = d_last, abs(d)
    if best is not None:
        warm["f_u"] = best.f_u
    return best


def _optimize_split(up: _Phase, dn: _Phase, lam: float, opts: SolverOptions):
    """Cheapest split over the silent prefixes of the PNC states, with its uplink phase.

    A PNC state's power (2^r - 1/2) c, c = 1/g1r + 1/g2r, does not vanish at
    rate 0, so a state barely above its clamp can be cheaper silent, its
    rate carried by the others; moving it onto an active PNC state with a
    smaller c never costs more. So the silent sets worth trying are the
    prefixes of the PNC states by c, largest first, an order free of the
    multiplier: the tail of the uplink's table. Each prefix gets its own
    split search, convex once the prefix is fixed, cached by k.
    Starting from the plain map (k = 0), k is set to the number of PNC
    states whose stationary point lies below x* at the current beta1 until
    a k repeats. Then, from the best prefix and while the energy falls, k
    grows to silence the next PNC state that is still active, and after
    that shrinks by one. Raises ValueError when no split is feasible.
    """
    warm: dict = {}
    found: dict[int, _SplitEval | None] = {}

    def energy(k: int) -> float:
        if k not in found:
            found[k] = (None if k == up.n else
                        _search_split(up.silenced(k), dn, lam, opts, warm))
        return math.inf if found[k] is None else found[k].energy

    if energy(0) == math.inf:
        raise ValueError(
            f"no feasible time split in [{opts.f_lo}, {opts.f_hi}] for target {lam}")
    if opts.refine_uplink and up.cap:
        # jump near the best prefix first: at n = 1000 the walk alone would
        # step through the prefixes one split search at a time
        k = 0
        while True:
            # beta1 (-neg_inv) is each PNC state's stationary x
            k = int(np.count_nonzero(found[k].beta1 * up.neg_inv > -_SILENCE_X))
            if k in found or energy(k) == math.inf:
                break
        k = min(found, key=energy)
        while True:
            # silence the next PNC state that is still active; the ones
            # between k and it are already held at zero by the clamp
            j = up.cap - found[k].active_u + 1
            if j > up.cap or energy(j) >= energy(k):
                break
            k = j
        k = min(found, key=energy)
        while k > 0 and energy(k - 1) < energy(k):
            k -= 1
    k = min(found, key=energy)
    return found[k], up.silenced(k)


def _check_problem(states, modes, target_rate) -> None:
    if len(states) == 0:
        raise ValueError("need at least one channel state")
    if modes is not None and len(modes) != len(states):
        raise ValueError(f"got {len(states)} states but {len(modes)} modes")
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError(f"target rate must be nonnegative and finite, got {target_rate!r}")


def solve_beta1(states: Sequence[ChannelState], modes: Sequence[Mode],
                target_avg_rate: float, opts: SolverOptions | None = None) -> float:
    """Uplink multiplier whose clamped stationary rates average to the target.

    Safeguarded Newton steps in ln(beta1) on the (continuous,
    nondecreasing) average-rate map, to opts.rate_rtol and then to a
    relative error of 1e-15 (`_solve_multiplier`). Target 0 returns 0;
    RuntimeError means the multiplier overflows float64.
    """
    return _solve_beta(states, modes, target_avg_rate, opts)


def solve_beta2(states: Sequence[ChannelState], target_avg_rate: float,
                opts: SolverOptions | None = None) -> float:
    """Downlink counterpart of solve_beta1 (strategy-independent)."""
    return _solve_beta(states, None, target_avg_rate, opts)


def _solve_beta(states, modes, target: float, opts: SolverOptions | None) -> float:
    """Multiplier of the uplink under `modes`, or of the downlink where modes is None."""
    _check_problem(states, modes, target)
    ph = _downlink(states) if modes is None else _uplink(states, modes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_multiplier(ph, target, opts or SolverOptions())[0]


def solve_fixed_modes(states: Sequence[ChannelState], modes: Sequence[Mode],
                      target_rate: float, opts: SolverOptions | None = None) -> Allocation:
    """Minimum-energy allocation for the given per-state strategy assignment.

    A zero target is served by the all-silent allocation with the frame
    split evenly by convention. Otherwise the two phases are solved by
    Newton steps on their multipliers for each candidate split, and the
    split by bracketed Newton steps on the reduced derivative over
    [opts.f_lo, opts.f_hi] with f_d = 1 - f_u, once per silent PNC prefix
    tried, each search after the first starting from the split of the one
    before; giving any slack to the downlink never
    costs energy, so the frame is always used fully. Raises ValueError when
    no split in that interval can carry the target.
    """
    opts = opts or SolverOptions()
    _check_problem(states, modes, target_rate)
    st, pnc = as_states(states), _pnc_mask(modes)
    if target_rate == 0.0:
        zero = np.zeros(len(st))
        per = StateAllocations(pnc, zero, zero, zero, zero)
        return Allocation(TimeSplit(0.5, 0.5), per, KktPoint(0.0, 0.0, 0.0), 0.0, 0.0, 0.0)
    dn = _downlink(st)
    ev, up = _optimize_split(_uplink(st, pnc), dn, target_rate, opts)
    f_u = ev.f_u
    f_d = 1.0 - f_u
    # the per-state map, only for the probe returned
    r_u, p_u, _ = _per_state(up, ev.beta1)
    r_d, p_d, mean_ddn = _per_state(dn, ev.beta2)
    del up, dn  # before the columns below are copied, where a solve peaks in memory
    return Allocation(
        split=TimeSplit(f_u, f_d),
        per_state=StateAllocations(pnc, r_u, r_d, p_u, p_d),
        duals=KktPoint(ev.beta1, ev.beta2, max(0.0, -mean_ddn)),
        avg_energy=float(np.mean(f_u * p_u + f_d * p_d)),
        avg_rate_u=f_u * float(np.mean(r_u)),
        avg_rate_d=f_d * float(np.mean(r_d)),
    )


def kkt_residuals(alloc: Allocation, states: Sequence[ChannelState],
                  modes: Sequence[Mode] | None = None) -> KktResiduals:
    """Stationarity residuals of an allocation against its own multipliers.

    Per active state the rate conditions |P'(rate) - beta| are reported as
    maxima; clamped states are listed instead of checked (complementary
    slackness covers them). The time-budget multiplier gamma is recovered
    from the downlink split condition, so its residual vanishes by
    construction and the uplink split condition carries the information:
    it equals |d(avg energy)/d f_u| at the reported split. The scales of
    `KktResiduals.worst_relative` come along: the multipliers and
    |mean_dup| + |mean_ddn|, the size of the envelope terms.
    """
    per = alloc.per_state
    st = as_states(states)
    if len(per) != len(st):
        raise ValueError(f"allocation covers {len(per)} states, got {len(st)}")
    pnc = per.pnc if modes is None else _pnc_mask(modes)
    _check_problem(st, pnc, 0.0)
    rows = []
    for ph, rates, beta in ((_uplink(st, pnc), per.rate_u, alloc.duals.beta1),
                            (_downlink(st), per.rate_d, alloc.duals.beta2)):
        active = rates > 0.0
        _, slope, env = _powers(ph, rates)
        rows.append((float(np.max(np.abs(slope - beta), where=active, initial=0.0)),
                     float(env), tuple(np.flatnonzero(~active).tolist())))
    (up_rate, mean_dup, clamped_u), (dn_rate, mean_ddn, clamped_d) = rows
    gamma = -mean_ddn
    return KktResiduals(
        uplink_rate=up_rate,
        downlink_rate=dn_rate,
        uplink_time=abs(mean_dup + gamma),
        downlink_time=abs(mean_ddn + gamma),
        gamma=gamma,
        clamped_uplink=clamped_u,
        clamped_downlink=clamped_d,
        beta1=alloc.duals.beta1,
        beta2=alloc.duals.beta2,
        time_scale=abs(mean_dup) + abs(mean_ddn),
    )


def scan_split_energies(states: Sequence[ChannelState], modes: Sequence[Mode],
                        target_rate: float, f_values,
                        opts: SolverOptions | None = None) -> np.ndarray:
    """Reduced-objective energies on a grid of uplink fractions.

    Dense scans of the split objective for diagnostics. Uses the plain
    water-filling map (no PNC state forced silent), which is the objective
    solve_fixed_modes minimizes with refine_uplink=False. That map jumps
    where a PNC state leaves its clamp, so the scan can show several local
    minima. Each point's multipliers are solved under `opts`, warm-started
    from the point before, and the powers evaluated for all points at once.
    Raises RuntimeError where a phase overflows or a solve runs out of steps.
    """
    _check_problem(states, modes, target_rate)
    opts = opts or SolverOptions()
    st = as_states(states)
    f = np.asarray(f_values, dtype=float)
    if not np.all((f > 0.0) & (f < 1.0)):  # NaN too
        raise ValueError("grid fractions must lie strictly inside (0, 1)")
    if target_rate == 0.0:
        return np.zeros_like(f)
    energy = 0.0
    for ph, g in ((_uplink(st, modes), f), (_downlink(st), 1.0 - f)):
        betas, warm = [], None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for target in (target_rate / g).tolist():
                beta, _, slope, _, _ = _solve_multiplier(ph, target, opts, warm)
                warm = (target, beta, slope)
                betas.append(beta)
            rates = _rates(ph, np.array(betas)[:, None])
        energy = energy + g * _powers(ph, rates)[0].mean(axis=1)
    return energy


def perspective_energy(state: ChannelState, mode: Mode):
    """Scaled-phase uplink energy (T, f) -> f * P(T/f) on the smooth branch.

    Jointly convex on T >= 0, f > 0 as the perspective of a convex power
    curve. The zero-rate shortcut (silent means free) is deliberately not
    applied here; convexity probes exercise the smooth expression itself.
    """
    if is_pnc(mode):
        return _perspective(pnc_curve(state.g1r, state.g2r))
    return _perspective(dnc_curve(state.g_mr, state.g_Mr))


def perspective_downlink_energy(state: ChannelState):
    """Scaled-phase broadcast energy (T, f) -> f * (2^(T/f) - 1)/g_rm."""
    return _perspective(broadcast_curve(state.g_rm))


def _perspective(curve):
    return lambda t, f: f * curve_power(2.0 ** (t / f), *curve)
