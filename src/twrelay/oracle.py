"""Brute-force ground truth and property validators.

Nothing in here trusts the dual solver: the grid search enumerates rate
profiles and time splits from its own copy of the power formulas, including
splits that leave part of the frame idle, so it independently confirms
both the allocation energies and the full-frame design decision on small
instances. It prices a block of time fractions against every shape at
once (`_phase_minima`). The convexity probe checks midpoint convexity of
arbitrary (T, f) energy surfaces by seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelState
from .ratepower import Mode, is_pnc

_MAX_ORACLE_STATES = 4
_BLOCK = 1 << 15  # elements of one (fractions x shapes) block of `_phase_minima`


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the brute-force search.

    n_f interior points cover the time fraction axis. Per-state rate
    levels mix a geometric ramp near zero (silent and barely-active
    states matter) with a linear section above rate_knee; profiles are
    scaled afterwards to meet the average-rate constraint exactly, so the
    levels only need to cover relative shapes.
    """

    n_f: int = 99
    n_geom: int = 5
    n_lin: int = 10
    rate_floor: float = 0.01
    rate_knee: float = 0.1
    rate_cap: float = 1.0
    refine_rounds: int = 3
    refine_span: int = 3
    refine_step: float = 0.15
    refine_shrink: float = 0.3

    def __post_init__(self):
        if self.n_f < 3 or self.n_geom < 2 or self.n_lin < 2:
            raise ValueError("grid too coarse")
        if not (0.0 < self.rate_floor < self.rate_knee < self.rate_cap):
            raise ValueError("need 0 < rate_floor < rate_knee < rate_cap")
        if self.refine_rounds < 0 or self.refine_span < 1:
            raise ValueError("bad refinement lattice")
        if not (self.refine_step > 0.0 and 0.0 < self.refine_shrink < 1.0):
            raise ValueError("bad refinement step schedule")

    def f_values(self) -> np.ndarray:
        return np.arange(1, self.n_f + 1) / (self.n_f + 1.0)

    def rate_levels(self) -> np.ndarray:
        geom = np.geomspace(self.rate_floor, self.rate_knee, self.n_geom)
        lin = np.linspace(self.rate_knee, self.rate_cap, self.n_lin)
        return np.concatenate(([0.0], geom, lin[1:]))

    def halved(self) -> "GridSpec":
        return GridSpec(
            n_f=2 * self.n_f + 1,
            n_geom=2 * self.n_geom,
            n_lin=2 * self.n_lin,
            rate_floor=self.rate_floor,
            rate_knee=self.rate_knee,
            rate_cap=self.rate_cap,
            refine_rounds=self.refine_rounds,
            refine_span=self.refine_span,
            refine_step=0.5 * self.refine_step,
            refine_shrink=self.refine_shrink,
        )


@dataclass(frozen=True)
class OracleResult:
    energy: float
    f_u: float
    f_d: float
    rates_u: tuple[float, ...]
    rates_d: tuple[float, ...]
    grid: GridSpec


def _shape_matrix(levels: np.ndarray, n: int) -> np.ndarray:
    """All per-state level combinations, deduplicated up to scaling.

    Profiles are later rescaled to meet the rate constraint, so only the
    ray of each vector matters; normalizing to mean 1 and deduplicating
    keeps the search space small. Entries are rounded to 12 decimals, so
    every positive one is at least 5e-13, and the rows come sorted
    (`_unique_rows`).
    """
    grids = np.meshgrid(*([levels] * n), indexing="ij")
    shapes = np.stack([g.ravel() for g in grids], axis=1)
    means = shapes.mean(axis=1)
    keep = means > 0.0
    shapes = shapes[keep] / means[keep, None]
    return _unique_rows(np.round(shapes, 12))


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """`np.unique(a, axis=0)` for a NaN-free float matrix, without its row sort.

    A lexsort keyed on the columns, the first one primary, puts the rows
    in the order np.unique's structured sort gives; a row equal to its
    predecessor is dropped. Equal rows are equal bit for bit (no -0.0
    occurs here), so which copy is kept does not matter.
    """
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(a.shape[0], dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def _power_curves(states: Sequence[ChannelState], modes: Sequence[Mode]) -> tuple[list, list]:
    """Each state's uplink and downlink power curve in x = 2^rate, as coefficients:
    ("pnc", k) is (x - 1/2)·k with k = 1/g1r + 1/g2r, ("dnc", a, b) is
    (x - 1)/a + x(x - 1)/b with a = g_mr and b = g_Mr, ("dn", g) is (x - 1)/g.
    """
    up = [("pnc", 1.0 / s.g1r + 1.0 / s.g2r) if is_pnc(mode) else ("dnc", s.g_mr, s.g_Mr)
          for s, mode in zip(states, modes)]
    return up, [("dn", s.g_rm) for s in states]


def brute_force_fixed_modes(states: Sequence[ChannelState], modes: Sequence[Mode],
                            target_rate: float, grid: GridSpec | None = None) -> OracleResult:
    """Grid-search the fixed-assignment problem directly from the formulas.

    Searches uplink and downlink fractions independently over all pairs
    with f_u + f_d <= 1 (slack included on purpose) and, per fraction,
    over scaled per-state rate profiles whose mean meets the phase target
    exactly. Intended for instances of at most four states.
    """
    grid = grid or GridSpec()
    n = len(states)
    if n == 0:
        raise ValueError("need at least one channel state")
    if n > _MAX_ORACLE_STATES:
        raise ValueError(f"brute force supports up to {_MAX_ORACLE_STATES} states, got {n}")
    if len(modes) != n:
        raise ValueError(f"got {n} states but {len(modes)} modes")
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError(f"target rate must be nonnegative and finite, got {target_rate!r}")
    up_curves, dn_curves = _power_curves(states, modes)
    if target_rate == 0.0:
        zeros = tuple(0.0 for _ in range(n))
        return OracleResult(0.0, 0.5, 0.5, zeros, zeros, grid)

    shapes0 = _shape_matrix(grid.rate_levels(), n)  # every row has mean 1
    f_vals = grid.f_values()
    up_store, up_power, up_arg = _refined_phase(shapes0, f_vals, target_rate, up_curves, grid)
    dn_store, dn_power, dn_arg = _refined_phase(shapes0, f_vals, target_rate, dn_curves, grid)

    total = (f_vals * up_power)[:, None] + f_vals * dn_power  # inf, NaN, f_u + f_d > 1 lose
    total[~(total < math.inf) | (f_vals[:, None] + f_vals[None, :] > 1.0 + 1e-12)] = math.inf
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    energy = total[i, j]
    if not math.isfinite(energy):
        raise ValueError("no feasible grid point; grid cannot carry the rate target")
    rates_u = up_store[up_arg[i]] * (target_rate / f_vals[i])
    rates_d = dn_store[dn_arg[j]] * (target_rate / f_vals[j])
    return OracleResult(
        energy=float(energy),
        f_u=float(f_vals[i]),
        f_d=float(f_vals[j]),
        rates_u=tuple(float(v) for v in rates_u),
        rates_d=tuple(float(v) for v in rates_d),
        grid=grid,
    )


def _phase_minima(shape_mat: np.ndarray, f_vals: np.ndarray, target: float,
                  curves: list) -> tuple[np.ndarray, np.ndarray]:
    """Per fraction f, the least mean power of a shape row at rates shape·target/f, and the row.

    A block of fractions, a (fractions × shapes) array of about _BLOCK
    elements, is priced at once in preallocated buffers: each state's power
    is added in state order and the sum divided by n, mean(axis=1) of the
    (shapes × n) power matrix bit for bit. A silent state (shape value 0)
    needs no mask: x = 2^(0·s) = 1 exactly, so (x - 1)/a + x(x - 1)/b and
    (x - 1)/g are +0.0, and a PNC curve shifts x by 1, not 1/2, there, so
    (1 - 1)·k = +0.0. argmin(axis=1) takes each row's first minimum.
    """
    m, n = shape_mat.shape
    cols = [np.ascontiguousarray(col) for col in shape_mat.T]
    shifts = [np.where(col > 0.0, 0.5, 1.0) if kind == "pnc" else 1.0
              for col, (kind, *_) in zip(cols, curves)]
    rows = min(max(1, _BLOCK // m), f_vals.shape[0])
    total, x, t = (np.empty((rows, m)) for _ in range(3))
    power, arg = np.empty(f_vals.shape[0]), np.empty(f_vals.shape[0], dtype=int)
    # where target / f overflows, 0·inf at a silent entry prices NaN, which loses
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, f_vals.shape[0], rows):
            scales = target / f_vals[lo:lo + rows, None]
            tot, xb, tb = (buf[:scales.shape[0]] for buf in (total, x, t))
            for j, (col, shift, (kind, *c)) in enumerate(zip(cols, shifts, curves)):
                p = tb if j else tot
                np.exp2(np.multiply(scales, col, out=p), out=xb)
                np.subtract(xb, shift, out=p)
                if kind == "pnc":
                    p *= c[0]
                elif kind == "dnc":  # t/a + (x·t)/b, with t = x - 1
                    np.divide(np.multiply(xb, p, out=xb), c[1], out=xb)
                    np.add(np.divide(p, c[0], out=p), xb, out=p)
                else:
                    p /= c[0]
                if j:
                    tot += p
            tot /= n
            arg[lo:lo + rows] = tot.argmin(axis=1)
            power[lo:lo + rows] = tot[np.arange(tot.shape[0]), arg[lo:lo + rows]]
    return power, arg


def _refined_phase(shapes0: np.ndarray, f_vals: np.ndarray, target: float,
                   curves: list, grid: GridSpec):
    """Per-fraction phase minima over the base grid plus local lattice passes.

    The coarse shape grid limits accuracy to a few tenths of a percent, far
    too loose to certify the solver to 1e-3. Each round builds an additive
    lattice around every shape that is currently the minimizer for some
    fraction, renormalizes, and merges the improved minima; the step
    shrinks geometrically, so a few rounds buy two extra digits without
    touching the solver. Returns (shape store, per-f power minima, per-f
    argmin indices into the store).
    """
    n, store = shapes0.shape[1], shapes0
    power, arg = _phase_minima(shapes0, f_vals, target, curves)
    offsets = np.stack([g.ravel() for g in np.meshgrid(
        *([np.arange(-grid.refine_span, grid.refine_span + 1)] * n),
        indexing="ij")], axis=1).astype(float)
    step = grid.refine_step
    for _ in range(grid.refine_rounds):
        bases = _unique_rows(store[np.unique(arg)])
        cand = (bases[:, None, :] + step * offsets[None, :, :]).reshape(-1, n)
        np.maximum(cand, 0.0, out=cand)
        means = cand.mean(axis=1)
        keep = means > 0.0
        cand = cand[keep] / means[keep, None]
        cand = _unique_rows(np.round(cand, 12))
        p_new, a_new = _phase_minima(cand, f_vals, target, curves)
        better = p_new < power
        power[better], arg[better] = p_new[better], a_new[better] + store.shape[0]
        store = np.concatenate([store, cand], axis=0)
        step *= grid.refine_shrink
    return store, power, arg


@dataclass(frozen=True)
class ProbeResult:
    passed: bool
    worst_violation: float
    worst_pair: tuple = field(default=())


def midpoint_convexity_probe(fn: Callable[[float, float], float],
                             t_range: tuple[float, float],
                             f_range: tuple[float, float],
                             samples: int, seed: int,
                             tol: float = 1e-12) -> ProbeResult:
    """Sample midpoint convexity of fn(T, f) over a box.

    Draws `samples` point pairs with a seeded generator and checks
    fn(midpoint) <= (fn(a) + fn(b))/2 + tol. Returns the worst violation
    and the pair that produced it; a convex function passes with zero
    violations, and a concave control must fail.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    t_lo, t_hi = t_range
    f_lo, f_hi = f_range
    if not (t_lo <= t_hi and 0.0 < f_lo <= f_hi):
        raise ValueError("bad probe box")
    rng = np.random.default_rng(seed)
    t = rng.uniform(t_lo, t_hi, size=(samples, 2))
    f = rng.uniform(f_lo, f_hi, size=(samples, 2))
    worst = -math.inf
    worst_pair: tuple = ()
    for k in range(samples):
        a = (t[k, 0], f[k, 0])
        b = (t[k, 1], f[k, 1])
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        gap = fn(*mid) - 0.5 * (fn(*a) + fn(*b))
        if gap > worst:
            worst = gap
            worst_pair = (a, b)
    return ProbeResult(passed=worst <= tol, worst_violation=worst, worst_pair=worst_pair)
