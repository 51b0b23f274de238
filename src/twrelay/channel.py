"""Fading channel states for a two-way relay network.

Two sources exchange data through a relay; there is no direct link. A
channel state holds the four link power gains of one block-fading
realization. Noise power is normalized to 1 everywhere, so received SNR
is transmit power times gain.

A draw of n states is a `States`: four read-only float64 columns,
validated once, that reads as a sequence of `ChannelState`s. Sampling,
loading and saving work on the columns, and so does the solver
(`as_states` turns any sequence of states into them), so no per-state
object is built unless one is indexed. A `States` also keeps what the
solver derives from its gains, built on first use; the gains are
read-only, so those values never go stale.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

RAYLEIGH = "rayleigh"
DETERMINISTIC = "deterministic"

CSV_FIELDS = ("g1r", "g2r", "gr1", "gr2")


@dataclass(frozen=True)
class ChannelState:
    """One fading realization: four positive link power gains (linear scale).

    g1r, g2r are the source-to-relay (uplink) gains; gr1, gr2 the
    relay-to-source (downlink) gains.
    """

    g1r: float
    g2r: float
    gr1: float
    gr2: float

    def __post_init__(self):
        for name in CSV_FIELDS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"channel gain {name} must be positive and finite, got {v!r}")

    @property
    def g_mr(self) -> float:
        """Weaker uplink gain, min(g1r, g2r)."""
        return min(self.g1r, self.g2r)

    @property
    def g_Mr(self) -> float:
        """Stronger uplink gain, max(g1r, g2r)."""
        return max(self.g1r, self.g2r)

    @property
    def g_rm(self) -> float:
        """Weakest downlink gain, min(gr1, gr2); it limits the broadcast rate."""
        return min(self.gr1, self.gr2)


class States(Sequence[ChannelState]):
    """n channel states as four read-only float64 columns.

    The columns are the attributes g1r, g2r, gr1, gr2, and g_mr, g_Mr,
    g_rm are their elementwise counterparts of the `ChannelState`
    accessors. As a sequence it behaves like a list of `ChannelState`s:
    an index builds one, a slice or an index array gives a `States`, and it
    compares equal to any sequence of equal states. Every gain must be
    positive and finite; the first state that breaks this is named in the
    ValueError.

    `_derived` holds what `allocation` derives from the gains, filled on
    first use and kept as long as the `States`; a slice or an index array
    starts with it empty.
    """

    __slots__ = ("_gains", "_derived")

    def __init__(self, g1r, g2r, gr1, gr2):
        gains = np.array([g1r, g2r, gr1, gr2], dtype=float)
        if gains.ndim != 2:
            raise ValueError("gain columns must be one-dimensional and of equal length")
        _check_gains(gains, "state {}".format)
        gains.flags.writeable = False
        self._gains = gains
        self._derived = {}

    @classmethod
    def _wrap(cls, gains: np.ndarray) -> "States":
        """A `States` on validated (4, n) gains, made read-only, without a copy."""
        gains.flags.writeable = False
        out = cls.__new__(cls)
        out._gains = gains
        out._derived = {}
        return out

    g1r = property(lambda self: self._gains[0], doc="Source 1 to relay gains.")
    g2r = property(lambda self: self._gains[1], doc="Source 2 to relay gains.")
    gr1 = property(lambda self: self._gains[2], doc="Relay to source 1 gains.")
    gr2 = property(lambda self: self._gains[3], doc="Relay to source 2 gains.")

    @property
    def g_mr(self) -> np.ndarray:
        """Weaker uplink gains, min(g1r, g2r)."""
        return np.minimum(self.g1r, self.g2r)

    @property
    def g_Mr(self) -> np.ndarray:
        """Stronger uplink gains, max(g1r, g2r)."""
        return np.maximum(self.g1r, self.g2r)

    @property
    def g_rm(self) -> np.ndarray:
        """Weakest downlink gains, min(gr1, gr2)."""
        return np.minimum(self.gr1, self.gr2)

    def __len__(self) -> int:
        return self._gains.shape[1]

    def __getitem__(self, key):
        if isinstance(key, (slice, np.ndarray)):
            return States._wrap(self._gains[:, key])
        return ChannelState(*self._gains[:, operator.index(key)].tolist())

    def __iter__(self):
        for row in self._gains.T.tolist():
            yield ChannelState(*row)

    def __eq__(self, other):
        if isinstance(other, States):
            return np.array_equal(self._gains, other._gains)
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"States(n={len(self)})"


def _check_gains(gains: np.ndarray, where) -> None:
    """Refuse (4, n) gains holding one that is not positive and finite.

    The error is `ChannelState`'s for the first such state, after
    where(its index).
    """
    bad = ~((gains > 0.0) & (gains < math.inf)).all(axis=0)
    if bad.any():
        i = int(bad.argmax())
        try:
            ChannelState(*gains[:, i].tolist())
        except ValueError as err:
            raise ValueError(f"{where(i)}: {err}") from None


def as_states(states: Sequence[ChannelState]) -> States:
    """`states` as columns; a `States` comes back as it is."""
    if isinstance(states, States):
        return states
    return States(*np.array([[s.g1r, s.g2r, s.gr1, s.gr2] for s in states],
                            dtype=float).reshape(-1, 4).T)


@dataclass(frozen=True)
class FadingModel:
    """Sampling recipe for channel states.

    kind="rayleigh" draws i.i.d. unit-mean Rayleigh block fading, so the
    power gains are i.i.d. exponential with mean 1. kind="deterministic"
    replays the fixed state list in `states`. With reciprocal=True each
    downlink gain is forced equal to the matching uplink gain after
    sampling (gr1 := g1r, gr2 := g2r).
    """

    kind: str = RAYLEIGH
    reciprocal: bool = True
    states: tuple[ChannelState, ...] = ()

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, DETERMINISTIC):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        object.__setattr__(self, "states", tuple(self.states))
        if self.kind == DETERMINISTIC and not self.states:
            raise ValueError("deterministic fading model needs a non-empty state list")


def sample_states(n: int, seed: int, model: FadingModel = FadingModel()) -> States:
    """Draw `n` channel states, bit-reproducible for fixed (n, seed, model).

    RNG discipline: numpy's default generator (PCG64) seeded with `seed`
    produces one exponential(mean 1) block of shape (n, 4) in row-major
    order, columns ordered (g1r, g2r, gr1, gr2). Reciprocity then
    overwrites the downlink columns. A deterministic model ignores the
    seed and returns its state list as columns; `n` must match its length.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"the number of states must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"need n >= 1 states, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if model.kind == DETERMINISTIC:
        if n != len(model.states):
            raise ValueError(
                f"deterministic model has {len(model.states)} states but {n} were requested"
            )
        return as_states(model.states)
    rng = np.random.default_rng(seed)
    gains = rng.exponential(1.0, size=(n, 4))
    if model.reciprocal:
        gains[:, 2] = gains[:, 0]
        gains[:, 3] = gains[:, 1]
    return States(*gains.T)


_CSV_ROW = "{:.17g},{:.17g},{:.17g},{:.17g}\r\n"


def save_states(states: Sequence[ChannelState], path) -> None:
    """Write states as CSV with header g1r,g2r,gr1,gr2.

    Gains are printed with 17 significant digits so a reload reproduces
    the float64 values exactly. Lines end in CRLF, as `csv` writes them.
    """
    gains = as_states(states)._gains.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_FIELDS) + "\r\n")
        fh.writelines(map(_CSV_ROW.format, *gains))


def load_states(path) -> States:
    """Read channel states from a CSV file written by `save_states`.

    Raises ValueError with the offending row number on malformed or
    nonpositive entries, and on an empty data section. Row numbers count
    the header as row 1 and blank rows as rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(CSV_FIELDS)}")
        linenos, cells = [], []
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: row {lineno}: expected 4 fields, got {len(row)}")
            linenos.append(lineno)
            cells += row
    if not linenos:
        raise ValueError(f"{path}: no data rows")
    try:
        values = list(map(float, cells))
    except ValueError:
        # row by row, so the first bad row is reported whatever is wrong in it
        for k, lineno in enumerate(linenos):
            row = cells[4 * k:4 * k + 4]
            try:
                gains = [float(c) for c in row]
            except ValueError:
                raise ValueError(f"{path}: row {lineno}: non-numeric gain in {row!r}") from None
            _check_rows(path, [lineno], gains)
    return States._wrap(_check_rows(path, linenos, values))


def _check_rows(path, linenos: list[int], values: list[float]) -> np.ndarray:
    """(4, n) gains of the rows, or ValueError naming the first bad row."""
    gains = np.array(values, dtype=float).reshape(-1, 4).T.copy()
    _check_gains(gains, lambda i: f"{path}: row {linenos[i]}")
    return gains
