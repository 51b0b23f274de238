"""Closed-form rate and power expressions for the two uplink strategies.

The relay can run physical-layer network coding (PNC), decoding the
bitwise XOR of both packets from the superimposed uplink signal, or
superposition-coding digital network coding (SPC-DNC), decoding both
packets separately and re-encoding their XOR. The downlink broadcast is
identical under both. All formulas assume unit noise power and symmetric
exchange rate R in bits per channel use.

With x = 2^R every power here is a (x - o) + b x (x - 1) (`curve_power`)
with the coefficients of `pnc_curve`, `dnc_curve` or `broadcast_curve`;
the solver in `allocation` works on the same coefficients.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .channel import ChannelState


class Mode(enum.Enum):
    """Per-state uplink strategy."""

    PNC = "pnc"
    SPCDNC = "spc-dnc"


def is_pnc(mode) -> bool:
    """Whether `mode` is `Mode.PNC`; anything not a `Mode`, such as "pnc", is refused."""
    if not isinstance(mode, Mode):
        raise ValueError(f"a strategy must be a Mode member, got {mode!r}")
    return mode is Mode.PNC


def _check_rate(rate: float) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate!r}")


def pnc_uplink_rate(snr: float) -> float:
    """Achievable XOR-decoding rate at the relay: max(0, log2(1/2 + snr)).

    Both sources must arrive at the same received SNR for the relay to
    decode the XOR, which is where the 1/2 offset (a 3 dB penalty against
    a point-to-point link) comes from.
    """
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr!r}")
    return max(0.0, math.log2(0.5 + snr))


def pnc_curve(g1r, g2r):
    """Coefficients (a, o, b) of the PNC sum power; elementwise on arrays."""
    return 1.0 / g1r + 1.0 / g2r, 0.5, 0.0


def dnc_curve(g_mr, g_Mr):
    """Coefficients (a, o, b) of the SPC-DNC sum power; elementwise on arrays."""
    return 1.0 / g_mr, 1.0, 1.0 / g_Mr


def broadcast_curve(g_rm):
    """Coefficients (a, o, b) of the relay broadcast power; elementwise on arrays."""
    return 1.0 / g_rm, 1.0, 0.0


def curve_power(x, a, o, b):
    """Power a (x - o) + b x (x - 1) at x = 2^R on the curve (a, o, b).

    The quadratic term is evaluated left to right, so b = 0 gives 0 rather
    than 0 * inf where x (x - 1) overflows.
    """
    return a * (x - o) + b * x * (x - 1.0)


def pnc_uplink_sum_power(rate: float, state: ChannelState) -> float:
    """Total source power for the PNC uplink at symmetric rate `rate`.

    Each source inverts its own link to reach the common received SNR
    2^R - 1/2, so the sum is (2^R - 1/2) * (1/g1r + 1/g2r).
    """
    _check_rate(rate)
    return curve_power(2.0 ** rate, *pnc_curve(state.g1r, state.g2r))


def dnc_uplink_user_powers(rate: float, state: ChannelState) -> tuple[float, float]:
    """Per-user powers (weak-link user, strong-link user) for the SPC-DNC uplink.

    The relay decodes both packets by successive cancellation. Decoding
    the strong-link user first and the weak-link user last is the cheaper
    order: the weak user is then interference-free at (2^R - 1)/g_mr while
    the strong user pays the interference burden 2^R (2^R - 1)/g_Mr. A tie
    in the uplink gains makes source 1 the weak user.
    """
    _check_rate(rate)
    x = 2.0 ** rate
    a, o, b = dnc_curve(state.g_mr, state.g_Mr)
    return curve_power(x, a, o, 0.0), curve_power(x, 0.0, o, b)


def dnc_uplink_sum_power(rate: float, state: ChannelState) -> float:
    """Total source power for the SPC-DNC uplink at symmetric rate `rate`."""
    weak, strong = dnc_uplink_user_powers(rate, state)
    return weak + strong


def downlink_power(rate: float, state: ChannelState) -> float:
    """Relay broadcast power (2^R - 1)/g_rm.

    The XOR packet must reach both sources, so the weaker downlink gain
    g_rm = min(gr1, gr2) sets the power. Same expression for both uplink
    strategies.
    """
    _check_rate(rate)
    return curve_power(2.0 ** rate, *broadcast_curve(state.g_rm))


def energy_gap(rate: float, state: ChannelState) -> float:
    """PNC minus SPC-DNC uplink sum power at the same rate.

    Negative means PNC is the cheaper uplink strategy in this state.
    Algebraically equals 2^R (2 - 2^R)/g_Mr + 1/(2 g_mr) - 1/(2 g_Mr).
    """
    _check_rate(rate)
    return pnc_uplink_sum_power(rate, state) - dnc_uplink_sum_power(rate, state)


def prefer_pnc(rate, state):
    """True when PNC needs no more uplink power than SPC-DNC (ties pick PNC).

    Closed form of energy_gap <= 0:

        1/(2 g_mr) - 1/(2 g_Mr) <= 2^R (2^R - 2) / g_Mr

    With equal uplink gains the left side vanishes and the criterion
    reduces to R >= 1. Elementwise: a scalar rate and a `ChannelState`
    give a bool, an array of rates and a `States` of the same length a
    boolean array.
    """
    if np.ndim(rate) == 0:
        _check_rate(rate)
        x = 2.0 ** float(rate)
    else:
        rate = np.asarray(rate, dtype=float)
        bad = ~((rate > 0.0) & (rate < math.inf))
        if bad.any():
            _check_rate(float(rate[bad][0]))
        # C pow per element, as for a scalar: numpy's power may take a SIMD
        # kernel whose last bit differs, which can flip a decision at the tie
        x = np.array([2.0 ** r for r in rate.tolist()])
    with np.errstate(over="ignore"):  # x (x - 2) overflows to inf, as a Python float does
        pick = 0.5 / state.g_mr - 0.5 / state.g_Mr <= x * (x - 2.0) / state.g_Mr
    return bool(pick) if np.ndim(pick) == 0 else pick
