"""Hardware cost, power draw, and energy efficiency of BS architectures.

Four base stations are compared at matched antenna count M:

* ``adbn`` - asymmetrical full digital: M transmit chains, N receive chains.
* ``dbm``  - conventional full digital: every element has both chains.
* ``hbfn`` - full-connected hybrid: N RF chains behind an M*N phase network.
* ``hbsn`` - subarray hybrid: N RF chains, one phase shifter per element.

Each architecture is one bill of materials: the part counts of its transmit
side and of its receive side (``_parts``).  Cost and power are two
reductions of it.  Power weights the transmit side by the downlink slot
share (1 - eps) and the receive side by the uplink share eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrays import _is_count

# 28 GHz testbed reference numbers, fixed: (USD, W) per part.
_PRICES = {
    "pa": (50.0, 3.68),
    "pa_driver": (30.0, 0.85),
    "lna": (27.0, 0.33),
    "switch": (27.0, 0.10),
    "mixer": (24.0, 0.0),
    "lo_amp": (30.0, 0.60),
    "phase_shifter": (170.0, 0.0),
    "if_tx": (140.0, 1.75),
    "if_rx": (140.0, 1.25),
    "dac": (55.0, 2.07),
    "adc": (451.0, 2.82),
}
# Shared parts serve both directions: they are bought once, as many as the
# larger side needs, but draw power on each side with that side's count.
_SHARED = frozenset({"mixer", "lo_amp", "phase_shifter"})

ARCHITECTURES = ("adbn", "dbm", "hbfn", "hbsn")

# The uplink's slot share eps and the bandwidth of the ee experiment.
SLOT_RATIO = 1.0 / 3.0
BANDWIDTH_HZ = 500e6


@dataclass(frozen=True)
class Architecture:
    """BS architecture kind with its antenna/RF-chain counts."""

    kind: str
    num_transmit: int
    num_receive: int

    def __post_init__(self) -> None:
        if self.kind not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.kind!r}")
        counts = (self.num_transmit, self.num_receive)
        if not all(_is_count(c) and c >= 1 for c in counts):
            raise ValueError("antenna counts must be positive integers")
        if self.num_receive > self.num_transmit:
            raise ValueError("num_receive cannot exceed num_transmit")
        if self.kind == "dbm" and self.num_receive != self.num_transmit:
            raise ValueError(
                "full digital BS pairs a receive chain with every antenna")


def _parts(arch: Architecture) -> tuple[dict[str, int], dict[str, int]]:
    """(transmit side, receive side) part counts of one architecture."""
    m, n = arch.num_transmit, arch.num_receive
    if arch.kind in ("adbn", "dbm"):
        # one full chain per antenna; dbm is adbn with N = M
        return (
            dict.fromkeys(("pa", "pa_driver", "mixer", "lo_amp", "if_tx",
                           "dac"), m),
            dict.fromkeys(("lna", "switch", "mixer", "lo_amp", "if_rx",
                           "adc"), n),
        )
    # hybrids: a front end (with its T/R switch) per element on each side,
    # an RF chain per stream, and the phase network between them
    shifters = m * n if arch.kind == "hbfn" else m
    return (
        {**dict.fromkeys(("pa", "pa_driver", "switch"), m),
         **dict.fromkeys(("mixer", "lo_amp", "if_tx", "dac"), n),
         "phase_shifter": shifters},
        {**dict.fromkeys(("lna", "switch"), m),
         **dict.fromkeys(("mixer", "lo_amp", "if_rx", "adc"), n),
         "phase_shifter": shifters},
    )


def cost(arch: Architecture) -> float:
    """Bill-of-materials cost in USD."""
    tx, rx = _parts(arch)
    total = 0.0
    for part, (usd, _) in _PRICES.items():
        t, r = tx.get(part, 0), rx.get(part, 0)
        total += usd * (max(t, r) if part in _SHARED else t + r)
    return total


def power(arch: Architecture) -> float:
    """Slot-weighted power draw in watts: (1 - eps) tx + eps rx."""
    tx, rx = (sum(_PRICES[part][1] * count for part, count in side.items())
              for side in _parts(arch))
    return (1.0 - SLOT_RATIO) * tx + SLOT_RATIO * rx


def energy_efficiency(se_uplink: float, se_downlink: float,
                      power_bs: float) -> float:
    """Bits per joule: (eps SE_ul + (1 - eps) SE_dl) B / P, with eps the
    slot share ``SLOT_RATIO`` and B the bandwidth ``BANDWIDTH_HZ``."""
    if not (0.0 <= se_uplink < math.inf and 0.0 <= se_downlink < math.inf):
        raise ValueError("spectral efficiency must be non-negative and finite")
    if not 0.0 < power_bs < math.inf:
        raise ValueError("BS power must be positive and finite")
    weighted = SLOT_RATIO * se_uplink + (1.0 - SLOT_RATIO) * se_downlink
    return weighted * BANDWIDTH_HZ / power_bs
