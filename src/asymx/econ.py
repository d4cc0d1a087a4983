"""Hardware cost, power draw, and energy efficiency of BS architectures.

Four base stations are compared at matched antenna count M:

* ``adbn`` - asymmetrical full digital: M transmit chains, N receive chains.
* ``dbm``  - conventional full digital: every element has both chains.
* ``hbfn`` - full-connected hybrid: N RF chains behind an M*N phase network.
* ``hbsn`` - subarray hybrid: N RF chains, one phase shifter per element.

Costs follow the per-architecture bills of materials below.  Power weights
the transmit-side components by the downlink slot share (1 - eps) and the
receive side by the uplink share eps; mixers and LO amplifiers are active on
both sides and appear in both groups with that side's chain count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

COMPONENTS = (
    "pa",
    "pa_driver",
    "lna",
    "switch",
    "mixer",
    "lo_amp",
    "phase_shifter",
    "if_tx",
    "if_rx",
    "dac",
    "adc",
)

# 28 GHz testbed reference numbers: USD per part, watts per part.
_DEFAULT_COST = {
    "pa": 50.0,
    "pa_driver": 30.0,
    "lna": 27.0,
    "switch": 27.0,
    "mixer": 24.0,
    "lo_amp": 30.0,
    "phase_shifter": 170.0,
    "if_tx": 140.0,
    "if_rx": 140.0,
    "dac": 55.0,
    "adc": 451.0,
}
_DEFAULT_POWER = {
    "pa": 3.68,
    "pa_driver": 0.85,
    "lna": 0.33,
    "switch": 0.10,
    "mixer": 0.0,
    "lo_amp": 0.60,
    "phase_shifter": 0.0,
    "if_tx": 1.75,
    "if_rx": 1.25,
    "dac": 2.07,
    "adc": 2.82,
}

ARCHITECTURES = ("adbn", "dbm", "hbfn", "hbsn")


@dataclass(frozen=True)
class HardwareProfile:
    """Per-component cost (USD) and power (W) table."""

    cost_usd: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_COST))
    power_w: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_POWER))

    def __post_init__(self) -> None:
        for table, label in ((self.cost_usd, "cost"), (self.power_w, "power")):
            missing = set(COMPONENTS) - set(table)
            if missing:
                raise ValueError(f"{label} table missing {sorted(missing)}")
            if any(v < 0 for v in table.values()):
                raise ValueError(f"{label} entries must be non-negative")


@dataclass(frozen=True)
class Architecture:
    """BS architecture kind with its antenna/RF-chain counts."""

    kind: str
    num_transmit: int
    num_receive: int

    def __post_init__(self) -> None:
        if self.kind not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.kind!r}")
        if self.num_transmit < 1 or self.num_receive < 1:
            raise ValueError("antenna counts must be positive")
        if self.num_receive > self.num_transmit:
            raise ValueError("num_receive cannot exceed num_transmit")
        if self.kind == "dbm" and self.num_receive != self.num_transmit:
            raise ValueError(
                "full digital BS pairs a receive chain with every antenna")


def cost(arch: Architecture, profile: HardwareProfile | None = None) -> float:
    """Bill-of-materials cost in USD."""
    p = (profile or HardwareProfile()).cost_usd
    m, n = arch.num_transmit, arch.num_receive
    if arch.kind == "adbn":
        return m * (
            p["pa"] + p["pa_driver"] + p["mixer"] + p["lo_amp"] + p["if_tx"]
            + p["dac"]
        ) + n * (p["lna"] + p["switch"] + p["if_rx"] + p["adc"])
    if arch.kind == "dbm":
        return m * (
            p["pa"] + p["pa_driver"] + p["lna"] + p["switch"] + p["mixer"]
            + p["lo_amp"] + p["if_tx"] + p["if_rx"] + p["adc"] + p["dac"]
        )
    if arch.kind == "hbfn":
        return (
            m * (p["pa"] + p["pa_driver"] + p["lna"] + 2 * p["switch"])
            + m * n * p["phase_shifter"]
            + n * (
                p["mixer"] + p["lo_amp"] + p["if_tx"] + p["if_rx"] + p["adc"]
                + p["dac"]
            )
        )
    # hbsn: one phase shifter per element instead of a full network
    return (
        m * (
            p["pa"] + p["pa_driver"] + p["lna"] + 2 * p["switch"]
            + p["phase_shifter"]
        )
        + n * (
            p["mixer"] + p["lo_amp"] + p["if_tx"] + p["if_rx"] + p["adc"]
            + p["dac"]
        )
    )


def power(
    arch: Architecture,
    profile: HardwareProfile | None = None,
    slot_ratio: float = 1.0 / 3.0,
) -> float:
    """Slot-weighted power draw in watts.

    Transmit-side components are active during the downlink share (1 - eps)
    of slots, receive-side during the uplink share eps.  Mixer/LO amp serve
    both directions and are counted on each side with that side's chain
    count.
    """
    if not 0.0 <= slot_ratio <= 1.0:
        raise ValueError("slot ratio must lie in [0, 1]")
    p = (profile or HardwareProfile()).power_w
    m, n = arch.num_transmit, arch.num_receive
    tx_share = 1.0 - slot_ratio
    rx_share = slot_ratio
    tx_chain = (
        p["pa"] + p["pa_driver"] + p["mixer"] + p["lo_amp"] + p["if_tx"]
        + p["dac"]
    )
    rx_chain = (
        p["lna"] + p["switch"] + p["mixer"] + p["lo_amp"] + p["if_rx"]
        + p["adc"]
    )
    if arch.kind == "adbn":
        return tx_share * m * tx_chain + rx_share * n * rx_chain
    if arch.kind == "dbm":
        return tx_share * m * tx_chain + rx_share * m * rx_chain
    # Hybrids: front ends per element (one T/R switch each side), RF chains
    # per stream; the phase network burns (zero) power in both directions.
    shifters = m * n if arch.kind == "hbfn" else m
    tx_hybrid = (
        m * (p["pa"] + p["pa_driver"] + p["switch"])
        + shifters * p["phase_shifter"]
        + n * (p["mixer"] + p["lo_amp"] + p["if_tx"] + p["dac"])
    )
    rx_hybrid = (
        m * (p["lna"] + p["switch"])
        + shifters * p["phase_shifter"]
        + n * (p["mixer"] + p["lo_amp"] + p["if_rx"] + p["adc"])
    )
    return tx_share * tx_hybrid + rx_share * rx_hybrid


def energy_efficiency(
    se_uplink: float,
    se_downlink: float,
    slot_ratio: float,
    power_bs: float,
    bandwidth_hz: float,
) -> float:
    """Bits per joule: slot-weighted SE times bandwidth over BS power."""
    if power_bs <= 0:
        raise ValueError("BS power must be positive")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    weighted = slot_ratio * se_uplink + (1.0 - slot_ratio) * se_downlink
    return weighted * bandwidth_hz / power_bs
