"""Hardware cost, power draw and energy efficiency accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx import econ
from asymx.econ import (
    ARCHITECTURES,
    Architecture,
    _parts,
    cost,
    energy_efficiency,
    power,
)

M, N = 128, 16


def arch(kind, m=M, n=N):
    if kind == "dbm":
        return Architecture("dbm", m, m)
    return Architecture(kind, m, n)


# hand-derived from the per-architecture bill of materials at M=128, N=16
EXPECTED_COST = {
    "adbn": 52_432,
    "dbm": 124_672,
    "hbfn": 382_208,
    "hbsn": 55_808,
}


def test_cost_exact_integers():
    for kind, expected in EXPECTED_COST.items():
        assert cost(arch(kind)) == expected


def test_cost_ordering_at_m128_n16():
    c = {kind: cost(arch(kind)) for kind in ARCHITECTURES}
    assert c["adbn"] < c["hbsn"] < c["dbm"] < c["hbfn"]


def test_power_values_and_ordering():
    p = {kind: power(arch(kind)) for kind in ARCHITECTURES}
    assert p["adbn"] == pytest.approx(790.9333333, abs=1e-4)
    assert p["dbm"] > p["adbn"] > p["hbsn"]
    assert p["hbsn"] == pytest.approx(p["hbfn"], rel=1e-12)


def side_watts(a):
    """(transmit side, receive side) power draw of one architecture."""
    return tuple(sum(econ._PRICES[part][1] * count
                     for part, count in side.items()) for side in _parts(a))


def test_power_slot_ratio_limits():
    # all-uplink duty would power only the receive side, all-downlink duty
    # only the transmit side; the fixed share eps = 1/3 lies between
    a = arch("adbn")
    tx_only, rx_only = side_watts(a)
    assert rx_only < power(a) < tx_only
    assert power(a) == pytest.approx(
        (1.0 - econ.SLOT_RATIO) * tx_only + econ.SLOT_RATIO * rx_only,
        rel=1e-12)


def test_cost_sensitivity_to_adc_price():
    # the cost moves with the ADC price by the ADC count: one per receive
    # chain, N on the asymmetrical and hybrid designs and M on dbm
    for kind, chains in (("adbn", N), ("dbm", M), ("hbfn", N), ("hbsn", N)):
        tx, rx = _parts(arch(kind))
        assert (tx.get("adc", 0), rx["adc"]) == (0, chains), kind


def test_cost_sensitivity_to_phase_shifter_price():
    # fully and partially connected networks differ only in shifter count,
    # M * N against M, which the shifter price multiplies
    full_tx, full_rx = _parts(arch("hbfn"))
    sub_tx, sub_rx = _parts(arch("hbsn"))
    assert full_tx["phase_shifter"] == full_rx["phase_shifter"] == M * N
    assert sub_tx["phase_shifter"] == sub_rx["phase_shifter"] == M
    assert {**full_tx, "phase_shifter": M} == sub_tx
    assert {**full_rx, "phase_shifter": M} == sub_rx
    assert all("phase_shifter" not in side for side in _parts(arch("adbn")))


def test_energy_efficiency_formula():
    # eps = 1/3 of the slots uplink, over 500 MHz
    ee = energy_efficiency(30.0, 60.0, 500.0)
    expected = (30.0 / 3.0 + 60.0 * 2.0 / 3.0) * 500e6 / 500.0
    assert ee == pytest.approx(expected, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    up=st.floats(0.0, 200.0),
    down=st.floats(0.0, 200.0),
)
def test_energy_efficiency_bounds(up, down):
    ee = energy_efficiency(up, down, 790.9)
    lo, hi = sorted((up, down))
    assert lo * 500e6 / 790.9 - 1e-6 <= ee <= hi * 500e6 / 790.9 + 1e-6


@pytest.mark.parametrize("power_bs", [np.nan, np.inf, 0.0])
def test_energy_efficiency_rejects_bad_power(power_bs):
    with pytest.raises(ValueError, match="BS power"):
        energy_efficiency(30.0, 60.0, power_bs)


@pytest.mark.parametrize("se_uplink, se_downlink", [
    (np.nan, 60.0), (np.inf, 60.0), (-1.0, 60.0),
    (30.0, np.nan), (30.0, np.inf), (30.0, -1.0),
])
def test_energy_efficiency_rejects_bad_spectral_efficiency(se_uplink,
                                                          se_downlink):
    # NaN and inf used to pass straight through to the bits per joule
    with pytest.raises(ValueError, match="spectral efficiency"):
        energy_efficiency(se_uplink, se_downlink, 500.0)


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture("warp", M, N)
    with pytest.raises(ValueError):
        Architecture("adbn", 16, 32)
    with pytest.raises(ValueError):
        Architecture("adbn", 0, 0)
    with pytest.raises(ValueError):
        Architecture("hbfn", M, 0)
    # integral floats are refused as AntennaSelection refuses them; NumPy
    # integers pass
    for m, n in ((8.5, 4), (8.0, 4), (M, 16.0), (np.inf, N), (M, np.nan)):
        with pytest.raises(ValueError, match="positive integers"):
            Architecture("adbn", m, n)
    assert cost(Architecture("adbn", np.int64(M), np.int32(N))) == \
        EXPECTED_COST["adbn"]


def test_price_table_prices_every_part():
    # cost() reads a part's count only through the table, so a part that
    # _parts names but the table lacks would cost nothing
    named = {part for kind in ARCHITECTURES for side in _parts(arch(kind))
             for part in side}
    assert named == set(econ._PRICES)
    for usd, watts in econ._PRICES.values():
        assert 0.0 <= usd < np.inf and 0.0 <= watts < np.inf


def test_dbm_must_be_square():
    with pytest.raises(ValueError):
        Architecture("dbm", M, N)


def test_architecture_is_frozen():
    a = arch("adbn")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.num_transmit = 64


def test_power_is_positive_everywhere():
    # each side draws power, so any slot share would give a positive draw
    for kind in ARCHITECTURES:
        assert min(side_watts(arch(kind))) > 0
        assert power(arch(kind)) > 0


def test_cost_monotone_in_receive_chains():
    assert cost(Architecture("adbn", M, 32)) > cost(Architecture("adbn", M, 16))
    assert cost(Architecture("hbfn", M, 32)) > cost(Architecture("hbfn", M, 16))


# Values computed by the per-architecture formulas that the part table
# replaced, frozen so that the table must reproduce them.
_EPS = (0.0, 1.0 / 3.0, 0.5, 1.0)
FROZEN = {
    # (M, N, kind): (cost, power at each slot ratio in _EPS)
    (128, 16, "adbn"): (52432.0, (1145.6, 790.9333333333334,
                                  613.5999999999999, 81.6)),
    (128, 16, "dbm"): (124672.0, (1145.6, 981.3333333333333,
                                  899.1999999999999, 652.8)),
    (128, 16, "hbfn"): (382208.0, (663.36, 485.4933333333334, 396.56,
                                   129.76)),
    (128, 16, "hbsn"): (55808.0, (663.36, 485.4933333333334, 396.56,
                                  129.76)),
    (128, 32, "adbn"): (62752.0, (1145.6, 818.1333333333333, 654.4, 163.2)),
    (128, 32, "dbm"): (124672.0, (1145.6, 981.3333333333333,
                                  899.1999999999999, 652.8)),
    (128, 32, "hbfn"): (743808.0, (734.0799999999999, 557.5466666666666,
                                   469.28, 204.48000000000002)),
    (128, 32, "hbsn"): (69248.0, (734.0799999999999, 557.5466666666666,
                                  469.28, 204.48000000000002)),
    (64, 8, "adbn"): (26216.0, (572.8, 395.4666666666667,
                                306.79999999999995, 40.8)),
    (64, 8, "dbm"): (62336.0, (572.8, 490.66666666666663,
                               449.59999999999997, 326.4)),
    (64, 8, "hbfn"): (104064.0, (331.68, 242.7466666666667, 198.28, 64.88)),
    (64, 8, "hbsn"): (27904.0, (331.68, 242.7466666666667, 198.28, 64.88)),
}

# Parts bought per architecture, the cost change per unit price, in the
# order pa, pa_driver, lna, switch, mixer, lo_amp, phase_shifter, if_tx,
# if_rx, dac, adc.
_ORDER = ("pa", "pa_driver", "lna", "switch", "mixer", "lo_amp",
          "phase_shifter", "if_tx", "if_rx", "dac", "adc")
FROZEN_COUNTS = {
    (128, 16, "adbn"): (128, 128, 16, 16, 128, 128, 0, 128, 16, 128, 16),
    (128, 16, "dbm"): (128,) * 6 + (0,) + (128,) * 4,
    (128, 16, "hbfn"): (128, 128, 128, 256, 16, 16, 2048, 16, 16, 16, 16),
    (128, 16, "hbsn"): (128, 128, 128, 256, 16, 16, 128, 16, 16, 16, 16),
    (128, 32, "adbn"): (128, 128, 32, 32, 128, 128, 0, 128, 32, 128, 32),
    (128, 32, "dbm"): (128,) * 6 + (0,) + (128,) * 4,
    (128, 32, "hbfn"): (128, 128, 128, 256, 32, 32, 4096, 32, 32, 32, 32),
    (128, 32, "hbsn"): (128, 128, 128, 256, 32, 32, 128, 32, 32, 32, 32),
    (64, 8, "adbn"): (64, 64, 8, 8, 64, 64, 0, 64, 8, 64, 8),
    (64, 8, "dbm"): (64,) * 6 + (0,) + (64,) * 4,
    (64, 8, "hbfn"): (64, 64, 64, 128, 8, 8, 512, 8, 8, 8, 8),
    (64, 8, "hbsn"): (64, 64, 64, 128, 8, 8, 64, 8, 8, 8, 8),
}


@pytest.mark.parametrize("m, n, kind", sorted(FROZEN))
def test_cost_and_power_match_frozen_formulas(m, n, kind):
    a = arch(kind, m, n)
    expected_cost, expected_power = FROZEN[m, n, kind]
    assert cost(a) == expected_cost
    tx, rx = side_watts(a)
    for eps, expected in zip(_EPS, expected_power):
        assert (1.0 - eps) * tx + eps * rx == pytest.approx(expected,
                                                           rel=1e-12)
    assert power(a) == pytest.approx(expected_power[1], rel=1e-12)


@pytest.mark.parametrize("m, n, kind", sorted(FROZEN_COUNTS))
def test_unit_price_rise_adds_the_frozen_part_count(m, n, kind, monkeypatch):
    assert set(_ORDER) == set(econ._PRICES)
    a = arch(kind, m, n)
    base = cost(a)
    for part, count in zip(_ORDER, FROZEN_COUNTS[m, n, kind]):
        usd, watts = econ._PRICES[part]
        with monkeypatch.context() as patch:
            patch.setitem(econ._PRICES, part, (usd + 1.0, watts))
            assert cost(a) - base == count, part
