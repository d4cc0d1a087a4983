"""Link level simulator for asymmetrical transceiver massive MIMO.

A basestation transmits on all M antennas but receives on only N < M of
them through an antenna selection network.  This package models the
resulting uplink/downlink channel inconsistency and implements the two
estimate transfer algorithms that rebuild the full downlink channel from
the subsampled uplink estimate, plus the spectral efficiency, hardware
cost, power and energy efficiency accounting needed to compare the
architecture against conventional full digital and hybrid basestations.

The exported names are what the paper's experiments need: channels and
paths, selections (which also carry the array's element count M), the two
transfers, the uplink and downlink layers, the cost/power/EE model, and
recipes with ``run``.  Helpers behind them stay in their modules.
"""

from .arrays import (
    SELECTION_KINDS,
    AntennaSelection,
    angular_resolution,
    array_factor,
    select_comb,
    select_random,
    select_successive,
)
from .channel import (
    PathSet,
    downlink_channel,
    draw_path_set,
    steering_downlink,
    steering_masked,
    uplink_channel,
    user_channels,
)
from .config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_from_values,
    load_config_values,
)
from .downlink import downlink_se, mrt_precoder, nmse, nmse_db, zf_precoder
from .econ import Architecture, cost, energy_efficiency, power
from .harness import ExperimentResult, run, seed_stream
from .transfer import (
    TransferConfig,
    TransferResult,
    default_threshold,
    dft_transfer,
    mnomp_transfer,
)
from .uplink import (
    PilotBlock,
    SnrLossInputs,
    composite_angle,
    estimate_lmmse,
    estimate_ls,
    generate_pilots,
    make_selection,
    received_pilot,
    resolved_path_count,
    snr_loss_closed_form,
    snr_loss_numeric,
    uplink_sinr,
)

__version__ = "0.1.0"

__all__ = [
    # channels and paths
    "PathSet",
    "draw_path_set",
    "uplink_channel",
    "downlink_channel",
    "user_channels",
    "steering_downlink",
    "steering_masked",
    # selections
    "SELECTION_KINDS",
    "AntennaSelection",
    "select_successive",
    "select_comb",
    "select_random",
    "make_selection",
    "array_factor",
    "angular_resolution",
    # the two transfers
    "TransferConfig",
    "TransferResult",
    "default_threshold",
    "dft_transfer",
    "mnomp_transfer",
    # uplink: pilots, estimation, SINR, and the steering loss of merged paths
    "PilotBlock",
    "generate_pilots",
    "received_pilot",
    "estimate_ls",
    "estimate_lmmse",
    "uplink_sinr",
    "SnrLossInputs",
    "snr_loss_closed_form",
    "snr_loss_numeric",
    "composite_angle",
    "resolved_path_count",
    # downlink: precoding, spectral efficiency, NMSE
    "mrt_precoder",
    "zf_precoder",
    "downlink_se",
    "nmse",
    "nmse_db",
    # cost, power and energy efficiency
    "Architecture",
    "cost",
    "power",
    "energy_efficiency",
    # recipes and runs
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "config_from_values",
    "load_config_values",
    "ExperimentResult",
    "run",
    "seed_stream",
    "__version__",
]
