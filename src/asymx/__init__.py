"""Link level simulator for asymmetrical transceiver massive MIMO.

A basestation transmits on all M antennas but receives on only N < M of
them through an antenna selection network.  This package models the
resulting uplink/downlink channel inconsistency and implements the two
estimate transfer algorithms that rebuild the full downlink channel from
the subsampled uplink estimate, plus the spectral efficiency, hardware
cost, power and energy efficiency accounting needed to compare the
architecture against conventional full digital and hybrid basestations.
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
    ArrayGeometry,
    PathSet,
    downlink_channel,
    draw_path_set,
    steering_downlink,
    steering_masked,
    steering_uplink,
    uplink_channel,
    user_channels,
)
from .config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_from_values,
    load_config_values,
    parse_config_text,
)
from .downlink import (
    Precoder,
    downlink_se,
    downlink_sinr,
    mrt_precoder,
    nmse,
    nmse_db,
    zf_precoder,
)
from .econ import (
    ARCHITECTURES,
    COMPONENTS,
    Architecture,
    HardwareProfile,
    cost,
    energy_efficiency,
    power,
)
from .harness import ExperimentResult, run, seed_stream
from .transfer import (
    TransferConfig,
    TransferResult,
    bin_to_spatial_freq,
    default_threshold,
    dft_transfer,
    find_peaks,
    mnomp_transfer,
    spatial_matched_filter,
)
from .uplink import (
    PilotBlock,
    SnrLossInputs,
    composite_angle,
    dirichlet_ratio,
    estimate_lmmse,
    estimate_ls,
    generate_pilots,
    make_selection,
    received_pilot,
    resolved_path_count,
    snr_loss_closed_form,
    snr_loss_numeric,
    steered_response,
    uplink_sinr,
)

__version__ = "0.1.0"

__all__ = [
    "SELECTION_KINDS",
    "AntennaSelection",
    "angular_resolution",
    "array_factor",
    "select_comb",
    "select_random",
    "select_successive",
    "ArrayGeometry",
    "PathSet",
    "downlink_channel",
    "draw_path_set",
    "steering_downlink",
    "steering_masked",
    "steering_uplink",
    "uplink_channel",
    "user_channels",
    "Precoder",
    "downlink_se",
    "downlink_sinr",
    "mrt_precoder",
    "nmse",
    "nmse_db",
    "zf_precoder",
    "ARCHITECTURES",
    "COMPONENTS",
    "Architecture",
    "HardwareProfile",
    "cost",
    "energy_efficiency",
    "power",
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "config_from_values",
    "load_config_values",
    "parse_config_text",
    "run",
    "seed_stream",
    "TransferConfig",
    "TransferResult",
    "bin_to_spatial_freq",
    "default_threshold",
    "dft_transfer",
    "find_peaks",
    "mnomp_transfer",
    "spatial_matched_filter",
    "PilotBlock",
    "SnrLossInputs",
    "composite_angle",
    "dirichlet_ratio",
    "estimate_lmmse",
    "estimate_ls",
    "generate_pilots",
    "make_selection",
    "received_pilot",
    "resolved_path_count",
    "snr_loss_closed_form",
    "snr_loss_numeric",
    "steered_response",
    "uplink_sinr",
    "__version__",
]
