"""Experiment recipes: parsing, coercion and validation of ExperimentConfig.

Config files are flat ``key = value`` text with ``#`` comments and an
``include <path>`` directive (resolved relative to the including file;
later keys override earlier ones).  Comma-separated values feed the
sweepable list fields.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import SELECTION_KINDS, _is_count
from .transfer import _OVERSAMPLING, TransferConfig

EXPERIMENTS = (
    "beam-pattern",
    "snr-loss",
    "transfer-nmse",
    "se",
    "ee",
    "cost-table",
)
SYSTEMS = ("asym", "full_digital_m", "full_digital_n", "perfect_csi_m")
_EE_SYSTEMS = ("asym", "full_digital_m", "full_digital_n")

# Rules that read one field each; ExperimentConfig holds every entry of a
# list field to them.  The allowed values of each str field:
_CHOICES = {
    "experiment": EXPERIMENTS,
    "selection": SELECTION_KINDS,
    "algorithm": tuple(_OVERSAMPLING),
    "detector": ("mrc", "zf"),
    "precoder": ("mrt", "zf"),
    "estimator": ("ls", "lmmse", "perfect"),
    "link": ("uplink", "downlink"),
    "systems": SYSTEMS,
}
# The least value of each count:
_LEAST = {
    **dict.fromkeys(("num_transmit", "num_receive", "num_users",
                     "paths_per_user", "trials", "workers"), 1),
    "newton_rounds": 0,
    "master_seed": 0,
    "phase_points": 2,
    "grid_points": 16,
}


class ConfigError(ValueError):
    """Config-file or config-field problem, with the offending field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; list-valued fields sweep."""

    experiment: str
    num_transmit: int = 128
    num_receive: tuple[int, ...] = (32,)
    num_users: int = 10
    paths_per_user: int = 3
    path_powers: tuple[float, ...] | None = None
    selection: tuple[str, ...] = ("random",)
    algorithm: tuple[str, ...] = ("mnomp",)
    snr_db: tuple[float, ...] = (10.0,)
    trials: int = 1000
    newton_rounds: int = TransferConfig.newton_rounds
    detector: str = "zf"
    precoder: str = "zf"
    estimator: str = "lmmse"
    link: str = "downlink"
    systems: tuple[str, ...] = SYSTEMS
    master_seed: int = 0
    phase_points: int = 65
    grid_points: int = 4096
    pinned_random: bool = False
    # processes a Monte Carlo run spreads its chunks of trials over, at
    # most one per usable core; any value writes the same bytes
    workers: int = 1

    @property
    def reports_uplink(self) -> bool:
        """Whether the experiment reports uplink SE: ee, and uplink se."""
        return self.experiment == "ee" or (
            self.experiment == "se" and self.link == "uplink")

    @property
    def downlink_systems(self) -> tuple[str, ...]:
        """The systems whose downlink SE the experiment reports, in row
        order: every full digital size and the asymmetrical BS for ee, the
        configured ``systems`` for se on the downlink, none otherwise."""
        if self.experiment == "ee":
            return _EE_SYSTEMS
        if self.experiment == "se" and self.link == "downlink":
            return self.systems
        return ()

    def __post_init__(self) -> None:
        for name, (kind, is_list, optional) in _FIELDS.items():
            value = getattr(self, name)
            _require(not is_list or isinstance(value, (tuple, list))
                     or (optional and value is None), name,
                     "must be a tuple or list of values")
            values = value if isinstance(value, (tuple, list)) else (value,)
            _require(kind is not float
                     or all(v is None or math.isfinite(v) for v in values),
                     name, "must be finite")
            _require(kind is not int or all(_is_count(v) for v in values),
                     name, "must be an integer")
            _require(kind is not bool
                     or all(isinstance(v, (bool, np.bool_)) for v in values),
                     name, "must be a boolean")
            if is_list and not optional:
                _require(len(values) > 0, name, "needs at least one value")
                # a repeated entry would write repeated rows of the same draw
                _require(len(set(values)) == len(values), name,
                         "lists an entry twice")
            if name in _CHOICES:
                _require(all(v in _CHOICES[name] for v in values), name,
                         f"must be one of {', '.join(_CHOICES[name])}")
            if name in _LEAST:
                _require(all(v >= _LEAST[name] for v in values), name,
                         f"must be >= {_LEAST[name]}")
        # a sweep entry that no row reports would be dropped without a word
        swept = {"transfer-nmse": ("num_receive", "algorithm", "selection"),
                 "beam-pattern": ("selection",),
                 "se": ("selection",) if self.link == "uplink" else ()}
        for name in ("num_receive", "algorithm", "selection"):
            _require(len(getattr(self, name)) == 1
                     or name in swept.get(self.experiment, ()), name,
                     "lists more than one entry, but the rows of this "
                     "experiment report only one")
        for snr in self.snr_db:
            try:
                rho = _linear(snr)
            except OverflowError:
                rho = math.inf
            # the LMMSE filter and the default threshold divide by rho
            _require(0.0 < rho < math.inf and 1.0 / rho < math.inf, "snr_db",
                     "linear power 10^(snr_db/10) over- or underflows")
        _require(max(self.num_receive) <= self.num_transmit, "num_receive",
                 "entries must not exceed num_transmit")
        if self.path_powers is not None:
            _require(len(self.path_powers) == self.paths_per_user,
                     "path_powers", "needs one fraction per path")
            _require(all(p >= 0 for p in self.path_powers)
                     and abs(sum(self.path_powers) - 1.0) < 1e-9,
                     "path_powers", "fractions must be >= 0 and sum to 1")
        if "comb" in self.selection:
            _require(all(self.num_transmit % n == 0 for n in self.num_receive),
                     "num_receive",
                     "comb selection needs entries that divide num_transmit")
        if self.pinned_random and "random" in self.selection:
            _require(min(self.num_receive) >= 2, "num_receive",
                     "pinned random selection needs entries >= 2")
        # zero forcing inverts the K x K Gram matrix of an N-antenna channel:
        # in detection, and in precoding for the N-antenna full digital BS
        zf_on_n = (
            (self.detector == "zf" and self.reports_uplink)
            or (self.precoder == "zf"
                and "full_digital_n" in self.downlink_systems))
        _require(not zf_on_n or self.num_users <= self.num_receive[0],
                 "num_users", "zero forcing needs num_users <= num_receive")


def _field_kind(hint) -> tuple[type, bool, bool]:
    """(scalar type, is a list, may be None) of one field annotation."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        hint = next(arg for arg in args if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return typing.get_args(hint)[0], True, optional
    return hint, False, optional


# Parsing and the type checks of ExperimentConfig read the field types here.
_FIELDS = {name: _field_kind(hint) for name, hint
           in typing.get_type_hints(ExperimentConfig).items()}


def _parse_config_text(
    text: str, base_dir: Path | None = None, _including: tuple = ()
) -> dict[str, str]:
    """Flat key=value parse with include resolution; later keys win.

    ``_including`` holds the files whose includes led here (cycle check).
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split(None, 1)[0] == "include":
            target = line[len("include"):].strip()
            if not target:
                raise ConfigError(f"line {lineno}: include needs a path")
            path = Path(target)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            values.update(load_config_values(path, _including))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config_values(path: str | Path,
                       _including: tuple = ()) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    if p.resolve() in _including:
        raise ConfigError(f"config file {p}: include cycle, the file "
                          "includes itself")
    return _parse_config_text(p.read_text(), base_dir=p.parent,
                              _including=(*_including, p.resolve()))


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def config_from_values(values: dict[str, str]) -> ExperimentConfig:
    """Coerce raw strings onto ExperimentConfig, reporting the field path."""
    kwargs: dict = {}
    for key, raw in values.items():
        if key not in _FIELDS:
            raise ConfigError(f"config.{key}: unknown key")
        kwargs[key] = _coerce(key, raw)
    if "experiment" not in kwargs:
        raise ConfigError("config.experiment: required key is missing")
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(key: str, raw: str):
    kind, is_list, optional = _FIELDS[key]
    try:
        if optional and raw.lower() in ("none", "auto", ""):
            return None
        if is_list:
            return tuple(kind(part.strip()) for part in raw.split(",")
                         if part.strip())
        if kind is bool:
            if raw.lower() not in _BOOLEANS:
                raise ValueError("expected a boolean")
            return _BOOLEANS[raw.lower()]
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config.{key}: cannot parse {raw!r} ({exc})") from exc


def _linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def _require(condition: bool, fieldname: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config.{fieldname}: {message}")
