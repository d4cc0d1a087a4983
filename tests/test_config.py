"""Recipe text: parsing, includes, and round trips through ExperimentConfig."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx.arrays import SELECTION_KINDS, AntennaSelection, select_successive
from asymx.channel import steering_downlink
from asymx.cli import main as cli_main
from asymx.config import (
    _CHOICES,
    _FIELDS,
    _LEAST,
    EXPERIMENTS,
    SYSTEMS,
    ConfigError,
    ExperimentConfig,
    _parse_config_text,
    config_from_values,
    load_config_values,
)
from asymx.econ import Architecture
from asymx.transfer import TransferConfig
from asymx.uplink import SnrLossInputs


def recipe_text(cfg: ExperimentConfig) -> str:
    def text(value):
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ", ".join(str(v) for v in value)
        return str(value)

    return "".join(f"{f.name} = {text(getattr(cfg, f.name))}\n"
                   for f in dataclasses.fields(cfg))


def floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


def some(values):
    """A sweep list: one to four distinct entries drawn from a strategy or a
    list."""
    if not isinstance(values, st.SearchStrategy):
        values = st.sampled_from(values)
    return st.lists(values, min_size=1, max_size=4, unique=True).map(tuple)


@st.composite
def config_values(draw) -> dict:
    """Valid values for every ExperimentConfig field."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    num_transmit = draw(st.integers(2, 512))
    selection = draw(some(SELECTION_KINDS))
    pinned_random = draw(st.booleans())
    # pinned random selection and snr-loss need N >= 2
    least = 2 if (pinned_random and "random" in selection
                  or experiment == "snr-loss") else 1
    receive = [n for n in range(least, num_transmit + 1)
               if "comb" not in selection or num_transmit % n == 0]
    num_receive = draw(some(receive))
    paths_per_user = draw(st.integers(1, 6))
    weights = draw(st.none() | st.lists(floats(0.01, 1.0),
                                        min_size=paths_per_user,
                                        max_size=paths_per_user))
    values = dict(
        experiment=experiment,
        num_transmit=num_transmit,
        num_receive=num_receive,
        # within the zero-forcing rank limit of every experiment
        num_users=draw(st.integers(1, num_receive[0])),
        paths_per_user=paths_per_user,
        path_powers=(None if weights is None else
                     tuple(w / sum(weights) for w in weights)),
        selection=selection,
        algorithm=draw(some(("dft", "mnomp"))),
        snr_db=draw(some(floats(-3000.0, 3000.0))),
        trials=draw(st.integers(1, 10**6)),
        newton_rounds=draw(st.integers(0, 20)),
        detector=draw(st.sampled_from(("mrc", "zf"))),
        precoder=draw(st.sampled_from(("mrt", "zf"))),
        estimator=draw(st.sampled_from(("ls", "lmmse", "perfect"))),
        link=draw(st.sampled_from(("uplink", "downlink"))),
        systems=draw(some(SYSTEMS)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        phase_points=draw(st.integers(2, 10**4)),
        grid_points=draw(st.integers(16, 10**6)),
        pinned_random=pinned_random,
        workers=draw(st.integers(1, 64)),
    )
    # only transfer-nmse sweeps N and the algorithm, and only it,
    # beam-pattern and uplink se sweep the selection: elsewhere keep the
    # first entry, which is all the rows report
    if values["experiment"] != "transfer-nmse":
        values["num_receive"] = num_receive[:1]
        values["algorithm"] = values["algorithm"][:1]
    if values["experiment"] not in ("beam-pattern", "transfer-nmse") and (
            values["experiment"], values["link"]) != ("se", "uplink"):
        values["selection"] = selection[:1]
    return values


@settings(max_examples=200, deadline=None)
@given(values=config_values())
def test_random_config_round_trips_through_recipe_text(values):
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(values) == names
    cfg = ExperimentConfig(**values)
    assert config_from_values(_parse_config_text(recipe_text(cfg))) == cfg


def test_parse_key_values_and_comments():
    text = """
    # a comment
    experiment = se   # trailing comment
    snr_db = 0, 5, 10
    trials = 7
    pinned_random = true
    """
    values = _parse_config_text(text)
    assert values == {"experiment": "se", "snr_db": "0, 5, 10",
                      "trials": "7", "pinned_random": "true"}


def test_parse_include_merges_with_later_wins(tmp_path):
    (tmp_path / "base.cfg").write_text("trials = 3\nnum_users = 5\n")
    child = tmp_path / "child.cfg"
    child.write_text("include base.cfg\nexperiment = se\ntrials = 9\n")
    cfg = config_from_values(load_config_values(child))
    assert cfg.trials == 9
    assert cfg.num_users == 5


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        _parse_config_text("this is not a key value pair")
    with pytest.raises(ConfigError):
        _parse_config_text("include")


def test_include_cycle_names_the_file(tmp_path):
    loop = tmp_path / "loop.cfg"
    loop.write_text("include loop.cfg\nexperiment = se\n")
    with pytest.raises(ConfigError, match="loop.cfg"):
        config_from_values(load_config_values(loop))
    (tmp_path / "a.cfg").write_text("include b.cfg\n")
    (tmp_path / "b.cfg").write_text("include a.cfg\n")
    with pytest.raises(ConfigError, match="include cycle"):
        config_from_values(load_config_values(tmp_path / "a.cfg"))


def test_include_matches_only_the_whole_first_word():
    assert _parse_config_text("included_paths = 3") == {"included_paths": "3"}
    with pytest.raises(ConfigError, match=r"config\.included_paths"):
        config_from_values({"experiment": "se", "included_paths": "3"})


def test_empty_list_value_names_the_field():
    values = _parse_config_text("experiment = se\nselection =\n")
    with pytest.raises(ConfigError, match=r"config\.selection"):
        config_from_values(values)


def test_unknown_key_reports_field_path():
    with pytest.raises(ConfigError, match=r"config\.exponent"):
        config_from_values({"experiment": "se", "exponent": "3"})


@pytest.mark.parametrize("key, raw", [
    ("angle_min_deg", "-60"),
    ("angle_max_deg", "60"),
    ("theta1_deg", "51.315"),
    ("theta2_deg", "54.285"),
    ("slot_ratio", "0.3333333333333333"),
    ("bandwidth_hz", "500e6"),
    ("spacing", "0.5"),
])
def test_scenario_constants_are_unknown_keys(key, raw):
    # the path angles, the snr-loss paths, the slot share, the bandwidth
    # and the half-wavelength element spacing are constants of
    # asymx.harness, asymx.econ and asymx.arrays; a recipe that sets one,
    # even to its value, fails
    with pytest.raises(ConfigError, match=rf"config\.{key}: unknown key"):
        config_from_values({"experiment": "ee", key: raw})


def test_bad_type_reports_field_path():
    with pytest.raises(ConfigError, match=r"config\.trials"):
        config_from_values({"experiment": "se", "trials": "many"})
    with pytest.raises(ConfigError, match=r"config\.pinned_random"):
        config_from_values({"experiment": "se", "pinned_random": "maybe"})


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError, match=r"config\.experiment"):
        config_from_values({"trials": "3"})


def test_config_validation_messages():
    with pytest.raises(ConfigError, match=r"config\.experiment"):
        ExperimentConfig("warp-drive")
    with pytest.raises(ConfigError, match=r"config\.num_receive"):
        ExperimentConfig("se", num_receive=(256,), num_transmit=128)
    with pytest.raises(ConfigError, match=r"config\.selection"):
        ExperimentConfig("se", selection=("sparse",))
    with pytest.raises(ConfigError, match=r"config\.path_powers"):
        ExperimentConfig("se", paths_per_user=2, path_powers=(0.9, 0.2))
    with pytest.raises(ConfigError, match=r"config\.systems"):
        ExperimentConfig("se", systems=("asym", "hal9000"))


def test_every_str_field_and_count_has_a_rule_row():
    # any string passes the type checks, so an enumerated field without a
    # row of allowed values would take every typo; a count without a least
    # value would take zero
    kinds = {name: kind for name, (kind, _, _) in _FIELDS.items()}
    strs = {name for name, kind in kinds.items() if kind is str}
    counts = {name for name, kind in kinds.items() if kind is int}
    assert strs == set(_CHOICES)
    assert counts == set(_LEAST)


def one_rule_broken(fieldname, value):
    """Defaults but for one field; a list field gets one entry."""
    values = {"experiment": "se",
              fieldname: (value,) if _FIELDS[fieldname][1] else value}
    with pytest.raises(ConfigError, match=rf"config\.{fieldname}: must "):
        ExperimentConfig(**values)


@pytest.mark.parametrize("fieldname", sorted(_CHOICES))
def test_every_choice_row_refuses_other_values(fieldname):
    one_rule_broken(fieldname, "bogus")


@pytest.mark.parametrize("fieldname", sorted(_LEAST))
def test_every_range_row_refuses_values_outside(fieldname):
    one_rule_broken(fieldname, _LEAST[fieldname] - 1)


@pytest.mark.parametrize("fieldname, values", [
    ("snr_db", (float("nan"),)),
    ("snr_db", (0.0, float("inf"))),
    ("path_powers", (float("nan"), 1.0)),
])
def test_non_finite_float_fields_rejected(fieldname, values):
    overrides = {fieldname: values}
    if fieldname == "path_powers":
        overrides["paths_per_user"] = 2
    with pytest.raises(ConfigError, match=rf"config\.{fieldname}: must be finite"):
        ExperimentConfig("se", **overrides)


@pytest.mark.parametrize("fieldname, value", [
    ("trials", 2.5),
    ("num_users", 2.0),
    ("paths_per_user", 2.0),
    ("grid_points", 64.5),
    ("phase_points", 4.5),
    ("num_receive", (16, 8.0)),
    ("master_seed", 1.5),
    ("workers", 1.5),
    ("newton_rounds", np.float64(2.0)),
])
def test_non_integral_counts_rejected(fieldname, value):
    # they used to pass validation and fail in run with a TypeError
    with pytest.raises(ConfigError,
                       match=rf"config\.{fieldname}: must be an integer"):
        ExperimentConfig("transfer-nmse", **{fieldname: value})
    # NumPy integers pass, as in AntennaSelection
    value = ((np.int64(16), np.int32(8)) if fieldname == "num_receive"
             else np.int64(int(value)))
    ExperimentConfig("transfer-nmse", **{fieldname: value})


def _bool_count_cases():
    for name, (kind, is_list, _) in _FIELDS.items():
        if kind is int:
            value = (True,) if is_list else True
            yield pytest.param(
                partial(ExperimentConfig, "se", **{name: value}),
                rf"config\.{name}: must be an integer", id=f"config.{name}")
    for name in ("oversampling", "newton_rounds", "cyclic_rounds",
                 "max_paths"):
        yield pytest.param(
            partial(TransferConfig, **{"oversampling": 4, "threshold": 1.0,
                                       name: True}),
            f"{name} must be an integer", id=f"TransferConfig.{name}")
    yield pytest.param(partial(steering_downlink, True, 0.0),
                       "positive integer", id="steering_downlink")
    yield pytest.param(partial(AntennaSelection, [1], True),
                       "positive integer", id="AntennaSelection")
    yield pytest.param(partial(select_successive, 16, True),
                       "must be integers", id="select_successive")
    yield pytest.param(partial(Architecture, "adbn", 16, True),
                       "positive integers", id="Architecture")
    yield pytest.param(partial(SnrLossInputs, 0.1, 0.3, 0.2, 0.0, 0.0, True),
                       "positive integer", id="SnrLossInputs")


@pytest.mark.parametrize("build, message", _bool_count_cases())
def test_bool_refused_as_a_count(build, message):
    # True passes isinstance(value, Integral), so it used to count as 1
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("fieldname, value", [
    ("snr_db", 10.0),
    ("num_receive", 16),
    ("selection", "random"),
])
def test_bare_value_for_a_list_field_rejected(fieldname, value):
    # a number used to fail with a TypeError, and a str to sweep its letters
    with pytest.raises(ConfigError,
                       match=rf"config\.{fieldname}: must be a tuple or list"):
        ExperimentConfig("se", **{fieldname: value})
    ExperimentConfig("se", **{fieldname: [value]})


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_non_boolean_pinned_random_rejected(value):
    # the string "false" is truthy; recipe text is mapped by _coerce
    with pytest.raises(ConfigError,
                       match=r"config\.pinned_random: must be a boolean"):
        ExperimentConfig("se", pinned_random=value)
    for flag in (True, np.bool_(False)):
        ExperimentConfig("se", pinned_random=flag)
    parsed = config_from_values({"experiment": "se", "pinned_random": "false"})
    assert parsed.pinned_random is False


@pytest.mark.parametrize("fieldname, values", [
    ("snr_db", (10.0, 10.0)),
    ("snr_db", (0.0, -0.0)),
    ("num_receive", (8, 16, 8)),
    ("selection", ("random", "random")),
    ("algorithm", ("dft", "mnomp", "dft")),
    ("systems", ("asym", "asym")),
])
def test_duplicate_sweep_entries_rejected(tmp_path, capsys, fieldname,
                                          values):
    # a repeated entry used to write repeated rows, and compute their
    # transfers twice
    with pytest.raises(ConfigError, match=rf"config\.{fieldname}: "):
        ExperimentConfig("se", **{"num_transmit": 32, "num_receive": (8,),
                                  fieldname: values})
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = se\nnum_transmit = 32\nnum_users = 4\n"
                   f"{fieldname} = {', '.join(map(str, values))}\n")
    assert cli_main(["se", "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)]) == 2
    assert f"config.{fieldname}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, fieldname, values, extra", [
    ("se", "num_receive", (16, 32), "link = uplink"),
    ("se", "num_receive", (16, 32), "link = downlink"),
    ("ee", "num_receive", (16, 32), ""),
    ("beam-pattern", "num_receive", (16, 32), ""),
    ("se", "algorithm", ("dft", "mnomp"), "link = downlink"),
    ("se", "selection", ("random", "comb"), "systems = full_digital_m, asym"),
    ("ee", "selection", ("comb", "random"), ""),
    ("ee", "algorithm", ("mnomp", "dft"), ""),
    ("se", "algorithm", ("dft", "mnomp"), "link = uplink"),
    ("se", "algorithm", ("dft", "mnomp"),
     "link = downlink\nsystems = full_digital_m"),
    ("beam-pattern", "algorithm", ("dft", "mnomp"), ""),
    ("snr-loss", "algorithm", ("dft", "mnomp"), ""),
    ("cost-table", "algorithm", ("dft", "mnomp"), ""),
    ("snr-loss", "selection", ("random", "successive"), ""),
    ("cost-table", "selection", ("random", "successive"), ""),
    ("se", "selection", ("random", "comb"),
     "link = downlink\nsystems = full_digital_m, perfect_csi_m"),
], ids=["se-uplink-N", "se-downlink-N", "ee-N", "beam-pattern-N",
        "se-asym-algorithm", "se-asym-selection", "ee-selection",
        "ee-algorithm", "se-uplink-algorithm", "se-downlink-algorithm",
        "beam-pattern-algorithm", "snr-loss-algorithm",
        "cost-table-algorithm", "snr-loss-selection", "cost-table-selection",
        "se-downlink-selection"])
def test_sweep_entries_no_row_reports_rejected(tmp_path, capsys, experiment,
                                               fieldname, values, extra):
    # only transfer-nmse has a row per N and per algorithm, and only it,
    # beam-pattern and uplink se a row per selection, so a further entry
    # would get no row
    text = (f"experiment = {experiment}\nnum_transmit = 64\nnum_users = 4\n"
            f"{extra}\n{fieldname} = {', '.join(map(str, values))}\n")
    with pytest.raises(ConfigError, match=rf"config\.{fieldname}: "):
        config_from_values(_parse_config_text(text))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli_main([experiment, "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)]) == 2
    assert f"config.{fieldname}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optional_fields_accept_none_and_auto():
    for raw in ("none", "auto"):
        cfg = config_from_values({"experiment": "se", "path_powers": raw})
        assert cfg.path_powers is None


def test_list_coercion():
    cfg = config_from_values({
        "experiment": "transfer-nmse",
        "num_receive": "16, 32",
        "snr_db": "0,10",
        "selection": "random , comb",
        "path_powers": "0.9,0.1",
        "paths_per_user": "2",
    })
    assert cfg.num_receive == (16, 32)
    assert cfg.snr_db == (0.0, 10.0)
    assert cfg.selection == ("random", "comb")
    assert cfg.path_powers == (0.9, 0.1)


def test_every_default_round_trips_through_recipe_text():
    def text(value):
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    default = ExperimentConfig("se")
    values = {f.name: text(getattr(default, f.name))
              for f in dataclasses.fields(ExperimentConfig)}
    assert config_from_values(values) == default
