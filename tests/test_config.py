"""Recipe text: parsing, includes, and round trips through ExperimentConfig."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymx.arrays import SELECTION_KINDS
from asymx.config import (
    EXPERIMENTS,
    SYSTEMS,
    ConfigError,
    ExperimentConfig,
    config_from_values,
    load_config,
    parse_config_text,
)


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
    """A sweep list: one to four entries drawn from a strategy or a list."""
    if not isinstance(values, st.SearchStrategy):
        values = st.sampled_from(values)
    return st.lists(values, min_size=1, max_size=4).map(tuple)


@st.composite
def config_values(draw) -> dict:
    """Valid values for every ExperimentConfig field."""
    num_transmit = draw(st.integers(2, 512))
    selection = draw(some(SELECTION_KINDS))
    pinned_random = draw(st.booleans())
    receive = [n for n in range(1, num_transmit + 1)
               if ("comb" not in selection or num_transmit % n == 0)
               and (n >= 2 or not pinned_random or "random" not in selection)]
    num_receive = draw(some(receive))
    paths_per_user = draw(st.integers(1, 6))
    weights = draw(st.none() | st.lists(floats(0.01, 1.0),
                                        min_size=paths_per_user,
                                        max_size=paths_per_user))
    angle_min, angle_max = sorted(draw(st.lists(floats(-90.0, 90.0),
                                                min_size=2, max_size=2)))
    theta1, theta2 = draw(floats(-90.0, 90.0)), draw(floats(-90.0, 90.0))
    assume(not np.isclose(np.sin(np.deg2rad(theta1)),
                          np.sin(np.deg2rad(theta2))))
    return dict(
        experiment=draw(st.sampled_from(EXPERIMENTS)),
        num_transmit=num_transmit,
        num_receive=num_receive,
        # within the zero-forcing rank limit of every experiment
        num_users=draw(st.integers(1, num_receive[0])),
        paths_per_user=paths_per_user,
        path_powers=(None if weights is None else
                     tuple(w / sum(weights) for w in weights)),
        selection=selection,
        algorithm=draw(some(("dft", "mnomp"))),
        angle_min_deg=angle_min,
        angle_max_deg=angle_max,
        snr_db=draw(some(floats(-3000.0, 3000.0))),
        trials=draw(st.integers(1, 10**6)),
        newton_rounds=draw(st.integers(0, 20)),
        cyclic_rounds=draw(st.integers(0, 20)),
        threshold=draw(st.none() | floats(0.0, 1e12, exclude_min=True)),
        max_paths=draw(st.integers(1, 64)),
        regularizer=draw(floats(0.0, 1e6)),
        detector=draw(st.sampled_from(("mrc", "zf"))),
        precoder=draw(st.sampled_from(("mrt", "zf"))),
        estimator=draw(st.sampled_from(("ls", "lmmse", "perfect"))),
        link=draw(st.sampled_from(("uplink", "downlink"))),
        systems=draw(some(SYSTEMS)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        slot_ratio=draw(floats(0.0, 1.0)),
        bandwidth_hz=draw(floats(0.0, 1e12, exclude_min=True)),
        spacing=draw(floats(0.0, 1e3, exclude_min=True)),
        phase_points=draw(st.integers(2, 10**4)),
        theta1_deg=theta1,
        theta2_deg=theta2,
        grid_points=draw(st.integers(16, 10**6)),
        pinned_random=pinned_random,
        workers=draw(st.integers(1, 64)),
    )


@settings(max_examples=200, deadline=None)
@given(values=config_values())
def test_random_config_round_trips_through_recipe_text(values):
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(values) == names
    cfg = ExperimentConfig(**values)
    assert config_from_values(parse_config_text(recipe_text(cfg))) == cfg


def test_parse_key_values_and_comments():
    text = """
    # a comment
    experiment = se   # trailing comment
    snr_db = 0, 5, 10
    trials = 7
    pinned_random = true
    """
    values = parse_config_text(text)
    assert values == {"experiment": "se", "snr_db": "0, 5, 10",
                      "trials": "7", "pinned_random": "true"}


def test_parse_include_merges_with_later_wins(tmp_path):
    (tmp_path / "base.cfg").write_text("trials = 3\nnum_users = 5\n")
    child = tmp_path / "child.cfg"
    child.write_text("include base.cfg\nexperiment = se\ntrials = 9\n")
    cfg = load_config(child)
    assert cfg.trials == 9
    assert cfg.num_users == 5


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("this is not a key value pair")
    with pytest.raises(ConfigError):
        parse_config_text("include")


def test_include_cycle_names_the_file(tmp_path):
    loop = tmp_path / "loop.cfg"
    loop.write_text("include loop.cfg\nexperiment = se\n")
    with pytest.raises(ConfigError, match="loop.cfg"):
        load_config(loop)
    (tmp_path / "a.cfg").write_text("include b.cfg\n")
    (tmp_path / "b.cfg").write_text("include a.cfg\n")
    with pytest.raises(ConfigError, match="include cycle"):
        load_config(tmp_path / "a.cfg")


def test_include_matches_only_the_whole_first_word():
    assert parse_config_text("included_paths = 3") == {"included_paths": "3"}
    with pytest.raises(ConfigError, match=r"config\.included_paths"):
        config_from_values({"experiment": "se", "included_paths": "3"})
