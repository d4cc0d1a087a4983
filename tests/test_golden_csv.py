"""Frozen CSV text of the bundled recipes.

``golden_csv.json`` maps ``<recipe>|<estimator>|<detector>`` to the CSV
text that ``asymx.run`` wrote for that bundled recipe at 2 trials and its
own master seed, for the five Monte Carlo recipes x estimator {ls, lmmse,
perfect} x detector {zf, mrc}.  Keys ``<recipe>|<field>=<value>`` hold a
recipe with one field overridden: the beam pattern and the SNR loss on
reduced grids, and the downlink SE under MRT precoding.  Every cell is a
pure function of (config, master seed), so a refactor or speedup must
write these bytes again; a failure names the first row that differs.

Regenerate only for an intended change of results:
``PYTHONPATH=src python tests/test_golden_csv.py``.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from asymx.cli import resolve_config
from asymx.config import config_from_values, load_config_values
from asymx.harness import run

FIXTURE = Path(__file__).with_name("golden_csv.json")
RECIPES = ("ee.cfg", "se_downlink.cfg", "se_uplink.cfg", "transfer_nmse.cfg",
           "transfer_nmse_multipath.cfg")
ESTIMATORS = ("ls", "lmmse", "perfect")
DETECTORS = ("zf", "mrc")
CASES = [
    "beam_pattern.cfg|grid_points=129",
    "snr_loss.cfg|phase_points=9",
    "se_downlink.cfg|precoder=mrt",
] + [f"{recipe}|{estimator}|{detector}" for recipe, estimator, detector
     in product(RECIPES, ESTIMATORS, DETECTORS)]


def _csv_text(case: str) -> str:
    recipe, *settings = case.split("|")
    values = load_config_values(resolve_config(recipe))
    values.update(trials="2")
    if "=" in case:
        values.update(setting.split("=") for setting in settings)
    else:
        values.update(zip(("estimator", "detector"), settings))
    return run(config_from_values(values)).csv_text()


def _write_fixture() -> None:
    golden = {case: _csv_text(case) for case in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_recipe_writes_frozen_csv(case, golden):
    got = _csv_text(case).splitlines()
    want = golden[case].splitlines()
    for row, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{case}: row {row} differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{case}: {len(got)} rows, want {len(want)}"


if __name__ == "__main__":
    _write_fixture()
