"""Set-up probe: a fresh interpreter up to a validated ExperimentConfig.

    python3 benchmarks/setup_probe.py RECIPE [KEY=VALUE ...]

Imports asymx, resolves and loads the bundled recipe as the CLI does,
applies the overrides and coerces the values.  run.py times the whole
process from outside, which is what each fresh ``asymx ...`` invocation
pays before its first trial.
"""

import sys

import asymx
from asymx.cli import resolve_config

if __name__ == "__main__":
    values = asymx.load_config_values(resolve_config(sys.argv[1]))
    values.update(arg.split("=", 1) for arg in sys.argv[2:])
    asymx.config_from_values(values)
