"""Frozen outputs of both transfer kernels on seeded inputs.

``transfer_fixture.npz`` holds noisy uplink estimates of the LOS (0.9/0.1)
and equal-power three-path scenarios, for N in {16, 32}, every selection
kind and SNR in {-10, 0, 10, 20, 30} dB at M = 128, together with what
``dft_transfer`` and ``mnomp_transfer`` returned for them (default rounds,
``max_paths`` and ridge, the harness's oversampling and threshold); the
three-path cases at 20 and 30 dB are stored once more with ``max_paths = 2``
so that truncated exits are covered.  A rewrite of either kernel must take
the same greedy decisions (path count, truncation) and reproduce the numbers
to rtol 1e-9.  The downlink estimate is stored at its even-numbered elements,
which keeps the file under 200 KB.

The mNOMP case is run once more in a child process under OpenBLAS's AVX2
(Haswell) kernels and must hold there too; the DFT case does not yet.

Regenerate only for an intended change of results:
``PYTHONPATH=src python tests/test_transfer_fixture.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymx.arrays import AntennaSelection
from asymx.channel import ArrayGeometry, draw_path_set, uplink_channel
from asymx.transfer import (
    TransferConfig,
    default_threshold,
    dft_transfer,
    mnomp_transfer,
)
from asymx.uplink import make_selection

FIXTURE = Path(__file__).with_name("transfer_fixture.npz")
M = 128
GEOM = ArrayGeometry(M)
KERNELS = {"dft": (dft_transfer, 8), "mnomp": (mnomp_transfer, 4)}
SCENARIOS = ((0.9, 0.1), (1 / 3, 1 / 3, 1 / 3))  # LOS, equal-power 3-path
MAX_N = 32
MAX_PATHS = TransferConfig(1, 1.0).max_paths
RTOL = 1e-9


def _inputs():
    """(num_receive, selection, snr_db, max_paths, h_up) of every case."""
    cases, truncating = [], []
    for num_receive in (16, 32):
        for kind in ("successive", "comb", "random"):
            for powers in SCENARIOS:
                for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
                    rng = np.random.default_rng([6, len(cases)])
                    sel = make_selection(kind, M, num_receive, rng)
                    paths = draw_path_set(len(powers), -np.pi / 3, np.pi / 3,
                                          rng, np.array(powers))
                    noise = (rng.standard_normal(num_receive)
                             + 1j * rng.standard_normal(num_receive))
                    rho = 10.0 ** (snr_db / 10.0)
                    h_up = (uplink_channel(paths, sel, GEOM)
                            + noise / np.sqrt(2.0 * rho))
                    cases.append((num_receive, sel, snr_db, MAX_PATHS, h_up))
                    if len(powers) == 3 and snr_db >= 20.0:
                        truncating.append(cases[-1][:3] + (2, h_up))
    return cases + truncating


def _config(algorithm, num_receive, snr_db, max_paths):
    rho = 10.0 ** (snr_db / 10.0)
    return TransferConfig(KERNELS[algorithm][1],
                          default_threshold(num_receive, rho),
                          max_paths=int(max_paths))


def _write_fixture():
    cases = _inputs()
    count = len(cases)
    data = {
        "num_receive": np.array([c[0] for c in cases]),
        "kind": np.array([c[1].kind for c in cases]),
        "indices": np.zeros((count, MAX_N), dtype=np.int16),
        "snr_db": np.array([c[2] for c in cases]),
        "max_paths": np.array([c[3] for c in cases]),
        "h_up": np.zeros((count, MAX_N), dtype=complex),
    }
    for i, (n, sel, _, _, h_up) in enumerate(cases):
        data["indices"][i, :n] = sel.indices
        data["h_up"][i, :n] = h_up
    for alg, (kernel, _) in KERNELS.items():
        gains = np.zeros((count, MAX_PATHS), dtype=complex)
        freqs = np.zeros((count, MAX_PATHS))
        downlink = np.zeros((count, M // 2), dtype=complex)
        paths, truncated, residual = [], [], []
        for i, (n, sel, snr_db, max_paths, h_up) in enumerate(cases):
            res = kernel(h_up, sel, GEOM, _config(alg, n, snr_db, max_paths))
            gains[i, :res.paths_found] = res.gains
            freqs[i, :res.paths_found] = res.spatial_freqs
            downlink[i] = res.downlink_estimate[::2]
            paths.append(res.paths_found)
            truncated.append(res.truncated)
            residual.append(res.residual_energy)
        data.update({f"{alg}_gains": gains, f"{alg}_freqs": freqs,
                     f"{alg}_downlink": downlink,
                     f"{alg}_paths": np.array(paths),
                     f"{alg}_truncated": np.array(truncated),
                     f"{alg}_residual": np.array(residual)})
    np.savez_compressed(FIXTURE, **data)


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_kernel_reproduces_frozen_outputs(algorithm):
    # closed on the way out, so a failing case leaks no open file as well
    with np.load(FIXTURE) as frozen:
        mismatches = _mismatches(frozen, algorithm)
    assert not mismatches, f"cases differing from the fixture: {mismatches}"


def _mismatches(frozen, algorithm):
    """(case, N, kind, SNR) of every case whose result leaves the fixture."""
    kernel = KERNELS[algorithm][0]
    mismatches = []
    for i, n in enumerate(frozen["num_receive"]):
        sel = AntennaSelection(frozen["indices"][i, :n], M,
                               str(frozen["kind"][i]))
        res = kernel(frozen["h_up"][i, :n], sel, GEOM,
                     _config(algorithm, n, frozen["snr_db"][i],
                             frozen["max_paths"][i]))
        count = frozen[f"{algorithm}_paths"][i]
        same_decisions = (
            res.paths_found == count
            and res.truncated == frozen[f"{algorithm}_truncated"][i])
        if not same_decisions or not all(
            np.allclose(got, want, rtol=RTOL, atol=0.0)
            for got, want in (
                (res.gains, frozen[f"{algorithm}_gains"][i, :count]),
                (res.spatial_freqs, frozen[f"{algorithm}_freqs"][i, :count]),
                (res.downlink_estimate[::2],
                 frozen[f"{algorithm}_downlink"][i]),
                (res.residual_energy, frozen[f"{algorithm}_residual"][i]),
            )
        ):
            mismatches.append((i, int(n), str(frozen["kind"][i]),
                               float(frozen["snr_db"][i])))
    return mismatches


def test_mnomp_fixture_holds_under_haswell_kernels():
    # OpenBLAS's AVX2 (Haswell) kernels, set for one child process only;
    # the dft case still fails under them (residue near cancelled aliases)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    case = "::test_kernel_reproduces_frozen_outputs[mnomp]"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(Path(__file__).resolve()) + case],
        cwd=src.parent, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


if __name__ == "__main__":
    _write_fixture()
