#!/usr/bin/env python3
"""Receive SNR loss when two close paths are steered as one beam.

Two propagation paths closer than the receive aperture can resolve
merge into a single composite beam.  Steering at the composite
direction loses part of the coherent gain, and the loss depends on the
phase difference between the path gains.  The closed-form expression
is checked against a direct numerical evaluation at every phase.
"""

import numpy as np

from asymx import (
    PathSet,
    SnrLossInputs,
    composite_angle,
    make_selection,
    resolved_path_count,
    snr_loss_closed_form,
    snr_loss_numeric,
    uplink_channel,
)

NUM_TRANSMIT = 256
NUM_RECEIVE = 32
CENTER_DEG = 52.8
HALF_SPLIT_DEG = 1.485
PHASE_POINTS = 9


def main():
    selection = make_selection("successive", NUM_TRANSMIT, NUM_RECEIVE)
    theta1 = np.deg2rad(CENTER_DEG - HALF_SPLIT_DEG)
    theta2 = np.deg2rad(CENTER_DEG + HALF_SPLIT_DEG)
    print("paths at %.3f and %.3f deg, N = %d successive chains of M = %d"
          % (np.degrees(theta1), np.degrees(theta2), NUM_RECEIVE,
             NUM_TRANSMIT))
    print()
    print("%-10s %-14s %-12s %-12s %s" % ("phase/pi", "composite deg",
                                          "loss closed", "loss numeric",
                                          "beams"))
    w_mid = 0.5 * (np.sin(theta1) + np.sin(theta2))
    for phi in np.linspace(0.0, 2.0 * np.pi, PHASE_POINTS):
        gains = np.array([1.0, np.exp(1j * phi)])
        h = uplink_channel(PathSet(gains, np.array([theta1, theta2])),
                           selection)
        comp = composite_angle(h, selection)
        inputs = SnrLossInputs(theta1, theta2, comp, 0.0, phi, NUM_RECEIVE)
        closed = snr_loss_closed_form(inputs)
        numeric = snr_loss_numeric(inputs)
        beams = resolved_path_count(h, selection, w_mid)
        print("%-10.2f %-14.4f %-12.6f %-12.6f %d"
              % (phi / np.pi, np.degrees(comp), closed, numeric, beams))
    print()
    print("the loss dips near quadrature and peaks when the paths cancel;")
    print("around phase 1.5 pi the merged beam splits into two peaks.")


if __name__ == "__main__":
    main()
