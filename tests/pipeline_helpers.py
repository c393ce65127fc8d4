"""Single-pixel pipeline runner shared by the unit and acceptance tests."""

import numpy as np

from pnpuct import (
    Normalization,
    build_bipolar,
    build_unipolar,
    compress_trace,
    impulse_response,
    remove_dc,
    respond,
)


def run_pixel(model, standard_code, modified_code, timing, amplitude=1.0,
              noise=None, normalization=Normalization.RAW,
              single_period=False):
    """Simulate one pixel and run DC removal plus compression.

    Returns (compressed_trace, raw_trace). ``noise`` is an optional
    array added to the simulated trace before processing.
    """
    unipolar = build_unipolar(build_bipolar(standard_code, timing), amplitude)
    h = impulse_response(model, timing, unipolar.duration)
    y = respond(h, unipolar)
    if noise is not None:
        y = y + noise
    y_ac = remove_dc(y, modified_code, timing)
    compressed = compress_trace(y_ac, modified_code, timing,
                                normalization=normalization,
                                single_period=single_period)
    return compressed, y
