"""Independent 1-D finite-difference heat solver used as a test oracle.

Explicit finite-volume discretization of two layers with equal
diffusivity and a conductivity step at the interface chosen so the
thermal-wave reflection coefficient is R = (k1 - k2) / (k1 + k2); for
R = 1, an insulated layer, the domain ends at the interface. A unit
areal energy deposit in the surface cell approximates the Dirac surface
flux; the returned trace is the frame-averaged surface temperature
scaled to amplitude_scale = 1 (multiplied by the front effusivity).

Kept deliberately separate from the library: the analytic image-source
series must be validated against something that does not share its
derivation.
"""

import numpy as np


def fd_impulse_response(alpha, dt_frame, n_frames, depth_interface=None,
                        reflection=0.0, dx=5e-5, domain_depth=0.025,
                        safety=0.4):
    if reflection == 1.0 and depth_interface is not None:
        # an insulated layer: the domain ends at the interface, a face
        # that carries no flux, with no cells beyond it
        domain_depth, depth_interface = depth_interface, None
    elif not -1.0 < reflection < 1.0:
        raise ValueError("oracle supports |R| < 1 (finite backing "
                         "conductivity) and R = 1 (insulated layer)")
    n_cells = int(round(domain_depth / dx))
    k1 = 1.0
    k2 = k1 * (1.0 - reflection) / (1.0 + reflection)
    if depth_interface is None:
        k = np.full(n_cells, k1)
    else:
        i_int = int(round(depth_interface / dx))
        k = np.where(np.arange(n_cells) < i_int, k1, k2)
    rho_c = k / alpha
    k_face = 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:])
    # FTCS bound for uniform diffusivity, with margin for the interface cell
    dt = safety * dx * dx / (2.0 * alpha)
    n_sub = max(1, int(np.ceil(dt_frame / dt)))
    dt = dt_frame / n_sub
    temp = np.zeros(n_cells)
    temp[0] = 1.0 / (rho_c[0] * dx)
    coef = dt / (rho_c * dx)
    effusivity = k1 / np.sqrt(alpha)
    out = np.zeros(n_frames)
    for frame in range(n_frames):
        acc = 0.0
        for _ in range(n_sub):
            before = temp[0]
            flux = k_face * (temp[1:] - temp[:-1]) / dx
            temp[:-1] += flux * coef[:-1]
            temp[1:] -= flux * coef[1:]
            acc += 0.5 * (before + temp[0])
        out[frame] = acc / n_sub
    return out * effusivity
