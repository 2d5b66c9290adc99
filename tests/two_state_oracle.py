"""Test-only brute-force oracle for the accessible information of two
equiprobable pure states: a sweep of projective measurements over a uniform
angle grid, refined by golden-section search. It shares no code with the
closed form ``qbound.accinfo.two_state_reference`` it checks."""

import numpy as np
from scipy.optimize import minimize_scalar

# Angles per vectorized call of the sweep, which bounds its temporaries.
SWEEP_CHUNK = 1000


def _two_state_mi(phi, alpha: float):
    """Index information of the projective measurement at basis angle phi
    (a scalar or an array of angles) for equiprobable real qubit states
    at angles +/- alpha."""
    p_plus = np.square(np.cos(phi - alpha))
    p_minus = np.square(np.cos(phi + alpha))
    joint = 0.5 * np.array([[p_plus, 1.0 - p_plus], [p_minus, 1.0 - p_minus]])
    qj = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = joint / qj
        h = -np.where(post > 0.0, post * np.log(post), 0.0).sum(axis=0)
    h_cond = np.where(qj > 0.0, qj * h, 0.0)
    return np.log(2.0) - (h_cond[0] + h_cond[1])


def two_state_sweep(overlap: float, grid: int = 10000) -> float:
    """Brute-force optimum of the index information for two equiprobable
    pure states with overlap modulus ``overlap``.

    Sweeps projective measurements in the span over a uniform angle grid
    and refines the best bracket by golden-section search.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    alpha = np.arccos(np.clip(overlap, 0.0, 1.0)) / 2.0
    phis = np.linspace(0.0, np.pi, grid, endpoint=False)
    values = np.concatenate([_two_state_mi(part, alpha)
                             for part in np.array_split(phis, -(-grid // SWEEP_CHUNK))])
    best = int(np.argmax(values))
    span = np.pi / grid
    lo, hi = phis[best] - span, phis[best] + span
    res = minimize_scalar(lambda phi: -_two_state_mi(phi, alpha),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(float(values[best]), float(-res.fun))
