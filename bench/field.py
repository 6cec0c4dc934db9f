"""The controlled Ross-Macdonald model written out from the paper, apart
from `rossmac`:

    dm/dt = A_m h (1 - m) - u m
    dh/dt = A_h m (1 - h) - gamma h

Plain arithmetic on floats or numpy arrays; importing it loads nothing else,
so the worker can use it in checks without changing what it measures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rates:
    A_m: float
    A_h: float
    gamma: float
    u_min: float
    u_max: float


# Reduced rates of the 2013 Cali outbreak, as stated in the paper.
CALI = Rates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.03733)
# Raw estimate (alpha, p_h, p_m, xi, delta) and the fit's admissible box.
CALI_THETA = (0.3365, 0.2287, 0.1532, 1.0359, 0.0333)
THETA_BOUNDS = ((0.0, 5.0), (0.0, 1.0), (0.0, 1.0), (1.0, 5.0), (1.0 / 30.0, 1.0 / 15.0))
FIT_GAMMA = 0.1
MOSQUITO_INIT_FACTOR = 3.0  # the fit model starts from m(0) = 3 h(0)


def field(m, h, u, r: Rates):
    return r.A_m * h * (1.0 - m) - u * m, r.A_h * m * (1.0 - h) - r.gamma * h


def cap_corner(r: Rates, H_bar: float) -> float:
    """m on the cap h = H_bar where dh/dt changes sign."""
    return r.gamma * H_bar / (r.A_h * (1.0 - H_bar))
