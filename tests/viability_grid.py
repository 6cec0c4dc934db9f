"""Test-side viability kernel by the grid algorithm of Saint-Pierre (1994).

The constraint box [0, 1] x [0, H_bar] is covered by a grid of NODES x NODES
points.  Under each control in {u_min, u_max} every node is carried TAU days
by RK4 in SUBSTEPS steps.  A control is rejected at a node when h passes the
cap at any substep; otherwise it leads to the node nearest the end point.
Starting from every node, nodes with no control that leads to a kept node
are dropped until none is: the fixed point approximates the viability
kernel.  The field is written out again here, so that the oracle shares
nothing with the library but `ModelRates`.
"""

import numpy as np

from rossmac.model import ModelRates

NODES = 401
TAU = 1.0
SUBSTEPS = 8


def _field(m, h, u, rates: ModelRates):
    return rates.A_m * h * (1.0 - m) - u * m, rates.A_h * m * (1.0 - h) - rates.gamma * h


def grid_viability_kernel(rates: ModelRates, H_bar: float):
    """The grid nodes (m, h), flattened, and whether each is in the grid kernel."""
    m0, h0 = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, NODES),
                                             np.linspace(0.0, H_bar, NODES), indexing="ij"))
    dt = TAU / SUBSTEPS
    successors = []
    for u in (rates.u_min, rates.u_max):
        m, h, kept = m0, h0, np.ones(m0.size, dtype=bool)
        for _ in range(SUBSTEPS):
            k1 = _field(m, h, u, rates)
            k2 = _field(m + 0.5 * dt * k1[0], h + 0.5 * dt * k1[1], u, rates)
            k3 = _field(m + 0.5 * dt * k2[0], h + 0.5 * dt * k2[1], u, rates)
            k4 = _field(m + dt * k3[0], h + dt * k3[1], u, rates)
            m = m + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            h = h + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            kept &= h <= H_bar
        i = np.clip(np.rint(m * (NODES - 1)), 0, NODES - 1).astype(int)
        j = np.clip(np.rint(h / H_bar * (NODES - 1)), 0, NODES - 1).astype(int)
        successors.append(np.where(kept, i * NODES + j, -1))  # -1: rejected
    inside = np.ones(m0.size, dtype=bool)
    while True:
        viable = np.append(inside, False)  # index -1 reads False
        new = inside & (viable[successors[0]] | viable[successors[1]])
        if np.array_equal(new, inside):
            return m0, h0, inside
        inside = new
