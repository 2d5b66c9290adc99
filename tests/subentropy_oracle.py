"""Test-only confluent oracle for the subentropy: minus the (N-1)-th divided
difference of x^N ln x over the spectrum, as an mpmath Newton table whose
nearly equal eigenvalues are merged and handled with derivative entries."""

import math

import mpmath as mp
import numpy as np

# Eigenvalues closer together than this (density-operator scale) are merged
# into one node and handled with derivative-based divided differences.
CLUSTER_GAP = 1e-7

_MP_DPS = 40


def _cluster_nodes(lam: np.ndarray) -> np.ndarray:
    """Merge eigenvalues whose consecutive gap is below CLUSTER_GAP.

    Returns the node list (cluster means, repeated by multiplicity) so the
    divided-difference table can detect multiplicities by float equality.
    """
    nodes = np.empty_like(lam)
    start = 0
    for k in range(1, len(lam) + 1):
        if k == len(lam) or lam[k] - lam[k - 1] >= CLUSTER_GAP:
            nodes[start:k] = lam[start:k].mean()
            start = k
    return nodes


def _xn_logx_deriv(n: int, order: int, x, harm) -> mp.mpf:
    """order-th derivative of x^n ln x, extended by continuity to 0 at x = 0.

    d^k/dx^k [x^n ln x] = (n!/(n-k)!) x^(n-k) (ln x + H_n - H_(n-k))
    for k < n, where H_m is the m-th harmonic number.
    """
    if x == 0:
        return mp.mpf(0)
    coeff = math.factorial(n) // math.factorial(n - order)
    return coeff * x ** (n - order) * (mp.ln(x) + harm[n] - harm[n - order])


def _table_dps(nodes: np.ndarray) -> int:
    """Digits for the Newton table: each of its N-1 orders can cancel
    -log10 g digits across the smallest gap g between distinct nodes."""
    distinct = np.unique(nodes)
    if len(distinct) < 2:
        return _MP_DPS
    loss = max(0, math.ceil(-math.log10(float(np.min(np.diff(distinct))))))
    return max(_MP_DPS, 30 + (len(nodes) - 1) * loss)


def _subentropy_table(lam: np.ndarray) -> tuple[float, int]:
    """Subentropy of one clean spectrum, and the digits used, as minus the
    (N-1)-th divided difference of x^N ln x over its N eigenvalues. Those
    closer than CLUSTER_GAP are merged and handled confluently (derivative
    entries in the Newton table), in the precision of :func:`_table_dps`."""
    n = len(lam)
    nodes = _cluster_nodes(lam)
    dps = _table_dps(nodes)
    with mp.workdps(dps):
        harm = [mp.mpf(0)]
        for m in range(1, n + 1):
            harm.append(harm[-1] + mp.mpf(1) / m)
        z = [mp.mpf(float(x)) for x in nodes]
        f0 = [_xn_logx_deriv(n, 0, x, harm) for x in z]
        # Newton table; diag[k][i] holds the order-k entry starting at node i
        prev = f0
        for k in range(1, n):
            cur = []
            for i in range(n - k):
                if nodes[i] == nodes[i + k]:
                    cur.append(_xn_logx_deriv(n, k, z[i], harm) / math.factorial(k))
                else:
                    cur.append((prev[i + 1] - prev[i]) / (z[i + k] - z[i]))
            prev = cur
        return float(-prev[0]), dps
