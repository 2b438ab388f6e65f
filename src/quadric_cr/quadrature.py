"""Gauss quadrature grids with deterministic node ordering.

Every integral in this package is evaluated on tensor-product Gauss rules.
Node and weight arrays are always laid out in the same order (panels left to
right, tensor factors in C-order), and reductions go through numpy's pairwise
summation on contiguous axes, so a rerun of the same computation accumulates
in exactly the same sequence and reproduces results bit for bit.
"""

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite",
    "panel_gauss",
    "tensor_rule",
    "complex_grid",
    "boundary_mask",
]


def gauss_legendre(num, lo, hi):
    """Gauss-Legendre nodes and weights on the interval [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(int(num))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def gauss_hermite(num):
    """Gauss-Hermite nodes and weights for the weight exp(-t^2) on the line."""
    return np.polynomial.hermite.hermgauss(int(num))


def panel_gauss(num, lo, hi, cuts=()):
    """Composite Gauss-Legendre rule on [lo, hi], split at interior cut points.

    `num` nodes are distributed over the panels proportionally to panel
    length (largest-remainder rounding, at least two nodes per panel).
    Splitting at a known kink keeps the rule spectrally accurate on each
    side, and the kink point itself is never sampled because Gauss nodes
    are interior to their panel.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        raise ValueError("empty interval")
    inner = sorted(float(c) for c in set(cuts) if lo < c < hi)
    edges = np.array([lo] + inner + [hi])
    npan = len(edges) - 1
    if num < 2 * npan:
        raise ValueError(f"need at least {2 * npan} nodes for {npan} panels")
    lengths = np.diff(edges)
    raw = num * lengths / lengths.sum()
    counts = np.maximum(raw.astype(int), 2)
    while counts.sum() < num:
        counts[int(np.argmax(raw - counts))] += 1
    while counts.sum() > num:
        k = int(np.argmin(raw - counts))
        if counts[k] <= 2:
            k = int(np.argmax(counts))
        counts[k] -= 1
    xs, ws = [], []
    for k in range(npan):
        x, w = gauss_legendre(counts[k], edges[k], edges[k + 1])
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def tensor_rule(rules):
    """Tensor product of 1-D rules.

    INPUT  rules : sequence of (nodes, weights) pairs
    OUTPUT nodes (N, k) and weights (N,) with axes in C-order, so the last
           rule varies fastest.
    """
    rules = list(rules)
    if not rules:
        return np.zeros((1, 0)), np.ones(1)
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        weights = weights * g.reshape(-1)
    return nodes, weights


def complex_grid(rule_re, rule_im=None):
    """Product rule on the complex plane, nodes s + i t with weight w_s * w_t."""
    if rule_im is None:
        rule_im = rule_re
    nodes, weights = tensor_rule([rule_re, rule_im])
    return nodes[:, 0] + 1j * nodes[:, 1], weights


def boundary_mask(nodes):
    """Mask of tensor-rule nodes (N, k) with a coordinate at its axis's first
    or last node; a complex coordinate counts as its real and imaginary parts."""
    real = np.asarray(nodes).view(float)
    return ((real == real.min(axis=0)) | (real == real.max(axis=0))).any(axis=1)
