"""Gauss quadrature grids with deterministic node ordering.

Every integral in this package is evaluated on tensor-product Gauss rules.
Node and weight arrays are always laid out in the same order (panels left to
right, tensor factors in C-order), and reductions go through numpy's pairwise
summation on contiguous axes, so a rerun of the same computation accumulates
in exactly the same sequence and reproduces results bit for bit.

Every Gauss-Legendre rule is the reference rule of its node count on
[-1, 1], mapped affinely onto its interval.  The reference rule is an
eigenproblem, solved once per node count and kept read-only
(`_reference_rule`), so the many clipped rules of one node count that a
Plancherel pass builds cost one solve, and each rule has the bits a fresh
solve would give.
"""

import functools

import numpy as np

__all__ = [
    "gauss_legendre",
    "panel_gauss",
    "tensor_rule",
    "complex_grid",
    "boundary_mask",
]


@functools.lru_cache(maxsize=64)
def _reference_rule(num):
    """The read-only Gauss-Legendre nodes and weights of num nodes on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(num)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(num, lo, hi):
    """Gauss-Legendre nodes and weights on the interval [lo, hi], new arrays
    mapped from the node count's reference rule."""
    x, w = _reference_rule(int(num))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


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


def complex_grid(rule):
    """Product rule on the complex plane, nodes s + i t with weight w_s * w_t."""
    nodes, weights = tensor_rule([rule, rule])
    return nodes[:, 0] + 1j * nodes[:, 1], weights


def boundary_mask(nodes):
    """Mask of tensor-rule nodes (N, k) with a coordinate at its axis's first
    or last node; a complex coordinate counts as its real and imaginary parts."""
    real = np.asarray(nodes).view(float)
    return ((real == real.min(axis=0)) | (real == real.max(axis=0))).any(axis=1)
