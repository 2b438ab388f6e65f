"""Rockland image of the canonical fourth-order operator on a layer.

On each nondegenerate frequency layer the complex CR directions act by
ladder operators: for a mode of positive eigenvalue the holomorphic field
lowers the degree (coefficient -sqrt(2 mu beta_k)) and its conjugate raises
it (coefficient sqrt(2 mu (beta_k+1))); on negative modes the two swap.
The layer image of the operator is

    dpi(L) = (M - |tau|^2/2)^2 + |lam|^2,

where M = sum_k (Z_k Zbar_k + Zbar_k Z_k) is the (negative) oscillator sum
with exact diagonal -2 sum_k mu_k (1 + 2 alpha_k).  Degree truncation
corrupts the top layer only: rows with |alpha| = degree lose the raising
contribution, so entries are exact for |alpha| <= degree - 1.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ladder_matrices",
    "oscillator_sum",
    "rockland_matrix",
    "rockland_eigenvalue",
    "RocklandSpectrum",
    "rockland_spectrum",
]


def ladder_matrices(fb):
    """Lowering and raising matrices per mode, shapes (K, B, B).

    Returned in the layer's own orientation: `lower[k]` is the matrix of the
    holomorphic CR direction of mode k (which lowers on positive modes and
    raises on negative ones), `raise_[k]` its conjugate.
    """
    sd = fb.sd
    B = fb.size
    mu = np.abs(sd.eigenvalues)
    key = {tuple(a): i for i, a in enumerate(fb.alphas)}
    lower = np.zeros((sd.kdim, B, B))
    raise_ = np.zeros((sd.kdim, B, B))
    for k in range(sd.kdim):
        for i, a in enumerate(fb.alphas):
            if a[k] > 0:
                down = list(a)
                down[k] -= 1
                j = key[tuple(down)]
                lo = np.sqrt(2.0 * mu[k] * a[k])
                lower[k, j, i] = -lo
                raise_[k, i, j] = lo
    neg = sd.eigenvalues < 0
    lower[neg], raise_[neg] = raise_[neg].copy(), lower[neg].copy()
    return lower, raise_


def oscillator_sum(fb):
    """M = sum_k (Z_k Zbar_k + Zbar_k Z_k), by explicit products."""
    lower, raise_ = ladder_matrices(fb)
    m = np.zeros((fb.size, fb.size))
    for k in range(fb.sd.kdim):
        m += lower[k] @ raise_[k] + raise_[k] @ lower[k]
    return m


def rockland_matrix(fb, tau=None):
    """Matrix of dpi(L) on the truncated basis."""
    sd = fb.sd
    if tau is None:
        tau = np.zeros(2 * sd.d)
    tau = np.asarray(tau, float).reshape(2 * sd.d)
    m = oscillator_sum(fb)
    shifted = m - 0.5 * float(tau @ tau) * np.eye(fb.size)
    return shifted @ shifted + float(sd.lam @ sd.lam) * np.eye(fb.size)


def rockland_eigenvalue(sd, alpha, tau=None):
    """Closed-form eigenvalue (2 sum mu_k (1+2 alpha_k) + |tau|^2/2)^2 + |lam|^2."""
    alpha = np.asarray(alpha)
    if tau is None:
        tau = np.zeros(2 * sd.d)
    tau = np.asarray(tau, float).reshape(2 * sd.d)
    mu = np.abs(sd.eigenvalues)
    base = 2.0 * np.sum(mu * (1 + 2 * alpha), axis=-1) + 0.5 * float(tau @ tau)
    return base**2 + float(sd.lam @ sd.lam)


@dataclass
class RocklandSpectrum:
    """Eigenvalues of the truncated layer operator."""

    eigenvalues: np.ndarray
    alphas: np.ndarray


def rockland_spectrum(fb, tau=None):
    """Sorted spectrum of dpi(L), paired with the multi-indices that carry it.

    The operator is diagonal on the graded basis, so the spectrum is read
    off the diagonal after an off-diagonal sanity check.  Rows of top degree
    lose their raising contribution to the truncation and are deflated, so
    they are dropped; `rockland_matrix` still holds them.
    """
    mat = rockland_matrix(fb, tau)
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() > 1e-9 * max(1.0, np.abs(np.diag(mat)).max()):
        raise AssertionError("layer operator is not diagonal on the graded basis")
    diag = np.diag(mat)
    keep = fb.alphas.sum(axis=1) < max(fb.degree, 1)
    diag, alphas = diag[keep], fb.alphas[keep]
    order = np.argsort(diag, kind="stable")
    return RocklandSpectrum(eigenvalues=diag[order], alphas=alphas[order])
