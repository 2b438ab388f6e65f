"""Fock-space realizations of the frequency-layer representations.

Each nondegenerate direction of a frequency layer contributes one complex
oscillator mode.  The layer's Hilbert space is the space of entire functions
of the lam-holomorphic coordinates w_1..w_K, square-integrable against
exp(-2 phi_lam(z)) Lebesgue, with the graded monomial basis

    e_alpha = w^alpha / ||w^alpha||,
    ||w^alpha||^2 = prod_k pi alpha_k! / (2 mu_k)^(alpha_k + 1),

truncated at total degree D.  A group point (z, x) acts by

    (pi(z, x) psi)(w) = exp(-i<lam, x> - i<tau, z_rad>
                            + 2 phi_lam(w, z) - phi_lam(z)) psi(w - w(z)),

where tau is a real 2d-vector of frequencies against the (Re, Im) radical
coordinates.  The shift part factorizes across modes, and each mode's block
is a displacement operator whose matrix elements have a closed form in
generalized Laguerre polynomials (Cahill & Glauber, Phys. Rev. 177, 1857
(1969)); no quadrature is involved.

`pi_of_f` integrates these matrices against a boundary function over a
tensor grid.  The perpendicular part of the grid is clipped where the layer
weight phi_lam exceeds `PHI_CUT`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .functions import (CHUNK_ELEMENTS, GridSpec, SampledFunction, SpectralForm,
                        central_transform)
from .quadrature import complex_grid, gauss_legendre, panel_gauss, tensor_rule
from .spectral import is_exceptional, spectral_data, generic_dimension

__all__ = [
    "FockBasis",
    "fock_basis",
    "multi_indices",
    "eval_basis",
    "rep_apply",
    "OperatorMatrix",
    "pi_of_f",
    "pi_of_f_batch",
    "group_convolve",
    "PlancherelConfig",
    "PlancherelReport",
    "plancherel_residual",
    "hs_norm",
]

# Layer weight phi_lam past which the perpendicular zeta-box is clipped.  The
# true matrix elements are suppressed by exp(-phi_lam/2) there, and the clip
# keeps the fixed number of zeta nodes on the region that carries the layer,
# so the grid resolves it uniformly in lam; without it the degree-24
# Plancherel residual is 8x off its floor.
PHI_CUT = 40.0


def multi_indices(kdim, degree):
    """Multi-indices with |alpha| <= degree in graded lexicographic order."""
    idx = [()]
    for _ in range(kdim):
        idx = [t + (a,) for t in idx for a in range(degree + 1)]
    idx = [t for t in idx if sum(t) <= degree]
    idx.sort(key=lambda t: (sum(t), t))
    return np.array(idx, dtype=int)


@dataclass(eq=False)
class FockBasis:
    """Degree-truncated monomial basis of one layer's Fock space."""

    sd: object
    degree: int
    alphas: np.ndarray

    @property
    def size(self):
        return self.alphas.shape[0]


def fock_basis(sd, degree):
    """Build the graded basis bookkeeping for a spectral layer."""
    return FockBasis(sd=sd, degree=degree, alphas=multi_indices(sd.kdim, degree))


def eval_basis(fb, w):
    """Normalized basis values e_alpha(w) for w of shape (..., K).

    Each mode's normalized powers w^a / ||w^a|| are the running product
    e_0 = sqrt(2 mu / pi), e_a = e_(a-1) w sqrt(2 mu / a), so no factorial
    or power of 2 mu is formed on its own and none overflows at high degree.
    """
    w = np.asarray(w, dtype=complex)
    if fb.sd.kdim == 0:
        return np.ones(w.shape[:-1] + (1,), dtype=complex)
    mu = np.abs(fb.sd.eigenvalues)
    out = 1.0
    for k in range(fb.sd.kdim):
        pw = np.empty(w.shape[:-1] + (fb.degree + 1,), dtype=complex)
        pw[..., 0] = math.sqrt(2.0 * mu[k] / np.pi)
        for a in range(1, fb.degree + 1):
            pw[..., a] = pw[..., a - 1] * w[..., k] * math.sqrt(2.0 * mu[k] / a)
        out = out * pw[..., fb.alphas[:, k]]
    return out


def _mode_blocks(mu, wz, degree):
    """Single-mode shift matrices for shifts wz (P,), shape (P, D+1, D+1).

    Entry [a, b] is <pi(z) e_b, e_a> for the one-variable normalized
    monomials, a displacement-operator matrix element.  With
    beta = conj(sqrt(2 mu) wz) and s = |beta|^2 it is

        a >= b:  sqrt(b!/a!) beta^(a-b) L_b^(a-b)(s) exp(-s/2),
        a <  b:  the same with (a, b) swapped and beta -> -conj(beta).

    For each k = a - b the normalized Laguerre values
    g_b = sqrt(b! k!/(b+k)!) L_b^k(s) follow the three-term recurrence in b,
    and c_k = beta^k exp(-s/2)/sqrt(k!) is a running product; exp(-s/2) is
    split evenly between g and c so neither overflows at large shifts.
    """
    beta = np.conj(math.sqrt(2.0 * mu) * np.asarray(wz, complex))
    s = np.abs(beta) ** 2
    half = np.exp(-0.25 * s)
    k = np.arange(degree + 1)
    steps = np.concatenate([half[:, None], beta[:, None] / np.sqrt(k[1:])], axis=1)
    c = np.cumprod(steps, axis=1)  # beta^k exp(-s/4) / sqrt(k!)
    c_up = (-1.0) ** k * np.conj(c)  # the same for -conj(beta)
    out = np.empty((beta.size, degree + 1, degree + 1), complex)
    g_prev = np.zeros((beta.size, degree + 1))
    g = np.repeat(half[:, None], degree + 1, axis=1)  # g_0 exp(-s/4)
    for b in range(degree + 1):
        n = degree + 1 - b
        out[:, b:, b] = c[:, :n] * g[:, :n]  # a = b + k
        out[:, b, b + 1 :] = c_up[:, 1:n] * g[:, 1:n]  # the mirrored a < b entries
        kk = k[: n - 1]
        g_next = ((2 * b + 1 + kk - s[:, None]) * g[:, : n - 1]
                  - np.sqrt(b * (b + kk)) * g_prev[:, : n - 1]) / np.sqrt((b + 1) * (b + 1 + kk))
        g_prev, g = g[:, : n - 1], g_next
    return out


def _shift_matrices(fb, wz):
    """Shift-operator matrices for points wz (P, K), shape (P, B, B).

    The kernel factorizes across modes, so the full matrix is the entrywise
    product of the per-mode blocks on the degree-truncated index set.
    """
    mu = np.abs(fb.sd.eigenvalues)
    al = fb.alphas
    out = np.ones((wz.shape[0], 1, 1), complex)
    for k in range(fb.sd.kdim):
        out = out * _mode_blocks(mu[k], wz[:, k], fb.degree)[:, al[:, k][:, None], al[None, :, k]]
    return out


def _tau_dot(tau, r):
    """Real pairing of tau (.., 2d) with radical coordinates r (.., d)."""
    return np.einsum("...d,...d->...", tau[..., 0::2], np.real(r)) + np.einsum(
        "...d,...d->...", tau[..., 1::2], np.imag(r)
    )


def rep_apply(fb, point, tau=None):
    """Matrix of pi_(lam,tau)(z, x) on the truncated basis, shape (B, B).

    The central and radical parts contribute the scalar phase
    exp(-i <lam, x> - i <tau, z_rad>); the perpendicular part acts by the
    closed-form shift operator.
    """
    sd = fb.sd
    z, x = point
    z = np.asarray(z, complex).reshape(-1)
    x = np.asarray(x, float).reshape(-1)
    wz = sd.w_coords(z)
    r = sd.radical_coords(z)
    if tau is None:
        tau = np.zeros(2 * sd.d)
    tau = np.asarray(tau, float).reshape(2 * sd.d)
    phase = np.exp(-1j * float(sd.lam @ x) - 1j * _tau_dot(tau, r))
    return phase * _shift_matrices(fb, wz[None, :])[0]


@dataclass
class OperatorMatrix:
    """pi_(lam,tau)(f) on the truncated basis, with quadrature diagnostics."""

    lam: np.ndarray
    tau: np.ndarray
    degree: int
    matrix: np.ndarray
    warnings: tuple = ()


def hs_norm(mat):
    """Hilbert-Schmidt norm of a matrix (or batch, last two axes)."""
    return np.sqrt(np.sum(np.abs(mat) ** 2, axis=(-2, -1)))


def _layer_grids(fb, grid):
    """Adapted quadrature grids for one layer.

    Perpendicular directions get Gauss-Legendre boxes clipped where the
    layer weight exceeds `PHI_CUT`; radical directions keep the function's
    own box.  A layer with no direction of a kind gets the one-point rule.
    """
    sd = fb.sd
    mu = np.abs(sd.eigenvalues)
    perp_rules = []
    for k in range(sd.kdim):
        lk = min(grid.ebox, math.sqrt(PHI_CUT / (2.0 * mu[k])))
        perp_rules.append(complex_grid(gauss_legendre(grid.enodes, -lk, lk)))
    rad_rules = [complex_grid(grid.e_rule()) for _ in range(sd.d)]
    xn, xw = tensor_rule([grid.f_rule()] * sd.lam.size)
    return tensor_rule(perp_rules), tensor_rule(rad_rules), (xn, xw)


def _edge_mask(num_nodes, dims):
    """Mask of tensor-grid points having an extreme index along any axis."""
    mask = np.zeros((num_nodes,) * dims, dtype=bool)
    for ax in range(dims):
        sl = [slice(None)] * dims
        sl[ax] = [0, num_nodes - 1]
        mask[tuple(sl)] = True
    return mask.reshape(-1)


def pi_of_f_batch(fb, f, taus=None, grid=None):
    """Integrated representation pi_(lam,tau)(f) for a batch of tau.

    Returns (matrices (T, B, B), warnings).  The integral over the group is
    a tensor-grid quadrature: central directions first (a Fourier phase at
    the layer frequency), then radical directions against the tau phases,
    then the perpendicular directions against the shift matrices.  The
    factored order changes nothing about which terms are summed.

    f is sampled a chunk of perpendicular points at a time, with chunks
    sized to stay in cache.  The x-sum of each chunk is one matrix product:
    a real GEMM against (Re, Im) of the x-phases when the samples are real,
    a complex one otherwise; the x-tail diagnostics are one more real GEMM
    of |f| against the box and boundary weights.
    """
    sd = fb.sd
    grid = grid or f.grid
    if taus is None:
        taus = np.zeros((1, 2 * sd.d))
    taus = np.asarray(taus, float)
    if taus.ndim == 1:
        taus = taus[None, :]
    taus = taus.reshape(taus.shape[0], 2 * sd.d)
    (pn, pw), (rn, rw), (xn, xw) = _layer_grids(fb, grid)
    P, R, X = pn.shape[0], rn.shape[0], xn.shape[0]
    zperp = pn @ sd.eigenvectors.T
    zrad = rn @ sd.radical.T
    phase_x = xw * np.exp(-1j * (xn @ sd.lam))  # (X,)

    spectral = getattr(f, "spectral", None)
    if spectral is not None:
        # same x-sums, reorganized: precontract the central phases per frequency
        glft = np.exp(1j * (xn @ spectral.lambdas.T)).T @ phase_x  # (J,)

    fhat = np.empty((P, R), complex)
    xedge = _edge_mask(grid.fnodes, sd.lam.size)
    # x-sums of |f| over the whole box and over its boundary nodes
    xabs = np.stack([np.abs(xw), np.abs(xw) * xedge], axis=1)  # (X, 2)
    phase_ri = np.stack([phase_x.real, phase_x.imag], axis=1)  # (X, 2)
    xtail = 0.0
    xtot = 0.0
    damp = np.exp(-0.5 * fb.sd.phi_lam(zperp)) * np.abs(pw)  # (P,)
    chunk = max(1, CHUNK_ELEMENTS // (R * (X if spectral is None else glft.size)))
    for lo in range(0, P, chunk):
        hi = min(P, lo + chunk)
        zg = zperp[lo:hi, None, :] + zrad[None, :, :]
        if spectral is not None:
            coeffs = spectral.coeff(zg)  # (c, R, J)
            fhat[lo:hi] = coeffs @ glft
            absx = np.abs(coeffs) @ np.abs(glft)
            xtot += float(np.sum(absx))  # x-tails are not observable in this form
        else:
            vals = f(zg[..., None, :], xn[None, None, :, :]).reshape(-1, X)  # (c R, X)
            if np.isrealobj(vals):
                ri = vals @ phase_ri
                fhat[lo:hi] = (ri[:, 0] + 1j * ri[:, 1]).reshape(hi - lo, R)
            else:
                fhat[lo:hi] = (vals @ phase_x).reshape(hi - lo, R)
            tot, tail = np.sum(np.abs(vals) @ xabs, axis=0)
            xtot += float(tot)
            xtail += float(tail)
    # weighted tail diagnostics on the zeta grid
    absf = np.abs(fhat)
    wgt = damp[:, None] * np.abs(rw)[None, :]
    tail_all = float(np.sum(absf * wgt))
    pmask = _edge_mask(grid.enodes, 2 * sd.kdim)
    rmask = _edge_mask(grid.enodes, 2 * sd.d)
    emask = pmask[:, None] | rmask[None, :]
    tail_w = float(np.sum(absf[emask].reshape(-1) * wgt[emask].reshape(-1))) if emask.any() else 0.0

    # radical phases and amplitude per (tau, perp point)
    tphase = rw[:, None] * np.exp(-1j * _tau_dot(taus[None, :, :], rn[:, None, :]))
    amp = (fhat @ tphase).T * pw[None, :]  # (T, P)

    out = np.tensordot(amp, _shift_matrices(fb, sd.w_coords(zperp)), axes=([1], [0]))

    warnings = []
    if tail_all > 0 and tail_w / tail_all > 1e-6:
        warnings.append(f"zeta-grid boundary carries {tail_w / tail_all:.2e} of the weighted mass")
    if xtot > 0 and xtail / xtot > 1e-6:
        warnings.append(f"x-grid boundary carries {xtail / xtot:.2e} of the absolute mass")
    return out, tuple(warnings)


def pi_of_f(fb, f, tau=None, grid=None):
    """Integrated representation at a single tau, as an OperatorMatrix."""
    sd = fb.sd
    if tau is None:
        tau = np.zeros(2 * sd.d)
    tau = np.asarray(tau, float).reshape(2 * sd.d)
    mats, warns = pi_of_f_batch(fb, f, taus=tau[None, :], grid=grid)
    return OperatorMatrix(lam=sd.lam, tau=tau, degree=fb.degree, matrix=mats[0], warnings=warns)


def group_convolve(f, g, grid=None):
    """Group convolution (f * g)(p) = integral of f(q) g(q^-1 p).

    Quadrature over q uses f's grid box.  When g carries a spectral form the
    result does too (the central integral against each frequency is done
    once and reused); otherwise a direct, slower evaluator is returned.
    """
    model = f.model
    grid = grid or f.grid
    erule = grid.e_rule()
    enodes, eweights = tensor_rule([erule] * (2 * model.n))
    zq = enodes[:, 0::2] + 1j * enodes[:, 1::2]  # (Q, n)
    xn, xw = tensor_rule([grid.f_rule()] * model.m)  # (X, m)

    if getattr(g, "spectral", None) is not None:
        lambdas = g.spectral.lambdas  # (J, m)
        fhat = central_transform(f, zq, lambdas, xn, xw)  # (Q, J)
        gcoeff = g.spectral.coeff

        def coeff(z):
            z = np.asarray(z, complex)
            flat = z.reshape(-1, model.n)
            out = np.empty((flat.shape[0], lambdas.shape[0]), complex)
            czch = max(1, CHUNK_ELEMENTS // (zq.shape[0] * lambdas.shape[0]))
            for lo in range(0, flat.shape[0], czch):
                zc = flat[lo : lo + czch]
                shift = 2.0 * np.imag(model.phi_pair(zq[None, :, :], zc[:, None, :]))
                # shift of the central variable produced by the group law,
                # as a phase at each fixed frequency
                ph = np.exp(-1j * np.einsum("zqm,jm->zqj", shift, lambdas))
                gz = gcoeff(zc[:, None, :] - zq[None, :, :])  # (c, Q, J)
                out[lo : lo + czch] = np.einsum("q,qj,zqj,zqj->zj", eweights, fhat, gz, ph)
            return out.reshape(z.shape[:-1] + (lambdas.shape[0],))

        form = SpectralForm(lambdas, coeff)
        return SampledFunction(model, form, grid, spectral=form, meta={"convolved": True})

    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        zb = np.broadcast_to(z, np.broadcast_shapes(z.shape, x.shape[:-1] + (model.n,)))
        xb = np.broadcast_to(x, np.broadcast_shapes(x.shape, z.shape[:-1] + (model.m,)))
        flatz = zb.reshape(-1, model.n)
        flatx = xb.reshape(-1, model.m)
        out = np.empty(flatz.shape[0], complex)
        fq = f(zq[:, None, :], xn[None, :, :])  # (Q, X)
        for i in range(flatz.shape[0]):
            shift = 2.0 * np.imag(model.phi_pair(zq, flatz[i]))  # (Q, m)
            vals = g(flatz[i] - zq[:, None, :], flatx[i] - xn[None, :, :] - shift[:, None, :])
            out[i] = np.sum(eweights[:, None] * xw[None, :] * fq * vals)
        return out.reshape(zb.shape[:-1])

    return SampledFunction(model, ev, grid, meta={"convolved": True})


@dataclass
class PlancherelConfig:
    """Quadrature layout for the group Plancherel identity."""

    lam_lo: np.ndarray
    lam_hi: np.ndarray
    lam_nodes: int
    degree: int = 12
    tau_box: float = 6.0
    tau_nodes: int = 12
    grid: GridSpec | None = None


@dataclass
class PlancherelReport:
    lhs: float
    rhs: float
    residual: float
    n_layers: int
    skipped: int
    constant: float
    generic_d: int
    rows: list
    warnings: tuple


def plancherel_residual(model, f, cfg):
    """Compare ||f||^2 with its frequency-layer reconstruction.

    The right-hand side integrates |Pf(lam)| times the Hilbert-Schmidt norms
    of pi_(lam,tau)(f) over a panel-split Gauss grid in lam (cut at the
    coordinate zeros, where the Pfaffian kinks and layers degenerate) and a
    Gauss grid in tau when the generic radical is nontrivial, scaled by
    2^(n-m-3d) / pi^(n+m+d).  Layers with an exceptional radical are skipped;
    the panel construction keeps nodes off the exceptional set in all the
    shipped models.
    """
    from .functions import l2_norm

    gen_d = generic_dimension(model)
    grid = cfg.grid or f.grid
    lam_lo = np.asarray(cfg.lam_lo, float).reshape(model.m)
    lam_hi = np.asarray(cfg.lam_hi, float).reshape(model.m)
    rules = [panel_gauss(cfg.lam_nodes, lam_lo[k], lam_hi[k], cuts=(0.0,)) for k in range(model.m)]
    lam_nodes, lam_weights = tensor_rule(rules)
    constant = 2.0 ** (model.n - model.m - 3 * gen_d) / np.pi ** (model.n + model.m + gen_d)

    lhs = l2_norm(f, grid) ** 2
    rhs = 0.0
    skipped = 0
    rows = []
    warnings = set()
    for j in range(lam_nodes.shape[0]):
        lam = lam_nodes[j]
        sd = spectral_data(model, lam)
        if is_exceptional(sd, gen_d):
            skipped += 1
            continue
        fb = fock_basis(sd, cfg.degree)
        if sd.d > 0:
            tau_rules = [gauss_legendre(cfg.tau_nodes, -cfg.tau_box, cfg.tau_box)] * (2 * sd.d)
            taus, tau_w = tensor_rule(tau_rules)
        else:
            taus, tau_w = np.zeros((1, 0)), np.ones(1)
        mats, warns = pi_of_f_batch(fb, f, taus=taus, grid=grid)
        warnings.update(warns)
        layer = float(np.sum(tau_w * hs_norm(mats) ** 2))
        rhs += lam_weights[j] * sd.pfaffian * layer
        rows.append((lam.copy(), sd.pfaffian, layer))
    rhs *= constant
    residual = abs(lhs - rhs) / lhs if lhs > 0 else np.inf
    return PlancherelReport(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        n_layers=lam_nodes.shape[0] - skipped,
        skipped=skipped,
        constant=constant,
        generic_d=gen_d,
        rows=rows,
        warnings=tuple(sorted(warnings)),
    )
