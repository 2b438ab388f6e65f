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

One runner computes every pi(f).  It takes a batch of layers sharing a frame
(the same eigenvectors and radical) and per-mode source rules, samples f on
the source grid a radical chunk at a time with one `central_transform` for
all the batch's frequencies, and each layer interpolates that fhat onto its
own clipped Gauss-Legendre nodes (tensor-product barycentric Lagrange, only
on axes whose nodes differ from the source's) before the one layer
contraction.  `pi_of_f_batch` is one batch of one layer whose source rules
are its own clipped rules, so nothing is interpolated.
`plancherel_residual` passes the frame's unclipped rules and cuts each frame
into batches whose cross-chunk state fits `functions.BATCH_STATE_BYTES`, so f
is sampled once per batch rather than once per layer.  Each of its layers
reports `captured`, its Hilbert-Schmidt mass over its fhat mass on the
unclipped grid, which cannot exceed 1 but through quadrature error; layers
past 1 + `CAPTURED_TOL` are warned about.
"""

import math
from dataclasses import dataclass

import numpy as np

from .functions import (BATCH_STATE_BYTES, CHUNK_ELEMENTS, GridSpec, SampledFunction,
                        SpectralForm, central_transform)
from .quadrature import boundary_mask, complex_grid, gauss_legendre, panel_gauss, tensor_rule
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

# How far a layer's Plancherel certificate may pass 1 before it is reported
# (see `plancherel_residual`).  Resolved runs read at most 1 + 1e-12: the
# gaussian on HEIS1 at degree 12, 24 and 48 on 64 zeta nodes, and at degree
# 12 on the 40-node criterion-01 grid; the DEG21 runs read below 1.  The
# first under-resolved layer seen, degree 24 on 40 nodes, read 1 + 3.0e-5,
# with the residual 1e-3 off its resolved value; at degree 48 the same grid
# reads up to 3.8.  Interpolating fhat from 40 source nodes costs at most
# 7e-10 relative.  1e-6 sits well clear of the noise and below that first
# failure.
CAPTURED_TOL = 1e-6

# the tail-diagnostic warnings, filled in with the boundary's share
_ZETA_TAIL = "zeta-grid boundary carries {:.2e} of the weighted mass"
_X_TAIL = "x-grid boundary carries {:.2e} of the absolute mass"


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
    mu = np.abs(fb.sd.eigenvalues)
    out = np.ones(w.shape[:-1] + (fb.size,), complex)
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


def _clipped_rules(sd, grid, erule):
    """A layer's 1-D rule per perpendicular mode, clipped where phi_lam exceeds `PHI_CUT`.

    erule itself where the clip does not bite, else a Gauss-Legendre rule
    with as many nodes on the clipped box.
    """
    rules = []
    for mu in np.abs(sd.eigenvalues):
        half = math.sqrt(PHI_CUT / (2.0 * mu))
        rules.append(erule if half >= grid.ebox else gauss_legendre(grid.enodes, -half, half))
    return rules


def _perp_grid(sd, rules):
    """The perpendicular tensor grid of per-mode rules: points z (P, n),
    weights (P,), damping exp(-phi_lam(z)/2)|w| (P,) and boundary mask (P,).

    A layer with no perpendicular direction gets the one-point rule.
    """
    pn, pw = tensor_rule([complex_grid(r) for r in rules])
    zperp = pn @ sd.eigenvectors.T
    damp = np.exp(-0.5 * sd.phi_lam(zperp)) * np.abs(pw)
    return zperp, pw, damp, boundary_mask(pn)


def _radical_grid(sd, erule):
    """The radical directions' grid, on the function's own box: points z (R, n),
    coordinates (R, d), weights (R,) and boundary mask (R,)."""
    rn, rw = tensor_rule([complex_grid(erule)] * sd.d)
    return rn @ sd.radical.T, rn, rw, boundary_mask(rn)


def _tau_phases(taus, rn, rw):
    """Radical weights times the tau phases, shape (R, T)."""
    return rw[:, None] * np.exp(-1j * _tau_dot(taus[None, :, :], rn[:, None, :]))


def _weighted_shifts(fb, zperp, pw):
    """The shift matrices at the perpendicular points, weighted, shape (P, B*B)."""
    out = _shift_matrices(fb, fb.sd.w_coords(zperp)).reshape(zperp.shape[0], -1)
    out *= pw[:, None]
    return out


def _tail_warning(part, whole, text):
    """(text with the fraction part/whole filled in,) past 1e-6, else ()."""
    return (text.format(part / whole),) if whole > 0 and part / whole > 1e-6 else ()


def pi_of_f_batch(fb, f, taus=None, grid=None):
    """Integrated representation pi_(lam,tau)(f) for a batch of tau.

    Returns (matrices (T, B, B), warnings).  The integral over the group is
    a tensor-grid quadrature: central directions first (a Fourier phase at
    the layer frequency), then radical directions against the tau phases,
    then the perpendicular directions against the shift matrices.  The
    factored order changes nothing about which terms are summed.  This is
    one batch of one layer for `_run_layers`, the runner `plancherel_residual`
    uses, with the layer's own clipped rules as the source rules: f is
    sampled on that grid, so nothing is interpolated, and the zeta- and
    x-tail warnings are this layer's own.
    """
    sd = fb.sd
    grid = grid or f.grid
    if taus is None:
        taus = np.zeros((1, 2 * sd.d))
    taus = np.asarray(taus, float)
    if taus.ndim == 1:
        taus = taus[None, :]
    taus = taus.reshape(taus.shape[0], 2 * sd.d)
    erule = grid.e_rule()
    xrule = tensor_rule([grid.f_rule()] * sd.lam.size)
    (layer,), xtot, xtail = _run_layers(f, [sd], fb.degree, grid, erule,
                                        _clipped_rules(sd, grid, erule), xrule, taus)
    warnings = (_tail_warning(layer.tail_w, layer.tail_all, _ZETA_TAIL)
                + _tail_warning(xtail, xtot, _X_TAIL))
    return layer.share.reshape(-1, fb.size, fb.size), warnings


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

    The kernel g must carry a ground form, c_j(z) = amp_j e^(-<lam_j, Phi(z)>),
    as `inverse_FN` and `bandlimit_project` build.  Quadrature over q uses f's
    grid box, and (q, y)^-1 (z, x) = (z - q, x - y - 2 Im Phi(q, z)) gives

        (f * g)(z, x) = sum_j e^(i <lam_j, x>) sum_q w_q fhat(q, lam_j)
                        c_j(z - q) e^(-i <lam_j, 2 Im Phi(q, z)>),

    with fhat the central transform of f.  For Hermitian Phi,
    Phi(z - q) = Phi(z) + Phi(q) - 2 Re Phi(z, q), so each q-term is

        amp_j e^(-<lam_j, Phi(z)>) e^(-<lam_j, Phi(q)>) e^(2 <lam_j, Phi(z, q)>),

    and 2 <lam_j, Phi(z, q)> = 2 q^H A(lam_j) z is linear in the real
    coordinates of q.  With s = 2 A(lam_j) z the last factor splits over the
    tensor q-grid into e^(t s_i) along Re q_i and e^(-i t s_i) along Im q_i,
    so the q-sum is 2n one-axis contractions of the z-independent array
    H = w_q fhat(q, lam_j) e^(-<lam_j, Phi(q)>): the same terms, summed in
    another order.  The result carries a spectral form that is not a ground
    form.  Raises ValueError when g has no ground form, when one factor's
    exponent exceeds 600 (as `extend` does), and when a product of factors
    overflows, so no inf or nan is returned.  The axis factors stay below
    e^(ebox |s_i|), so output points with ebox |s_i| < 600 are served (on
    HEIS1, 2 |lam| ebox |z| < 600); kernel frequencies outside the pairing
    cone are refused once e^(-<lam_j, Phi(q)>) passes e^600 on the box.
    """
    if getattr(g, "spectral", None) is None or g.spectral.amp is None:
        raise ValueError("the convolution kernel needs a ground form")

    def guard(exponent):
        top = float(np.max(exponent))
        if top > 600.0:
            raise ValueError(f"a convolution factor reaches exp({top:.0f}): the kernel "
                             "frequencies or output points lie too far outside the pairing "
                             "cone for the box")

    model = f.model
    grid = grid or f.grid
    t, tw = grid.e_rule()
    N, axes = t.size, 2 * model.n
    enodes, eweights = tensor_rule([(t, tw)] * axes)
    zq = enodes[:, 0::2] + 1j * enodes[:, 1::2]  # (Q, n)
    xn, xw = tensor_rule([grid.f_rule()] * model.m)  # (X, m)
    lambdas, amp = g.spectral.lambdas, g.spectral.amp  # (J, m), (J,)
    J = lambdas.shape[0]
    qexp = -(model.phi(zq) @ lambdas.T)  # (Q, J)
    guard(qexp)
    fhat, _, _ = central_transform(f, zq, lambdas, xn, xw)  # (Q, J)
    H = (eweights[:, None] * fhat * np.exp(qexp)).T.reshape(J, N ** (axes - 1), N)
    alam = np.tensordot(lambdas, model.A, axes=1)  # (J, n, n)
    step = max(1, CHUNK_ELEMENTS // (J * N ** (axes - 1)))

    def coeff(z):
        z = np.asarray(z, complex)
        flat = z.reshape(-1, model.n)
        out = np.empty((flat.shape[0], J), complex)
        for lo in range(0, flat.shape[0], step):
            zc = flat[lo : lo + step]
            s = 2.0 * np.einsum("jab,cb->jac", alam, zc)  # (J, n, c)
            # axis 2i of the q-grid is Re q_i, with factor e^(t s_i); axis
            # 2i + 1 is Im q_i, with factor e^(-i t s_i)
            slopes = [s[:, k // 2] * (1.0 if k % 2 == 0 else -1j) for k in range(axes)]
            zexp = -(model.phi(zc) @ lambdas.T)  # (c, J)
            guard(zexp)
            # every exponential before the matmul: a complex exp right after a
            # BLAS call ran 12x slower on an AVX-512 Xeon (dirty upper state)
            fac = []
            for w in slopes:
                # t * Re w peaks at an end node, and the nodes ascend
                guard(np.maximum(t[0] * w.real, t[-1] * w.real))
                e = t[:, None] * w[:, None, :]  # (J, N, c)
                fac.append(np.exp(e, out=e))
            # the factors are finite, but far outside the pairing cone their
            # products can still overflow; such a chunk is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                acc = H @ fac[-1]  # (J, N^(axes-1), c)
                for e in reversed(fac[:-1]):
                    acc = acc.reshape(J, -1, N, zc.shape[0])
                    acc *= e[:, None]
                    acc = acc.sum(axis=2)
                block = amp * np.exp(zexp) * acc[:, 0, :].T
            if not np.isfinite(block).all():
                raise ValueError("the convolution sum overflows: the output points lie too "
                                 "far outside the pairing cone for the box")
            out[lo : lo + step] = block
        return out.reshape(z.shape[:-1] + (J,))

    form = SpectralForm(lambdas, coeff)
    return SampledFunction(model, form, grid, spectral=form, meta={"convolved": True})


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
    """The two sides of the Plancherel identity and their per-layer terms.

    rows holds (lam, |Pf(lam)|, layer, captured) per processed layer in
    lam-node order; see `plancherel_residual`.
    """

    lhs: float
    rhs: float
    residual: float
    n_layers: int
    skipped: int
    constant: float
    generic_d: int
    rows: list
    warnings: tuple


def _interp_matrix(src, dst):
    """Barycentric Lagrange matrix from values at nodes src to nodes dst.

    Shape (len(dst), len(src)).  A dst node equal to a src node gets the
    exact unit row, so src -> src is exactly the identity.  The barycentric
    weights are scaled by the interval length so their products stay in
    range at any node count.
    """
    diff = (src[:, None] - src[None, :]) * (4.0 / (src[-1] - src[0]))
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    gap = dst[:, None] - src[None, :]
    hit = gap == 0.0
    gap[hit] = 1.0
    mat = bary / gap
    mat /= mat.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    mat[rows] = hit[rows]
    return mat


def _interpolate(fhat, mats):
    """Apply mats[a] along leading real axis a of fhat (N^A, R); None is the identity."""
    if all(m is None for m in mats):
        return fhat
    num = next(m for m in mats if m is not None).shape[0]
    # the real and imaginary parts side by side, so every step is a real GEMM
    out = np.ascontiguousarray(fhat).view(float).reshape((num,) * len(mats) + (-1,))
    for ax, m in enumerate(mats):
        if m is not None:
            out = np.moveaxis(np.tensordot(m, out, axes=([1], [ax])), 0, ax)
    return np.ascontiguousarray(out).reshape(fhat.shape[0], -1).view(complex)


class _BatchLayer:
    """One layer of a batch: its clipped grid and what it accumulates."""

    def __init__(self, sd, degree, grid, erule, src_rules, taus):
        self.fb = fock_basis(sd, degree)
        rules = _clipped_rules(sd, grid, erule)
        self.zperp, self.pw, self.damp, self.pmask = _perp_grid(sd, rules)
        # one matrix per real axis, (Re, Im) of each mode; None where the
        # layer's nodes are the source's
        self.mats = [None if np.array_equal(r[0], s[0]) else _interp_matrix(s[0], r[0])
                     for r, s in zip(rules, src_rules) for _ in range(2)]
        self.wshift = None  # kept only while more radical chunks remain
        self.share = np.zeros((taus.shape[0], self.fb.size ** 2), complex)
        self.tail_all = self.tail_w = self.mass = 0.0

    def add(self, fhat_src, src_w, tphase, rabs, rmask, last):
        """Add one radical chunk from fhat (P, R_c) on the source grid.

        tphase (R_c, T) carries the radical weights and tau phases, rabs
        (R_c,) the radical weights of the tail diagnostics.  The layer's terms
        of pi(f), the chain tphase^T fhat^T wshift, are multiplied in their
        cheaper order: tau-phases first for few tau, the shift contraction
        first for many.
        """
        wshift = self.wshift if self.wshift is not None else _weighted_shifts(
            self.fb, self.zperp, self.pw)
        self.wshift = None if last else wshift
        self.mass += float(src_w @ np.abs(fhat_src) ** 2 @ rabs)
        fhat = _interpolate(fhat_src, self.mats)
        self.share += np.linalg.multi_dot([tphase.T, fhat.T, wshift])
        absf = np.abs(fhat)
        full = absf @ rabs
        edge = absf[:, rmask] @ rabs[rmask]
        self.tail_all += float(self.damp @ full)
        self.tail_w += float(self.damp @ np.where(self.pmask, full, edge))


def _run_layers(f, sds, degree, grid, erule, src_rules, xrule, taus):
    """Run a batch of layers that share a frame; returns its layers and x-tail sums.

    f is sampled once on the source grid, the tensor grid of the per-mode
    src_rules, a radical chunk at a time, with one central transform for
    all the batch's frequencies; each layer interpolates the chunk onto its
    own clipped grid where that differs from the source.
    """
    sd0 = sds[0]
    layers = [_BatchLayer(sd, degree, grid, erule, src_rules, taus) for sd in sds]
    zperp, src_w, _, _ = _perp_grid(sd0, src_rules)
    zrad, rn, rw, rmask = _radical_grid(sd0, erule)
    lambdas = np.array([sd.lam for sd in sds])
    P = zperp.shape[0]
    step = max(1, CHUNK_ELEMENTS // (P * len(sds)))
    xtot = xtail = 0.0
    for lo in range(0, zrad.shape[0], step):
        sl = slice(lo, lo + step)
        z = (zperp[:, None, :] + zrad[None, sl, :]).reshape(-1, zperp.shape[1])
        fhat, tot, tail = central_transform(f, z, lambdas, *xrule)
        xtot += tot
        xtail += tail
        fhat = fhat.T.reshape(len(sds), P, -1)
        tphase = _tau_phases(taus, rn[sl], rw[sl])
        for lay, fh in zip(layers, fhat):
            lay.add(fh, src_w, tphase, np.abs(rw[sl]), rmask[sl], lo + step >= zrad.shape[0])
    return layers, xtot, xtail


def plancherel_residual(model, f, cfg):
    """Compare ||f||^2 with its frequency-layer reconstruction.

    The right-hand side integrates |Pf(lam)| times the Hilbert-Schmidt norms
    of pi_(lam,tau)(f) over a panel-split Gauss grid in lam (cut at the
    coordinate zeros, where the Pfaffian kinks and layers degenerate) and a
    Gauss grid in tau when the generic radical is nontrivial, scaled by
    c = 2^(n-m-3d) / pi^(n+m+d).  Layers with an exceptional radical are
    skipped; the panel construction keeps nodes off the exceptional set in
    all the shipped models.

    f is sampled once per batch, not once per layer.  A batch is a set of
    layers that share a frame (equal eigenvectors and radical), cut to fit
    `BATCH_STATE_BYTES`.  The batch samples f on the frame's unclipped grid
    (the function's own box on every real axis), a radical chunk at a time,
    and takes the x-sum for all its frequencies in one matrix product.  Each
    layer then interpolates the chunk's fhat onto its own clipped
    Gauss-Legendre nodes (tensor-product barycentric Lagrange, one matrix
    per real axis, the identity where the clip does not bite) and runs the
    layer contraction; `pi_of_f_batch` runs through the same runner.  Across
    chunks a layer keeps only its (T, B^2) share of pi(f), its tail sums,
    its source mass and, while more chunks remain, its weighted shift
    matrices; the budget bounds that state, so a frame that turns with lam
    costs what one layer does.

    Each row is (lam, |Pf(lam)|, layer, captured), where layer is the tau
    integral of ||pi_(lam,tau)(f)||_HS^2 and captured is the certificate

        c |Pf(lam)| layer / ((2 pi)^(-m) sum_z w_z |fhat(z, lam)|^2),

    its denominator summed on the unclipped source grid.  For the
    untruncated operator the two sides agree, and truncation, the clip and
    the finite tau box can only lose mass, so captured <= 1 up to quadrature
    error; every layer past 1 + `CAPTURED_TOL` is named in the warnings.
    The x-tail warning is read off each batch's shared samples.
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

    # every processed layer has the generic radical, so they share one tau rule
    taus, tau_w = tensor_rule([gauss_legendre(cfg.tau_nodes, -cfg.tau_box, cfg.tau_box)]
                              * (2 * gen_d))
    erule = grid.e_rule()
    xrule = tensor_rule([grid.f_rule()] * model.m)
    frames = []  # [(sd, node index)] per frame
    skipped = 0
    for j in range(lam_nodes.shape[0]):
        sd = spectral_data(model, lam_nodes[j])
        if is_exceptional(sd, gen_d):
            skipped += 1
            continue
        for frame in frames:
            if (np.array_equal(frame[0][0].eigenvectors, sd.eigenvectors)
                    and np.array_equal(frame[0][0].radical, sd.radical)):
                frame.append((sd, j))
                break
        else:
            frames.append([(sd, j)])

    # what a layer keeps across radical chunks: its (T, B^2) share and, when
    # there is more than one radical point, its weighted shifts (P, B^2)
    kdim = model.n - gen_d
    P, R = grid.enodes ** (2 * kdim), grid.enodes ** (2 * gen_d)
    side = multi_indices(kdim, cfg.degree).shape[0] ** 2
    size = max(1, BATCH_STATE_BYTES // (16 * side * (taus.shape[0] + (P if R > 1 else 0))))
    results = {}
    warnings = set()
    for frame in frames:
        for batch in np.array_split(np.arange(len(frame)), -(-len(frame) // size)):
            items = [frame[i] for i in batch]
            sds = [sd for sd, _ in items]
            layers, xtot, xtail = _run_layers(f, sds, cfg.degree, grid, erule,
                                              [erule] * sds[0].kdim, xrule, taus)
            warnings.update(_tail_warning(xtail, xtot, _X_TAIL))
            for (sd, j), lay in zip(items, layers):
                warnings.update(_tail_warning(lay.tail_w, lay.tail_all, _ZETA_TAIL))
                value = float(np.sum(tau_w * hs_norm(lay.share.reshape(-1, lay.fb.size,
                                                                        lay.fb.size)) ** 2))
                results[j] = (sd, value, lay.mass)

    rhs = 0.0
    rows = []
    for j in sorted(results):
        sd, layer, mass = results[j]
        rhs += lam_weights[j] * sd.pfaffian * layer
        term = constant * sd.pfaffian * layer
        source = mass / (2.0 * np.pi) ** model.m
        captured = term / source if source > 0 else (0.0 if term == 0 else np.inf)
        if captured > 1.0 + CAPTURED_TOL:
            warnings.add(f"layer lam = {np.array2string(sd.lam, precision=4)} captures "
                         f"{captured:.7g} of its fhat mass, past 1 + {CAPTURED_TOL:g}: "
                         "its zeta grid does not resolve pi(f)")
        rows.append((sd.lam.copy(), sd.pfaffian, layer, captured))
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
