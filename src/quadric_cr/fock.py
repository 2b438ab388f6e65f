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

`pi_of_f_batch` integrates these matrices against a boundary function over
a tensor grid.  The perpendicular part of the grid is clipped where the layer
weight phi_lam exceeds `PHI_CUT`: mode k has the half-width s_k =
min(ebox, sqrt(PHI_CUT / (2|mu_k|))), and its rule is the node count's
reference Gauss rule times s_k.  So one rule serves every mode, read at its
scaled eigenvalue mu = |mu_k| s_k^2: its shift factor, s_k^2 times the blocks
of mu on the reference nodes (`_mode_factor`), the damping of its zeta-tail
diagnostic and its interpolation; a clipped mode is mu = PHI_CUT / 2 at every
lam, one shared table.  A displacement block is conjugated when w is (every
Im axis reversed), so mu_k < 0 reads the factor with Im negated, and takes
the sign (-1)^(a-b) when w is negated (Cahill & Glauber; Folland, Harmonic
Analysis in Phase Space (1989), ch. 1).  The rules are symmetric, so W is
built only on the quadrant {Re > 0, Im > 0} of the first mode's nodes, times
all N^2 nodes of each other mode, P/4 of the P = N^(2K) points, as real arrays
Re W and Im W; fhat is folded onto the quadrant through its mirrored views
into four parts, one for each of Re W and Im W and sigma = (-1)^(|alpha| -
|beta|).  The shared clip table is kept split by sigma; the owned tables, of
the unclipped and the multi-mode layers, are built together, one
`_mode_blocks` call a mode for all of a batch's owned layers.

One runner, `_run_layers`, computes every pi(f) and plans every frame.  It
takes a frame's layers (the same eigenvectors and radical) and source
half-widths, builds the source and radical grids once, cuts the layers into
batches that fit `BATCH_STATE_BYTES`, and takes each batch's fhat on the
source grid a radical chunk at a time through one `central_transform` for
all its frequencies: a spectral form in closed form on the central box, any
other f sampled on the grid's central rule (fnodes matters only there).
A batch (`_Batch`) holds its layers' state stacked on a leading layer axis,
so a chunk costs the same numpy calls however many layers it holds: one
batched interpolation of the clipped layers onto their own clipped
Gauss-Legendre nodes (tensor-product barycentric Lagrange, only on modes
whose half-width differs from the source's), one fold, one GEMM per part of
the shared clip table for all its one-mode clipped layers, one batched
matmul per part for the owned tables, and one contraction for the masses
and tails; no layer builds a grid.  A batch of more than one radical chunk
samples the next chunk on one worker thread, into the one of two fhat
buffers not being read, while the calling thread contracts the current
one; a batch of one chunk starts no thread.  `pi_of_f_batch` is a frame of
one layer whose source half-widths are its own, so nothing is
interpolated, and it runs the same code as a batch of one.
`plancherel_residual` passes ebox on every mode, so f is sampled once per
batch rather than once per layer, and reads the lhs ||f||^2 of a sampled f
off the first batch's samples: its rule is the first frame's unclipped
grid, the box turned by the frame's eigenvectors (the box itself where they
are coordinate axes, as on DEG21).
Each of its layers reports `captured`, its Hilbert-Schmidt mass over its
fhat mass on the unclipped grid, which cannot exceed 1 but through
quadrature error; layers past 1 + `CAPTURED_TOL` are warned about.  Every
zeta-tail warning names its layer's lam.

`group_convolve` takes a ground-form kernel.  When f is a ground form too
and every sum of their frequencies is nondegenerate and inside the
positivity cone, the q-integral is Gaussian and the result is a ground form
in closed form, the integral over all of C^n; any other f is summed over
the tensor q-grid of its e-box in 2n one-axis contractions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .functions import (CHUNK_ELEMENTS, GridSpec, SampledFunction, SpectralForm,
                        _box_kernel, _central_transform, _check_exponent, l2_norm)
from .quadrature import (_reference_rule, boundary_mask, complex_grid, gauss_legendre,
                         panel_gauss, tensor_rule)
from .spectral import (generic_dimension, is_exceptional, layer_invariants,
                       plancherel_constant, spectral_data)

__all__ = [
    "FockBasis",
    "fock_basis",
    "multi_indices",
    "eval_basis",
    "rep_apply",
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
# Plancherel residual is 8x off its floor.  A clipped mode's half-width
# s = sqrt(PHI_CUT / (2|mu|)) makes its scaled eigenvalue |mu| s^2 = PHI_CUT/2
# at every lam, so its displacements span the same sqrt(PHI_CUT) box and its
# weighted shift factor is one lam-independent `_mode_factor` table times s^2
# (`_clip_factor`), read by both signs of mu.
PHI_CUT = 40.0

# Bytes one Plancherel batch holds across its radical chunks (see
# `_run_layers`): each layer's kept state and one radical chunk, its source
# points and what each layer holds of it, which are as large as the kept
# state leaves room for: the batch's fhat and the stacked buffer it is
# folded into and, where a frame can have a second chunk, the sums the fold
# is made from and the fhat buffer a worker thread fills with the next chunk
# meanwhile (the worker's own temporaries are bounded by CHUNK_ELEMENTS).
# A larger budget means fewer batches, so f is sampled fewer times, and
# larger chunks, at the cost of resident memory.  At the criterion-01
# degenerate size a layer keeps 5.0 MB, so this holds six of its 41 layers
# with 5 radical points a chunk (15 in the last batch of five), and f is
# sampled 7 times, not 41; on a 2-core Xeon, one BLAS thread, that run took
# 12.4 s and peaked at 63.4 MB RSS (medians of 3 fresh processes; 15.9 s
# and 62.6 MB with 9 radical points a chunk and no worker).  The
# plancherel-deg21 benchmark fits its 21 layers in one batch with 4 radical
# points a chunk: peak RSS 59.1 MB and run_s 0.594 s, against 59.7 MB and
# 0.852 s with 9 and no worker (medians of 20 alternating pairs,
# BENCH_30.json).
BATCH_STATE_BYTES = 32 * 2**20

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

# `_clip_factor`'s entries by (enodes, degree), at most four: each the four
# read-only (n, N_0) sigma parts of a one-mode `_mode_factor` at mu =
# PHI_CUT / 2, read by both signs of mu, 1.08 MB at the degenerate
# criterion's degree 12 on 40 nodes.  An unclipped mode's factor depends on
# lam and is not kept, nor is a multi-mode layer's, which its batch builds
# with its owned tables
_CLIP_TABLES = {}

# the tail-diagnostic warnings, filled in with the layer's lam (zeta) and
# the boundary's share
_ZETA_TAIL = "layer lam = {}: zeta-grid boundary carries {:.2e} of the weighted mass"
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
    """Single-mode shift matrices for shifts wz, as their real and imaginary
    planes: shape (2, D+1, D+1) + wz.shape.

    Entry [a, b] is <pi(z) e_b, e_a> for the one-variable normalized
    monomials, a displacement-operator matrix element.  mu is the mode's
    eigenvalue, one number or one per point (broadcast against wz), so one
    call serves the points of many layers.  With beta = conj(sqrt(2 mu) wz)
    and s = |beta|^2 it is

        a >= b:  sqrt(b!/a!) beta^(a-b) L_b^(a-b)(s) exp(-s/2),
        a <  b:  the same with (a, b) swapped and beta -> -conj(beta).

    For each k = a - b the normalized Laguerre values
    g_b = sqrt(b! k!/(b+k)!) L_b^k(s) follow the three-term recurrence in b,
    and c_k = beta^k exp(-s/2)/sqrt(k!) is a running product; exp(-s/2) is
    split evenly between g and c so neither overflows at large shifts.  The
    points sit on the last axes, so each step of the recurrence is one
    operation over all of them, and g is real, so each plane is written on
    its own and no complex table is formed.
    """
    beta = np.conj(np.sqrt(2.0 * np.asarray(mu, float)) * np.asarray(wz, complex))
    s = np.abs(beta) ** 2
    half = np.exp(-0.25 * s)
    k = np.arange(degree + 1).reshape((-1,) + (1,) * beta.ndim)
    c = np.concatenate([half[None], beta[None] / np.sqrt(k[1:])], axis=0)
    np.cumprod(c, axis=0, out=c)  # beta^k exp(-s/4) / sqrt(k!)
    sign = (-1.0) ** k
    # Re and Im of c, then of the same for -conj(beta), (-1)^k conj(c)
    low, up = (c.real, c.imag), (sign * c.real, -sign * c.imag)
    out = np.empty((2, degree + 1, degree + 1) + beta.shape)
    g_prev = np.zeros((degree + 1,) + beta.shape)
    g = np.repeat(half[None], degree + 1, axis=0)  # g_0 exp(-s/4)
    for b in range(degree + 1):
        n = degree + 1 - b
        for plane, lo, hi in zip(out, low, up):
            np.multiply(lo[:n], g[:n], out=plane[b:, b])  # a = b + k
            np.multiply(hi[1:n], g[1:n], out=plane[b, b + 1 :])  # the mirrored a < b entries
        kk = k[: n - 1]
        g_next = (2 * b + 1 + kk) - s
        g_next *= g[: n - 1]
        g_next -= np.sqrt(b * (b + kk)) * g_prev[: n - 1]
        g_next /= np.sqrt((b + 1) * (b + 1 + kk))
        g_prev, g = g[: n - 1], g_next
    return out


def _gathered(fb, k, blocks):
    """Mode k's blocks (2, D+1, D+1, ...) gathered onto the basis pairs, shape
    (2, B*B, ...): pair [alpha, beta] reads entry [alpha_k, beta_k].  A one-mode
    basis is the mode's monomials in order, so its blocks are the table as they
    stand."""
    shape = (2, fb.size**2) + blocks.shape[3:]
    if fb.sd.kdim == 1:
        return blocks.reshape(shape)
    al = fb.alphas[:, k]
    return blocks[:, al[:, None], al[None, :]].reshape(shape)


def _complex(planes):
    """The complex array of a (2, ...) pair of real and imaginary planes."""
    out = np.empty(planes.shape[1:], complex)
    out.real, out.imag = planes
    return out


def _shift_matrices(fb, wz):
    """Shift-operator matrices for points wz (P, K), shape (P, B, B).

    The kernel factorizes across modes, so the full matrix is the entrywise
    product of the per-mode blocks, each gathered onto the degree-truncated
    index set.  `rep_apply` calls it for one point; the layer runner builds
    its shifts per mode instead (`_Batch.tables`).
    """
    mu = np.abs(fb.sd.eigenvalues)
    out = np.ones((fb.size**2, wz.shape[0]), complex)
    for k in range(fb.sd.kdim):
        out *= _complex(_gathered(fb, k, _mode_blocks(mu[k], wz[:, k], fb.degree)))
    return out.T.reshape(-1, fb.size, fb.size)


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


def hs_norm(mat):
    """Hilbert-Schmidt norm of a matrix (or batch, last two axes)."""
    return np.sqrt(np.sum(np.abs(mat) ** 2, axis=(-2, -1)))


def _half_widths(sd, ebox):
    """A layer's perpendicular half-width per mode, s_k = min(ebox, sqrt(PHI_CUT / (2|mu_k|))):
    the function's own box, clipped where phi_lam passes `PHI_CUT` inside it."""
    return [min(ebox, math.sqrt(PHI_CUT / (2.0 * mu))) for mu in np.abs(sd.eigenvalues)]


def _perp_rule(halves, enodes):
    """The perpendicular tensor rule in the modes' coordinates, enodes Gauss
    nodes on [-s_k, s_k] per mode: nodes (P, K) and weights (P,).

    A layer with no perpendicular direction gets the one-point rule.
    """
    return tensor_rule([complex_grid(gauss_legendre(enodes, -s, s)) for s in halves])


def _tau_phases(taus, rn, rw):
    """Radical weights times the tau phases, shape (R, T)."""
    return rw[:, None] * np.exp(-1j * _tau_dot(taus[None, :, :], rn[:, None, :]))


@functools.lru_cache(maxsize=16)
def _alphas(kdim, degree):
    """`multi_indices`, read-only: the one basis that every layer of a batch reads."""
    alphas = multi_indices(kdim, degree)
    alphas.flags.writeable = False
    return alphas


@functools.lru_cache(maxsize=16)
def _sigma_columns(kdim, degree):
    """The flat basis pairs [alpha, beta] whose sign sigma = (-1)^(|alpha| - |beta|)
    is +1 (the shift-matrix entries that negating every w keeps), those where it
    is -1, and the order that takes pairs so split back to the basis's, read-only."""
    deg = _alphas(kdim, degree).sum(axis=1)
    odd = ((deg[:, None] + deg[None, :]) % 2).reshape(-1) == 1
    plus, minus = np.flatnonzero(~odd), np.flatnonzero(odd)
    cols = plus, minus, np.argsort(np.concatenate((plus, minus)))
    for c in cols:
        c.flags.writeable = False
    return cols


def _split(fb, planes):
    """The real and imaginary planes (2, B*B, ...) of a table, each split into its
    sigma = +1 and -1 rows (`_sigma_columns`): four read-only real arrays (Re+,
    Re-, Im+, Im-)."""
    rows = _sigma_columns(fb.sd.kdim, fb.degree)[:2]
    parts = tuple(plane[r] for plane in planes for r in rows)
    for part in parts:
        part.flags.writeable = False
    return parts


def _quadrant(rule):
    """The complex product of a symmetric 1-D rule on its quadrant {Re > 0, Im > 0}:
    the rule's upper half on both axes, with weight 1/2 on the zero lines of an
    odd rule and 1/4 at its origin, so that the quadrant's orbits under w -> conj w
    and w -> -w count every point of the full product once."""
    nodes, weights = rule
    half = nodes.size // 2
    w = weights[half:].copy()
    if nodes.size % 2:
        w[0] *= 0.5
    return complex_grid((nodes[half:], w))


def _mode_factor(fb, k, mu, enodes):
    """Mode k's weighted shift factor over s_k^2 at its scaled eigenvalue
    mu = |mu_k| s_k^2, as real and imaginary planes (2, B*B, N_k), or
    (2, B*B, L, N_k) for mu (L,) of L layers at once; where mu_k < 0 the factor
    is the conjugate.  The mode's
    rule is the reference rule times s_k and sqrt(2|mu_k|) s_k = sqrt(2 mu), so
    this is the blocks of mu on the reference complex nodes (the first mode's
    on their N_0 = ceil(N/2)^2 quadrant nodes, `_quadrant`), gathered onto the
    basis, times the reference weights."""
    rule = _reference_rule(enodes)
    nodes, w = _quadrant(rule) if k == 0 else complex_grid(rule)
    table = _gathered(fb, k, _mode_blocks(np.asarray(mu)[..., None], nodes, fb.degree))
    table *= w
    return table


def _clip_factor(fb, enodes):
    """`_split`'s four (B*B, N_0) parts of a clipped one-mode layer's `_mode_factor`:
    its mu is PHI_CUT / 2 whatever the layer, so it is kept in `_CLIP_TABLES`
    (at most four, the oldest dropped first) unless larger than
    `BATCH_STATE_BYTES`, and every such layer of either sign reads it."""
    key = (enodes, fb.degree)
    parts = _CLIP_TABLES.get(key)
    if parts is None:
        parts = _split(fb, _mode_factor(fb, 0, 0.5 * PHI_CUT, enodes))
        if sum(part.nbytes for part in parts) <= BATCH_STATE_BYTES:
            if len(_CLIP_TABLES) == 4:
                del _CLIP_TABLES[next(iter(_CLIP_TABLES))]
            _CLIP_TABLES[key] = parts
    return parts


def _fold(fhat, kdim, num):
    """fhat (L, P, X) of L layers on their tensor grids of num nodes an axis,
    folded onto the first mode's quadrant: the four parts (Q, L*X), point by
    point, that meet Re W+, Re W-, Im W+ and Im W- (`_Batch.tables`).

    With a, b, c and d the values at p, at conj p (every Im axis reversed), at
    -p and at -conj p (every Re axis reversed), W(conj p) = conj W(p) and
    W(-p) = sigma W(p), so the orbit of a quadrant point p contributes
    (a + b + sigma (c + d)) Re W + i (a - b + sigma (c - d)) Im W.  The
    mirrors are reversed views of fhat, read layer by layer and written
    point by point.  A layer with no mode has one point, its own orbit under
    the one-point rule: each part is fhat itself.
    """
    L, X = fhat.shape[0], fhat.shape[-1]
    if kdim == 0:
        return (fhat.reshape(1, L * X),) * 4
    v = fhat.reshape((L,) + (num,) * (2 * kdim) + (X,))
    # each axis kept or reversed, the first mode's cut to the quadrant's half,
    # and the layer axis moved behind the point axes
    half = slice(num // 2, None), slice(num - num // 2 - 1, None, -1)
    whole = slice(None), slice(None, None, -1)
    behind = tuple(range(1, 2 * kdim + 1)) + (0, 2 * kdim + 1)
    a, b, c, d = (v[(slice(None), half[re], half[im]) + (whole[re], whole[im]) * (kdim - 1)]
                  .transpose(behind) for re, im in ((0, 0), (0, 1), (1, 1), (1, 0)))
    ac, bd = np.add(a, c, order="C"), np.add(b, d, order="C")
    a_c, b_d = np.subtract(a, c, order="C"), np.subtract(b, d, order="C")
    # the two sums first, then the differences in place of what they read last
    parts = ac + bd, a_c + b_d, np.subtract(ac, bd, out=ac), np.subtract(a_c, b_d, out=a_c)
    return tuple(part.reshape(-1, L * X) for part in parts)


@functools.lru_cache(maxsize=1024)
def _lam_text(raw):
    """A lam, given as its float64 bytes, as every warning prints it:
    np.array2string at 4 digits.  That takes about 66 us a call, and a pass
    warns of the same layers each time, so each lam is formatted once (under
    the print options in force then)."""
    return np.array2string(np.frombuffer(raw), precision=4)


def _tail_warning(part, whole, text, *lam):
    """(text with the layer's lam, where given, and the fraction part/whole filled
    in,) past 1e-6, else ()."""
    if whole > 0 and part / whole > 1e-6:
        return (text.format(*(_lam_text(np.asarray(v, float).tobytes()) for v in lam),
                            part / whole),)
    return ()


def pi_of_f_batch(fb, f, taus=None, grid=None):
    """Integrated representation pi_(lam,tau)(f) for a batch of tau, the one pi(f).

    taus is (T, 2d), by default the single tau = 0.  Returns (matrices
    (T, B, B), warnings).  The integral over the group is a tensor-grid
    quadrature: central directions first (a Fourier phase at the layer
    frequency), then radical directions against the tau phases,
    then the perpendicular directions against the shift matrices.  The
    factored order changes nothing about which terms are summed.  This is
    the runner `_run_layers` on a frame of this one layer, with the layer's
    own clipped rules as the source rules: f is sampled on that grid, so
    nothing is interpolated, and the zeta-tail warning (which names the
    layer's lam) and the x-tail warning are this layer's own.  Each clipped
    rule and the e-rule are built once; a central rule only when f is
    sampled.
    """
    sd = fb.sd
    grid = grid or f.grid
    if taus is None:
        taus = np.zeros((1, 2 * sd.d))
    taus = np.asarray(taus, float).reshape(len(taus), 2 * sd.d)
    [(batch, warnings, _)] = _run_layers(f, [sd], fb.degree, grid, _half_widths(sd, grid.ebox),
                                         taus)
    return batch.share(0).reshape(-1, fb.size, fb.size), warnings


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
    exponent exceeds `EXP_LIMIT` = 600 (as `extend` does), and when a product
    of factors overflows, so no inf or nan is returned.  The axis factors
    stay below e^(ebox |s_i|), so output points with ebox |s_i| < 600 are
    served (on HEIS1, 2 |lam| ebox |z| < 600); kernel frequencies outside the
    pairing cone are refused once e^(-<lam_j, Phi(q)>) passes e^600 on the box.

    When f carries a ground form too, c_i(z) = a_i e^(-<mu_i, Phi(z)>), the
    q-integral is Gaussian and closes.  With fhat(q, lam_j) = sum_i a_i
    box(mu_i - lam_j) e^(-<mu_i, Phi(q)>) (box as in `central_transform`),

        q-term = a_i box(mu_i - lam_j) e^(-q^H A(mu_i + lam_j) q) e^(2 q^H A(lam_j) z),
        the last factor is antiholomorphic in q, so by the mean-value property
        integral over C^n = a_i box(mu_i - lam_j) pi^n / det A(mu_i + lam_j)

    whenever every sum mu_i + lam_j is nondegenerate (d = 0) and inside the
    positivity cone (no negative eigenvalue of A), and det A = |Pf| there.
    The result is then the ground form with amplitudes amp_j pi^n
    sum_i a_i box(mu_i - lam_j) / |Pf(mu_i + lam_j)|: the integral over all
    of C^n, so the e-box and enodes no longer enter, no q-rule is built and
    no coefficient is evaluated.  Every other f, or a pair with a sum that
    is degenerate or outside the cone, takes the q-sum above.
    """
    if g.spectral is None or g.spectral.amp is None:
        raise ValueError("the convolution kernel needs a ground form")
    model = f.model
    grid = grid or f.grid
    lambdas, amp = g.spectral.lambdas, g.spectral.amp  # (J, m), (J,)
    if f.spectral is not None and f.spectral.amp is not None:
        mus = f.spectral.lambdas  # (I, m)
        pf, negative, d = layer_invariants(model, mus[:, None, :] + lambdas[None, :, :])
        if not (negative.any() or d.any()):
            box = _box_kernel(mus[:, None, :] - lambdas[None, :, :], grid.fbox)  # (I, J)
            sums = (f.spectral.amp[:, None] * box / pf.reshape(box.shape)).sum(axis=0)
            form = SpectralForm.ground(model, lambdas, amp * np.pi ** model.n * sums)
            return SampledFunction(model, form, grid, spectral=form)

    t, tw = grid.e_rule()
    N, axes = t.size, 2 * model.n
    enodes, eweights = tensor_rule([(t, tw)] * axes)
    zq = enodes[:, 0::2] + 1j * enodes[:, 1::2]  # (Q, n)
    J = lambdas.shape[0]
    qexp = -(model.phi(zq) @ lambdas.T)  # (Q, J)
    _check_exponent(qexp, "the q-factor of kernel frequencies outside the pairing cone")
    fhat = _central_transform(f, lambdas, grid.fbox, grid.fnodes, False)(zq)[0]  # (Q, J)
    H = (eweights[:, None] * fhat * np.exp(qexp)).T.reshape(J, N ** (axes - 1), N)
    alam = np.tensordot(lambdas, model.A, axes=1)  # (J, n, n)
    # a point takes J N^(axes-1) complex elements here, 32 KB on HEIS1 at 64
    # frequencies and 32 nodes, so `SPECTRAL_CHUNK_ELEMENTS` would leave 3 points
    # a chunk, and the per-chunk work made the closure 27% slower than at 24
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
            _check_exponent(zexp, "the z-factor at output points outside the pairing cone")
            # every exponential before the matmul: a complex exp right after a
            # BLAS call ran 12x slower on an AVX-512 Xeon (dirty upper state)
            fac = []
            for w in slopes:
                # t * Re w peaks at an end node, and the nodes ascend
                _check_exponent(np.maximum(t[0] * w.real, t[-1] * w.real), "an axis factor")
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
    return SampledFunction(model, form, grid, spectral=form)


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
    skipped: int
    constant: float
    generic_d: int
    rows: list
    warnings: tuple


@functools.lru_cache(maxsize=16)
def _barycentric(num):
    """The read-only barycentric weights of the num-node reference rule, scaled by
    the interval length so their products stay in range at any node count."""
    x = _reference_rule(num)[0]
    diff = (x[:, None] - x[None, :]) * (4.0 / (x[-1] - x[0]))
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    bary.flags.writeable = False
    return bary


def _interp_matrix(src, dst):
    """Barycentric Lagrange matrices from values at nodes src to nodes dst (..., M),
    shape (..., M, len(src)).

    src is a Gauss-Legendre rule (`gauss_legendre`), an affine image of its
    node count's reference rule, so its barycentric weights are the
    reference rule's (`_barycentric`) up to one factor, which the rows'
    normalisation cancels.  A dst node equal to a src node gets the exact
    unit row, so src -> src is exactly the identity.
    """
    gap = dst[..., :, None] - src
    hit = gap == 0.0
    gap[hit] = 1.0
    mat = _barycentric(src.size) / gap
    mat /= mat.sum(axis=-1, keepdims=True)
    rows = hit.any(axis=-1)
    mat[rows] = hit[rows]
    return mat


def _interpolate(fhat, mats, out):
    """Write into out (L, P, X) the layers' fhat (L, P, X) moved from the source
    grid onto their own: mats[l, k] (N, N) along both real axes of mode k of
    layer l.

    Each axis is one batched real matmul, Re and Im side by side, that leaves
    the axes in place.  The steps write into one temporary and into out by
    turns, the last (an odd step: there are 2K) into out, so out may be fhat
    itself: the first step is the last read of fhat.
    """
    L, K, num = mats.shape[0], mats.shape[1], mats.shape[-1]
    v = fhat.view(float)
    bufs = np.empty_like(v), out.view(float)
    for ax in range(2 * K):
        v = np.matmul(mats[:, ax // 2, None], v.reshape(L, num**ax, num, -1),
                      out=bufs[ax % 2].reshape(L, num**ax, num, -1))


class _Batch:
    """The layers of one batch, run together: their tables, damping and
    interpolation matrices, and what they accumulate, stacked on a leading
    layer axis.

    sds[i] for i in idx are the batch's layers, with src_halves the source
    grid's half-widths, and index their positions in sds in the batch's own
    order: the one-mode clipped layers first, which read the one shared
    clip table (`_clip_factor`), then the owned, the unclipped one-mode
    layers and every multi-mode layer, whose tables are built together
    (`tables`); in each group the layers interpolated from the source grid
    (a half-width differs from the source's) come first.  Both callers keep
    the interpolated layers a prefix: `plancherel_residual` clips every
    shared layer, and `pi_of_f_batch` runs one layer.
    """

    def __init__(self, sds, idx, degree, grid, src_halves, pmask, taus):
        L, K = len(idx), sds[idx[0]].kdim
        halves = np.array([_half_widths(sds[i], grid.ebox) for i in idx]).reshape(L, K)
        shared = (halves < grid.ebox).all(axis=1) & (K == 1)
        interp = (halves != np.asarray(src_halves)).any(axis=1)
        order = np.lexsort((~interp, ~shared))
        self.index, self.sds = idx[order], [sds[i] for i in idx[order]]
        halves, interp = halves[order], interp[order]
        self.n_shared, n_interp = int(shared.sum()), int(interp.sum())
        assert interp[:n_interp].all(), "the interpolated layers are not a prefix"
        # one basis: every layer of a frame has the same kdim and degree
        self.fb = FockBasis(sd=self.sds[0], degree=degree, alphas=_alphas(K, degree))
        self.grid, self.pmask = grid, pmask
        eig = np.array([sd.eigenvalues for sd in self.sds]).reshape(L, K)
        scaled = np.abs(eig) * halves * halves  # |mu_k| s_k^2
        # the scaled eigenvalue each table reads: PHI_CUT / 2 on a clipped mode
        self.mu = np.where(halves < grid.ebox, 0.5 * PHI_CUT, scaled)
        self.sign = np.where(eig > 0, 1.0, -1.0)
        self.scale = np.prod(halves * halves, axis=1)
        # an owned table carries its modes' signs; the shared one takes the sign
        # of its layer's mu after the GEMM
        self.im_sign = np.ones(L)
        if self.n_shared:
            self.im_sign[: self.n_shared] = self.sign[: self.n_shared, 0]
        # e^(-phi_lam/2) |w| of the tail diagnostics but for each axis's s_k,
        # common to every point: the tensor product of each real axis's
        # e^(-mu x^2/2) w(x) on the reference rule, the last mode's Im axis fastest
        x, w = _reference_rule(grid.enodes)
        axis = np.exp(-0.5 * scaled[:, :, None] * x * x) * w  # (L, K, N)
        self.damp = np.ones((L, 1))
        for k in range(2 * K):
            self.damp = (self.damp[:, :, None] * axis[:, k // 2, None, :]).reshape(L, -1)
        # the interpolated layers' matrices (L_c, K, N, N), one per mode for its
        # Re and Im axes; it depends only on the half-widths' ratio
        self.mats = (_interp_matrix(x, x * (halves[:n_interp] / src_halves)[..., None])
                     if n_interp else None)
        self.owned = None  # `tables`' owned part, kept only while more radical chunks remain
        self.pending = []  # (tphase, scaled product) of the chunks not yet in acc
        # pi(f) so far, each layer's (T, B^2) with its sigma = +1 pairs first
        self.acc = np.zeros((L, taus.shape[0], self.fb.size**2), complex)
        # |fhat| mass and the two sides of the zeta-tail diagnostic: the damped
        # mass on the whole grid and on its boundary
        self.mass, self.tails = np.zeros(L), np.zeros((L, 2))

    def __len__(self):
        return len(self.sds)

    def share(self, i):
        """Layer i's pi(f) so far, (T, B*B) in the basis's pair order."""
        return self.acc[i][:, _sigma_columns(self.fb.sd.kdim, self.fb.degree)[2]]

    def warnings(self):
        """Each layer's zeta-tail warning, naming its lam."""
        return sum((_tail_warning(part, whole, _ZETA_TAIL, sd.lam)
                    for (whole, part), sd in zip(self.tails, self.sds)), ())

    def tables(self):
        """The weighted shift tables on the first mode's quadrant, each layer's
        W = scale (Re + i im_sign Im): the shared clip table's four (n, Q) real
        parts (Re+, Re-, Im+, Im-) split by sigma (`_split`), or None, and the
        owned layers' real and imaginary planes (2, B*B, L_o, Q), or None.  The
        owned planes are not split, so they are never held twice.

        The owned parts are built together, one `_mode_factor` a mode over all
        owned layers: each mode's factor at the layers' scaled eigenvalues,
        conjugated where mu_k < 0, the first mode's on its quadrant's N_0
        nodes and every other mode's on all N^2, multiplied out over the
        tensor grid, the last mode fastest; the rest of the grid is the
        quadrant's mirror images, which `add` folds onto it (`_fold`).  A
        layer with no mode has the one-point rule, W = 1.
        """
        s, L = self.n_shared, len(self)
        shared = _clip_factor(self.fb, self.grid.enodes) if s else None
        if self.owned is None and s < L:
            table = np.zeros((2, self.fb.size**2, L - s, 1))
            table[0] = 1.0
            for k in range(self.fb.sd.kdim):
                factor = _mode_factor(self.fb, k, self.mu[s:, k], self.grid.enodes)
                factor[1] *= self.sign[s:, k, None]
                if k == 0:
                    # the first factor starts the product: multiplying it into
                    # ones would cost one more temporary of the table's size
                    table = factor
                    continue
                (re, im), (fre, fim) = table[..., None], factor[..., None, :]
                table = np.stack([re * fre - im * fim, re * fim + im * fre]).reshape(
                    table.shape[:3] + (-1,))
            table.flags.writeable = False
            self.owned = table
        return shared, self.owned

    def add(self, fhat, src_w, tphase, rabs, last):
        """Add one radical chunk from its central transform fhat (P*R_c, L) on
        the source grid, the layers in the batch's order; fhat is overwritten.

        tphase (R_c, T) carries the radical weights and tau phases, rabs
        (R_c, 2) the absolute radical weights, and those on the radical grid's
        boundary, of the mass and the tail diagnostics.  The interpolated
        layers are moved onto their own grids in place.  The layers' terms of
        pi(f), the chain scale tphase^T fhat^T W, are multiplied in their
        cheaper order: tau-phases first when there are fewer tau than radical
        points, the shift contraction first otherwise; the scale goes on the
        tphase that comes first, or else on the chunk's product.  What meets
        W, fhat or its product with the phases, is
        folded onto the first mode's quadrant (`_fold`) for all layers at
        once, and each part meets its table in one GEMM for all the shared
        layers and one batched matmul for the owned ones, on all pairs of
        their planes.
        """
        L, P = len(self), src_w.size
        # the tables first, while the chunk's working arrays do not exist yet
        shared, owned = self.tables()
        self.owned = None if last else owned
        fhat = fhat.T.reshape(L, P, -1)  # the transform writes each layer's column contiguous
        radical = fhat.shape[2]
        absf = np.abs(fhat)
        self.mass += (np.square(absf).reshape(-1, radical) @ rabs[:, 0]).reshape(L, P) @ src_w
        if self.mats is not None:
            moved = fhat[: self.mats.shape[0]]
            _interpolate(moved, self.mats, out=moved)
            np.abs(moved, out=absf[: moved.shape[0]])
        # each point's radical sums, on the whole radical grid and its boundary;
        # a point on the perpendicular boundary counts all of its sum
        sums = (absf.reshape(-1, radical) @ rabs).reshape(L, P, 2)
        del absf
        np.copyto(sums[..., 1], sums[..., 0], where=self.pmask)
        self.tails += np.einsum("lp,lpk->lk", self.damp, sums)
        del sums
        first = tphase.shape[1] < tphase.shape[0]
        folded = _fold(fhat @ (self.scale[:, None, None] * tphase) if first else fhat,
                       self.fb.sd.kdim, self.grid.enodes)
        # a complex part (Q, L*X) is a real (Q, L, 2X) one, Re and Im side by
        # side, so each product gives (n, L, X) complex: the Re W and Im W
        # products, the sigma = +1 rows first
        s, sigma = self.n_shared, _sigma_columns(self.fb.sd.kdim, self.fb.degree)[:2]
        rows = slice(None, sigma[0].size), slice(sigma[0].size, None)
        width = 2 * folded[0].shape[1] // L  # 2X
        prod = np.empty((2, self.fb.size**2, L * width))
        for k, part in enumerate(folded):
            real, out = part.view(float), prod[k // 2, rows[k % 2]]
            if s:
                np.matmul(shared[k], real[:, : s * width], out=out[:, : s * width])
            if s < L:
                # every pair's product on the owned plane, of which the part's
                # sigma keeps its own rows
                owns = real[:, s * width :].reshape(real.shape[0], L - s, width)
                full = owned[k // 2].transpose(1, 0, 2) @ owns.transpose(1, 0, 2)
                out[:, s * width :] = full[:, sigma[k % 2]].transpose(1, 0, 2).reshape(
                    out.shape[0], owns.shape[1] * width)
        re_w, im_w = prod.reshape(2, -1, L, width).view(complex)
        im_w *= 1j * self.im_sign[:, None]
        total = np.add(re_w, im_w, out=re_w).transpose(1, 2, 0)  # (L, X, B^2)
        if first:
            self.acc += total
            return
        # the tau phases meet the products of several chunks at once: a
        # product is B^2 per layer and radical point, far less than fhat's P,
        # so acc, L T B^2, is rewritten once per CHUNK_ELEMENTS of them
        self.pending.append((tphase, total * self.scale[:, None, None]))
        if last or sum(t.size for _, t in self.pending) >= CHUNK_ELEMENTS:
            tphase = np.concatenate([p for p, _ in self.pending])
            total = np.concatenate([t for _, t in self.pending], axis=1)
            self.pending = []
            # in blocks of layers whose (T, B^2) terms fit CHUNK_ELEMENTS, so
            # the product does not hold a second acc while it is added
            block = max(1, CHUNK_ELEMENTS // self.acc[0].size)
            for lo in range(0, L, block):
                self.acc[lo : lo + block] += tphase.T @ total[lo : lo + block]


def _run_layers(f, sds, degree, grid, src_halves, taus, norm=False):
    """Plan and run the layers of one frame (equal eigenvectors and radical).

    Yields, one batch at a time, the `_Batch`, its warnings (each layer's
    zeta-tail warning, naming its lam, then the batch's x-tail warning) and,
    where norm is true, the first batch's integral of |f|^2 over the source
    grid (None for every other batch and for a spectral form, whose norm is
    closed).  The source grid, of half-width src_halves[k] on mode k, and
    the radical grid are built once.  A batch holds as many layers as fit
    `BATCH_STATE_BYTES` with what each keeps across radical chunks and a
    chunk of one radical point (`np.array_split` evens them out).  It
    samples f on the source grid a radical chunk at a time, with one central
    transform for all its frequencies; a chunk holds as many radical points
    as its source points (16 bytes a coordinate) and what each layer holds
    of it (16 bytes a point for each of `live` complex arrays) can take of
    the budget the kept state leaves, and at least one.  The batch
    interpolates each chunk onto its layers' own clipped grids on the modes
    whose half-width differs from the source's.

    A batch of more than one chunk samples the next chunk on one worker
    thread while `_Batch.add` takes the current one on the calling thread:
    the first chunk is sampled on the calling thread, and the worker writes
    each later one into the one of two fhat buffers, allocated here, that
    `add` is not reading, in the caller's context (so f sees the caller's
    np.errstate).  f is called by one thread at a time, `add` takes the
    chunks in order and the x-sums are summed in order, so the results do
    not depend on the timing; the worker stops before the batch is yielded,
    and an error of f's reaches the caller as raised.  A batch of one chunk
    starts no thread.
    """
    pn, src_w = _perp_rule(src_halves, grid.enodes)
    rn, rw = tensor_rule([complex_grid(grid.e_rule())] * sds[0].d)  # on the function's box
    zperp, zrad = pn @ sds[0].eigenvectors.T, rn @ sds[0].radical.T
    pmask, rmask = boundary_mask(pn), boundary_mask(rn)
    # the absolute radical weights, and those on the radical grid's boundary
    rabs = np.abs(rw)[:, None] * np.array([1.0, 0.0])
    rabs[rmask, 1] = rabs[rmask, 0]
    P, R, n = zperp.shape[0], zrad.shape[0], zperp.shape[1]
    # what a layer keeps across radical chunks: its (T, B^2) share and, when
    # there is more than one radical point, its weighted shifts, counted as a
    # complex (P, B^2) table.  An owned table is four real arrays on about P/4
    # rows, a quarter of that, and a one-mode clipped layer keeps only a
    # reference to the shared table, so this over-counts both (ROADMAP item 5)
    side = math.comb(degree + sds[0].kdim, degree) ** 2  # B = C(D + K, K) basis functions
    kept = 16 * side * (taus.shape[0] + (P if R > 1 else 0))
    # the complex arrays a layer holds per point of a chunk: its fhat and the
    # stacked buffer the fold writes, and where there can be a second chunk,
    # the fhat the worker fills meanwhile and the sums the fold is made from
    live = 4 if R > 1 else 2
    size = max(1, (BATCH_STATE_BYTES - 16 * P * n) // (kept + 16 * live * P))
    for b, idx in enumerate(np.array_split(np.arange(len(sds)), -(-len(sds) // size))):
        L = len(idx)
        batch = _Batch(sds, idx, degree, grid, src_halves, pmask, taus)
        step = max(1, (BATCH_STATE_BYTES - L * kept) // (16 * P * (live * L + n)))
        starts = range(0, R, step)
        squares = norm and b == 0 and f.spectral is None
        transform = _central_transform(f, np.array([sd.lam for sd in batch.sds]), grid.fbox,
                                       grid.fnodes, squares)
        # the tables before the first chunk is sampled, so no fhat sits beside their build
        batch.tables()
        bufs = [np.empty(L * P * min(step, R), complex) for _ in starts[:2]]

        def job(k):
            """Chunk k's transform, written into its buffer, as a call."""
            z = (zperp[:, None, :] + zrad[None, starts[k] : starts[k] + step, :]).reshape(-1, n)
            out = bufs[k % 2][: L * z.shape[0]].reshape(L, -1).T  # each layer's column contiguous
            return functools.partial(transform, z, out)

        xtot = xtail = 0.0
        norm_sq = 0.0 if squares else None
        worker = None
        if len(starts) > 1:
            # imported only where a batch has a second chunk: concurrent.futures
            # adds 4-5 ms to the package's import
            import contextvars
            from concurrent.futures import ThreadPoolExecutor
            worker = ThreadPoolExecutor(1)
        try:
            result = job(0)()
            for k, lo in enumerate(starts):
                fhat, tot, tail, xsq = result
                last = k + 1 == len(starts)
                if not last:
                    future = worker.submit(contextvars.copy_context().run, job(k + 1))
                sl = slice(lo, lo + step)
                xtot += tot
                xtail += tail
                if squares:
                    norm_sq += float(src_w @ xsq.reshape(P, -1) @ rw[sl])
                batch.add(fhat, src_w, _tau_phases(taus, rn[sl], rw[sl]), rabs[sl], last)
                if not last:
                    result = future.result()
        finally:
            if worker is not None:
                worker.shutdown(cancel_futures=True)
        # the last chunk's buffers, so the next batch's do not sit beside them
        del fhat, result, xsq
        bufs.clear()
        yield batch, batch.warnings() + _tail_warning(xtail, xtot, _X_TAIL), norm_sq


def plancherel_residual(model, f, cfg):
    """Compare ||f||^2 with its frequency-layer reconstruction.

    The right-hand side integrates |Pf(lam)| times the Hilbert-Schmidt norms
    of pi_(lam,tau)(f) over a panel-split Gauss grid in lam (cut at the
    coordinate zeros, where the Pfaffian kinks and layers degenerate) and a
    Gauss grid in tau when the generic radical is nontrivial, scaled by
    c = `plancherel_constant(model, d)`.  Layers with an exceptional radical are
    skipped; the panel construction keeps nodes off the exceptional set in
    all the shipped models.  A lam_nodes below two per panel raises a
    ValueError before anything is sampled.

    The layers are grouped into frames (equal eigenvectors and radical),
    and `_run_layers` plans and runs each frame: it cuts it into batches
    that fit `BATCH_STATE_BYTES`, samples f once per batch, not once per
    layer, on the frame's unclipped grid (the function's own box on every
    real axis of the frame), a radical chunk at a time, and interpolates
    each chunk's fhat onto every layer's clipped Gauss-Legendre nodes; a
    frame that turns with lam costs what one layer does.  This function
    only loops over the frames and reads the rows off their batches, and a
    sampled f is not sampled again for the lhs.

    The lhs ||f||^2 of a sampled f is the first batch's |f|^2 x-integral
    (`central_transform`) summed on that batch's source grid: the same grid
    as every certificate's denominator, the first frame's box, which is
    `l2_norm`'s box where the frame's axes are coordinate axes (HEIS1,
    DEG21) and that box turned by a unitary otherwise.  A spectral form's
    lhs is `l2_norm`'s closed Gram form, and so is a sampled f's when every
    layer is skipped.

    Each row is (lam, |Pf(lam)|, layer, captured), where layer is the tau
    integral of ||pi_(lam,tau)(f)||_HS^2 and captured is the certificate

        c |Pf(lam)| layer / ((2 pi)^(-m) sum_z w_z |fhat(z, lam)|^2),

    its denominator summed on the unclipped source grid.  For the
    untruncated operator the two sides agree, and truncation, the clip and
    the finite tau box can only lose mass, so captured <= 1 up to quadrature
    error; every layer past 1 + `CAPTURED_TOL` is named in the warnings, and
    so is every layer whose zeta-grid boundary carries mass.  The x-tail
    warning is read off each batch's shared samples.
    """
    gen_d = generic_dimension(model)
    grid = cfg.grid or f.grid
    lam_lo = np.asarray(cfg.lam_lo, float).reshape(model.m)
    lam_hi = np.asarray(cfg.lam_hi, float).reshape(model.m)
    try:
        rules = [panel_gauss(cfg.lam_nodes, lam_lo[k], lam_hi[k], cuts=(0.0,))
                 for k in range(model.m)]
    except ValueError as exc:
        raise ValueError(f"lam_nodes = {cfg.lam_nodes} gives no lambda rule: {exc}") from exc
    lam_nodes, lam_weights = tensor_rule(rules)
    constant = plancherel_constant(model, gen_d)

    # every processed layer has the generic radical, so they share one tau rule
    taus, tau_w = tensor_rule([gauss_legendre(cfg.tau_nodes, -cfg.tau_box, cfg.tau_box)]
                              * (2 * gen_d))
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

    lhs = None  # a sampled f's, off the first batch's samples: the first frame's grid
    results = {}
    warnings = set()
    for frame in frames:
        for batch, warns, norm_sq in _run_layers(f, [sd for sd, _ in frame], cfg.degree, grid,
                                                  [grid.ebox] * frame[0][0].kdim, taus,
                                                  lhs is None):
            lhs = norm_sq if lhs is None else lhs
            warnings.update(warns)
            # every layer's tau integral of its HS norm, which does not depend
            # on the pairs' order, in one contraction
            layer = np.sum(np.abs(batch.acc) ** 2, axis=2) @ tau_w
            for i, value, mass in zip(batch.index, layer, batch.mass):
                sd, j = frame[i]
                results[j] = (sd, float(value), float(mass))
    if lhs is None:  # a spectral form's norm is closed, and so is f's when no batch ran
        lhs = l2_norm(f, grid) ** 2

    rhs = 0.0
    rows = []
    for j in sorted(results):
        sd, layer, mass = results[j]
        rhs += lam_weights[j] * sd.pfaffian * layer
        term = constant * sd.pfaffian * layer
        source = mass / (2.0 * np.pi) ** model.m
        captured = term / source if source > 0 else (0.0 if term == 0 else np.inf)
        if captured > 1.0 + CAPTURED_TOL:
            warnings.add(f"layer lam = {_lam_text(sd.lam.tobytes())} captures "
                         f"{captured:.7g} of its fhat mass, past 1 + {CAPTURED_TOL:g}: "
                         "its zeta grid does not resolve pi(f)")
        rows.append((sd.lam.copy(), sd.pfaffian, layer, captured))
    rhs *= constant
    residual = abs(lhs - rhs) / lhs if lhs > 0 else np.inf
    return PlancherelReport(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        skipped=skipped,
        constant=constant,
        generic_d=gen_d,
        rows=rows,
        warnings=tuple(sorted(warnings)),
    )
