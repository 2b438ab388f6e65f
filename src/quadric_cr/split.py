"""Structure split for frequency bodies with a common degeneracy.

A body K of central frequencies only activates the central directions it
spans and the first-layer directions its pairing sees.  Splitting picks
orthonormal bases

    F = F1 (+) F2,   F2 = span of K's vertices, F1 its annihilator,
    E = E1 (+) E2,   E1 = common kernel of A(lam) over lam in F2,

so the subscript-1 spaces are the flat (normal-subgroup) directions and
the subscript-2 spaces carry the reduced nondegenerate model phi2 with K
rewritten in F2 coordinates (body2).  Band-limited functions with spectrum
in K are constant along E1 and F1, so they are embeddings of band-limited
functions on the reduced model; embed_flat realizes that embedding and
lifts the finite spectral form along with it.

All bases come from singular value decompositions with a fixed sign
convention (the entry of largest magnitude is made real and positive), so
repeated splits of the same data are bitwise identical.
"""

from dataclasses import dataclass

import numpy as np

from .convex import ConvexBody, polytope_body, support
from .functions import SampledFunction, SpectralForm
from .model import QuadraticModel
from .spectral import layer_invariants

__all__ = [
    "SplitData",
    "split",
    "embed_flat",
    "split_invariants",
    "support_invariance",
    "verify_split_growth",
]

_RTOL = 1e-10


def _sign_fix(basis):
    """Rotate each column so its largest entry is real positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        piv = col[k]
        if np.abs(piv) > 0:
            out[:, j] = col * (np.conj(piv) / np.abs(piv))
    if np.isrealobj(basis):
        return out.real
    return out


@dataclass(frozen=True)
class SplitData:
    model: QuadraticModel
    body: ConvexBody
    f1_basis: np.ndarray  # (m, m - r) flat central directions, (span K)°
    f2_basis: np.ndarray  # (m, r) active central directions, span K
    e1_basis: np.ndarray  # (n, n - s) flat first-layer directions
    e2_basis: np.ndarray  # (n, s) active first-layer directions
    phi2: QuadraticModel | None  # reduced model on (E2, F2); None when K = {0}
    body2: ConvexBody | None  # K in F2 coordinates


def split(model, body):
    """Split the model along the degeneracy shared by all of the body."""
    if body.kind != "polytope":
        raise ValueError("splitting needs a polytope frequency body")
    pts = body.points
    if layer_invariants(model, pts)[1].any():
        raise ValueError("the frequency body must lie in the closed positivity cone")
    u, s, vt = np.linalg.svd(pts.T, full_matrices=True)
    r = int(np.sum(s > _RTOL * max(s[0] if s.size else 0.0, 1e-300)))
    f2 = _sign_fix(u[:, :r])
    f1 = _sign_fix(u[:, r:])
    # K = {0} (r = 0) has no active direction: E1 is the whole space and
    # there is no reduced factor
    b_mats = np.einsum("kl,kij->lij", f2, model.A)  # (r, n, n)
    stacked = b_mats.reshape(r * model.n, model.n)
    _, sv, wh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(sv > _RTOL * max(sv[0] if sv.size else 0.0, 1e-300)))
    w = wh.conj().T
    e2 = _sign_fix(w[:, :rank])
    e1 = _sign_fix(w[:, rank:])

    a2 = np.einsum("ia,lij,jb->lab", e2.conj(), b_mats, e2)
    a2 = (a2 + np.conj(np.swapaxes(a2, 1, 2))) / 2.0
    phi2 = QuadraticModel(a2) if r else None
    body2 = polytope_body(pts @ f2) if r else None
    return SplitData(
        model=model,
        body=body,
        f1_basis=f1,
        f2_basis=f2,
        e1_basis=e1,
        e2_basis=e2,
        phi2=phi2,
        body2=body2,
    )


def embed_flat(sp, f2):
    """Pull a function on the reduced model back to the original group.

    The embedded function ignores the flat coordinates entirely.  A finite
    spectral form is lifted along the active central basis, so extension
    and windowing keep working on the embedded side.
    """
    e2c = sp.e2_basis.conj()

    def ev(z, x):
        return f2(np.asarray(z, complex) @ e2c, np.asarray(x, float) @ sp.f2_basis)

    spectral = None
    if f2.spectral is not None:
        lams = f2.spectral.lambdas @ sp.f2_basis.T  # (J, m)
        base = f2.spectral.coeff

        def coeff(z):
            return base(np.asarray(z, complex) @ e2c)

        spectral = SpectralForm(lams, coeff)
    return SampledFunction(sp.model, ev, f2.grid, spectral=spectral)


def split_invariants(sp, samples=32, seed=0):
    """Named residuals for the split's defining identities.

    Sampled identities: the active part of Phi restricted to E2 is phi2;
    commutators of flat-group elements with anything stay flat (the flat
    factor is normal); the pairing of K against Phi factors through the
    reduced model.  Construction residuals: orthonormality and mutual
    orthogonality of all four bases.
    """
    model = sp.model
    rng = np.random.default_rng(seed)
    out = {}

    def _ortho(b):
        return float(np.abs(b.conj().T @ b - np.eye(b.shape[1])).max()) if b.size else 0.0

    out["f_bases_orthonormal"] = max(_ortho(sp.f1_basis), _ortho(sp.f2_basis))
    out["e_bases_orthonormal"] = max(_ortho(sp.e1_basis), _ortho(sp.e2_basis))
    cross_f = sp.f1_basis.T @ sp.f2_basis
    cross_e = sp.e1_basis.conj().T @ sp.e2_basis
    out["bases_orthogonal"] = float(
        max(np.abs(cross_f).max() if cross_f.size else 0.0,
            np.abs(cross_e).max() if cross_e.size else 0.0)
    )

    n2 = sp.e2_basis.shape[1]
    if sp.phi2 is not None and n2 > 0:
        # Phi(zeta, zeta') - Phi_2(zeta, zeta') lands in the flat central
        # subspace for zeta, zeta' in E2
        c = rng.standard_normal((samples, n2)) + 1j * rng.standard_normal((samples, n2))
        cp = rng.standard_normal((samples, n2)) + 1j * rng.standard_normal((samples, n2))
        z = c @ sp.e2_basis.T
        zp = cp @ sp.e2_basis.T
        full = model.phi_pair(z, zp)  # (S, m)
        red = sp.phi2.phi_pair(c, cp)  # (S, r)
        out["phi_restricts_to_phi2"] = float(
            np.abs(full @ sp.f2_basis - red).max()
        )
        # <lam, Phi(zeta)> = <lam, Phi_2(zeta')> for zeta' the active part
        zfull = rng.standard_normal((samples, model.n)) + 1j * rng.standard_normal(
            (samples, model.n)
        )
        coords = zfull @ sp.e2_basis.conj()
        lam2 = rng.uniform(-1.0, 1.0, (samples, sp.f2_basis.shape[1]))
        lam = lam2 @ sp.f2_basis.T
        lhs = np.einsum("sm,sm->s", lam, model.phi_pair(zfull, zfull).real)
        rhs = np.einsum("sr,sr->s", lam2, sp.phi2.phi_pair(coords, coords).real)
        out["pairing_factors_through_phi2"] = float(np.abs(lhs - rhs).max())
    # commutators of the flat factor with the whole group stay flat: their
    # central part has no component along span K
    n1 = sp.e1_basis.shape[1]
    if n1 > 0 and sp.f2_basis.shape[1] > 0:
        c1 = rng.standard_normal((samples, n1)) + 1j * rng.standard_normal((samples, n1))
        z1 = c1 @ sp.e1_basis.T
        zany = rng.standard_normal((samples, model.n)) + 1j * rng.standard_normal(
            (samples, model.n)
        )
        comm = 4.0 * np.imag(model.phi_pair(z1, zany))  # (S, m)
        out["flat_factor_is_normal"] = float(np.abs(comm @ sp.f2_basis).max())
    return out


def support_invariance(sp, samples=64, seed=0):
    """Max gap of H_K(rho(z1+z2, u1+u2)) against the reduced H on rho2.

    Flat components move freely; the supporting function of K only sees
    the active part, evaluated through the reduced model.
    """
    if sp.phi2 is None:
        raise ValueError("the trivial split has no reduced supporting function")
    model = sp.model
    rng = np.random.default_rng(seed)
    n1, n2 = sp.e1_basis.shape[1], sp.e2_basis.shape[1]
    m1, r = sp.f1_basis.shape[1], sp.f2_basis.shape[1]
    scale = 1.5  # every sampled coordinate is a complex normal of this size
    # one draw laid out as the per-sample order c1, c2, w1, w2, each (Re, Im)
    draws = rng.standard_normal((samples, 2 * (n1 + n2 + m1 + r)))
    parts = np.split(draws, np.cumsum([n1, n1, n2, n2, m1, m1, r]), axis=1)
    c1, c2, w1, w2 = ((re + 1j * im) * scale for re, im in zip(parts[::2], parts[1::2]))
    z = c1 @ sp.e1_basis.T + c2 @ sp.e2_basis.T
    u = w1 @ sp.f1_basis.T + w2 @ sp.f2_basis.T
    rho = np.imag(u) - model.phi(z)
    rho2 = np.imag(w2) - sp.phi2.phi(c2)
    return float(np.max(np.abs(support(sp.body, rho) - support(sp.body2, rho2)), initial=0.0))


def verify_split_growth(f, sp):
    """Probe constancy along flat directions and decay along active ones.

    Returns a dict with the relative variation of |f| along the first flat
    first-layer and central directions (exactly zero for split-banded
    functions) and the log-log slope of -log|f| along an active first-layer
    direction (two for the Gaussian layer weight), all probed at distances
    0.75, 1, 1.5, 2 and 3.
    """
    ts = np.array([0.75, 1.0, 1.5, 2.0, 3.0])
    m, n = sp.model.m, sp.model.n
    x0 = np.zeros((1, m))
    base = np.abs(f(np.zeros((1, n), complex), x0))[0]
    out = {}
    if sp.e1_basis.shape[1] > 0:
        zdir = sp.e1_basis[:, 0]
        vals = np.abs(f(ts[:, None] * zdir[None, :], x0))
        out["flat_variation"] = float(np.max(np.abs(vals - base)) / base)
    if sp.f1_basis.shape[1] > 0:
        xdir = sp.f1_basis[:, 0]
        vals = np.abs(f(np.zeros((ts.size, n), complex), ts[:, None] * xdir[None, :]))
        out["central_variation"] = float(np.max(np.abs(vals - base)) / base)
    if sp.e2_basis.shape[1] > 0:
        zdir = sp.e2_basis[:, 0]
        vals = np.abs(f(ts[:, None] * zdir[None, :], x0))
        drop = -np.log(vals / base)
        good = drop > 1e-12
        if np.sum(good) >= 2:
            slope, _ = np.polyfit(np.log(ts[good]), np.log(drop[good]), 1)
            out["active_slope"] = float(slope)
    return out
