"""Scenario-driven command line runner.

Every verification suite is a subcommand reading one scenario file (or an
index of scenario= lines) and writing, per scenario, a CSV table plus a
JSON summary with one pass/fail entry per check, plus a `warnings` list
when the run has any: a synthesized function's profile nodes outside the
positivity cone, and `plancherel`'s report (which always has the key).
All randomness comes from one seed recorded in both outputs; reruns are
byte-identical.  Each handler reads every key it takes and refuses any
other (`KVFile.refuse_unread`) before it computes.

Exit codes: 0 all checks pass, 2 parse/usage error, 3 missing referenced
file, 4 tolerance violation.
"""

import argparse
import os
import sys

import numpy as np

from . import configio as cio
from .configio import ConfigError, MissingReferenceError
from .convex import (
    cone_inequality_constant,
    contains,
    erode,
    polar_cone,
    project_body,
    support,
)
from .fock import PlancherelConfig, fock_basis, plancherel_residual
from .functions import GridSpec, SampledFunction, SpectralForm, gaussian_function, l2_norm
from .model import apply_cr_field
from .rockland import rockland_eigenvalue, rockland_matrix, rockland_spectrum
from .spectral import generic_dimension, is_exceptional, spectral_data
from .split import (
    embed_flat,
    split,
    split_invariants,
    support_invariance,
    verify_split_growth,
)
from .transform import (
    bandlimit_project,
    bump_profile,
    extend,
    extend_by_resynthesis,
    extend_profile,
    inverse_FN,
    pw_margin,
    spectral_window,
    spectrum_support,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISSING = 3
EXIT_TOLERANCE = 4


def _check(name, value, bound, kind="max"):
    value = float(value)
    bound = float(bound)
    ok = value <= bound if kind == "max" else value >= bound
    return {"name": name, "value": value, "bound": bound, "kind": kind, "pass": bool(ok)}


def _with_warnings(meta, f):
    """meta, with f's synthesis warnings under "warnings" if it has any."""
    if f.warnings:
        meta["warnings"] = list(f.warnings)
    return meta


def _lam_table(scn, m):
    lo = scn.vec("lam_lo", m)
    hi = scn.vec("lam_hi", m)
    count = scn.count("lam_count", 17)
    axes = [np.linspace(lo[k], hi[k], count) for k in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, m)


def _sample_ambient(model, rng, count):
    """count points (z, u): z of scale 0.6, u at height 0.05 < h < 1.2 over the boundary."""
    n, m = model.n, model.m
    z = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) * 0.6
    h = rng.uniform(0.05, 1.2, (count, m))
    x = rng.standard_normal((count, m))
    u = x + 1j * (model.phi(z) + h)
    return z, u


def _run_spectral(scn, seed, rng):
    model = scn.model()
    grid = _lam_table(scn, model.m)
    tol_basis = scn.flt("tol_basis", 1e-10)
    scn.refuse_unread()
    gen_d = generic_dimension(model)
    rows = []
    worst = 0.0
    minpf = np.inf
    for lam in grid:
        sd = spectral_data(model, lam)
        exc = is_exceptional(sd, gen_d)
        basis = np.concatenate([sd.eigenvectors, sd.radical], axis=1)
        resid = float(np.abs(basis.conj().T @ basis - np.eye(model.n)).max())
        mu_min = float(sd.eigenvalues.min()) if sd.eigenvalues.size else 0.0
        mu_max = float(sd.eigenvalues.max()) if sd.eigenvalues.size else 0.0
        rows.append(
            tuple(lam) + (sd.d, sd.pfaffian, mu_min, mu_max, resid, bool(exc))
        )
        if not exc:
            worst = max(worst, resid)
            minpf = min(minpf, sd.pfaffian)
    cols = [f"lam_{k}" for k in range(model.m)] + [
        "radical_dim", "pfaffian", "mu_min", "mu_max", "basis_residual", "exceptional",
    ]
    checks = [
        _check("basis_orthonormality", worst, tol_basis),
        _check("pfaffian_positive", minpf, 0.0, kind="min"),
    ]
    meta = {"generic_radical_dim": gen_d, "layers": len(rows)}
    return meta, cols, rows, checks


def _data_function(scn, model, grid):
    kind = scn.get("function", "banded")
    if kind == "gaussian":
        return gaussian_function(model, grid)
    if kind == "modulated":
        # gaussian times cos(<omega, x>); pushes the fiber spectrum to
        # +-omega so truncated-degree layers near lambda = 0 stay quiet
        omega = scn.vec("omega", model.m)

        def ev(z, x):
            z = np.asarray(z, complex)
            x = np.asarray(x, float)
            rad = np.sum(np.abs(z) ** 2, axis=-1) + np.sum(x**2, axis=-1)
            return np.exp(-rad) * np.cos(x @ omega)

        return SampledFunction(model, ev, grid)
    if kind == "banded":
        body = scn.body()
        prof = scn.profile(body)
        return inverse_FN(model, prof, grid=grid)
    raise cio.ParseError(f"{scn.path}: unknown function kind {kind!r}")


def _run_plancherel(scn, seed, rng):
    model = scn.model()
    grid = GridSpec(**scn.given(ebox="flt", enodes="count", fbox="flt", fnodes="count"))
    f = _data_function(scn, model, grid)
    cfg = PlancherelConfig(
        lam_lo=scn.vec("lam_lo", model.m),
        lam_hi=scn.vec("lam_hi", model.m),
        lam_nodes=scn.integer("lam_count", 81),
        grid=grid,
        **scn.given(degree="integer", tau_box="flt", tau_nodes="count"),
    )
    tol_residual = scn.flt("tol_residual")
    scn.refuse_unread()
    try:
        rep = plancherel_residual(model, f, cfg)
    except ValueError as exc:  # its only refusal: no lambda rule from these keys
        raise cio.ParseError(f"{scn.path}: lam_count, lam_lo, lam_hi: {exc}") from exc
    rows = [tuple(lam) + (pf, layer, captured) for lam, pf, layer, captured in rep.rows]
    cols = [f"lam_{k}" for k in range(model.m)] + ["pfaffian", "layer_hs_sq", "captured"]
    meta = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "residual": rep.residual,
        "constant": rep.constant,
        "layers": len(rep.rows),
        "skipped": rep.skipped,
        "warnings": list(f.warnings) + list(rep.warnings),
    }
    checks = [_check("plancherel_residual", rep.residual, tol_residual)]
    return meta, cols, rows, checks


def _run_rockland(scn, seed, rng):
    model = scn.model()
    lam = scn.vec("lam", model.m, default=1)
    degree = scn.integer("degree", 10)
    tol_spectrum, tol_ground = scn.flt("tol_spectrum", 1e-8), scn.flt("tol_ground", 1e-8)
    scn.refuse_unread()
    sd = spectral_data(model, lam)
    fb = fock_basis(sd, degree)
    spec = rockland_spectrum(fb)
    closed = np.array([rockland_eigenvalue(sd, a) for a in spec.alphas])
    diffs = np.abs(spec.eigenvalues - closed)
    scale = np.maximum(np.abs(closed), 1.0)
    mat = rockland_matrix(fb)
    w, v = np.linalg.eigh(mat)
    ground = np.abs(v[0, np.argmin(w)])
    rows = [
        (";".join(str(int(a)) for a in alpha), ev, cf, d)
        for alpha, ev, cf, d in zip(spec.alphas, spec.eigenvalues, closed, diffs)
    ]
    cols = ["alpha", "assembled", "closed_form", "abs_diff"]
    meta = {"block_size": mat.shape[0], "kept": len(rows)}
    checks = [
        _check("spectrum_match", float((diffs / scale).max()), tol_spectrum),
        _check("ground_overlap", float(ground), 1.0 - tol_ground, kind="min"),
    ]
    return meta, cols, rows, checks


def _run_extend(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body)
    count = scn.count("points", 200)
    order = scn.integer("order", 3)
    lam_kw, xbox_kw = scn.given(lam_nodes="count"), scn.given(xbox="flt")
    tol_routes, tol_boundary = scn.flt("tol_routes", 1e-5), scn.flt("tol_boundary", 1e-6)
    scn.refuse_unread()
    z, u = _sample_ambient(model, rng, count)
    f = inverse_FN(model, prof)
    try:
        vb = extend_profile(model, prof, z, u, **lam_kw)
        va = extend_by_resynthesis(f, body, z, u, **lam_kw, **xbox_kw)
    except ValueError as exc:  # lam_nodes or xbox: rho = h > 0 passes the exponent check
        raise cio.ParseError(f"{scn.path}: lam_nodes, xbox: {exc}") from exc
    rel = np.abs(va - vb) / np.maximum(np.abs(vb), 1e-300)
    xb = rng.standard_normal((count, model.m)) * 2.0
    ub = xb + 1j * model.phi(z)
    bvals = extend(f, z, ub)
    fvals = f(z, xb)
    brel = float(np.abs(bvals - fvals).max() / np.abs(fvals).max())
    margins = pw_margin(f, body, z, u, order=order)
    finite = float(np.mean(np.isfinite(margins)))
    rows = [
        (i, vb[i].real, vb[i].imag, va[i].real, va[i].imag, rel[i], margins[i])
        for i in range(count)
    ]
    cols = ["point", "routeB_re", "routeB_im", "routeA_re", "routeA_im", "rel_gap", "margin"]
    meta = _with_warnings({"order": order}, f)
    checks = [
        _check("routes_agree", float(rel.max()), tol_routes),
        _check("boundary_restriction", brel, tol_boundary),
        _check("margins_finite", finite, 1.0, kind="min"),
    ]
    return meta, cols, rows, checks


def _cr_residual(model, f, rng, count):
    z = (rng.standard_normal((count, model.n)) + 1j * rng.standard_normal((count, model.n)))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = z / np.maximum(norms, 1.0)  # keep |z| <= 1
    x = rng.uniform(-2.0, 2.0, (count, model.m))
    worst = 0.0
    for k in range(model.n):
        v = np.zeros(model.n)
        v[k] = 1.0
        vals = apply_cr_field(model, v, f, z, x, conjugate=True)
        worst = max(worst, float(np.abs(vals).max()))
    scale = float(np.abs(f(z, x)).max())
    return worst / scale if scale > 0 else 0.0


def _run_crcheck(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body)
    count = scn.count("points", 40)
    lam_grid = _lam_table(scn, model.m)
    support_body = scn.body("support_body") if scn.get("support_body") else body
    tol_cr, tol_mass = scn.flt("tol_cr", 1e-5), scn.flt("tol_mass", 1e-4)
    control = scn.flag("control")
    min_control = scn.flt("min_control", 0.1) if control else None
    scn.refuse_unread()
    f = inverse_FN(model, prof)
    resid = _cr_residual(model, f, rng, count)
    sup = spectrum_support(f, lam_grid, body=support_body)
    rows = [tuple(lam) + (m,) for lam, m in zip(sup["lambdas"], sup["mass"])]
    cols = [f"lam_{k}" for k in range(model.m)] + ["mass"]
    meta = _with_warnings({"cr_residual": resid, "outside_fraction": sup["outside_fraction"]}, f)
    checks = [
        _check("cr_residual", resid, tol_cr),
        _check("outside_mass", sup["outside_fraction"], tol_mass),
    ]
    if control:
        ctrl = SampledFunction(model, lambda zz, xx: np.conj(f(zz, xx)), f.grid)
        cres = _cr_residual(model, ctrl, rng, count)
        meta["control_residual"] = cres
        checks.append(_check("control_not_cr", cres, min_control, kind="min"))
    return meta, cols, rows, checks


def _run_windows(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body, key="profile")
    eps_list = scn.numbers("eps") or [0.8, 0.4, 0.2, 0.1]
    samples = scn.count("samples", 400)
    grid = GridSpec(fbox=scn.flt("fbox", 8.0))
    tol_sandwich, tol_project = scn.flt("tol_sandwich", 1e-10), scn.flt("tol_project", 1e-3)
    scn.refuse_unread()
    f = inverse_FN(model, prof)
    lo, hi = body.points.min(0), body.points.max(0)
    pad = max(eps_list)
    lams = rng.uniform(lo - pad, hi + pad, (samples, model.m))
    rows = []
    worst_sandwich = 0.0
    errs = []
    for eps in eps_list:
        try:
            w = spectral_window(body, eps)
        except ValueError as exc:  # its only refusal: a width that is not positive
            raise cio.ParseError(f"{scn.path}: eps: {exc}") from exc
        inner = erode(body, eps)
        vals = w(lams)
        chi_in = contains(inner, lams).astype(float)
        chi_out = contains(w.outer, lams).astype(float)
        viol = float(np.maximum(chi_in - vals, 0.0).max())
        viol = max(viol, float(np.maximum(vals - chi_out, 0.0).max()))
        proj = bandlimit_project(f, w)
        # f and its projection are ground forms on the same nodes, so their
        # difference is one too and its norm is closed in x: only the box is
        # read, and no central rule is built
        assert np.array_equal(proj.spectral.lambdas, f.spectral.lambdas)
        form = SpectralForm.ground(model, f.spectral.lambdas, f.spectral.amp - proj.spectral.amp)
        err = l2_norm(SampledFunction(model, form, grid, spectral=form), grid)
        rows.append((eps, viol, err, bool(w.empty)))
        worst_sandwich = max(worst_sandwich, viol)
        errs.append(err)
    cols = ["eps", "sandwich_violation", "l2_error", "empty"]
    meta = _with_warnings({"eps_count": len(eps_list)}, f)
    checks = [
        _check("window_sandwich", worst_sandwich, tol_sandwich),
        _check("projection_error", errs[-1], tol_project),
    ]
    return meta, cols, rows, checks


def _run_split(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    samples = scn.count("samples", 64)
    tol_invariants, tol_hk = scn.flt("tol_invariants", 1e-12), scn.flt("tol_hk", 1e-12)
    scn.refuse_unread()
    try:
        sp = split(model, body)
    except ValueError as exc:  # its only refusals: a body not a polytope or outside the cone
        raise cio.ParseError(f"{scn.path}: body: {exc}") from exc
    res = split_invariants(sp, samples=samples, seed=seed)
    rows = [(k, v) for k, v in sorted(res.items())]
    hk = support_invariance(sp, samples=samples, seed=seed) if sp.phi2 is not None else 0.0
    rows.append(("support_invariance", hk))
    meta = {
        "flat_central_dim": sp.f1_basis.shape[1],
        "active_central_dim": sp.f2_basis.shape[1],
        "flat_layer_dim": sp.e1_basis.shape[1],
        "active_layer_dim": sp.e2_basis.shape[1],
    }
    if sp.phi2 is not None:
        f = inverse_FN(sp.phi2, bump_profile(sp.body2, nodes=32))
        _with_warnings(meta, f)
        rep = verify_split_growth(embed_flat(sp, f), sp)
        for k, v in sorted(rep.items()):
            rows.append((f"growth_{k}", v))
    cols = ["quantity", "value"]
    checks = [
        _check("split_invariants", max(res.values()), tol_invariants),
        _check("support_invariance", hk, tol_hk),
    ]
    return meta, cols, rows, checks


def _run_convex(scn, seed, rng):
    body = scn.body()
    m = body.m
    subspaces, directions = scn.integer("subspaces", 8), scn.count("directions", 16)
    tol_projection = scn.flt("tol_projection", 1e-12)
    cone = scn.body("cone") if scn.get("cone") else None
    if cone is not None:
        d = max(2, int(np.sqrt(scn.count("samples", 10000))))
        nb = scn.count("bipolar_samples", 1000)
        tol_bipolar = scn.flt("tol_bipolar", 1e-12)
    scn.refuse_unread()
    rows = []
    checks = []
    # supporting function commutes with vertex projection onto subspaces
    proj_worst = 0.0
    for _ in range(subspaces):
        p = rng.integers(1, m + 1) if m > 1 else 1
        q, _ = np.linalg.qr(rng.standard_normal((m, p)))
        pb = project_body(body, q)
        c = rng.standard_normal((directions, p))
        # equal infinite supports (a cone body) give nan gaps: they agree
        gaps = np.abs(support(body, c @ q.T) - support(pb, c))
        proj_worst = max(proj_worst, float(np.nanmax(gaps, initial=0.0)))
    rows.append(("projection_identity", proj_worst))
    checks.append(_check("projection_identity", proj_worst, tol_projection))
    if cone is not None:
        try:
            const = cone_inequality_constant(cone, directions=d)
        except ValueError as exc:  # its refusals are all about the cone it scans
            raise cio.ParseError(f"{scn.path}: cone: {exc}") from exc
        rows.append(("cone_constant", const))
        # bipolar: the polar of the polar gives back the membership oracle
        pts = rng.standard_normal((nb, cone.m)) * 2.0
        double = polar_cone(polar_cone(cone))
        mism = int(np.count_nonzero(contains(cone, pts) != contains(double, pts)))
        frac = mism / nb
        rows.append(("bipolar_mismatch", frac))
        checks.append(_check("bipolar_agreement", frac, tol_bipolar))
    cols = ["quantity", "value"]
    meta = {"body_kind": body.kind}
    return meta, cols, rows, checks


_HANDLERS = {
    "spectral": _run_spectral,
    "plancherel": _run_plancherel,
    "rockland": _run_rockland,
    "extend": _run_extend,
    "crcheck": _run_crcheck,
    "windows": _run_windows,
    "split": _run_split,
    "convex": _run_convex,
}


def _seed(text):
    """--seed's value: an integer of at least 0, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quadric-cr",
        description="Scenario-driven checks for band-limited analysis on quadric CR manifolds",
    )
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("--scenario", required=True, help="scenario file or index of scenario= lines")
    parser.add_argument("--out", default=None, help="output directory (default: alongside the scenario)")
    parser.add_argument("--seed", type=_seed, default=None, help="overrides the scenario seed")
    args = parser.parse_args(argv)

    try:
        scenarios = cio.load_scenarios(args.scenario)
        all_pass = True
        for scn in scenarios:
            # the file's seed and out are read, and so checked, where a flag overrides them
            seed, outdir = scn.integer("seed", 0), scn.get("out")
            seed = seed if args.seed is None else args.seed
            outdir = args.out or outdir or os.path.join(scn.dir, "out")
            rng = np.random.default_rng(seed)
            meta, cols, rows, checks = _HANDLERS[args.subcommand](scn, seed, rng)
            os.makedirs(outdir, exist_ok=True)
            # a handler's warnings go to the summary, not the CSV header
            warnings = meta.pop("warnings", None)
            header = {"scenario": scn.name, "subcommand": args.subcommand, "seed": seed}
            header.update(meta)
            base = os.path.join(outdir, f"{scn.name}_{args.subcommand}")
            cio.write_csv(base + ".csv", cols, rows, meta=header)
            summary = {
                "scenario": scn.name,
                "subcommand": args.subcommand,
                "seed": seed,
                "checks": checks,
                "pass": all(c["pass"] for c in checks),
            }
            if warnings is not None:
                summary["warnings"] = warnings
            cio.write_json(base + "_summary.json", summary)
            for c in checks:
                rel = "<=" if c["kind"] == "max" else ">="
                state = "PASS" if c["pass"] else "FAIL"
                print(f"{state} {scn.name}.{c['name']}: {c['value']:.6e} {rel} {c['bound']:.6e}")
                all_pass = all_pass and c["pass"]
    except MissingReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not scenarios:
        print("no scenarios listed; empty report")
    return EXIT_OK if all_pass else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
