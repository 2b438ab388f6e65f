"""Scenario-driven command line runner.

Every verification suite is a subcommand reading one scenario file (or an
index of scenario= lines) and writing, per scenario, a CSV table plus a
JSON summary with one pass/fail entry per check.  All randomness comes
from one seed recorded in both outputs; reruns are byte-identical.

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
    boundary_distance,
    cone_inequality_constant,
    contains,
    erode,
    polar_cone,
    project_body,
    support,
)
from .fock import PlancherelConfig, fock_basis, plancherel_residual
from .functions import GridSpec, SampledFunction, gaussian_function, l2_norm
from .model import apply_cr_field
from .rockland import rockland_eigenvalue, rockland_matrix, rockland_spectrum
from .spectral import generic_dimension, is_exceptional, spectral_data
from .split import split, split_invariants, support_invariance, verify_split_growth
from .transform import (
    bandlimit_project,
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


def _vec(scn, key, m, default=None):
    raw = scn.get(key)
    if raw is None:
        if default is None:
            raise cio.ParseError(f"{scn.path}: missing required key {key!r}")
        raw = default
    vals = [float(t) for t in str(raw).replace(",", " ").split()]
    if len(vals) == 1:
        vals = vals * m
    if len(vals) != m:
        raise cio.ParseError(f"{scn.path}: key {key!r} needs {m} numbers")
    return np.asarray(vals)


def _grid_spec(scn):
    base = GridSpec()
    return GridSpec(
        ebox=scn.flt("ebox", base.ebox),
        enodes=scn.integer("enodes", base.enodes),
        fbox=scn.flt("fbox", base.fbox),
        fnodes=scn.integer("fnodes", base.fnodes),
    )


def _lam_table(scn, m):
    lo = _vec(scn, "lam_lo", m)
    hi = _vec(scn, "lam_hi", m)
    count = scn.integer("lam_count", 17)
    axes = [np.linspace(lo[k], hi[k], count) for k in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, m)


def _sample_ambient(model, rng, count, scale, hmax):
    n, m = model.n, model.m
    z = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) * scale
    h = rng.uniform(0.05, hmax, (count, m))
    x = rng.standard_normal((count, m))
    u = x + 1j * (model.phi(z) + h)
    return z, u


def _run_spectral(scn, seed, rng):
    model = scn.model()
    grid = _lam_table(scn, model.m)
    gen_d = generic_dimension(model)
    rows = []
    worst = 0.0
    minpf = np.inf
    for lam in grid:
        sd = spectral_data(model, lam)
        exc = is_exceptional(sd, gen_d)
        basis = np.concatenate([sd.e_plus, sd.e_minus, sd.radical], axis=1)
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
        _check("basis_orthonormality", worst, scn.flt("tol_basis", 1e-10)),
        _check("pfaffian_positive", minpf, 0.0, kind="min"),
    ]
    meta = {"generic_radical_dim": generic_dimension(model), "layers": len(rows)}
    return meta, cols, rows, checks


def _data_function(scn, model, grid):
    kind = scn.get("function", "banded")
    if kind == "gaussian":
        return gaussian_function(model, grid)
    if kind == "modulated":
        # gaussian times cos(<omega, x>); pushes the fiber spectrum to
        # +-omega so truncated-degree layers near lambda = 0 stay quiet
        omega = _vec(scn, "omega", model.m)

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
    grid = _grid_spec(scn)
    f = _data_function(scn, model, grid)
    cfg = PlancherelConfig(
        lam_lo=_vec(scn, "lam_lo", model.m),
        lam_hi=_vec(scn, "lam_hi", model.m),
        lam_nodes=scn.integer("lam_count", 81),
        degree=scn.integer("degree", 12),
        tau_box=scn.flt("tau_box", 6.0),
        tau_nodes=scn.integer("tau_nodes", 12),
        grid=grid,
    )
    rep = plancherel_residual(model, f, cfg)
    rows = [tuple(lam) + (pf, layer, captured) for lam, pf, layer, captured in rep.rows]
    cols = [f"lam_{k}" for k in range(model.m)] + ["pfaffian", "layer_hs_sq", "captured"]
    meta = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "residual": rep.residual,
        "constant": rep.constant,
        "layers": rep.n_layers,
        "skipped": rep.skipped,
    }
    checks = [_check("plancherel_residual", rep.residual, scn.flt("tol_residual"))]
    return meta, cols, rows, checks


def _run_rockland(scn, seed, rng):
    model = scn.model()
    lam = _vec(scn, "lam", model.m, default="1")
    degree = scn.integer("degree", 10)
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
        _check("spectrum_match", float((diffs / scale).max()), scn.flt("tol_spectrum", 1e-8)),
        _check("ground_overlap", float(ground), 1.0 - scn.flt("tol_ground", 1e-8), kind="min"),
    ]
    return meta, cols, rows, checks


def _run_extend(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body)
    count = scn.integer("points", 200)
    order = scn.integer("order", 3)
    z, u = _sample_ambient(model, rng, count, scn.flt("scale", 0.6), scn.flt("hmax", 1.2))
    f = inverse_FN(model, prof)
    vb = extend_profile(model, prof, z, u, lam_nodes=scn.integer("lam_nodes", 64))
    va = extend_by_resynthesis(f, body, z, u, xbox=scn.flt("xbox", 160.0),
                               xnodes=scn.integer("xnodes", 768),
                               lam_nodes=scn.integer("lam_nodes", 64))
    rel = np.abs(va - vb) / np.maximum(np.abs(vb), 1e-300)
    xb = rng.standard_normal((count, model.m)) * 2.0
    ub = xb + 1j * model.phi(z)
    bvals = extend(f, z, ub)
    fvals = f(z, xb)
    brel = float(np.abs(bvals - fvals).max() / np.abs(fvals).max())
    margins, clamped = pw_margin(f, body, z, u, order=order)
    finite = float(np.mean(np.isfinite(margins)))
    rows = [
        (i, vb[i].real, vb[i].imag, va[i].real, va[i].imag, rel[i], margins[i])
        for i in range(count)
    ]
    cols = ["point", "routeB_re", "routeB_im", "routeA_re", "routeA_im", "rel_gap", "margin"]
    meta = {"clamped_margins": clamped, "order": order}
    checks = [
        _check("routes_agree", float(rel.max()), scn.flt("tol_routes", 1e-5)),
        _check("boundary_restriction", brel, scn.flt("tol_boundary", 1e-6)),
        _check("margins_finite", finite, 1.0, kind="min"),
    ]
    return meta, cols, rows, checks


def _cr_residual(model, f, rng, count, step):
    z = (rng.standard_normal((count, model.n)) + 1j * rng.standard_normal((count, model.n)))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = z / np.maximum(norms, 1.0)  # keep |z| <= 1
    x = rng.uniform(-2.0, 2.0, (count, model.m))
    worst = 0.0
    for k in range(model.n):
        v = np.zeros(model.n)
        v[k] = 1.0
        vals = apply_cr_field(model, v, f, z, x, conjugate=True, step=step)
        worst = max(worst, float(np.abs(vals).max()))
    scale = float(np.abs(f(z, x)).max())
    return worst / scale if scale > 0 else 0.0


def _run_crcheck(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body)
    f = inverse_FN(model, prof)
    count = scn.integer("points", 40)
    step = scn.flt("fd_step", 1e-4)
    resid = _cr_residual(model, f, rng, count, step)
    lam_grid = _lam_table(scn, model.m)
    support_body = scn.body("support_body") if scn.get("support_body") else body
    sup = spectrum_support(f, lam_grid, body=support_body)
    rows = [tuple(lam) + (m,) for lam, m in zip(sup["lambdas"], sup["mass"])]
    cols = [f"lam_{k}" for k in range(model.m)] + ["mass"]
    meta = {"cr_residual": resid, "outside_fraction": sup["outside_fraction"]}
    checks = [
        _check("cr_residual", resid, scn.flt("tol_cr", 1e-5)),
        _check("outside_mass", sup["outside_fraction"], scn.flt("tol_mass", 1e-4)),
    ]
    if scn.get("control", "0") in ("1", "true", "yes"):
        ctrl = SampledFunction(model, lambda zz, xx: np.conj(f(zz, xx)), f.grid)
        cres = _cr_residual(model, ctrl, rng, count, step)
        meta["control_residual"] = cres
        checks.append(_check("control_not_cr", cres, scn.flt("min_control", 0.1), kind="min"))
    return meta, cols, rows, checks


def _run_windows(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    prof = scn.profile(body, key="profile")
    f = inverse_FN(model, prof)
    eps_list = [float(e) for e in scn.kv.getall("eps")] or [0.8, 0.4, 0.2, 0.1]
    samples = scn.integer("samples", 400)
    lo, hi = body.points.min(0), body.points.max(0)
    pad = max(float(e) for e in eps_list)
    lams = rng.uniform(lo - pad, hi + pad, (samples, model.m))
    grid = GridSpec(fbox=scn.flt("fbox", 8.0), fnodes=scn.integer("fnodes", 64))
    rows = []
    worst_sandwich = 0.0
    errs = []
    for eps in eps_list:
        w = spectral_window(body, eps)
        inner = erode(body, eps)
        outer = erode(body, eps / 4.0)
        vals = w(lams)
        chi_in = np.array([float(contains(inner, l)) for l in lams])
        chi_out = np.array([float(contains(outer, l)) for l in lams])
        viol = float(np.maximum(chi_in - vals, 0.0).max())
        viol = max(viol, float(np.maximum(vals - chi_out, 0.0).max()))
        proj = bandlimit_project(f, w)
        diff = SampledFunction(model, lambda zz, xx, p=proj: f(zz, xx) - p(zz, xx), grid)
        err = l2_norm(diff, grid)
        rows.append((eps, viol, err, bool(w.empty)))
        worst_sandwich = max(worst_sandwich, viol)
        errs.append(err)
    cols = ["eps", "sandwich_violation", "l2_error", "empty"]
    meta = {"eps_count": len(eps_list)}
    checks = [
        _check("window_sandwich", worst_sandwich, scn.flt("tol_sandwich", 1e-10)),
        _check("projection_error", errs[-1], scn.flt("tol_project", 1e-3)),
    ]
    return meta, cols, rows, checks


def _run_split(scn, seed, rng):
    model = scn.model()
    body = scn.body()
    sp = split(model, body)
    samples = scn.integer("samples", 64)
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
        from .transform import bump_profile

        f = None
        try:
            f = inverse_FN(sp.phi2, bump_profile(sp.body2, nodes=32))
        except NotImplementedError:
            pass
        if f is not None:
            from .split import embed_flat

            rep = verify_split_growth(embed_flat(sp, f), sp)
            for k, v in sorted(rep.items()):
                rows.append((f"growth_{k}", v))
    cols = ["quantity", "value"]
    checks = [
        _check("split_invariants", max(res.values()), scn.flt("tol_invariants", 1e-12)),
        _check("support_invariance", hk, scn.flt("tol_hk", 1e-12)),
    ]
    return meta, cols, rows, checks


def _run_convex(scn, seed, rng):
    body = scn.body()
    m = body.m
    rows = []
    checks = []
    # supporting function commutes with vertex projection onto subspaces
    proj_worst = 0.0
    for _ in range(scn.integer("subspaces", 8)):
        p = rng.integers(1, m + 1) if m > 1 else 1
        q, _ = np.linalg.qr(rng.standard_normal((m, p)))
        pb = project_body(body, q)
        for _ in range(scn.integer("directions", 16)):
            c = rng.standard_normal(p)
            gap = abs(support(body, q @ c) - support(pb, c))
            proj_worst = max(proj_worst, gap)
    rows.append(("projection_identity", proj_worst))
    checks.append(_check("projection_identity", proj_worst, scn.flt("tol_projection", 1e-12)))
    if scn.get("cone"):
        cone = scn.body("cone")
        d = max(2, int(np.sqrt(scn.integer("samples", 10000))))
        const = cone_inequality_constant(cone, directions=d, h_directions=d)
        rows.append(("cone_constant", const))
        expected = scn.get("expected_constant")
        if expected is not None:
            gap = abs(const - float(expected))
            rows.append(("cone_constant_gap", gap))
            checks.append(_check("cone_constant", gap, scn.flt("tol_constant", 5e-2)))
        # bipolar: the polar of the polar gives back the membership oracle
        nb = scn.integer("bipolar_samples", 1000)
        pts = rng.standard_normal((nb, cone.m)) * 2.0
        double = polar_cone(polar_cone(cone))
        mism = sum(
            1 for p in pts if contains(cone, p) != contains(double, p)
        )
        frac = mism / nb
        rows.append(("bipolar_mismatch", frac))
        checks.append(_check("bipolar_agreement", frac, scn.flt("tol_bipolar", 1e-12)))
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quadric-cr",
        description="Scenario-driven checks for band-limited analysis on quadric CR manifolds",
    )
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("--scenario", required=True, help="scenario file or index of scenario= lines")
    parser.add_argument("--out", default=None, help="output directory (default: alongside the scenario)")
    parser.add_argument("--seed", type=int, default=None, help="overrides the scenario seed")
    args = parser.parse_args(argv)

    try:
        scenarios = cio.load_scenarios(args.scenario)
    except MissingReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    all_pass = True
    ran = 0
    for scn in scenarios:
        seed = args.seed if args.seed is not None else scn.integer("seed", 0)
        rng = np.random.default_rng(seed)
        outdir = args.out or scn.get("out") or os.path.join(scn.dir, "out")
        os.makedirs(outdir, exist_ok=True)
        try:
            meta, cols, rows, checks = _HANDLERS[args.subcommand](scn, seed, rng)
        except MissingReferenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISSING
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
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
        cio.write_json(base + "_summary.json", summary)
        for c in checks:
            rel = "<=" if c["kind"] == "max" else ">="
            state = "PASS" if c["pass"] else "FAIL"
            print(f"{state} {scn.name}.{c['name']}: {c['value']:.6e} {rel} {c['bound']:.6e}")
            if not c["pass"]:
                all_pass = False
        ran += 1
    if ran == 0:
        print("no scenarios listed; empty report")
    return EXIT_OK if all_pass else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
