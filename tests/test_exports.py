"""Every exported name resolves: each module's __all__ and the package's own imports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import quadric_cr

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadric_cr.__path__))


def test_the_package_names_its_modules():
    assert {"convex", "fock", "functions", "spectral", "transform"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quadric_cr.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(quadric_cr.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(quadric_cr, n)] == []


def _run_fresh(code, tmp_path, *args):
    """Run code in a new interpreter that imports this package; returns its stdout."""
    env = dict(os.environ)
    src = str(Path(quadric_cr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_WORKLOAD_PATHS = """
    import contextlib, io, sys
    from pathlib import Path

    import numpy as np

    from quadric_cr import cli, convex, fock, functions, model, transform

    def scipy_loaded(where):
        # and concurrent.futures, which only a Plancherel batch of several
        # radical chunks needs
        names = sorted(m for m in sys.modules
                       if m in ("scipy", "concurrent") or m.startswith(("scipy.", "concurrent.")))
        print(where, names[:3])

    scipy_loaded("import")
    heis1 = model.QuadraticModel(np.array([[[1.0]]], complex))
    f = functions.gaussian_function(heis1, functions.GridSpec(enodes=12))
    fock.plancherel_residual(heis1, f, fock.PlancherelConfig(
        lam_lo=[-4.0], lam_hi=[4.0], lam_nodes=4, degree=2))
    scipy_loaded("plancherel_heis1")
    deg21 = model.QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], complex))
    grid = functions.GridSpec(ebox=4.0, enodes=8, fbox=4.5, fnodes=16)
    g = functions.SampledFunction(
        deg21, lambda z, x: np.exp(-np.sum(np.abs(z) ** 2, -1) - np.sum(x**2, -1)), grid)
    fock.plancherel_residual(deg21, g, fock.PlancherelConfig(
        lam_lo=[-4.0], lam_hi=[4.0], lam_nodes=4, degree=2, tau_nodes=4, grid=grid))
    scipy_loaded("plancherel_deg21")
    k12 = convex.interval_body(1.0, 2.0)
    grid = functions.GridSpec(ebox=4.0, enodes=12, fbox=160.0, fnodes=64)
    p = transform.bump_profile(k12, nodes=16)
    f1 = transform.inverse_FN(heis1, p, grid=grid)
    h = fock.group_convolve(f1, f1, grid=grid)
    transform.forward_FN(h, np.array([[1.5]]), degree=2)
    scipy_loaded("convolve")
    scenarios = Path(sys.argv[1])
    for sub, name in [("spectral", "spectral_heis1"), ("extend", "extend_heis1"),
                      ("crcheck", "crcheck_heis1"), ("windows", "windows_heis1"),
                      ("rockland", "rockland_heis1"), ("spectral", "spectral_all"),
                      ("split", "split_flat12"), ("split", "split_pair22"),
                      ("convex", "convex_quadrant")]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([sub, "--scenario", str(scenarios / f"{name}.scenario"),
                             "--out", "out"])
        assert code == 0, name
        scipy_loaded(name)
"""


def test_no_workload_path_imports_scipy(tmp_path):
    # scipy.optimize and scipy.spatial take longer to import than most runs
    # take; only polytope hulls, erosion and nnls membership load them.
    # concurrent.futures adds 4-5 ms to the import, and none of these paths
    # has a second radical chunk to sample on a worker
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = _run_fresh(_WORKLOAD_PATHS, tmp_path, str(scenarios))
    lines = out.splitlines()
    assert len(lines) == 13
    assert [line for line in lines if not line.endswith(" []")] == []


def test_the_polytope_routines_load_scipy_when_called(tmp_path):
    out = _run_fresh("""
        import sys

        import numpy as np

        from quadric_cr import convex

        square = convex.box_body([0.0, 0.0], [2.0, 2.0])
        print(sorted(convex.erode(square, 0.5).points.round(12).tolist()))
        print(convex.boundary_distance(square, np.array([0.5, 1.0])))
        print(convex.contains(square, np.array([1.0, 1.0])),
              convex.contains(square, np.array([3.0, 1.0])))
        print("scipy.optimize" in sys.modules, "scipy.spatial" in sys.modules)
    """, tmp_path)
    assert out.splitlines() == [
        "[[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5]]",
        "0.5",
        "True False",
        "True True",
    ]
