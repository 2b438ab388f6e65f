import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadric_cr import cli
from quadric_cr.cli import EXIT_MISSING, EXIT_OK, EXIT_PARSE, EXIT_TOLERANCE, main
from quadric_cr.configio import load_scenarios
from quadric_cr.convex import interval_body
from quadric_cr.fock import PlancherelConfig, plancherel_residual
from quadric_cr.functions import GridSpec, SampledFunction, SpectralForm, gaussian_function, l2_norm
from quadric_cr.model import QuadraticModel
from quadric_cr.transform import bandlimit_project, bump_profile, inverse_FN, spectral_window

HEIS1_MODEL = "n = 1\nm = 1\nA_1 = 1,0\n"


def _write_spectral(tmp_path, extra=""):
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    scn = tmp_path / "s.scenario"
    scn.write_text(
        "name = demo\nmodel = m.model\nseed = 4\n"
        "lam_lo = -2\nlam_hi = 2\nlam_count = 9\ntol_basis = 1e-10\n" + extra
    )
    return scn


def test_spectral_scenario_passes_and_writes_outputs(tmp_path, capsys):
    scn = _write_spectral(tmp_path)
    out = tmp_path / "out"
    rc = main(["spectral", "--scenario", str(scn), "--out", str(out)])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS demo.basis_orthonormality" in printed
    csv = (out / "demo_spectral.csv").read_text()
    assert csv.startswith("# scenario = demo")
    assert "# seed = 4" in csv
    summary = json.loads((out / "demo_spectral_summary.json").read_text())
    assert summary["pass"] is True
    assert {c["name"] for c in summary["checks"]} == {
        "basis_orthonormality",
        "pfaffian_positive",
    }


def test_reruns_are_byte_identical(tmp_path):
    scn = _write_spectral(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectral", "--scenario", str(scn), "--out", str(a)]) == EXIT_OK
    assert main(["spectral", "--scenario", str(scn), "--out", str(b)]) == EXIT_OK
    assert (a / "demo_spectral.csv").read_bytes() == (b / "demo_spectral.csv").read_bytes()
    assert (
        a / "demo_spectral_summary.json"
    ).read_bytes() == (b / "demo_spectral_summary.json").read_bytes()


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# every shipped scenario file but plancherel_deg21, the slow one (16 s); the
# subcommand is the name's first word, and the empty index runs as spectral
SHIPPED = [("spectral" if path.stem == "empty" else path.stem.split("_")[0], path.stem)
           for path in sorted(SCENARIOS.glob("*.scenario")) if path.stem != "plancherel_deg21"]


@pytest.mark.parametrize("sub, name", SHIPPED)
def test_shipped_scenarios_pass_and_rerun_byte_identical(tmp_path, sub, name):
    path = SCENARIOS / f"{name}.scenario"
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([sub, "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    # an empty index writes nothing, not even its directory
    files = sorted(p.name for p in a.iterdir()) if a.exists() else []
    assert files == sorted(f"{scn.name}_{sub}{tail}" for scn in load_scenarios(str(path))
                           for tail in (".csv", "_summary.json"))
    assert files == (sorted(p.name for p in b.iterdir()) if b.exists() else [])
    for fname in files:
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


DEG21_MODEL = "n = 2\nm = 1\nA_1 = 1,0 0,0 0,0 0,0\n"


def _modulated(model, omega, grid):
    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        rad = np.sum(np.abs(z) ** 2, axis=-1) + np.sum(x**2, axis=-1)
        return np.exp(-rad) * np.cos(x @ omega)

    return SampledFunction(model, ev, grid)


# function kind -> (model file, scenario keys, model, the function on a grid,
# the grid and the config's other keywords); the modulated gaussian on DEG21 has a live tau
# integral, at the benchmark's smoke size, and the banded function is a
# spectral form, whose lhs is closed
PLANCHEREL_KINDS = {
    "modulated": (DEG21_MODEL, "omega = 4\ndegree = 4\ntau_box = 6\ntau_nodes = 6\n"
                               "ebox = 4\nenodes = 16\nfbox = 4.5\nfnodes = 32\n"
                               "lam_lo = -10\nlam_hi = 10\nlam_count = 7\ntol_residual = 0.25\n",
                  QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], complex)),
                  lambda model, grid: _modulated(model, np.array([4.0]), grid),
                  GridSpec(ebox=4.0, enodes=16, fbox=4.5, fnodes=32),
                  dict(lam_lo=[-10.0], lam_hi=[10.0], lam_nodes=7, degree=4, tau_box=6.0,
                       tau_nodes=6)),
    "banded": (HEIS1_MODEL, "body = k.body\nprofile = b.profile\ndegree = 8\nfbox = 20\n"
                            "lam_lo = 0.8\nlam_hi = 2.2\nlam_count = 8\ntol_residual = 0.05\n",
               QuadraticModel(np.array([[[1.0]]], complex)),
               lambda model, grid: inverse_FN(
                   model, bump_profile(interval_body(1.0, 2.0), nodes=16), grid=grid),
               GridSpec(fbox=20.0),
               dict(lam_lo=[0.8], lam_hi=[2.2], lam_nodes=8, degree=8)),
}


@pytest.mark.parametrize("kind", sorted(PLANCHEREL_KINDS))
def test_plancherel_summary_matches_the_library(tmp_path, kind):
    # the same inputs built without the CLI give the same residual, bit for bit
    text, keys, model, build, grid, kw = PLANCHEREL_KINDS[kind]
    (tmp_path / "m.model").write_text(text)
    (tmp_path / "k.body").write_text("kind = interval\nlo = 1\nhi = 2\n")
    (tmp_path / "b.profile").write_text("shape = bump\nnodes = 16\n")
    scn = tmp_path / "p.scenario"
    scn.write_text(f"name = p\nmodel = m.model\nfunction = {kind}\n{keys}")
    assert main(["plancherel", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "p_plancherel_summary.json").read_text())
    rep = plancherel_residual(model, build(model, grid), PlancherelConfig(grid=grid, **kw))
    assert rep.rows and rep.skipped == 0
    assert summary["checks"][0]["value"] == rep.residual
    assert summary["warnings"] == list(rep.warnings)


def test_plancherel_keys_default_to_the_config_fields(tmp_path, monkeypatch):
    # a scenario without degree, tau_box or tau_nodes runs the config's defaults
    seen = []

    def spy(model, f, cfg):
        seen.append(cfg)
        return plancherel_residual(model, f, cfg)

    monkeypatch.setattr(cli, "plancherel_residual", spy)
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    scn = tmp_path / "p.scenario"
    scn.write_text("name = p\nmodel = m.model\nfunction = gaussian\nenodes = 12\n"
                   "lam_lo = 0.5\nlam_hi = 2\nlam_count = 2\ntol_residual = 1\n")
    assert main(["plancherel", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    (cfg,) = seen
    defaults = {field.name: field.default for field in dataclasses.fields(PlancherelConfig)}
    for name in ("degree", "tau_box", "tau_nodes"):
        assert getattr(cfg, name) == defaults[name]


def test_plancherel_summary_carries_the_warnings(tmp_path):
    # degree 24 on 24 zeta nodes does not resolve pi(f): both layers warn
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    scn = tmp_path / "p.scenario"
    scn.write_text(
        "name = coarse\nmodel = m.model\nfunction = gaussian\nseed = 0\ndegree = 24\n"
        "enodes = 24\nlam_lo = 0.2\nlam_hi = 4\nlam_count = 2\ntol_residual = 10\n"
    )
    heis1 = QuadraticModel(np.array([[[1.0]]], complex))
    grid = GridSpec(enodes=24)
    cfg = PlancherelConfig(lam_lo=[0.2], lam_hi=[4.0], lam_nodes=2, degree=24, grid=grid)
    rep = plancherel_residual(heis1, gaussian_function(heis1, grid), cfg)
    assert sum("captures" in w for w in rep.warnings) == 2
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["plancherel", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    summary = json.loads((a / "coarse_plancherel_summary.json").read_text())
    assert summary["warnings"] == list(rep.warnings)
    for name in ("coarse_plancherel.csv", "coarse_plancherel_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_crcheck_summary_carries_the_profile_warnings(tmp_path):
    # the shipped crcheck scenario on the negative half-line body: all 96
    # profile nodes lie outside heis1's positivity cone
    tree = tmp_path / "scenarios"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenarios", tree)
    text = (tree / "crcheck_heis1.scenario").read_text()
    assert "body = bodies/k12.body" in text
    scn = tree / "kneg.scenario"
    scn.write_text(text.replace("bodies/k12.body", "bodies/kneg.body"))
    main(["crcheck", "--scenario", str(scn), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "crcheck_heis1_crcheck_summary.json").read_text())
    want = [f"profile node {j} lies outside the closed positivity cone" for j in range(96)]
    assert summary["warnings"] == want


def test_windows_l2_error_matches_the_sampled_difference(tmp_path):
    # the CLI takes the closed-form norm of the difference form; the oracle
    # samples f - P f on a 160-node central rule of the scenario's box
    path = Path(__file__).resolve().parents[1] / "scenarios" / "windows_heis1.scenario"
    assert main(["windows", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "windows_heis1_windows.csv").read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    (scn,) = load_scenarios(str(path))
    model, body = scn.model(), scn.body()
    f = inverse_FN(model, scn.profile(body, key="profile"))
    grid = GridSpec(fbox=scn.flt("fbox"), fnodes=160)
    assert [float(r["eps"]) for r in rows] == [0.8, 0.4, 0.2, 0.1]
    for row in rows:
        eps, got = float(row["eps"]), float(row["l2_error"])
        proj = bandlimit_project(f, spectral_window(body, eps))
        if eps >= 0.2:
            diff = SampledFunction(model, lambda z, x, p=proj: f(z, x) - p(z, x), grid)
            want, tol = l2_norm(diff, grid), 1e-12
        else:
            # here the two O(1) sums of the sampled route cancel to 1e-9 and
            # it reads about 4e-10 relative off, so sample the difference form
            form = SpectralForm.ground(model, f.spectral.lambdas,
                                       f.spectral.amp - proj.spectral.amp)
            want, tol = l2_norm(SampledFunction(model, form, grid), grid), 1e-13
        assert abs(got - want) <= tol * want, (eps, got, want)


def test_seed_flag_overrides_scenario_seed(tmp_path):
    scn = _write_spectral(tmp_path)
    out = tmp_path / "out"
    assert main(["spectral", "--scenario", str(scn), "--out", str(out), "--seed", "99"]) == EXIT_OK
    assert "# seed = 99" in (out / "demo_spectral.csv").read_text()


def test_a_flag_reads_any_case(tmp_path):
    # control = True once skipped the control check without a word
    tree = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, tree)
    scn = tree / "crcheck_heis1.scenario"
    scn.write_text(scn.read_text().replace("\ncontrol = 1", "\ncontrol = True"))
    assert main(["crcheck", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "crcheck_heis1_crcheck_summary.json").read_text())
    assert "control_not_cr" in [c["name"] for c in summary["checks"]]


def test_flags_do_not_hide_the_seed_and_out_keys(tmp_path):
    # --seed and --out override the file's keys, which are still read and checked
    scn = _write_spectral(tmp_path, "out = elsewhere\n")
    argv = ["spectral", "--scenario", str(scn), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main(argv) == EXIT_OK
    scn.write_text(scn.read_text().replace("seed = 4", "seed = 4.5"))
    assert main(argv) == EXIT_PARSE


def test_parse_error_exit_code(tmp_path):
    scn = tmp_path / "bad.scenario"
    scn.write_text("this line has no equals sign\n")
    assert main(["spectral", "--scenario", str(scn)]) == EXIT_PARSE


WINDOWS_FILES = {
    "m.model": HEIS1_MODEL,
    "k.body": "kind = interval\nlo = 1\nhi = 2\n",
    "b.profile": "shape = bump\nnodes = 16\n",
    "w.scenario": "name = w\nmodel = m.model\nbody = k.body\nprofile = b.profile\n"
                  "eps = 0.4\nsamples = 20\n",
}

MALFORMED_NUMBERS = {
    "scenario-vector": ("spectral", "s.scenario", "lam_lo = -2", "lam_lo = abc"),
    "scenario-repeated-key": ("windows", "w.scenario", "eps = 0.4", "eps = big"),
    "body": ("windows", "k.body", "lo = 1", "lo = one"),
    "profile": ("windows", "b.profile", "nodes = 16", "nodes = many"),
    "profile-fraction": ("windows", "b.profile", "nodes = 16", "nodes = 9.5"),
    "scenario-integer": ("spectral", "s.scenario", "lam_count = 9", "lam_count = 2.5"),
    "scenario-infinite-integer": ("spectral", "s.scenario", "lam_count = 9", "lam_count = inf"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_a_malformed_number_is_a_parse_error(tmp_path, capsys, case):
    sub, name, good, bad = MALFORMED_NUMBERS[case]
    _write_spectral(tmp_path)
    for fname, text in WINDOWS_FILES.items():
        (tmp_path / fname).write_text(text)
    path = tmp_path / name
    assert good in path.read_text()
    path.write_text(path.read_text().replace(good, bad))
    scn = tmp_path / ("s.scenario" if sub == "spectral" else "w.scenario")
    assert main([sub, "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and bad.split(" = ")[0] in err


@pytest.mark.parametrize("lo, hi, count, need", [("-8", "8", 3, 4), ("0.2", "4", 1, 2)])
def test_plancherel_with_too_few_lambda_nodes_is_a_parse_error(tmp_path, capsys, lo, hi,
                                                               count, need):
    # two nodes per panel, and a range containing 0 is cut there into two
    heis1 = QuadraticModel(np.array([[[1.0]]], complex))
    cfg = PlancherelConfig(lam_lo=[float(lo)], lam_hi=[float(hi)], lam_nodes=count)
    with pytest.raises(ValueError, match=f"lam_nodes = {count} .* at least {need} nodes"):
        plancherel_residual(heis1, gaussian_function(heis1, GridSpec()), cfg)
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    scn = tmp_path / "p.scenario"
    scn.write_text(f"model = m.model\nfunction = gaussian\nlam_lo = {lo}\nlam_hi = {hi}\n"
                   f"lam_count = {count}\ntol_residual = 1\n")
    assert main(["plancherel", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(scn) in err and "lam_count" in err and f"at least {need} nodes" in err


# a shipped scenario with one value the library refuses: (subcommand,
# scenario, file edited, text, replacement, what the message says after the
# edited file's path)
REFUSED_VALUES = {
    "empty interval": ("windows", "windows_heis1", "bodies/k12.body", "lo = 1\nhi = 2",
                       "lo = 2\nhi = 1", "empty interval"),
    "zero window width": ("windows", "windows_heis1", "windows_heis1.scenario", "eps = 0.8",
                          "eps = 0.0", "eps: window width must be positive"),
    "route A lambda rule": ("extend", "extend_heis1", "extend_heis1.scenario", "order = 3",
                            "order = 3\nlam_nodes = 8", "lam_nodes, xbox: route A with 8"),
    "split a cone": ("split", "split_flat12", "split_flat12.scenario", "bodies/seg.body",
                     "bodies/halfline.body", "body: splitting needs a polytope"),
    # a count below its least value names its own key, not the handler's
    "negative degree": ("plancherel", "plancherel_heis1", "plancherel_heis1.scenario",
                        "degree = 12", "degree = -1", "key 'degree' must be at least 0, got -1"),
    "no points": ("extend", "extend_heis1", "extend_heis1.scenario", "points = 200",
                  "points = 0", "key 'points' must be at least 1, got 0"),
    "control spelled badly": ("crcheck", "crcheck_heis1", "crcheck_heis1.scenario",
                              "\ncontrol = 1", "\ncontrol = on",
                              "key 'control' is not true/false, yes/no or 1/0: 'on'"),
    "misspelled tolerance": ("crcheck", "crcheck_heis1", "crcheck_heis1.scenario",
                             "tol_mass = 1e-4", "tol_mas = 1e-4",
                             "no reader asks for 'tol_mas'"),
    # a flag's value is a usage error that names the flag; no file is edited
    "negative seed flag": ("spectral", "spectral_heis1", None, None, None,
                           "argument --seed: must be at least 0, got -1", "--seed", "-1"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_VALUES))
def test_a_value_the_library_refuses_is_a_parse_error(tmp_path, capsys, case):
    sub, name, edited, old, new, said, *flags = REFUSED_VALUES[case]
    tree = tmp_path / "scenarios"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenarios", tree)
    if edited is not None:
        text = (tree / edited).read_text()
        assert old in text
        (tree / edited).write_text(text.replace(old, new))
        said = f"{tree / edited}: {said}"
    scn = tree / f"{name}.scenario"
    argv = [sub, "--scenario", str(scn), "--out", str(tmp_path / "out"), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends a usage error itself
        code = exc.code
    assert code == EXIT_PARSE
    assert said in capsys.readouterr().err


@pytest.mark.parametrize("name", ["plancherel_heis1", "plancherel_deg21"])
def test_an_unread_key_is_refused_before_the_work(tmp_path, capsys, monkeypatch, name):
    # a misspelled key exits 2 before the handler computes anything: the
    # Plancherel pass, 16 s on plancherel_deg21, is never started
    def refused(*args):
        raise AssertionError("plancherel_residual ran before the keys were checked")

    monkeypatch.setattr(cli, "plancherel_residual", refused)
    tree = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, tree)
    scn = tree / f"{name}.scenario"
    text = scn.read_text()
    assert "degree = 12" in text
    scn.write_text(text.replace("degree = 12", "degre = 12"))
    argv = ["plancherel", "--scenario", str(scn), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_PARSE
    assert f"{scn}: no reader asks for 'degre'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_cone_the_constant_scan_cannot_cover_is_a_parse_error(tmp_path, capsys):
    tree = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, tree)
    (tree / "bodies" / "quadrant.body").write_text(
        "kind = cone\n" + "".join(f"generator = {' '.join(map(str, r))}\n" for r in np.eye(4)))
    scn = tree / "convex_quadrant.scenario"
    assert main(["convex", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert f"{scn}: cone: the direction scan covers m <= 3, not m = 4" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["windows", "extend", "crcheck"])
def test_a_profile_on_a_cone_body_is_a_parse_error(tmp_path, capsys, sub):
    # the half-line is a cone, and a profile lives on a polytope's box
    tree = tmp_path / "scenarios"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenarios", tree)
    scn = tree / f"{sub}_heis1.scenario"
    text = scn.read_text()
    assert "\nbody = bodies/k12.body" in text
    scn.write_text(text.replace("\nbody = bodies/k12.body", "\nbody = bodies/halfline.body"))
    assert main([sub, "--scenario", str(scn), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{tree / 'profiles' / 'bump.profile'}: a profile needs a polytope body, not a cone" in err


def test_missing_reference_exit_code(tmp_path):
    scn = tmp_path / "s.scenario"
    scn.write_text("model = ghost.model\nlam_lo = -1\nlam_hi = 1\n")
    assert main(["spectral", "--scenario", str(scn)]) == EXIT_MISSING


def test_unreachable_tolerance_fails_with_witness(tmp_path, capsys):
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    scn = tmp_path / "r.scenario"
    scn.write_text(
        "name = strict\nmodel = m.model\nlam = 1\ndegree = 8\n"
        "tol_spectrum = 1e-17\ntol_ground = 1e-8\n"
    )
    out = tmp_path / "out"
    rc = main(["rockland", "--scenario", str(scn), "--out", str(out)])
    assert rc == EXIT_TOLERANCE
    printed = capsys.readouterr().out
    assert "FAIL strict.spectrum_match" in printed
    summary = json.loads((out / "strict_rockland_summary.json").read_text())
    assert summary["pass"] is False
    failing = [c for c in summary["checks"] if not c["pass"]]
    assert failing and failing[0]["value"] > failing[0]["bound"]


def test_empty_scenario_list_is_a_pass(tmp_path, capsys):
    scn = tmp_path / "none.scenario"
    scn.write_text("# intentionally empty\n")
    assert main(["spectral", "--scenario", str(scn)]) == EXIT_OK
    assert "no scenarios" in capsys.readouterr().out


def test_batch_index_runs_every_entry(tmp_path, capsys):
    (tmp_path / "m.model").write_text(HEIS1_MODEL)
    for name in ("one", "two"):
        (tmp_path / f"{name}.scenario").write_text(
            f"name = {name}\nmodel = m.model\n"
            "lam_lo = -2\nlam_hi = 2\nlam_count = 5\ntol_basis = 1e-10\n"
        )
    idx = tmp_path / "idx.scenario"
    idx.write_text("scenario = one.scenario\nscenario = two.scenario\n")
    out = tmp_path / "out"
    assert main(["spectral", "--scenario", str(idx), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS one.basis_orthonormality" in printed
    assert "PASS two.basis_orthonormality" in printed
    assert (out / "one_spectral.csv").exists() and (out / "two_spectral.csv").exists()


def test_console_script_entry_point(tmp_path):
    scn = _write_spectral(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "quadric_cr.cli", "spectral",
         "--scenario", str(scn), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "PASS demo.basis_orthonormality" in proc.stdout
