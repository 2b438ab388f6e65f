import numpy as np
import pytest

from quadric_cr import configio as cio, quadrature
from quadric_cr.configio import ConfigError, MissingReferenceError, ParseError
from quadric_cr.transform import bump_profile


def test_kv_parsing_strips_comments_and_splits_on_first_equals(tmp_path):
    p = tmp_path / "a.conf"
    p.write_text("# top comment\nkey = a=b  # trailing\n\nother=  2 \n")
    kv = cio.parse_kv_file(str(p))
    assert kv.get("key") == "a=b"
    assert kv.get("other") == "2"
    assert kv.keys() == ["key", "other"]


def test_kv_bad_line_reports_position(tmp_path):
    p = tmp_path / "a.conf"
    p.write_text("fine = 1\nnot a pair\n")
    with pytest.raises(ParseError, match=r"a\.conf:2"):
        cio.parse_kv_file(str(p))


def test_kv_missing_file_is_its_own_error(tmp_path):
    with pytest.raises(MissingReferenceError):
        cio.parse_kv_file(str(tmp_path / "ghost.conf"))
    assert issubclass(MissingReferenceError, ConfigError)


def test_kv_duplicate_scalar_key_rejected(tmp_path):
    p = tmp_path / "a.conf"
    p.write_text("k = 1\nk = 2\n")
    kv = cio.parse_kv_file(str(p))
    with pytest.raises(ParseError, match="key 'k' given 2 times"):
        kv.get("k")
    assert kv.getall("k") == ["1", "2"]


def test_model_round_trip(tmp_path):
    p = tmp_path / "m.model"
    p.write_text("n = 2\nm = 1\nA_1 = 1,0 0,-0.5 0,0.5 2,0\n")
    model = cio.load_model(str(p))
    want = np.array([[1.0, -0.5j], [0.5j, 2.0]])
    assert np.allclose(model.A[0], want)


def test_model_reads_integers_as_numbers(tmp_path):
    # n and m go through the one number reader, like every other count
    p = tmp_path / "m.model"
    p.write_text("n = 1.0\nm = 1e0\nA_1 = 1,0\n")
    assert cio.load_model(str(p)).A.shape == (1, 1, 1)
    p.write_text("n = 1.5\nm = 1\nA_1 = 1,0\n")
    with pytest.raises(ParseError, match="key 'n' is not an integer"):
        cio.load_model(str(p))


@pytest.mark.parametrize(
    "name,text,extra",
    [
        ("m.model", "n = 1\nm = 1\nA_1 = 1,0\nA_2 = 2,0\n", "A_2"),
        ("b.body", "kind = interval\nlo = 1\nhi = 2\nvertex = 3\n", "vertex"),
        ("p.profile", "shape = bump\nnodes = 8\nsteepnes = 2\n", "steepnes"),
    ],
)
def test_loaders_refuse_keys_no_reader_asks_for(tmp_path, name, text, extra):
    (tmp_path / "k.body").write_text("kind = interval\nlo = 1\nhi = 2\n")
    p = tmp_path / name
    p.write_text(text)
    load = {
        "m.model": cio.load_model,
        "b.body": cio.load_body,
        "p.profile": lambda path: cio.load_profile(path, cio.load_body(str(tmp_path / "k.body"))),
    }[name]
    with pytest.raises(ParseError, match=f"{name}: no reader asks for '{extra}'"):
        load(str(p))


def test_kv_accessors(tmp_path):
    p = tmp_path / "a.conf"
    p.write_text("a = TRUE\nb = no\nc = 1\nd = True!\nx = 2.5\nn = 0\nv = 1, 2\n"
                 "row = 1 2\nrow = 3\n")
    kv = cio.parse_kv_file(str(p))
    assert [kv.flag(k) for k in "abc"] == [True, False, True]
    assert kv.flag("missing") is False
    with pytest.raises(ParseError, match="key 'd' is not true/false, yes/no or 1/0"):
        kv.flag("d")
    assert kv.integer("n") == 0 and kv.integer("gone", 7) == 7
    with pytest.raises(ParseError, match="key 'n' must be at least 1, got 0"):
        kv.count("n")
    assert kv.vec("v", 2).tolist() == [1.0, 2.0] and kv.vec("x", 3).tolist() == [2.5] * 3
    assert kv.rows("row") == [[1.0, 2.0], [3.0]] and kv.numbers("x") == [2.5]
    # given reads only what the file sets, so a library call keeps its own defaults
    assert kv.given(x="flt", n="integer", absent="flt") == {"x": 2.5, "n": 0}
    kv.refuse_unread()
    fresh = cio.parse_kv_file(str(p))
    fresh.given(x="flt", absent="flt")
    with pytest.raises(ParseError, match="no reader asks for 'a', 'b', 'c', 'd', 'n', 'v', 'row'"):
        fresh.refuse_unread()


def test_model_wrong_entry_count(tmp_path):
    p = tmp_path / "m.model"
    p.write_text("n = 2\nm = 1\nA_1 = 1,0 0,0\n")
    with pytest.raises(ParseError, match="A_1"):
        cio.load_model(str(p))


def test_model_non_hermitian_layer_rejected(tmp_path):
    p = tmp_path / "m.model"
    p.write_text("n = 1\nm = 1\nA_1 = 0,1\n")
    with pytest.raises(ParseError):
        cio.load_model(str(p))


@pytest.mark.parametrize(
    "text,kind,npts",
    [
        ("kind = interval\nlo = 1\nhi = 2\n", "polytope", 2),
        ("kind = box\nlo = 0 0\nhi = 1 2\n", "polytope", 4),
        ("kind = segment\na = 1 0\nb = 2 0\n", "polytope", 2),
        ("kind = polytope\nvertex = 1 0\nvertex = 2 1\n", "polytope", 2),
        ("kind = cone\ngenerator = 1 0\ngenerator = 0 1\n", "cone", 2),
    ],
)
def test_body_kinds(tmp_path, text, kind, npts):
    p = tmp_path / "b.body"
    p.write_text(text)
    body = cio.load_body(str(p))
    assert body.kind == kind
    assert body.points.shape[0] == npts


def test_body_unknown_kind(tmp_path):
    p = tmp_path / "b.body"
    p.write_text("kind = blob\n")
    with pytest.raises(ParseError, match="blob"):
        cio.load_body(str(p))


def test_profile_stays_inside_body(tmp_path):
    pb = tmp_path / "b.body"
    pb.write_text("kind = interval\nlo = 1\nhi = 2\n")
    pp = tmp_path / "p.profile"
    pp.write_text("shape = bump\nnodes = 32\n")
    body = cio.load_body(str(pb))
    prof = cio.load_profile(str(pp), body)
    assert prof.lambdas.min() > 1.0 and prof.lambdas.max() < 2.0
    assert prof.values.max() > 0.1


def test_profile_builds_its_rule_once(tmp_path, monkeypatch):
    # the scaled profile reuses the bump's own nodes and weights: one
    # reference rule of the body's node count, solved once for all its axes
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(num):
        built.append(int(num))
        return leggauss(num)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    (tmp_path / "k.body").write_text("kind = interval\nlo = 1\nhi = 2\n")
    (tmp_path / "b.body").write_text("kind = box\nlo = 0 1\nhi = 1 3\n")
    (tmp_path / "p.profile").write_text("shape = bump\nnodes = 12\nscale = 2.5\n")
    for name in ("k.body", "b.body"):
        quadrature._reference_rule.cache_clear()
        built.clear()
        body = cio.load_body(str(tmp_path / name))
        prof = cio.load_profile(str(tmp_path / "p.profile"), body)
        assert built == [12]
        bump = bump_profile(body, nodes=12)
        assert np.array_equal(prof.lambdas, bump.lambdas)
        assert np.array_equal(prof.weights, bump.weights)
        assert np.array_equal(prof.values, 2.5 * bump.values)
        assert np.array_equal(prof.psi(prof.lambdas), prof.values)


def test_scenario_name_and_tolerance_validation(tmp_path):
    p = tmp_path / "s.scenario"
    p.write_text("name = custom\nseed = 3\ntol_x = 1e-6\n")
    scn = cio.Scenario(str(p))
    assert scn.name == "custom"
    assert scn.integer("seed", 0) == 3
    q = tmp_path / "bad.scenario"
    q.write_text("tol_y = -1\n")
    with pytest.raises(ParseError, match="tol_y"):
        cio.Scenario(str(q))
    # the positivity check reads every tolerance; only a check's read counts
    with pytest.raises(ParseError, match="no reader asks for 'tol_x'"):
        scn.refuse_unread()


def test_scenario_missing_reference(tmp_path):
    p = tmp_path / "s.scenario"
    p.write_text("model = nowhere.model\n")
    scn = cio.Scenario(str(p))
    with pytest.raises(MissingReferenceError, match="nowhere"):
        scn.model()


def test_scenario_index_and_empty_list(tmp_path):
    a = tmp_path / "a.scenario"
    a.write_text("name = a\n")
    idx = tmp_path / "idx.scenario"
    idx.write_text(f"scenario = a.scenario\nscenario = a.scenario\n")
    out = cio.load_scenarios(str(idx))
    assert [s.name for s in out] == ["a", "a"]
    empty = tmp_path / "none.scenario"
    empty.write_text("# nothing here\n")
    assert cio.load_scenarios(str(empty)) == []
    broken = tmp_path / "broken.scenario"
    broken.write_text("scenario = ghost.scenario\n")
    with pytest.raises(MissingReferenceError):
        cio.load_scenarios(str(broken))
    # an index holds scenario= lines and nothing else
    idx.write_text("scenario = a.scenario\nseed = 3\n")
    with pytest.raises(ParseError, match="no reader asks for 'seed'"):
        cio.load_scenarios(str(idx))


def test_csv_formatting_is_full_precision(tmp_path):
    p = tmp_path / "t.csv"
    cio.write_csv(
        str(p),
        ["a", "b", "c"],
        [(0.1, True, 1 + 2j), (3, False, 0.25)],
        meta={"seed": 7},
    )
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# seed = 7"
    assert lines[1] == "a,b,c"
    assert lines[2].startswith("0.10000000000000001,true,")
    assert cio.fmt17(float(cio.fmt17(1.0 / 3.0))) == cio.fmt17(1.0 / 3.0)


def test_json_is_sorted_and_newline_terminated(tmp_path):
    p = tmp_path / "t.json"
    cio.write_json(str(p), {"b": 1, "a": [1, 2]})
    text = p.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
