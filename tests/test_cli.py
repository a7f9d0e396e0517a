import contextlib
import dataclasses
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elacomplex import cli
from elacomplex import fa_toolbox as fa
from elacomplex.elasticity_assembly import AssemblyError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify-identities --------------------------------------------------------


def test_verify_identities_json_lines(capsys):
    code, out, err = run_cli(capsys, "verify-identities", "--trials", "2", "--seed", "1")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["command"] == "verify-identities"
    assert header["tolerances"] == {"identity": 0.0}
    cases = [json.loads(line) for line in lines[1:]]
    assert len(cases) == 28
    assert all(c["passed"] for c in cases)
    assert all(c["trials"] == 2 and c["seed"] == 1 for c in cases)


def test_verify_identities_only_selection(capsys):
    code, out, _ = run_cli(
        capsys, "verify-identities", "--only", "ELA-A12,ELA-SCHWARZ", "--trials", "2"
    )
    assert code == 0
    cases = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert [c["id"] for c in cases] == ["ELA-A12", "ELA-SCHWARZ"]


def test_verify_identities_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify-identities", "--only", "NOPE")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "only", ["", ",", " ", " , ", "ELA-A01,ELA-A01", "ELA-A01, ELA-A12,ELA-A01"]
)
def test_verify_identities_empty_or_repeated_only(capsys, tmp_path, only):
    code, out, err = run_cli(capsys, "verify-identities", "--only", only)
    assert code == 2 and out == ""
    assert "config error" in err
    path = tmp_path / "only.json"
    path.write_text(json.dumps({"only": only}))
    code, out, err = run_cli(capsys, "verify-identities", "--config", str(path))
    assert code == 2 and out == ""
    assert "config error" in err


def test_verify_identities_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify-identities", "--only", "ELA-A01", "--trials", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,passed,trials,degree,seed,mutated"
    assert lines[1].startswith("ELA-A01,True,2,")


# --- complex -------------------------------------------------------------------


def test_complex_report_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "complex", "--p", "4", "--gt", "X0", "--trials", "3")
    code2, out2, _ = run_cli(capsys, "complex", "--p", "4", "--gt", "X0", "--trials", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports for equal config
    report = json.loads(out1)
    res = report["results"]
    assert res["rational_composition_zero"] is True
    assert max(res["composition_norms"]) <= 1e-12
    assert res["kernel_dims"][0] == 0
    assert res["helmholtz_max_residual"] <= 1e-10


def test_complex_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "complex", "--p", "4", "--gt", "all", "--trials", "1",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["results"]["gt"] == "all"


def test_complex_assembly_error_is_a_verification_failure(monkeypatch, capsys):
    def failing_build(p, gt):
        raise AssemblyError("exact selection failed")

    monkeypatch.setattr(cli, "build_complex", failing_build)
    code, out, err = run_cli(capsys, "complex", "--p", "4", "--gt", "X0")
    assert code == 1 and out == ""
    assert "verification failure" in err


def test_complex_degree_too_low(capsys):
    code, _, err = run_cli(capsys, "complex", "--p", "3")
    assert code == 2
    assert "config error" in err


def test_complex_bad_face_name(capsys):
    code, _, err = run_cli(capsys, "complex", "--p", "4", "--gt", "Q7")
    assert code == 2
    assert "config error" in err


# --- helmholtz / poincare / korn ------------------------------------------------


def test_helmholtz_samples(capsys):
    code, out, _ = run_cli(
        capsys, "helmholtz", "--p", "4", "--gt", "none", "--trials", "2",
        "--seed", "9",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert len(res["samples"]) == 2
    assert res["max_residual"] <= 1e-10
    assert res["max_pairing"] <= 1e-10


def test_helmholtz_zero_trials(capsys):
    code, out, err = run_cli(
        capsys, "helmholtz", "--p", "4", "--gt", "all", "--trials", "0"
    )
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["samples"] == []
    assert res["max_residual"] == 0.0 and res["max_pairing"] == 0.0


def test_helmholtz_random_weights(capsys):
    code1, out1, _ = run_cli(
        capsys, "helmholtz", "--p", "4", "--gt", "X0", "--trials", "2",
        "--weights", "random", "--seed", "3",
    )
    code2, out2, _ = run_cli(
        capsys, "helmholtz", "--p", "4", "--gt", "X0", "--trials", "2",
        "--weights", "random", "--seed", "3",
    )
    assert code1 == code2 == 0
    assert out1 == out2  # seeded weights keep the report deterministic


def test_poincare_constants(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--p", "4", "--gt", "X0")
    assert code == 0
    res = json.loads(out)["results"]
    labels = [c["label"] for c in res["constants"]]
    assert labels == ["c0", "c1", "c2"]
    for c in res["constants"]:
        assert c["constant"] > 0
        assert c["sharpness_residual"] <= 1e-10


def test_korn_csv(capsys):
    code, out, _ = run_cli(capsys, "korn", "--p", "4", "--gt", "none", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert float(rows["constant"]) >= 1.0
    assert rows["restricted_to_rm_complement"] == "True"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("target", ["missing/dir/report.json", "."])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, target, fmt):
    out_path = tmp_path / target
    code, out, err = run_cli(
        capsys, "korn", "--p", "2", "--format", fmt, "--out", str(out_path)
    )
    assert code == 2 and out == ""
    assert "config error: cannot write report" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


# --- fixtures -------------------------------------------------------------------


def test_fixture_builtin_solid_box(capsys):
    code, out, _ = run_cli(capsys, "fixture", "--fixture", "solid_box", "--trials", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["betti"] == [1, 0, 0, 0]


def test_fixture_builtin_torus(capsys):
    code, out, _ = run_cli(capsys, "fixture", "--fixture", "torus", "--trials", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["betti"] == [1, 1, 0, 0]


def test_fixture_reads_betti_numbers_without_a_kernel_basis(capsys, monkeypatch):
    calls = []
    kernel_basis = fa.kernel_basis
    monkeypatch.setattr(
        fa, "kernel_basis", lambda *a, **k: calls.append(a) or kernel_basis(*a, **k)
    )
    code, out, _ = run_cli(capsys, "fixture", "--fixture", "torus", "--trials", "2")
    assert code == 0 and json.loads(out)["results"]["betti"] == [1, 1, 0, 0]
    assert calls == []


def _solid_box_data():
    text = (
        resources.files("elacomplex") / "fixtures" / "solid_box.json"
    ).read_text()
    return json.loads(text)


def test_fixture_from_path(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(_solid_box_data()))
    code, out, _ = run_cli(capsys, "fixture", "--fixture", str(path), "--trials", "1")
    assert code == 0
    assert json.loads(out)["results"]["betti"] == [1, 0, 0, 0]


def test_fixture_violating_complex_property_fails(tmp_path, capsys):
    data = _solid_box_data()
    data["operators"][1][0][0] += 1.0  # now A1 @ A0 has a nonzero entry
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 1
    assert "verification failure" in err
    assert "complex property" in err


def test_fixture_missing_field(tmp_path, capsys):
    data = _solid_box_data()
    del data["operators"]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "data",
    [[1, 2], "box"],
    ids=["list", "string"],
)
def test_fixture_malformed_document(tmp_path, capsys, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error: invalid fixture" in err


def test_fixture_operators_not_numbers(tmp_path, capsys):
    data = _solid_box_data()
    data["operators"] = "ab"
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error: invalid fixture" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"dims": [2, 1], "grams": [[[1, 0], [0, 1]], [[1]]],'
        ' "operators": [[[NaN, 1.0]]]}',
        '{"dims": [2, 1], "grams": [[[1, 0], [0, Infinity]], [[1]]],'
        ' "operators": [[[1.0, 1.0]]]}',
    ],
    ids=["nan_operator", "infinite_gram"],
)
def test_fixture_non_finite_entry(tmp_path, capsys, text):
    path = tmp_path / "non_finite.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error: invalid fixture" in err
    assert "Traceback" not in err


_FIXTURE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(width=32),
    st.text(max_size=2),
)
_FIXTURE_JSON = st.recursive(
    _FIXTURE_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["dims", "grams", "operators"]), inner, max_size=3
        ),
    ),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fixture_fuzz_never_crashes(data):
    base = _solid_box_data()
    # a boolean per key picks the solid-box entry or a fuzzed one; a
    # strategy that held the entries (st.just) would carry their 45 kB repr
    if data.draw(st.booleans()):
        doc = data.draw(_FIXTURE_JSON)
    else:
        doc = {
            key: base[key] if data.draw(st.booleans()) else data.draw(_FIXTURE_JSON)
            for key in base
        }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fixture", "--fixture", str(path), "--trials", "1"])
    assert code in (0, 1, 2)
    if code == 2:
        assert "config error" in err.getvalue()


def test_fixture_path_is_a_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(tmp_path))
    assert code == 2
    assert "config error" in err


def test_fixture_gram_shape_mismatch(tmp_path, capsys):
    data = _solid_box_data()
    data["dims"][0] += 1
    path = tmp_path / "misshapen.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "resize", [lambda d: [], lambda d: d[:1], lambda d: d + [1]],
    ids=["empty", "short", "long"],
)
def test_fixture_dims_length_mismatch(tmp_path, capsys, resize):
    data = _solid_box_data()
    data["dims"] = resize(data["dims"])
    path = tmp_path / "misnumbered.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error: invalid fixture: gram shape disagrees with dims" in err


def test_fixture_not_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "fixture", "--fixture", str(path))
    assert code == 2
    assert "config error" in err


def test_fixture_missing_path(capsys):
    code, _, err = run_cli(capsys, "fixture", "--fixture", "/nonexistent/f.json")
    assert code == 2
    assert "config error" in err


def test_fixture_flag_required(capsys):
    code, _, err = run_cli(capsys, "fixture")
    assert code == 2
    assert "config error" in err


# --- configuration files ---------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 4, "gt": "X0", "trials": 1, "seed": 2}))
    code, out, _ = run_cli(capsys, "helmholtz", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["results"]["gt"] == "X0"
    code, out, _ = run_cli(capsys, "helmholtz", "--config", str(cfg), "--gt", "all")
    assert code == 0
    assert json.loads(out)["results"]["gt"] == "all"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 4, "mystery": True}))
    code, _, err = run_cli(capsys, "helmholtz", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{,}")
    code, _, err = run_cli(capsys, "helmholtz", "--config", str(cfg))
    assert code == 2
    assert "config error" in err


def test_config_rejects_bad_values(capsys):
    code, _, err = run_cli(capsys, "helmholtz", "--p", "4", "--tol-rank", "-1")
    assert code == 2
    assert "config error" in err
    code, _, err = run_cli(capsys, "helmholtz", "--p", "4", "--weights", "spooky")
    assert code == 2
    assert "weights must be" in err


_BAD_TOLERANCES = [
    ("tol", "nan"),
    ("tol", "inf"),
    ("tol", "-inf"),
    ("tol", "0"),
    ("tol", "-1"),
    ("tol_rank", "nan"),
    ("tol_rank", "inf"),
    ("tol_rank", "0"),
]


@pytest.mark.parametrize("command", ["helmholtz", "complex"])
@pytest.mark.parametrize("name,value", _BAD_TOLERANCES)
def test_bad_tolerance_flag_is_a_config_error(tmp_path, capsys, command, name, value):
    out = tmp_path / "report.json"
    flag = name.replace("_", "-")
    code, _, err = run_cli(
        capsys, command, "--p", "4", "--gt", "all", "--%s=%s" % (flag, value),
        "--out", str(out),
    )
    assert code == 2
    assert "config error: %s must be positive and finite" % flag in err
    assert not out.exists()


@pytest.mark.parametrize("name,value", _BAD_TOLERANCES)
def test_bad_tolerance_in_config_file_is_a_config_error(tmp_path, capsys, name, value):
    # Python's json reads (and writes) NaN, Infinity and -Infinity
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"p": 4, "gt": "all", name: float(value)}))
    code, out, err = run_cli(capsys, "helmholtz", "--config", str(path))
    assert code == 2
    assert "config error" in err
    assert out == ""


@pytest.mark.parametrize(
    "command,config",
    [
        ("korn", {"tol": "abc"}),
        ("korn", {"tol_rank": "x"}),
        ("korn", {"gt": 5}),
        ("korn", {"weights": ["a"]}),
        ("verify-identities", {"only": 5}),
    ],
)
def test_config_value_of_wrong_type(tmp_path, capsys, command, config):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2
    assert "config error" in err


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _accepts(field, value):
    """Whether `value` has a type the RunConfig field admits."""
    if value is None:
        return field.default is None
    if isinstance(value, bool):
        return False
    if field.type is float:
        return isinstance(value, (int, float))
    return isinstance(value, field.type)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_fuzz_wrong_types_exit_2(data):
    field = data.draw(st.sampled_from(dataclasses.fields(cli.RunConfig)))
    value = data.draw(_JSON_VALUES.filter(lambda v: not _accepts(field, v)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps({field.name: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["korn", "--config", str(path)])
    assert code == 2
    assert "config error" in err.getvalue()
    assert "Traceback" not in err.getvalue()
