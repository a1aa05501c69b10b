"""Command line coverage: every verb, plus error paths and determinism."""

import argparse
import builtins
import hashlib
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylkit import flagdyn
from weylkit.cli import build_parser, main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thickenings_count(capsys):
    code, out = run(capsys, "thickenings", "count", "--type", "A3")
    assert code == 0 and out.strip() == "10"


def test_thickenings_enumerate(capsys):
    code, out = run(capsys, "thickenings", "enumerate", "--type", "B2")
    data = json.loads(out)
    assert code == 0 and len(data) == 2
    assert all(sorted(d["members"]) == d["members"] for d in data)


def test_thickenings_count_refuses_b4_under_default_cap(capsys):
    code, out = run(capsys, "thickenings", "count", "--type", "B4")
    assert code == 1
    assert json.loads(out) == {
        "error": "GroupTooLarge",
        "message": "balanced count exceeded 100000 states",
        "argv": ["thickenings", "count", "--type", "B4"]}


def test_thickenings_check(capsys):
    code, out = run(capsys, "thickenings", "check", "--type", "A2",
                    "--members", '["123", "213", "132"]')
    data = json.loads(out)
    assert code == 0
    assert data["ideal"] and data["balanced"]


def test_coxeter_poset_highlight(capsys):
    code, out = run(capsys, "coxeter", "poset", "--type", "A2",
                    "--highlight", "balanced:0")
    assert code == 0
    assert out.count("doublecircle") == 3
    assert out.count("->") == 8


def test_coxeter_order_export(capsys):
    code, out = run(capsys, "coxeter", "order", "--type", "B2")
    data = json.loads(out)
    assert code == 0 and len(data["labels"]) == 8


def test_dist_verbs(capsys, tmp_path):
    x = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    y = np.diag([np.e ** 2, 1.0, np.e ** -2]).tolist()
    xf = tmp_path / "x.json"
    yf = tmp_path / "y.json"
    xf.write_text(json.dumps(x))
    yf.write_text(json.dumps(y))
    code, out = run(capsys, "dist", "riemannian", "--x", f"@{xf}", "--y", f"@{yf}")
    assert code == 0
    assert abs(json.loads(out)["riemannian"] - 2 * np.sqrt(2)) < 1e-10
    code, out = run(capsys, "dist", "delta", "--x", f"@{xf}", "--y", f"@{yf}")
    assert np.allclose(json.loads(out)["delta"], [1, 0, -1])
    code, out = run(capsys, "dist", "finsler", "--x", f"@{xf}", "--y", f"@{yf}")
    assert abs(json.loads(out)["finsler"] - 4.0) < 1e-10


def test_seq_regularity(capsys):
    gens = [np.diag([2.0 ** k, 1.0, 2.0 ** -k]).tolist() for k in (1, 2, 3)]
    code, out = run(capsys, "seq", "regularity", "--gens", json.dumps(gens))
    data = json.loads(out)
    assert code == 0 and data["regular_trend"]


def test_horo_estimate(capsys):
    eye = json.dumps(np.eye(3).tolist())
    code, out = run(capsys, "horo", "estimate", "--p", eye, "--x", eye,
                    "--direction", "1,0,-1", "--t", "5,10,20,40")
    data = json.loads(out)
    assert code == 0 and data["converged"]


def test_flags_position_exact_and_float(capsys):
    a = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = json.dumps([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    code, out = run(capsys, "flags", "position", "--a", a, "--b", b)
    data = json.loads(out)
    assert code == 0 and data["position"] == "321" and data["exact"]
    af = json.dumps([[1.0, 0.2, 0], [0, 1.0, 0], [0.3, 0, 1.0]])
    bf = json.dumps([[0.9, 0, 0.4], [0.1, 1.0, 0], [0, 0, 1.0]])
    code, out = run(capsys, "flags", "position", "--a", af, "--b", bf)
    data = json.loads(out)
    assert code == 0 and not data["exact"]


def test_flags_antipodal(capsys):
    a = json.dumps(np.eye(3).tolist())
    b = json.dumps(np.eye(3)[:, ::-1].tolist())
    code, out = run(capsys, "flags", "antipodal", "--a", a, "--b", b)
    assert json.loads(out)["antipodal"] is True


def test_limits_and_domain(capsys, tmp_path):
    g = np.diag([4.0, 1.0, 0.25]).tolist()
    code, out = run(capsys, "limits", "sample", "--gens", json.dumps([g]),
                    "--max-len", "3", "--margin", "1.0")
    assert code == 0
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(out)
    flag = json.dumps(np.eye(3)[:, ::-1].tolist())  # opposite flag
    code, out = run(capsys, "domain", "membership", "--flag", flag,
                    "--sample", str(sample_file),
                    "--thickening", "balanced:0")
    data = json.loads(out)
    assert code == 0
    # the opposite flag IS a limit flag here (repelling), so not in domain
    assert data["in_thickened_limit_set"] is True
    generic = json.dumps([[1.0, 0.2, 0.3], [0.4, 1.0, 0.5], [0.6, 0.7, 1.0]])
    code, out = run(capsys, "domain", "membership", "--flag", generic,
                    "--sample", str(sample_file),
                    "--thickening", "balanced:0")
    data = json.loads(out)
    assert data["in_domain"] is True


def test_expand_factor(capsys):
    g = json.dumps(np.eye(3).tolist())
    f = json.dumps(np.eye(3).tolist())
    code, out = run(capsys, "expand", "factor", "--gen", g, "--flag", f)
    assert code == 0
    assert abs(json.loads(out)["expansion"] - 1.0) < 1e-6


def test_discreteness_probe(capsys):
    e12 = np.eye(3)
    e12[0, 1] = 1.0
    code, out = run(capsys, "discreteness", "probe",
                    "--gens", json.dumps([e12.tolist()]),
                    "--epsilon", "0.1", "--max-len", "6")
    data = json.loads(out)
    assert code == 0 and data["nondiscrete_certificate"] is None


def test_morse_straightness(capsys):
    pts = [np.diag([np.exp(v), 1.0, np.exp(-v)]).tolist() for v in (0.0, 4.0, 8.0)]
    code, out = run(capsys, "morse", "straightness", "--path", json.dumps(pts),
                    "--epsilon", "0.2", "--s", "5.0", "--margin", "0.3")
    data = json.loads(out)
    assert code == 0 and data["pass"] is True


def test_morse_defect(capsys):
    pts = [np.diag([np.exp(v), 1.0, np.exp(-v)]).tolist()
           for v in np.linspace(0, 5, 8)]
    code, out = run(capsys, "morse", "defect", "--path", json.dumps(pts),
                    "--B", "2.0")
    data = json.loads(out)
    assert code == 0
    assert max(data["window_defects"]) < 1e-9


def test_morse_schottky(capsys):
    g1 = np.diag([4.0, 1.0, 0.25])
    c, s = np.cos(0.8), np.sin(0.8)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    cx, sx = np.cos(0.5), np.sin(0.5)
    rx = np.array([[1.0, 0, 0], [0, cx, -sx], [0, sx, cx]])
    cz, sz = np.cos(0.3), np.sin(0.3)
    rz2 = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
    h = rz @ rx @ rz2
    g2 = h @ g1 @ h.T
    gens = json.dumps([g1.tolist(), g2.tolist()])
    code, out = run(capsys, "morse", "schottky", "--gens", gens, "--N", "6")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True and len(data["triples"]) == 36


def test_config_verbs(capsys):
    cfg = json.dumps({"angles": ["0", "1", "2"], "weights": [1, 1, 1]})
    code, out = run(capsys, "config", "stability", "--config", cfg)
    data = json.loads(out)
    assert code == 0 and data["stable"] and data["semistable"]
    cfg2 = json.dumps({"angles": ["0", "1", "2"], "weights": [1, 1, 1]})
    code, out = run(capsys, "config", "relpos", "--a", cfg, "--b", cfg2)
    assert json.loads(out)["relpos"] == [1, 1, 1]
    code, out = run(capsys, "config", "walls", "--weights", "2,1,1,1")
    data = json.loads(out)
    assert data["in_open_chamber"] is True


@pytest.mark.parametrize("config,shown", [
    ('{"angles": [0.5], "weights": [NaN]}', "nan"),
    ('{"angles": [0.5], "weights": [Infinity]}', "inf"),
    ('{"angles": [0.5, 1.0], "weights": [1, -Infinity]}', "-inf")])
def test_config_stability_refuses_weights_that_are_not_finite(capsys, config,
                                                              shown):
    argv = ("config", "stability", "--config", config)
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "ValueError", "argv": list(argv),
        "message": f"weights must be positive and finite, got {shown}"}


def test_expand_factor_refuses_the_line(capsys):
    argv = ("expand", "factor", "--gen", "[[2]]", "--flag", "[[1]]")
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "ValueError", "argv": list(argv),
        "message": "the flag manifold of R^1 is a point: "
                   "it has no expansion factor"}


def test_error_paths(capsys):
    code, out = run(capsys, "thickenings", "count", "--type", "E8")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "UnsupportedType"
    code, out = run(capsys, "dist", "delta", "--x", "[[not json", "--y", "[[1]]")
    assert code == 1
    assert "error" in json.loads(out)
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_more_generators_than_letters(capsys):
    # words are labelled a..z, so a 27th generator is refused up front
    g = np.diag([4.0, 1.0, 0.25])
    gens = []
    for k in range(27):
        c, s = np.cos(0.1 * k), np.sin(0.1 * k)
        h = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        gens.append((h @ g @ h.T).tolist())
    code, out = run(capsys, "limits", "sample", "--gens", json.dumps(gens),
                    "--max-len", "1")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError" and "26" in data["message"]


@pytest.mark.parametrize("gens,shapes", [
    ([np.eye(3), np.eye(2)], "(3, 3), (2, 2)"),
    ([np.ones((2, 3))], "(2, 3)"),
], ids=["two-sizes", "not-square"])
def test_bad_generators_are_refused(capsys, gens, shapes):
    code, out = run(capsys, "limits", "sample", "--gens",
                    json.dumps([g.tolist() for g in gens]), "--max-len", "2")
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"
    assert json.loads(out)["message"] == (
        f"generators must be square matrices of one size, got shapes {shapes}")


def test_schottky_refuses_generators_of_two_sizes(capsys):
    # checked before the axis flags, whose positions cannot be compared
    gens = [np.diag([4.0, 1.0, 0.25]).tolist(), np.diag([2.0, 0.5]).tolist()]
    code, out = run(capsys, "morse", "schottky", "--gens", json.dumps(gens),
                    "--N", "4")
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"
    assert json.loads(out)["message"] == (
        "generators must be square matrices of one size, "
        "got shapes (3, 3), (2, 2)")


@pytest.mark.parametrize("argv", [
    ("limits", "sample", "--gens", "[[[1,0],[0,1,2]]]", "--max-len", "2"),
    ("flags", "antipodal", "--a", "[[1,0],[0,1,2]]", "--b", "[[1,0],[0,1]]"),
], ids=["limits-sample", "flags-antipodal"])
def test_ragged_matrix_is_refused(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError"
    assert data["message"] == "matrix rows differ in length: [2, 3]"


def test_seq_regularity_refuses_generators_of_two_sizes(capsys):
    code, out = run(capsys, "seq", "regularity", "--gens",
                    "[[[1,0],[0,2]],[[1,0,0],[0,1,0],[0,0,1]]]")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError"
    assert data["message"] == ("generators must be square matrices of one "
                               "size, got shapes (2, 2), (3, 3)")


def test_limits_sample_refuses_a_nan_margin(capsys):
    code, out = run(capsys, "limits", "sample", "--gens",
                    "[[[4,0,0],[0,1,0],[0,0,0.25]]]", "--max-len", "2",
                    "--margin", "nan")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError"
    assert data["message"] == (
        "margin_threshold must be a finite number, got nan")


@pytest.mark.parametrize("argv,message", [
    (("thickenings", "check", "--type", "A2", "--members", '["x1"]'),
     "label 'x1' names no element of A2"),
    (("thickenings", "check", "--type", "A2", "--members", '["z"]'),
     "label 'z' names no element of A2"),
    (("coxeter", "poset", "--type", "A1^2", "--highlight", '["+++"]'),
     "sign vector of length 3 for A1^2 of rank 2"),
    (("coxeter", "poset", "--type", "A1^2", "--highlight", '["+"]'),
     "sign vector of length 1 for A1^2 of rank 2"),
], ids=["x1", "z", "+++", "+"])
def test_labels_naming_no_element_are_refused(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message,
                               "argv": list(argv)}


@pytest.mark.parametrize("argv,message", [
    (("thickenings", "check", "--type", "A2", "--members", "[213]"),
     "member 213 is not a label string"),
    (("thickenings", "check", "--type", "A2", "--members", '"123"'),
     'members must be a JSON list of labels, not "123"'),
    (("thickenings", "check", "--type", "A2", "--members",
      '{"type": "A2", "members": ["123", null]}'),
     "member null is not a label string"),
    (("thickenings", "check", "--type", "A2", "--members",
      '{"type": "A2", "members": "123"}'),
     'members must be a JSON list of labels, not "123"'),
    (("thickenings", "check", "--type", "A2", "--members",
      '{"type": "B2", "members": ["e"]}'),
     'thickening of type "B2" given for A2'),
    (("thickenings", "check", "--type", "A2", "--members",
      '{"type": 2, "members": ["e"]}'),
     "thickening of type 2 given for A2"),
    (("coxeter", "poset", "--type", "A2", "--highlight", "[213]"),
     "member 213 is not a label string"),
    (("coxeter", "poset", "--type", "A2", "--highlight", '[["123"]]'),
     'member ["123"] is not a label string'),
    (("coxeter", "poset", "--type", "A2", "--highlight", "7"),
     "members must be a JSON list of labels, not 7"),
], ids=["number", "bare-string", "dict-null", "dict-bare-string",
        "dict-other-type", "dict-type-number", "highlight-number",
        "highlight-nested", "highlight-scalar"])
def test_members_that_are_not_label_strings_are_refused(capsys, argv,
                                                         message):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message,
                               "argv": list(argv)}


@pytest.mark.parametrize("members,message", [
    ('{"type": "A2"}', 'a thickening needs a "members" key'),
    ('{"members": ["e"]}', 'a thickening needs a "type" key'),
], ids=["no-members", "no-type"])
def test_thickening_dict_without_a_key_is_refused(capsys, members, message):
    argv = ("thickenings", "check", "--type", "A2", "--members", members)
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message,
                               "argv": list(argv)}


def test_thickening_dict_of_an_equal_type_is_read(capsys):
    code, out = run(capsys, "thickenings", "check", "--type", "A1^2",
                    "--members", '{"type": "A1xA1", "members": ["-+"]}')
    assert code == 0
    assert json.loads(out)["members"] == ["-+"]


@pytest.mark.parametrize("option,value,message", [
    ("--epsilon", "-1", "epsilon must be positive and finite, got -1.0"),
    ("--epsilon", "0", "epsilon must be positive and finite, got 0.0"),
    ("--epsilon", "inf", "epsilon must be positive and finite, got inf"),
    ("--epsilon", "nan", "epsilon must be positive and finite, got nan"),
    ("--max-len", "-2", "max_len must be an integer >= 0, got -2"),
], ids=["epsilon-negative", "epsilon-zero", "epsilon-inf", "epsilon-nan",
        "max-len-negative"])
def test_discreteness_probe_refuses_bad_configuration(capsys, option, value,
                                                      message):
    argv = ["discreteness", "probe", "--gens",
            json.dumps([np.eye(3).tolist()]), option, value]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message,
                               "argv": argv}


def test_negative_balanced_index_is_refused(capsys):
    code, out = run(capsys, "coxeter", "poset", "--type", "A3",
                    "--highlight", "balanced:-1")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "WeylkitError"
    assert data["message"] == "only 10 balanced thickenings exist"


@pytest.mark.parametrize("verb,inputs", [
    (["seq", "regularity", "--gens"], [np.diag([4.0, 1.0, 0.25])]),
    (["morse", "defect", "--path"],
     [np.diag(np.exp([2.0 * t, 0.0, -2.0 * t])) for t in range(4)]),
], ids=["seq-regularity", "morse-defect"])
def test_zero_margin_is_refused(capsys, verb, inputs):
    data = json.dumps([m.tolist() for m in inputs])
    code, out = run(capsys, *verb, data, "--margin", "0")
    assert code == 1
    assert json.loads(out)["message"] == "margin must be positive"


@pytest.mark.parametrize("verb,options,message", [
    ("straightness", ["--epsilon", "nan", "--s", "0.1", "--margin", "0.01"],
     "epsilon must be a finite number, got nan"),
    ("defect", ["--L", "nan"], "L must be a finite number, got nan"),
    ("defect", ["--margin", "nan"], "margin must be a finite number, got nan"),
], ids=["straightness-epsilon", "defect-L", "defect-margin"])
def test_nan_certificate_parameters_are_refused(capsys, verb, options,
                                                message):
    path = [np.diag(np.exp([2.0 * t, 0.0, -2.0 * t])).tolist()
            for t in range(3)]
    code, out = run(capsys, "morse", verb, "--path", json.dumps(path),
                    *options)
    assert code == 1
    assert json.loads(out)["message"] == message


@pytest.mark.parametrize("options,message", [
    (["--L", "0"], "L must be positive, got 0.0"),
    (["--L", "-1"], "L must be positive, got -1.0"),
    (["--A", "-1"], "A must be non-negative, got -1.0"),
], ids=["L-zero", "L-negative", "A-negative"])
def test_defect_refuses_l_and_a_outside_their_range(capsys, options, message):
    # L = 0 printed a -inf margin after a divide-by-zero warning, and
    # L = -1 printed margins; both exited 0
    path = [np.diag(np.exp([2.0 * t, 0.0, -2.0 * t])).tolist()
            for t in range(4)]
    data = _refused(capsys, ["morse", "defect", "--path", json.dumps(path),
                             "--B", "1", *options])
    assert (data["error"], data["message"]) == ("ValueError", message)


def test_defect_names_a_point_of_another_dimension(capsys):
    path = [np.eye(3).tolist(), np.eye(3).tolist(), np.eye(2).tolist()]
    data = _refused(capsys, ["morse", "defect", "--path", json.dumps(path)])
    assert data["message"] == ("path points must share one dimension: "
                               "point 0 has n = 3, point 2 has n = 2")


@pytest.mark.parametrize("verb", [
    ("flags", "position", "--a", "[[1.0,0.0],[0.0,1.0]]",
     "--b", "[[0.0,1.0,0.0],[1.0,0.0,0.0],[0.0,0.0,1.0]]"),
    ("flags", "antipodal", "--a", "[[1.0,0.0],[0.0,1.0]]",
     "--b", "[[0.0,1.0,0.0],[1.0,0.0,0.0],[0.0,0.0,1.0]]"),
    ("domain", "membership", "--flag", "[[1,0],[0,1]]", "--thickening", "[]")],
    ids=["position", "antipodal", "membership"])
def test_positions_name_flags_of_different_dimensions(capsys, tmp_path, verb):
    # numpy's matmul or reshape message before
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"flags": [np.eye(3).tolist()] * 2,
                                  "words": ["a", "A"],
                                  "margins": [[1.0, 1.0]] * 2}))
    argv = (*verb, "--sample", str(sample)) if verb[0] == "domain" else verb
    data = _refused(capsys, argv)
    assert (data["error"], data["message"]) == (
        "ValueError", "a flag of R^2 has no position relative to a flag of R^3")


def test_membership_names_a_sample_flag_of_another_dimension(capsys,
                                                             tmp_path):
    # numpy's "inhomogeneous shape" message before
    sample = tmp_path / "mixed.json"
    sample.write_text(json.dumps({"flags": [np.eye(3).tolist(),
                                            np.eye(2).tolist()],
                                  "words": ["a", "A"],
                                  "margins": [[1.0, 1.0], [1.0]]}))
    data = _refused(capsys, ["domain", "membership", "--flag",
                             "[[1,0,0],[0,1,0],[0,0,1]]", "--thickening",
                             "[]", "--sample", str(sample)])
    assert (data["error"], data["message"]) == (
        "ValueError", "sample flags must share one dimension: "
        "flag 0 has n = 3, flag 1 has n = 2")


def test_output_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "c.txt"
    code, out = run(capsys, "thickenings", "count", "--type", "A2",
                    "--out", str(target))
    assert code == 1 and not target.exists()
    data = json.loads(out)
    assert issubclass(getattr(builtins, data["error"]), OSError)


def test_output_to_file(capsys, tmp_path):
    out_file = tmp_path / "c.txt"
    code, _ = run(capsys, "--out", str(out_file),
                  "thickenings", "count", "--type", "A2")
    assert code == 0 and out_file.read_text().strip() == "1"


def test_readme_limits_sample_line(capsys, tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(l for l in readme.read_text().splitlines()
                if l.startswith("weylkit limits sample"))
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *shlex.split(line)[1:])
    assert code == 0 and out == ""
    sample = json.loads((tmp_path / "sample.json").read_text())
    assert sample["flags"]


def _readme_inputs(directory):
    """The @file inputs of the README's command examples."""
    def rot(t, i, j):
        r = np.eye(3)
        r[[i, j], [i, j]] = np.cos(t)
        r[i, j], r[j, i] = -np.sin(t), np.sin(t)
        return r

    g1 = np.diag([4.0, 1.0, 0.25])
    h = rot(0.8, 0, 1) @ rot(0.5, 1, 2) @ rot(0.3, 0, 1)
    generic = rot(0.4, 0, 1) @ rot(1.1, 1, 2) @ rot(0.7, 0, 2)
    files = {
        "x.json": np.diag([2.0, 1.0, 0.5]),
        "y.json": h @ np.diag([3.0, 1.0, 1 / 3]) @ h.T,
        "p.json": generic @ np.diag([1.5, 1.0, 2 / 3]) @ generic.T,
        "gens.json": [g1, h @ g1 @ h.T],
        "a.json": h,
        "b.json": generic,
        "flag.json": generic,
        "g.json": g1,
        "path.json": [np.diag(np.exp([2.0 * t, 0.0, -2.0 * t]))
                      for t in range(8)],
        "za.json": {"angles": ["0", "1", "2"], "weights": [1, 1, 1]},
        "zb.json": {"angles": ["0", "1", "3"], "weights": [1, 1, 1]},
    }
    for name, value in files.items():
        if not isinstance(value, dict):
            value = np.asarray(value).tolist()
        (directory / name).write_text(json.dumps(value))


def test_readme_command_examples(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines()]
    lines = [argv for argv in lines if argv]
    assert len(lines) == 21 and all(argv[0] == "weylkit" for argv in lines)
    _readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, out = run(capsys, *argv[1:])
        assert code == 0, (argv, out)
        if argv[1:3] == ["thickenings", "count"]:
            assert out == "10\n"  # as the README says


README_MORSE_DIGESTS = {
    "defect": "9844de3aed0847dd93f3d5171498f921700c238a8967ae9d8fccef99c5ffce44",
    "straightness":
        "7864d03ca332f98cd6635d6880d68cf18036771583011ad65611d7a3567ac29c",
}


@pytest.mark.parametrize("verb", sorted(README_MORSE_DIGESTS))
def test_readme_morse_line_digest(capsys, tmp_path, monkeypatch, verb):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(l for l in readme.read_text().splitlines()
                if l.startswith(f"weylkit morse {verb} --path @path.json"))
    _readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_MORSE_DIGESTS[verb]


def test_readme_quick_tour(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "10"
    assert lines[3].startswith("(True, ")
    assert lines[-1] == "True"


def test_exact_position_of_singular_basis(capsys):
    code, out = run(capsys, "flags", "position",
                    "--a", "[[0,1,0],[0,0,1],[0,0,0]]",
                    "--b", "[[0,0,1],[0,1,0],[1,0,0]]")
    assert code == 1
    assert json.loads(out)["error"] == "NearSingular"


def test_position_confidence_with_exact_zero(capsys):
    # float flags that share a line exactly: a dropped singular value is
    # exactly zero, so no rank decision came near the threshold
    code, out = run(capsys, "flags", "position",
                    "--a", "[[1.5,0.3,0],[0,1,0.2],[0,0,1]]",
                    "--b", "[[1.5,0.1,0],[0,1,0],[0,0.7,1]]")
    data = json.loads(out)
    assert code == 0 and not data["exact"]
    assert data["position"] == "132" and data["confidence"] == "inf"


def test_determinism_byte_identical(capsys):
    args = ["thickenings", "enumerate", "--type", "A3"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    args = ["limits", "sample", "--gens",
            json.dumps([np.diag([4.0, 1.0, 0.25]).tolist()]),
            "--max-len", "3", "--margin", "1.0"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_float_formatting_17_digits():
    assert render_json(1.0 / 3.0) == "0.33333333333333331\n"
    assert render_json({"x": float("inf")}) == '{"x":"inf"}\n'


def test_env_tolerance_override(capsys, monkeypatch):
    # a first line turned by 5e-7: a turn at the default threshold 1e-8,
    # no turn at 1e-6; the threshold is passed in, never written back
    from weylkit import flagdyn
    monkeypatch.delenv("WEYLKIT_TOLERANCE", raising=False)
    c, s = np.cos(5e-7), np.sin(5e-7)
    a = json.dumps([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    b = json.dumps(np.eye(3).tolist())
    args = ("flags", "position", "--a", a, "--b", b)
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["position"] == "213"
    monkeypatch.setenv("WEYLKIT_TOLERANCE", "1e-6")
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["position"] == "123"
    assert flagdyn.RANK_TOL == 1e-8


def test_env_tolerance_rejects_garbage(capsys, monkeypatch):
    from weylkit import flagdyn
    old = flagdyn.RANK_TOL
    monkeypatch.setenv("WEYLKIT_TOLERANCE", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["thickenings", "count", "--type", "A2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "WEYLKIT_TOLERANCE" in captured.err
    assert flagdyn.RANK_TOL == old


@pytest.mark.parametrize("value", ["0.5", "1", "0", "-1e-8", "nan", "inf"])
def test_env_tolerance_outside_its_range_is_a_usage_error(capsys, monkeypatch,
                                                          value):
    # 0.5 and 1 made every pair refuse; the range is that of the library
    monkeypatch.setenv("WEYLKIT_TOLERANCE", value)
    a = json.dumps(np.eye(3).tolist())
    with pytest.raises(SystemExit) as exc:
        main(["flags", "position", "--a", a, "--b", a])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert (f"WEYLKIT_TOLERANCE={value!r}: tol must lie in (0, 0.5), got "
            f"{float(value)}") in captured.err


def test_env_tolerance_just_under_one_half_reads(capsys, monkeypatch):
    monkeypatch.setenv("WEYLKIT_TOLERANCE", "0.4999")
    a = json.dumps(np.eye(3).tolist())
    code, out = run(capsys, "flags", "position", "--a", a, "--b", a)
    assert code == 0 and json.loads(out)["position"] == "123"


@pytest.mark.parametrize("verb", [
    ("flags", "position", "--a", "[[1.5]]", "--b", "[[2.5]]"),
    ("flags", "position", "--a", "[[1]]", "--b", "[[2]]"),
    ("flags", "antipodal", "--a", "[[1.5]]", "--b", "[[-2.5]]"),
    ("domain", "membership", "--flag", "[[1.5]]", "--thickening", "[]")],
    ids=["position", "exact-position", "antipodal", "membership"])
def test_positions_refuse_the_line(capsys, tmp_path, verb):
    sample = tmp_path / "sample.json"
    sample.write_text('{"flags": [[[1.0]]], "words": ["a"], '
                      '"margins": [[]]}')
    argv = (*verb, "--sample", str(sample)) if verb[0] == "domain" else verb
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "ValueError", "argv": list(argv),
        "message": "the flag manifold of R^1 is a point: "
                   "it has no relative positions"}

def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# sha256 of the parser's shape as read below: each command and verb with
# its help, and each option's strings, dest, required flag, default, type,
# help and nargs.  Unlike the --help pages, it does not vary with the
# Python version.
PARSER_DIGEST = "4c64bf911528331c76f338d2b442d087b0e2b33a593beab5cae3bf2ae6361e2d"


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _options(parser):
    return [(a.option_strings, a.dest, a.required, repr(a.default),
             getattr(a.type, "__name__", None), a.help, a.nargs)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction,
                                  argparse._SubParsersAction))]


def test_parser_structure_pinned():
    parser = build_parser()
    commands = _subparsers(parser)
    shape = {"weylkit": _options(parser),
             "commands": [(a.dest, a.help) for a in commands._choices_actions]}
    for command, command_parser in commands.choices.items():
        verbs = _subparsers(command_parser)
        shape[command] = [(a.dest, a.help) for a in verbs._choices_actions]
        for verb, verb_parser in verbs.choices.items():
            shape[f"{command} {verb}"] = _options(verb_parser)
    assert len(shape) == 2 + 12 + 22  # 12 commands, 22 verbs
    text = json.dumps(shape, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSER_DIGEST


@pytest.mark.parametrize("argv", [
    ("limits", "sample", "--gens", "[[[NaN,0],[0,1]]]", "--max-len", "2"),
    ("flags", "position", "--a", "[[NaN,0],[0,1]]", "--b", "[[1,0],[0,1]]"),
    ("expand", "factor", "--gen", "[[NaN,0],[0,1]]", "--flag",
     "[[1,0],[0,1]]"),
], ids=["limits-sample", "flags-position", "expand-factor"])
def test_matrix_entries_that_are_not_finite_are_refused(capsys, argv):
    # refused before numpy, which would warn and not converge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, *argv)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError"
    assert data["message"] == "matrix entries must be finite, got nan"


def _refused(capsys, argv):
    """The JSON error of a verb that must exit 1 with nothing on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    return json.loads(captured.out)


@pytest.mark.parametrize("argv", [
    ("config", "walls", "--weights", "1/0,1"),
    ("flags", "position", "--a", '[["1/0",0],[0,1]]', "--b", "[[1,0],[0,1]]"),
    ("config", "stability", "--config", '{"angles":["1/0"],"weights":[1]}'),
    ("dist", "delta", "--x", '[["1/0",0],[0,1]]', "--y", "[[1,0],[0,1]]"),
    ("flags", "position", "--exact", "--a", "[[Infinity,0],[0,1]]",
     "--b", "[[1,0],[0,1]]"),
], ids=["walls", "position", "stability", "delta", "exact-position-inf"])
def test_arithmetic_errors_keep_the_exit_contract(capsys, argv):
    # the first four raised ZeroDivisionError out of main, the last
    # OverflowError (Fraction of an infinite float)
    data = _refused(capsys, argv)
    assert (data["error"], data["message"]) == (
        ("ValueError", "basis a entries must be finite, got inf")
        if "--exact" in argv else ("ZeroDivisionError", "Fraction(1, 0)"))


def test_single_matrix_verbs_refuse_entries_that_are_not_finite(capsys,
                                                               tmp_path):
    data = _refused(capsys, ["flags", "position", "--exact", "--a",
                             "[[1,0],[0,1]]", "--b", "[[NaN,0],[0,1]]"])
    assert data["message"] == "basis b entries must be finite, got nan"
    data = _refused(capsys, ["expand", "factor", "--gen", "[[1,0],[0,1]]",
                             "--flag", "[[-Infinity,0],[0,1]]"])
    assert data["message"] == "matrix entries must be finite, got -inf"
    sample = tmp_path / "sample.json"
    sample.write_text('{"flags": [[[NaN, 0], [0, 1]]], "words": ["a"], '
                      '"margins": [[1.0]]}')
    data = _refused(capsys, ["domain", "membership", "--flag", "[[1,0],[0,1]]",
                             "--sample", str(sample), "--thickening", "[]"])
    assert data["message"] == "matrix entries must be finite, got nan"


def test_dist_refuses_a_point_past_the_float_range(capsys):
    # the symmetrising sum overflowed, and the distance printed NaN
    data = _refused(capsys, ["dist", "delta", "--x", "[[1,0],[0,1]]",
                             "--y", "[[1e308,0],[0,1e-308]]"])
    assert (data["error"], data["message"]) == \
        ("NotPositiveDefinite", "matrix is not positive definite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dist_refuses_a_relative_form_past_the_float_range(capsys):
    # x^-1/2 y x^-1/2 = diag(1e400, 1e-400) overflows: no warning, and a
    # refusal that names the float range, not positive definiteness
    data = _refused(capsys, ["dist", "delta", "--x", "[[1e-200,0],[0,1e200]]",
                             "--y", "[[1e200,0],[0,1e-200]]"])
    assert (data["error"], data["message"]) == \
        ("SingularInput", "relative form spans more than the float range")


def test_limits_sample_refuses_a_product_past_the_float_range(capsys):
    # a cube of the first generator overflows; the SVD of that length hung
    data = _refused(capsys, [
        "limits", "sample", "--gens", "[[[1e150,0,0],[0,1e-150,0],[0,0,1]],"
        "[[1,0.001,0],[-0.001,1,0],[0,0,1]]]", "--max-len", "4"])
    assert (data["error"], data["message"]) == \
        ("SingularInput", "product spans more than the float range")


@pytest.mark.parametrize("option, value, message", [
    ("--direction", "nan,0", "direction entries must be finite, got nan"),
    ("--direction", "inf,0", "direction entries must be finite, got inf"),
    ("--t", "5,nan", "t_list entries must be finite, got nan"),
], ids=["direction-nan", "direction-inf", "t-nan"])
def test_horo_estimate_refuses_entries_that_are_not_finite(capsys, option,
                                                           value, message):
    # a NaN ray would otherwise be printed as a NaN estimate
    argv = {"--p": "[[1,0],[0,1]]", "--x": "[[2,0],[0,0.5]]",
            "--direction": "1,0", option: value}
    code, out = run(capsys, "horo", "estimate",
                    *[part for item in argv.items() for part in item])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ValueError" and data["message"] == message


@pytest.mark.parametrize("t", ["5,5", "40,5", "0,5"])
def test_horo_estimate_refuses_a_t_list_that_is_not_increasing(capsys, t):
    # "5,5" and "40,5" were printed as converged from one ray point
    code, out = run(capsys, "horo", "estimate", "--p", "[[1,0],[0,1]]",
                    "--x", "[[2,0],[0,0.5]]", "--direction", "1,0", "--t", t)
    assert code == 1
    data = json.loads(out)
    got = [float(v) for v in t.split(",")]
    assert (data["error"], data["message"]) == (
        "ValueError", "t_list must be a nonempty increasing list of positive "
                      f"times, got {got}")


def test_schottky_refuses_a_power_below_one(capsys):
    # N = 0 was refused as a segment on a wall
    gens = json.dumps([np.diag([4.0, 1.0, 0.25]).tolist()])
    code, out = run(capsys, "morse", "schottky", "--gens", gens, "--N", "0")
    assert code == 1
    data = json.loads(out)
    assert (data["error"], data["message"]) == (
        "ValueError", "N must be an integer >= 1, got 0")


def test_discreteness_probe_prints_a_certificate(capsys):
    def rotation(c, s, axes):
        g = np.eye(3)
        g[np.ix_(axes, axes)] = [[c, -s], [s, c]]
        return g

    gens = [rotation(np.cos(2.4), np.sin(2.4), [0, 1]),
            rotation(np.cos(1.7), np.sin(1.7), [1, 2])]
    want = flagdyn.nondiscreteness_certificate(gens, epsilon=0.1, max_len=8)
    assert want.found
    code, out = run(capsys, "discreteness", "probe", "--gens",
                    json.dumps([g.tolist() for g in gens]),
                    "--epsilon", "0.1", "--max-len", "8")
    assert code == 0
    data = json.loads(out)
    assert data["nondiscrete_certificate"] == {
        "words": want.certificate.words,
        "commutator_norm": want.certificate.commutator_norm}
    assert data["words_searched"] == want.words_searched


def test_a_bare_path_reads_its_json_file(capsys, tmp_path):
    gens = [np.diag([4.0, 1.0, 0.25]).tolist()]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, bare = run(capsys, "limits", "sample", "--gens", str(path),
                     "--max-len", "2")
    assert code == 0
    assert bare == run(capsys, "limits", "sample", "--gens", json.dumps(gens),
                       "--max-len", "2")[1]
