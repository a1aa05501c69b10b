"""Command line coverage: every verb, plus error paths and determinism."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from weylkit.cli import main, render_json


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
    from weylkit import flagdyn
    old = flagdyn.RANK_TOL
    try:
        monkeypatch.setenv("WEYLKIT_TOLERANCE", "1e-6")
        a = json.dumps(np.eye(3).tolist())
        code, _ = run(capsys, "flags", "antipodal", "--a", a, "--b", a)
        assert code == 0
        assert flagdyn.RANK_TOL == 1e-6
    finally:
        flagdyn.RANK_TOL = old


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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
