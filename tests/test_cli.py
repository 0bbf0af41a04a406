"""Command-line interface: exit codes, JSON output, and round trips."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricbundles
from toricbundles.cli import main

# Full stdout of each pinned command line, text and --json, keyed by argv.
PINNED = json.loads((Path(__file__).parent / "cli_stdout.json").read_text())
POLYTOPE_OUT = "polytope --a 1 --s 2 --kappa 1 --out poly.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_text_output(capsys):
    code, out, err = run(capsys, "census", "--a", "1,4,4", "--s", "2", "--kappa", "8")
    assert code == 0
    assert "N(8) = 2" in out
    assert "kappa > 7" in out
    assert "stable count: 2" in out


def test_census_json_output(capsys):
    code, out, _ = run(
        capsys, "census", "--a", "1,4,4", "--s", "2", "--kappa", "15/2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["breakpoints"][0]["new_members"] == [[1, 4, 4], [2, 2, 5]]
    assert obj["count"] == {"kappa": "15/2", "value": 2}
    assert obj["stable_count"] == 2
    assert obj["stabilization_threshold"] == "31"


def test_census_infinity_and_cap(capsys):
    code, out, _ = run(
        capsys, "census", "--a", "5", "--s", "1", "--cap", "9", "--infinity", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count_at_infinity"] == "infinite"
    code, _, err = run(capsys, "census", "--a", "5", "--s", "1")
    assert code == 1
    assert "CapRequired" in err


def test_equiv_exit_codes_and_sorting(capsys):
    code, out, err = run(capsys, "equiv", "--a", "4,4,1", "--b", "2,2,5", "--s", "2")
    assert code == 0
    assert "equivalent: C = 0" in out
    assert "sorted to (1, 4, 4)" in err
    # a decided negative is still a successful run
    code, out, _ = run(capsys, "equiv", "--a", "1,4,4", "--b", "1,4,5", "--s", "2")
    assert code == 0
    assert out.strip() == "inequivalent"


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "census", "--a", "0,0", "--s", "2")
    assert code == 1 and err.startswith("ZeroVector:")
    code, _, err = run(capsys, "moves", "--a", "1", "--b", "2")
    assert code == 1 and err.startswith("ParityError:")
    code, _, err = run(capsys, "polytope", "--a", "1,4,4", "--s", "2", "--kappa", "7")
    assert code == 1 and err.startswith("InvalidKappa:")


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "recognize", "--in", "/nonexistent-polytope.json")
    assert code == 2 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["census", "--a", "1,x", "--s", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "census", "--a", "0,0,2", "--s", "2", "--kappa", "5", "--json")
    second = run(capsys, "census", "--a", "0,0,2", "--s", "2", "--kappa", "5", "--json")
    assert first == second


def test_polytope_out_recognize_round_trip(tmp_path, capsys):
    path = tmp_path / "poly.json"
    code, out, _ = run(
        capsys,
        "polytope",
        "--a", "1,4,4",
        "--s", "2",
        "--kappa", "8",
        "--out", str(path),
        "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["exact_volume"] == "8816/15"
    assert obj["nominal_volume"] == "1600/3"
    stored = json.loads(path.read_text())
    assert stored["dim"] == 5
    code, out, _ = run(capsys, "recognize", "--in", str(path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["presentations"]) == 1
    pres = rec["presentations"][0]
    assert pres["r"] == 3 and pres["s"] == 2
    assert pres["a"] == [1, 4, 4] and pres["kappa"] == "8"


def test_polytope_volume_fields(capsys):
    code, out, _ = run(
        capsys, "polytope", "--a", "1", "--s", "2", "--kappa", "1", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["exact_volume"] == "28/3"
    assert obj["nominal_volume"] == "9"
    assert len(obj["vertices"]) == 6
    assert obj["delzant"]["ok"] is True
    assert obj["fiber_fingerprint"] == ["2", "4"]


def test_moves_json_replay(capsys):
    code, out, _ = run(capsys, "moves", "--a", "0,0,9", "--b", "3,3,3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["end"] == [3, 3, 3]
    assert obj["kappa_floor"] >= 8
    assert all(step[0] in ("e1", "e1_inv", "eij", "eij_inv") for step in obj["steps"])


def test_hirzebruch_text(capsys):
    code, out, _ = run(capsys, "hirzebruch", "--a", "0", "--b", "4")
    assert code == 0 and out.startswith("equivalent")
    code, out, _ = run(capsys, "hirzebruch", "--a", "0", "--b", "1")
    assert code == 0 and out.startswith("inequivalent")


def test_family_with_lift(capsys):
    code, out, _ = run(capsys, "family", "--k", "3", "--lift", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["K"] == 11 and obj["a"] == [11, 13]
    assert obj["lift"]["vectors"] == [[0, 0, 11, 13], [0, 3, 5, 16], [0, 1, 8, 15]]
    code, out, _ = run(capsys, "family", "--k", "2")
    assert code == 0
    assert "K = 5" in out and "(2, 7)" in out


@pytest.mark.parametrize("lift", ["0", "-1"])
def test_family_rejects_a_lift_below_one(capsys, lift):
    code, out, err = run(capsys, "family", "--k", "2", "--lift", lift)
    assert (code, out, err) == (2, "", "error: l must be at least 1\n")


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 2, "facets": [5, {"conormal": [1, 0], "constant": "1"}]},
        {"dim": 1, "facets": [{"conormal": [1], "constant": "1/0"}]},
        {"dim": 2, "facets": [{"conormal": [True, 0], "constant": "1"}]},
        {"dim": True, "facets": [{"conormal": [1], "constant": "1"}]},
        {"dim": 1, "facets": [{"conormal": [1], "constant": False}]},
        {"dim": 2, "facets": [{"conormal": [1], "constant": "1"}]},
    ],
)
def test_recognize_malformed_polytope_exits_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "recognize", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["census", "polytope"])
def test_negative_fraction_kappa(capsys, command):
    spaced = run(capsys, command, "--a", "1", "--s", "3", "--kappa", "-3/2", "--json")
    joined = run(capsys, command, "--a", "1", "--s", "3", "--kappa=-3/2", "--json")
    assert spaced == joined and spaced[0] == 0
    obj = json.loads(spaced[1])
    if command == "census":
        assert obj["count"] == {"kappa": "-3/2", "value": 1}
    else:
        assert obj["polytope"]["facets"][-1]["constant"] == "-3/2"
        code, _, err = run(capsys, command, "--a", "1", "--s", "3", "--kappa", "-3")
        assert code == 1 and err.startswith("InvalidKappa:")
    with pytest.raises(SystemExit) as exc:
        main([command, "--a", "1", "--s", "3", "--kappa", "--json"])
    assert exc.value.code == 2


def test_census_above_r_is_closed_form(capsys):
    code, out, _ = run(capsys, "census", "--a", "99999999999999999999", "--s", "2")
    assert code == 0
    assert "stable count: 1 (reached for kappa > 99999999999999999997)" in out


def test_census_counts_from_one_enumeration(capsys, monkeypatch):
    census_module = sys.modules["toricbundles.census"]
    calls = []
    real = census_module.deformation_class
    monkeypatch.setattr(
        census_module, "deformation_class", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    code, out, _ = run(capsys, "census", "--a", "1,4,4", "--s", "2", "--kappa", "8")
    assert code == 0 and "N(8) = 2" in out
    code, out, _ = run(capsys, "census", "--a", "1,4,4", "--s", "2", "--infinity")
    assert code == 0 and "count at infinity: 2" in out
    assert len(calls) == 2
    code, _, err = run(capsys, "census", "--a", "5", "--s", "1", "--cap", "9", "--kappa", "9")
    assert code == 1
    assert err == (
        "CapRequired: counting at kappa = 9 with s = 1 needs sigma1_cap >= kappa + s = 10\n"
    )


@pytest.mark.parametrize(
    "cap, message",
    [
        (None, "the s = 1 class is infinite; pass sigma1_cap to bound the listing"),
        ("3", "sigma1_cap = 3 is below sigma_1(a) = 5; "
              "the class listing must at least contain a itself"),
        ("9", "counting at kappa = 9 with s = 1 needs sigma1_cap >= kappa + s = 10"),
    ],
    ids=["no-cap", "cap-below-sigma1", "cap-below-kappa"],
)
def test_census_checks_the_cap_before_enumerating(capsys, monkeypatch, cap, message):
    census_module = sys.modules["toricbundles.census"]
    calls = []
    real = census_module.deformation_class
    monkeypatch.setattr(
        census_module, "deformation_class", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    argv = ["census", "--a", "5", "--s", "1", "--kappa", "9"]
    code, out, err = run(capsys, *argv, *([] if cap is None else ["--cap", cap]))
    assert (code, out, err) == (1, "", f"CapRequired: {message}\n")
    assert calls == []


@pytest.mark.parametrize("line", sorted(PINNED))
def test_pinned_stdout(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    if line.startswith("recognize"):
        assert run(capsys, *POLYTOPE_OUT.split())[0] == 0
    assert run(capsys, *line.split()) == (0, PINNED[line], "")


def test_long_vector_prints_one_line_without_a_traceback():
    # 3,000 entries, three times the default recursion limit: the class
    # enumeration walks an explicit stack, so the census completes.
    src = os.path.dirname(os.path.dirname(toricbundles.__file__))
    vec = ",".join(["0"] * 2999 + ["1"])
    proc = subprocess.run(
        [sys.executable, "-m", "toricbundles.cli", "census", "--a", vec, "--s", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, len(proc.stderr.splitlines())) == (0, 0)
    assert "stable count: 1" in proc.stdout


# Each subcommand's required options first, then its other options.
OPTIONS = {
    "census": (["--a", "--s"], ["--kappa", "--infinity", "--cap"]),
    "equiv": (["--a", "--b", "--s"], []),
    "polytope": (["--a", "--s", "--kappa"], ["--out"]),
    "recognize": (["--in"], []),
    "moves": (["--a", "--b"], []),
    "hirzebruch": (["--a", "--b"], []),
    "family": (["--k"], ["--c", "--strategy", "--lift"]),
}
VECTORS = ["1,4,4", "4,4,1", "0,0,2", "0,0", "2,3", "5", "0", "3", "1,x", "", "-1"]
INTS = ["0", "1", "2", "3", "6", "-1", "x"]
VALUES = {
    "--a": VECTORS, "--b": VECTORS, "--s": INTS, "--cap": INTS, "--k": INTS,
    "--c": INTS, "--lift": INTS, "--kappa": ["8", "-3/2", "15/2", "1/0", "x"],
    "--strategy": ["greedy", "factorial", "bogus"],
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    (work / "bad.json").write_text('{"dim": 2, "facets": [5]}')
    return [str(work / name) for name in ("poly.json", "bad.json", "missing.json")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_option_tokens_give_an_exit_code(cli_files, data):
    command = data.draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    extra = st.sampled_from(required + optional + ["--infinity", "--json", "--help"])
    argv = [command]
    for opt in required + data.draw(st.lists(extra, max_size=3)):
        argv.append(opt)
        if opt in ("--out", "--in"):
            argv.append(data.draw(st.sampled_from(cli_files)))
        elif opt in VALUES:
            argv.append(data.draw(st.sampled_from(VALUES[opt])))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
