"""Tests of the benchmark itself: smoke runs, oracle negatives, tracing.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import toricbundles as tb  # noqa: E402
import toricbundles.cli  # noqa: E402,F401
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def first_ops(workload, n, work, seed=5):
    ops = workloads.make_ops(workload, seed, work)
    return [next(ops) for _ in range(n)]


def run_ops(workload, ops, work, tracer=None):
    return run.run_loop(workload, tb, iter(ops), work, count=len(ops), tracer=tracer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_check_passes(workload, tmp_path):
    tally = run_ops(workload, first_ops(workload, 40, str(tmp_path)), str(tmp_path))
    assert tally.failures == [] and tally.repeat_share() == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_no_repeats(workload, tmp_path):
    one = [op.key for op in first_ops(workload, 300, str(tmp_path), seed=9)]
    two = [op.key for op in first_ops(workload, 300, str(tmp_path), seed=9)]
    other = [op.key for op in first_ops(workload, 300, str(tmp_path), seed=10)]
    assert one == two != other
    assert len(set(one)) == len(one)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_results_identical(workload, tmp_path):
    ops = first_ops(workload, 30, str(tmp_path))
    plain = run_ops(workload, ops, str(tmp_path))
    tracer = tracing.Tracer(tb)
    originals = {name: getattr(tb, name) for name in ("census", "vertices", "elem_sym_all")}
    tracer.install()
    try:
        traced = run_ops(workload, ops, str(tmp_path), tracer)
        assert tb.census is not originals["census"]
    finally:
        tracer.uninstall()
    assert {name: getattr(tb, name) for name in originals} == originals
    assert traced.digests == plain.digests
    assert traced.failures == []
    assert len(traced.pairs) == len(range(0, len(ops), run.PAIR_EVERY))
    assert sum(tracer.calls.values()) > 0 and tracer.absent == []


def test_tracer_self_time_and_per_op_counts(tmp_path):
    ops = [op for op in first_ops("cli_mixed", 60, str(tmp_path))
           if op.kind in ("census_kappa", "census_infinity", "polytope_out")]
    tracer = tracing.Tracer(tb)
    tracer.install()
    try:
        run_ops("cli_mixed", ops, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    kinds = {k: sum(op.kind == k for op in ops) for k in ("census_kappa", "census_infinity",
                                                          "polytope_out")}
    metrics, _ = tracer.layer_metrics(kinds, {}, 1.0)
    assert metrics["census.deformation_class_per_cli_census_op"][0] == 2.0
    assert metrics["polytope.vertices_per_cli_polytope_op"][0] == 3.0
    for name in ("cli.main", "equiv.deformation_class", "polytope.vertices"):
        self_s = metrics[f"{name}.self_s"][0]
        assert 0 < self_s < metrics[f"{name}.time_s"][0]
    spans = {span[0]: span for span in tracer.spans}
    for span_id, name, start, end, parent, op in tracer.spans:
        if parent is None:
            assert name == "cli.main"
        else:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
            assert spans[parent][5] == op


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(tb.equiv, "sigma2_holds")
    tracer = tracing.Tracer(tb)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["equiv.sigma2_holds"]
    metrics, _ = tracer.layer_metrics({}, {}, 1.0)
    assert metrics["equiv.sigma2_holds.calls"] == (0, "count")


# ---------------------------------------------------------------- oracle negatives


def census_case():
    """A small s = 2 query whose class has more than one member."""
    for a in oracle.sorted_vectors(3, 9):
        if any(a) and len(tb.census(a, 2).members) > 1:
            op = workloads.Op(0, "census", (a, 2), {"a": a, "s": 2, "kappas": (5, 100)})
            return op, workloads.census_run(tb, op, None)
    raise AssertionError("no multi-member class found")


def replace_members(raw, members):
    res, counts = raw
    return dataclasses.replace(res, members=tuple(members)), counts


def test_oracle_accepts_census_and_flags_a_dropped_member():
    op, raw = census_case()
    assert workloads.check("class_census", op, raw) is None
    res = raw[0]
    dropped = [m for m in res.members if m[0] != tuple(op.args["a"])][1:]
    dropped.insert(0, (tuple(op.args["a"]), 0))
    dropped.sort(key=lambda bc: (sum(bc[0]), bc[0]))
    assert "incomplete" in workloads.check("class_census", op, replace_members(raw, dropped))


def test_oracle_flags_a_shift_off_by_one():
    op, raw = census_case()
    members = [(b, c + 1) if b != tuple(op.args["a"]) else (b, c) for b, c in raw[0].members]
    assert "sigma equalities" in workloads.check("class_census", op, replace_members(raw, members))


def test_oracle_flags_a_wrong_count():
    op, raw = census_case()
    res, counts = raw
    assert "N(" in workloads.check("class_census", op, (res, [counts[0], counts[1] + 1]))


def test_oracle_flags_a_wrong_recognized_tuple(tmp_path):
    op = next(o for o in first_ops("polytope_roundtrip", 20, str(tmp_path))
              if o.args["corrupt"] is None and o.args["r"] + o.args["s"] >= 3)
    raw = workloads.polytope_run(tb, op, None)
    assert workloads.check("polytope_roundtrip", op, raw) is None
    form = raw[3][0]
    wrong = dataclasses.replace(form, bundle=dataclasses.replace(form.bundle, kappa=form.bundle.kappa + 1))
    bad = raw[:3] + ([wrong] + raw[3][1:],) + raw[4:]
    assert "normal form" in workloads.check("polytope_roundtrip", op, bad)


def test_oracle_flags_an_accepted_non_delzant_polytope(tmp_path):
    op = next(o for o in first_ops("polytope_roundtrip", 40, str(tmp_path))
              if o.args["corrupt"] is not None)
    raw = workloads.polytope_run(tb, op, None)
    assert workloads.check("polytope_roundtrip", op, raw) is None
    ok = workloads.polytope_run(tb, dataclasses.replace(op, args={**op.args, "corrupt": None}), None)
    assert workloads.check("polytope_roundtrip", op, raw[:3] + (ok[3],) + raw[4:]) is not None


def test_oracle_flags_a_wrong_exit_code_and_a_wrong_cli_answer(tmp_path):
    ops = first_ops("cli_mixed", 60, str(tmp_path))
    parity = next(o for o in ops if o.kind == "moves_parity")
    code, out, err = workloads.cli_run(tb, parity, str(tmp_path))
    assert workloads.check("cli_mixed", parity, (code, out, err)) is None
    assert "exited 0" in workloads.check("cli_mixed", parity, (0, out, err))
    census = next(o for o in ops if o.kind == "census" and "--json" in o.args["argv"])
    code, out, err = workloads.cli_run(tb, census, str(tmp_path))
    assert workloads.check("cli_mixed", census, (code, out, err)) is None
    obj = json.loads(out)
    obj["breakpoints"] = obj["breakpoints"][1:] if len(obj["breakpoints"]) > 1 else []
    assert workloads.check("cli_mixed", census, (code, json.dumps(obj), err)) is not None


def test_oracle_flags_a_move_path_that_does_not_replay():
    with pytest.raises(oracle.OracleError, match="replays"):
        oracle.check_move_path((1, 2), (0, 3), (1, 2), [("eij", 2, 1)], (0, 3), 2)
    oracle.check_move_path((1, 2), (0, 3), (1, 2), [("eij", 1, 2)], (0, 3), 2)


# ---------------------------------------------------------------- command line


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(spec["command"] + ["--workload", "cli_mixed", "--seed", "3",
                                             "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    report = json.loads(next(ln for ln in proc.stdout.splitlines()
                             if ln.startswith("report "))[len("report "):])
    assert report["repeat_share"] == 0
    if not trace:  # the workers continue one op stream between them
        assert len(report["worker_peak_rss_mb"]) == run.WORKERS


def test_command_fails_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "oracle.py", "tracer.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
