"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q
"""

import collections
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

import run
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_stream(name):
    assert workloads.stream(name, 7, 2) == workloads.stream(name, 7, 2)
    assert workloads.stream(name, 7, 2) != workloads.stream(name, 8, 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_issues_the_whole_deck(name):
    deck = collections.Counter(workloads.WORKLOADS[name])
    for seed in range(5):
        argvs = workloads.stream(name, seed, 3)
        for i in range(3):
            one_pass = argvs[i * len(argvs) // 3:(i + 1) * len(argvs) // 3]
            assert collections.Counter(one_pass) == deck


def test_passes_depend_on_seconds_alone():
    for name, pass_s in workloads.PASS_SECONDS.items():
        assert workloads.passes(name, 1) == 1
        assert workloads.passes(name, 3 * pass_s) == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_covers_every_drawable_argv(name):
    reference = workloads.load_reference()
    assert " ".join(run.SETUP_ARGV) in reference
    for argv in workloads.drawable(name):
        if argv[0] == "verify":
            assert workloads.expected_checks(argv) > 0
        else:
            assert " ".join(argv) in reference, argv


def test_corrupted_stdout_is_a_failed_op():
    reference = workloads.load_reference()
    argv = run.SETUP_ARGV
    assert workloads.output_ok(argv, 0, b"2\n", reference)
    assert not workloads.output_ok(argv, 0, b"3\n", reference)
    assert not workloads.output_ok(argv, 0, b"2", reference)
    assert not workloads.output_ok(argv, 1, b"2\n", reference)
    assert not workloads.output_ok(("count", "--n", "99", "--l", "2"), 0,
                                   b"2\n", reference)


def test_verify_passes_only_with_the_expected_nonzero_count():
    argv = workloads.VERIFY_COEFF[0]
    good = b"PASS coeff (n=1, l=2)\n25/25 checks passed\n"
    assert workloads.output_ok(argv, 0, good, {})
    assert not workloads.output_ok(argv, 1, good, {})
    assert not workloads.output_ok(argv, 0, b"24/24 checks passed\n", {})
    assert not workloads.output_ok(argv, 0, b"24/25 checks passed\n", {})
    assert not workloads.output_ok(argv, 0, good + b"trailing\n", {})
    vacuous = ("verify", "main", "--n-max", "0")
    assert not workloads.output_ok(vacuous, 0, b"0/0 checks passed\n", {})


def test_expected_checks_match_the_cli_sweeps():
    counts = {" ".join(a): workloads.expected_checks(a) for a in (
        workloads.VERIFY_COEFF + workloads.VERIFY_ASYMM
        + workloads.VERIFY_MAIN + workloads.VERIFY_BIJECTIONS
        + workloads.VERIFY_TRUNCATED[:1])}
    assert list(counts.values()) == [25, 84, 40, 12, 10]


def test_self_times_on_a_synthetic_nested_call():
    ticks = iter([0, 10, 25, 25, 28, 40, 60, 60, 61, 100])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def hook(tr, args, result):
        tr.count("inner.size", result, "max")

    def inner(x):
        return x

    def outer():
        return (t.call("inner", inner, (3,), {}, hook)
                + t.call("inner", inner, (4,), {}, hook))

    assert t.call("outer", outer, (), {}) == 7
    assert t.calls == {"inner": 2, "outer": 1}
    assert t.self_ns == {"inner": 35, tracer.HOOKS: 4, "outer": 61}
    assert t.root_ns == 100 == sum(t.self_ns.values())
    assert t.counters == {"inner.size": 4}


def test_self_times_must_add_up_to_the_clocked_main():
    rec = {"calls": {"cli.main": 1}, "self_ns": {"cli.main": 40, "f": 60},
           "main_ns": 100 + 5000}
    assert run.self_times_consistent(rec)
    # time the wrappers lost (a callee charged to nobody) or counted twice
    assert not run.self_times_consistent(
        dict(rec, main_ns=100 + run.SELF_TIME_SLACK_NS + 1))
    assert not run.self_times_consistent(dict(rec, main_ns=99))
    assert not run.self_times_consistent(dict(rec, calls={}))
    assert not run.self_times_consistent(run.NO_RECORDS)


def test_self_times_survive_an_exception():
    ticks = iter([0, 5, 9, 20])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            t.call("fail", fail, (), {})
        return 1

    t.call("outer", outer, (), {})
    assert t.self_ns == {"fail": 4, "outer": 16}
    assert t.root_ns == 20


def test_tail_percentile_keeps_ten_samples_above():
    for n in range(11, 300):
        p, value = run.tail_percentile(list(range(n)))
        assert sum(v > value for v in range(n)) >= 10
        assert 100 * (n - 10) // n == p


def test_traced_op_matches_the_plain_cli(tmp_path):
    argv = ["gf", "det", "--n", "3", "--l", "4"]
    plain = subprocess.run([sys.executable, "-m", "altsign.cli", *argv],
                           env=ENV, capture_output=True, check=True)
    records = tmp_path / "records.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(BENCH, "tracer.py"), str(records), "--",
         *argv], env=ENV, capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    rec = json.loads(records.read_text())
    assert run.self_times_consistent(rec)
    assert rec["absent"] == []
    for name in ("detform.gf_det", "exactalg.det_fraction_free",
                 "exactalg.Gf.mul", "exactalg.Gf.add", "exactalg.binomial"):
        assert rec["calls"][name] > 0, name


def test_install_patches_aliases_and_reports_absent_names():
    code = textwrap.dedent("""
        import tracer
        from altsign import detform, exactalg
        table = tracer.WRAPPED + (
            ("gone.function", "exactalg", "no_such_function"),
            ("gone.method", "exactalg", "Gf.no_such_method"),
            ("gone.module", "no_such_module", "f"))
        absent = tracer.install(tracer.Tracer(), table)
        assert absent == ["gone.function", "gone.method", "gone.module"]
        assert detform.binomial is exactalg.binomial
        assert hasattr(exactalg.binomial, "__wrapped__")
        for cls in (exactalg.Gf, exactalg.MPoly):
            assert cls.__radd__ is cls.__add__
            assert cls.__rmul__ is cls.__mul__
            assert hasattr(cls.__add__, "__wrapped__")
    """)
    env = dict(ENV, PYTHONPATH=os.pathsep.join((ENV["PYTHONPATH"], BENCH)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_time_metrics_are_scaled_by_the_host_slowdown():
    ops = [{"wall_s": w, "cpu_s": w, "rss_mb": 20.0, "ok": True}
           for w in (1.0, 2.0, 3.0)]
    metrics, raw, _ = run.end_to_end(ops, 6.0, [0.2, 0.4], 2.0)
    assert raw["ops_per_s"] == 0.5 and metrics["ops_per_s"] == 1.0
    assert raw["latency_p50_s"] == 2.0 and metrics["latency_p50_s"] == 1.0
    assert metrics["cpu_s_per_op"] == 1.0
    assert metrics["setup_s"] == raw["setup_s"] / 2
    for name in ("peak_rss_mb", "ok_share"):
        assert metrics[name] == raw[name]
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_speed_probe_samples_while_the_block_runs():
    with run.SpeedProbe() as probe:
        time.sleep(10 * run.PROBE_PERIOD_S)
    count = len(probe.samples)
    assert count >= 3
    time.sleep(2 * run.PROBE_PERIOD_S)
    assert len(probe.samples) == count
    assert probe.slowdown() > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no altsign sources" in done.stderr
