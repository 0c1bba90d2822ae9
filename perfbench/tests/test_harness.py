"""Tests of the benchmark harness's own pieces.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import time
from pathlib import Path

import pytest

from perfbench import inputs, jobs, run, stats, tracing
from toposlsc import fincat, fixtures, lsc, normalize, words


def test_tail_keeps_ten_samples_above():
    latencies = [float(i) for i in range(100)]
    value, percentile, above = stats.tail(latencies)
    assert value == 89.0
    assert above == 10
    assert percentile == 90.0
    assert sum(x > value for x in latencies) == 10


def test_tail_ignores_input_order():
    latencies = [float((7 * i) % 45) for i in range(45)]
    assert stats.tail(latencies) == stats.tail(sorted(latencies))
    assert stats.tail(latencies)[0] == 34.0


def test_tail_with_too_few_samples_reports_the_shortfall():
    value, _, above = stats.tail([3.0, 1.0, 2.0])
    assert value == 1.0
    assert above == 2


def fake_tracer(spans):
    """A tracer holding hand-made spans: (name, start, end, parent, job)."""
    t = tracing.Tracer()
    for name, start, end, parent, job in spans:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.job.append(job)
    return t


def test_self_time_subtracts_direct_children_only():
    t = fake_tracer([
        ("lsc.build_lsc", 0.0, 10.0, -1, 0),
        ("fincat.enumerate_quotient_objects", 1.0, 7.0, 0, 0),
        ("fincat.RepCongruence.__init__", 2.0, 3.0, 1, 0),
        ("fincat.RepCongruence.__init__", 4.0, 6.0, 1, 0),
        ("fincat.Presheaf.__init__", 8.0, 9.5, 0, 0),
    ])
    assert t.self_times() == [2.5, 3.0, 1.0, 2.0, 1.5]
    summary = t.summary([0])
    assert summary["fincat.RepCongruence.__init__"] == [3.0, 3.0, 2]
    assert summary[None][1] == 10.0


def test_layer_self_times_and_harness_account_for_the_wall():
    t = fake_tracer([
        ("lsc.build_lsc", 0.0, 4.0, -1, 0),
        ("fincat.enumerate_quotient_objects", 1.0, 3.0, 0, 0),
        ("reports.render", 5.0, 6.0, -1, 1),
    ])
    m = tracing.layer_metrics(t.summary([0, 1]), t.counted([0, 1]), wall=7.0)
    layers = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert layers == 5.0
    assert m["harness.self_s"][0] == 2.0
    assert layers + m["harness.self_s"][0] == m["trace.wall_s"][0]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    layer = tracing.layer_metrics({None: [0.0, 0.0, 0]}, {}, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **{name: unit for name, (_, unit) in layer.items()}, "trace.overhead": "ratio"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_summary_keeps_only_the_asked_jobs():
    t = fake_tracer([("reports.render", 0.0, 1.0, -1, 0), ("reports.render", 1.0, 3.0, -1, 1)])
    assert t.summary([1])["reports.render"] == [2.0, 2.0, 1]


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_wrappers_keep_results_and_isinstance(installed):
    G = fixtures.cyclic_group(4)
    plain = lsc.build_lsc(G.site())
    installed.enable()
    try:
        L = lsc.build_lsc(G.site())
        q = L.elements("*")[0]
        m = words.minimize(words.regex_to_min_dfa("(a|b)*a", "ab"))
    finally:
        installed.disable()
    assert isinstance(L, lsc.LocalStateClassifier)
    assert isinstance(q, fincat.RepCongruence)
    assert isinstance(G, normalize.FiniteGroup)
    assert isinstance(m, words.Dfa)
    assert L.elements("*") == plain.elements("*")
    assert m.n == 2
    names = {installed.names[i] for i in installed.name}
    # module attribute, `from .fincat import` alias inside lsc, and a class method
    assert {"lsc.build_lsc", "fincat.enumerate_quotient_objects",
            "fincat.RepCongruence.from_labels", "words.minimize"} <= names
    assert installed.counted([-1])["fincat.congruences"] == 3


def test_uninstall_restores_the_originals():
    before = (lsc.build_lsc, lsc.enumerate_quotient_objects,
              fincat.RepCongruence.__dict__["from_labels"], fincat.RepCongruence.meet)
    tracer = tracing.Tracer()
    tracer.install()
    assert lsc.build_lsc is not before[0]
    assert lsc.enumerate_quotient_objects is not before[1]
    tracer.uninstall()
    after = (lsc.build_lsc, lsc.enumerate_quotient_objects,
             fincat.RepCongruence.__dict__["from_labels"], fincat.RepCongruence.meet)
    assert after == before


def test_disabled_wrappers_record_nothing(installed):
    lsc.build_lsc(fixtures.cyclic_group(3).site())
    assert len(installed.name) == 0


def test_spans_are_nested_and_timed(installed):
    installed.enable()
    start = time.perf_counter()
    try:
        lsc.build_lsc(fixtures.cyclic_group(2).site())
    finally:
        installed.disable()
    for i, p in enumerate(installed.parent):
        assert start <= installed.start[i] <= installed.end[i]
        if p >= 0:
            assert installed.start[p] <= installed.start[i] <= installed.end[i] <= installed.end[p]


@pytest.fixture(scope="module")
def site_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("sites")
    inputs.make_inputs("sites", 1, Path(__file__).parents[2] / "demos" / "data", folder)
    return folder


def test_a_changed_report_byte_is_a_failure(site_inputs):
    job = jobs.lsc_job(site_inputs / "graph.cat", jobs.load_digests())
    report, text = job.run()
    assert job.check((report, text)) == []
    changed = text[:10] + ("x" if text[10] != "x" else "y") + text[11:]
    problems = job.check((report, changed))
    assert len(problems) == 1 and "differs from pinned" in problems[0]


def test_a_failed_verdict_is_a_failure(site_inputs):
    job = jobs.group_job(site_inputs / "z4.group", jobs.load_digests())
    report, text = job.run()
    report["verdicts"][0]["pass"] = False
    assert any(p.startswith("FAIL") for p in job.check((report, text)))


def test_brute_force_xi_matches_the_tiny_sites(site_inputs):
    assert jobs.brute_force_xi_sizes(site_inputs / "idempotent.cat") == {"*": 2}
    assert jobs.brute_force_xi_sizes(site_inputs / "graph.cat") == {"V": 1, "E": 2}


def test_inputs_repeat_for_a_seed(tmp_path):
    demos = Path(__file__).parents[2] / "demos" / "data"
    inputs.make_inputs("verify", 5, demos, tmp_path / "a")
    inputs.make_inputs("verify", 5, demos, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_failed_and_raising_jobs_are_counted():
    from perfbench.worker import Run

    def boom():
        raise ValueError("no")

    job_list = [jobs.Job("ok", lambda: 1, lambda out: []),
                jobs.Job("wrong", lambda: 2, lambda out: [f"got {out}"]),
                jobs.Job("raises", boom, lambda out: [])]
    run = Run(job_list)
    run.run_for(0, at_least=2)
    assert run.attempted == 6
    assert [name for name, _ in run.failures] == ["wrong", "raises"] * 2
    assert len(run.latencies) == 2 and all(len(p) == 3 for p in run.latencies)


def test_sampler_scales_by_the_mean_host_speed(monkeypatch):
    from perfbench import hostspeed
    times = iter([2 * hostspeed.REFERENCE_S, hostspeed.REFERENCE_S / 2])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(times))
    host = hostspeed.Sampler(period=None)
    host.start()
    host.stop()
    assert host.spent == 0
    assert host.finish() == pytest.approx((0.5 + 2) / 2)


def test_sampler_samples_inside_a_long_job_and_counts_their_time():
    from perfbench import hostspeed
    host = hostspeed.Sampler(period=0.02)
    host.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        sum(range(1000))
    host.stop()
    elapsed = time.perf_counter() - start
    assert len(host.samples) >= 1 + 5
    assert 0 < host.spent < elapsed
    host.finish()
    assert hostspeed.measure() > 0


def test_passes_report_job_times_at_the_nominal_host_speed(monkeypatch):
    from perfbench import hostspeed
    from perfbench.worker import Run
    monkeypatch.setattr(hostspeed, "measure", lambda: 4 * hostspeed.REFERENCE_S)
    run = Run([jobs.Job("sleep", lambda: time.sleep(0.01), lambda out: [])] * 2)
    run.run_for(0, at_least=1)
    (wall, cpu, _, _), = run.passes
    assert wall >= 0.02
    assert len(run.latencies[0]) == 2 and min(run.latencies[0]) >= 0.01 / 4
    assert sum(run.latencies[0]) == pytest.approx(wall / 4)
    assert run.summary(False, corrected=True) == ([pytest.approx(wall / 4)],
                                                  [pytest.approx(cpu / 4)])
