"""Smoke test of the benchmark itself, at the smallest sizes.

Runs each workload's generator and oracles once, untraced and traced, and
checks that the metric names agree with BENCHMARK.json. Run with
`python3 -m pytest perfbench/test_smoke.py`.
"""

import json

import pytest

import run
import tracer
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def domain_state():
    mods = workloads.import_rsadyn()
    return (mods,) + workloads.domain_setup(mods)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_smallest(name, traced, tmp_path, domain_state):
    wl = workloads.WORKLOADS[name]
    done = run.run_pass(wl, 7, tmp_path, traced=traced, small=True,
                        state=domain_state if wl.jobs is None else None)
    assert done.outcomes
    assert [o.problem for o in done.outcomes if o.problem] == []
    assert done.work > 0
    if traced:
        total = {}
        for out in done.outcomes:
            if out.spans is not None:
                tracer.merge(total, tracer.summarize(out.spans["spans"],
                                                     out.spans["counts"]))
        assert total, "the traced pass recorded no spans"


def test_salem_command_builds_two_certificates(tmp_path):
    job = workloads.Job(["salem", "--n", "4", "--m", "1"], 0, "salem", (4, 1))
    done = workloads.run_cli_pass([job], tmp_path, lambda outs, jobs: 1,
                                  traced=True)
    out = done.outcomes[0]
    assert out.problem is None
    summary = tracer.summarize(out.spans["spans"], out.spans["counts"])
    assert summary["salem.salem_certificate.calls"] == 2


def test_oracles_reject_wrong_outputs(tmp_path):
    job = workloads.Job(["salem", "--n", "4", "--m", "1"], 0, "salem", (4, 1))
    report = {"coefficients": ["1", "-1", "-1", "-1", "1"], "salem": True,
              "entropy": "0.5435350476"}
    problem, _ = workloads.check_cli(job, 0, json.dumps(report), tmp_path)
    assert problem and "entropy" in problem
    report["coefficients"][1] = "0"
    problem, _ = workloads.check_cli(job, 0, json.dumps(report), tmp_path)
    assert problem and "coefficients" in problem
    problem, _ = workloads.check_cli(job, 4, json.dumps(report), tmp_path)
    assert problem == "exit 4, expected 0"


def test_tail_has_ten_samples_beyond():
    lat = list(range(40))
    value, pct = run.tail(lat)
    assert value == 29 and len([x for x in lat if x > value]) == 10
    assert pct == 75.0
    assert run.tail([1, 2, 3]) == (3, 100.0)


def test_self_time_subtracts_children_across_threads():
    spans = [["outer", None, 1, 0.0, 10.0],
             ["inner", 0, 2, 1.0, 6.0],
             ["inner", 0, 3, 2.0, 8.0]]
    out = tracer.summarize(spans, {})
    assert out["outer.self_s"] == pytest.approx(3.0)
    assert out["inner.self_s"] == pytest.approx(11.0)
    assert out["inner.calls"] == 2


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in SPEC["end_to_end"]] == \
        [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.WORKLOADS)


def _report_file(path, kernel_backend, wall):
    metrics = {name: {"value": wall, "unit": unit, "samples": 1}
               for name, unit in run.END_TO_END}
    report = {"workload": "census", "trace": 0, "metrics": metrics,
              "provenance": {"kernel_backend": kernel_backend,
                             "have_numba": kernel_backend == "numba"}}
    path.write_text(json.dumps({"report": report}) + "\n")
    return str(path)


def test_compare_refuses_mixed_backends_and_flags_regressions(tmp_path):
    import compare
    base = _report_file(tmp_path / "a.txt", "numpy", 1.0)
    assert compare.main([base, "--vs",
                         _report_file(tmp_path / "b.txt", "numba", 1.0)]) == 2
    assert compare.main([base, "--vs",
                         _report_file(tmp_path / "c.txt", "numpy", 1.01)]) == 0
    assert compare.main([base, "--vs",
                         _report_file(tmp_path / "d.txt", "numpy", 2.0)]) == 1
