"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import inputs
import layers
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _rounds(workload, seed, count):
    rounds = inputs.Rounds(workload, seed)
    return json.dumps([next(rounds) for _ in range(count)], sort_keys=True)


def test_same_seed_gives_byte_identical_inputs():
    for workload in inputs.WORKLOADS:
        first = _rounds(workload, 7, 40)
        assert first == _rounds(workload, 7, 40)
        assert first != _rounds(workload, 8, 40)


def test_inputs_are_distinct_within_a_run():
    for workload in inputs.WORKLOADS:
        rounds = inputs.Rounds(workload, 3)
        tasks = [json.dumps(task, sort_keys=True)
                 for _ in range(60) for task in next(rounds)]
        assert len(tasks) == len(set(tasks))


def _free(f):
    tag = f[0]
    if tag in ("eq", "P"):
        return {t[1] for t in f[1:] if t[0] == "v"}
    if tag == "not":
        return _free(f[1])
    if tag in ("or", "and"):
        return _free(f[2]) | _free(f[3])
    return _free(f[3]) - {f[1]}


def test_sentences_are_closed_and_within_the_depth_limit():
    rounds = inputs.Rounds("sentences", 5)
    for index in range(40):
        for task in next(rounds):
            assert inputs.height(task["ast"]) <= inputs.HEIGHT_LIMIT
            assert not _free(task["ast"])
            if task["K"] == 3:
                assert (inputs.open_slashes(task["ast"])
                        == (index % inputs.OPEN_EVERY == 0))


def test_structure_files_match_the_oracles_structures():
    for size, path in inputs.STRUCTURE_FILES.items():
        with open(os.path.join(ROOT, path)) as handle:
            assert handle.read() == inputs.structure_text(
                inputs.STRUCTURES[size])


def test_oracles_reproduce_the_worked_values():
    assert oracle.self_test() == []


def test_laws_cover_the_registry_but_absorption_flat():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ifg import algebra
    assert set(algebra.law_names()) - set(inputs.LAW_NAMES) == {
        "absorption-flat"}
    assert set(inputs.LAW_NAMES) <= set(algebra.law_names())


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layers.metric_units())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"}


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_short_run_of_every_workload_has_no_failures():
    result = _run("--workload", "all", "--seed", "3", "--seconds", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    for workload in inputs.WORKLOADS:
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb",
                     "setup_s"):
            assert result["metrics"]["%s/%s" % (workload, name)]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = _run("--workload", "meanings", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.metric_units())
    assert result["metrics"]["trump.Evaluator.winning_mask.calls"]["value"] > 0
    assert result["metrics"]["cli.main.calls"]["value"] > 0
