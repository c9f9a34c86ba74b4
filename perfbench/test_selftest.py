"""Quick self-test of the benchmark at small truncations.

Runs every workload in ``--quick`` mode (catalog subset at N=8, sweep over
N=8,10, cold builds at Virasoro N=6 and affine N=4), untraced and traced,
and checks the harness rather than the program's speed: the result line,
the metric names and units against BENCHMARK.json, the span file's
nesting and self times, and the refusal to run without the sources.
Takes about a minute: ``python -m pytest perfbench/test_selftest.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script)] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        return
    record = json.loads(
        (HERE / "results" / f"{workload}-seed2-trace1.json").read_text())
    env = record["environment"]
    assert env["openblas_num_threads_env"] == "1"
    assert all(n == 1 for n in env["blas_threads_in_effect"].values())
    assert env["numpy"] and env["scipy"] and env["cpu_count"]
    check_span_file(ROOT / record["spans"],
                    res["metrics"]["trace.wall_s"]["value"])


def check_span_file(path, traced_wall):
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    assert recs, "no spans written"
    sp = [[r["name"], r["start"], r["end"], r["parent"], r.get("attrs")]
          for r in recs]
    assert [r["id"] for r in recs] == list(range(len(recs)))
    assert spans.nesting_problems(sp) == []
    roots = [i for i, s in enumerate(sp) if s[3] is None]
    assert roots and all(sp[i][0] == "round" for i in roots)
    # each traced round: the self times of the layers inside it add up to
    # no more than the round's wall time
    root_of, selfs = [], spans.self_times(sp)
    layer_self = dict.fromkeys(roots, 0.0)
    for i, s in enumerate(sp):
        assert s[3] is None or s[3] < i
        root_of.append(i if s[3] is None else root_of[s[3]])
        if not s[0].startswith(("round", "op.")):
            layer_self[root_of[i]] += selfs[i]
    for r, total in layer_self.items():
        assert total <= sp[r][2] - sp[r][1] + 1e-9
    assert min(sp[r][2] - sp[r][1] for r in roots) <= traced_wall + 1e-6
    assert any(s[0].startswith("op.") for s in sp)


def test_span_analysis_on_known_nesting():
    # round [0, 10] > op [1, 9] > a [2, 6] > b [3, 4]; a [6.5, 8]
    sp = [["round", 0.0, 10.0, None, None],
          ["op.x", 1.0, 9.0, 0, None],
          ["a", 2.0, 6.0, 1, None],
          ["b", 3.0, 4.0, 2, None],
          ["a", 6.5, 8.0, 1, None]]
    assert spans.self_times(sp) == [2.0, 2.5, 3.0, 1.0, 1.5]
    assert spans.inclusive_time(sp, {"a", "b"}) == 5.5
    assert spans.layer_self_total(sp) == 5.5
    assert spans.nesting_problems(sp) == []
    sp[3][2] = 7.0                          # b now outlives its parent a
    assert spans.nesting_problems(sp)


def test_tracer_records_nesting():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.wrap(inner, "inner")
    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer(1) == 4
    sp = tracer.records()
    assert [s[0] for s in sp] == ["outer", "inner"]
    assert sp[0][3] is None and sp[1][3] == 0
    assert sp[0][1] <= sp[1][1] <= sp[1][2] <= sp[0][2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
