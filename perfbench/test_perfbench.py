"""Self-tests of the benchmark on its tiny configuration (a g<=4 grid and a
handful of kernel items).  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = ("grid-g7", "identity-g6", "kernels-seeded")


def bench(workload, trace=0, seed=1, script=os.path.join(HERE, "run.py"), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    for line in lines[:-1]:
        _, metric, value, unit = line.split(" ")[:4]
        printed[metric] = (float(value), unit)
    return proc.returncode, result, printed


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(workload, trace):
    code, result, printed = bench(workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed[name][1] == unit
    assert printed["failed_frac"] == (0.0, "fraction")


@pytest.mark.parametrize("workload", ("grid-g7", "grid-g7-cli-j2"))
def test_corrupted_grid_reference_trips_the_gate(workload, tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    ref = copy / "ref" / "grid-g7.csv"
    lines = ref.read_text().splitlines(keepends=True)
    assert lines[3].startswith("housing,3,0,3,1,1,1,")
    lines[3] = lines[3].replace("housing,3,0,3,1,1,1,", "housing,3,0,3,1,2,1,")
    ref.write_text("".join(lines))
    code, result, printed = bench(workload, script=str(copy / "run.py"))
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert printed["failed_frac"][0] > 0


def test_corrupted_identity_reference_trips_the_gate():
    ref = checks.load_reference("identity-g6", 1, True)
    item = ["span", 4, 1]
    stored = ref[workloads.key(item)]
    assert checks.item_ok(None, "identity-g6", item, stored, ref)
    corrupted = dict(ref, **{workloads.key(item): dict(stored, rank_eta=stored["rank_eta"] + 1)})
    assert not checks.item_ok(None, "identity-g6", item, stored, corrupted)


def test_kernel_values_checked_against_the_direct_sums():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from soclerank import exact, partitions, socle

    sr = type("Modules", (), {"partitions": partitions, "exact": exact})
    for item in workloads.items("kernels-seeded", 1, tiny=True):
        if item[0] == "oracle":
            continue
        value = str(getattr(socle, item[0])(tuple(item[1]), tuple(item[2])))
        assert checks.item_ok(sr, "kernels-seeded", item, value, {})
        wrong = str(getattr(socle, item[0])(tuple(item[1]), tuple(item[2])) + 1)
        assert not checks.item_ok(sr, "kernels-seeded", item, wrong, {})


def test_stored_kernel_reference_matches_the_default_seed_items():
    ref = checks.load_reference("kernels-seeded", workloads.DEFAULT_SEED, False)
    items = workloads.items("kernels-seeded", workloads.DEFAULT_SEED)
    assert sorted(ref) == sorted(workloads.key(i) for i in items)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_traced_self_times_sum_within_the_traced_wall(workload):
    code, _, printed = bench(workload, trace=1)
    assert code == 0
    self_sum, wall = printed["traced.self_sum_s"][0], printed["traced.wall_s"][0]
    assert 0 < self_sum <= wall


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        _, result, _ = bench(workload, trace=1, seed=5)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    code, result, _ = bench("grid-g7", script="perfbench/run.py", cwd=tmp_path)
    assert code not in (0, 1) and result is None


def test_time_limit_exits_3_without_a_result(monkeypatch, capsys):
    def too_slow(*args):
        raise run.TimeLimit("grid-g7 pass ran past the run's limit")

    monkeypatch.setattr(run, "measure", too_slow)
    assert run.main(["--workload", "grid-g7", "--seconds", "0", "--tiny"]) == 3
    assert capsys.readouterr().out == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(parent, [v - 1 for v in parent], 0.1, True) == ("improved", 10)
    assert compare.verdict(parent, [v + 2 for v in parent], 0.1, True)[0] == "worse"
    assert compare.verdict(parent, [v + 0.1 for v in parent], 0.1, True)[0] == "no worse"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, [v + 0.1 for v in noisy], 0.1, True)[0] == "unresolved"
    assert compare.verdict(noisy, [v + 20 for v in noisy], 0.1, True)[0] == "worse"
    assert compare.verdict(noisy, [4.9] * 10, 0.1, True)[0] == "no worse"
    assert compare.verdict(parent, [v + 1 for v in parent], None, False) == ("improved", 10)


def test_report_reads_every_appended_batch(tmp_path, capsys, monkeypatch):
    """Two ``pairs`` calls into one file: the second batch is numbered after
    the first, and ``report`` pairs and counts all forty runs."""
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        seed = int(cmd[cmd.index("--seed") + 1])
        calls.append(cmd[cmd.index("--workload") + 1])
        value = 10.0 + seed % 3 + (0.5 if cwd == "change" else 0.0)
        metrics = {"wall_s": {"value": value, "unit": "s"}}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(compare.subprocess, "run", fake_run)
    monkeypatch.setattr(compare, "_load_benchmark", lambda: {
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}], "per_layer": []})
    out = str(tmp_path / "pairs.jsonl")
    for _ in range(2):
        assert compare.main(["pairs", "--parent", "parent", "--change", "change",
                             "--out", out, "--first-seed", "7"]) == 0
    records = [json.loads(line) for line in open(out)]
    assert len(calls) == len(records) == 4 * compare.MIN_PAIRS
    assert sorted({r["pair"] for r in records}) == list(range(2 * compare.MIN_PAIRS))
    capsys.readouterr()
    compare.main(["report", out])
    printed = capsys.readouterr().out
    assert "%d runs read" % len(records) in printed
    assert "%d/%d" % (0, 2 * compare.MIN_PAIRS) in printed
    assert "lack a side" not in printed
