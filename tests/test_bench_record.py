"""scripts/bench_record.py: one benchmark run per workload, gathered into
one trend file with the seed, the run length and the processor count."""

import importlib.util
import json
import pathlib
import subprocess

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _fake_runs(monkeypatch, broken=()):
    calls = []

    def run(argv, cwd, stdout, text):
        calls.append(argv)
        name = argv[argv.index("--workload") + 1]
        if name in broken:
            return subprocess.CompletedProcess(argv, 1, "")
        line = json.dumps({"correct": True, "metrics": {"pass_s": 1.0}})
        return subprocess.CompletedProcess(argv, 0, f"progress\n{line}\n")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    return calls


def test_one_untraced_run_per_declared_workload(monkeypatch):
    calls = _fake_runs(monkeypatch)
    trend = bench_record.record(7, 40.0)
    declared = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert [argv[argv.index("--workload") + 1] for argv in calls] == names
    for argv in calls:
        assert argv[:len(declared["command"])] == declared["command"]
        assert argv[-6:] == ["--seed", "7", "--seconds", "40.0", "--trace", "0"]
    assert trend["seed"] == 7 and trend["seconds"] == 40.0 and trend["nproc"] >= 1
    assert trend["results"] == {name: {"correct": True, "metrics": {"pass_s": 1.0}}
                                for name in names}


def test_a_failed_run_is_recorded_and_fails_the_script(monkeypatch, tmp_path):
    _fake_runs(monkeypatch, broken={"hawkes-eval"})
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "bench/run.py"],
        "workloads": [{"name": "csep-test"}, {"name": "hawkes-eval"}]}))
    assert bench_record.main(["--n", "99", "--seed", "3", "--seconds", "5"]) == 1
    trend = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert trend["results"]["hawkes-eval"] == {"correct": False, "exit_code": 1}
    assert trend["results"]["csep-test"]["correct"] is True
