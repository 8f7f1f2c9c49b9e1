"""Smoke runs of the checked-in benchmark scripts at tiny shapes."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name, monkeypatch):
    # the script pins BLAS threads in os.environ on import; undo that after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_streaming_script_records_a_tiny_run(tmp_path, monkeypatch):
    bench = load_script("streaming", monkeypatch)
    monkeypatch.setattr(bench, "SHAPES", ((8, 3, 4, 2, 6, (1, 2)),))
    monkeypatch.setattr(bench, "REPEATS", 2)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    # batch is timed on the engine's helper threads: switch threads often,
    # so an unlocked count may lose updates
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bench.main(["--label", "smoke", "--out", str(out)])
    finally:
        sys.setswitchinterval(interval)
    results = json.loads(out.read_text())
    assert results["before"] == {"kept": True}
    (shape,) = results["smoke"]["shapes"]
    assert shape["shape"]["seeds"] == [1, 2] and shape["shape"]["repeats"] == 2
    assert len(shape["runs"]) == 4
    # one shared batch per (round, step) plus the one that sizes eta0
    assert shape["batches_per_run"] == 4 * 2 + 1
    assert set(shape["median"]) == {"wall_s", "provider_s"}
    for run in shape["runs"]:
        assert run["batches"] == 9 and len(run["final_errors"]) == 3
        # summed over helper threads, so it may exceed the wall time
        assert run["provider_s"] > 0.0 and "update_s" not in run


def test_memory_script_records_a_tiny_run(tmp_path, monkeypatch):
    from pardefl import cli, engine

    bench = load_script("memory", monkeypatch)
    monkeypatch.setattr(bench, "SHAPES", (
        ("tiny-dense", "parallel_deflation", 8, 2, 4, 1, None, None),
        ("tiny-stream", "stochastic_parallel_deflation", 6, 2, 3, 2, 8, None),
        ("tiny-data", "eigengame_mu", 6, 2, 3, 2, None, 40),
    ))
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    bench.main(["--label", "smoke", "--out", str(out)])
    results = json.loads(out.read_text())
    assert results["before"] == {"kept": True}
    shapes = {s["name"]: s for s in results["smoke"]["shapes"]}
    assert list(shapes) == ["tiny-dense", "tiny-stream", "tiny-data"]
    common = {"sigma", "engine", "metric", "trial_csv", "write", "aggregate"}
    # a synthetic run is scored inside its engine call
    for name in shapes:
        assert set(shapes[name]["phases"]) == common, name
    assert shapes["tiny-dense"]["trace_mb"] == 4 * 2 * 8 * 8 / 1e6
    assert shapes["tiny-data"]["data_mb"] == 40 * 6 * 8 / 1e6
    for s in shapes.values():
        for phase in s["phases"].values():
            assert 0 < phase["own_mb"] <= phase["peak_mb"] <= s["run_peak_mb"]
    # the phase wrappers are gone once the script returns
    assert cli.attach_oracle is engine.attach_oracle
    assert cli._Problem.metric_series.__name__ == "metric_series"
