"""Smoke runs of the checked-in benchmark scripts at tiny shapes."""

import importlib.util
import json
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
    bench.main(["--label", "smoke", "--out", str(out)])
    results = json.loads(out.read_text())
    assert results["before"] == {"kept": True}
    (shape,) = results["smoke"]["shapes"]
    assert shape["shape"]["seeds"] == [1, 2] and shape["shape"]["repeats"] == 2
    assert len(shape["runs"]) == 4
    # one shared batch per (round, step) plus the one that sizes eta0
    assert shape["batches_per_run"] == 4 * 2 + 1
    for run in shape["runs"]:
        assert run["batches"] == 9 and len(run["final_errors"]) == 3
        assert 0.0 <= run["provider_s"] <= run["wall_s"]
