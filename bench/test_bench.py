"""Self-test of the benchmark, kept out of tier-1 (pytest collects ``tests/`` only).

    python3 -m pytest -q bench/test_bench.py

Runs every workload once at toy sizes, so it checks the plumbing, not
the numbers.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import grasp.model  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def toy(monkeypatch):
    """Shrink every input so that a whole run takes seconds."""
    for name, value in dict(POOL=8, HELD_OUT=4, IO_TRAIN=4, IO_TEST=2, TRAIN_STEPS=2,
                            LOSS_TAIL=1, CKPT_ROUNDTRIPS=2, SETUP_REPEATS=2).items():
        monkeypatch.setattr(workloads, name, value)


def make_run(workdir, workload="train"):
    run = workloads.Run(workload, 7, str(workdir))
    with run.step_clock():
        run.setup()
    return run


def test_spec_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(toy, workdir):
    run = make_run(workdir, "train")
    with run.step_clock():
        run.measure(0.0, setups=workloads.SETUP_REPEATS - 1)
    metrics = run.e2e_metrics()
    assert run.failures == []
    assert len(run.setup_s) == workloads.SETUP_REPEATS
    assert {k: m["unit"] for k, m in metrics.items()} == workloads.E2E_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric_and_exact_counts(toy, workdir):
    run = make_run(workdir, "infer")
    tracer = tracing.Tracer()
    with run.step_clock(), run.traced(tracer):
        run.measure(0.0)
    metrics = {k: m["value"] for k, m in workloads.layer_metrics(tracer, run.extra, 1.0).items()}
    assert run.failures == []
    assert set(metrics) == set(workloads.LAYER_UNITS)
    assert metrics["tensor.tape_nodes_per_instance"] == 143
    assert metrics["tensor.backward.calls_per_step"] == workloads.grasp.training.TrainConfig().batch
    assert metrics["tensor.backward.calls_outside_train"] == 0
    assert metrics["tensor.attention.calls_per_forward"] == 2
    calls = {k: metrics[f"model.forward.calls_per_instance.{k}"] for k in workloads.INFER_KINDS}
    assert calls == {"predict": 1, "eval": 1, "two_pass": 2, "ablate": 4, "probe": 3, "stats": 2}
    assert metrics["geometry.sdf.calls_per_distinct_mask.ablate"] == 4

    # each step's wall time is its own self time plus the self times of everything inside it
    spans = tracer.spans
    self_s = [s[tracing.END] - s[tracing.START] for s in spans]
    for s in spans:
        if s[tracing.PARENT] is not None:
            self_s[s[tracing.PARENT]] -= s[tracing.END] - s[tracing.START]
    inside = {}
    for i, s in enumerate(spans):
        p = s[tracing.PARENT]
        while p is not None:
            inside.setdefault(p, []).append(i)
            p = spans[p][tracing.PARENT]
    steps = [i for i, s in enumerate(spans) if s[tracing.NAME] == "training.step"]
    assert len(steps) == workloads.TRAIN_STEPS
    for i in steps:
        wall = spans[i][tracing.END] - spans[i][tracing.START]
        assert self_s[i] + sum(self_s[j] for j in inside.get(i, [])) == pytest.approx(wall, abs=1e-9)
        assert {spans[j][tracing.NAME] for j in inside[i]} >= {
            "synthdata.training_vm", "model.forward", "training.total_loss",
            "tensor.backward", "training.adamw_step"}


def test_trace_overhead_compares_medians_of_the_same_requests():
    untraced = {"predict": [1.0, 9.0, 1.0], "gen": [2.0], "setup": [5.0]}
    traced = {"predict": [1.5, 1.5], "gen": [3.0, 3.0, 9.0], "setup": [50.0], "train": [7.0]}
    assert workloads.trace_overhead(untraced, traced) == pytest.approx(4.5 / 3.0)


def test_same_seed_same_inputs_other_seed_other_inputs(toy):
    assert workloads.Inputs(3).digest() == workloads.Inputs(3).digest()
    assert workloads.Inputs(3).digest() != workloads.Inputs(4).digest()


def test_checks_fire_on_a_corrupted_checkpoint(toy, workdir, monkeypatch):
    run = make_run(workdir)
    save = grasp.model.save_checkpoint

    def save_and_corrupt(path, model, **kwargs):
        save(path, model, **kwargs)
        with open(path, "r+b") as fh:  # flip one bit of the last parameter block
            fh.seek(-3, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-3, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x10]))

    monkeypatch.setattr(grasp.model, "save_checkpoint", save_and_corrupt)
    run.request("ckpt", run.checkpoint)
    assert len(run.failures) == 1
    assert "changed the parameters" in run.failures[0]["problems"][0]


def test_checks_fire_on_a_wrong_dataset_read(toy, workdir):
    run = make_run(workdir)
    run.request("gen", run.gen)
    run.inputs.io_expected[0][1] = run.inputs.io_expected[0][1][::-1]
    run.request("read", run.read)
    assert [f["request"].split("#")[0] for f in run.failures] == ["read"]


def test_exits_nonzero_without_the_library(workdir):
    bare = workdir / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
