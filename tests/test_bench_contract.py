"""The library names the benchmark harness patches at run time.

``bench/tracing.py`` wraps public functions and methods by name, and the
bench's step clock replaces ``grasp.training.cosine_lr``.  A rename or a
changed call pattern in the library would break a bench run outside any
request, so these checks keep the contract inside the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

import grasp
import grasp.evalkit
import grasp.geometry
import grasp.training
from grasp.model import GraspConfig, GraspModel
from grasp.synthdata import SceneConfig, generate_scene
from grasp.tensor import Tape
from grasp.training import AdamW, TrainConfig, total_loss, train

BENCH = Path(__file__).resolve().parent.parent / "bench"
SMALL = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                    vm_hidden=4, decoder_hidden=8)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every grasp module and patched class, with a copy of its attributes."""
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "grasp" or n.startswith("grasp.")]
    owners += [GraspModel, AdamW]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_installs_and_restores_every_patch_point():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # imports every module it patches, so snapshot after a restore
    finally:
        tracer.restore()
    before = _namespaces()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.restore()
    assert len(patched) >= 40
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        changed = [k for k, v in attrs.items() if now[k] is not v]
        assert not changed, (owner, changed)
    for target, attr, fn in patched:
        assert getattr(target, attr) is fn, (target, attr)


def test_one_traced_forward_opens_each_stage_span_once():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    model = GraspModel(SMALL, seed=0)
    inst = generate_scene(1, SceneConfig(size=16, min_objects=2, max_objects=2))[0]
    try:
        tracing.install(tracer)
        model.forward(inst.image, inst.visible)
    finally:
        tracer.restore()
    names = [span[tracing.NAME] for span in tracer.spans]
    stages = {name: names.count(name) for name in (
        "model.forward", "model.encode", "model.vm_encode_fuse", "model.spm", "geometry.sdf",
        "model.gate_inject", "model.decode")}
    assert stages == {"model.forward": 1, "model.encode": 1, "model.vm_encode_fuse": 1,
                      "model.spm": 1, "geometry.sdf": 1, "model.gate_inject": 2,
                      "model.decode": 2}
    forward = names.index("model.forward")
    assert all(tracer.spans[i][tracing.ROOT] == forward for i in range(len(names)))


def test_one_traced_sdf_opens_edt_sq_twice():
    # geometry.edt_sq.ms is read from spans of the public name, so sdf must
    # keep calling it by that name, once per side of the mask
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    inst = generate_scene(1, SceneConfig(size=16, min_objects=2, max_objects=2))[0]
    try:
        tracing.install(tracer)
        grasp.geometry.sdf(inst.visible)
    finally:
        tracer.restore()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names == ["geometry.sdf", "geometry.edt_sq", "geometry.edt_sq"], names
    assert all(span[tracing.PARENT] == 0 for span in tracer.spans[1:])


def test_traced_evaluate_opens_each_stage_span_once_per_instance():
    # inference runs untaped; the tracer must still see every stage of it
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    model = GraspModel(SMALL, seed=0)
    insts = [inst for seed in range(2)
             for inst in generate_scene(seed, SceneConfig(size=16, min_objects=2, max_objects=2))]
    try:
        tracing.install(tracer)
        grasp.evalkit.evaluate(model, insts, "oracle")
    finally:
        tracer.restore()
    names = [span[tracing.NAME] for span in tracer.spans]
    n = len(insts)
    stages = {name: names.count(name) for name in (
        "model.forward", "model.encode", "model.vm_encode_fuse", "model.spm", "geometry.sdf",
        "model.gate_inject", "model.decode")}
    # gate and inject share one span name, as do the decoder's two halves
    assert stages == {"model.forward": n, "model.encode": n, "model.vm_encode_fuse": n,
                      "model.spm": n, "geometry.sdf": n, "model.gate_inject": 2 * n,
                      "model.decode": 2 * n}
    assert names.count("tensor.attention") == 2 * n


def test_train_calls_module_cosine_lr_once_per_step(monkeypatch):
    insts = generate_scene(0, SceneConfig(size=16, min_objects=2, max_objects=2))
    steps = []
    cosine_lr = grasp.training.cosine_lr

    def stamped(step, total_steps, lr0):
        steps.append(step)
        return cosine_lr(step, total_steps, lr0)

    monkeypatch.setattr(grasp.training, "cosine_lr", stamped)
    train(GraspModel(SMALL, seed=0), insts, TrainConfig(steps=3, batch=2, lr=1e-3))
    assert steps == [0, 1, 2]


def test_instance_loss_can_be_traced_as_a_tape():
    model = GraspModel(SMALL, seed=0)
    inst = generate_scene(1, SceneConfig(size=16, min_objects=2, max_objects=2))[0]
    result = total_loss(model.forward(inst.image, inst.visible), inst.amodal, inst.visible)
    assert isinstance(result, tuple) and len(result) == 2
    tape = Tape.trace(result[0])
    assert tape.tensors and tape.tensors[-1] is result[0]
