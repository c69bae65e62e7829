"""Losses, the optimizer, the schedule, and the training loop."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import gradcheck
from grasp import training
from grasp.errors import ConfigError, IntegrityError, TrainingDiverged
from grasp.geometry import BinaryMask, mask_diff
from grasp.model import GraspConfig, GraspModel, load_checkpoint
from grasp.synthdata import SceneConfig, generate_dataset, generate_scene
from grasp.tensor import Tensor, backward, zero_grads
from grasp.training import (
    DICE_EPS,
    AdamW,
    LossBreakdown,
    TrainConfig,
    bce_with_logits,
    cosine_lr,
    dice_loss,
    total_loss,
    train,
    write_loss_csv,
)

SMALL = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                    vm_hidden=4, decoder_hidden=8)


def _tiny_data(n=6, seed=0):
    return generate_dataset(n, seed, SceneConfig(size=16, min_objects=2, max_objects=3))


# -- binary cross-entropy ------------------------------------------------------


def test_bce_zero_logits_is_exactly_log_two():
    logits = Tensor(np.zeros((16, 16)))
    target = np.random.default_rng(0).random((16, 16)) < 0.5
    # max(0,0) - 0*t + log(1 + e^0) = log 2 for every pixel, any target
    assert bce_with_logits(logits, target).item() == math.log(2.0)


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(0.0, 3.0, (7, 9))
        t = (rng.random((7, 9)) < 0.5).astype(float)
        got = bce_with_logits(Tensor(x), t).item()
        want = np.mean(np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x))))
        assert got == pytest.approx(want, rel=1e-12)


def test_bce_matches_probability_form_at_moderate_logits():
    rng = np.random.default_rng(2)
    x = rng.uniform(-4.0, 4.0, (6, 6))
    t = (rng.random((6, 6)) < 0.5).astype(float)
    p = 1.0 / (1.0 + np.exp(-x))
    want = -np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    assert bce_with_logits(Tensor(x), t).item() == pytest.approx(want, rel=1e-10)


def test_bce_is_stable_and_exact_at_huge_logits():
    assert bce_with_logits(Tensor([[1000.0]]), np.array([[1.0]])).item() == 0.0
    assert bce_with_logits(Tensor([[-1000.0]]), np.array([[0.0]])).item() == 0.0
    assert bce_with_logits(Tensor([[1000.0]]), np.array([[0.0]])).item() == 1000.0
    assert bce_with_logits(Tensor([[-1000.0]]), np.array([[1.0]])).item() == 1000.0


def test_bce_gradients():
    rng = np.random.default_rng(3)
    t = (rng.random((4, 5)) < 0.5).astype(float)
    x = Tensor(rng.normal(0.0, 2.0, (4, 5)) + 0.3, requires_grad=True)
    gradcheck(lambda: bce_with_logits(x, t), [x], label="bce")


def test_bce_gradient_is_sigmoid_minus_target():
    rng = np.random.default_rng(4)
    t = (rng.random((5, 5)) < 0.5).astype(float)
    x = Tensor(rng.normal(0.0, 2.0, (5, 5)), requires_grad=True)
    backward(bce_with_logits(x, t))
    want = (1.0 / (1.0 + np.exp(-x.data)) - t) / t.size
    assert np.allclose(x.grad, want, atol=1e-12)


# -- dice -----------------------------------------------------------------------


def test_dice_hand_value_uniform_half_probabilities():
    n = 64
    logits = Tensor(np.zeros((8, 8)))
    target = np.ones((8, 8))
    got = dice_loss(logits, target).item()
    want = 1.0 - (2 * (0.5 * n) + DICE_EPS) / (0.5 * n + n + DICE_EPS)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_dice_empty_target():
    logits = Tensor(np.zeros((4, 4)))
    got = dice_loss(logits, np.zeros((4, 4))).item()
    want = 1.0 - DICE_EPS / (8.0 + DICE_EPS)
    assert got == pytest.approx(want, rel=1e-14)


def test_dice_perfect_prediction_goes_to_zero():
    target = np.zeros((6, 6))
    target[2:5, 1:4] = 1.0
    logits = Tensor(np.where(target > 0, 40.0, -40.0))
    assert dice_loss(logits, target).item() == pytest.approx(0.0, abs=1e-9)


def test_dice_worst_prediction_goes_to_one():
    target = np.zeros((6, 6))
    target[:3] = 1.0
    logits = Tensor(np.where(target > 0, -40.0, 40.0))
    assert dice_loss(logits, target).item() == pytest.approx(1.0, abs=1e-6)


def test_dice_gradients():
    rng = np.random.default_rng(5)
    t = (rng.random((4, 4)) < 0.4).astype(float)
    x = Tensor(rng.normal(0.0, 1.5, (4, 4)), requires_grad=True)
    gradcheck(lambda: dice_loss(x, t), [x], label="dice")


# -- combined loss -----------------------------------------------------------------


def _trace(model, inst, vm=None):
    return model.forward(inst.image, vm if vm is not None else inst.visible)


def test_total_loss_breakdown_identities():
    model = GraspModel(SMALL, seed=0)
    for inst in _tiny_data(4):
        loss, b = total_loss(_trace(model, inst), inst.amodal, inst.visible)
        assert loss.item() == b.total
        assert b.amodal == b.bce_amodal + b.dice_amodal
        assert b.occluded == b.bce_occluded + b.dice_occluded
        assert b.total == b.amodal + 1.5 * b.occluded


def test_total_loss_occ_weight_scaling():
    model = GraspModel(SMALL, seed=0)
    inst = _tiny_data(1)[0]
    tr = _trace(model, inst)
    _, b0 = total_loss(tr, inst.amodal, inst.visible, occ_weight=0.0)
    _, b2 = total_loss(tr, inst.amodal, inst.visible, occ_weight=2.0)
    assert b0.total == b0.amodal
    assert b2.total == b2.amodal + 2.0 * b2.occluded
    assert b0.amodal == b2.amodal and b0.occluded == b2.occluded


def test_total_loss_occluded_target_is_ground_truth_difference():
    model = GraspModel(SMALL, seed=0)
    inst = next(i for i in _tiny_data(8) if i.occluded.any())
    tr = _trace(model, inst)
    _, b = total_loss(tr, inst.amodal, inst.visible)
    occ_gt = inst.amodal.a & ~inst.visible.a
    assert b.bce_occluded == bce_with_logits(tr.logits_occ, occ_gt).item()
    assert b.dice_occluded == dice_loss(tr.logits_occ, occ_gt).item()


def test_total_loss_target_is_insensitive_to_the_fed_mask():
    # feeding a perturbed mask must not silently change the loss targets
    model = GraspModel(SMALL, seed=0)
    inst = next(i for i in _tiny_data(8) if i.occluded.any())
    clean = _trace(model, inst)
    _, b_clean = total_loss(clean, inst.amodal, inst.visible)
    # same trace, same targets: only the *inputs* may vary, never the targets
    _, b_again = total_loss(clean, inst.amodal, inst.visible)
    assert b_clean == b_again


def _chain_total_loss(trace, amodal_gt, visible_gt, occ_weight=training.OCC_WEIGHT):
    """The combined loss as a chain of elementary tape ops, one per expression."""
    occ_gt = mask_diff(amodal_gt, visible_gt)
    bce_a = bce_with_logits(trace.logits_amodal, amodal_gt.a)
    dice_a = dice_loss(trace.logits_amodal, amodal_gt.a)
    bce_o = bce_with_logits(trace.logits_occ, occ_gt.a)
    dice_o = dice_loss(trace.logits_occ, occ_gt.a)
    amodal = bce_a + dice_a
    occluded = bce_o + dice_o
    total = amodal + float(occ_weight) * occluded
    terms = (bce_a, dice_a, bce_o, dice_o, amodal, occluded, total)
    return total, LossBreakdown(*(t.item() for t in terms))


def _open_pathways(model):
    # zero-init scalars block gradients at exact init
    groups = model.params.groups
    groups["vm_attention"]["gamma"].data[...] = 0.2
    groups["gate"]["alpha"].data[...] = 0.7
    groups["gate"]["beta"].data[...] = -0.1
    groups["sdf_query"]["direction"].data[...] = 0.05


def _loss_run(loss_fn, model, inst, visible_gt, occ_weight):
    """Breakdown, both logits' gradients and every parameter gradient of one loss."""
    trainable = model.params.trainable()
    trace = _trace(model, inst)
    leaves = [Tensor(t.data, requires_grad=True) for t in (trace.logits_amodal, trace.logits_occ)]
    on_leaves = replace(trace, logits_amodal=leaves[0], logits_occ=leaves[1])
    loss, breakdown = loss_fn(on_leaves, inst.amodal, visible_gt, occ_weight=occ_weight)
    backward(loss)
    zero_grads(trainable)
    loss, again = loss_fn(trace, inst.amodal, visible_gt, occ_weight=occ_weight)
    (loss * 0.125).backward()  # the batch-8 scale train applies
    assert again == breakdown
    return breakdown, [t.grad for t in leaves] + [t.grad.copy() for t in trainable]


@pytest.mark.parametrize("case", ["default", "sdf_query_mod 8 heads", "occ_weight 0",
                                  "occ_weight 2", "empty occluded target"])
def test_total_loss_is_bit_equal_to_the_elementary_chain(case):
    cfg = GraspConfig(sdf_query_mod=True, heads=8) if case.startswith("sdf") else GraspConfig()
    occ_weight = {"occ_weight 0": 0.0, "occ_weight 2": 2.0}.get(case, training.OCC_WEIGHT)
    model = GraspModel(cfg, seed=3)
    _open_pathways(model)
    inst = next(i for i in generate_scene(5, SceneConfig()) if i.occluded.any())
    visible_gt = inst.amodal if case == "empty occluded target" else inst.visible
    got_b, got = _loss_run(total_loss, model, inst, visible_gt, occ_weight)
    want_b, want = _loss_run(_chain_total_loss, model, inst, visible_gt, occ_weight)
    assert [getattr(got_b, f).hex() for f in LossBreakdown.FIELDS] == \
        [getattr(want_b, f).hex() for f in LossBreakdown.FIELDS]
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.tobytes() == b.tobytes(), f"{case}: gradient {i} differs"


def test_total_loss_gradients():
    rng = np.random.default_rng(8)
    amodal = BinaryMask(rng.random((5, 4)) < 0.6)
    visible = BinaryMask(amodal.a & (rng.random((5, 4)) < 0.5))
    xa = Tensor(rng.normal(0.0, 1.5, (5, 4)), requires_grad=True)
    xo = Tensor(rng.normal(0.0, 1.5, (5, 4)), requires_grad=True)
    trace = SimpleNamespace(logits_amodal=xa, logits_occ=xo)
    gradcheck(lambda: total_loss(trace, amodal, visible)[0], [xa, xo], label="total_loss")


def test_train_is_bit_equal_to_training_on_the_elementary_chain(monkeypatch):
    insts = _tiny_data(6)
    cfg = TrainConfig(steps=12, batch=3, lr=3e-3, seed=5)
    fused = GraspModel(SMALL, seed=4)
    got = train(fused, insts, cfg)
    monkeypatch.setattr(training, "total_loss", _chain_total_loss)
    chain = GraspModel(SMALL, seed=4)
    want = train(chain, insts, cfg)
    assert got.history == want.history
    for (_, _, a), (_, _, b) in zip(fused.params.named_all(), chain.params.named_all()):
        assert a.data.tobytes() == b.data.tobytes()


def test_total_loss_rejects_visible_outside_amodal():
    model = GraspModel(SMALL, seed=0)
    inst = _tiny_data(1)[0]
    tr = _trace(model, inst)
    bad_visible = BinaryMask.full(16, 16)
    if inst.amodal.all():
        pytest.skip("degenerate scene")
    with pytest.raises(IntegrityError):
        total_loss(tr, inst.amodal, bad_visible)


# -- schedule -------------------------------------------------------------------


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 3e-4) == 3e-4
    assert cosine_lr(100, 100, 3e-4) == 0.0
    assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)


def test_cosine_schedule_monotone_and_clamped():
    lrs = [cosine_lr(s, 40, 1.0) for s in range(41)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert cosine_lr(-5, 40, 1.0) == 1.0
    assert cosine_lr(99, 40, 1.0) == 0.0
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1.0)


# -- optimizer ---------------------------------------------------------------------


def test_adamw_zero_gradient_zero_decay_is_a_fixed_point():
    p = Tensor([[1.5, -2.5]], requires_grad=True)
    keep = p.data.copy()
    opt = AdamW(p.data, p.grad, weight_decay=0.0)
    for _ in range(5):
        opt.step(0.1)
    assert np.array_equal(p.data, keep)


def test_adamw_decay_is_decoupled_from_the_gradient():
    p = Tensor([[2.0]], requires_grad=True)
    opt = AdamW(p.data, p.grad, weight_decay=0.01)
    opt.step(0.5)  # zero gradient: only decay acts
    assert p.data[0, 0] == 2.0 - 0.5 * 0.01 * 2.0


def test_adamw_single_step_matches_hand_formula():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((3, 2))
    g = rng.standard_normal((3, 2))
    p = Tensor(x0, requires_grad=True)
    p.grad[...] = g
    opt = AdamW(p.data, p.grad, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4)
    opt.step(1e-2)
    # bias-corrected first step: mhat = g, vhat = g^2
    want = x0 - 1e-2 * (g / (np.abs(g) + 1e-8) + 1e-4 * x0)
    assert np.allclose(p.data, want, atol=1e-15)


def test_adamw_matches_reference_loop():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(4)
    p = Tensor(x0, requires_grad=True)
    opt = AdamW(p.data, p.grad, beta1=0.9, beta2=0.99, eps=1e-8, weight_decay=0.02)
    x = x0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        g = rng.standard_normal(4)
        p.grad[...] = g
        opt.step(3e-3)
        m = 0.9 * m + 0.1 * g
        v = 0.99 * v + 0.01 * g * g
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.99**t)
        x = x - 3e-3 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.02 * x)
        assert np.allclose(p.data, x, atol=1e-15), f"step {t}"
        p.zero_grad()


def _per_tensor_adamw_step(params, grads, m, v, t, lr, b1, b2, eps, weight_decay):
    """The reference: one AdamW step as a loop over per-tensor arrays."""
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, g, m_, v_ in zip(params, grads, m, v):
        m_ *= b1
        m_ += (1.0 - b1) * g
        v_ *= b2
        v_ += (1.0 - b2) * g * g
        update = (m_ / c1) / (np.sqrt(v_ / c2) + eps)
        if weight_decay:
            update = update + weight_decay * p
        p -= lr * update


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_flat_adamw_is_bit_equal_to_the_per_tensor_loop(weight_decay):
    model = GraspModel(GraspConfig(), seed=2)
    params = model.params
    trainable = params.trainable()
    want = [t.data.copy() for t in trainable]
    m = [np.zeros_like(p) for p in want]
    v = [np.zeros_like(p) for p in want]
    cfg = TrainConfig(weight_decay=weight_decay)
    opt = AdamW(params.values[-params.grads.size:], params.grads, beta1=cfg.beta1,
                beta2=cfg.beta2, eps=cfg.eps, weight_decay=weight_decay)
    rng = np.random.default_rng(11)
    for step in range(6):
        params.grads.fill(0.0)
        for t in trainable:
            t.grad += rng.normal(0.0, 10.0 ** rng.integers(-6, 1), t.shape)
        lr = cosine_lr(step, 6, 1e-2)
        _per_tensor_adamw_step(want, [t.grad for t in trainable], m, v, step + 1, lr,
                               cfg.beta1, cfg.beta2, cfg.eps, weight_decay)
        opt.step(lr)
        for i, t in enumerate(trainable):
            assert t.data.tobytes() == want[i].tobytes(), f"step {step}, tensor {i}"
    assert opt.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
    assert opt.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


# -- gradient accumulation across a batch ---------------------------------------


def test_batch_accumulation_is_sum_of_instance_gradients():
    model = GraspModel(SMALL, seed=1)
    insts = _tiny_data(3)
    trainable = model.params.trainable()

    def grads_for(batch):
        zero_grads(trainable)
        for inst in batch:
            loss, _ = total_loss(_trace(model, inst), inst.amodal, inst.visible)
            (loss * (1.0 / len(batch))).backward()
        return [t.grad.copy() for t in trainable]

    fwd = grads_for(insts)
    rev = grads_for(insts[::-1])
    for a, b in zip(fwd, rev):
        scale = max(np.abs(a).max(), 1e-12)
        assert np.allclose(a, b, atol=1e-12 * scale + 1e-18)


def test_fixed_batch_order_is_bit_exact():
    # reordering shuffles the addition tree (parameters with graph fan-out
    # collect several pieces per instance), so bit determinism comes from a
    # fixed sampling order: the same order twice must agree exactly
    model = GraspModel(SMALL, seed=1)
    batch = _tiny_data(3)
    trainable = model.params.trainable()

    def grads_for(insts):
        zero_grads(trainable)
        for inst in insts:
            loss, _ = total_loss(_trace(model, inst), inst.amodal, inst.visible)
            (loss * (1.0 / 3.0)).backward()
        return [t.grad.copy() for t in trainable]

    first = grads_for(batch)
    second = grads_for(batch)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


# -- the training loop --------------------------------------------------------------


def test_train_descends_on_a_tiny_problem():
    model = GraspModel(SMALL, seed=0)
    insts = _tiny_data(6)
    cfg = TrainConfig(steps=40, batch=4, lr=3e-3, seed=0)
    result = train(model, insts, cfg)
    head = np.mean([r["total"] for r in result.history[:5]])
    tail = np.mean([r["total"] for r in result.history[-5:]])
    assert tail < head, f"no descent: {head:.4f} -> {tail:.4f}"
    assert result.final_loss == result.history[-1]["total"]


def test_train_is_bit_reproducible():
    insts = _tiny_data(5)
    cfg = TrainConfig(steps=8, batch=3, lr=1e-3, seed=42)
    m1 = GraspModel(SMALL, seed=2)
    r1 = train(m1, insts, cfg)
    m2 = GraspModel(SMALL, seed=2)
    r2 = train(m2, insts, cfg)
    assert r1.history == r2.history
    for (_, _, a), (_, _, b) in zip(m1.params.named_all(), m2.params.named_all()):
        assert np.array_equal(a.data, b.data)
    m3 = GraspModel(SMALL, seed=2)
    r3 = train(m3, insts, TrainConfig(steps=8, batch=3, lr=1e-3, seed=43))
    assert r3.history != r1.history


def test_train_never_touches_frozen_parameters():
    model = GraspModel(SMALL, seed=0)
    frozen = model.params.groups["frozen_encoder"]
    keep = {k: t.data.copy() for k, t in frozen.items()}
    train(model, _tiny_data(4), TrainConfig(steps=6, batch=2, lr=1e-2, seed=0))
    for k, t in frozen.items():
        assert np.array_equal(t.data, keep[k]), k


def test_train_moves_the_fusion_scale_off_zero():
    model = GraspModel(SMALL, seed=0)
    train(model, _tiny_data(6), TrainConfig(steps=10, batch=4, lr=1e-2, seed=0))
    assert model.params.groups["vm_attention"]["gamma"].data != 0.0
    assert model.params.groups["gate"]["alpha"].data != 0.0


def test_train_lr_follows_the_cosine_schedule():
    model = GraspModel(SMALL, seed=0)
    cfg = TrainConfig(steps=5, batch=2, lr=2e-3, seed=0)
    result = train(model, _tiny_data(3), cfg)
    for row in result.history:
        assert row["lr"] == cosine_lr(row["step"], 5, 2e-3)


def test_train_small_pool_resamples_with_replacement():
    model = GraspModel(SMALL, seed=0)
    result = train(model, _tiny_data(2), TrainConfig(steps=3, batch=5, seed=0))
    assert result.steps == 3


def test_batch_8_train_step_keeps_one_instance_tape_alive_at_a_time():
    # AdamW's four parameter-sized buffers are ~3.2 MiB and one default
    # instance's tape ~1.5 MiB; holding the previous instance's tape while
    # the next forward runs lifts the peak to ~5.8 MiB
    pool = generate_dataset(16, 1)
    model = GraspModel(GraspConfig(), seed=0)
    config = TrainConfig(steps=1, batch=8)
    train(model, pool, config)  # the first step imports what numpy loads lazily
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(model, pool, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2**20, peak / 2**20


def test_train_rejects_empty_dataset():
    with pytest.raises(ConfigError):
        train(GraspModel(SMALL, seed=0), [], TrainConfig(steps=1, batch=1))


def test_train_raises_on_divergence_with_context():
    # poison a head bias: it feeds the logits directly, past the decoder
    # relus (which map NaN inputs to 0 and would launder an earlier poison)
    model = GraspModel(SMALL, seed=0)
    b = model.params.groups["decoder"]["head_occ_b"]
    b.data[0] = np.nan
    with pytest.raises(TrainingDiverged) as err, np.errstate(invalid="ignore"):
        train(model, _tiny_data(3), TrainConfig(steps=2, batch=2, seed=0))
    assert err.value.step == 0
    assert not math.isfinite(err.value.breakdown["total"])


def test_train_writes_checkpoints_and_csv(tmp_path):
    model = GraspModel(SMALL, seed=3)
    ckpt = tmp_path / "run.ckpt"
    csv = tmp_path / "loss.csv"
    cfg = TrainConfig(steps=5, batch=2, lr=1e-3, seed=0, ckpt_every=2)
    train(model, _tiny_data(4), cfg, ckpt_path=str(ckpt), loss_csv_path=str(csv))
    assert (tmp_path / "run.ckpt.step000002").exists()
    assert (tmp_path / "run.ckpt.step000004").exists()
    assert ckpt.exists()
    loaded, step = load_checkpoint(ckpt)
    assert step == 5
    for (_, _, a), (_, _, b) in zip(model.params.named_all(), loaded.params.named_all()):
        assert np.array_equal(a.data, b.data)

    lines = csv.read_text().splitlines()
    assert lines[0] == "step,lr," + ",".join(LossBreakdown.FIELDS)
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == cosine_lr(0, 5, 1e-3)
    for cell in first[1:]:
        float(cell)  # every numeric cell parses back


def test_default_train_keeps_its_checkpoint_and_loss_bytes(tmp_path):
    # sha256 of a short default-config run's outputs: the optimizer's
    # arithmetic and its order must stay what they were per tensor
    insts = generate_dataset(12, 5, SceneConfig())
    ckpt, csv = tmp_path / "m.ckpt", tmp_path / "loss.csv"
    train(GraspModel(GraspConfig(), seed=0), insts, TrainConfig(steps=3, seed=1),
          ckpt_path=ckpt, loss_csv_path=csv)
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (ckpt, csv)]
    assert digests == ["48c38d755d878113edfda1909346faa69e8be306e89cdfc69f5efac1ae5d0382",
                       "443fc4fe1f1f7c16e8835d745bbe97b20a5c97523fa70614383313341e870b19"]


def test_loss_csv_streams_one_flushed_row_per_step(tmp_path):
    csv = tmp_path / "loss.csv"
    cfg = TrainConfig(steps=4, batch=2, lr=1e-3, seed=0)
    result = train(GraspModel(SMALL, seed=3), _tiny_data(4), cfg, loss_csv_path=str(csv))
    want = tmp_path / "want.csv"
    write_loss_csv(want, result.history)
    assert csv.read_bytes() == want.read_bytes()


def test_diverged_run_keeps_the_loss_rows_of_its_finished_steps(tmp_path, monkeypatch):
    # a NaN learning rate at step k - 1 poisons every parameter, so step k diverges
    k = 3
    csv = tmp_path / "loss.csv"
    lines_seen = []
    schedule = training.cosine_lr

    def poisoned(step, total_steps, lr0):
        lines_seen.append(len(csv.read_text().splitlines()))  # flushed before this step
        return math.nan if step == k - 1 else schedule(step, total_steps, lr0)

    monkeypatch.setattr(training, "cosine_lr", poisoned)
    cfg = TrainConfig(steps=6, batch=2, lr=1e-3, seed=0)
    with pytest.raises(TrainingDiverged) as err, np.errstate(invalid="ignore"):
        train(GraspModel(SMALL, seed=3), _tiny_data(4), cfg, loss_csv_path=str(csv))
    assert err.value.step == k
    assert lines_seen == [1 + step for step in range(k + 1)]
    lines = csv.read_text().splitlines()
    assert lines[0] == "step,lr," + ",".join(LossBreakdown.FIELDS)
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(k))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch=0)
    with pytest.raises(ConfigError):
        TrainConfig(clean_vm_prob=1.5)


@pytest.mark.parametrize("field,value", [
    ("lr", math.nan), ("lr", math.inf), ("lr", 0.0), ("lr", -1e-4),
    ("eps", math.nan), ("eps", 0.0),
    ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -1e-4),
    ("occ_weight", math.nan), ("occ_weight", -1.0),
    ("beta1", math.nan), ("beta1", 1.0), ("beta1", -0.1),
    ("beta2", math.nan), ("beta2", 1.0),
    ("clean_vm_prob", math.nan),
])
def test_train_config_rejects_non_finite_and_out_of_range_numbers(field, value):
    with pytest.raises(ConfigError) as err:
        TrainConfig(**{field: value})
    assert field in str(err.value)


def test_train_config_rejects_a_negative_ckpt_every():
    with pytest.raises(ConfigError) as err:
        TrainConfig.from_dict({"ckpt_every": -1})
    assert "ckpt_every" in str(err.value)
    assert TrainConfig(ckpt_every=0).ckpt_every == 0


def test_train_config_accepts_range_edges():
    TrainConfig(weight_decay=0.0, occ_weight=0.0, beta1=0.0, beta2=0.0, clean_vm_prob=1.0)


def test_train_config_from_dict_rejects_unknown_and_ill_typed_keys():
    assert TrainConfig.from_dict({"steps": 3, "lr": 1e-3}) == TrainConfig(steps=3, lr=1e-3)
    with pytest.raises(ConfigError) as err:
        TrainConfig.from_dict({"steps": 3, "learning_rate": 1e-3})
    assert "learning_rate" in str(err.value)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"steps": "3"})


def test_write_loss_csv_round_trip(tmp_path):
    rows = [{"step": 0, "lr": 1e-4, **{k: 0.5 for k in LossBreakdown.FIELDS}},
            {"step": 1, "lr": 0.75e-4, **{k: 1 / 3 for k in LossBreakdown.FIELDS}}]
    p = tmp_path / "l.csv"
    write_loss_csv(p, rows)
    lines = p.read_text().splitlines()
    got = lines[2].split(",")
    assert int(got[0]) == 1
    assert float(got[1]) == 0.75e-4
    assert float(got[2]) == 1 / 3  # repr round-trips exactly
