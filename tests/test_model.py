"""Model pipeline: initialization identities, gating, decoder flow,
parameter accounting, checkpoints, and a whole-model gradient check."""

import dataclasses
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import FD_EPS
import grasp.model
from grasp.errors import ConfigError, DimensionError, IntegrityError
from grasp.geometry import BinaryMask
from grasp.model import (
    GraspConfig,
    GraspModel,
    MAX_PARAMETERS,
    N_FROZEN_BLOCKS,
    load_checkpoint,
    param_entries,
    param_layout,
    save_checkpoint,
)
from grasp.synthdata import MAX_SCENE_SIZE, SceneConfig, generate_scene, perturb_vm
from grasp.tensor import Tensor, backward, zero_grads
from grasp.training import TrainConfig, train

SMALL = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                    vm_hidden=4, decoder_hidden=8)


def _small_scene():
    insts = generate_scene(4, SceneConfig(size=16, min_objects=2, max_objects=2))
    return insts[0]


def _set(t: Tensor, value):
    t.data[...] = value


# -- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        GraspConfig(image_size=60, patch=8)
    with pytest.raises(ConfigError):
        GraspConfig(dim=64, heads=5)
    with pytest.raises(ConfigError):
        GraspConfig(n_prototypes=0)
    with pytest.raises(ConfigError):
        GraspConfig(vm_hidden=0)


@pytest.mark.parametrize("kwargs", [
    {"dim": 100_000_000_000, "heads": 1},
    {"dim": 10_000_000, "heads": 1},
    {"n_prototypes": 10**12},
    {"n_prototypes": MAX_PARAMETERS // 64},  # the bank alone fills the ceiling
    {"image_size": 2**40, "patch": 2**40},  # patch_dim past any array size, the image too
    {"image_size": 4096, "patch": 4096},  # patch_dim at the ceiling; a frozen block past it
    # the layout does not see image_size, but per-token arrays are sized by it
    {"image_size": 10**30},
    {"image_size": MAX_SCENE_SIZE + 8},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_layout_past_the_parameter_ceiling_is_rejected_before_allocating(kwargs):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="ceiling"):
            GraspConfig(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_layouts_within_the_parameter_ceiling_construct():
    assert sum(row.size for row in param_layout(GraspConfig())) == 103_427
    big = GraspConfig(dim=1024, heads=1)
    assert sum(row.size for row in param_layout(big)) <= MAX_PARAMETERS
    assert GraspConfig(image_size=MAX_SCENE_SIZE).grid == MAX_SCENE_SIZE // 8


def test_config_derived_quantities():
    cfg = GraspConfig()
    assert cfg.grid == 8 and cfg.tokens == 64 and cfg.patch_dim == 64
    assert SMALL.grid == 2 and SMALL.tokens == 4


def test_config_dict_round_trip():
    cfg = GraspConfig(image_size=32, patch=8, dim=16, heads=2, n_prototypes=8,
                      sdf_query_mod=True, gate_override=0.5)
    assert GraspConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        GraspConfig.from_dict({"dim": 16, "heads": 2, "bogus": 1})
    assert "bogus" in str(err.value)
    with pytest.raises(ConfigError):
        GraspConfig.from_dict([("dim", 16)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25, 1.5, "half", True, False])
def test_bad_gate_override_is_rejected(value):
    # a config that saves must load, and from_dict refuses a bool too
    with pytest.raises(ConfigError):
        GraspConfig(gate_override=value)
    m = GraspModel(SMALL, seed=0)
    inst = _small_scene()
    with pytest.raises(ConfigError):
        m.forward(inst.image, inst.visible, gate_override=value)
    prefix = m.forward(inst.image, inst.visible)
    with pytest.raises(ConfigError):
        m.regate(prefix, value)


# -- initialization determinism ----------------------------------------------


def test_same_seed_same_parameters():
    a = GraspModel(SMALL, seed=9)
    b = GraspModel(SMALL, seed=9)
    for (ga, na, ta), (gb, nb, tb) in zip(a.params.named_all(), b.params.named_all()):
        assert (ga, na) == (gb, nb)
        assert np.array_equal(ta.data, tb.data), f"{ga}.{na}"


def test_different_seeds_differ():
    a = GraspModel(SMALL, seed=0)
    b = GraspModel(SMALL, seed=1)
    assert not np.array_equal(a.params.groups["projection"]["w"].data,
                              b.params.groups["projection"]["w"].data)


def test_zero_initialized_parameters():
    m = GraspModel(SMALL, seed=0)
    assert np.all(m.params.groups["vm_attention"]["gamma"].data == 0.0)
    assert np.all(m.params.groups["gate"]["alpha"].data == 0.0)
    assert np.all(m.params.groups["gate"]["beta"].data == 0.0)
    assert np.all(m.params.groups["sdf_query"]["direction"].data == 0.0)


def test_frozen_blocks_do_not_track_gradients():
    m = GraspModel(SMALL, seed=0)
    for name, t in m.params.groups["frozen_encoder"].items():
        assert not t.requires_grad, name
        assert not t.data.flags.writeable, name


# -- forward shapes and determinism -------------------------------------------


def test_forward_shapes():
    m = GraspModel(SMALL, seed=0)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    n, d = SMALL.tokens, SMALL.dim
    assert tr.tokens.shape == (n, d)
    assert tr.fused.shape == (n, d)
    assert tr.prior.shape == (n, d)
    assert tr.residual.shape == (n, d)
    assert tr.sdf_tokens.shape == (n,)
    assert tr.gate.shape == (n,)
    assert tr.injected.shape == (n, d)
    assert tr.proto_attn.shape == (SMALL.heads, n, SMALL.n_prototypes)
    assert tr.logits_occ.shape == (16, 16)
    assert tr.logits_amodal.shape == (16, 16)


def test_forward_is_deterministic():
    m = GraspModel(SMALL, seed=0)
    inst = _small_scene()
    a = m.forward(inst.image, inst.visible)
    b = m.forward(inst.image, inst.visible)
    assert np.array_equal(a.logits_amodal.data, b.logits_amodal.data)
    assert np.array_equal(a.logits_occ.data, b.logits_occ.data)


def test_forward_rejects_wrong_shapes():
    m = GraspModel(SMALL, seed=0)
    inst = _small_scene()
    with pytest.raises(DimensionError):
        m.encode(np.zeros((8, 8)))
    with pytest.raises(DimensionError):
        m.forward(inst.image, BinaryMask.zeros(8, 8))


# -- initialization identities -------------------------------------------------


def test_fusion_is_identity_at_init():
    # the fusion scale starts at zero, so mask evidence cannot move tokens
    m = GraspModel(SMALL, seed=3)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    assert np.array_equal(tr.fused.data, tr.tokens.data)


@pytest.mark.parametrize("query_mod", [False, True])
def test_untrained_output_ignores_the_visible_mask(query_mod):
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                      vm_hidden=4, decoder_hidden=8, sdf_query_mod=query_mod)
    m = GraspModel(cfg, seed=1)
    inst = _small_scene()
    masks = [
        inst.visible,
        perturb_vm(inst.visible, 7),
        BinaryMask.zeros(16, 16),
        BinaryMask.full(16, 16),
    ]
    ref = m.forward(inst.image, masks[0])
    for vm in masks[1:]:
        tr = m.forward(inst.image, vm)
        assert np.array_equal(tr.logits_amodal.data, ref.logits_amodal.data)
        assert np.array_equal(tr.logits_occ.data, ref.logits_occ.data)


def test_gate_is_half_at_init():
    m = GraspModel(SMALL, seed=0)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    assert np.all(tr.gate.data == 0.5)


def test_trained_fusion_scale_breaks_mask_invariance():
    m = GraspModel(SMALL, seed=1)
    _set(m.params.groups["vm_attention"]["gamma"], 0.5)
    inst = _small_scene()
    a = m.forward(inst.image, inst.visible)
    b = m.forward(inst.image, BinaryMask.zeros(16, 16))
    assert not np.array_equal(a.logits_amodal.data, b.logits_amodal.data)


# -- gating and injection --------------------------------------------------------


def test_gate_tracks_signed_distance_when_slope_is_positive():
    m = GraspModel(SMALL, seed=0)
    _set(m.params.groups["gate"]["alpha"], 4.0)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    order = np.argsort(tr.sdf_tokens)
    gates = tr.gate.data[order]
    assert np.all(np.diff(gates) >= 0.0), "gate must be monotone in the distance"
    expected = 1.0 / (1.0 + np.exp(-4.0 * tr.sdf_tokens))
    assert np.allclose(tr.gate.data, expected, atol=1e-12)


def test_gate_override_zero_recovers_fused_tokens_exactly():
    m = GraspModel(SMALL, seed=2)
    _set(m.params.groups["vm_attention"]["gamma"], 0.3)  # make fused nontrivial
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible, gate_override=0.0)
    assert tr.injected is tr.fused
    assert np.all(tr.gate.data == 0.0)


def test_gate_override_one_recovers_prior_exactly():
    m = GraspModel(SMALL, seed=2)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible, gate_override=1.0)
    assert tr.injected is tr.prior
    assert np.all(tr.gate.data == 1.0)


def test_gate_override_half_blends():
    m = GraspModel(SMALL, seed=2)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible, gate_override=0.5)
    want = tr.fused.data + 0.5 * tr.residual.data
    assert np.allclose(tr.injected.data, want, atol=1e-15)


def test_configured_override_is_the_default_and_none_disables_it():
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                      vm_hidden=4, decoder_hidden=8, gate_override=1.0)
    m = GraspModel(cfg, seed=2)
    inst = _small_scene()
    assert np.all(m.forward(inst.image, inst.visible).gate.data == 1.0)
    tr = m.forward(inst.image, inst.visible, gate_override=None)
    assert np.all(tr.gate.data == 0.5)  # untrained sigmoid


@pytest.mark.parametrize("query_mod", [False, True])
def test_regate_equals_forward_bit_for_bit(query_mod):
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4, vm_hidden=4,
                      decoder_hidden=8, sdf_query_mod=query_mod, gate_override=0.25)
    m = GraspModel(cfg, seed=2)
    _set(m.params.groups["vm_attention"]["gamma"], 0.3)
    _set(m.params.groups["gate"]["alpha"], 2.0)
    _set(m.params.groups["gate"]["beta"], -0.5)
    _set(m.params.groups["sdf_query"]["direction"], np.linspace(-1.0, 1.0, cfg.dim))
    inst = _small_scene()
    learned = m.forward(inst.image, inst.visible, gate_override=None)
    learned_gate = learned.gate.data.copy()
    for override in (0.0, 0.5, 1.0, "config", None):
        regated = m.regate(learned, override)
        fresh = m.forward(inst.image, inst.visible, gate_override=override)
        for f in dataclasses.fields(fresh):
            a, b = getattr(regated, f.name), getattr(fresh, f.name)
            a, b = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
            assert a.dtype == b.dtype and np.array_equal(a, b), (override, f.name)
        assert np.array_equal(learned.gate.data, learned_gate)  # regate leaves its input alone


@pytest.mark.parametrize("query_mod", [False, True])
def test_forward_is_regate_of_prefix_of_encode(query_mod):
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4, vm_hidden=4,
                      decoder_hidden=8, sdf_query_mod=query_mod)
    m = GraspModel(cfg, seed=2)
    _set(m.params.groups["vm_attention"]["gamma"], 0.3)
    _set(m.params.groups["gate"]["alpha"], 2.0)
    _set(m.params.groups["sdf_query"]["direction"], np.linspace(-1.0, 1.0, cfg.dim))
    inst = _small_scene()
    prefix = m.prefix(m.encode(inst.image), inst.visible)
    assert prefix.gate is None and prefix.logits_amodal is None
    for override in ("config", 0.5):
        staged = m.regate(prefix, override)
        fresh = m.forward(inst.image, inst.visible, gate_override=override)
        for f in dataclasses.fields(fresh):
            a, b = getattr(staged, f.name), getattr(fresh, f.name)
            a, b = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (override, f.name)


def _assert_same_trace(taped, bare, what):
    for f in dataclasses.fields(taped):
        a, b = getattr(taped, f.name), getattr(bare, f.name)
        assert not isinstance(b, Tensor), (what, f.name)
        if a is None:
            assert b is None, (what, f.name)
            continue
        a = a.data if isinstance(a, Tensor) else a
        assert a.dtype == b.dtype and a.shape == b.shape, (what, f.name)
        assert a.tobytes() == b.tobytes(), (what, f.name)


@pytest.mark.parametrize("cfg", [GraspConfig(), GraspConfig(heads=8, sdf_query_mod=True)],
                         ids=["default", "sdf_query_mod_8_heads"])
def test_untaped_traces_equal_taped_traces_bit_for_bit(cfg):
    m = GraspModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    for _, _, t in m.params.named_trainable():  # no stage stays an identity
        t.data[...] += 0.3 * rng.standard_normal(t.data.shape)
    bare = m.untaped()
    inst = generate_scene(6)[0]
    v_input = perturb_vm(inst.visible, 3)
    taped_prefix = m.prefix(m.encode(inst.image), v_input)
    bare_prefix = bare.prefix(bare.encode(inst.image), v_input)
    _assert_same_trace(taped_prefix, bare_prefix, "prefix")
    for override in (None, 0.0, 0.5, 1.0):
        _assert_same_trace(m.forward(inst.image, v_input, override),
                           bare.forward(inst.image, v_input, override), ("forward", override))
        _assert_same_trace(m.regate(taped_prefix, override), bare.regate(bare_prefix, override),
                           ("regate", override))


def test_untaped_model_shares_the_parameter_arrays():
    m = GraspModel(SMALL, seed=0)
    bare = m.untaped()
    assert bare.config is m.config and bare.params.seed == m.params.seed
    pairs = list(zip(m.params.named_all(), bare.params.named_all()))
    assert len(pairs) == len(list(m.params.named_all()))
    for (g, n, t), (bg, bn, arr) in pairs:
        assert (g, n) == (bg, bn) and arr is t.data
    again = bare.untaped()
    assert all(a is b for (_, _, a), (_, _, b) in zip(bare.params.named_all(),
                                                      again.params.named_all()))


def test_residual_is_prior_minus_fused():
    m = GraspModel(SMALL, seed=2)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    assert np.array_equal(tr.residual.data, tr.prior.data - tr.fused.data)


# -- decoder information flow ------------------------------------------------


def _branch_grads(loss_tensor, model):
    zero_grads(model.params.trainable())
    backward(loss_tensor)
    d = model.params.groups["decoder"]
    return {name: np.abs(d[name].grad).max() for name in d}


def test_occluded_logits_never_see_amodal_branch():
    m = GraspModel(SMALL, seed=5)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    g = _branch_grads(tr.logits_occ.sum(), m)
    assert g["amodal_w"] == 0.0 and g["amodal_b"] == 0.0
    assert g["fuse_w"] == 0.0 and g["fuse_b"] == 0.0
    assert g["head_amodal_w"] == 0.0 and g["head_amodal_b"] == 0.0
    assert g["occ_w"] > 0.0 and g["head_occ_w"] > 0.0


def test_amodal_logits_do_see_the_occluded_branch():
    m = GraspModel(SMALL, seed=5)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    g = _branch_grads(tr.logits_amodal.sum(), m)
    assert g["occ_w"] > 0.0, "occlusion evidence must reach the amodal head"
    assert g["amodal_w"] > 0.0 and g["fuse_w"] > 0.0
    assert g["head_occ_w"] == 0.0 and g["head_occ_b"] == 0.0


def test_perturbing_amodal_branch_leaves_occluded_logits_untouched():
    inst = _small_scene()
    m = GraspModel(SMALL, seed=5)
    before = m.forward(inst.image, inst.visible)
    rng = np.random.default_rng(0)
    for name in ("amodal_w", "fuse_w", "head_amodal_w"):
        t = m.params.groups["decoder"][name]
        t.data[...] += rng.normal(0.0, 0.1, t.data.shape)
    after = m.forward(inst.image, inst.visible)
    assert np.array_equal(before.logits_occ.data, after.logits_occ.data)
    assert not np.array_equal(before.logits_amodal.data, after.logits_amodal.data)


def test_perturbing_occluded_branch_moves_both_outputs():
    inst = _small_scene()
    m = GraspModel(SMALL, seed=5)
    before = m.forward(inst.image, inst.visible)
    t = m.params.groups["decoder"]["occ_w"]
    t.data[...] += 0.05
    after = m.forward(inst.image, inst.visible)
    assert not np.array_equal(before.logits_occ.data, after.logits_occ.data)
    assert not np.array_equal(before.logits_amodal.data, after.logits_amodal.data)


# -- parameter accounting -------------------------------------------------------


def test_count_params_accounting():
    cfg = SMALL
    m = GraspModel(cfg, seed=0)
    counts = m.count_params()
    assert counts["gate"] == 2, "the gate must have exactly two trainable scalars"
    assert counts["prototypes"] == cfg.n_prototypes * cfg.dim
    pd = cfg.patch_dim
    assert counts["frozen_encoder (not trained)"] == N_FROZEN_BLOCKS * (pd * pd + pd)
    group_sum = sum(v for k, v in counts.items()
                    if k not in ("total_trainable", "frozen_encoder (not trained)"))
    assert counts["total_trainable"] == group_sum
    direct = sum(t.size for t in m.params.trainable())
    assert counts["total_trainable"] == direct


def test_all_trainable_parameters_require_grad():
    m = GraspModel(SMALL, seed=0)
    for group, name, t in m.params.named_trainable():
        assert t.requires_grad, f"{group}.{name}"
        assert t.data.flags.writeable, f"{group}.{name}"


# -- whole-model gradient check ---------------------------------------------------


def test_whole_model_gradients_match_finite_differences():
    # subsampled central differences across every trainable tensor
    m = GraspModel(SMALL, seed=8)
    inst = _small_scene()
    rng = np.random.default_rng(0)
    # give the zero-init scalars room so their neighborhoods are generic
    _set(m.params.groups["vm_attention"]["gamma"], 0.2)
    _set(m.params.groups["gate"]["alpha"], 0.7)
    _set(m.params.groups["gate"]["beta"], -0.1)
    w_occ = Tensor(rng.standard_normal((16, 16)))
    w_amo = Tensor(rng.standard_normal((16, 16)))

    def objective():
        tr = m.forward(inst.image, inst.visible)
        return (tr.logits_occ * w_occ).sum() + (tr.logits_amodal * w_amo).sum()

    zero_grads(m.params.trainable())
    backward(objective())
    worst = 0.0
    for group, name, t in m.params.named_trainable():
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + FD_EPS
            hi = objective().item()
            flat[i] = keep - FD_EPS
            lo = objective().item()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * FD_EPS)
            denom = max(abs(gflat[i]), abs(numeric), 1e-6)
            rel = abs(gflat[i] - numeric) / denom
            worst = max(worst, rel)
            assert rel < 1e-5, f"{group}.{name}[{i}]: rel err {rel:.2e}"
    assert worst < 1e-5


def test_sdf_query_mod_direction_receives_gradient():
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                      vm_hidden=4, decoder_hidden=8, sdf_query_mod=True)
    m = GraspModel(cfg, seed=8)
    inst = _small_scene()
    tr = m.forward(inst.image, inst.visible)
    zero_grads(m.params.trainable())
    backward((tr.logits_amodal * tr.logits_amodal).sum())
    d = m.params.groups["sdf_query"]["direction"]
    assert np.any(d.grad != 0.0)
    # without the flag the direction is out of the graph entirely
    m2 = GraspModel(SMALL, seed=8)
    tr2 = m2.forward(inst.image, inst.visible)
    zero_grads(m2.params.trainable())
    backward((tr2.logits_amodal * tr2.logits_amodal).sum())
    assert np.all(m2.params.groups["sdf_query"]["direction"].grad == 0.0)


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    m = GraspModel(SMALL, seed=12)
    rng = np.random.default_rng(1)
    for _, _, t in m.params.named_trainable():
        t.data[...] += rng.normal(0.0, 0.01, t.data.shape)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, step=137, extra={"note": "x"})
    loaded, step = load_checkpoint(p)
    assert step == 137
    assert loaded.config == m.config
    for (g, n, a), (_, _, b) in zip(m.params.named_all(), loaded.params.named_all()):
        assert np.array_equal(a.data, b.data), f"{g}.{n}"
    inst = _small_scene()
    x = m.forward(inst.image, inst.visible)
    y = loaded.forward(inst.image, inst.visible)
    assert np.array_equal(x.logits_amodal.data, y.logits_amodal.data)


# sha256 of a fresh model's parameter bytes in named_all order, and of a
# default seed-0 checkpoint: the layout table must keep every draw of the
# original per-tensor initialization, in its order
@pytest.mark.parametrize("cfg,digest", [
    (GraspConfig(), "2f843a08a1190453a6297106d3ef1fa72051be7f953c82195aa220e68a80b15a"),
    (SMALL, "73428e55edaba88501f75af631afdf815c65e22179601f6f90ffbb2e8ef0a1e1"),
], ids=["default", "small"])
def test_fresh_parameters_keep_their_bytes(cfg, digest):
    m = GraspModel(cfg, seed=0)
    h = hashlib.sha256()
    for _, _, t in m.params.named_all():
        h.update(t.data.tobytes())
    assert h.hexdigest() == digest


def test_checkpoint_bytes_are_pinned(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, GraspModel(GraspConfig(), seed=0))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "b4a5829434c334b5cc9fc3eec355a47a7e010fe50dddb1a8660647cd9303e89e")


def _assert_views_of_one_buffer(m):
    values = m.params.values
    assert values.dtype == np.float64 and values.ndim == 1 and values.flags.c_contiguous
    offset = 0
    for g, n, t in m.params.named_all():
        assert t.data.base is values, f"{g}.{n}"
        assert t.data.ctypes.data == values.ctypes.data + 8 * offset, f"{g}.{n}"
        assert t.data.flags.writeable == (g != "frozen_encoder"), f"{g}.{n}"
        offset += t.data.size
    assert offset == values.size


def test_every_parameter_is_a_view_of_one_buffer(tmp_path):
    m = GraspModel(SMALL, seed=4)
    _assert_views_of_one_buffer(m)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m)
    _assert_views_of_one_buffer(load_checkpoint(p)[0])


def _assert_gradients_are_views_of_one_buffer(m):
    grads = m.params.grads
    assert grads.dtype == np.float64 and grads.ndim == 1 and grads.flags.c_contiguous
    assert all(t.grad is None for t in m.params.groups["frozen_encoder"].values())
    offset = 0
    for g, n, t in m.params.named_trainable():
        assert t.grad.base is grads and t.grad.shape == t.data.shape, f"{g}.{n}"
        assert t.grad.ctypes.data == grads.ctypes.data + 8 * offset, f"{g}.{n}"
        offset += t.grad.size
    assert offset == grads.size == m.params.values.size - sum(
        t.size for t in m.params.groups["frozen_encoder"].values())


def test_every_trainable_gradient_is_a_view_of_one_buffer(tmp_path):
    m = GraspModel(SMALL, seed=4)
    _assert_gradients_are_views_of_one_buffer(m)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m)
    loaded = load_checkpoint(p)[0]
    _assert_gradients_are_views_of_one_buffer(loaded)
    inst = _small_scene()
    logits = loaded.forward(inst.image, inst.visible).logits_amodal
    backward(logits, np.ones(logits.shape))
    flat = np.concatenate([t.grad.ravel() for t in loaded.params.trainable()])
    assert flat.any() and flat.tobytes() == loaded.params.grads.tobytes()


def test_loading_a_checkpoint_draws_nothing_at_random(ckpt, monkeypatch):
    p, _ = ckpt

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew at random")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded, _ = load_checkpoint(p)
    assert loaded.params.values.size == sum(t.size for _, _, t in loaded.params.named_all())


def test_trained_values_live_in_the_buffer_and_load_back(tmp_path):
    m = GraspModel(SMALL, seed=6)
    fresh = m.params.values.copy()
    train(m, [_small_scene()] * 2, TrainConfig(steps=2, batch=2, lr=1e-2, seed=0))
    trained = np.concatenate([t.data.ravel() for _, _, t in m.params.named_all()])
    assert not np.array_equal(trained, fresh)
    assert trained.tobytes() == m.params.values.tobytes()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m, step=2)
    loaded, step = load_checkpoint(p)
    assert step == 2 and loaded.params.values.tobytes() == trained.tobytes()
    for (g, n, a), (_, _, b) in zip(m.params.named_all(), loaded.params.named_all()):
        assert a.data.tobytes() == b.data.tobytes(), f"{g}.{n}"


class _FailingFile:
    """A binary file whose third write, the whole parameter body, fails as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes, self.failed_bytes = fh, 0, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            self.failed_bytes = memoryview(data).nbytes
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, GraspModel(SMALL, seed=0))
    before = p.read_bytes()
    files = []

    def failing_open(*args, **kwargs):
        files.append(_FailingFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(grasp.model, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(p, GraspModel(SMALL, seed=1), step=3)
    assert [f.failed_bytes for f in files] == [8 * GraspModel(SMALL).params.values.size]
    assert p.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]
    monkeypatch.delattr(grasp.model, "open")
    save_checkpoint(p, GraspModel(SMALL, seed=1), step=3)
    assert load_checkpoint(p)[1] == 3
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]


def _mangle(path, out, fix):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    body = fix(header, body)
    with open(out, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(body)


@pytest.fixture()
def ckpt(tmp_path):
    m = GraspModel(SMALL, seed=0)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m)
    return p, tmp_path


def test_checkpoint_rejects_unknown_format(ckpt):
    p, d = ckpt

    def fix(header, body):
        header["format"] = "someone-elses"
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError):
        load_checkpoint(d / "bad.ckpt")


def test_checkpoint_rejects_garbage_header(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"\x80\x81 not json\n")
    with pytest.raises(IntegrityError):
        load_checkpoint(p)


def test_checkpoint_rejects_unexpected_parameter(ckpt):
    p, d = ckpt

    def fix(header, body):
        header["params"][3]["name"] = "imposter"
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "parameter entry 3 is" in str(err.value) and "imposter" in str(err.value)


def test_checkpoint_rejects_missing_parameter(ckpt):
    p, d = ckpt

    def fix(header, body):
        header["params"].pop()
        return body

    _mangle(p, d / "bad.ckpt", fix)
    last = len(param_layout(SMALL)) - 1
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert f"parameter entry {last} is absent" in str(err.value)


def test_checkpoint_rejects_permuted_entries(ckpt):
    p, d = ckpt

    def fix(header, body):
        # block0_w and block1_w have one shape, so each entry alone is valid
        entries = header["params"]
        entries[0], entries[2] = entries[2], entries[0]
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    # the first entry that differs, and the layout's entry at that index
    message = str(err.value)
    assert "parameter entry 0 is" in message
    assert message.index('"block1_w"') < message.index('"block0_w"')


def test_checkpoint_rejects_shape_tampering(ckpt):
    p, d = ckpt

    def fix(header, body):
        header["params"][0]["shape"] = [1, 1]
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError):
        load_checkpoint(d / "bad.ckpt")


def test_checkpoint_rejects_truncated_body(ckpt):
    p, d = ckpt

    def fix(header, body):
        return body[:-16]

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "truncated" in str(err.value)


def test_checkpoint_body_size_is_checked_before_allocating(ckpt, monkeypatch):
    p, d = ckpt

    def fix(header, body):
        # a valid config whose entries match it, with a body far larger than the file
        cfg = GraspConfig(dim=1024, heads=1)
        header["config"] = cfg.to_dict()
        header["params"] = param_entries(cfg)
        return body

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint allocated the body")

    _mangle(p, d / "bad.ckpt", fix)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "truncated" in str(err.value)


def test_checkpoint_rejects_unknown_config_key(ckpt):
    p, d = ckpt

    def fix(header, body):
        header["config"]["bogus"] = 1
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(ConfigError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "bogus" in str(err.value)


@pytest.mark.parametrize("field,value", [
    ("seed", None), ("seed", "0"), ("seed", 1.5), ("step", None), ("step", True),
    ("params", None), ("params", {}), ("config", None), ("config", []), ("note", 1),
])
def test_checkpoint_rejects_missing_or_ill_typed_header_field(ckpt, field, value):
    p, d = ckpt

    def fix(header, body):
        if value is None:
            del header[field]
        else:
            header[field] = value
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert repr(field) in str(err.value)


@pytest.mark.parametrize("field,value", [("group", None), ("bytes", "64"), ("bytes", 64.0),
                                         ("shape", 8)])
def test_checkpoint_rejects_ill_typed_parameter_entry(ckpt, field, value):
    p, d = ckpt

    def fix(header, body):
        if value is None:
            del header["params"][2][field]
        else:
            header["params"][2][field] = value
        return body

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError):
        load_checkpoint(d / "bad.ckpt")


@pytest.mark.parametrize("fix_entry", [
    lambda e: e.update(note="hand-edited"),  # an extra key
    lambda e: e.update(shape=[float(n) for n in e["shape"]]),  # 8.0 is not 8
    lambda e: e.update(shape=[True, *e["shape"][1:]]),  # true is not 1
], ids=["extra_key", "float_in_shape", "true_in_shape"])
def test_checkpoint_entry_must_be_the_layout_entry_exactly(tmp_path, fix_entry):
    # one prototype: the bank's shape is [1, dim], so true and 1.0 compare equal to it
    config = dataclasses.replace(SMALL, n_prototypes=1)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, GraspModel(config, seed=0))
    i = [row.name for row in param_layout(config)].index("bank")

    def fix(header, body):
        fix_entry(header["params"][i])
        return body

    _mangle(p, tmp_path / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(tmp_path / "bad.ckpt")
    assert f"parameter entry {i} is" in str(err.value)


def test_negative_model_seed_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        GraspModel(SMALL, seed=-1)
    assert "-1" in str(err.value)


def test_checkpoint_rejects_trailing_bytes(ckpt):
    p, d = ckpt
    _mangle(p, d / "bad.ckpt", lambda header, body: body + b"\x00")
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "trailing" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameter(ckpt, bad):
    p, d = ckpt

    def fix(header, body):
        # the last block is a trainable parameter; poison its last value
        return body[:-8] + np.array([bad], dtype="<f8").tobytes()

    _mangle(p, d / "bad.ckpt", fix)
    with pytest.raises(IntegrityError) as err:
        load_checkpoint(d / "bad.ckpt")
    assert "non-finite" in str(err.value)
