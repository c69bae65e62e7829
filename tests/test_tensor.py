"""Autodiff core: finite-difference checks for every op, exact identities,
graph bookkeeping, and shape validation."""

import math

import numpy as np
import pytest

from conftest import gradcheck
from grasp.errors import ConfigError, DimensionError
from grasp.model import GraspConfig, GraspModel
from grasp.synthdata import SceneConfig, generate_scene
from grasp.tensor import (
    AttentionParams,
    Tape,
    Tensor,
    absolute,
    add,
    add_rowvec,
    backward,
    cols,
    concat,
    dense,
    depatchify,
    div,
    matmul,
    mul,
    multihead_cross_attention,
    neg,
    patchify,
    relu,
    reshape,
    scale_rows,
    sigmoid,
    softmax,
    softplus,
    sub,
    tanh,
    tmean,
    transpose,
    tsum,
    zero_grads,
)
from grasp.tensor import _sigmoid_arr
from grasp.training import total_loss

N_SEEDS = 50


def _leaf(rng, shape, kink_clear=0.0):
    x = rng.standard_normal(shape)
    if kink_clear:
        # keep inputs off non-differentiable points (relu/abs at 0)
        x = x + kink_clear * np.sign(x)
    return Tensor(x, requires_grad=True)


def _const(rng, shape):
    return Tensor(rng.standard_normal(shape))


# Each case builds fresh leaves and returns (build_scalar, leaves).
def case_add(rng):
    a, b, w = _leaf(rng, (3, 4)), _leaf(rng, (3, 4)), _const(rng, (3, 4))
    return lambda: ((a + b) * w).sum(), [a, b]


def case_add_scalar(rng):
    a, w = _leaf(rng, (3, 4)), _const(rng, (3, 4))
    return lambda: ((1.7 + a) * w).sum(), [a]


def case_sub(rng):
    a, b, w = _leaf(rng, (2, 5)), _leaf(rng, (2, 5)), _const(rng, (2, 5))
    return lambda: ((a - b) * w).sum(), [a, b]


def case_rsub_scalar(rng):
    a, w = _leaf(rng, (2, 3)), _const(rng, (2, 3))
    return lambda: ((2.0 - a) * w).sum(), [a]


def case_mul(rng):
    a, b, w = _leaf(rng, (4, 3)), _leaf(rng, (4, 3)), _const(rng, (4, 3))
    return lambda: ((a * b) * w).sum(), [a, b]


def case_div(rng):
    a, w = _leaf(rng, (3, 3)), _const(rng, (3, 3))
    b = Tensor(rng.uniform(0.5, 1.5, (3, 3)) * np.where(rng.random((3, 3)) < 0.5, -1, 1),
               requires_grad=True)
    return lambda: ((a / b) * w).sum(), [a, b]


def case_rdiv_scalar(rng):
    b = Tensor(rng.uniform(0.5, 1.5, (2, 4)) * np.where(rng.random((2, 4)) < 0.5, -1, 1),
               requires_grad=True)
    w = _const(rng, (2, 4))
    return lambda: ((2.0 / b) * w).sum(), [b]


def case_neg(rng):
    a, w = _leaf(rng, (3, 2)), _const(rng, (3, 2))
    return lambda: ((-a) * w).sum(), [a]


def case_matmul(rng):
    a, b, w = _leaf(rng, (3, 4)), _leaf(rng, (4, 2)), _const(rng, (3, 2))
    return lambda: ((a @ b) * w).sum(), [a, b]


def case_transpose(rng):
    a, w = _leaf(rng, (3, 5)), _const(rng, (5, 3))
    return lambda: (a.T * w).sum(), [a]


def case_sigmoid(rng):
    a, w = _leaf(rng, (3, 4)), _const(rng, (3, 4))
    return lambda: (a.sigmoid() * w).sum(), [a]


def case_relu(rng):
    a, w = _leaf(rng, (3, 4), kink_clear=0.2), _const(rng, (3, 4))
    return lambda: (a.relu() * w).sum(), [a]


def case_tanh(rng):
    a, w = _leaf(rng, (3, 4)), _const(rng, (3, 4))
    return lambda: (a.tanh() * w).sum(), [a]


def case_softplus(rng):
    a, w = _leaf(rng, (3, 4)), _const(rng, (3, 4))
    return lambda: (a.softplus() * w).sum(), [a]


def case_abs(rng):
    a, w = _leaf(rng, (3, 4), kink_clear=0.2), _const(rng, (3, 4))
    return lambda: (a.abs() * w).sum(), [a]


def case_softmax_rows(rng):
    a, w = _leaf(rng, (4, 5)), _const(rng, (4, 5))
    return lambda: (a.softmax(1) * w).sum(), [a]


def case_softmax_cols(rng):
    a, w = _leaf(rng, (4, 5)), _const(rng, (4, 5))
    return lambda: (a.softmax(0) * w).sum(), [a]


def case_sum(rng):
    a = _leaf(rng, (3, 4))
    return lambda: (a * a).sum(), [a]


def case_mean(rng):
    a = _leaf(rng, (3, 4))
    return lambda: (a * a).mean(), [a]


def case_reshape(rng):
    a, w = _leaf(rng, (3, 4)), _const(rng, (2, 6))
    return lambda: (a.reshape((2, 6)) * w).sum(), [a]


def case_concat_rows(rng):
    a, b, w = _leaf(rng, (2, 3)), _leaf(rng, (4, 3)), _const(rng, (6, 3))
    return lambda: (concat([a, b], axis=0) * w).sum(), [a, b]


def case_concat_cols(rng):
    a, b, w = _leaf(rng, (2, 3)), _leaf(rng, (2, 2)), _const(rng, (2, 5))
    return lambda: (concat([a, b], axis=1) * w).sum(), [a, b]


def case_cols(rng):
    a, w = _leaf(rng, (3, 6)), _const(rng, (3, 3))
    return lambda: (cols(a, 1, 4) * w).sum(), [a]


def case_scale_rows(rng):
    a, w = _leaf(rng, (4, 3)), _const(rng, (4, 3))
    s = _leaf(rng, (4,))
    return lambda: (scale_rows(a, s) * w).sum(), [a, s]


def case_add_rowvec(rng):
    a, w = _leaf(rng, (4, 3)), _const(rng, (4, 3))
    b = _leaf(rng, (3,))
    return lambda: (add_rowvec(a, b) * w).sum(), [a, b]


def _case_dense(act):
    def case(rng):
        x, w, b = _leaf(rng, (4, 3)), _leaf(rng, (3, 5)), _leaf(rng, (5,))
        c = _const(rng, (4, 5))
        return lambda: (dense(x, w, b, act) * c).sum(), [x, w, b]

    case.__name__ = f"case_dense_{act}".lower()
    return case


def case_depatchify(rng):
    a, w = _leaf(rng, (6, 4)), _const(rng, (4, 6))
    return lambda: (depatchify(a, 2, 3, 2) * w).sum(), [a]


def case_attention(rng):
    heads = int(rng.integers(1, 4))
    dim = 6
    params = AttentionParams.init(dim, rng)
    q, k, v = _leaf(rng, (4, dim)), _leaf(rng, (5, dim)), _leaf(rng, (5, dim))
    wout = _const(rng, (4, dim))
    wa = _const(rng, (heads, 4, 5))

    def build():
        out, attn = multihead_cross_attention(q, k, v, params, heads)
        return (out * wout).sum() + (attn * wa).sum()

    return build, [q, k, v, params.wq, params.wk, params.wv, params.wo]


CASES = [
    case_add, case_add_scalar, case_sub, case_rsub_scalar, case_mul, case_div,
    case_rdiv_scalar, case_neg, case_matmul, case_transpose, case_sigmoid,
    case_relu, case_tanh, case_softplus, case_abs, case_softmax_rows,
    case_softmax_cols, case_sum, case_mean, case_reshape, case_concat_rows,
    case_concat_cols, case_cols, case_scale_rows, case_add_rowvec,
    case_depatchify, case_attention, _case_dense(None), _case_dense("relu"),
    _case_dense("tanh"),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__[5:])
def test_gradients_match_finite_differences(case):
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        build, leaves = case(rng)
        gradcheck(build, leaves, label=f"{case.__name__} seed {seed}")


# -- exact identities ----------------------------------------------------


def test_softplus_at_zero_is_log_two_exactly():
    y = Tensor([[0.0]]).softplus()
    assert y.data[0, 0] == math.log(2.0)


def test_sigmoid_is_stable_at_extreme_inputs():
    y = Tensor([[-800.0, 800.0]]).sigmoid()
    assert np.all(np.isfinite(y.data))
    assert y.data[0, 0] == 0.0
    assert y.data[0, 1] == 1.0


def test_relu_keeps_the_bytes_of_the_where_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    # fmax keeps a -0.0 outside its vector loop, as in a short array's tail
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 5 * tiny,
                        -5 * tiny, 1.0, -1.0, -0.0])
    rng = np.random.default_rng(12)
    for x in (special, np.array(-0.0), rng.standard_normal((64, 64)),
              rng.standard_normal((64, 64)) * 1e-310):
        want = np.where(x > 0, x, 0.0)
        assert relu(x).tobytes() == want.tobytes()
        assert relu(Tensor(x)).data.tobytes() == want.tobytes()


def test_softmax_is_stable_at_large_logits():
    y = Tensor([[1000.0, 1000.5, 999.0]]).softmax(1)
    assert np.all(np.isfinite(y.data))
    assert abs(float(y.data.sum()) - 1.0) < 1e-15


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    y = Tensor(rng.standard_normal((6, 9))).softmax(1)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-15)


def test_patchify_depatchify_round_trip():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((8, 12))
    toks = patchify(img, 4)
    assert toks.shape == (6, 16)
    back = depatchify(Tensor(toks), 2, 3, 4)
    assert np.array_equal(back.data, img)


def test_patchify_layout_is_row_major_patches():
    img = np.arange(16.0).reshape(4, 4)
    toks = patchify(img, 2)
    # first patch is the top-left 2x2 block flattened row-major
    assert toks[0].tolist() == [0.0, 1.0, 4.0, 5.0]
    assert toks[1].tolist() == [2.0, 3.0, 6.0, 7.0]


# -- graph bookkeeping ---------------------------------------------------


def test_fan_out_gradients_accumulate():
    a = Tensor([[1.5, -2.0]], requires_grad=True)
    b = a * 2.0
    c = a + 1.0
    (b * c).sum().backward()
    # d/da of 2a*(a+1) = 4a + 2
    assert np.allclose(a.grad, 4.0 * a.data + 2.0, atol=1e-15)


def test_backward_twice_accumulates():
    a = Tensor([[3.0]], requires_grad=True)
    y = (a * a).sum()
    y.backward()
    g1 = a.grad.copy()
    y.backward()
    assert np.array_equal(a.grad, 2.0 * g1)


def test_shared_interior_gradients_are_never_updated_in_place():
    # add hands the same gradient object to both parents, so u and s hold one
    # array; u's second contribution (from s) must not leak into v's through it
    a = Tensor([[1.0, -2.0]], requires_grad=True)
    u = a * 2.0
    v = a * 3.0
    s = u + v
    t = s + u
    t.sum().backward()
    assert a.grad.tolist() == [[7.0, 7.0]]


def test_only_parameters_hold_gradient_buffers():
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                      vm_hidden=4, decoder_hidden=8)
    model = GraspModel(cfg, seed=0)
    inst = generate_scene(4, SceneConfig(size=16, min_objects=2, max_objects=2))[0]
    params = model.params.trainable()
    root = model.forward(inst.image, inst.visible).logits_amodal.sum()
    interior = Tape.trace(root).tensors
    assert interior
    assert all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in params)
    root.backward()
    assert all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in params)
    assert any(np.any(t.grad != 0.0) for t in params)
    assert all(t.grad is None for t in model.params.groups["frozen_encoder"].values())


def test_zero_grads_resets():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    (a * a).sum().backward()
    assert np.any(a.grad != 0.0)
    zero_grads([a])
    assert np.all(a.grad == 0.0)


def test_constant_tensors_are_read_only():
    a = Tensor([[1.0, 2.0]])
    assert not a.data.flags.writeable
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0


def test_tensor_copies_its_input():
    src = np.ones((2, 2))
    t = Tensor(src, requires_grad=True)
    src[0, 0] = 99.0
    assert t.data[0, 0] == 1.0


def test_forward_ops_do_not_mutate_operands():
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    ka, kb = a.data.copy(), b.data.copy()
    ((a @ b).sigmoid() * (a + b)).softmax(1).sum().backward()
    assert np.array_equal(a.data, ka)
    assert np.array_equal(b.data, kb)


def test_backward_needs_scalar_root():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(DimensionError):
        (a * 2.0).backward()


def test_backward_accepts_seed_gradient():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    backward(a * 3.0, seed=[[1.0, 10.0]])
    assert a.grad.tolist() == [[3.0, 30.0]]


def test_backward_on_constant_root_raises():
    a = Tensor([[1.0]])
    with pytest.raises(ValueError):
        a.backward()


def test_grad_flows_through_attention_weights_output():
    # the returned attention maps are differentiable, not a detached copy
    rng = np.random.default_rng(5)
    params = AttentionParams.init(4, rng)
    q = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    kv = Tensor(rng.standard_normal((2, 4)))
    wa = Tensor(rng.standard_normal((2, 3, 2)))
    _, attn = multihead_cross_attention(q, kv, kv, params, 2)
    (attn * wa).sum().backward()
    assert np.any(q.grad != 0.0)
    # an unweighted sum of softmax rows is constant, so its gradient vanishes
    zero_grads([q])
    _, attn = multihead_cross_attention(q, kv, kv, params, 2)
    attn.sum().backward()
    assert np.allclose(q.grad, 0.0, atol=1e-12)


# -- shape validation ----------------------------------------------------


def test_elementwise_shape_mismatch_raises():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        a + b


def test_matmul_requires_2d():
    a, b = Tensor(np.ones(3)), Tensor(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        a @ b


def test_matmul_inner_dim_mismatch_raises():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        a @ b


def test_concat_mismatched_shapes_raise():
    with pytest.raises(DimensionError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


def test_softmax_axis_out_of_range_raises():
    with pytest.raises(DimensionError):
        softmax(Tensor(np.ones((2, 3))), axis=2)


def test_attention_rejects_bad_head_count():
    rng = np.random.default_rng(0)
    params = AttentionParams.init(6, rng)
    q = Tensor(np.ones((2, 6)))
    with pytest.raises(ConfigError):
        multihead_cross_attention(q, q, q, params, 4)


def test_attention_rejects_key_value_length_mismatch():
    rng = np.random.default_rng(0)
    params = AttentionParams.init(4, rng)
    q = Tensor(np.ones((2, 4)))
    with pytest.raises(DimensionError):
        multihead_cross_attention(q, Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), params, 2)


# -- attention numerics --------------------------------------------------


def _attention_oracle(q, k, v, params, heads):
    """Dense numpy reimplementation used as the reference."""
    wq, wk, wv, wo = (p.data for p in (params.wq, params.wk, params.wv, params.wo))
    qp, kp, vp = q @ wq, k @ wk, v @ wv
    dh = q.shape[1] // heads
    outs, maps = [], []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (qp[:, sl] @ kp[:, sl].T) / math.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        maps.append(w)
        outs.append(w @ vp[:, sl])
    return np.concatenate(outs, axis=1) @ wo, np.stack(maps)


def test_attention_matches_dense_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 5))
        dim = 12
        params = AttentionParams.init(dim, rng)
        q = rng.standard_normal((5, dim))
        k = rng.standard_normal((7, dim))
        v = rng.standard_normal((7, dim))
        out, attn = multihead_cross_attention(Tensor(q), Tensor(k), Tensor(v), params, heads)
        ref_out, ref_attn = _attention_oracle(q, k, v, params, heads)
        assert attn.shape == (heads, 5, 7)
        assert np.allclose(out.data, ref_out, atol=1e-12), f"seed {seed}"
        assert np.allclose(attn.data, ref_attn, atol=1e-12), f"seed {seed}"


def test_attention_single_key_weights_are_exactly_one():
    rng = np.random.default_rng(2)
    params = AttentionParams.init(4, rng)
    q = Tensor(rng.standard_normal((6, 4)))
    kv = Tensor(rng.standard_normal((1, 4)))
    _, attn = multihead_cross_attention(q, kv, kv, params, 2)
    assert np.all(attn.data == 1.0)


def test_attention_coerces_array_keys_values_and_weights_beside_a_tensor_query():
    rng = np.random.default_rng(3)
    params = AttentionParams.init(4, rng)
    weights = AttentionParams(*(p.data for p in (params.wq, params.wk, params.wv, params.wo)))
    q, kv = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
    grads = []
    for k, p in ((kv, weights), (Tensor(kv), params)):
        qt = Tensor(q, requires_grad=True)
        out, attn = multihead_cross_attention(qt, k, k, p, 2)
        want_out, want_attn = multihead_cross_attention(q, kv, kv, weights, 2)
        assert np.array_equal(out.data, want_out) and np.array_equal(attn.data, want_attn)
        out.sum().backward()
        grads.append(qt.grad)
    assert np.array_equal(grads[0], grads[1])


def _attention_chain(q, k, v, params, heads):
    """Multi-head attention as a per-head chain of elementary tape ops."""
    dh = q.data.shape[1] // heads
    qp, kp, vp = matmul(q, params.wq), matmul(k, params.wk), matmul(v, params.wv)
    mixed, weights = [], []
    for h in range(heads):
        qh, kh, vh = (cols(t, h * dh, (h + 1) * dh) for t in (qp, kp, vp))
        attn = softmax(mul(matmul(qh, transpose(kh)), 1.0 / math.sqrt(dh)), axis=1)
        mixed.append(matmul(attn, vh))
        weights.append(reshape(attn, (1,) + attn.shape))
    return matmul(concat(mixed, axis=1), params.wo), concat(weights, axis=0)


def _attention_run(attend, rng_seed, heads, dim, l_q, l_k, kv_mode, use):
    """Forward values and every leaf gradient of one attention objective."""
    rng = np.random.default_rng(rng_seed)
    params = AttentionParams.init(dim, rng)
    q = Tensor(rng.standard_normal((l_q, dim)), requires_grad=True)
    base = Tensor(rng.standard_normal((l_k, dim)), requires_grad=True)
    v = Tensor(rng.standard_normal((l_k, dim)), requires_grad=True)
    w_out = Tensor(rng.standard_normal((l_q, dim)))
    w_attn = Tensor(rng.standard_normal((heads, l_q, l_k)))
    if kv_mode == "leaf":
        k = v = base
    elif kv_mode == "interior":
        k = v = (base * 1.5).tanh()
    else:
        k = base
    out, attn = attend(q, k, v, params, heads)
    by_out, by_attn = (out * w_out).sum(), (attn * w_attn).sum()
    # "both" gives the weights two consumers besides the mixing node
    loss = {"out": by_out, "attn": by_attn, "both": by_out + by_attn + attn.sum()}[use]
    loss.backward()
    leaves = [q, base, v, params.wq, params.wk, params.wv, params.wo]
    return [out.data, attn.data] + [t.grad for t in leaves]


def test_attention_is_bit_equal_to_the_per_head_chain():
    rng = np.random.default_rng(11)
    for seed in range(40):
        heads = int(rng.integers(1, 5))
        dim = heads * int(rng.integers(1, 5))
        l_q, l_k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        kv_mode = ("leaf", "interior", "separate")[seed % 3]
        use = ("out", "attn", "both")[(seed // 3) % 3]
        shape = (heads, dim, l_q, l_k, kv_mode, use)
        got = _attention_run(multihead_cross_attention, seed, *shape)
        want = _attention_run(_attention_chain, seed, *shape)
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), f"seed {seed} {shape}: array {i} differs"


def test_attention_is_bit_equal_to_the_per_head_chain_at_model_widths():
    # Wider than the cases above, up to the model's (64 channels in 4 heads,
    # 64 tokens against 64 mask tokens or 32 prototypes): these reach BLAS
    # paths where a gradient handed on in another memory order changes bits.
    cases = ((64, 64, 64), (64, 64, 32), (32, 64, 7), (32, 5, 32), (32, 1, 7))
    for seed, (dim, l_q, l_k) in enumerate(cases):
        for kv_mode in ("leaf", "separate"):
            shape = (4, dim, l_q, l_k, kv_mode, "both")
            got = _attention_run(multihead_cross_attention, seed, *shape)
            want = _attention_run(_attention_chain, seed, *shape)
            for i, (a, b) in enumerate(zip(got, want)):
                assert np.array_equal(a, b), f"{shape}: array {i} differs"


def _dense_chain(x, w, b, act=None):
    y = add_rowvec(matmul(x, w), b)
    return {"relu": relu, "tanh": tanh}[act](y) if act else y


def _dense_run(layer, seed, act, mode):
    """Forward values and every leaf gradient of one or two affine layers."""
    rng = np.random.default_rng(seed)
    base = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    frozen = mode == "frozen weights"
    w1, b1 = (Tensor(rng.standard_normal(s), requires_grad=not frozen) for s in ((4, 3), (3,)))
    w2, b2 = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((4, 6), (6,)))
    c1, c2 = _const(rng, (5, 3)), _const(rng, (5, 6))
    x = (base * 1.5).tanh() if mode == "interior" else base
    out1 = layer(x, w1, b1, act)
    loss = (out1 * c1).sum()
    outs = [out1.data]
    if mode == "interior":  # the interior x is read by two layers
        out2 = layer(x, w2, b2, act)
        loss = loss + (out2 * c2).sum()
        outs.append(out2.data)
    loss.backward()
    return outs + [t.grad for t in (base, w1, b1, w2, b2) if t.requires_grad]


def test_dense_is_bit_equal_to_the_matmul_add_activation_chain():
    for act in (None, "relu", "tanh"):
        for mode in ("leaf", "interior", "frozen weights"):
            for seed in range(10):
                got = _dense_run(dense, seed, act, mode)
                want = _dense_run(_dense_chain, seed, act, mode)
                assert len(got) == len(want)
                for i, (a, b) in enumerate(zip(got, want)):
                    assert np.array_equal(a, b), f"{act} {mode} seed {seed}: array {i} differs"


def test_dense_on_constants_records_no_node():
    rng = np.random.default_rng(5)
    x, w, b = _const(rng, (3, 4)), _const(rng, (4, 2)), _const(rng, (2,))
    y = dense(x, w, b, "tanh")
    assert y.parents is None and not y.requires_grad
    assert np.array_equal(y.data, np.tanh(x.data @ w.data + b.data))


def _attention_both(q, kv, wq, wk, wv, wo):
    return multihead_cross_attention(q, kv, kv, AttentionParams(wq, wk, wv, wo), 3)


# every op with the operand shapes it is given here
UNTAPED_OPS = [
    ("add", add, [(3, 4), (3, 4)]),
    ("sub", sub, [(3, 4), (3, 4)]),
    ("mul", mul, [(3, 4), (3, 4)]),
    ("div", div, [(3, 4), (3, 4)]),
    ("neg", neg, [(3, 4)]),
    ("matmul", matmul, [(3, 4), (4, 3)]),
    ("transpose", transpose, [(3, 4)]),
    ("sigmoid", sigmoid, [(3, 4)]),
    ("relu", relu, [(3, 4)]),
    ("tanh", tanh, [(3, 4)]),
    ("softplus", softplus, [(3, 4)]),
    ("absolute", absolute, [(3, 4)]),
    ("softmax", lambda a: softmax(a, axis=1), [(3, 4)]),
    ("tsum", tsum, [(3, 4)]),
    ("tmean", tmean, [(3, 4)]),
    ("reshape", lambda a: reshape(a, (6, 4)), [(3, 8)]),
    ("concat0", lambda a, b: concat([a, b], axis=0), [(3, 4), (3, 4)]),
    ("concat1", lambda a, b: concat([a, b], axis=1), [(3, 4), (3, 4)]),
    ("cols", lambda a: cols(a, 1, 3), [(3, 4)]),
    ("scale_rows", scale_rows, [(3, 4), (3,)]),
    ("add_rowvec", add_rowvec, [(3, 4), (4,)]),
    ("depatchify", lambda a: depatchify(a, 2, 2, 4), [(4, 16)]),
    ("attention", _attention_both, [(5, 6), (7, 6)] + [(6, 6)] * 4),
    ("dense", dense, [(4, 3), (3, 5), (5,)]),
    ("dense_relu", lambda x, w, b: dense(x, w, b, "relu"), [(4, 3), (3, 5), (5,)]),
    ("dense_tanh", lambda x, w, b: dense(x, w, b, "tanh"), [(4, 3), (3, 5), (5,)]),
]


@pytest.mark.parametrize("op, shapes", [c[1:] for c in UNTAPED_OPS],
                         ids=[c[0] for c in UNTAPED_OPS])
def test_plain_array_operands_give_the_constant_tensor_result_as_an_array(op, shapes):
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    plain, const = op(*arrays), op(*[Tensor(x) for x in arrays])
    if not isinstance(plain, tuple):
        plain, const = (plain,), (const,)
    assert len(plain) == len(const)
    for p, c in zip(plain, const):
        assert type(p) is np.ndarray
        assert isinstance(c, Tensor) and c.parents is None and not c.requires_grad
        assert p.shape == c.data.shape and p.tobytes() == c.data.tobytes()


def test_dense_rejects_bad_shapes_and_activations():
    x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    for args in ((x, w, Tensor(np.ones(3))), (x, Tensor(np.ones((2, 4))), b),
                 (Tensor(np.ones(3)), w, b), (x, w, Tensor(np.ones((1, 4))))):
        with pytest.raises(DimensionError):
            dense(*args)
    with pytest.raises(ConfigError):
        dense(x, w, b, "sigmoid")


def test_one_instance_loss_traces_to_34_nodes():
    model = GraspModel(GraspConfig(), seed=0)
    inst = generate_scene(3, SceneConfig())[0]
    loss, _ = total_loss(model.forward(inst.image, inst.visible), inst.amodal, inst.visible)
    assert len(Tape.trace(loss).tensors) == 34


def _sigmoid_masked(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_equal_to_the_masked_form():
    rng = np.random.default_rng(4)
    edges = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 37.0, -37.0, 710.0, -746.0])
    for x in (edges, rng.standard_normal((64, 64)) * 10, rng.standard_normal(1000) * 300):
        got, want = _sigmoid_arr(x), _sigmoid_masked(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
