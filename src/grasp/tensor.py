"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small.  Storage is row-major numpy float64.
Shapes are explicit everywhere: elementwise operations require equal
shapes, with the single exception that one operand may be a scalar
(a 0-d tensor or a plain Python number).  There is no other implicit
broadcasting, no views escape into user code, and matmul is strictly
two-dimensional.

Differentiation uses a tape.  Every operation whose output needs a
gradient keeps, on the output tensor, its ``parents`` and one ``pull``:
it maps the output gradient to one contribution per parent, in order,
or None for a parent that needs no gradient.  Creation order is already
a topological order (an operation's inputs exist before its output), so
the backward sweep simply visits the interior tensors reachable from
the root once each, in descending creation order.  Gradients accumulate
additively, which makes fan-out and cross-graph accumulation (for
batched losses) fall out naturally.

Tensors created with ``requires_grad=False`` are frozen: their backing
arrays are marked read-only at construction.  Only leaves (parameters:
tensors built with ``requires_grad=True``) keep a gradient, zeroed at
construction and only ever added to; call :func:`zero_grads` between
optimizer steps.  A model's are views of one buffer, ``GraspParams.grads``.
Interior gradients exist only inside the backward sweep.

Every op is one call to ``_op(forward, pull, *operands)``: ``forward``
is its plain-array arithmetic, with its shape and dimension checks, and
``pull(g, out, *parents)`` its pullback.  Given no Tensor operand,
``_op`` returns ``forward``'s array and builds no Tensor, pullback or
tape, which is how inference runs the model's stages (see
``GraspModel.untaped``).  Given a Tensor, it makes every operand a
Tensor, runs the same ``forward`` on their arrays and records the
pullback, so the taped and untaped values are bit-equal by construction.

Most ops are elementary, one numpy expression per parent.  Two are
fused: ``dense`` is an affine layer and its activation in one node, and
multi-head attention is two nodes between its projection matmuls
(softmax weights, then the weighted values).  Their hand-written
pullbacks reproduce the elementary chains bit for bit, as does the
segmentation loss node built by ``grasp.training.total_loss``; with the
default model config one instance's loss traces to 34 tensors.  The
attention nodes take all heads at once: each forward and pullback
product is one batched ``np.matmul`` over (heads, L, d_h) stacks whose
per-head matrices have the layouts of the per-head chain's operands, so
every head's product is the one that chain computes.

A single tape is built and swept on one thread; nothing here is
thread-safe and nothing needs to be at this scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError, DimensionError

_SEQ = itertools.count()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "parents", "pull", "seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        self._init(arr, requires_grad)

    @classmethod
    def _wrap(cls, arr, requires_grad, parents=None, pull=None, grad=None):
        # Internal constructor that takes ownership of ``arr`` and a leaf's ``grad`` (no copy).
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        t = object.__new__(cls)
        t._init(arr, requires_grad, parents, pull, grad)
        return t

    def _init(self, arr, requires_grad, parents=None, pull=None, grad=None):
        if not requires_grad:
            arr.flags.writeable = False
        self.data = arr
        # leaves keep an accumulator; interior gradients live in the sweep
        if grad is None and requires_grad and parents is None:
            grad = np.zeros_like(arr)
        self.grad = grad
        self.requires_grad = requires_grad
        self.parents = parents
        self.pull = pull
        self.seq = next(_SEQ)

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient plumbing --------------------------------------------

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self, seed=None):
        backward(self, seed)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)

    def softplus(self):
        return softplus(self)

    def abs(self):
        return absolute(self)

    def softmax(self, axis):
        return softmax(self, axis)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)

    @property
    def T(self):
        return transpose(self)


class Tape:
    """The interior tensors reachable from a root, in creation order.

    Creation order is a topological order of the graph, so sweeping the
    list in reverse runs every pullback after the full output gradient
    of its tensor has accumulated.  Each tensor is visited exactly once.
    """

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        self.tensors = tensors

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        seen = set()
        found = []
        stack = [root]
        while stack:
            t = stack.pop()
            if t.parents is None or id(t) in seen:
                continue
            seen.add(id(t))
            found.append(t)
            stack.extend(t.parents)
        found.sort(key=lambda t: t.seq)
        return cls(found)

    def run_backward(self):
        for t in reversed(self.tensors):
            # the sweep owns interior gradients: take this one off its tensor
            g, t.grad = t.grad, None
            for p, c in zip(t.parents, t.pull(g)):
                if not p.requires_grad:
                    continue
                if p.parents is None:
                    p.grad += c
                elif p.grad is None:
                    p.grad = c
                else:
                    # never in place: a pull may return g itself or views of it,
                    # so two parents can hold the same array
                    p.grad = p.grad + c


def backward(root: Tensor, seed=None):
    """Accumulate d(root)/d(leaf) into every reachable gradient."""
    if not root.requires_grad:
        raise ValueError("backward() root does not track gradients")
    if seed is None:
        if root.data.size != 1:
            raise DimensionError(
                f"backward() without a seed gradient needs a scalar root, got shape {root.shape}"
            )
        seed = np.ones(root.data.shape)
    else:
        seed = np.array(seed, dtype=np.float64)
        if seed.shape != root.data.shape:
            raise DimensionError(
                f"seed gradient shape {seed.shape} does not match root shape {root.shape}"
            )
    if root.parents is None:
        root.grad += seed
    else:
        root.grad = seed
    Tape.trace(root).run_backward()


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


# -- op helpers --------------------------------------------------------


def array_of(x):
    """The array behind an operand: a Tensor's data, or the operand itself."""
    return x.data if isinstance(x, Tensor) else x


def _op(forward, pull, *operands):
    """Apply one op: its plain-array ``forward``, taped with ``pull`` given a Tensor.

    With no Tensor operand this is ``forward(*operands)``: no Tensor,
    pullback or tape is built.  Otherwise every operand becomes a Tensor,
    ``forward`` runs on their arrays, and the output records the pullback
    ``pull(g, out, *tensors)`` (see :func:`_attach`).
    """
    for x in operands:
        if isinstance(x, Tensor):
            break
    else:
        return forward(*operands)
    tensors = tuple([x if isinstance(x, Tensor) else Tensor(x) for x in operands])
    out = forward(*[t.data for t in tensors])
    return _attach(out, tensors, lambda g: pull(g, out, *tensors))


def _fit(g, t: Tensor):
    # Reduce a gradient onto a scalar operand of a broadcast op.
    if t.data.ndim == 0 and np.ndim(g) != 0:
        return g.sum()
    return g


def _attach(arr, parents, pull):
    """Build the output tensor; it joins the tape only if a parent needs a gradient.

    ``pull`` maps the output gradient to a tuple of one contribution per
    parent, in order; it may give None for a parent that needs none.
    """
    for p in parents:
        if p.requires_grad:
            return Tensor._wrap(arr, True, parents, pull)
    return Tensor._wrap(arr, False)


# -- arithmetic ---------------------------------------------------------


def _elementwise(name, ufunc):
    """The forward of a binary elementwise op: equal shapes, or one scalar operand."""

    def forward(a, b):
        if not (np.shape(a) == np.shape(b) or np.ndim(a) == 0 or np.ndim(b) == 0):
            raise DimensionError(f"{name}: shapes {np.shape(a)} and {np.shape(b)} are incompatible")
        return ufunc(a, b)

    return forward


_add = _elementwise("add", np.add)
_sub = _elementwise("sub", np.subtract)
_mul = _elementwise("mul", np.multiply)
_div = _elementwise("div", np.divide)


def add(a, b):
    return _op(_add, lambda g, y, a, b: (
        _fit(g, a) if a.requires_grad else None,
        _fit(g, b) if b.requires_grad else None,
    ), a, b)


def sub(a, b):
    return _op(_sub, lambda g, y, a, b: (
        _fit(g, a) if a.requires_grad else None,
        _fit(-g, b) if b.requires_grad else None,
    ), a, b)


def mul(a, b):
    return _op(_mul, lambda g, y, a, b: (
        _fit(g * b.data, a) if a.requires_grad else None,
        _fit(g * a.data, b) if b.requires_grad else None,
    ), a, b)


def div(a, b):
    return _op(_div, lambda g, y, a, b: (
        _fit(g / b.data, a) if a.requires_grad else None,
        _fit(-g * a.data / (b.data * b.data), b) if b.requires_grad else None,
    ), a, b)


def neg(a):
    return _op(np.negative, lambda g, y, a: (-g,), a)


def _matmul_arr(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    return a @ b


def matmul(a, b):
    return _op(_matmul_arr, lambda g, y, a, b: (
        g @ b.data.T if a.requires_grad else None,
        a.data.T @ g if b.requires_grad else None,
    ), a, b)


def _transpose_arr(a):
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a 2-d tensor, got shape {a.shape}")
    return a.T.copy()


def transpose(a):
    return _op(_transpose_arr, lambda g, y, a: (g.T,), a)


# -- pointwise nonlinearities -------------------------------------------


def _sigmoid_arr(x):
    # exp(-|x|) never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    return _op(_sigmoid_arr, lambda g, y, a: (g * y * (1.0 - y),), a)


def _relu_arr(x):
    # bit-equal to np.where(x > 0, x, 0.0): fmax maps NaN to 0 as where
    # does, and adding +0.0 turns the -0.0 that fmax may keep into +0.0
    y = np.fmax(x, 0.0)
    y += 0.0
    return y


def relu(a):
    return _op(_relu_arr, lambda g, y, a: (g * (a.data > 0),), a)


def tanh(a):
    return _op(np.tanh, lambda g, y, a: (g * (1.0 - y * y),), a)


def softplus(a):
    """log(1 + exp(x)), evaluated stably for large |x|."""
    return _op(lambda x: np.logaddexp(0.0, x), lambda g, y, a: (g * _sigmoid_arr(a.data),), a)


def absolute(a):
    return _op(np.abs, lambda g, y, a: (g * np.sign(a.data),), a)


def _softmax_arr(x, axis):
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for shape {x.shape}")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis):
    return _op(lambda x: _softmax_arr(x, axis),
               lambda g, y, a: (y * (g - (g * y).sum(axis=axis, keepdims=True)),), a)


# -- reductions and structure -------------------------------------------


def tsum(a):
    return _op(lambda x: np.array(x.sum()),
               lambda g, y, a: (np.full(a.data.shape, float(g)),), a)


def tmean(a):
    return _op(lambda x: np.array(x.mean()),
               lambda g, y, a: (np.full(a.data.shape, float(g) / a.data.size),), a)


def _reshape_arr(x, shape):
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {tuple(shape)}")
    return x.reshape(shape).copy()


def reshape(a, shape):
    return _op(lambda x: _reshape_arr(x, shape), lambda g, y, a: (g.reshape(a.data.shape),), a)


def _concat_arr(arrays, axis):
    if not arrays:
        raise DimensionError("concat of an empty sequence")
    try:
        return np.concatenate(arrays, axis=axis)
    except ValueError as exc:
        raise DimensionError(
            f"concat along axis {axis}: shapes {[x.shape for x in arrays]}"
        ) from exc


def concat(tensors, axis):
    def pull(g, y, *parents):
        # each parent's block of g
        index, blocks, hi = [slice(None)] * y.ndim, [], 0
        for t in parents:
            lo, hi = hi, hi + t.data.shape[axis]
            index[axis] = slice(lo, hi)
            blocks.append(g[tuple(index)])
        return blocks

    return _op(lambda *xs: _concat_arr(xs, axis), pull, *tensors)


def _cols_arr(x, start, stop):
    if x.ndim != 2:
        raise DimensionError(f"cols needs a 2-d tensor, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise DimensionError(f"cols [{start}:{stop}] out of range for shape {x.shape}")
    return x[:, start:stop].copy()


def cols(a, start, stop):
    """Column slice of a 2-d tensor."""

    def pull(g, y, a):
        full = np.zeros(a.data.shape)
        full[:, start:stop] = g
        return (full,)

    return _op(lambda x: _cols_arr(x, start, stop), pull, a)


def _scale_rows_arr(x, s):
    if x.ndim != 2 or s.ndim != 1 or s.shape[0] != x.shape[0]:
        raise DimensionError(f"scale_rows: shapes {x.shape} and {s.shape} are incompatible")
    return x * s[:, None]


def scale_rows(a, s):
    """Multiply row i of a 2-d tensor by s[i]."""
    return _op(_scale_rows_arr, lambda g, y, a, s: (
        g * s.data[:, None] if a.requires_grad else None,
        (g * a.data).sum(axis=1) if s.requires_grad else None,
    ), a, s)


def _add_rowvec_arr(x, b):
    if x.ndim != 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise DimensionError(f"add_rowvec: shapes {x.shape} and {b.shape} are incompatible")
    return x + b[None, :]


def add_rowvec(a, b):
    """Add a length-n vector to every row of an (m, n) tensor."""
    return _op(_add_rowvec_arr,
               lambda g, y, a, b: (g, g.sum(axis=0) if b.requires_grad else None), a, b)


def _dense_arr(x, w, b, act):
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(
            f"dense needs 2-d x and w and a 1-d b, got shapes "
            f"{x.shape}, {w.shape} and {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"dense: shapes {x.shape}, {w.shape} and {b.shape} do not chain")
    y = x @ w
    y += b
    if act == "relu":
        return _relu_arr(y)
    if act == "tanh":
        return np.tanh(y)
    if act is not None:
        raise ConfigError(f"dense: unknown activation {act!r}")
    return y


def dense(x, w, b, act=None):
    """An affine layer ``act(x @ w + b)`` as one node; ``act`` is None, "relu" or "tanh".

    Forward and pullback evaluate the same numpy expressions as the
    matmul, add_rowvec and activation chain, so outputs and gradients
    are bit-equal to it.  The pullback takes the activation pull first,
    then each parent's piece of the affine pull; an input that needs no
    gradient, such as frozen features, costs no matmul.
    """

    def pull(g, y, x, w, b):
        if act == "relu":
            g = g * (y > 0)  # a relu output is positive exactly where its input was
        elif act == "tanh":
            g = g * (1.0 - y * y)
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _op(lambda x, w, b: _dense_arr(x, w, b, act), pull, x, w, b)


def _depatchify_arr(x, grid_h, grid_w, patch):
    if x.shape != (grid_h * grid_w, patch * patch):
        raise DimensionError(
            f"depatchify: shape {x.shape} does not match grid "
            f"({grid_h}x{grid_w}) of {patch}x{patch} patches"
        )
    return (
        x.reshape(grid_h, grid_w, patch, patch)
        .transpose(0, 2, 1, 3)
        .reshape(grid_h * patch, grid_w * patch)
    ).copy()


def depatchify(a, grid_h, grid_w, patch):
    """Reassemble (grid_h*grid_w, patch*patch) token logits into an image.

    Token t = ty*grid_w + tx owns the patch*patch block of the output at
    rows [ty*patch, (ty+1)*patch) and columns [tx*patch, (tx+1)*patch);
    its vector is that block in row-major order.
    """
    return _op(lambda x: _depatchify_arr(x, grid_h, grid_w, patch), lambda g, y, a: (
        g.reshape(grid_h, patch, grid_w, patch)
        .transpose(0, 2, 1, 3)
        .reshape(grid_h * grid_w, patch * patch),
    ), a)


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Split an (H, W) array into (L, patch*patch) row-major patch vectors.

    Plain numpy helper (model inputs are constants, nothing to differentiate).
    """
    h, w = image.shape
    if h % patch or w % patch:
        raise ConfigError(f"image {h}x{w} is not divisible into {patch}x{patch} patches")
    gh, gw = h // patch, w // patch
    return image.reshape(gh, patch, gw, patch).transpose(0, 2, 1, 3).reshape(gh * gw, patch * patch)


# -- attention ----------------------------------------------------------


class AttentionParams:
    """Projection weights for one multi-head cross-attention layer."""

    __slots__ = ("wq", "wk", "wv", "wo")

    def __init__(self, wq, wk, wv, wo):
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "AttentionParams":
        scale = 1.0 / math.sqrt(dim)
        mats = [Tensor(rng.normal(0.0, scale, (dim, dim)), requires_grad=True) for _ in range(4)]
        return cls(*mats)


def _split_heads(x, heads):
    """(L, heads * d_h) -> a contiguous (heads, L, d_h) copy; head h is column block h."""
    n, width = x.shape
    return x.reshape(n, heads, width // heads).transpose(1, 0, 2).copy()


def _merge_heads(x):
    """(heads, L, d_h) -> a contiguous (L, heads * d_h), the heads side by side."""
    heads, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(n, heads * dh)


def _head_stacks(qp, kp, heads):
    """The logit scale, and the contiguous per-head queries (heads, L_q, dh)
    and transposed keys (heads, dh, L_k) that the attention weights multiply.

    Head h owns columns [h*dh, (h+1)*dh) of the projections.
    """
    dh = qp.shape[1] // heads
    return 1.0 / math.sqrt(dh), _split_heads(qp, heads), kp.T.reshape(heads, dh, kp.shape[0]).copy()


def _attention_weights_arr(qp, kp, heads):
    """softmax((q_h @ k_h^T) * scale) for every head h at once, shape (heads, L_q, L_k)."""
    scale, qh, kht = _head_stacks(qp, kp, heads)
    z = np.matmul(qh, kht) * scale
    e = np.exp(z - z.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def _attention_weights(qp, kp, heads: int):
    """The attention weights node.

    The pullback takes the softmax pull, then the scale, then each head's
    two matmul pulls into that head's column block of qp and kp.  It
    rebuilds the forward's per-head stacks from the parents' arrays.
    """

    def pull(g, y, qp, kp):
        scale, qh, kht = _head_stacks(qp.data, kp.data, heads)
        gs = y * (g - (g * y).sum(axis=2, keepdims=True)) * scale
        gq = np.matmul(gs, kht.transpose(0, 2, 1))
        gk = np.matmul(qh.transpose(0, 2, 1), gs).transpose(0, 2, 1)
        return _merge_heads(gq), _merge_heads(gk)

    return _op(lambda q, k: _attention_weights_arr(q, k, heads), pull, qp, kp)


def _attention_mix_arr(weights, vp, heads):
    """Head h's weights times its column block of vp, heads side by side."""
    return _merge_heads(np.matmul(weights, _split_heads(vp, heads)))


def _attention_mix(weights, vp, heads: int):
    def pull(g, out, weights, vp):
        # head h's column block of g, as a strided view
        gh = g.reshape(g.shape[0], heads, -1).transpose(1, 0, 2)
        gw = np.matmul(gh, _split_heads(vp.data, heads).transpose(0, 2, 1))
        gv = np.matmul(weights.data.transpose(0, 2, 1), gh)
        return gw, _merge_heads(gv)

    return _op(lambda w, v: _attention_mix_arr(w, v, heads), pull, weights, vp)


def multihead_cross_attention(q, k, v, params: AttentionParams, heads: int):
    """Multi-head cross-attention over full token matrices.

    Returns (output, attn) where output is (L_q, D) and attn stacks the
    per-head softmax weights into shape (heads, L_q, L_k).  Queries,
    keys, and values are projected, split into column blocks per head,
    mixed by scaled dot-product attention, concatenated, and projected
    by the output matrix (the head layout of Vaswani et al. 2017).
    Given plain arrays and array weights, both results are plain arrays.

    Between the four projection matmuls the tape holds two nodes:
    ``attn`` from the projected queries and keys, and the concatenated
    head outputs from ``attn`` and the projected values.  Both compute
    every head in one batched matmul, forward and pullback alike: the
    projections' head blocks are stacked as contiguous (heads, L, d_h)
    copies, which each pullback rebuilds from its parents' arrays, and an
    incoming gradient's as a strided view.  Each head's
    slice of a stack is the matrix a per-head chain of cols, transpose,
    matmul, mul, softmax, reshape and concat nodes would multiply, in the
    same layout, and every gradient leaves the node C-contiguous as that
    chain's does, so outputs and gradients are bit-equal to the chain's.
    The projections keep their creation order because a prototype bank
    passed as both keys and values sums its two gradient pieces in that
    order.
    """
    qs, ks, vs = (np.shape(array_of(x)) for x in (q, k, v))
    if len(qs) != 2 or len(ks) != 2 or len(vs) != 2:
        raise DimensionError("attention operands must be 2-d token matrices")
    dim = qs[1]
    if ks[1] != dim or vs[1] != dim:
        raise DimensionError(f"attention: channel mismatch {qs} / {ks} / {vs}")
    if ks[0] != vs[0]:
        raise DimensionError(f"attention: key/value length mismatch {ks} vs {vs}")
    if heads < 1 or dim % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {dim}")

    qp = matmul(q, params.wq)
    kp = matmul(k, params.wk)
    vp = matmul(v, params.wv)
    weights = _attention_weights(qp, kp, heads)
    out = matmul(_attention_mix(weights, vp, heads), params.wo)
    return out, weights
