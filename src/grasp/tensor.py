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

Each op's forward arithmetic, with its shape and dimension checks, is
one plain-array function (``_<op>_arr``).  An op given no Tensor
operand returns that function's array: no Tensor, pullback or tape is
built, which is how inference runs the model's stages (see
``GraspModel.untaped``).  Given a Tensor, the op coerces the other
operands, calls the same function on the arrays and records its
pullback, so the taped and untaped values are bit-equal by
construction.

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


def _untaped(*operands) -> bool:
    """True when no operand is a Tensor: the op then returns its plain-array forward."""
    for x in operands:
        if isinstance(x, Tensor):
            return False
    return True


def _coerce(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _is_scalar(t: Tensor) -> bool:
    return t.data.ndim == 0


def _fit(g, t: Tensor):
    # Reduce a gradient onto a scalar operand of a broadcast op.
    if _is_scalar(t) and np.ndim(g) != 0:
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

_ELEMENTWISE = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def _elementwise_arr(name, a, b):
    if not (np.shape(a) == np.shape(b) or np.ndim(a) == 0 or np.ndim(b) == 0):
        raise DimensionError(f"{name}: shapes {np.shape(a)} and {np.shape(b)} are incompatible")
    return _ELEMENTWISE[name](a, b)


def add(a, b):
    if _untaped(a, b):
        return _elementwise_arr("add", a, b)
    a, b = _coerce(a), _coerce(b)
    out = _elementwise_arr("add", a.data, b.data)
    return _attach(out, (a, b), lambda g: (
        _fit(g, a) if a.requires_grad else None,
        _fit(g, b) if b.requires_grad else None,
    ))


def sub(a, b):
    if _untaped(a, b):
        return _elementwise_arr("sub", a, b)
    a, b = _coerce(a), _coerce(b)
    out = _elementwise_arr("sub", a.data, b.data)
    return _attach(out, (a, b), lambda g: (
        _fit(g, a) if a.requires_grad else None,
        _fit(-g, b) if b.requires_grad else None,
    ))


def mul(a, b):
    if _untaped(a, b):
        return _elementwise_arr("mul", a, b)
    a, b = _coerce(a), _coerce(b)
    out = _elementwise_arr("mul", a.data, b.data)
    return _attach(out, (a, b), lambda g: (
        _fit(g * b.data, a) if a.requires_grad else None,
        _fit(g * a.data, b) if b.requires_grad else None,
    ))


def div(a, b):
    if _untaped(a, b):
        return _elementwise_arr("div", a, b)
    a, b = _coerce(a), _coerce(b)
    out = _elementwise_arr("div", a.data, b.data)
    return _attach(out, (a, b), lambda g: (
        _fit(g / b.data, a) if a.requires_grad else None,
        _fit(-g * a.data / (b.data * b.data), b) if b.requires_grad else None,
    ))


def neg(a):
    if _untaped(a):
        return np.negative(a)
    a = _coerce(a)
    return _attach(np.negative(a.data), (a,), lambda g: (-g,))


def _matmul_arr(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    return a @ b


def matmul(a, b):
    if _untaped(a, b):
        return _matmul_arr(a, b)
    a, b = _coerce(a), _coerce(b)
    out = _matmul_arr(a.data, b.data)
    return _attach(out, (a, b), lambda g: (
        g @ b.data.T if a.requires_grad else None,
        a.data.T @ g if b.requires_grad else None,
    ))


def _transpose_arr(a):
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a 2-d tensor, got shape {a.shape}")
    return a.T.copy()


def transpose(a):
    if _untaped(a):
        return _transpose_arr(a)
    a = _coerce(a)
    return _attach(_transpose_arr(a.data), (a,), lambda g: (g.T,))


# -- pointwise nonlinearities -------------------------------------------


def _sigmoid_arr(x):
    # exp(-|x|) never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    if _untaped(a):
        return _sigmoid_arr(a)
    a = _coerce(a)
    y = _sigmoid_arr(a.data)
    return _attach(y, (a,), lambda g: (g * y * (1.0 - y),))


def _relu_arr(x):
    # bit-equal to np.where(x > 0, x, 0.0): fmax maps NaN to 0 as where
    # does, and adding +0.0 turns the -0.0 that fmax may keep into +0.0
    y = np.fmax(x, 0.0)
    y += 0.0
    return y


def relu(a):
    if _untaped(a):
        return _relu_arr(a)
    a = _coerce(a)
    return _attach(_relu_arr(a.data), (a,), lambda g: (g * (a.data > 0),))


def tanh(a):
    if _untaped(a):
        return np.tanh(a)
    a = _coerce(a)
    y = np.tanh(a.data)
    return _attach(y, (a,), lambda g: (g * (1.0 - y * y),))


def _softplus_arr(x):
    return np.logaddexp(0.0, x)


def softplus(a):
    """log(1 + exp(x)), evaluated stably for large |x|."""
    if _untaped(a):
        return _softplus_arr(a)
    a = _coerce(a)
    return _attach(_softplus_arr(a.data), (a,), lambda g: (g * _sigmoid_arr(a.data),))


def absolute(a):
    if _untaped(a):
        return np.abs(a)
    a = _coerce(a)
    return _attach(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def _softmax_arr(x, axis):
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for shape {x.shape}")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis):
    if _untaped(a):
        return _softmax_arr(a, axis)
    a = _coerce(a)
    y = _softmax_arr(a.data, axis)

    return _attach(y, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


# -- reductions and structure -------------------------------------------


def _tsum_arr(x):
    return np.array(x.sum())


def tsum(a):
    if _untaped(a):
        return _tsum_arr(a)
    a = _coerce(a)
    return _attach(_tsum_arr(a.data), (a,), lambda g: (np.full(a.data.shape, float(g)),))


def _tmean_arr(x):
    return np.array(x.mean())


def tmean(a):
    if _untaped(a):
        return _tmean_arr(a)
    a = _coerce(a)
    n = a.data.size
    return _attach(_tmean_arr(a.data), (a,), lambda g: (np.full(a.data.shape, float(g) / n),))


def _reshape_arr(x, shape):
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {tuple(shape)}")
    return x.reshape(shape).copy()


def reshape(a, shape):
    if _untaped(a):
        return _reshape_arr(a, shape)
    a = _coerce(a)
    return _attach(_reshape_arr(a.data, shape), (a,), lambda g: (g.reshape(a.data.shape),))


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
    if _untaped(*tensors):
        return _concat_arr(tensors, axis)
    tensors = tuple(_coerce(t) for t in tensors)
    out = _concat_arr([t.data for t in tensors], axis)
    # each parent's block of the output, as an index into g
    index, blocks, hi = [slice(None)] * out.ndim, [], 0
    for t in tensors:
        lo, hi = hi, hi + t.data.shape[axis]
        index[axis] = slice(lo, hi)
        blocks.append(tuple(index))
    return _attach(out, tensors, lambda g: [g[block] for block in blocks])


def _cols_arr(x, start, stop):
    if x.ndim != 2:
        raise DimensionError(f"cols needs a 2-d tensor, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise DimensionError(f"cols [{start}:{stop}] out of range for shape {x.shape}")
    return x[:, start:stop].copy()


def cols(a, start, stop):
    """Column slice of a 2-d tensor."""
    if _untaped(a):
        return _cols_arr(a, start, stop)
    a = _coerce(a)
    out = _cols_arr(a.data, start, stop)

    def pull(g):
        full = np.zeros(a.data.shape)
        full[:, start:stop] = g
        return (full,)

    return _attach(out, (a,), pull)


def _scale_rows_arr(x, s):
    if x.ndim != 2 or s.ndim != 1 or s.shape[0] != x.shape[0]:
        raise DimensionError(f"scale_rows: shapes {x.shape} and {s.shape} are incompatible")
    return x * s[:, None]


def scale_rows(a, s):
    """Multiply row i of a 2-d tensor by s[i]."""
    if _untaped(a, s):
        return _scale_rows_arr(a, s)
    a, s = _coerce(a), _coerce(s)
    out = _scale_rows_arr(a.data, s.data)
    return _attach(out, (a, s), lambda g: (
        g * s.data[:, None] if a.requires_grad else None,
        (g * a.data).sum(axis=1) if s.requires_grad else None,
    ))


def _add_rowvec_arr(x, b):
    if x.ndim != 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise DimensionError(f"add_rowvec: shapes {x.shape} and {b.shape} are incompatible")
    return x + b[None, :]


def add_rowvec(a, b):
    """Add a length-n vector to every row of an (m, n) tensor."""
    if _untaped(a, b):
        return _add_rowvec_arr(a, b)
    a, b = _coerce(a), _coerce(b)
    out = _add_rowvec_arr(a.data, b.data)
    return _attach(out, (a, b), lambda g: (g, g.sum(axis=0) if b.requires_grad else None))


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
    if _untaped(x, w, b):
        return _dense_arr(x, w, b, act)
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    y = _dense_arr(x.data, w.data, b.data, act)

    def pull(g):
        if act == "relu":
            g = g * (y > 0)  # a relu output is positive exactly where its input was
        elif act == "tanh":
            g = g * (1.0 - y * y)
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _attach(y, (x, w, b), pull)


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
    if _untaped(a):
        return _depatchify_arr(a, grid_h, grid_w, patch)
    a = _coerce(a)
    out = _depatchify_arr(a.data, grid_h, grid_w, patch)

    def pull(g):
        return (
            g.reshape(grid_h, patch, grid_w, patch)
            .transpose(0, 2, 1, 3)
            .reshape(grid_h * grid_w, patch * patch),
        )

    return _attach(out, (a,), pull)


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

    def tensors(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)]


def _split_heads(x, heads):
    """(L, heads * d_h) -> a contiguous (heads, L, d_h) copy; head h is column block h."""
    n, width = x.shape
    return x.reshape(n, heads, width // heads).transpose(1, 0, 2).copy()


def _merge_heads(x):
    """(heads, L, d_h) -> a contiguous (L, heads * d_h), the heads side by side."""
    heads, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(n, heads * dh)


def _attention_weights_arr(qp, kp, heads):
    """softmax((q_h @ k_h^T) * scale) for every head h at once, shape (heads, L_q, L_k).

    Head h owns columns [h*dh, (h+1)*dh) of the projections.  Returns
    the weights, the scale, and the contiguous per-head queries
    (heads, L_q, dh) and transposed keys (heads, dh, L_k) they were
    computed from.
    """
    dh = qp.shape[1] // heads
    scale = 1.0 / math.sqrt(dh)
    qh = _split_heads(qp, heads)
    kht = kp.T.reshape(heads, dh, kp.shape[0]).copy()
    z = np.matmul(qh, kht) * scale
    e = np.exp(z - z.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True), scale, qh, kht


def _attention_weights(qp, kp, heads: int):
    """The attention weights node.

    The pullback takes the softmax pull, then the scale, then each head's
    two matmul pulls into that head's column block of qp and kp.
    """
    if _untaped(qp, kp):
        return _attention_weights_arr(qp, kp, heads)[0]
    qp, kp = _coerce(qp), _coerce(kp)
    y, scale, qh, kht = _attention_weights_arr(qp.data, kp.data, heads)

    def pull(g):
        gs = y * (g - (g * y).sum(axis=2, keepdims=True)) * scale
        gq = np.matmul(gs, kht.transpose(0, 2, 1))
        gk = np.matmul(qh.transpose(0, 2, 1), gs).transpose(0, 2, 1)
        return _merge_heads(gq), _merge_heads(gk)

    return _attach(y, (qp, kp), pull)


def _attention_mix_arr(weights, vp, heads):
    """Head h's weights times its column block of vp, heads side by side.

    Returns the mix and the contiguous per-head values (heads, L_k, dh) it read.
    """
    vh = _split_heads(vp, heads)
    return _merge_heads(np.matmul(weights, vh)), vh


def _attention_mix(weights, vp, heads: int):
    if _untaped(weights, vp):
        return _attention_mix_arr(weights, vp, heads)[0]
    weights, vp = _coerce(weights), _coerce(vp)
    out, vh = _attention_mix_arr(weights.data, vp.data, heads)
    y = weights.data

    def pull(g):
        # head h's column block of g, as a strided view
        gh = g.reshape(g.shape[0], heads, -1).transpose(1, 0, 2)
        gw = np.matmul(gh, vh.transpose(0, 2, 1))
        gv = np.matmul(y.transpose(0, 2, 1), gh)
        return gw, _merge_heads(gv)

    return _attach(out, (weights, vp), pull)


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
    copies, and an incoming gradient's as a strided view.  Each head's
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
