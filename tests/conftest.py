"""Shared test helpers: finite-difference gradient checking and stage call counts.

The suite runs BLAS on one thread, as the benchmark does: the model's
matrices are small, and criterion 03's time bound assumes one thread
when the CPU is busy.  The variable must be set before numpy loads.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from grasp.model import GraspModel  # noqa: E402
from grasp.tensor import backward, zero_grads  # noqa: E402

FD_EPS = 1e-5
FD_TOL = 1e-6


def numeric_grad(build, leaf, eps=FD_EPS):
    """Central-difference gradient of the scalar build() w.r.t. one leaf tensor.

    build() must reconstruct the graph from scratch on every call; the leaf's
    data buffer is perturbed in place and restored.
    """
    g = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = float(build().data)
        flat[i] = keep - eps
        lo = float(build().data)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def gradcheck(build, leaves, eps=FD_EPS, tol=FD_TOL, label=""):
    """Assert reverse-mode gradients match finite differences for every leaf.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator so
    near-zero gradients are compared absolutely.
    """
    zero_grads(leaves)
    out = build()
    assert out.size == 1, "gradcheck needs a scalar objective"
    backward(out)
    for j, leaf in enumerate(leaves):
        analytic = leaf.grad.copy()
        numeric = numeric_grad(build, leaf, eps=eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        worst = float(rel.max()) if rel.size else 0.0
        assert worst < tol, (
            f"{label} leaf {j}: max rel grad error {worst:.3e} >= {tol:.0e}\n"
            f"analytic={analytic!r}\nnumeric={numeric!r}"
        )


def count_model_calls(monkeypatch, *names):
    """Count calls to the named GraspModel methods; returns the live {name: calls} dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _name=name, _fn=getattr(GraspModel, name), **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(GraspModel, name, counted)
    return calls
