"""In-memory spans around the library's public entry points.

The benchmark never edits ``src/``.  Instead, a traced run replaces each
public function (or method) it wants to see with a wrapper that records
a span: name, start, end, parent span, the top-level request the span
belongs to, and a request id.  A function that another module bound with
``from ... import`` is patched in every ``grasp`` module that holds it,
so ``grasp.model.sdf`` is traced as well as ``grasp.geometry.sdf``.

Spans stay in memory until the run ends; :func:`layer_table` and
``workloads.layer_metrics`` derive the per-layer numbers from them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# A span is a list: [name, start, end, parent, root, rid].
NAME, START, END, PARENT, ROOT, RID = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans, innermost last
        self.instance_of = {}  # id(array or mask) -> held-out instance index
        self.items = defaultdict(int)  # span name -> instances it handled
        self.sdf_masks = defaultdict(set)  # root span -> distinct SDF mask digests
        self.tape_nodes = {}  # root span -> nodes reachable from its first instance loss
        self._patched = []

    # -- spans ----------------------------------------------------------

    def open(self, name, rid=None):
        parent = self.stack[-1] if self.stack else None
        root = len(self.spans) if parent is None else self.spans[parent][ROOT]
        if rid is None and parent is not None:
            rid = self.spans[parent][RID]
        self.spans.append([name, time.perf_counter(), None, parent, root, rid])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        """Close span ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == index:
                return

    def begin_step(self, step):
        """Start the span of training step ``step``; it ends at the next step or at return."""
        top = self.stack[-1] if self.stack else None
        if top is not None and self.spans[top][NAME] == "training.step":
            self.close(top)
        parent_rid = self.spans[self.stack[-1]][RID] if self.stack else None
        self.open("training.step", rid=f"{parent_rid}/step{step}")

    # -- patching -------------------------------------------------------

    def _instance_rid(self, args):
        """``<request>/inst<k>`` when a call touches held-out instance k, else None (inherit)."""
        if not self.stack or self.spans[self.stack[0]][NAME] == "request.train":
            return None  # inside training the step index is the request id
        for a in args:
            k = self.instance_of.get(id(a))
            if k is not None:
                return f"{self.spans[self.stack[0]][RID]}/inst{k}"
        return None

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (and every alias of a module function) by a spanning wrapper.

        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self.open(name, self._instance_rid(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        if isinstance(owner, type):
            targets = [owner]
        else:  # a module function: patch every grasp module that bound it
            targets = [m for n, m in sys.modules.items()
                       if (n == "grasp" or n.startswith("grasp.")) and getattr(m, attr, None) is fn]
        for target in targets:
            self._patched.append((target, attr, fn))
            setattr(target, attr, wrapper)

    def restore(self):
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()


def install(tracer: Tracer):
    """Span every public entry point the per-layer metrics need."""
    import grasp.cli
    import grasp.evalkit
    import grasp.geometry
    import grasp.model
    import grasp.pgm
    import grasp.probe
    import grasp.synthdata
    import grasp.tensor
    import grasp.training

    def count(name, n_of):
        def after(args, kwargs, result):
            tracer.items[name] += n_of(args, kwargs, result)
        return after

    def note_mask(args, kwargs, result):
        root = tracer.stack[0] if tracer.stack else None
        tracer.sdf_masks[root].add(hash(args[0].a.tobytes()))

    def note_tape(args, kwargs, result):
        # once per training request: the traversal would otherwise inflate step self time
        root = tracer.stack[0] if tracer.stack else None
        if root not in tracer.tape_nodes:
            tracer.tape_nodes[root] = len(grasp.tensor.Tape.trace(result[0]).tensors)

    w = tracer.wrap
    w(grasp.geometry, "sdf", "geometry.sdf", note_mask)
    w(grasp.geometry, "edt_sq", "geometry.edt_sq")
    w(grasp.tensor, "backward", "tensor.backward")
    w(grasp.tensor, "multihead_cross_attention", "tensor.attention")
    model = grasp.model.GraspModel
    w(model, "forward", "model.forward")
    w(model, "encode", "model.encode")
    w(model, "vm_encode_fuse", "model.vm_encode_fuse")
    w(model, "spm", "model.spm")
    w(model, "gate", "model.gate_inject")
    w(model, "inject", "model.gate_inject")
    w(model, "decode_branches", "model.decode")
    w(model, "heads_from_branches", "model.decode")
    w(grasp.model, "save_checkpoint", "model.save_checkpoint")
    w(grasp.model, "load_checkpoint", "model.load_checkpoint")
    w(grasp.training, "train", "training.train")
    w(grasp.training, "total_loss", "training.total_loss", note_tape)
    w(grasp.training.AdamW, "step", "training.adamw_step")
    w(grasp.synthdata, "training_vm", "synthdata.training_vm")
    w(grasp.synthdata, "perturb_vm", "synthdata.perturb_vm")
    w(grasp.synthdata, "generate_scene", "synthdata.generate_scene")
    w(grasp.synthdata, "generate_dataset", "synthdata.generate_dataset")
    w(grasp.synthdata, "write_dataset", "synthdata.write_dataset",
      count("synthdata.write_dataset", lambda a, k, r: len(a[1])))
    w(grasp.synthdata, "read_dataset", "synthdata.read_dataset",
      count("synthdata.read_dataset", lambda a, k, r: len(r[1])))
    w(grasp.pgm, "write_pgm", "pgm.write_pgm")
    w(grasp.pgm, "read_pgm", "pgm.read_pgm")
    w(grasp.geometry, "iou", "geometry.iou")
    w(grasp.evalkit, "predict", "evalkit.predict")
    w(grasp.evalkit, "two_pass", "evalkit.two_pass")
    w(grasp.evalkit, "evaluate", "evalkit.evaluate",
      count("evalkit.evaluate", lambda a, k, r: len(a[1])))
    w(grasp.evalkit, "ablate", "evalkit.ablate")
    w(grasp.evalkit, "gate_stats", "evalkit.gate_stats")
    w(grasp.evalkit, "attention_stats", "evalkit.attention_stats")
    w(grasp.probe, "probe_report", "probe.probe_report")
    w(grasp.probe, "extract_probe_set", "probe.extract",
      count("probe.extract", lambda a, k, r: len(a[1])))
    w(grasp.probe, "ridge_fit", "probe.ridge_fit")
    w(grasp.cli, "main", "cli.main")


# -- derived numbers ---------------------------------------------------------


def layer_table(spans) -> dict:
    """Per span name: calls, total milliseconds and self milliseconds."""
    child_ms = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_ms[s[PARENT]] += s[END] - s[START]
    table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for i, s in enumerate(spans):
        row = table[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["total_ms"] += 1e3 * dur
        row["self_ms"] += 1e3 * (dur - child_ms[i])
    return dict(table)


def per_request_kind(spans, name, kinds) -> dict:
    """Count spans called ``name`` under each top-level request kind.

    Returns kind -> (spans of ``name``, requests of that kind).
    """
    root_kind = {i: s[NAME][len("request."):] for i, s in enumerate(spans)
                 if s[PARENT] is None and s[NAME].startswith("request.")}
    out = {k: [0, 0] for k in kinds}
    for kind in root_kind.values():
        if kind in out:
            out[kind][1] += 1
    for s in spans:
        kind = root_kind.get(s[ROOT])
        if s[NAME] == name and kind in out:
            out[kind][0] += 1
    return out
