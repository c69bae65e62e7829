"""Prediction, evaluation protocols, stratification, and mechanism stats.

Protocols
    oracle    The model receives the ground-truth visible mask.
    standard  The model receives a deterministically perturbed visible
              mask, mimicking an upstream segmenter; the perturbation
              seed derives from the eval seed and the instance index.

Metrics are mask IoUs at threshold 0.5.  Full mIoU compares the amodal
prediction against the amodal ground truth over all instances; occluded
mIoU compares the occluded prediction against the ground-truth occluded
region over the instances whose occluded region is nonempty.

The gate ablation pins the injection gate to a constant (0, 0.5, 1) or
leaves it learned (none).  Optional post-processing unions the amodal
prediction with the visible-mask input (whatever mask the model was
actually given).  Optional two-pass inference re-runs the model with a
self-estimated visible mask: amodal minus occluded from pass one,
falling back to the original visible-mask input when that estimate is
empty.

Every protocol reads its masks, each row's mean gate and the gate and
prototype-attention statistics from the one trace that made the
prediction: under two-pass inference, the second pass's.  The
statistics are reduced as each instance finishes: a sweep keeps a few
scalars and two running sums per instance stream, never an instance's
attention maps, gate or SDF tokens.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .geometry import BinaryMask, iou, mask_diff, mask_union
from .model import GraspModel
from .seeding import derive_seed
from .synthdata import OCC_BINS, SceneInstance, perturb_vm

VM_BINS = ((0.5, 0.65), (0.65, 0.75), (0.75, 0.85), (0.85, 0.95), (0.95, 1.0))


def _masks(trace, threshold: float) -> tuple[BinaryMask, BinaryMask]:
    cut = _logit(threshold)
    return BinaryMask(trace.logits_amodal > cut), BinaryMask(trace.logits_occ > cut)


def _logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ConfigError(f"threshold {p} outside (0, 1)")
    return math.log(p / (1.0 - p))


def predict(model: GraspModel, image: np.ndarray, v_input: BinaryMask,
            threshold: float = 0.5, gate_override: Optional[float] = "config"):
    """One untaped forward pass -> (amodal mask, occluded mask, trace of plain arrays)."""
    trace = model.untaped().forward(image, v_input, gate_override=gate_override)
    return (*_masks(trace, threshold), trace)


def postprocess_union(amodal_pred: BinaryMask, v_input: BinaryMask) -> BinaryMask:
    """Amodal predictions may never exclude the visible evidence."""
    return mask_union(amodal_pred, v_input)


@dataclass(frozen=True)
class TwoPassResult:
    amodal: BinaryMask
    occluded: BinaryMask
    v_reference: BinaryMask
    passes: int
    fallback_used: bool
    first_amodal: BinaryMask
    first_occluded: BinaryMask


def two_pass(model: GraspModel, image: np.ndarray, v_input: BinaryMask,
             threshold: float = 0.5, gate_override: Optional[float] = "config") -> TwoPassResult:
    """Self-refined inference: exactly two passes.

    The second pass replaces the visible-mask input with the model's own
    estimate from the first pass (amodal minus occluded), or with the
    original input when that estimate is empty.  It reuses the first
    pass's image tokens, so the image is encoded once.
    """
    model = model.untaped()
    first = model.forward(image, v_input, gate_override=gate_override)
    second, a1, o1, v_ref, fallback = _second_pass(model, v_input, first, threshold,
                                                   gate_override)
    a2, o2 = _masks(second, threshold)
    return TwoPassResult(
        amodal=a2, occluded=o2, v_reference=v_ref, passes=2,
        fallback_used=fallback, first_amodal=a1, first_occluded=o1,
    )


def _second_pass(model, v_input, first, threshold, gate_override):
    """``(trace, first amodal, first occluded, v_reference, fallback_used)`` of pass two.

    Given an untaped model and the first pass's trace; the second pass
    reuses the first one's image tokens.
    """
    a1, o1 = _masks(first, threshold)
    v_ref = mask_diff(a1, o1)
    fallback = not v_ref.any()
    if fallback:
        v_ref = v_input
    second = model.regate(model.prefix(first.tokens, v_ref), gate_override)
    return second, a1, o1, v_ref, fallback


@dataclass
class EvalReport:
    protocol: str
    gate_override: Optional[float]
    postprocess: bool
    two_pass: bool
    threshold: float
    occ_metric: str
    eval_seed: int
    n_instances: int
    n_occluded: int
    full_miou: float
    occ_miou: Optional[float]
    rows: list = field(repr=False)
    occ_strata: list = field(repr=False)
    vm_strata: list = field(repr=False)
    gate_stats: Optional[dict] = None
    attention_stats: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _bin_index(bins, value: float) -> Optional[int]:
    for i, (lo, hi) in enumerate(bins):
        last = i == len(bins) - 1
        if lo <= value < hi or (last and value == hi):
            return i
    return None


def stratify(rows: list, key: str, bins) -> list:
    """Per-bin count and mean occluded IoU over rows that carry the key.

    Bins are half-open [lo, hi) except the last, which is closed.  Rows
    whose key is None or out of range are skipped; rows without an
    occluded IoU still count toward N but not toward the mean.
    """
    table = [{"lo": lo, "hi": hi, "n": 0, "occ_ious": []} for lo, hi in bins]
    for row in rows:
        value = row.get(key)
        if value is None:
            continue
        idx = _bin_index(bins, value)
        if idx is None:
            continue
        table[idx]["n"] += 1
        if row.get("occ_iou") is not None:
            table[idx]["occ_ious"].append(row["occ_iou"])
        if row.get("full_iou") is not None:
            table[idx].setdefault("full_ious", []).append(row["full_iou"])
    out = []
    for cell in table:
        occ = cell["occ_ious"]
        full = cell.get("full_ious", [])
        out.append(
            {
                "lo": cell["lo"],
                "hi": cell["hi"],
                "n": cell["n"],
                "occ_miou": (sum(occ) / len(occ)) if occ else None,
                "full_miou": (sum(full) / len(full)) if full else None,
            }
        )
    return out


def evaluate(model, instances: list[SceneInstance], protocol: str = "oracle", *,
             gate_override: Optional[float] = "config", use_postprocess: bool = False,
             use_two_pass: bool = False, threshold: float = 0.5, eval_seed: int = 0,
             occ_metric: str = "head", collect_stats: bool = True) -> EvalReport:
    """Run a full evaluation sweep and aggregate every reporting table.

    ``model`` is normally a GraspModel, which runs untaped; each row's
    ``mean_gate`` and the mechanism statistics then come from the trace
    that made the scored prediction, the second pass's under two-pass
    inference.  Any callable ``(image, v_input) -> (amodal_mask,
    occluded_mask)`` also works (``mean_gate`` and the mechanism stats
    are then skipped), which keeps the metric plumbing testable against
    stub predictors with hand-computable IoUs.
    """
    return _sweep(model, instances, protocol, (gate_override,), use_postprocess=use_postprocess,
                  use_two_pass=use_two_pass, threshold=threshold, eval_seed=eval_seed,
                  occ_metric=occ_metric, collect_stats=collect_stats)[0]


def _sweep(model, instances, protocol, overrides, *, use_postprocess=False,
           use_two_pass=False, threshold=0.5, eval_seed=0, occ_metric="head",
           collect_stats=True) -> list[EvalReport]:
    """One EvalReport per gate override, from one forward pass per instance.

    Later overrides re-gate the first one's trace.  Under two-pass
    inference the first passes share it the same way; the second pass
    runs per override, as its input depends on the first pass's output,
    and its trace is the one scored.
    """
    if protocol not in ("oracle", "standard"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    if occ_metric not in ("head", "amodal_minus_visible"):
        raise ConfigError(f"unknown occluded-IoU operand choice {occ_metric!r}")
    if eval_seed < 0:
        raise ConfigError(f"eval seed {eval_seed} must be >= 0")

    is_model = isinstance(model, GraspModel)
    if is_model:
        model = model.untaped()
    rows = [[] for _ in overrides]
    tallies = [_MechanismTally(model.config.grid) if is_model and collect_stats else None
               for _ in overrides]
    for index, inst in enumerate(instances):
        if protocol == "standard":
            v_input = perturb_vm(inst.visible, derive_seed(eval_seed, "eval-vm", index))
            vm_iou = iou(v_input, inst.visible)
        else:
            v_input = inst.visible
            vm_iou = None
        occluded = inst.occluded
        has_occluded = occluded.any()

        first = None
        for k, override in enumerate(overrides):
            if is_model:
                first = (model.forward(inst.image, v_input, override) if first is None
                         else model.regate(first, override))
                trace = (_second_pass(model, v_input, first, threshold, override)[0]
                         if use_two_pass else first)
                amodal_pred, occ_pred = _masks(trace, threshold)
                mean_gate = float(trace.gate.mean())
                if tallies[k] is not None:
                    tallies[k].add(inst.occ_ratio, trace.gate, trace.sdf_tokens, trace.proto_attn)
            else:
                amodal_pred, occ_pred = model(inst.image, v_input)
                mean_gate = None

            if use_postprocess:
                amodal_pred = postprocess_union(amodal_pred, v_input)

            if occ_metric == "amodal_minus_visible":
                occ_pred = mask_diff(amodal_pred, v_input)

            full_iou = iou(amodal_pred, inst.amodal)
            occ_iou = iou(occ_pred, occluded) if has_occluded else None

            rows[k].append(
                {
                    "index": index,
                    "shape_class": inst.shape_class,
                    "occ_ratio": inst.occ_ratio,
                    "vm_iou": vm_iou,
                    "full_iou": full_iou,
                    "occ_iou": occ_iou,
                    "mean_gate": mean_gate,
                }
            )

    reports = []
    for k, gate_override in enumerate(overrides):
        effective_override = gate_override
        if isinstance(gate_override, str) and gate_override == "config":
            effective_override = model.resolve_override() if is_model else None

        full_scores = [r["full_iou"] for r in rows[k]]
        occ_scores = [r["occ_iou"] for r in rows[k] if r["occ_iou"] is not None]
        report = EvalReport(
            protocol=protocol,
            gate_override=effective_override,
            postprocess=use_postprocess,
            two_pass=use_two_pass,
            threshold=threshold,
            occ_metric=occ_metric,
            eval_seed=eval_seed,
            n_instances=len(rows[k]),
            n_occluded=len(occ_scores),
            full_miou=(sum(full_scores) / len(full_scores)) if full_scores else float("nan"),
            occ_miou=(sum(occ_scores) / len(occ_scores)) if occ_scores else None,
            rows=rows[k],
            occ_strata=stratify(rows[k], "occ_ratio", OCC_BINS),
            vm_strata=stratify(rows[k], "vm_iou", VM_BINS) if protocol == "standard" else [],
        )
        if tallies[k] is not None and tallies[k].n:
            report.gate_stats = tallies[k].gate_stats()
            report.attention_stats = tallies[k].attention_stats()
        reports.append(report)
    return reports


# -- mechanism statistics ---------------------------------------------------


@functools.lru_cache(maxsize=8)
def _position_selections(grid: int) -> tuple[np.ndarray, ...]:
    """Read-only token selections of a grid x grid layout, in _POSITION_NAMES order.

    A token is a corner when it lies on both a border row and a border
    column, an edge when on one of them, and a center otherwise.
    """
    ty, tx = np.divmod(np.arange(grid * grid), grid)
    on_y = (ty == 0) | (ty == grid - 1)
    on_x = (tx == 0) | (tx == grid - 1)
    selections = (~(on_y | on_x), on_y ^ on_x, on_y & on_x)
    for sel in selections:
        sel.flags.writeable = False
    return selections


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence, base 2, between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionError(f"distribution shapes {p.shape} and {q.shape} differ")
    m = 0.5 * (p + q)

    def entropy(d):
        nz = d > 0
        return float(-(d[nz] * np.log2(d[nz])).sum())

    return entropy(m) - 0.5 * (entropy(p) + entropy(q))


_POSITION_NAMES = ("center", "edge", "corner")


class _MechanismTally:
    """The gate and attention statistics of a stream of instances.

    ``add`` reduces one instance's gate, SDF tokens and prototype
    attention to the scalars and running sums the reports read, so no
    per-instance array outlives its instance.  The arithmetic and its
    order are those of one pass over all instances at the end, so the
    reports are bit-identical to it.
    """

    def __init__(self, grid: int):
        self.position_sel = _position_selections(grid)
        self.n = 0
        # gate: per-instance mean gate by occlusion bin and by grid position
        self.gate_by_bin = [[] for _ in OCC_BINS]
        self.gate_by_position = [[] for _ in _POSITION_NAMES]
        self.sdf_mins, self.sdf_maxs = [], []
        # attention: per-instance scalars and the running distribution sums
        self.jsd_values, self.top1_occ, self.top1_vis = [], [], []
        self.sum_occ = self.sum_vis = None
        self.n_skipped = 0

    def add(self, occ_ratio, gate_vals, sdf_tok, attn) -> None:
        """One instance; ``gate_vals`` or ``attn`` is None to skip its half."""
        self.n += 1
        if gate_vals is not None:
            idx = _bin_index(OCC_BINS, occ_ratio)
            if idx is not None:
                self.gate_by_bin[idx].append(float(gate_vals.mean()))
            for sel, vals in zip(self.position_sel, self.gate_by_position):
                if sel.any():
                    vals.append(float(gate_vals[sel].mean()))
            self.sdf_mins.append(sdf_tok.min())
            self.sdf_maxs.append(sdf_tok.max())
        if attn is not None:
            self._add_attention(sdf_tok, attn)

    def _add_attention(self, sdf_tok, attn) -> None:
        head_avg = attn.mean(axis=0)  # (tokens, n_prototypes)
        occ_sel = sdf_tok > 0
        vis_sel = ~occ_sel
        if not occ_sel.any() or not vis_sel.any():
            self.n_skipped += 1
            return
        occ_dist = head_avg[occ_sel].mean(axis=0)
        vis_dist = head_avg[vis_sel].mean(axis=0)
        self.jsd_values.append(js_divergence(occ_dist, vis_dist))
        self.top1_occ.append(float(head_avg[occ_sel].max(axis=1).mean()))
        self.top1_vis.append(float(head_avg[vis_sel].max(axis=1).mean()))
        self.sum_occ = occ_dist if self.sum_occ is None else self.sum_occ + occ_dist
        self.sum_vis = vis_dist if self.sum_vis is None else self.sum_vis + vis_dist

    def gate_stats(self) -> dict:
        """Mean/σ of the per-instance mean gate by occlusion bin and position."""
        bins_out = []
        for (lo, hi), vals in zip(OCC_BINS, self.gate_by_bin):
            bins_out.append(
                {
                    "lo": lo,
                    "hi": hi,
                    "n": len(vals),
                    "mean_gate": float(np.mean(vals)) if vals else None,
                    "std_gate": float(np.std(vals)) if vals else None,
                }
            )
        position_out = {
            name: {
                "n_tokens": int(sel.sum()),
                "mean_gate": float(np.mean(vals)) if vals else None,
            }
            for name, sel, vals in zip(_POSITION_NAMES, self.position_sel, self.gate_by_position)
        }
        return {
            "by_occ_bin": bins_out,
            "by_grid_position": position_out,
            "sdf_token_range": [float(np.min(self.sdf_mins)), float(np.max(self.sdf_maxs))],
        }

    def attention_stats(self) -> dict:
        """Contrast prototype attention between occluded and visible tokens.

        Tokens are classified by the sign of their pooled signed distance
        (positive means outside the visible evidence).  Per instance, each
        group's head-averaged attention rows are averaged into one
        distribution over prototypes; instances where either group is
        empty are skipped but counted.
        """
        n_used = len(self.jsd_values)
        pooled = None
        if n_used:
            pooled = js_divergence(self.sum_occ / n_used, self.sum_vis / n_used)
        return {
            "n_instances": n_used,
            "n_skipped": self.n_skipped,
            "jsd_mean": float(np.mean(self.jsd_values)) if self.jsd_values else None,
            "jsd_pooled": pooled,
            "top1_occluded": float(np.mean(self.top1_occ)) if self.top1_occ else None,
            "top1_visible": float(np.mean(self.top1_vis)) if self.top1_vis else None,
        }


def gate_stats(model: GraspModel, instances: list[SceneInstance]) -> Optional[dict]:
    """Gate statistics under the oracle protocol; None for no instances.

    The gate reads only the visible mask's signed distance, so this runs
    the SDF and the gate, not the forward pass; the result equals
    ``evaluate(model, instances, "oracle").gate_stats``.
    """
    model = model.untaped()
    override = model.resolve_override()
    tally = _MechanismTally(model.config.grid)
    for inst in instances:
        sdf_tok = model.sdf_tokens(inst.visible)
        tally.add(inst.occ_ratio, model.gate(sdf_tok, override), sdf_tok, None)
    return tally.gate_stats() if tally.n else None


def attention_stats(model: GraspModel, instances: list[SceneInstance]) -> Optional[dict]:
    """Prototype-attention statistics under the oracle protocol; None for no instances.

    Attention precedes the gate, so this runs the forward pass's prefix
    only; the result equals ``evaluate(model, instances, "oracle").attention_stats``.
    """
    model = model.untaped()
    tally = _MechanismTally(model.config.grid)
    for inst in instances:
        trace = model.prefix(model.encode(inst.image), inst.visible)
        tally.add(None, None, trace.sdf_tokens, trace.proto_attn)
    return tally.attention_stats() if tally.n else None


def mechanism_stats(model: GraspModel, instances: list[SceneInstance]
                    ) -> tuple[Optional[dict], Optional[dict]]:
    """``(gate_stats, attention_stats)`` from one SDF and one prefix per instance.

    The gate is taken from the prefix's SDF tokens, so each result
    equals its own function's bit for bit at half the SDF work.
    """
    model = model.untaped()
    override = model.resolve_override()
    tally = _MechanismTally(model.config.grid)
    for inst in instances:
        trace = model.prefix(model.encode(inst.image), inst.visible)
        tally.add(inst.occ_ratio, model.gate(trace.sdf_tokens, override), trace.sdf_tokens,
                  trace.proto_attn)
    if not tally.n:
        return None, None
    return tally.gate_stats(), tally.attention_stats()


def ablate(model: GraspModel, instances: list[SceneInstance], protocol: str = "oracle",
           overrides=(None, 0.0, 0.5, 1.0), **kwargs) -> list[tuple[Optional[float], EvalReport]]:
    """Evaluate under each gate override; None means the learned gate.

    One forward pass per instance serves every override: the rest re-gate
    its trace, so each report equals ``evaluate`` under that override.
    """
    reports = _sweep(model, instances, protocol, overrides, collect_stats=False, **kwargs)
    return list(zip(overrides, reports))
