"""Losses and the optimization loop.

Both heads are trained with binary cross-entropy plus soft Dice on
their logits.  The occluded-region target is always derived from the
ground-truth masks (amodal minus visible), never from the possibly
perturbed mask the model was fed, and the occluded term is weighted
1.5x because those pixels are the scarce, hard ones.

Optimization is AdamW (decoupled weight decay) under a cosine learning
rate schedule that decays to zero.  Every random choice in the loop
(batch sampling, mask perturbation) derives from the run seed, so a
run is bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import (ConfigError, IntegrityError, TrainingDiverged, check_ranges,
                     config_from_dict, csv_row, write_csv)
from .geometry import BinaryMask, mask_diff
from .model import ForwardTrace, GraspModel, save_checkpoint
from .seeding import derive_seed
from .synthdata import SceneInstance, training_vm
from .tensor import Tensor

DICE_EPS = 1e-6
OCC_WEIGHT = 1.5


def bce_with_logits(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, evaluated in the stable logit form.

    mean(softplus(x) - x*t); softplus never exponentiates a positive
    argument, zero logits give exactly log(2), and the gradient is
    sigmoid(x) - t everywhere -- writing this as relu(x) + softplus(-|x|)
    would drop the 0.5 at x == 0, which dead-relu tokens with zero-init
    head biases actually hit.
    """
    t = Tensor(np.asarray(target, dtype=np.float64))
    return T.tmean(T.sub(T.softplus(logits), T.mul(logits, t)))


def dice_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps) with p = sigmoid(logits)."""
    t = Tensor(np.asarray(target, dtype=np.float64))
    p = T.sigmoid(logits)
    overlap = T.tsum(T.mul(p, t))
    denom = T.add(T.tsum(p), T.tsum(t))
    return T.sub(1.0, T.div(T.add(T.mul(2.0, overlap), DICE_EPS), T.add(denom, DICE_EPS)))


@dataclass(frozen=True)
class LossBreakdown:
    bce_amodal: float
    dice_amodal: float
    bce_occluded: float
    dice_occluded: float
    amodal: float
    occluded: float
    total: float


# the field names in order; the loss CSV's columns after step and lr
LossBreakdown.FIELDS = tuple(f.name for f in fields(LossBreakdown))


def _bce_dice(x: np.ndarray, t: np.ndarray):
    """One head's BCE and Dice values and the pull of the gradient their sum receives.

    The forward evaluates ``bce_with_logits`` and ``dice_loss``'s numpy
    expressions in their order, with one sigmoid shared by the Dice terms
    and the BCE pull.  The pull repeats the elementary chain's arithmetic
    and its accumulation order into the logits: the Dice sigmoid's term,
    then the ``x*t`` term, then the softplus term.
    """
    n = x.size
    bce = (np.logaddexp(0.0, x) - x * t).mean()
    p = T._sigmoid_arr(x)
    num = 2.0 * (p * t).sum() + DICE_EPS
    den = p.sum() + t.sum() + DICE_EPS
    dice = 1.0 - num / den

    def pull(g):
        g_q = -g
        g_den = -g_q * num / (den * den)
        g_ov = g_q / den * 2.0
        gd = float(g) / n
        return (float(g_den) + float(g_ov) * t) * p * (1.0 - p) + (-gd) * t + gd * p

    return bce, dice, pull


def total_loss(trace: ForwardTrace, amodal_gt: BinaryMask, visible_gt: BinaryMask,
               occ_weight: float = OCC_WEIGHT) -> tuple[Tensor, LossBreakdown]:
    """Combined loss; the occluded target is amodal_gt minus visible_gt.

    Both heads' BCE and Dice terms are one tape node.  Its value, its
    breakdown and the gradients it sends to the two logit tensors are
    bit-equal to composing ``bce_with_logits`` and ``dice_loss`` per head
    as ``amodal + occ_weight * occluded``.
    """
    if mask_diff(visible_gt, amodal_gt).any():
        raise IntegrityError("ground-truth visible mask leaks outside the amodal mask")
    occ_gt = mask_diff(amodal_gt, visible_gt)
    w = float(occ_weight)

    bce_a, dice_a, pull_a = _bce_dice(trace.logits_amodal.data, amodal_gt.a.astype(np.float64))
    bce_o, dice_o, pull_o = _bce_dice(trace.logits_occ.data, occ_gt.a.astype(np.float64))
    amodal = bce_a + dice_a
    occluded = bce_o + dice_o
    total = amodal + w * occluded
    loss = T._attach(np.array(total), (trace.logits_amodal, trace.logits_occ),
                     lambda g: (pull_a(g), pull_o(g * w)))

    breakdown = LossBreakdown(
        bce_amodal=float(bce_a),
        dice_amodal=float(dice_a),
        bce_occluded=float(bce_o),
        dice_occluded=float(dice_o),
        amodal=float(amodal),
        occluded=float(occluded),
        total=float(total),
    )
    return loss, breakdown


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch: int = 8
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    clean_vm_prob: float = 0.5
    occ_weight: float = OCC_WEIGHT
    ckpt_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ConfigError("steps and batch must be positive")
        check_ranges(self, (
            # a longer batch is no array numpy can index; a shorter one may still not fit
            ("batch", self.batch <= sys.maxsize, f"<= {sys.maxsize}"),
            ("seed", self.seed >= 0, ">= 0"),
            ("ckpt_every", self.ckpt_every >= 0, ">= 0"),
            ("clean_vm_prob", 0.0 <= self.clean_vm_prob <= 1.0, "in [0, 1]"),
            ("lr", 0.0 < self.lr < math.inf, "finite and > 0"),
            ("eps", 0.0 < self.eps < math.inf, "finite and > 0"),
            ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("occ_weight", 0.0 <= self.occ_weight < math.inf, "finite and >= 0"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
        ))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return config_from_dict(cls, d)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to exactly 0 at step total_steps."""
    if total_steps < 1:
        raise ConfigError("schedule needs at least one step")
    x = min(max(step, 0), total_steps) / total_steps
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * x))


class AdamW:
    """Adam with decoupled weight decay, stepping one parameter array by its gradient.

    A parameter with zero gradient and zero decay is a fixed point:
    its moments stay zero, so the update is exactly zero.
    """

    def __init__(self, values, grads, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
        self.values, self.grads = values, grads
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        # the moments and two scratch rows (a parameter-sized temporary costs more
        # than its arithmetic) are one block: once freed, that block sets glibc
        # malloc's trim threshold above a whole model, so models built or loaded
        # after training reuse heap pages instead of faulting fresh ones in
        self.m, self.v, self._update, self._scratch = np.zeros((4, *values.shape))

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        g, m, v, update, s = self.grads, self.m, self.v, self._update, self._scratch
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
        np.sqrt(np.divide(v, c2, out=s), out=s)
        s += self.eps
        np.divide(np.divide(m, c1, out=update), s, out=update)
        if self.weight_decay:
            update += np.multiply(self.weight_decay, self.values, out=s)
        self.values -= np.multiply(lr, update, out=update)


@dataclass
class TrainResult:
    steps: int
    history: list  # one LossBreakdown-shaped dict per step, plus lr
    final_loss: float


def train(model: GraspModel, instances: list[SceneInstance], config: TrainConfig,
          ckpt_path=None, loss_csv_path=None) -> TrainResult:
    """Optimize the model in place over the instance pool."""
    if not instances:
        raise ConfigError("cannot train on an empty dataset")
    n = len(instances)
    rng = np.random.default_rng(derive_seed(config.seed, "batch-sampler"))
    params = model.params
    opt = AdamW(params.values[-params.grads.size:], params.grads, beta1=config.beta1,
                beta2=config.beta2, eps=config.eps, weight_decay=config.weight_decay)

    history = []
    # each row is written and flushed as its step ends, so a crash keeps the history
    with open(loss_csv_path, "w", encoding="ascii") if loss_csv_path else nullcontext() as csv:
        if csv:
            csv.write(csv_row(_LOSS_CSV_COLUMNS))
            csv.flush()
        for step in range(config.steps):
            lr = cosine_lr(step, config.steps, config.lr)
            params.grads.fill(0.0)
            if n >= config.batch:
                picks = rng.choice(n, size=config.batch, replace=False)
            else:
                picks = rng.integers(0, n, size=config.batch)

            sums = dict.fromkeys(LossBreakdown.FIELDS, 0.0)
            # a diverging step overflows on its way to a non-finite loss, which
            # the check below reports as the one fault
            with np.errstate(over="ignore", invalid="ignore"):
                for slot, i in enumerate(picks):
                    inst = instances[int(i)]
                    vm_seed = derive_seed(config.seed, "train-vm", step, slot)
                    v_in = training_vm(inst.visible, vm_seed, clean_prob=config.clean_vm_prob)
                    trace = model.forward(inst.image, v_in)
                    loss, breakdown = total_loss(
                        trace, inst.amodal, inst.visible, occ_weight=config.occ_weight
                    )
                    T.mul(loss, 1.0 / config.batch).backward()
                    # free this instance's tape before the next forward builds its own
                    del trace, loss
                    for key in LossBreakdown.FIELDS:
                        sums[key] += getattr(breakdown, key) / config.batch

            if not all(math.isfinite(v) for v in sums.values()):
                raise TrainingDiverged(step, sums)
            opt.step(lr)

            row = {"step": step, "lr": lr}
            row.update(sums)
            history.append(row)
            if csv:
                csv.write(csv_row(row[c] for c in _LOSS_CSV_COLUMNS))
                csv.flush()

            if ckpt_path and config.ckpt_every and (step + 1) % config.ckpt_every == 0 \
                    and step + 1 < config.steps:
                save_checkpoint(f"{ckpt_path}.step{step + 1:06d}", model, step=step + 1,
                                extra={"train_config": config.to_dict()})

    if ckpt_path:
        save_checkpoint(ckpt_path, model, step=config.steps,
                        extra={"train_config": config.to_dict()})
    return TrainResult(steps=config.steps, history=history, final_loss=history[-1]["total"])


_LOSS_CSV_COLUMNS = ("step", "lr", *LossBreakdown.FIELDS)


def write_loss_csv(path, history) -> None:
    write_csv(path, _LOSS_CSV_COLUMNS, ([row[c] for c in _LOSS_CSV_COLUMNS] for row in history))
