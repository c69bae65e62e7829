"""Linear probes: how much occlusion geometry do the tokens encode?

A ridge regression maps per-token features to the token's pooled,
diagonal-normalized signed distance.  Comparing the probe fit before
and after mask fusion (and against a random-feature baseline) measures
how much explicit occlusion geometry the fusion step writes into the
token stream.  Splits are by instance, never by token, so test tokens
come from unseen scenes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .model import GraspModel
from .seeding import derive_seed
from .synthdata import SceneInstance

POSITIONS = ("pre_fusion", "post_fusion", "random_baseline")


def extract_probe_set(model: GraspModel, instances: list[SceneInstance], seed: int = 0):
    """Collect ({position: features}, targets, instance_ids) over the oracle protocol.

    One encode and mask fusion per instance fill every position:
    pre_fusion reads the encoded image tokens, post_fusion reads them
    after visible-mask fusion, random_baseline draws features from a
    seeded standard normal of the same shape.  The targets are the
    model's SDF tokens.  The model runs untaped.
    """
    if seed < 0:
        raise ConfigError(f"probe seed {seed} must be >= 0")
    model = model.untaped()
    feats = {position: [] for position in POSITIONS}
    targets, ids = [], []
    for index, inst in enumerate(instances):
        sdf_tok = model.sdf_tokens(inst.visible)
        tokens = model.encode(inst.image)
        fused = model.vm_encode_fuse(tokens, inst.visible)
        rng = np.random.default_rng(derive_seed(seed, "probe-random", index))
        feats["pre_fusion"].append(tokens)
        feats["post_fusion"].append(fused)
        feats["random_baseline"].append(rng.standard_normal(tokens.shape))
        targets.append(sdf_tok)
        ids.append(np.full(sdf_tok.shape[0], index))
    features = {position: np.concatenate(f) for position, f in feats.items()}
    return features, np.concatenate(targets), np.concatenate(ids)


def ridge_fit(features: np.ndarray, targets: np.ndarray, lam: float = 1.0):
    """Solve (Xc' Xc + lam I) w = Xc' y on column-centered features.

    Returns (weights, intercept); the intercept re-absorbs the centering
    so predictions are X @ w + intercept on raw features.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DimensionError(f"probe shapes {x.shape} and {y.shape} are incompatible")
    if not 0.0 <= lam < math.inf:
        raise ConfigError(f"ridge penalty {lam} must be finite and nonnegative")
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    lhs = xc.T @ xc + lam * np.eye(x.shape[1])
    rhs = xc.T @ y
    try:
        w = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            f"ridge system is singular at lam={lam}; use a positive penalty"
        ) from exc
    intercept = float(y.mean() - x_mean @ w)
    return w, intercept


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> Optional[float]:
    """Coefficient of determination; None when the target has no variance."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def sign_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of tokens whose occluded-vs-visible sign is recovered."""
    return float(((y_true > 0) == (y_pred > 0)).mean())


@dataclass(frozen=True)
class ProbeResult:
    position: str
    lam: float
    n_train_tokens: int
    n_test_tokens: int
    r2: Optional[float]
    sign_accuracy: float
    r2_defined: bool

    def to_dict(self) -> dict:
        return asdict(self)


def split_instances(n_instances: int, seed: int, test_frac: float = 0.2):
    """Deterministic instance-level split; returns (train_ids, test_ids)."""
    if not 0.0 < test_frac < 1.0:
        raise ConfigError(f"test fraction {test_frac} outside (0, 1)")
    rng = np.random.default_rng(derive_seed(seed, "probe-split"))
    order = rng.permutation(n_instances)
    n_test = max(1, int(round(n_instances * test_frac)))
    if n_test >= n_instances:
        raise ConfigError(f"cannot hold out {n_test} of {n_instances} instances")
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _split_masks(ids, n_instances, seed, test_frac):
    """Per-token (in_train, in_test) masks of the instance split."""
    train_ids, test_ids = split_instances(n_instances, seed, test_frac)
    return np.isin(ids, train_ids), np.isin(ids, test_ids)


def _fit(position, x, y, in_train, in_test, lam):
    """Fit one position's probe on the split's masks; returns (ProbeResult, true, pred)."""
    w, intercept = ridge_fit(x[in_train], y[in_train], lam)
    pred = x[in_test] @ w + intercept
    true = y[in_test]
    r2 = r2_score(true, pred)
    result = ProbeResult(
        position=position,
        lam=lam,
        n_train_tokens=int(in_train.sum()),
        n_test_tokens=int(in_test.sum()),
        r2=r2,
        sign_accuracy=sign_accuracy(true, pred),
        r2_defined=r2 is not None,
    )
    return result, true, pred


def probe_position(model: GraspModel, instances, position: str, lam: float = 1.0,
                   seed: int = 0, test_frac: float = 0.2):
    """Fit one probe; returns (ProbeResult, test_true, test_pred)."""
    if position not in POSITIONS:
        raise ConfigError(f"unknown probe position {position!r}; want one of {POSITIONS}")
    feats, y, ids = extract_probe_set(model, instances, seed=seed)
    in_train, in_test = _split_masks(ids, len(instances), seed, test_frac)
    return _fit(position, feats[position], y, in_train, in_test, lam)


def probe_report(model: GraspModel, instances, lam: float = 1.0, seed: int = 0,
                 test_frac: float = 0.2) -> dict:
    """Probe every position from one encode and fusion per instance; returns a report dict."""
    feats, y, ids = extract_probe_set(model, instances, seed=seed)
    in_train, in_test = _split_masks(ids, len(instances), seed, test_frac)
    results = {}
    for position in POSITIONS:
        result, true, pred = _fit(position, feats[position], y, in_train, in_test, lam)
        results[position] = result
        if position == "post_fusion":
            pairs = np.stack([true, pred], axis=1)
    pre, post = results["pre_fusion"], results["post_fusion"]
    delta = None
    if pre.r2 is not None and post.r2 is not None:
        delta = post.r2 - pre.r2
    return {
        "results": {k: v.to_dict() for k, v in results.items()},
        "delta_r2_fusion": delta,
        "pairs_position": "post_fusion",
        "pairs": pairs,
        "lam": lam,
        "seed": seed,
        "test_frac": test_frac,
    }
