"""Linear-probe machinery: the ridge solver against an independent
least-squares oracle, planted-signal recovery, instance-level splits,
and probe positions."""

import math

import numpy as np
import pytest

from grasp.errors import ConfigError, DimensionError
from grasp.model import GraspConfig, GraspModel
from grasp.probe import (
    POSITIONS,
    extract_probe_set,
    probe_position,
    probe_report,
    r2_score,
    ridge_fit,
    sign_accuracy,
    split_instances,
)
from grasp.synthdata import SceneConfig, generate_scene

SMALL = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                    vm_hidden=4, decoder_hidden=8)


def _instances(n_scenes, base_seed=0):
    cfg = SceneConfig(size=16, min_objects=2, max_objects=2)
    out = []
    for s in range(n_scenes):
        out.extend(generate_scene(base_seed + s, cfg))
    return out


def _ridge_oracle(x, y, lam):
    """Augmented least squares: minimize ||yc - Xc w||^2 + lam ||w||^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    aug = np.vstack([xc, np.sqrt(lam) * np.eye(x.shape[1])])
    tgt = np.concatenate([y - y.mean(), np.zeros(x.shape[1])])
    w, *_ = np.linalg.lstsq(aug, tgt, rcond=None)
    return w, float(y.mean() - x_mean @ w)


# -- ridge solver -------------------------------------------------------------


def test_ridge_matches_least_squares_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.01, 10.0))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        y = rng.standard_normal(n)
        w, b = ridge_fit(x, y, lam)
        w_ref, b_ref = _ridge_oracle(x, y, lam)
        assert np.allclose(w, w_ref, rtol=1e-8, atol=1e-10), f"trial {trial}"
        assert abs(b - b_ref) < 1e-8


def test_ridge_recovers_planted_signal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((400, 6))
    w_true = rng.standard_normal(6)
    y = x @ w_true + 2.5
    w, b = ridge_fit(x, y, lam=1e-8)
    assert np.allclose(w, w_true, atol=1e-6)
    assert abs(b - 2.5) < 1e-6
    r2 = r2_score(y, x @ w + b)
    assert r2 > 1.0 - 1e-12


def test_ridge_penalty_shrinks_weights():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    small = np.linalg.norm(ridge_fit(x, y, lam=0.1)[0])
    large = np.linalg.norm(ridge_fit(x, y, lam=1e6)[0])
    assert large < small
    assert large < 1e-3  # huge penalty drives weights to zero


def test_ridge_zero_penalty_on_singular_features_raises():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicate columns
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        ridge_fit(x, y, lam=0.0)
    # a positive penalty regularizes the same system into solvability
    w, b = ridge_fit(x, y, lam=1.0)
    assert np.all(np.isfinite(w)) and np.isfinite(b)


def test_ridge_validates_shapes_and_penalty():
    x = np.zeros((5, 2))
    y = np.zeros(4)
    with pytest.raises(DimensionError):
        ridge_fit(x, y)
    with pytest.raises(DimensionError):
        ridge_fit(np.zeros(5), np.zeros(5))
    with pytest.raises(ConfigError):
        ridge_fit(np.zeros((5, 2)), np.zeros(5), lam=-1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_ridge_rejects_a_non_finite_penalty(lam):
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError, match="finite"):
        ridge_fit(rng.standard_normal((6, 2)), rng.standard_normal(6), lam=lam)


# -- scores -------------------------------------------------------------------


def test_r2_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, y.copy()) == 1.0
    # predicting the mean scores exactly zero
    assert r2_score(y, np.full(3, 2.0)) == 0.0
    # ss_res = 3 * ss_tot at this anti-fit
    assert r2_score(y, np.array([3.0, 2.0, 1.0])) == -3.0


def test_r2_undefined_for_constant_target():
    assert r2_score(np.full(4, 0.7), np.zeros(4)) is None


def test_sign_accuracy_hand_value():
    y_true = np.array([1.0, -1.0, 2.0])
    y_pred = np.array([2.0, -3.0, -1.0])
    assert sign_accuracy(y_true, y_pred) == 2.0 / 3.0


# -- splits -------------------------------------------------------------------


def test_split_is_a_disjoint_cover():
    train, test = split_instances(10, seed=0, test_frac=0.2)
    assert len(test) == 2 and len(train) == 8
    both = np.concatenate([train, test])
    assert sorted(both.tolist()) == list(range(10))


def test_split_is_deterministic_and_seed_sensitive():
    a = split_instances(20, seed=4)
    b = split_instances(20, seed=4)
    c = split_instances(20, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_split_holds_out_at_least_one_instance():
    train, test = split_instances(4, seed=0, test_frac=0.2)
    assert len(test) == 1 and len(train) == 3


def test_split_validation():
    with pytest.raises(ConfigError):
        split_instances(10, seed=0, test_frac=0.0)
    with pytest.raises(ConfigError):
        split_instances(10, seed=0, test_frac=1.0)
    with pytest.raises(ConfigError):
        split_instances(1, seed=0)  # cannot hold out the only instance


# -- feature extraction -------------------------------------------------------


def test_extract_shapes_and_instance_ids():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(3)
    feats, y, ids = extract_probe_set(model, insts)
    n_tokens = SMALL.tokens
    assert set(feats) == set(POSITIONS)
    for x in feats.values():
        assert x.shape == (len(insts) * n_tokens, SMALL.dim)
    assert y.shape == (len(insts) * n_tokens,)
    assert ids.shape == y.shape
    expect = np.repeat(np.arange(len(insts)), n_tokens)
    assert np.array_equal(ids, expect)
    assert np.all(np.abs(y) <= 1.0)  # targets are diagonal-normalized


def test_extract_features_equal_the_forward_pass_bit_for_bit():
    model = GraspModel(SMALL, seed=1)
    model.params.groups["vm_attention"]["gamma"].data[...] = 0.7
    insts = _instances(3)
    feats, y, _ = extract_probe_set(model, insts)
    traces = [model.forward(inst.image, inst.visible) for inst in insts]
    for position, field in (("pre_fusion", "tokens"), ("post_fusion", "fused")):
        expect = np.concatenate([getattr(tr, field).data for tr in traces])
        assert feats[position].tobytes() == expect.tobytes(), position
    assert y.tobytes() == np.concatenate([tr.sdf_tokens for tr in traces]).tobytes()


def test_extract_positions_agree_at_init_then_diverge():
    # the fusion residual enters with weight zero at init, so pre- and
    # post-fusion tokens start out identical
    model = GraspModel(SMALL, seed=0)
    insts = _instances(2)
    feats, _, _ = extract_probe_set(model, insts)
    pre = feats["pre_fusion"]
    assert np.array_equal(pre, feats["post_fusion"])
    model.params.groups["vm_attention"]["gamma"].data[...] = 0.5
    feats2, _, _ = extract_probe_set(model, insts)
    assert np.array_equal(pre, feats2["pre_fusion"])
    assert not np.array_equal(pre, feats2["post_fusion"])


def test_random_baseline_is_seeded_noise():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(2)
    feats, _, _ = extract_probe_set(model, insts, seed=3)
    a, tok = feats["random_baseline"], feats["pre_fusion"]
    b = extract_probe_set(model, insts, seed=3)[0]["random_baseline"]
    c = extract_probe_set(model, insts, seed=4)[0]["random_baseline"]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, tok)


def test_probe_position_is_validated():
    model = GraspModel(SMALL, seed=0)
    with pytest.raises(ConfigError):
        probe_position(model, _instances(1), "mid_fusion")


# -- probe integration --------------------------------------------------------


def test_probe_position_splits_tokens_by_instance():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(5)  # 10 instances -> 2 held out
    result, true, pred = probe_position(model, insts, "pre_fusion", seed=0)
    assert result.n_test_tokens == 2 * SMALL.tokens
    assert result.n_train_tokens == 8 * SMALL.tokens
    assert result.n_train_tokens + result.n_test_tokens == len(insts) * SMALL.tokens
    assert true.shape == pred.shape == (result.n_test_tokens,)
    assert result.r2_defined == (result.r2 is not None)
    assert 0.0 <= result.sign_accuracy <= 1.0


def test_random_baseline_probe_has_no_skill():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(15)  # 30 instances, 24 test tokens
    result, _, _ = probe_position(model, insts, "random_baseline", seed=0)
    assert result.r2 is not None
    assert -0.5 < result.r2 < 0.2


def test_probe_report_structure_and_delta():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(6)
    report = probe_report(model, insts, lam=1.0, seed=0)
    assert set(report["results"]) == set(POSITIONS)
    pre = report["results"]["pre_fusion"]
    post = report["results"]["post_fusion"]
    assert report["delta_r2_fusion"] == post["r2"] - pre["r2"]
    # identical features at init make the fusion delta exactly zero
    assert report["delta_r2_fusion"] == 0.0
    assert report["pairs_position"] == "post_fusion"
    assert report["pairs"].shape == (post["n_test_tokens"], 2)


def test_probe_report_is_deterministic():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(4)
    a = probe_report(model, insts, seed=1)
    b = probe_report(model, insts, seed=1)
    assert a["results"] == b["results"]
    assert np.array_equal(a["pairs"], b["pairs"])


def test_probe_report_pairs_follow_requested_position():
    model = GraspModel(SMALL, seed=0)
    insts = _instances(4)
    report = probe_report(model, insts, seed=0)
    _, true, pred = probe_position(model, insts, "post_fusion", seed=0)
    assert np.array_equal(report["pairs"], np.stack([true, pred], axis=1))
