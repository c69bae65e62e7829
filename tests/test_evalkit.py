"""Evaluation plumbing: metrics against hand-computable stub predictors,
protocols, stratification, mechanism statistics and the gate ablation
grid."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import count_model_calls
from grasp.errors import ConfigError, DimensionError
from grasp.evalkit import (
    OCC_BINS,
    VM_BINS,
    _MechanismTally,
    _position_selections,
    ablate,
    attention_stats,
    evaluate,
    gate_stats,
    js_divergence,
    mechanism_stats,
    postprocess_union,
    predict,
    stratify,
    two_pass,
)
from grasp.geometry import BinaryMask, iou, mask_diff
from grasp.model import GraspConfig, GraspModel
from grasp.probe import probe_report
from grasp.seeding import derive_seed
from grasp.synthdata import (
    SceneConfig,
    generate_dataset,
    generate_scene,
    make_instance,
    perturb_vm,
)
from grasp.tensor import Tensor

SMALL = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                    vm_hidden=4, decoder_hidden=8)


def _box(size, r0, r1, c0, c1):
    m = np.zeros((size, size), dtype=bool)
    m[r0:r1, c0:c1] = True
    return BinaryMask(m)


def _inst(visible, amodal, size=16):
    return make_instance(np.zeros((size, size)), visible, amodal, "rect", 0)


def _stub(predictions):
    """Callable predictor replaying (amodal, occluded) pairs in order."""
    feed = iter(predictions)

    def run(image, v_input):
        return next(feed)

    return run


def _scene16(seed):
    return generate_scene(seed, SceneConfig(size=16, min_objects=2, max_objects=2))


def _trio():
    """Three instances with IoUs 1.0 / 0.5 / 0.25 under the paired stub.

    All share a 4x4 amodal box (16 px).  The first is unoccluded; the
    second has occ_ratio 0.5 and a perfect occluded prediction; the
    third has occ_ratio 0.25 and an occluded IoU of 0.5.
    """
    A = _box(16, 0, 4, 0, 4)
    i1 = _inst(A, A)
    i2 = _inst(_box(16, 0, 4, 0, 2), A)
    i3 = _inst(_box(16, 0, 4, 0, 3), A)
    preds = [
        (A, _box(16, 0, 0, 0, 0)),
        (_box(16, 0, 4, 0, 8), i2.occluded),
        (_box(16, 0, 2, 0, 2), _box(16, 0, 2, 3, 4)),
    ]
    return [i1, i2, i3], preds


# -- metric arithmetic --------------------------------------------------------


def test_full_miou_is_hand_mean():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    assert report.full_miou == (1.0 + 0.5 + 0.25) / 3.0
    assert report.n_instances == 3


def test_occ_miou_excludes_unoccluded_instances():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    assert report.n_occluded == 2
    assert report.occ_miou == (1.0 + 0.5) / 2.0
    assert report.rows[0]["occ_iou"] is None
    assert report.rows[1]["occ_iou"] == 1.0
    assert report.rows[2]["occ_iou"] == 0.5


def test_rows_carry_instance_metadata():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    assert [r["index"] for r in report.rows] == [0, 1, 2]
    assert all(r["shape_class"] == "rect" for r in report.rows)
    assert [r["occ_ratio"] for r in report.rows] == [0.0, 0.5, 0.25]
    # oracle protocol: no mask perturbation, stubs expose no gate
    assert all(r["vm_iou"] is None for r in report.rows)
    assert all(r["mean_gate"] is None for r in report.rows)


def test_occ_strata_partition_and_means():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    strata = report.occ_strata
    assert [s["n"] for s in strata] == [1, 1, 1, 0]
    assert strata[0]["occ_miou"] is None  # the unoccluded instance
    assert strata[0]["full_miou"] == 1.0
    assert strata[1]["occ_miou"] == 0.5 and strata[1]["full_miou"] == 0.25
    assert strata[2]["occ_miou"] == 1.0 and strata[2]["full_miou"] == 0.5
    assert strata[3]["occ_miou"] is None and strata[3]["full_miou"] is None


def test_empty_evaluation_reports_nan_miou():
    report = evaluate(_stub([]), [], "oracle")
    assert report.n_instances == 0 and report.n_occluded == 0
    assert math.isnan(report.full_miou)
    assert report.occ_miou is None
    assert report.rows == []


def test_stub_reports_skip_mechanism_stats():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    assert report.gate_stats is None
    assert report.attention_stats is None
    assert report.gate_override is None  # "config" resolves to None off-model


def test_protocol_and_occ_metric_are_validated():
    insts, preds = _trio()
    with pytest.raises(ConfigError):
        evaluate(_stub(preds), insts, "blindfold")
    with pytest.raises(ConfigError):
        evaluate(_stub(preds), insts, "oracle", occ_metric="guess")


# -- thresholding -------------------------------------------------------------


def test_threshold_is_a_logit_cut():
    model = GraspModel(SMALL, seed=0)
    inst = _scene16(0)[0]
    for th in (0.3, 0.5, 0.7):
        amodal, occluded, trace = predict(model, inst.image, inst.visible, threshold=th)
        cut = math.log(th / (1.0 - th))
        assert np.array_equal(amodal.a, trace.logits_amodal > cut)
        assert np.array_equal(occluded.a, trace.logits_occ > cut)


@pytest.mark.parametrize("th", [0.0, 1.0, -0.2, 1.5])
def test_threshold_outside_unit_interval_raises(th):
    model = GraspModel(SMALL, seed=0)
    inst = _scene16(0)[0]
    with pytest.raises(ConfigError):
        predict(model, inst.image, inst.visible, threshold=th)


# -- postprocessing -----------------------------------------------------------


def test_postprocess_union_never_drops_visible_evidence():
    a = _box(16, 0, 2, 0, 2)
    v = _box(16, 1, 5, 1, 5)
    out = postprocess_union(a, v)
    assert np.array_equal(out.a, a.a | v.a)
    assert not (v.a & ~out.a).any()


def test_postprocess_rescues_an_empty_prediction():
    A = _box(16, 0, 4, 0, 4)
    inst = _inst(_box(16, 0, 4, 0, 2), A)  # visible is half of amodal
    empty = _box(16, 0, 0, 0, 0)
    bare = evaluate(_stub([(empty, empty)]), [inst], "oracle")
    fixed = evaluate(_stub([(empty, empty)]), [inst], "oracle", use_postprocess=True)
    assert bare.rows[0]["full_iou"] == 0.0
    assert fixed.rows[0]["full_iou"] == 0.5  # union with the input recovers it


def test_occ_metric_can_be_derived_from_amodal():
    A = _box(16, 0, 4, 0, 4)
    inst = _inst(_box(16, 0, 4, 0, 2), A)
    empty = _box(16, 0, 0, 0, 0)
    # the stub's own occluded output is empty, so the head metric scores 0
    head = evaluate(_stub([(A, empty)]), [inst], "oracle", occ_metric="head")
    assert head.rows[0]["occ_iou"] == 0.0
    # deriving occluded = amodal minus input recovers the exact region
    derived = evaluate(_stub([(A, empty)]), [inst], "oracle",
                       occ_metric="amodal_minus_visible")
    assert derived.rows[0]["occ_iou"] == 1.0


# -- standard protocol --------------------------------------------------------


def test_standard_protocol_perturbs_with_derived_seeds():
    insts = _scene16(3) + _scene16(4)
    empty = _box(16, 0, 0, 0, 0)
    preds = [(inst.visible, empty) for inst in insts]
    report = evaluate(_stub(preds), insts, "standard", eval_seed=11)
    for i, (row, inst) in enumerate(zip(report.rows, insts)):
        expect = perturb_vm(inst.visible, derive_seed(11, "eval-vm", i))
        assert row["vm_iou"] == iou(expect, inst.visible)


def test_standard_protocol_is_deterministic():
    insts = _scene16(5)
    empty = _box(16, 0, 0, 0, 0)
    preds = [(inst.visible, empty) for inst in insts]
    a = evaluate(_stub(preds), insts, "standard", eval_seed=2)
    b = evaluate(_stub(preds), insts, "standard", eval_seed=2)
    assert a.rows == b.rows
    assert a.full_miou == b.full_miou


def test_oracle_protocol_has_no_vm_strata():
    insts, preds = _trio()
    report = evaluate(_stub(preds), insts, "oracle")
    assert report.vm_strata == []


def test_vm_strata_counts_match_manual_binning():
    insts = _scene16(6) + _scene16(7) + _scene16(8)
    empty = _box(16, 0, 0, 0, 0)
    preds = [(inst.visible, empty) for inst in insts]
    report = evaluate(_stub(preds), insts, "standard", eval_seed=0)
    in_range = 0
    for row in report.rows:
        v = row["vm_iou"]
        if VM_BINS[0][0] <= v <= VM_BINS[-1][1]:
            in_range += 1
    assert sum(s["n"] for s in report.vm_strata) == in_range


# -- stratify -----------------------------------------------------------------


def test_stratify_bin_edges_and_skips():
    rows = [
        {"k": 0.0, "occ_iou": 0.2, "full_iou": 1.0},   # bin 0 (left edge)
        {"k": 0.25, "occ_iou": 0.4, "full_iou": 1.0},  # bin 1 (half-open seam)
        {"k": 1.0, "occ_iou": 0.6, "full_iou": 1.0},   # bin 3 (closed last edge)
        {"k": None, "occ_iou": 0.9, "full_iou": 1.0},  # skipped outright
        {"k": -0.1, "occ_iou": 0.9, "full_iou": 1.0},  # out of range
        {"k": 1.1, "occ_iou": 0.9, "full_iou": 1.0},   # out of range
        {"k": 0.1, "occ_iou": None, "full_iou": None},  # counts but no means
    ]
    table = stratify(rows, "k", OCC_BINS)
    assert [cell["n"] for cell in table] == [2, 1, 0, 1]
    assert table[0]["occ_miou"] == 0.2  # the None-IoU row adds no term
    assert table[1]["occ_miou"] == 0.4
    assert table[2]["occ_miou"] is None
    assert table[3]["occ_miou"] == 0.6
    assert [cell["lo"] for cell in table] == [b[0] for b in OCC_BINS]
    assert [cell["hi"] for cell in table] == [b[1] for b in OCC_BINS]


def test_stratify_averages_within_a_bin():
    rows = [
        {"k": 0.3, "occ_iou": 0.25, "full_iou": 0.5},
        {"k": 0.4, "occ_iou": 0.75, "full_iou": 1.0},
    ]
    table = stratify(rows, "k", OCC_BINS)
    assert table[1]["n"] == 2
    assert table[1]["occ_miou"] == 0.5
    assert table[1]["full_miou"] == 0.75


# -- two-pass inference -------------------------------------------------------


def test_two_pass_matches_manual_composition():
    model = GraspModel(SMALL, seed=1)
    inst = _scene16(1)[0]
    a1, o1, _ = predict(model, inst.image, inst.visible)
    tp = two_pass(model, inst.image, inst.visible)
    assert tp.passes == 2
    assert tp.first_amodal == a1 and tp.first_occluded == o1
    v_ref = mask_diff(a1, o1)
    if not v_ref.any():
        v_ref = inst.visible
        assert tp.fallback_used
    else:
        assert not tp.fallback_used
    assert tp.v_reference == v_ref
    a2, o2, _ = predict(model, inst.image, v_ref)
    assert tp.amodal == a2 and tp.occluded == o2


def test_two_pass_falls_back_when_self_estimate_is_empty():
    model = GraspModel(SMALL, seed=1)
    # drown the amodal head so pass one predicts nothing at threshold 0.5
    model.params.groups["decoder"]["head_amodal_b"].data[...] = -50.0
    inst = _scene16(2)[0]
    tp = two_pass(model, inst.image, inst.visible)
    assert tp.fallback_used
    assert tp.v_reference == inst.visible
    assert tp.passes == 2
    assert not tp.amodal.any()


@pytest.mark.parametrize("protocol", ["oracle", "standard"])
def test_two_pass_evaluation_reports_the_second_pass_mechanism(protocol):
    learned = _jittered()
    # pass one predicts no amodal pixel, so every second pass falls back to the input mask
    drowned = _jittered()
    drowned.params.groups["decoder"]["head_amodal_b"].data[...] = -50.0
    insts = [inst for seed in range(6) for inst in _scene16(seed)]
    for model in (learned, drowned):
        report = evaluate(model, insts, protocol, use_two_pass=True, eval_seed=3)
        assert report.two_pass is True
        # the scored pass, built by hand: regate(prefix(first tokens, v_ref)) with the fallback
        net = model.untaped()
        tally = _MechanismTally(net.config.grid)
        fallbacks = []
        for index, (inst, row) in enumerate(zip(insts, report.rows)):
            v_input = (perturb_vm(inst.visible, derive_seed(3, "eval-vm", index))
                       if protocol == "standard" else inst.visible)
            first = net.forward(inst.image, v_input)
            v_ref = mask_diff(BinaryMask(first.logits_amodal > 0),
                              BinaryMask(first.logits_occ > 0))
            fallbacks.append(not v_ref.any())
            second = net.regate(net.prefix(first.tokens, v_input if fallbacks[-1] else v_ref))
            tally.add(inst.occ_ratio, second.gate, second.sdf_tokens, second.proto_attn)
            assert row["mean_gate"] == float(second.gate.mean())
        assert fallbacks == [model is drowned] * len(insts)
        assert json.dumps(report.gate_stats) == json.dumps(tally.gate_stats())
        assert json.dumps(report.attention_stats) == json.dumps(tally.attention_stats())
    # the fallback masks are real shapes, so their attention splits into both groups
    assert report.attention_stats["n_instances"] > 0


# -- gate override plumbing ---------------------------------------------------


def test_gate_override_resolution_in_reports():
    insts = _scene16(0)
    model = GraspModel(SMALL, seed=0)
    assert evaluate(model, insts).gate_override is None
    assert evaluate(model, insts, gate_override=0.25).gate_override == 0.25
    assert evaluate(model, insts, gate_override=None).gate_override is None

    pinned_cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4,
                             vm_hidden=4, decoder_hidden=8, gate_override=0.7)
    pinned = GraspModel(pinned_cfg, seed=0)
    assert evaluate(pinned, insts).gate_override == 0.7
    assert evaluate(pinned, insts, gate_override=None).gate_override is None


def test_gate_override_constant_shows_in_mean_gate():
    insts = _scene16(0)
    model = GraspModel(SMALL, seed=0)
    low = evaluate(model, insts, gate_override=0.0)
    high = evaluate(model, insts, gate_override=1.0)
    assert all(r["mean_gate"] == 0.0 for r in low.rows)
    assert all(r["mean_gate"] == 1.0 for r in high.rows)


def test_ablate_matches_direct_evaluate():
    model = GraspModel(SMALL, seed=2)
    insts = _scene16(9)
    grid = ablate(model, insts, "oracle")
    assert [override for override, _ in grid] == [None, 0.0, 0.5, 1.0]
    for override, report in grid:
        direct = evaluate(model, insts, "oracle", gate_override=override,
                          collect_stats=False)
        assert report.full_miou == direct.full_miou
        assert report.occ_miou == direct.occ_miou
        assert report.rows == direct.rows
        assert report.gate_stats is None

    # re-gated overrides and two-pass sweeps match their own evaluate too
    model.params.groups["vm_attention"]["gamma"].data[...] = 0.3
    model.params.groups["gate"]["alpha"].data[...] = 2.0
    for options in ({"use_postprocess": True, "eval_seed": 3}, {"use_two_pass": True}):
        for override, report in ablate(model, insts, "standard", **options):
            direct = evaluate(model, insts, "standard", gate_override=override,
                              collect_stats=False, **options)
            assert report.to_dict() == direct.to_dict(), (options, override)


def test_two_pass_ablate_shares_its_first_pass(monkeypatch):
    model = GraspModel(SMALL, seed=2)
    model.params.groups["vm_attention"]["gamma"].data[...] = 0.3
    model.params.groups["gate"]["alpha"].data[...] = 2.0
    insts = _scene16(9) + _scene16(10)
    calls = count_model_calls(monkeypatch, "forward", "encode", "decode_branches")
    grid = ablate(model, insts, "standard", use_two_pass=True)
    # one shared first pass and three re-gates; each override's second pass
    # reuses the first pass's image tokens, so every image is encoded once
    assert calls == {"forward": len(insts), "encode": len(insts),
                     "decode_branches": 8 * len(insts)}
    for override, report in grid:
        direct = evaluate(model, insts, "standard", use_two_pass=True, gate_override=override,
                          collect_stats=False)
        assert report.to_dict() == direct.to_dict(), override


@pytest.mark.parametrize("value", [True, False])
def test_bool_gate_override_is_rejected(value):
    model = GraspModel(SMALL, seed=0)
    insts = _scene16(0)
    with pytest.raises(ConfigError):
        evaluate(model, insts, gate_override=value)
    with pytest.raises(ConfigError):
        ablate(model, insts, overrides=(None, value))


# -- gate statistics ----------------------------------------------------------


def _jittered(**options):
    cfg = GraspConfig(image_size=16, patch=8, dim=8, heads=2, n_prototypes=4, vm_hidden=4,
                      decoder_hidden=8, **options)
    model = GraspModel(cfg, seed=4)
    rng = np.random.default_rng(6)
    for _, _, t in model.params.named_trainable():
        t.data[...] += 0.3 * rng.standard_normal(t.data.shape)
    return model


@pytest.mark.parametrize("options", [{}, {"gate_override": 0.5}, {"sdf_query_mod": True}])
def test_inference_builds_no_tensors(options, monkeypatch):
    model = _jittered(**options)
    insts = [inst for seed in range(3) for inst in _scene16(seed)]
    inst = insts[0]
    made = []
    init = Tensor._init

    def counted(self, *args):
        made.append(self)
        return init(self, *args)

    monkeypatch.setattr(Tensor, "_init", counted)
    model.forward(inst.image, inst.visible)
    assert made, "the counter must see the taped forward"
    for name, run in (
        ("predict", lambda: predict(model, inst.image, inst.visible)),
        ("two_pass", lambda: two_pass(model, inst.image, inst.visible)),
        ("evaluate", lambda: evaluate(model, insts, "standard")),
        ("evaluate two-pass", lambda: evaluate(model, insts, "oracle", use_two_pass=True)),
        ("ablate", lambda: ablate(model, insts, "standard")),
        ("gate_stats", lambda: gate_stats(model, insts)),
        ("attention_stats", lambda: attention_stats(model, insts)),
        ("mechanism_stats", lambda: mechanism_stats(model, insts)),
        ("probe_report", lambda: probe_report(model, insts)),
    ):
        made.clear()
        run()
        assert not made, f"{name} built {len(made)} tensors"


@pytest.mark.parametrize("options", [{}, {"gate_override": 0.5}, {"sdf_query_mod": True}])
def test_stats_equal_the_oracle_evaluation_bit_for_bit(options):
    model = _jittered(**options)
    insts = [inst for seed in range(6) for inst in _scene16(seed)]
    report = evaluate(model, insts, "oracle")
    assert report.gate_stats is not None and report.attention_stats["n_instances"] > 0
    assert json.dumps(gate_stats(model, insts)) == json.dumps(report.gate_stats)
    assert json.dumps(attention_stats(model, insts)) == json.dumps(report.attention_stats)
    assert gate_stats(model, []) is None and attention_stats(model, []) is None
    assert evaluate(model, [], "oracle").gate_stats is None


@pytest.mark.parametrize("options", [{}, {"gate_override": 0.5}, {"sdf_query_mod": True}])
def test_mechanism_stats_equal_the_two_stats_functions_from_one_sdf(options, monkeypatch):
    model = _jittered(**options)
    insts = [inst for seed in range(6) for inst in _scene16(seed)]
    want = json.dumps([gate_stats(model, insts), attention_stats(model, insts)])
    calls = count_model_calls(monkeypatch, "sdf_tokens", "prefix")
    assert json.dumps(list(mechanism_stats(model, insts))) == want
    assert calls == {"sdf_tokens": len(insts), "prefix": len(insts)}
    assert mechanism_stats(model, []) == (None, None)


def test_gate_stats_grid2_has_only_corners():
    model = GraspModel(SMALL, seed=0)
    stats = gate_stats(model, _scene16(0))
    pos = stats["by_grid_position"]
    assert pos["corner"]["n_tokens"] == 4
    assert pos["edge"]["n_tokens"] == 0 and pos["edge"]["mean_gate"] is None
    assert pos["center"]["n_tokens"] == 0 and pos["center"]["mean_gate"] is None
    lo, hi = stats["sdf_token_range"]
    assert -1.0 <= lo <= hi <= 1.0


def test_gate_stats_grid4_position_counts():
    cfg = GraspConfig(image_size=32, patch=8, dim=8, heads=2, n_prototypes=4,
                      vm_hidden=4, decoder_hidden=8)
    model = GraspModel(cfg, seed=0)
    inst = make_instance(np.zeros((32, 32)), _box(32, 8, 24, 8, 24),
                         _box(32, 4, 28, 4, 28), "rect", 0)
    stats = gate_stats(model, [inst])
    pos = stats["by_grid_position"]
    assert pos["center"]["n_tokens"] == 4
    assert pos["edge"]["n_tokens"] == 8
    assert pos["corner"]["n_tokens"] == 4
    for name in ("center", "edge", "corner"):
        assert 0.0 < pos[name]["mean_gate"] < 1.0


def test_position_selections_are_cached_read_only_and_partition_the_grid():
    for grid in (1, 2, 3, 5):
        center, edge, corner = _position_selections(grid)
        assert _position_selections(grid)[0] is center  # built once per grid
        assert not any(sel.flags.writeable for sel in (center, edge, corner))
        assert np.array_equal(center.astype(int) + edge + corner, np.ones(grid * grid, int))
        n_corner = 4 if grid > 1 else 1
        assert (int(corner.sum()), int(edge.sum()), int(center.sum())) == (
            n_corner, 4 * max(grid - 2, 0), max(grid - 2, 0) ** 2)


def test_gate_stats_rise_with_occlusion_when_alpha_positive():
    model = GraspModel(SMALL, seed=0)
    model.params.groups["gate"]["alpha"].data[...] = 4.0
    full = _box(16, 0, 16, 0, 16)
    unoccluded = _inst(full, full)               # bin 0: everything visible
    hidden = _inst(_box(16, 0, 2, 0, 2), full)   # bin 3: almost all occluded
    stats = gate_stats(model, [unoccluded, hidden])
    bins = stats["by_occ_bin"]
    assert bins[0]["n"] == 1 and bins[3]["n"] == 1
    assert bins[1]["n"] == 0 and bins[1]["mean_gate"] is None
    # more occlusion -> visible evidence is farther away -> gate opens
    assert bins[3]["mean_gate"] > bins[0]["mean_gate"]
    assert bins[0]["std_gate"] == 0.0


def test_evaluate_collects_gate_stats_for_models():
    model = GraspModel(SMALL, seed=0)
    report = evaluate(model, _scene16(0), "oracle", collect_stats=True)
    assert report.gate_stats is not None
    assert report.attention_stats is not None
    assert sum(b["n"] for b in report.gate_stats["by_occ_bin"]) <= report.n_instances


@pytest.mark.parametrize("stats_run", [
    lambda model, insts: evaluate(model, insts, "oracle", collect_stats=True),
    mechanism_stats,
], ids=["evaluate", "mechanism_stats"])
def test_stats_keep_no_per_instance_arrays(stats_run):
    """Each instance is reduced to scalars as it finishes: one default
    instance's prototype attention alone is 64 KiB, so keeping it would
    grow the peak by that much per instance."""
    model = GraspModel(GraspConfig(), seed=0)
    insts = generate_dataset(32, 0)
    stats_run(model, insts[:8])  # warm-up: lazily built model state is not per instance

    def peak(n):
        tracemalloc.start()
        try:
            stats_run(model, insts[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_instance = (peak(32) - peak(8)) / 24
    assert per_instance < 8 * 1024, f"peak grows {per_instance:.0f} B per instance"


# -- attention statistics -----------------------------------------------------


def test_attention_stats_split_and_skip():
    model = GraspModel(SMALL, seed=0)
    full = _box(16, 0, 16, 0, 16)
    all_visible = _inst(full, full)  # no outside tokens: must be skipped
    quadrant = _inst(_box(16, 0, 8, 0, 8), full)  # one inside, three outside
    stats = attention_stats(model, [all_visible, quadrant])
    assert stats["n_skipped"] >= 1
    assert stats["n_instances"] + stats["n_skipped"] == 2
    assert stats["n_instances"] == 1
    assert 0.0 <= stats["jsd_mean"] <= 1.0
    assert 0.0 <= stats["jsd_pooled"] <= 1.0
    assert 0.0 < stats["top1_occluded"] <= 1.0
    assert 0.0 < stats["top1_visible"] <= 1.0


def test_attention_stats_all_skipped_reports_none():
    model = GraspModel(SMALL, seed=0)
    full = _box(16, 0, 16, 0, 16)
    stats = attention_stats(model, [_inst(full, full)])
    assert stats["n_instances"] == 0 and stats["n_skipped"] == 1
    assert stats["jsd_mean"] is None and stats["jsd_pooled"] is None


# -- Jensen-Shannon divergence ------------------------------------------------


def test_jsd_one_hot_versus_uniform():
    # H(3/4, 1/4) - 1/2 = 0.3112781244591328 bits
    val = js_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert abs(val - 0.3112781244591328) < 1e-12


def test_jsd_identical_is_zero_and_disjoint_is_one():
    p = np.array([0.2, 0.3, 0.5])
    assert js_divergence(p, p.copy()) == 0.0
    assert js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_jsd_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        p = rng.random(n)
        q = rng.random(n)
        p /= p.sum()
        q /= q.sum()
        assert js_divergence(p, q) == js_divergence(q, p)
        assert -1e-12 <= js_divergence(p, q) <= 1.0 + 1e-12


def test_jsd_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        js_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))


@pytest.mark.parametrize("value", [float("nan"), 2.0])
def test_inference_paths_reject_bad_gate_override(value):
    model = GraspModel(SMALL, seed=0)
    insts = generate_scene(3, SceneConfig(size=16, min_objects=2, max_objects=2))
    with pytest.raises(ConfigError):
        predict(model, insts[0].image, insts[0].visible, gate_override=value)
    with pytest.raises(ConfigError):
        two_pass(model, insts[0].image, insts[0].visible, gate_override=value)
    for kwargs in ({}, {"use_two_pass": True}):
        with pytest.raises(ConfigError):
            evaluate(model, insts, "oracle", gate_override=value, **kwargs)
