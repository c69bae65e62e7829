"""Command-line front end: exit codes, machine-parsable errors, config
file merging, deterministic generation, and the full pipeline from
dataset generation through SDF export."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import count_model_calls
import grasp
from grasp import __version__, evalkit, probe
from grasp.cli import build_parser, main
from grasp.errors import _FIELD_TYPES
from grasp.geometry import BinaryMask, read_mask, sdf, write_mask
from grasp.model import GraspConfig, GraspModel, load_checkpoint, param_entries, save_checkpoint
from grasp.pgm import read_pgm
from grasp.synthdata import SceneConfig, generate_scene, perturb_vm, read_dataset
from grasp.training import TrainConfig

SMALL_CONFIG = {
    "scene": {"size": 16, "min_objects": 2, "max_objects": 2},
    "model": {"image_size": 16, "patch": 8, "dim": 8, "heads": 2,
              "n_prototypes": 4, "vm_hidden": 4, "decoder_hidden": 8},
    "train": {"steps": 3, "batch": 2, "lr": 0.001, "seed": 0},
}


def _write_config(tmp_path, payload=SMALL_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _dir_digest(path):
    """Order-independent content hash of every file in a directory."""
    digest = hashlib.sha256()
    for child in sorted(p for p in path.iterdir() if p.is_file()):
        digest.update(child.name.encode())
        digest.update(child.read_bytes())
    return digest.hexdigest()


def _gen(tmp_path, name, *, n=4, seed=0, config=None, extra=()):
    out = tmp_path / name
    argv = ["gen", "--out", str(out), "--n", str(n), "--seed", str(seed)]
    if config is not None:
        argv += ["--config", config]
    argv += list(extra)
    assert main(argv) == 0
    return out


# -- exit codes and error surface ---------------------------------------------


def test_version_runs_as_a_module():
    # the subprocess does not inherit pytest's pythonpath, so it is handed the
    # directory of the grasp package this suite imported
    package_parent = str(Path(grasp.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_parent,
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "grasp.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert f"grasp {__version__}" in proc.stdout


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--n", "4"])  # --out missing
    assert err.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["launch"])
    assert err.value.code == 2


def test_one_cached_parser_serves_every_call_as_a_fresh_one(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a = _gen(tmp_path, "a", n=2, seed=3, config=cfg)
    bad = ["train", "--data", str(a), "--out", str(tmp_path / "m.ckpt"), "--steps", "many"]
    with pytest.raises(SystemExit) as err:
        main(bad)
    assert err.value.code == 2
    assert "invalid int value: 'many'" in capsys.readouterr().err
    b = _gen(tmp_path, "b", n=2, seed=3, config=cfg)
    assert _dir_digest(a) == _dir_digest(b)
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    for argv in (["gen", "--out", str(a), "--n", "2"], bad[:-1] + ["7"]):
        assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


def test_missing_checkpoint_is_a_data_error(capsys):
    rc = main(["eval", "--ckpt", "/nonexistent/model.ckpt",
               "--data", "/nonexistent/data", "--out", "/nonexistent/out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count(":") >= 2  # error:<Kind>:<message>


def test_malformed_config_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    rc = main(["gen", "--out", str(tmp_path / "d"), "--n", "2",
               "--config", str(bad)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:GraspError:")

    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]", encoding="utf-8")
    rc = main(["gen", "--out", str(tmp_path / "d2"), "--n", "2",
               "--config", str(notdict)])
    assert rc == 1


# -- generation ---------------------------------------------------------------


def test_gen_is_bit_identical_across_runs(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a = _gen(tmp_path, "a", n=6, seed=3, config=cfg)
    b = _gen(tmp_path, "b", n=6, seed=3, config=cfg)
    c = _gen(tmp_path, "c", n=6, seed=4, config=cfg)
    assert _dir_digest(a) == _dir_digest(b)
    assert _dir_digest(a) != _dir_digest(c)
    assert "wrote 6 instances" in capsys.readouterr().out


def test_gen_writes_expected_layout(tmp_path):
    cfg = _write_config(tmp_path)
    out = _gen(tmp_path, "data", n=3, config=cfg)
    names = sorted(p.name for p in out.iterdir())
    expect = ["manifest.json"]
    for i in range(3):
        expect += [f"amo_{i:06d}.pgm", f"img_{i:06d}.pgm", f"vis_{i:06d}.pgm"]
    assert names == sorted(expect)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 3
    assert manifest["height"] == 16 and manifest["width"] == 16


def test_gen_flag_overrides_config_size(tmp_path):
    cfg = _write_config(tmp_path, {
        "scene": {"size": 32, "min_objects": 2, "max_objects": 2},
    })
    from_file = _gen(tmp_path, "from_file", n=2, config=cfg)
    assert json.loads((from_file / "manifest.json").read_text())["height"] == 32
    overridden = _gen(tmp_path, "overridden", n=2, config=cfg,
                      extra=["--size", "16"])
    assert json.loads((overridden / "manifest.json").read_text())["height"] == 16


def test_train_flag_overrides_config_steps(tmp_path, capsys):
    cfg = _write_config(tmp_path)  # train section says 3 steps
    data = _gen(tmp_path, "data", n=4, config=cfg)
    capsys.readouterr()

    assert main(["train", "--data", str(data), "--out", str(tmp_path / "a.ckpt"),
                 "--config", cfg]) == 0
    assert "trained 3 steps" in capsys.readouterr().out

    assert main(["train", "--data", str(data), "--out", str(tmp_path / "b.ckpt"),
                 "--config", cfg, "--steps", "2"]) == 0
    assert "trained 2 steps" in capsys.readouterr().out


def test_a_flag_never_hides_a_bad_file_value(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    capsys.readouterr()
    for section, value, argv in (
        ("train", {"steps": "x"}, ["train", "--data", str(data), "--out",
                                   str(tmp_path / "t.ckpt"), "--steps", "1"]),
        ("scene", {"size": -1}, ["gen", "--out", str(tmp_path / "g"), "--n", "2",
                                 "--size", "16"]),
    ):
        path = tmp_path / f"{section}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, section: value}), encoding="utf-8")
        assert main(argv + ["--config", str(path)]) == 1, section
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), (section, lines)
    assert not (tmp_path / "t.ckpt").exists() and not (tmp_path / "g").exists()


def test_train_creates_its_output_directories(tmp_path, monkeypatch, capsys):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(fresh)
    cfg = _write_config(fresh)
    data = _gen(fresh, "data", n=4, config=cfg)
    assert main(["train", "--data", str(data), "--out", "run/model.ckpt",
                 "--config", cfg, "--steps", "1"]) == 0
    assert (fresh / "run" / "model.ckpt").is_file()
    assert (fresh / "run" / "model.ckpt.loss.csv").is_file()
    assert main(["train", "--data", str(data), "--out", "a/b/model.ckpt",
                 "--loss-csv", "logs/loss.csv", "--config", cfg, "--steps", "1"]) == 0
    assert (fresh / "a" / "b" / "model.ckpt").is_file()
    assert (fresh / "logs" / "loss.csv").is_file()


def test_stats_creates_its_output_directory(tmp_path, monkeypatch, capsys):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(fresh)
    data = _gen(fresh, "data", n=4, config=_write_config(fresh))
    save_checkpoint(fresh / "model.ckpt",
                    GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    for out in ("stats/stats.json", "a/b/stats.json"):
        assert main(["stats", "--ckpt", "model.ckpt", "--data", str(data), "--out", out]) == 0
        assert "gate" in json.loads((fresh / out).read_text())
    capsys.readouterr()


def test_ill_typed_config_values_are_config_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=4, config=cfg)
    cases = [
        ("model", "image_size", 16.0), ("model", "heads", True),
        ("model", "sdf_query_mod", "yes"), ("model", "sdf_query_mod", 1),
        ("train", "steps", 2.5), ("train", "batch", True),
        ("train", "lr", True), ("train", "lr", "0.001"),
    ]
    capsys.readouterr()
    for section, key, value in cases:
        payload = {**SMALL_CONFIG, section: {**SMALL_CONFIG[section], key: value}}
        path = tmp_path / f"{section}-{key}-{value!r}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
                "--config", str(path)]
        assert main(argv) == 1, (section, key, value)
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), err
    payload = {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], "size": 16.0}}
    path = tmp_path / "scene-size.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["gen", "--out", str(tmp_path / "g"), "--n", "2", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:ConfigError:")
    assert not (tmp_path / "t.ckpt").exists()


def test_every_config_field_but_the_shape_list_has_a_checked_type():
    unchecked = [f"{cls.__name__}.{f.name}" for cls in (GraspConfig, TrainConfig, SceneConfig)
                 for f in fields(cls) if f.type not in _FIELD_TYPES]
    assert unchecked == ["SceneConfig.shapes"]


# -- full pipeline ------------------------------------------------------------


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"

    assert main(["gen", "--out", str(data), "--n", "12", "--seed", "0",
                 "--config", cfg]) == 0
    assert "wrote 12 instances" in capsys.readouterr().out

    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--config", cfg]) == 0
    assert "trained 3 steps" in capsys.readouterr().out
    assert ckpt.exists()
    loss_lines = (tmp_path / "model.ckpt.loss.csv").read_text().splitlines()
    assert len(loss_lines) == 1 + 3  # header plus one row per step

    # oracle evaluation
    rep_dir = tmp_path / "report"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(rep_dir)]) == 0
    assert "full mIoU" in capsys.readouterr().out
    report = json.loads((rep_dir / "report.json").read_text())
    assert report["protocol"] == "oracle"
    assert report["n_instances"] == 12
    assert 0.0 <= report["full_miou"] <= 1.0
    assert report["config"]["model"]["image_size"] == 16
    assert report["version"] == __version__
    csv_lines = (rep_dir / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 12

    # repeated evaluation is byte-identical
    rep2 = tmp_path / "report2"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(rep2)]) == 0
    capsys.readouterr()
    assert (rep2 / "report.json").read_bytes() == (rep_dir / "report.json").read_bytes()
    assert (rep2 / "report.csv").read_bytes() == (rep_dir / "report.csv").read_bytes()

    # standard protocol with every inference option on
    rep3 = tmp_path / "report3"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(rep3), "--protocol", "standard", "--two-pass",
                 "--pp", "--gate-override", "0.5", "--seed", "7"]) == 0
    capsys.readouterr()
    report3 = json.loads((rep3 / "report.json").read_text())
    assert report3["protocol"] == "standard"
    assert report3["two_pass"] is True and report3["postprocess"] is True
    assert report3["gate_override"] == 0.5
    assert isinstance(report3["vm_strata"], list) and report3["vm_strata"]

    # gate ablation sweep
    ablate_csv = tmp_path / "ablate.csv"
    assert main(["ablate", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(ablate_csv)]) == 0
    capsys.readouterr()
    lines = ablate_csv.read_text().splitlines()
    assert lines[0] == "gate_override,full_miou,occ_miou"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["none", "0.0", "0.5", "1.0"]

    # linear probes
    probe_dir = tmp_path / "probe"
    assert main(["probe", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(probe_dir)]) == 0
    assert "sign accuracy" in capsys.readouterr().out
    probe = json.loads((probe_dir / "probe.json").read_text())
    assert set(probe["results"]) == {"pre_fusion", "post_fusion", "random_baseline"}
    n_test = probe["results"]["post_fusion"]["n_test_tokens"]
    pair_lines = (probe_dir / "probe_pairs.csv").read_text().splitlines()
    assert len(pair_lines) == 1 + n_test

    # mechanism statistics
    stats_json = tmp_path / "stats.json"
    assert main(["stats", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(stats_json)]) == 0
    capsys.readouterr()
    stats = json.loads(stats_json.read_text())
    assert "by_occ_bin" in stats["gate"]
    assert "jsd_mean" in stats["attention"]

    # SDF export of one dataset mask
    sdf_dir = tmp_path / "sdf"
    assert main(["sdf", "--mask", str(data / "vis_000000.pgm"),
                 "--out", str(sdf_dir)]) == 0
    capsys.readouterr()
    for name in ("sdf.csv", "sdf.pgm", "gate.pgm", "sdf_meta.json"):
        assert (sdf_dir / name).exists()
    gate_img = read_pgm(sdf_dir / "gate.pgm")
    assert gate_img.shape == (16, 16)
    meta = json.loads((sdf_dir / "sdf_meta.json").read_text())
    lo, hi = meta["normalized_range"]
    assert -1.0 <= lo <= hi <= 1.0


def test_eval_gate_override_flag_lands_in_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=4, config=cfg)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--config", cfg, "--steps", "1"]) == 0
    out = tmp_path / "rep"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out), "--gate-override", "1.0"]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["gate_override"] == 1.0


def test_sdf_meta_is_the_same_from_any_directory(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, "data", config=_write_config(tmp_path))
    metas = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        shutil.copy(data / "vis_000000.pgm", work / "mask.pgm")
        monkeypatch.chdir(work)
        assert main(["sdf", "--mask", "mask.pgm", "--out", "sdf"]) == 0
        metas.append((work / "sdf" / "sdf_meta.json").read_bytes())
    capsys.readouterr()
    assert metas[0] == metas[1]
    assert json.loads(metas[0])["mask"] == "mask.pgm"


# sha256 of sdf.csv and sdf.pgm: an exact integer EDT, then IEEE sqrt and
# divide, so the bytes are the same on every platform.  gate.pgm (exp) and
# sdf_meta.json (the version) are left out.
SDF_EXPORT_DIGESTS = {
    "scene": ("8e134089de6b86d7747f416f4dc5972dbf213ce1f209b5454c41bfae06d1925d",
              "5719b03e463d0d6e5494bbe2b2624f14eda138665077c2517bd587435ad7d914"),
    "perturbed": ("f2fdc8dfbd2fa295af10dafe38425a39ccbe7ee4c00bb8427008f9868387947c",
                  "c54c0331f455717f616c50bb6db2aa7e04f8be7e0bcc5fc40acedb0d55e38276"),
    "border": ("586d19e91179bbc5e063e7278f0fd6b0839046dc32baf6ea338bf4e0e2b65928",
               "a0da8c1a4ab97551bd6f970cf5558102f5dd2f6c910d7beea31e105ec75a5d8c"),
}


def test_sdf_export_bytes_are_pinned(tmp_path, capsys):
    visible = generate_scene(4)[3].visible
    yy, xx = np.mgrid[:64, :64]
    # a disc cut by the left and bottom edges, the rightmost columns, part of the top rows
    border = ((yy - 60) ** 2 + (xx + 3) ** 2 < 18**2) | (xx >= 61) | ((yy < 2) & (xx > 30))
    masks = {"scene": visible, "perturbed": perturb_vm(visible, 17),
             "border": BinaryMask(border)}
    for name, mask in masks.items():
        write_mask(tmp_path / f"{name}.pgm", mask)
        out = tmp_path / name
        assert main(["sdf", "--mask", str(tmp_path / f"{name}.pgm"), "--out", str(out)]) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("sdf.csv", "sdf.pgm"))
        assert got == SDF_EXPORT_DIGESTS[name], name
    capsys.readouterr()


def test_analysis_commands_run_only_the_stages_they_read(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    calls = count_model_calls(monkeypatch, "forward", "encode", "spm", "decode_branches")
    # per instance: ablate re-gates one forward for its four overrides; probe
    # stops at mask fusion; stats stops at prototype attention
    for argv, per_instance in (
        (["ablate", "--out", str(tmp_path / "ablate.csv")],
         {"forward": 1, "encode": 1, "spm": 1, "decode_branches": 4}),
        (["ablate", "--protocol", "standard", "--pp", "--out", str(tmp_path / "pp.csv")],
         {"forward": 1, "encode": 1, "spm": 1, "decode_branches": 4}),
        (["probe", "--out", str(tmp_path / "probe")],
         {"forward": 0, "encode": 1, "spm": 0, "decode_branches": 0}),
        (["stats", "--out", str(tmp_path / "stats.json")],
         {"forward": 0, "encode": 1, "spm": 1, "decode_branches": 0}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert main(argv + ["--ckpt", str(ckpt), "--data", str(data)]) == 0
        assert calls == {name: 4 * n for name, n in per_instance.items()}, argv
    capsys.readouterr()


def test_stats_json_keeps_its_bytes_from_one_sdf_per_instance(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    model = GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0)
    model.params.groups["gate"]["alpha"].data[...] = 0.7
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    _, instances = read_dataset(data)
    # the payload the separate gate and attention passes give
    want = {"gate": evalkit.gate_stats(model, instances),
            "attention": evalkit.attention_stats(model, instances),
            "config": {"version": __version__, "command": "stats", "seed": None,
                       "model": model.config.to_dict()},
            "version": __version__}
    calls = count_model_calls(monkeypatch, "sdf_tokens")
    out = tmp_path / "stats.json"
    assert main(["stats", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    assert calls == {"sdf_tokens": len(instances)}
    assert out.read_text() == json.dumps(want, indent=1, sort_keys=True) + "\n"
    capsys.readouterr()


# -- report files -------------------------------------------------------------


def _data_and_checkpoint(tmp_path):
    """A four-instance dataset (two unoccluded) and an untrained checkpoint."""
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    return data, ckpt


def _config_echo(command, seed, model):
    return {"version": __version__, "command": command, "seed": seed,
            "model": model.config.to_dict()}


@pytest.mark.parametrize("objects, occluded", [(2, 2), (1, 0)])
def test_ablate_prints_its_learned_gate_row_as_eval_prints_it(tmp_path, capsys, objects, occluded):
    scene = {"size": 16, "min_objects": objects, "max_objects": objects}
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path, {"scene": scene}))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "rep")]) == 0
    eval_line = capsys.readouterr().out.strip()
    assert main(["ablate", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "ablate.csv")]) == 0
    none_line = capsys.readouterr().out.splitlines()[0]
    mious = none_line.removeprefix("gate=none: ")
    assert mious != none_line
    assert eval_line == f"oracle: {mious} (4 instances, {occluded} occluded)"


def test_report_json_round_trip(tmp_path, capsys):
    data, ckpt = _data_and_checkpoint(tmp_path)
    out = tmp_path / "rep"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out),
                 "--seed", "3"]) == 0
    capsys.readouterr()
    loaded = json.loads((out / "report.json").read_text(encoding="utf-8"))
    model, _ = load_checkpoint(ckpt)
    _, instances = read_dataset(data)
    assert loaded.pop("config") == _config_echo("eval", 3, model)
    assert loaded.pop("version") == __version__
    assert loaded == evalkit.evaluate(model, instances, "oracle", eval_seed=3).to_dict()
    assert [row["occ_iou"] is None for row in loaded["rows"]] == [True, False, False, True]


def test_model_report_json_has_no_numpy_leaks(tmp_path, capsys):
    # json.dump rejects numpy scalars, so a clean dump proves native types
    data, ckpt = _data_and_checkpoint(tmp_path)
    out = tmp_path / "rep"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out),
                 "--protocol", "standard"]) == 0
    capsys.readouterr()
    loaded = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert loaded["gate_stats"] is not None
    assert loaded["attention_stats"] is not None


def test_report_csv_cells_round_trip(tmp_path, capsys):
    data, ckpt = _data_and_checkpoint(tmp_path)
    out = tmp_path / "rep"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
    lines = (out / "report.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "index,shape_class,occ_ratio,vm_iou,full_iou,occ_iou,mean_gate"
    assert len(lines) == 1 + len(rows) == 5
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row["index"]
        assert cells[1] == row["shape_class"]
        assert float(cells[2]) == row["occ_ratio"]
        assert cells[3] == ""  # oracle: vm_iou is None
        assert float(cells[4]) == row["full_iou"]
        assert cells[5] == ("" if row["occ_iou"] is None else repr(row["occ_iou"]))
        assert float(cells[6]) == row["mean_gate"]


def test_probe_outputs_round_trip(tmp_path, capsys):
    data, ckpt = _data_and_checkpoint(tmp_path)
    out = tmp_path / "probe"
    assert main(["probe", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    model, _ = load_checkpoint(ckpt)
    _, instances = read_dataset(data)
    report = probe.probe_report(model, instances)

    loaded = json.loads((out / "probe.json").read_text(encoding="utf-8"))
    assert "pairs" not in loaded
    assert loaded.pop("config") == _config_echo("probe", 0, model)
    assert loaded.pop("version") == __version__
    assert loaded == {k: v for k, v in report.items() if k != "pairs"}
    assert set(loaded["results"]) == set(probe.POSITIONS)

    lines = (out / "probe_pairs.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "true_sdf,predicted_sdf"
    assert len(lines) == 1 + report["pairs"].shape[0]
    for line, (t, p) in zip(lines[1:], report["pairs"]):
        ct, cp = line.split(",")
        assert float(ct) == t and float(cp) == p


def test_sdf_csv_round_trips_through_repr(tmp_path, capsys):
    arr = np.zeros((3, 4), dtype=bool)
    arr[1, 1:3] = True
    write_mask(tmp_path / "m.pgm", BinaryMask(arr))
    assert main(["sdf", "--mask", str(tmp_path / "m.pgm"), "--out", str(tmp_path / "sdf")]) == 0
    capsys.readouterr()
    field = sdf(BinaryMask(arr))
    lines = (tmp_path / "sdf" / "sdf.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "y,x,distance,normalized"
    assert len(lines) == 1 + 12
    for line in lines[1:]:
        y, x, dist, norm = line.split(",")
        assert float(dist) == field.values[int(y), int(x)]
        assert float(norm) == field.normalized[int(y), int(x)]


def test_sdf_pgm_heatmap_mapping(tmp_path, capsys):
    arr = np.zeros((3, 3), dtype=bool)
    arr[1, 1] = True
    # the degenerate fields pin the ends of the gray ramp
    for name, mask, ends in (("dot", BinaryMask(arr), None), ("empty", BinaryMask.zeros(2, 2), 255),
                             ("full", BinaryMask.full(2, 2), 0)):
        write_mask(tmp_path / f"{name}.pgm", mask)
        out = tmp_path / name
        assert main(["sdf", "--mask", str(tmp_path / f"{name}.pgm"), "--out", str(out)]) == 0
        levels = read_pgm(out / "sdf.pgm")
        field = sdf(read_mask(tmp_path / f"{name}.pgm"))
        want = np.clip(np.rint((field.normalized + 1.0) * 127.5), 0, 255).astype(np.uint8)
        assert np.array_equal(levels, want), name
        if ends is not None:
            assert np.all(levels == ends), name
    capsys.readouterr()


# -- malformed inputs end in one error line -----------------------------------


def _rewrite_checkpoint(src, dst, fix_header=lambda h: None, fix_body=lambda b: b):
    with open(src, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    fix_header(header)
    with open(dst, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + fix_body(body))


def _nan_first_block(body):
    return b"\x00\x00\x00\x00\x00\x00\xf8\x7f" + body[8:]


def test_non_finite_numbers_end_in_one_config_error_line(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    write_mask(tmp_path / "m.pgm", BinaryMask(np.eye(8, dtype=bool)))
    sdf_argv = ["sdf", "--mask", str(tmp_path / "m.pgm"), "--out", str(tmp_path / "sdf")]
    probe_argv = ["probe", "--ckpt", str(ckpt), "--data", str(data),
                  "--out", str(tmp_path / "probe")]
    cases = [sdf_argv + [f"{flag}={value}"] for flag in ("--alpha", "--beta")
             for value in ("nan", "inf", "-inf")]
    cases += [probe_argv + [f"--ridge-lambda={value}"] for value in ("nan", "inf")]
    capsys.readouterr()
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:ConfigError:"), (argv, err)
    assert not (tmp_path / "sdf").exists()
    assert not (tmp_path / "probe").exists()


def test_patch_below_one_ends_in_one_config_error_line(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=4, config=_write_config(tmp_path))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    cases = []
    for patch in (0, -8):
        cfg = tmp_path / f"patch{patch}.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG,
                                   "model": {**SMALL_CONFIG["model"], "patch": patch}}))
        cases.append(["train", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
                      "--config", str(cfg)])
        bad = tmp_path / f"patch{patch}.ckpt"
        _rewrite_checkpoint(ckpt, bad, fix_header=lambda h, p=patch: h["config"].update(patch=p))
        cases.append(["eval", "--ckpt", str(bad), "--data", str(data),
                      "--out", str(tmp_path / "rep")])
    capsys.readouterr()
    for argv in cases:
        assert main(argv) == 1, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), (argv, lines)
    assert not (tmp_path / "t.ckpt").exists()
    assert not (tmp_path / "rep").exists()


def test_malformed_inputs_end_in_one_error_line(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=4, config=cfg)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))

    bad_ckpts = {
        "extra_config_key": dict(fix_header=lambda h: h["config"].update(bogus=1)),
        "no_seed": dict(fix_header=lambda h: h.pop("seed")),
        "trailing_bytes": dict(fix_body=lambda b: b + b"\x00"),
        "nan_param": dict(fix_body=_nan_first_block),
    }
    for name, fixes in bad_ckpts.items():
        _rewrite_checkpoint(ckpt, tmp_path / f"{name}.ckpt", **fixes)

    no_seed_data = tmp_path / "no_seed_data"
    shutil.copytree(data, no_seed_data)
    manifest = json.loads((no_seed_data / "manifest.json").read_text())
    del manifest["instances"][1]["seed"]
    (no_seed_data / "manifest.json").write_text(json.dumps(manifest))

    huge = GraspConfig(dim=1024, heads=1)  # a 67 MiB body the file does not hold
    _rewrite_checkpoint(ckpt, tmp_path / "huge.ckpt", fix_header=lambda h: h.update(
        config=huge.to_dict(), params=param_entries(huge)))

    not_utf8_data = tmp_path / "not_utf8_data"
    shutil.copytree(data, not_utf8_data)
    (not_utf8_data / "manifest.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{}")

    sdf_argv = ["sdf", "--out", str(tmp_path / "sdf"), "--mask"]
    bad_pgms = []
    for i, size in enumerate((b"-4 -4", b"0 0", b"4 -4")):
        bad_pgms.append(tmp_path / f"size{i}.pgm")
        bad_pgms[-1].write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))

    (tmp_path / "bogus").mkdir()
    bogus_model = _write_config(tmp_path / "bogus", {**SMALL_CONFIG, "model": {"bogus": 1}})
    eval_argv = ["eval", "--data", str(data), "--out", str(tmp_path / "rep")]
    cases = [(sdf_argv + [str(pgm)], "DatasetIOError") for pgm in bad_pgms]
    cases += [
        (["gen", "--out", str(tmp_path / "gen"), "--n", "2",
          "--config", str(tmp_path / "not_utf8.json")], "GraspError"),
        (["train", "--data", str(not_utf8_data), "--out", str(tmp_path / "t.ckpt")],
         "DatasetIOError"),
        (eval_argv + ["--ckpt", str(tmp_path / "huge.ckpt")], "IntegrityError"),
        (["train", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
          "--config", bogus_model], "ConfigError"),
        (["train", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
          "--config", cfg, "--lr", "nan"], "ConfigError"),
        (eval_argv + ["--ckpt", str(ckpt), "--gate-override", "nan"], "ConfigError"),
        (eval_argv + ["--ckpt", str(ckpt), "--gate-override", "2.0"], "ConfigError"),
        (eval_argv + ["--ckpt", str(tmp_path / "extra_config_key.ckpt")], "ConfigError"),
        (eval_argv + ["--ckpt", str(tmp_path / "no_seed.ckpt")], "IntegrityError"),
        (eval_argv + ["--ckpt", str(tmp_path / "trailing_bytes.ckpt")], "IntegrityError"),
        (eval_argv + ["--ckpt", str(tmp_path / "nan_param.ckpt")], "IntegrityError"),
        (["eval", "--ckpt", str(ckpt), "--data", str(no_seed_data),
          "--out", str(tmp_path / "rep")], "DatasetIOError"),
    ]
    capsys.readouterr()
    for argv, kind in cases:
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error:{kind}:"), (argv, out.err)
    for made in ("rep", "t.ckpt", "gen", "sdf"):
        assert not (tmp_path / made).exists(), made


def test_a_diverged_run_ends_in_one_error_line_and_no_warning(tmp_path, capsys):
    config = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=4, config=config)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                     "--config", config, "--lr", "1e300", "--steps", "4"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:TrainingDiverged:"), lines
    assert not caught, [str(w.message) for w in caught]


def test_empty_dataset_ends_in_one_error_line(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=2, config=_write_config(tmp_path))
    manifest = json.loads((data / "manifest.json").read_text())
    manifest.update(count=0, instances=[])
    (data / "manifest.json").write_text(json.dumps(manifest))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    capsys.readouterr()
    for command in ("eval", "probe"):
        out = tmp_path / command
        assert main([command, "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:DatasetIOError:"), lines
        assert "empty dataset" in lines[0]
        assert not out.exists()


def test_memory_error_ends_in_one_error_line(tmp_path, capsys):
    # a batch of 10**15 draws asks for a 7.1 PiB index array, beyond any
    # address space, so the allocation fails at once
    cfg = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=2, config=cfg)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                 "--config", cfg, "--batch", str(10**15)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:MemoryError:"), lines
    assert not (tmp_path / "m.ckpt").exists()


def test_model_past_the_parameter_ceiling_is_a_config_error(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=2, config=_write_config(tmp_path))
    capsys.readouterr()
    for model in ({"dim": 100_000_000_000, "heads": 1}, {"dim": 10_000_000, "heads": 1},
                  {"n_prototypes": 10**12}):
        cfg = _write_config(tmp_path, {"model": model})
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                     "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), (model, lines)
    assert not (tmp_path / "m.ckpt").exists()


def test_negative_gen_seed_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), "--n", "2", "--seed", "-1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "ablate", "probe"])
def test_negative_analysis_seed_is_a_config_error(tmp_path, capsys, command):
    data = _gen(tmp_path, "data", n=2, config=_write_config(tmp_path))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, GraspModel(GraspConfig(**SMALL_CONFIG["model"]), seed=0))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--ckpt", str(ckpt), "--data", str(data), "--out", str(out),
                 "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), lines
    assert "seed -1" in lines[0] and not captured.out
    assert not out.exists()


def test_gen_size_above_the_ceiling_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), "--n", "1", "--size", "10000000"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), lines
    assert not out.exists()


def test_negative_train_seed_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    data = _gen(tmp_path, "data", n=2, config=cfg)
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({**SMALL_CONFIG,
                                    "train": {**SMALL_CONFIG["train"], "seed": -1}}))
    capsys.readouterr()
    ckpt = tmp_path / "m.ckpt"
    for argv in (["--config", cfg, "--seed", "-1"], ["--config", str(negative)]):
        assert main(["train", "--data", str(data), "--out", str(ckpt), *argv]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), (argv, lines)
        assert "seed" in lines[0], lines
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.loss.csv").exists()


def test_unknown_config_section_is_a_config_error(tmp_path, capsys):
    data = _gen(tmp_path, "data", n=2, config=_write_config(tmp_path))
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(json.dumps({"modle": {"dim": 8, "heads": 2}}))
    capsys.readouterr()
    for argv in (["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")],
                 ["gen", "--out", str(tmp_path / "gen"), "--n", "2"]):
        assert main([*argv, "--config", str(misspelt)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:ConfigError:"), (argv, lines)
        assert "modle" in lines[0], lines
    assert not (tmp_path / "m.ckpt").exists()
    assert not (tmp_path / "gen").exists()
