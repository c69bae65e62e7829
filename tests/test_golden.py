"""Golden bytes of every CLI output at criterion 12's tiny config.

One pipeline runs every subcommand in a fresh working directory.  Every
path on its command lines is relative, so no absolute path reaches an
output, and the sha256 of each output is pinned.  A change that moves
any of these bytes has to update the pin on purpose and say why.  Every
JSON and CSV output is also held to the one layout its writers share.
"""

import contextlib
import hashlib
import io
import json

import pytest

from grasp.cli import main

CONFIG = {
    "scene": {"size": 16, "min_objects": 2, "max_objects": 2},
    "model": {"image_size": 16, "patch": 8, "dim": 8, "heads": 2,
              "n_prototypes": 4, "vm_hidden": 4, "decoder_hidden": 8},
    "train": {"steps": 10, "batch": 2, "lr": 0.001, "seed": 5},
}

MODEL = ["--ckpt", "model.ckpt", "--data", "data"]
COMMANDS = (
    ["gen", "--out", "data", "--n", "10", "--seed", "1", "--config", "config.json"],
    ["train", "--data", "data", "--out", "model.ckpt", "--config", "config.json"],
    ["eval", *MODEL, "--out", "eval_oracle"],
    ["eval", *MODEL, "--out", "eval_standard", "--protocol", "standard"],
    ["eval", *MODEL, "--out", "eval_two_pass", "--protocol", "standard", "--two-pass"],
    ["ablate", *MODEL, "--out", "ablate.csv"],
    ["probe", *MODEL, "--out", "probe"],
    ["stats", *MODEL, "--out", "stats.json"],
    ["sdf", "--mask", "data/vis_000000.pgm", "--out", "sdf"],
)

GOLDEN = {
    "data": "d932713ee3831a941a4af570c5fa6f1e6bc7189e755a5707fb9ce07ed32ef6c3",
    "model.ckpt": "ea65f9f44158fbbf1284712a159ecafcf266267de2c93e015ae5ad9c61f42845",
    "model.ckpt.loss.csv": "5b382f86bd45dd3155e91b60bbebcb2c074b20bc64954e3942915cd855dec713",
    "eval_oracle": "aad9fa049c99cd300a87797315db85548c7c2a4d219e62801a3fbc1a7ee9c6ea",
    "eval_standard": "6b202618d6bd9815dc25f6fa2d968e483c529e6dfa486c51ee7758d178ead8b5",
    "eval_two_pass": "f867bdf5e0636ec168583147c367b2c4592bbcbe4032f95e5a29e6980008503b",
    "ablate.csv": "59576d8b4bc81b306c01eab36b5d1868b642091ec02da2ed068f53606ae174f1",
    "probe": "d28253ee2472769318ddca29da911a9d4a110268708534b971faad5ded433aca",
    "stats.json": "92875dddb0f1251f53de6a49c4606801946ca11d121a7c4f1ea09aa8c1c0ff86",
    "sdf": "0db59659f5d496e249c2fb9bb9000407b382903731fdb479bffc42551d63bc23",
}


def _digest(path):
    """sha256 of a file, or of a directory's sorted file names and bytes."""
    digest = hashlib.sha256()
    if path.is_file():
        digest.update(path.read_bytes())
    else:
        for child in sorted(path.iterdir()):
            digest.update(child.name.encode())
            digest.update(child.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The working directory after every command of the pipeline has run."""
    work = tmp_path_factory.mktemp("golden")
    (work / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(work)
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    return work


def test_every_cli_output_keeps_its_bytes(work):
    got = {name: _digest(work / name) for name in GOLDEN}
    assert got == GOLDEN, sorted(name for name in GOLDEN if got[name] != GOLDEN[name])


def test_every_json_and_csv_output_has_the_one_layout(work):
    paths = [path for name in GOLDEN
             for path in ([work / name] if (work / name).is_file() else (work / name).iterdir())]
    jsons = [path for path in paths if path.suffix == ".json"]
    csvs = [path for path in paths if path.suffix == ".csv"]
    assert sorted(path.name for path in jsons) == [
        "manifest.json", "probe.json", "report.json", "report.json", "report.json",
        "sdf_meta.json", "stats.json"]
    assert len(csvs) == 7  # loss, three reports, ablate, probe pairs, sdf
    for path in jsons:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path
    for path in csvs:
        lines = path.read_bytes().decode("ascii").splitlines()
        assert len(lines) > 1, path
        assert {line.count(",") for line in lines} == {lines[0].count(",")}, path
