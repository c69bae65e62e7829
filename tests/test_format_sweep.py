"""Bounded sweeps of the on-disk formats.

Dataset: every manifest field, every instance-entry field and every PGM
header token is set, one at a time, to each value of a fixed set, and
``grasp train`` reads the result.  Checkpoint: every header field, every
``config`` key and every field of one ``params`` entry is set the same
way, and ``grasp stats`` reads the result.  Each record (the manifest,
an instance entry, the checkpoint header and a ``params`` entry) also
gets one unknown key, and the manifest and the checkpoint header are each
once nested past the JSON parser's depth.  Config file: every field of
the ``scene``, ``model`` and ``train`` sections, and one unknown
top-level section, is set the same way; ``grasp gen`` reads the scene
cases and ``grasp train`` the others, and each reads one unknown section
and one file nested past the parser's depth.  Flags: every numeric flag of
``gen``, ``train``, ``eval``, ``ablate``, ``probe`` and ``sdf`` is given
each of a fixed set of strings, where a usage error (exit 2) is allowed too.

Each case must exit 0, or exit 1 with exactly one ``error:<Kind>:``
line on stderr.  Any other exception propagates and fails the test,
and a numpy warning is raised as an error, so a silent accept of
corrupt data fails it too.
"""

import json
import math
import re
import warnings

from grasp.cli import main
from grasp.model import GraspConfig
from grasp.synthdata import SceneConfig
from grasp.training import TrainConfig

SCENE = {"size": 16, "min_objects": 2, "max_objects": 2}
MODEL = {"image_size": 16, "patch": 8, "dim": 8, "heads": 2, "n_prototypes": 4,
         "vm_hidden": 4, "decoder_hidden": 8}

MISSING = object()
HUGE = 10**30
LABELS = ("missing", "wrong-type", "0", "-1", "nan", "inf", "-inf", "huge")
# the wrong type, None here, is filled in per field
JSON_VALUES = dict(zip(LABELS, (MISSING, None, 0, -1, math.nan, math.inf, -math.inf, HUGE)))
PGM_TOKENS = dict(zip(LABELS, (MISSING, b"x", b"0", b"-1", b"nan", b"inf", b"-inf",
                               str(HUGE).encode())))
ONE_ERROR_LINE = re.compile(r"error:(\w+):")
UNKNOWN = {"unknown_key": 0}
# nested past the parser's depth
DEEP = b"[" * 100_000

# the only mutations that leave a valid dataset: a seed may be any integer >= 0
ACCEPTED = {"manifest.base_seed=0", "manifest.base_seed=huge",
            "instances[1].seed=0", "instances[1].seed=huge"}
# how many of the other cases end in each kind of error line
ERROR_KINDS = {"DatasetIOError": 202, "IntegrityError": 13}

CKPT_ACCEPTED = {"config.gate_override=0", "extra=missing", "seed=0", "seed=huge", "step=0",
                 "step=huge"}
CKPT_ERROR_KINDS = {"ConfigError": 62, "IntegrityError": 87}


# every section field written out, so each one is mutated; gen makes two
# instances, and train's --steps 1 wins over the file's steps once that is checked
CONFIG = {"scene": SceneConfig(**SCENE).to_dict(), "model": GraspConfig(**MODEL).to_dict(),
          "train": TrainConfig(steps=1, batch=1).to_dict()}
CONFIG_ACCEPTED = {
    # a missing field takes its default; the default image size is not the dataset's
    *(f"{section}.{key}=missing" for section, fields in CONFIG.items() for key in fields
      if key != "image_size"),
    *(f"{key}=0" for key in ("scene.background", "scene.noise_sigma", "scene.overlap_bias",
                             "model.gate_override", "train.beta1", "train.beta2",
                             "train.ckpt_every", "train.clean_vm_prob", "train.occ_weight",
                             "train.seed", "train.weight_decay")),
    *(f"{key}=huge" for key in ("scene.noise_sigma", "train.ckpt_every", "train.eps",
                                "train.lr", "train.occ_weight", "train.seed", "train.steps",
                                "train.weight_decay")),
}
CONFIG_ERROR_KINDS = {"ConfigError": 172, "DimensionError": 1, "GraspError": 2}


def _wrong_type(original):
    return 7 if isinstance(original, str) else "x"


def _mutated(record: dict, key, value) -> dict:
    out = dict(record)
    if value is MISSING:
        out.pop(key, None)
    else:
        out[key] = _wrong_type(record[key]) if value is None else value
    return out


def _pgm_with(raw: bytes, index: int, token) -> bytes:
    """``raw`` with its ``index``-th header token replaced, or dropped for MISSING."""
    tokens = raw.split(maxsplit=4)
    header, payload = tokens[:4], raw[len(b" ".join(tokens[:4])) + 1:]
    if token is MISSING:
        del header[index]
    else:
        header[index] = token
    return b" ".join(header) + b"\n" + payload


def _cases(data):
    manifest = json.loads((data / "manifest.json").read_text())
    for key in manifest:
        for label, value in JSON_VALUES.items():
            yield (f"manifest.{key}={label}", data / "manifest.json",
                   json.dumps(_mutated(manifest, key, value)).encode())
    yield ("manifest+unknown_key", data / "manifest.json",
           json.dumps({**manifest, **UNKNOWN}).encode())
    yield "manifest=deep", data / "manifest.json", DEEP
    entries = manifest["instances"]
    for key in entries[1]:
        for label, value in JSON_VALUES.items():
            mutated = {**manifest, "instances": [entries[0], _mutated(entries[1], key, value)]}
            yield (f"instances[1].{key}={label}", data / "manifest.json",
                   json.dumps(mutated).encode())
    mutated = {**manifest, "instances": [entries[0], {**entries[1], **UNKNOWN}]}
    yield "instances[1]+unknown_key", data / "manifest.json", json.dumps(mutated).encode()
    for field in ("image", "visible", "amodal"):
        path = data / entries[0][field]
        raw = path.read_bytes()
        for index in range(4):
            for label, token in PGM_TOKENS.items():
                yield f"{path.name}[{index}]={label}", path, _pgm_with(raw, index, token)


def _checkpoint_cases(path):
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)

    def case(name, mutated):
        return name, path, json.dumps(mutated, sort_keys=True).encode() + b"\n" + body

    for key in header:
        for label, value in JSON_VALUES.items():
            yield case(f"{key}={label}", _mutated(header, key, value))
    yield case("header+unknown_key", {**header, **UNKNOWN})
    yield "header=deep", path, DEEP + b"\n" + body
    for key in header["config"]:
        for label, value in JSON_VALUES.items():
            yield case(f"config.{key}={label}",
                       {**header, "config": _mutated(header["config"], key, value)})
    entries = header["params"]
    for key in entries[1]:
        for label, value in JSON_VALUES.items():
            mutated = [entries[0], _mutated(entries[1], key, value), *entries[2:]]
            yield case(f"params[1].{key}={label}", {**header, "params": mutated})
    mutated = [entries[0], {**entries[1], **UNKNOWN}, *entries[2:]]
    yield case("params[1]+unknown_key", {**header, "params": mutated})


def _sweep(argv, cases, capsys):
    """Run ``argv`` once per case; the mutations it accepts and its tally of error kinds."""
    capsys.readouterr()
    assert main(argv) == 0, "the unmutated files must be read"
    capsys.readouterr()
    accepted, kinds = set(), {}
    for name, path, content in cases:
        original = path.read_bytes()
        path.write_bytes(content)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        lines = err.splitlines()
        if code == 1:
            match = ONE_ERROR_LINE.match(lines[0]) if len(lines) == 1 else None
            assert match, (name, err)
            kinds[match[1]] = kinds.get(match[1], 0) + 1
        else:
            assert code == 0 and not err, (name, code, err)
            accepted.add(name)
    return accepted, kinds


def _gen(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": SCENE, "model": MODEL}))
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--n", "2", "--seed", "0",
                 "--config", str(config)]) == 0
    return config, data


def test_every_dataset_field_mutation_ends_in_exit_0_or_one_error_line(tmp_path, capsys):
    config, data = _gen(tmp_path)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
            "--config", str(config), "--steps", "1", "--batch", "1"]
    accepted, kinds = _sweep(argv, _cases(data), capsys)
    assert accepted == ACCEPTED
    assert kinds == ERROR_KINDS


def test_every_checkpoint_header_mutation_ends_in_exit_0_or_one_error_line(tmp_path, capsys):
    config, data = _gen(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--config", str(config),
                 "--steps", "1", "--batch", "1"]) == 0
    argv = ["stats", "--ckpt", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "stats.json")]
    accepted, kinds = _sweep(argv, _checkpoint_cases(ckpt), capsys)
    assert accepted == CKPT_ACCEPTED
    assert kinds == CKPT_ERROR_KINDS


def _config_cases(path, sections):
    for section in sections:
        for key in CONFIG[section]:
            for label, value in JSON_VALUES.items():
                mutated = {**CONFIG, section: _mutated(CONFIG[section], key, value)}
                yield f"{section}.{key}={label}", path, json.dumps(mutated).encode()
    yield "extra_section", path, json.dumps({**CONFIG, "modle": dict(MODEL)}).encode()
    yield "train=deep", path, b'{"train": ' + DEEP


def test_every_config_file_mutation_ends_in_exit_0_or_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    data = tmp_path / "data"
    gen = ["gen", "--out", str(data), "--n", "2", "--seed", "0", "--config", str(config)]
    accepted, kinds = _sweep(gen, _config_cases(config, ["scene"]), capsys)
    train = ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
             "--config", str(config), "--steps", "1"]
    more, more_kinds = _sweep(train, _config_cases(config, ["model", "train"]), capsys)
    for kind, n in more_kinds.items():
        kinds[kind] = kinds.get(kind, 0) + n
    assert accepted | more == CONFIG_ACCEPTED, (
        sorted((accepted | more) - CONFIG_ACCEPTED), sorted(CONFIG_ACCEPTED - (accepted | more)))
    assert kinds == CONFIG_ERROR_KINDS


# the flag half: each numeric flag of a command, one at a time, at each value,
# passed as the literal string a shell would pass
FLAG_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e30", "x")
# (a zero ridge penalty is singular on the two-instance dataset: a ConfigError)
FLAGS_ACCEPTED = {
    "gen --seed 0", "train --lr 1e30", "train --seed 0", "eval --seed 0",
    "eval --gate-override 0", "ablate --seed 0", "probe --ridge-lambda 1e30", "probe --seed 0",
    *(f"sdf {flag} {value}" for flag in ("--alpha", "--beta") for value in ("0", "-1", "1e30")),
}


def _flag_cases(tmp_path):
    """``(command, base flags, numeric flags)`` of every command with numeric flags."""
    config, data = _gen(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    train = {"--data": data, "--out": ckpt, "--config": config, "--steps": 1, "--batch": 1}
    assert main(["train", *(str(x) for kv in train.items() for x in kv)]) == 0
    analysis = {"--ckpt": ckpt, "--data": data, "--out": tmp_path / "out"}
    return [
        ("gen", {"--out": tmp_path / "gen", "--n": 2, "--config": config},
         ("--n", "--seed", "--size")),
        ("train", train, ("--steps", "--batch", "--lr", "--seed")),
        ("eval", analysis, ("--seed", "--threshold", "--gate-override")),
        ("ablate", {**analysis, "--out": tmp_path / "ablate.csv"}, ("--seed", "--threshold")),
        ("probe", analysis, ("--ridge-lambda", "--test-frac", "--seed")),
        ("sdf", {"--mask": data / "vis_000000.pgm", "--out": tmp_path / "sdf"},
         ("--alpha", "--beta")),
    ]


def test_every_numeric_flag_value_ends_in_exit_0_one_error_line_or_usage(tmp_path, capsys):
    accepted = set()
    for command, base, flags in _flag_cases(tmp_path):
        for flag in flags:
            for value in FLAG_VALUES:
                name = f"{command} {flag} {value}"
                argv = [command, *(str(x) for kv in {**base, flag: value}.items() for x in kv)]
                capsys.readouterr()
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
                lines = capsys.readouterr().err.splitlines()
                if code == 0:
                    assert not lines, (name, lines)
                    accepted.add(name)
                elif code == 1:
                    assert len(lines) == 1 and ONE_ERROR_LINE.match(lines[0]), (name, lines)
                else:
                    assert code == 2 and "usage:" in lines[0], (name, code, lines)
    assert accepted == FLAGS_ACCEPTED, (sorted(accepted - FLAGS_ACCEPTED),
                                        sorted(FLAGS_ACCEPTED - accepted))
