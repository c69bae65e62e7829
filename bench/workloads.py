"""Inputs, requests, output checks and metrics of the workloads.

Every workload is one client in a closed loop: it issues the next
request only when the previous one has returned, in one process.  A
request is one thing a user asks of the library:

- train:  ``training.train`` for ``TRAIN_STEPS`` batch-8 AdamW steps from
          a fresh ``GraspModel`` over the in-memory training pool;
- infer:  one inference question about one held-out instance (two for
          ``probe_report``, which holds one out; every timed instance for
          ``predict``, which is short), in rotation:
          ``evalkit.predict``, ``evaluate`` (standard and two-pass),
          ``ablate``, ``probe_report``, and ``gate_stats`` plus
          ``attention_stats``; each question walks the ``TIMED`` instances;
- io:     ``grasp gen`` of a train and a test dataset, ``read_dataset``
          of both, and checkpoint round trips of the default model; the
          requests walk ``IO_SETS`` dataset pairs, each written to its own
          pair of directories.

Every end-to-end metric is reported on every workload, so every run
issues every kind of request.  The workload names the kind that gets
``OWN_SHARE`` (half) of the run's time; the other two kinds get a
quarter each, there only so that their metrics can be reported.  Later
set-ups on the same seed are spread evenly over the measured window.

Timings are kept per input (a step index, a held-out instance, a
dataset pair, a round trip), and every input recurs many times in a run,
interleaved with the other kinds.  A latency's p50 and p90 are over every
repeat of every input; a rate is the instances of all inputs over the sum
of their median times.  The README explains the choices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict

import grasp.cli
import grasp.evalkit
import grasp.model
import grasp.probe
import grasp.synthdata
import grasp.training
from grasp.model import GraspConfig, GraspModel
from grasp.seeding import derive_seed
from grasp.training import TrainConfig

import tracing

WORKLOADS = ("train", "infer")  # io-heavy mix dropped for run length; see README

POOL = 64  # training pool, default 64x64 scenes
HELD_OUT = 256  # held-out instances; eval.full_miou is measured over all of them
TIMED = 4  # held-out instances the timed inference questions walk
IO_SETS = 4  # dataset pairs the io requests walk
IO_TRAIN, IO_TEST = 32, 8  # instances per generated dataset directory
TRAIN_STEPS = 4  # fixed per request, so the loss history is deterministic
LOSS_TAIL = 2  # train.loss_final averages the last steps of a request
CKPT_ROUNDTRIPS = 8  # save+load pairs per checkpoint request
SETUP_REPEATS = 9  # setup_s is the median of this many set-ups
OWN_SHARE = 1 / 2  # share of measured time spent on the workload's own kind

# name -> unit, for the metrics reported with tracing off
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "train.step_ms.p50": "ms",
    "train.step_ms.p90": "ms",
    "train.loss_final": "loss",
    "predict.ms.p50": "ms",
    "predict.ms.p90": "ms",
    "eval.instances_per_s": "1/s",
    "eval_two_pass.instances_per_s": "1/s",
    "ablate.instances_per_s": "1/s",
    "probe.instances_per_s": "1/s",
    "stats.instances_per_s": "1/s",
    "eval.full_miou": "IoU",
    "gen.instances_per_s": "1/s",
    "dataset_read.instances_per_s": "1/s",
    "ckpt_roundtrip.ms.p50": "ms",
}

INFER_KINDS = ("predict", "eval", "two_pass", "ablate", "probe", "stats")


def window_size(kind: str) -> int:
    """Held-out instances per inference request.

    probe_report needs two, to hold one out; a predict request walks every
    timed instance, because one predict is short.
    """
    return {"probe": 2, "predict": TIMED}.get(kind, 1)


class Inputs:
    """Everything a run feeds the library, derived from the workload seed alone."""

    def __init__(self, seed: int):
        def sub(*tags):
            return derive_seed(seed, "bench", *tags) % 2**31

        # The model is initialised and trained as `grasp train` does by default,
        # with seed 0 for both; the workload seed picks the data.  Seeding them
        # from the workload seed as well made eval.full_miou's quartile spread
        # over ten seeds 7-14%, against 2-4% this way.
        self.train_config = TrainConfig(steps=TRAIN_STEPS)
        self.model_seed = self.train_config.seed
        self.eval_seed = sub("eval")
        self.pool = grasp.synthdata.generate_dataset(POOL, sub("pool"))
        self.held_out = grasp.synthdata.generate_dataset(HELD_OUT, sub("held-out"))
        # the masks evaluate(protocol="standard") would feed the timed instances, made
        # here so that predict.ms times the forward pass and thresholding only
        self.vm_inputs = [
            grasp.synthdata.perturb_vm(inst.visible, derive_seed(self.eval_seed, "eval-vm", i))
            for i, inst in enumerate(self.held_out[:TIMED])
        ]
        self.io_seeds = [(sub("io-train", k), sub("io-test", k)) for k in range(IO_SETS)]
        self.io_expected = [
            [grasp.synthdata.generate_dataset(n, s) for n, s in zip((IO_TRAIN, IO_TEST), seeds)]
            for seeds in self.io_seeds
        ]

    def digest(self) -> str:
        """A hash of every generated input; equal seeds give equal digests."""
        h = hashlib.sha256()
        h.update(repr((self.model_seed, self.eval_seed, self.train_config, self.io_seeds)).encode())
        for group in (self.pool, self.held_out, *(d for pair in self.io_expected for d in pair)):
            for inst in group:
                h.update(inst.image.tobytes())
                h.update(inst.visible.a.tobytes())
                h.update(inst.amodal.a.tobytes())
        for mask in self.vm_inputs:
            h.update(mask.a.tobytes())
        return h.hexdigest()


def params_bit_equal(a: GraspModel, b: GraspModel) -> bool:
    pa = [(g, n, t.data.shape, t.data.tobytes()) for g, n, t in a.params.named_all()]
    pb = [(g, n, t.data.shape, t.data.tobytes()) for g, n, t in b.params.named_all()]
    return a.config == b.config and pa == pb


def history_bits(history) -> list:
    return [[float(row[k]).hex() for k in ("lr", *grasp.training.LossBreakdown.FIELDS)]
            for row in history]


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of at least one value, by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


class Run:
    """One workload run: its inputs, the requests it issued, and what they measured."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; want one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failures = []  # {"request": id, "problems": [...]}
        # metric -> input key -> seconds for each repeat of that input
        self.samples = defaultdict(lambda: defaultdict(list))
        self.request_s = defaultdict(list)  # request kind -> wall seconds per request
        self.answers = {}  # (request kind, input key) -> first answer, for determinism checks
        self.cursor = defaultdict(int)  # request kind -> next input key
        self.io_set = 0  # the dataset pair the last gen request wrote
        self.step_stamps = []
        self.setup_s = []
        self.extra = {}

    # -- set-up ---------------------------------------------------------

    def _set_up(self):
        """One timed set-up: generate the inputs, train the checkpoint, save and load it."""
        t0 = time.perf_counter()
        inputs = Inputs(self.seed)
        model = GraspModel(GraspConfig(), seed=inputs.model_seed)
        result = grasp.training.train(model, inputs.pool, inputs.train_config)
        ckpt = os.path.join(self.workdir, "setup.ckpt")
        grasp.model.save_checkpoint(ckpt, model, step=result.steps)
        trained, _ = grasp.model.load_checkpoint(ckpt)
        self.setup_s.append(time.perf_counter() - t0)
        return inputs, trained, result.history

    def setup(self):
        """The first set-up, whose inputs and checkpoint the requests use."""
        self.inputs, self.trained, self.reference = self._set_up()
        self.default_model = GraspModel(GraspConfig(), seed=self.inputs.model_seed)
        tail = [row["total"] for row in self.reference[-LOSS_TAIL:]]
        self.loss_final = sum(tail) / len(tail)
        self.request("quality", self.quality)

    def setup_again(self):
        """A later set-up on the same seed, for setup_s.

        It must train bit-identical losses and parameters, which is the
        train.loss_final reproducibility check.
        """
        _, trained, history = self._set_up()
        problems = self._history_problems(history)
        if not params_bit_equal(trained, self.trained):
            problems.append("set-up checkpoint differs between repeats on one seed")
        return problems

    @contextlib.contextmanager
    def step_clock(self):
        """Timestamp each training step from the caller side.

        ``training.train`` calls ``cosine_lr`` once at the top of every step,
        so consecutive calls bound a step.  A traced run also opens the
        step's span there.
        """
        cosine_lr = grasp.training.cosine_lr

        def stamped(step, total_steps, lr0):
            self.step_stamps.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.begin_step(step)
            return cosine_lr(step, total_steps, lr0)

        grasp.training.cosine_lr = stamped
        try:
            yield
        finally:
            grasp.training.cosine_lr = cosine_lr

    @contextlib.contextmanager
    def traced(self, tracer):
        """Record spans of every request issued inside the block."""
        self.tracer = tracer
        for i, (inst, v) in enumerate(zip(self.inputs.held_out, self.inputs.vm_inputs)):
            for obj in (inst.image, inst.visible, inst.amodal, v):
                tracer.instance_of[id(obj)] = i
        tracing.install(tracer)
        try:
            yield
        finally:
            tracer.restore()
            self.tracer = None

    def _history_problems(self, history) -> list:
        problems = []
        if not all(math.isfinite(row[k]) for row in history
                   for k in grasp.training.LossBreakdown.FIELDS):
            problems.append("non-finite training loss")
        if history_bits(history) != history_bits(self.reference):
            problems.append("loss history differs from the set-up run on the same seed")
        return problems

    # -- requests -------------------------------------------------------

    def request(self, kind: str, fn):
        """Issue one request; an exception or a failed check marks it failed."""
        self.attempted += 1
        rid = f"{kind}#{self.attempted}"
        span = self.tracer.open("request." + kind, rid) if self.tracer else None
        t0 = time.perf_counter()
        try:
            problems = fn()
        except Exception as exc:  # a benchmark must report, not die, when the program fails
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            if span is not None:
                self.tracer.close(span)
        self.request_s[kind].append(time.perf_counter() - t0)
        if problems:
            self.failures.append({"request": rid, "problems": problems})

    def _same_answer(self, key, answer) -> list:
        first = self.answers.setdefault(key, answer)
        return [] if answer == first else [f"{key} answered differently on a repeat"]

    def _next(self, kind, n):
        """The input key (0 .. n-1) this request of ``kind`` works on; keys rotate."""
        k = self.cursor[kind] % n
        self.cursor[kind] += 1
        return k

    def _timed(self, metric, key, fn, clock=time.perf_counter):
        t0 = clock()
        out = fn()
        self.samples[metric][key].append(clock() - t0)
        return out

    def train(self):
        model = GraspModel(GraspConfig(), seed=self.inputs.model_seed)
        self.step_stamps = []
        result = grasp.training.train(model, self.inputs.pool, self.inputs.train_config)
        edges = self.step_stamps + [time.perf_counter()]
        for step, (a, b) in enumerate(zip(edges, edges[1:])):
            self.samples["train.step_ms"][step].append(b - a)
        problems = self._history_problems(result.history)
        if len(self.step_stamps) != TRAIN_STEPS:
            problems.append(f"saw {len(self.step_stamps)} step boundaries, not {TRAIN_STEPS}")
        return problems

    def quality(self):
        """eval.full_miou: evaluate(protocol="standard") over the whole held-out set, untimed."""
        report = grasp.evalkit.evaluate(self.trained, self.inputs.held_out, "standard",
                                        eval_seed=self.inputs.eval_seed)
        rows = [r["full_iou"] for r in report.rows]
        self.extra["eval.full_miou"] = report.full_miou
        if len(rows) == len(self.inputs.held_out) and math.isclose(
                report.full_miou, sum(rows) / len(rows), rel_tol=1e-12, abs_tol=0.0):
            return []
        return [f"full_miou {report.full_miou!r} is not the mean of the rows' full_iou"]

    def _window(self, kind):
        size = window_size(kind)
        k = self._next(kind, TIMED // size)
        return k, self.inputs.held_out[k * size:(k + 1) * size]

    def predict(self):
        problems = []
        for k in range(TIMED):
            amodal, occluded, _ = self._timed("predict.ms", k, lambda: grasp.evalkit.predict(
                self.trained, self.inputs.held_out[k].image, self.inputs.vm_inputs[k]))
            problems += self._same_answer(("predict", k), amodal.a.tobytes() + occluded.a.tobytes())
        return problems

    def _evaluate(self, window, **kwargs):
        return grasp.evalkit.evaluate(self.trained, window, "standard",
                                      eval_seed=self.inputs.eval_seed, **kwargs)

    def eval(self):
        k, window = self._window("eval")
        report = self._timed("eval.instances_per_s", k, lambda: self._evaluate(window))
        return self._same_answer(("eval", k), (report.full_miou, report.occ_miou))

    def two_pass(self):
        k, window = self._window("two_pass")
        report = self._timed("eval_two_pass.instances_per_s", k,
                             lambda: self._evaluate(window, use_two_pass=True))
        return self._same_answer(("two_pass", k), (report.full_miou, report.occ_miou))

    def ablate(self):
        k, window = self._window("ablate")
        reports = self._timed("ablate.instances_per_s", k, lambda: grasp.evalkit.ablate(
            self.trained, window, "standard", eval_seed=self.inputs.eval_seed))
        answer = [(o, r.full_miou, r.occ_miou) for o, r in reports]
        problems = []
        if [o for o, _, _ in answer] != [None, 0.0, 0.5, 1.0]:
            problems.append(f"ablate returned overrides {[o for o, _, _ in answer]}")
        learned = self.answers.get(("eval", k))
        if learned is not None and answer and not math.isclose(
                answer[0][1], learned[0], rel_tol=1e-9, abs_tol=0.0):
            problems.append("ablate's learned-gate mIoU differs from evaluate's")
        return problems + self._same_answer(("ablate", k), answer)

    def probe(self):
        k, window = self._window("probe")
        report = self._timed("probe.instances_per_s", k, lambda: grasp.probe.probe_report(
            self.trained, window, seed=self.inputs.eval_seed))
        answer = {p: (v["r2"], v["sign_accuracy"]) for p, v in report["results"].items()}
        problems = [] if len(answer) == 3 else [f"probe fit {sorted(answer)}, not 3 positions"]
        return problems + self._same_answer(("probe", k), answer)

    def stats(self):
        k, window = self._window("stats")
        gate, attention = self._timed("stats.instances_per_s", k, lambda: (
            grasp.evalkit.gate_stats(self.trained, window),
            grasp.evalkit.attention_stats(self.trained, window)))
        return self._same_answer(("stats", k), json.dumps([gate, attention], sort_keys=True))

    def _io_dirs(self, k):
        return [os.path.join(self.workdir, f"set{k}_{split}") for split in ("train", "test")]

    def gen(self):
        k = self.io_set = self._next("io", IO_SETS)
        argvs = [["gen", "--out", out, "--n", str(len(exp)), "--seed", str(seed), "--split", split]
                 for out, exp, seed, split in zip(self._io_dirs(k), self.inputs.io_expected[k],
                                                  self.inputs.io_seeds[k], ("train", "test"))]
        # CPU time, not wall time: see the README
        with contextlib.redirect_stdout(io.StringIO()):
            codes = self._timed("gen.instances_per_s", k,
                                lambda: [grasp.cli.main(argv) for argv in argvs], time.process_time)
        self.extra["synthdata.bytes_written"] = sum(
            e.stat().st_size for d in self._io_dirs(k) for e in os.scandir(d)) / (IO_TRAIN + IO_TEST)
        return [f"grasp gen exited {c}" for c in codes if c != 0]

    def read(self):
        k = self.io_set
        got = self._timed("dataset_read.instances_per_s", k, lambda: [
            grasp.synthdata.read_dataset(d)[1] for d in self._io_dirs(k)])
        for g, exp in zip(got, self.inputs.io_expected[k]):
            if len(g) != len(exp) or not all(
                    a.image.tobytes() == b.image.tobytes() and a.visible == b.visible
                    and a.amodal == b.amodal for a, b in zip(g, exp)):
                return ["read_dataset differs from what generate_dataset produced"]
        return []

    def checkpoint(self):
        path = os.path.join(self.workdir, "roundtrip.ckpt")
        problems = []
        for i in range(CKPT_ROUNDTRIPS):
            def roundtrip():
                grasp.model.save_checkpoint(path, self.default_model)
                return grasp.model.load_checkpoint(path)[0]
            if not params_bit_equal(self._timed("ckpt_roundtrip.ms", i, roundtrip),
                                    self.default_model):
                problems.append("load_checkpoint(save_checkpoint(m)) changed the parameters")
        self.extra["model.checkpoint_bytes"] = os.path.getsize(path)
        return problems

    def kinds(self) -> dict:
        return {
            "train": [("train", self.train)],
            "infer": [(k, getattr(self, k)) for k in INFER_KINDS],
            "io": [("gen", self.gen), ("read", self.read), ("ckpt", self.checkpoint)],
        }

    # -- the closed loop --------------------------------------------------

    def measure(self, seconds: float, setups: int = 0):
        """Issue requests for ``seconds``: every kind once, then by deficit against the shares.

        The next request always goes to the kind furthest below its share of
        the time spent so far.  ``setups`` further set-ups are spread evenly
        over the window, so that a slow patch of the machine hits only some.
        """
        kinds = self.kinds()
        share = {k: OWN_SHARE if k == self.workload else (1 - OWN_SHARE) / 2 for k in kinds}
        spent = dict.fromkeys(kinds, 0.0)
        cursor = dict.fromkeys(kinds, 0)
        start = time.perf_counter()
        end = start + seconds
        due = [start + seconds * (i + 0.5) / setups for i in range(setups)]

        def issue(kind):
            name, fn = kinds[kind][cursor[kind] % len(kinds[kind])]
            cursor[kind] += 1
            t0 = time.perf_counter()
            self.request(name, fn)
            spent[kind] += time.perf_counter() - t0

        for kind, requests in kinds.items():
            for _ in requests:
                issue(kind)
        while time.perf_counter() < end:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                self.request("setup", self.setup_again)
            else:
                issue(min(kinds, key=lambda k: spent[k] / share[k]))
        for _ in due:
            self.request("setup", self.setup_again)

    # -- results ----------------------------------------------------------

    def rate(self, metric) -> float:
        """Instances per second over every input, each input at its median repeat."""
        kind = metric.split(".")[0]
        items = IO_TRAIN + IO_TEST if kind in ("gen", "dataset_read") else window_size(kind)
        keys = self.samples[metric].values()
        return items * len(keys) / sum(statistics.median(repeats) for repeats in keys)

    def e2e_metrics(self) -> dict:
        """The end-to-end metrics; one whose requests all failed is left out."""
        values = {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train.loss_final": self.loss_final,
            "eval.full_miou": self.extra.get("eval.full_miou"),
        }
        for name in E2E_UNITS:
            base, _, stat = name.rpartition(".")
            if stat == "instances_per_s" and self.samples[name]:
                values[name] = self.rate(name)
            elif stat in ("p50", "p90") and self.samples[base]:
                every = [s for repeats in self.samples[base].values() for s in repeats]
                values[name] = 1e3 * quantile(every, int(stat[1:]) / 100)
        return {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()
                if values.get(k) is not None}


def trace_overhead(untraced: dict, traced: dict) -> float:
    """Traced over untraced time of the same requests.

    Both map a request name to the wall seconds of each such request; the
    ratio is of the sums, over the names in both, of their median requests.
    """
    names = [n for n in untraced if n in traced and n not in ("quality", "setup")]
    return (sum(statistics.median(traced[n]) for n in names)
            / sum(statistics.median(untraced[n]) for n in names))


# name -> unit, for the metrics reported by a traced run
LAYER_UNITS = {
    "geometry.sdf.ms": "ms",
    "geometry.edt_sq.ms": "ms",
    "geometry.sdf.share": "fraction",
    **{f"geometry.sdf.calls_per_distinct_mask.{k}": "ratio" for k in INFER_KINDS},
    "tensor.tape_nodes_per_instance": "count",
    "tensor.backward.ms": "ms",
    "tensor.backward.calls_per_step": "count",
    "tensor.backward.calls_outside_train": "count",
    "tensor.attention.ms": "ms",
    "tensor.attention.calls_per_forward": "count",
    "model.forward.ms": "ms",
    "model.forward.self_ms": "ms",
    "model.encode.ms": "ms",
    "model.vm_encode_fuse.ms": "ms",
    "model.spm.ms": "ms",
    "model.gate_inject.ms": "ms",
    "model.decode.ms": "ms",
    **{f"model.forward.calls_per_instance.{k}": "count" for k in INFER_KINDS},
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "model.checkpoint_bytes": "bytes",
    "training.total_loss.ms": "ms",
    "training.adamw_step.ms": "ms",
    "training.step.ms": "ms",
    "training.step.self_ms": "ms",
    "synthdata.training_vm.ms": "ms",
    "synthdata.perturb_vm.ms": "ms",
    "synthdata.generate_scene.ms": "ms",
    "synthdata.write_dataset.ms_per_instance": "ms",
    "synthdata.bytes_written": "bytes/instance",
    "synthdata.read_dataset.ms_per_instance": "ms",
    "pgm.write_pgm.ms": "ms",
    "pgm.read_pgm.ms": "ms",
    "pgm.write_pgm.calls_per_instance": "count",
    "pgm.read_pgm.calls_per_instance": "count",
    "evalkit.evaluate.self_ms": "ms",
    "probe.extract.ms": "ms",
    "probe.ridge_fit.ms": "ms",
    "cli.gen.self_ms": "ms",
    "trace_overhead": "ratio",
}


def layer_metrics(tracer, extra: dict, overhead: float) -> dict:
    """Per-layer metrics from a traced run's spans.

    Times are per call unless the name says per instance; stage times of
    ``model`` are self times per forward pass.
    """
    table = tracing.layer_table(tracer.spans)

    def row(name):
        return table.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    def ratio(a, b):
        return a / b if b else None

    def per_call(name, key="total_ms"):
        return ratio(row(name)[key], row(name)["calls"])

    forwards = row("model.forward")["calls"]
    fwd_by_kind = tracing.per_request_kind(tracer.spans, "model.forward", INFER_KINDS)
    sdf_by_kind = tracing.per_request_kind(tracer.spans, "geometry.sdf", INFER_KINDS)
    backward = tracing.per_request_kind(tracer.spans, "tensor.backward", ("train",))
    steps = tracing.per_request_kind(tracer.spans, "training.step", ("train",))
    roots = {i: s[tracing.NAME] for i, s in enumerate(tracer.spans)
             if s[tracing.PARENT] is None}
    distinct = {k: sum(len(m) for r, m in tracer.sdf_masks.items()
                       if roots.get(r) == "request." + k) for k in INFER_KINDS}
    written = tracer.items["synthdata.write_dataset"]
    read = tracer.items["synthdata.read_dataset"]
    nodes = set(tracer.tape_nodes.values())
    values = {
        "geometry.sdf.ms": per_call("geometry.sdf"),
        "geometry.edt_sq.ms": per_call("geometry.edt_sq"),
        "geometry.sdf.share": ratio(row("geometry.sdf")["total_ms"], row("model.forward")["total_ms"]),
        "tensor.tape_nodes_per_instance": nodes.pop() if len(nodes) == 1 else None,
        "tensor.backward.ms": per_call("tensor.backward"),
        "tensor.backward.calls_per_step": ratio(backward["train"][0], steps["train"][0]),
        "tensor.backward.calls_outside_train": row("tensor.backward")["calls"] - backward["train"][0],
        "tensor.attention.ms": per_call("tensor.attention"),
        "tensor.attention.calls_per_forward": ratio(row("tensor.attention")["calls"], forwards),
        "model.forward.ms": per_call("model.forward"),
        "model.forward.self_ms": per_call("model.forward", "self_ms"),
        "model.save_checkpoint.ms": per_call("model.save_checkpoint"),
        "model.load_checkpoint.ms": per_call("model.load_checkpoint"),
        "model.checkpoint_bytes": extra.get("model.checkpoint_bytes"),
        "training.total_loss.ms": per_call("training.total_loss"),
        "training.adamw_step.ms": per_call("training.adamw_step"),
        "training.step.ms": per_call("training.step"),
        "training.step.self_ms": per_call("training.step", "self_ms"),
        "synthdata.training_vm.ms": per_call("synthdata.training_vm"),
        "synthdata.perturb_vm.ms": per_call("synthdata.perturb_vm"),
        "synthdata.generate_scene.ms": per_call("synthdata.generate_scene"),
        "synthdata.write_dataset.ms_per_instance": ratio(row("synthdata.write_dataset")["total_ms"], written),
        "synthdata.bytes_written": extra.get("synthdata.bytes_written"),
        "synthdata.read_dataset.ms_per_instance": ratio(row("synthdata.read_dataset")["total_ms"], read),
        "pgm.write_pgm.ms": per_call("pgm.write_pgm"),
        "pgm.read_pgm.ms": per_call("pgm.read_pgm"),
        "pgm.write_pgm.calls_per_instance": ratio(row("pgm.write_pgm")["calls"], written),
        "pgm.read_pgm.calls_per_instance": ratio(row("pgm.read_pgm")["calls"], read),
        "evalkit.evaluate.self_ms": ratio(row("evalkit.evaluate")["self_ms"],
                                          tracer.items["evalkit.evaluate"]),
        "probe.extract.ms": ratio(row("probe.extract")["total_ms"], tracer.items["probe.extract"]),
        "probe.ridge_fit.ms": per_call("probe.ridge_fit"),
        "cli.gen.self_ms": per_call("cli.main", "self_ms"),
        "trace_overhead": overhead,
    }
    for stage in ("encode", "vm_encode_fuse", "spm", "gate_inject", "decode"):
        values[f"model.{stage}.ms"] = ratio(row(f"model.{stage}")["self_ms"], forwards)
    for k in INFER_KINDS:
        n_fwd, n_req = fwd_by_kind[k]
        values[f"model.forward.calls_per_instance.{k}"] = ratio(n_fwd, n_req * window_size(k))
        values[f"geometry.sdf.calls_per_distinct_mask.{k}"] = ratio(sdf_by_kind[k][0], distinct[k])
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()
            if values.get(k) is not None}
