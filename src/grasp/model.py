"""The occlusion-aware token model.

Pipeline per instance (image plus a visible-mask estimate):

1.  encode: the image is split into patches; each patch vector runs
    through four frozen random-init MLP blocks whose outputs are
    concatenated and linearly projected to the working width.  Frozen
    means frozen: those blocks never receive gradient.
2.  vm_encode_fuse: the visible mask becomes per-patch tokens
    (occupancy fraction plus normalized patch-center coordinates
    through a small MLP) and is fused into the image tokens by
    cross-attention, scaled by a learnable scalar that starts at zero,
    so an untrained model ignores the mask entirely.
3.  spm: the fused tokens query a bank of learnable shape prototypes
    with multi-head cross-attention; the output is a soft mixture of
    prototypes (never a hard selection).  The residual between that
    mixture and the fused tokens is the candidate correction.
4.  gate: each token's correction is scaled by a sigmoid gate over the
    token's pooled, diagonal-normalized signed distance to the visible
    mask.  The gate has exactly two trainable scalars: a slope and a
    bias.  Deeply occluded tokens (positive distance) can therefore
    receive a stronger prior than tokens squarely on visible evidence.
5.  decode: a shared per-token trunk splits into an occluded branch
    and an amodal branch.  The occluded head reads the occluded branch
    only; the amodal head reads both branches through a fusion layer,
    so occlusion evidence flows into amodal completion but never the
    reverse.

An evaluation-time gate override can pin the gate to a constant; 0 and
1 are applied algebraically (identically recovering the fused tokens
or the prototype mixture) so ablations are exact.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import (ConfigError, DimensionError, IntegrityError, check_fields, config_from_dict,
                     parse_json_object)
from .geometry import BinaryMask, pool_to_grid, sdf
from .seeding import derive_seed
from .synthdata import MAX_SCENE_SIZE
from .tensor import AttentionParams, Tensor

CHECKPOINT_FORMAT = "grasp-ckpt-v1"

# Most parameters a layout may hold: one float64 buffer of them is 128 MiB,
# and training keeps six such buffers (values, gradients, two AdamW moments
# and two scratch arrays).
MAX_PARAMETERS = 2**24


@dataclass(frozen=True)
class GraspConfig:
    image_size: int = 64
    patch: int = 8
    dim: int = 64
    heads: int = 4
    n_prototypes: int = 32
    vm_hidden: int = 32
    decoder_hidden: int = 64
    sdf_query_mod: bool = False
    gate_override: Optional[float] = None

    def __post_init__(self):
        if self.patch < 1:
            raise ConfigError(f"patch {self.patch} must be positive")
        # no scene is larger, and per-token arrays are sized by it
        if self.image_size > MAX_SCENE_SIZE:
            raise ConfigError(f"image size {self.image_size} exceeds the scene ceiling "
                              f"{MAX_SCENE_SIZE}")
        if self.image_size < self.patch or self.image_size % self.patch:
            raise ConfigError(
                f"patch {self.patch} does not divide image size {self.image_size}"
            )
        if self.dim < 1 or self.heads < 1 or self.dim % self.heads:
            raise ConfigError(f"head count {self.heads} does not divide width {self.dim}")
        if self.n_prototypes < 1:
            raise ConfigError("prototype bank must be nonempty")
        if self.vm_hidden < 1 or self.decoder_hidden < 1:
            raise ConfigError("hidden widths must be positive")
        _check_gate_override(self.gate_override)
        # every width is at least one row's size, so checking the widths first
        # keeps numbers past any array size out of the layout
        widths = (self.patch_dim, self.dim, self.n_prototypes, self.vm_hidden,
                  self.decoder_hidden)
        if (max(widths) > MAX_PARAMETERS
                or param_count(self) > MAX_PARAMETERS):
            raise ConfigError(f"a layout of widths (patch_dim, dim, n_prototypes, vm_hidden, "
                              f"decoder_hidden) = {widths} exceeds the ceiling of "
                              f"{MAX_PARAMETERS} parameters")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GraspConfig":
        return config_from_dict(cls, d)


def _check_gate_override(value) -> None:
    """A gate override is None or a finite constant in [0, 1]; a bool is neither."""
    if value is not None and (isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and 0.0 <= value <= 1.0)):
        raise ConfigError(f"gate override {value!r} is not None or a number in [0, 1]")


def gate_of(alpha, beta, distance):
    """The reliability gate sigmoid(alpha * distance + beta).

    Taped when any operand is a Tensor, on plain arrays otherwise.
    """
    return T.sigmoid(T.add(T.mul(alpha, distance), beta))


N_FROZEN_BLOCKS = 4


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, for losses and analysis.

    The fields typed Tensor are plain arrays in a trace of an untaped model.
    """

    tokens: Tensor  # encoded image tokens
    fused: Tensor  # image tokens after mask fusion
    prior: Tensor  # prototype mixture
    residual: Tensor  # prior - fused
    sdf_tokens: np.ndarray  # pooled normalized signed distance per token
    proto_attn: np.ndarray  # (heads, tokens, n_prototypes)
    # the tail after the gate; None until GraspModel.regate fills it
    gate: Optional[Tensor] = None  # per-token gate in (0, 1), or the override constant
    injected: Optional[Tensor] = None  # fused + gate * residual
    logits_occ: Optional[Tensor] = None  # (H, W)
    logits_amodal: Optional[Tensor] = None  # (H, W)


@dataclass(frozen=True)
class ParamRow:
    """One parameter of the layout: where it lives and how a fresh model fills it."""

    group: str
    name: str
    shape: tuple[int, ...]
    trainable: bool
    tag: Optional[str] = None  # the rng stream it is drawn from; None means zeros
    scale: float = 0.0  # the normal draw's standard deviation

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@functools.lru_cache(maxsize=32)
def param_layout(config: GraspConfig) -> tuple[ParamRow, ...]:
    """Every parameter of a model, in ``named_all`` order.

    That order is the flat buffer's and a checkpoint body's.  A fresh
    model draws the rows of one tag from one generator, in row order.
    """
    pd, dim, hid = config.patch_dim, config.dim, config.decoder_hidden
    rows = []
    for i in range(N_FROZEN_BLOCKS):
        rows += [ParamRow("frozen_encoder", f"block{i}_w", (pd, pd), False, "frozen-encoder",
                          1.0 / np.sqrt(pd)),
                 ParamRow("frozen_encoder", f"block{i}_b", (pd,), False, "frozen-encoder", 0.1)]

    def linear(group, w, b, n_in, n_out, tag):
        rows.append(ParamRow(group, w, (n_in, n_out), True, tag, 1.0 / np.sqrt(n_in)))
        rows.append(ParamRow(group, b, (n_out,), True))

    def attention(group, tag):
        rows.extend(ParamRow(group, name, (dim, dim), True, tag, 1.0 / np.sqrt(dim))
                    for name in ("wq", "wk", "wv", "wo"))

    linear("projection", "w", "b", N_FROZEN_BLOCKS * pd, dim, "projection")
    linear("vm_encoder", "w1", "b1", 3, config.vm_hidden, "vm-encoder")
    linear("vm_encoder", "w2", "b2", config.vm_hidden, dim, "vm-encoder")
    attention("vm_attention", "vm-attention")
    rows.append(ParamRow("vm_attention", "gamma", (), True))
    rows.append(ParamRow("prototypes", "bank", (config.n_prototypes, dim), True, "prototypes",
                         1.0))
    attention("spm_attention", "spm-attention")
    rows += [ParamRow("gate", "alpha", (), True), ParamRow("gate", "beta", (), True),
             ParamRow("sdf_query", "direction", (dim,), True)]
    for w, b, n_in, n_out in (("trunk_w1", "trunk_b1", dim, hid),
                              ("trunk_w2", "trunk_b2", hid, hid),
                              ("occ_w", "occ_b", hid, hid),
                              ("amodal_w", "amodal_b", hid, hid),
                              ("fuse_w", "fuse_b", 2 * hid, hid),
                              ("head_occ_w", "head_occ_b", hid, pd),
                              ("head_amodal_w", "head_amodal_b", hid, pd)):
        linear("decoder", w, b, n_in, n_out, "decoder")
    return tuple(rows)


def param_entries(config: GraspConfig) -> list[dict]:
    """A checkpoint header's ``params``: each layout row's group, name, shape and byte count."""
    return [{"group": row.group, "name": row.name, "shape": list(row.shape),
             "bytes": row.size * 8} for row in param_layout(config)]


@functools.lru_cache(maxsize=32)
def param_count(config: GraspConfig) -> int:
    """Scalars in ``param_layout(config)``, frozen rows included: the buffer's length."""
    return sum(row.size for row in param_layout(config))


class GraspParams:
    """All parameters, keyed by layout group and name for reporting and serialization.

    ``groups`` holds every ``param_layout`` row, in the layout's order:
    the frozen blocks first, as the group ``frozen_encoder``, then the
    trainables.  Every parameter's values live in one float64 buffer,
    ``values``, and each ``Tensor.data`` is a view into it; the frozen
    views are read-only and carry no gradient.  Each trainable's
    ``Tensor.grad`` is a view into ``grads``, laid out as the trainable
    tail of ``values``.  ``values`` is such a buffer already filled, as
    read from a checkpoint; without it every row is drawn from its
    initializer.
    """

    def __init__(self, config: GraspConfig, seed: int, values: np.ndarray | None = None):
        if seed < 0:
            raise ConfigError(f"model seed {seed} must be >= 0")
        self.seed = int(seed)
        self.layout = param_layout(config)
        n_frozen = sum(row.size for row in self.layout if not row.trainable)
        fresh = values is None
        self.values = np.zeros(param_count(config)) if fresh else values
        self.grads = np.zeros(self.values.size - n_frozen)
        self.groups: dict[str, dict[str, Tensor]] = {}
        rngs = {}
        end = 0
        for row in self.layout:
            start, end = end, end + row.size
            if fresh and row.tag is not None:
                if row.tag not in rngs:
                    rngs[row.tag] = np.random.default_rng(derive_seed(seed, row.tag))
                self.values[start:end] = rngs[row.tag].normal(0.0, row.scale, row.size)
            grad = (self.grads[start - n_frozen:end - n_frozen].reshape(row.shape)
                    if row.trainable else None)
            self.groups.setdefault(row.group, {})[row.name] = Tensor._wrap(
                self.values[start:end].reshape(row.shape), row.trainable, grad=grad)

    def named_all(self):
        """``(group, name, parameter)`` for every layout row, in the layout's order."""
        for group, tensors in self.groups.items():
            for name, t in tensors.items():
                yield group, name, t

    def named_trainable(self):
        return (item for row, item in zip(self.layout, self.named_all()) if row.trainable)

    def trainable(self):
        return [t for _, _, t in self.named_trainable()]

    def arrays(self) -> "GraspParams":
        """The same parameters as their own arrays, in the same groups; nothing is copied."""
        view = copy.copy(self)
        view.groups = {group: {name: T.array_of(t) for name, t in tensors.items()}
                       for group, tensors in self.groups.items()}
        return view


class GraspModel:
    def __init__(self, config: GraspConfig, seed: int = 0, params: GraspParams | None = None):
        self.config = config
        self.params = params if params is not None else GraspParams(config, seed)

    def untaped(self) -> "GraspModel":
        """This model over its parameters' arrays, for inference.

        Every stage then runs on plain arrays and returns them: no Tensor,
        pullback or tape is built, and each value is bit-equal to the
        taped model's.  The arrays are shared, so later parameter updates
        show through.
        """
        return GraspModel(self.config, params=self.params.arrays())

    # -- stages ---------------------------------------------------------

    def encode(self, image: np.ndarray) -> Tensor:
        """Image -> (tokens, dim) through the frozen blocks and projection."""
        cfg = self.config
        if image.shape != (cfg.image_size, cfg.image_size):
            raise DimensionError(
                f"image shape {image.shape} != configured {cfg.image_size}x{cfg.image_size}"
            )
        feats = []
        h = T.patchify(image, cfg.patch)
        frozen = self.params.groups["frozen_encoder"]
        for i in range(N_FROZEN_BLOCKS):
            h = T.dense(h, frozen[f"block{i}_w"], frozen[f"block{i}_b"], "tanh")
            feats.append(h)
        stacked = T.concat(feats, axis=1)
        proj = self.params.groups["projection"]
        return T.dense(stacked, proj["w"], proj["b"])

    def vm_encode_fuse(self, tokens: Tensor, visible: BinaryMask) -> Tensor:
        """Fuse mask evidence into image tokens, scaled by the zero-init scalar.

        The mask tokens are each patch's occupancy and center through an MLP.
        """
        cfg = self.config
        occ = T.patchify(visible.a.astype(np.float64), cfg.patch).mean(axis=1)
        g = cfg.grid
        ty, tx = np.divmod(np.arange(cfg.tokens), g)
        feats = np.stack([occ, (ty + 0.5) / g, (tx + 0.5) / g], axis=1)
        p = self.params.groups["vm_encoder"]
        mask_tokens = T.dense(T.dense(feats, p["w1"], p["b1"], "relu"), p["w2"], p["b2"])
        p = self.params.groups["vm_attention"]
        attn_params = AttentionParams(p["wq"], p["wk"], p["wv"], p["wo"])
        mixed, _ = T.multihead_cross_attention(tokens, mask_tokens, mask_tokens, attn_params,
                                               cfg.heads)
        return T.add(tokens, T.mul(p["gamma"], mixed))

    def sdf_tokens(self, visible: BinaryMask) -> np.ndarray:
        """Pooled, diagonal-normalized signed distance per token."""
        cfg = self.config
        if visible.shape != (cfg.image_size, cfg.image_size):
            raise DimensionError(
                f"mask shape {visible.shape} != configured {cfg.image_size}x{cfg.image_size}"
            )
        return pool_to_grid(sdf(visible), cfg.grid, cfg.grid)

    def spm(self, fused: Tensor, sdf_tok: np.ndarray):
        """Query the prototype bank; returns (prior, residual, attention)."""
        cfg = self.config
        queries = fused
        if cfg.sdf_query_mod:
            d = self.params.groups["sdf_query"]["direction"]
            ray = T.add_rowvec(np.zeros((cfg.tokens, cfg.dim)), d)
            queries = T.add(fused, T.scale_rows(ray, sdf_tok))
        p = self.params.groups["spm_attention"]
        bank = self.params.groups["prototypes"]["bank"]
        attn_params = AttentionParams(p["wq"], p["wk"], p["wv"], p["wo"])
        prior, attn = T.multihead_cross_attention(queries, bank, bank, attn_params, cfg.heads)
        residual = T.sub(prior, fused)
        return prior, residual, attn

    def gate(self, sdf_tok: np.ndarray, gate_override: Optional[float] = None) -> Tensor:
        """The per-token gate a pass applies under a checked ``gate_override``.

        That is the learned sigmoid over normalized signed distance, or
        the override's constant: a Tensor when the model is taped, a
        plain array otherwise.
        """
        g = self.params.groups["gate"]
        if gate_override is None:
            return gate_of(g["alpha"], g["beta"], sdf_tok)
        constant = np.full(sdf_tok.shape[0], float(gate_override))
        return Tensor(constant) if isinstance(g["alpha"], Tensor) else constant

    def inject(self, fused: Tensor, prior: Tensor, residual: Tensor, gate: Tensor,
               gate_override: Optional[float]) -> Tensor:
        """Blend the prototype residual into the fused tokens.

        Overrides 0 and 1 short-circuit to their algebraic identities
        (fused tokens and prior, respectively), so ablations compare
        bit-identical quantities rather than reconstructed ones.
        """
        if gate_override == 0.0:
            return fused
        if gate_override == 1.0:
            return prior
        return T.add(fused, T.scale_rows(residual, gate))

    def decode_branches(self, injected: Tensor):
        """Shared trunk, then the occluded and amodal branch features."""
        d = self.params.groups["decoder"]
        h = T.dense(injected, d["trunk_w1"], d["trunk_b1"], "relu")
        h = T.dense(h, d["trunk_w2"], d["trunk_b2"], "relu")
        occ = T.dense(h, d["occ_w"], d["occ_b"], "relu")
        amodal = T.dense(h, d["amodal_w"], d["amodal_b"], "relu")
        return occ, amodal

    def heads_from_branches(self, occ_branch: Tensor, amodal_branch: Tensor):
        """Token logits -> full-resolution logit images.

        The occluded head sees the occluded branch only.  The amodal
        head sees [amodal; occluded] through the fusion layer, so the
        information flow is strictly occluded -> amodal.
        """
        cfg = self.config
        d = self.params.groups["decoder"]
        occ_tok = T.dense(occ_branch, d["head_occ_w"], d["head_occ_b"])
        both = T.concat([amodal_branch, occ_branch], axis=1)
        fused = T.dense(both, d["fuse_w"], d["fuse_b"], "relu")
        amo_tok = T.dense(fused, d["head_amodal_w"], d["head_amodal_b"])
        g, p = cfg.grid, cfg.patch
        return (
            T.depatchify(occ_tok, g, g, p),
            T.depatchify(amo_tok, g, g, p),
        )

    def prefix(self, tokens: Tensor, visible: BinaryMask) -> ForwardTrace:
        """Everything before the gate, from encoded image tokens and a visible mask."""
        sdf_tok = self.sdf_tokens(visible)
        fused = self.vm_encode_fuse(tokens, visible)
        prior, residual, attn = self.spm(fused, sdf_tok)
        return ForwardTrace(tokens=tokens, fused=fused, prior=prior, residual=residual,
                            sdf_tokens=sdf_tok, proto_attn=T.array_of(attn))

    def forward(self, image: np.ndarray, visible: BinaryMask,
                gate_override: Optional[float] = "config") -> ForwardTrace:
        """Run the full pipeline; override defaults to the configured one."""
        return self.regate(self.prefix(self.encode(image), visible), gate_override)

    def resolve_override(self, gate_override: Optional[float] = "config") -> Optional[float]:
        """The checked override a pass applies; "config" means the configured one."""
        if gate_override == "config":
            gate_override = self.config.gate_override
        _check_gate_override(gate_override)
        return gate_override

    def regate(self, trace: ForwardTrace,
               gate_override: Optional[float] = "config") -> ForwardTrace:
        """Gate, inject and decode from a trace's prefix; returns the complete trace.

        Nothing before the gate depends on the override, so re-gating a
        trace equals a fresh ``forward`` under the new override bit for bit.
        """
        gate_override = self.resolve_override(gate_override)
        gate = self.gate(trace.sdf_tokens, gate_override)
        injected = self.inject(trace.fused, trace.prior, trace.residual, gate, gate_override)
        occ_branch, amodal_branch = self.decode_branches(injected)
        logits_occ, logits_amodal = self.heads_from_branches(occ_branch, amodal_branch)
        return replace(trace, gate=gate, injected=injected, logits_occ=logits_occ,
                       logits_amodal=logits_amodal)

    # -- reporting -------------------------------------------------------

    def count_params(self) -> dict[str, int]:
        """Trainable scalars per layout group, plus the frozen encoder for reference."""
        counts, total = {}, 0
        for row in param_layout(self.config):
            key = row.group if row.trainable else f"{row.group} (not trained)"
            counts[key] = counts.get(key, 0) + row.size
            total += row.size if row.trainable else 0
        counts["total_trainable"] = total
        return counts


def save_checkpoint(path, model: GraspModel, step: int = 0, extra: dict | None = None) -> None:
    """JSON header line, then the parameter buffer as raw little-endian float64.

    The header's ``params`` is ``param_entries(model.config)``: one entry
    per layout row, in the layout's order, which is the body's order.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "seed": model.params.seed,
        "step": int(step),
        "params": param_entries(model.config),
    }
    if extra:
        header["extra"] = extra
    # write a sibling file and rename it over ``path``: a write that fails
    # leaves the previous checkpoint whole (durability across power loss is
    # out of scope, as that would need an fsync)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(model.params.values.astype("<f8", copy=False))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_HEADER_FIELDS = {"config": dict, "seed": int, "step": int, "params": list}
_CONFIG_FIELDS = frozenset(f.name for f in fields(GraspConfig))


def _json_text(value) -> str:
    """``value`` as canonical JSON text: equal only if equal in type too (``8.0`` is not ``8``)."""
    return json.dumps(value, sort_keys=True)


@functools.lru_cache(maxsize=32)
def _entries_text(config: GraspConfig) -> str:
    """``param_entries(config)`` as JSON text, built once per config rather than per load."""
    return _json_text(param_entries(config))


def load_checkpoint(path) -> tuple[GraspModel, int]:
    """Read a checkpoint whose ``params`` is exactly ``param_entries`` of its config.

    The body is read in one block straight into the new model's
    parameter buffer; nothing is drawn at random.
    """
    with open(path, "rb") as fh:
        header = parse_json_object(fh.readline(), f"{path}: checkpoint header", IntegrityError)
        if header.get("format") != CHECKPOINT_FORMAT:
            raise IntegrityError(f"{path}: unknown checkpoint format {header.get('format')!r}")
        check_fields(header, _HEADER_FIELDS, f"{path}: checkpoint header", IntegrityError,
                     others=("format", "extra"))
        for key in ("seed", "step"):
            if header[key] < 0:
                raise IntegrityError(f"{path}: checkpoint {key} {header[key]} must be >= 0")
        if not isinstance(header.get("extra", {}), dict):
            raise IntegrityError(f"{path}: checkpoint header field 'extra' is not an object")
        # a missing field would load as its default, a model other than the one saved
        absent = sorted(_CONFIG_FIELDS - set(header["config"]))
        if absent:
            raise IntegrityError(f"{path}: checkpoint config lacks fields {absent}")
        config = GraspConfig.from_dict(header["config"])
        stored = header["params"]
        if _json_text(stored) != _entries_text(config):
            entries = param_entries(config)
            # past the shorter list's end, the two differ by length alone
            i = next((i for i, (got, want) in enumerate(zip(stored, entries))
                      if _json_text(got) != _json_text(want)), min(len(stored), len(entries)))
            got = _json_text(stored[i]) if i < len(stored) else "absent"
            want = _json_text(entries[i]) if i < len(entries) else "no entry"
            raise IntegrityError(f"{path}: parameter entry {i} is {got}; the layout's is {want}")
        # the body must fill the rest of the file: checked before anything is allocated
        nbytes = 8 * param_count(config)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < nbytes:
            raise IntegrityError(f"{path}: truncated parameter body")
        if left > nbytes:
            raise IntegrityError(f"{path}: trailing bytes after the last parameter block")
        values = np.empty(nbytes // 8, dtype="<f8")
        if fh.readinto(values) != nbytes:
            raise IntegrityError(f"{path}: truncated parameter body")
    values = values.astype(np.float64, copy=False)  # a no-op on a little-endian host
    # one check over the whole buffer: a NaN or infinite parameter is corrupt data
    if not np.isfinite(values).all():
        raise IntegrityError(f"{path}: non-finite parameter value")
    params = GraspParams(config, header["seed"], values)
    return GraspModel(config, params=params), header["step"]
