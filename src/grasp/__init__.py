"""Desk-scale amodal segmentation with gated shape-prototype injection."""

__version__ = "0.1.0"

from .geometry import BinaryMask, SdfField, edt_sq, iou, pool_to_grid, sdf
from .model import ForwardTrace, GraspConfig, GraspModel, load_checkpoint, save_checkpoint
from .synthdata import (
    SceneConfig,
    SceneInstance,
    generate_dataset,
    generate_scene,
    perturb_vm,
    read_dataset,
    training_vm,
    write_dataset,
)
from .tensor import Tensor, multihead_cross_attention
from .training import LossBreakdown, TrainConfig, total_loss, train

__all__ = [
    "__version__",
    "BinaryMask",
    "SdfField",
    "edt_sq",
    "iou",
    "pool_to_grid",
    "sdf",
    "ForwardTrace",
    "GraspConfig",
    "GraspModel",
    "load_checkpoint",
    "save_checkpoint",
    "SceneConfig",
    "SceneInstance",
    "generate_dataset",
    "generate_scene",
    "perturb_vm",
    "read_dataset",
    "training_vm",
    "write_dataset",
    "Tensor",
    "multihead_cross_attention",
    "LossBreakdown",
    "TrainConfig",
    "total_loss",
    "train",
]
