"""Spatio-temporal transformer motion prediction toolkit."""

from .errors import ConfigError, NumericError
from .model import (
    AttentionMaps,
    ForwardStats,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    positional_encoding,
    rollout,
    rollout_batch,
    save_checkpoint,
    zero_velocity,
)
from .motiondata import (
    JointMotionSpec,
    MotionSequence,
    Skeleton,
    default_skeleton,
    load_motion,
    save_motion,
    synth_motion,
    two_frequency_spec,
)
from .tensor import Tape, Tensor, backward, finite_diff_check
from .training import TrainConfig, TrainResult, loss_per_joint_l2, noam_lr, train

__version__ = "0.1.0"
