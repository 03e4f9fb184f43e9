"""Self-contained reverse-mode differentiation on dense NCHW float32 tensors."""
from .tensor import (  # noqa: F401
    DTYPE,
    SCALAR_SHAPE,
    GraphError,
    Parameter,
    ShapeError,
    Tensor4,
    backward,
)
from .ops import (  # noqa: F401
    RunningStats,
    add,
    batch_norm_leaky,
    concat_channels,
    conv2d,
    conv_transpose2d,
    mean_abs,
    mean_sq,
    mul,
    scale,
    shift,
    sub,
    tanh,
)
from .optim import AdamState, adam_step  # noqa: F401
from .gradcheck import GradCheckResult, grad_check, run_registry  # noqa: F401
