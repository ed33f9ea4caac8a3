"""Convolution tools for semantic segmentation at desk scale: dilation-rate
schedule analysis with an exact footprint oracle, dense sub-pixel upsampling
decoders, and a small from-scratch training harness."""

from .conv import (
    ConvLayer,
    ConvSpec,
    TransposedConvSpec,
    conv2d_backward,
    conv2d_forward,
    same_padding,
    transposed_conv_backward,
    transposed_conv_forward,
)
from .hdc import (
    DilationSchedule,
    FootprintMap,
    coverage_report,
    footprint,
    max_distance,
    rf_increase_for_rates,
    schedule_report,
    schedule_search,
)
from .tensor import Rng, he_init, load_tensor, save_tensor
from .train import SgdConfig, ToyNet, evaluate, poly_lr, sgd_step, softmax_ce_loss, train
from .upsample import (
    DucSpec,
    bilinear_upsample,
    duc_backward,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
)

__version__ = "0.1.0"
