"""Convolution tools for semantic segmentation at desk scale: dilation-rate
schedule analysis with an exact footprint oracle, dense sub-pixel upsampling
decoders, and a small from-scratch training harness."""

from .conv import (
    ConvLayer,
    ConvSpec,
    conv2d_backward,
    conv2d_forward,
    dilated_kernel_size,
    same_padding,
)
from .hdc import (
    DilationSchedule,
    FootprintMap,
    common_factor_check,
    coverage_report,
    footprint,
    max_distance,
    rf_increase,
    rf_increase_for_rates,
    schedule_report,
    schedule_search,
)
from .tensor import Rng, he_init, load_tensor, save_tensor
from .train import SgdConfig, ToyNet, evaluate, miou, poly_lr, sgd_step, softmax_ce_loss, train
from .upsample import (
    DucSpec,
    TransposedConvSpec,
    bilinear_upsample,
    duc_backward,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
    transposed_conv_backward,
    transposed_conv_forward,
)

__version__ = "0.1.0"
