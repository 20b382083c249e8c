import json

import pytest

from tfperf.hwmodel import accel_preset
from tfperf.workload import model_preset


def sig3(x: float) -> float:
    """Round to 3 significant figures for printed-table comparison."""
    return float(f"{x:.3g}")


# ResNet-50 at 224x224, from He et al., "Deep Residual Learning for Image
# Recognition" (CVPR 2016), Table 1. Written out here so that the suite derives
# the convolution FLOPs independently of `tfperf.workload.resnet50_ops`.
RESNET50_STEM = (7, 3, 64, 112)  # (kernel, in_ch, out_ch, out_spatial), stride 2
RESNET50_STAGES = (
    # (mid_ch, out_spatial, blocks); a block is 1x1 4*mid->mid, 3x3 mid->mid,
    # 1x1 mid->4*mid
    (64, 56, 3),
    (128, 28, 4),
    (256, 14, 6),
    (512, 7, 3),
)


def conv_flops(kernel: int, in_ch: int, out_ch: int, spatial: int) -> int:
    """FLOPs of one square convolution, 2 per multiply-accumulate."""
    return 2 * kernel * kernel * in_ch * out_ch * spatial * spatial


def resnet50_stage_conv_flops() -> int:
    """Convolution FLOPs of the four bottleneck stages: blocks * 2*hw * 17*mid^2.

    Per output position a block does 4*mid^2 (reduce) + 9*mid^2 (3x3) +
    4*mid^2 (expand) multiply-accumulates; every block's reduce reads the
    stage's wide (4*mid) input.
    """
    return sum(blocks * 2 * sp * sp * 17 * mid * mid
               for mid, sp, blocks in RESNET50_STAGES)


def resnet50_conv_flops() -> int:
    """Convolution FLOPs of the repeated-bottleneck ResNet-50: stem plus stages.

    2*7*7*3*64*112^2 = 236,027,904 for the stem and 6,987,710,464 for the
    stages, 7,223,738,368 in all. Projection shortcuts are not part of the
    construction, and the FC layer is not a convolution.
    """
    return conv_flops(*RESNET50_STEM) + resnet50_stage_conv_flops()


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """`text` parsed as RFC 8259 JSON: NaN, Infinity and -Infinity refused."""
    return json.loads(text, parse_constant=_refuse_constant)


# a small JSON decoder, `decoder3.json` in the CLI goldens
DECODER3 = {"name": "decoder3", "layers": 3, "d": 256, "heads": 4, "d_ffn": 1024,
            "mode": "decoder"}


@pytest.fixture(scope="session")
def accel():
    return accel_preset("gemmini-baseline")


@pytest.fixture(scope="session")
def bert512():
    return model_preset("bert-base", seq_len=512)
