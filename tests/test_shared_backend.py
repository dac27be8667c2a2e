"""One shared back end: both emitters read the same allocated functions.

``Toolchain.compile`` machine-lowers and register-allocates each module
once (:func:`~repro.backend.conventional.lower_and_allocate`) and hands
the result to both emitters. That is sound only if neither emitter
disturbs what the other reads: emitting conventional-then-block and
block-then-conventional from one lowering must give identical images,
and the two images must share no op and no data segment.
"""

from __future__ import annotations

import pytest

from repro.backend import EnlargeConfig
from repro.backend.blockstructured import emit_block_structured
from repro.backend.conventional import emit_conventional, lower_and_allocate
from repro.core.toolchain import Toolchain
from repro.workloads import get_workload, workload_names
from tests.test_compile_goldens import render_image
from tests.test_profile_guided import BIASED_AND_UNBIASED

SCALE = 0.025


def emit_both(module, name: str, conventional_first: bool):
    """Both images from one lowering, in the given emission order."""
    functions, data = lower_and_allocate(module)

    def block():
        return emit_block_structured(
            functions, data.copy(), name, EnlargeConfig()
        )

    if conventional_first:
        conv = emit_conventional(functions, data, name)
        return conv, block()
    blk = block()
    return emit_conventional(functions, data, name), blk


def assert_disjoint(pair) -> None:
    conv_ops = {id(op) for op in pair.conventional.ops}
    block_ops = {id(op) for b in pair.block.blocks for op in b.ops}
    assert not conv_ops & block_ops
    assert pair.conventional.data is not pair.block.data


@pytest.mark.parametrize("name", workload_names())
def test_emission_order_does_not_change_either_image(name):
    module = Toolchain().compile_ir(get_workload(name).source(SCALE), name)
    conv_a, block_a = emit_both(module, name, conventional_first=True)
    conv_b, block_b = emit_both(module, name, conventional_first=False)
    assert render_image(conv_a) == render_image(conv_b)
    assert render_image(block_a) == render_image(block_b)


@pytest.mark.parametrize("name", workload_names())
def test_images_share_no_op_and_no_data_segment(name):
    pair = Toolchain().compile(get_workload(name).source(SCALE), name)
    assert_disjoint(pair)


def test_profile_guided_compile_uses_the_shared_step():
    plain = Toolchain().compile(BIASED_AND_UNBIASED, "bias")
    guided = Toolchain(enlarge=EnlargeConfig(min_bias=0.75)).compile(
        BIASED_AND_UNBIASED, "bias"
    )
    assert_disjoint(guided)
    # the conventional side is the same shared lowering either way
    assert render_image(guided.conventional) == render_image(
        plain.conventional
    )
