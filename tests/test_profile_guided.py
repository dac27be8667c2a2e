"""Profile-guided enlargement tests (paper §6 extension)."""

import pytest

from repro.backend import EnlargeConfig, generate_block_structured
from repro.core.toolchain import Toolchain
from repro.errors import CompileError
from repro.exec import interpret_module, run_block_structured
from repro.profile import BranchProfile, collect_branch_profile
from repro.profile.collector import base_label

BIASED_AND_UNBIASED = """
int data[64];
int hot = 0;
int cold = 0;
void main() {
    int i;
    for (i = 0; i < 64; i = i + 1) { data[i] = (i * 29) % 64; }
    for (i = 0; i < 64; i = i + 1) {
        // biased: true 63/64 of the time
        if (data[i] < 63) { hot = hot + 1; }
        // unbiased: ~50/50
        if (data[i] % 2 == 0) { cold = cold + 1; }
    }
    print_int(hot);
    print_int(cold);
}
"""


def test_base_label_strips_synthetic_suffixes():
    assert base_label("main.forhead5") == "main.forhead5"
    assert base_label("main.forbody6.c0") == "main.forbody6"
    assert base_label("f.entry0.s1.c2") == "f.entry0"
    assert base_label("main.cc10") == "main.cc10"  # short-circuit labels


def test_profile_counts_and_bias():
    pair = Toolchain().compile(BIASED_AND_UNBIASED, "bias")
    profile = collect_branch_profile(pair.conventional)
    assert profile.total_branches > 100
    biases = [
        profile.bias(label)
        for label in profile.edges
        if profile.edges[label][1] >= 64
    ]
    assert any(b > 0.9 for b in biases), "the biased branch must show up"
    assert any(b < 0.7 for b in biases), "the unbiased branch must show up"


def test_bias_of_unknown_label_is_none():
    profile = BranchProfile(edges={"main.x0": (3, 4)})
    assert profile.bias("nope") is None
    assert profile.bias("main.x0") == pytest.approx(0.75)
    assert profile.true_rate("main.x0") == pytest.approx(0.75)


def test_guided_compile_shrinks_code_and_preserves_outputs():
    plain = Toolchain().compile(BIASED_AND_UNBIASED, "bias")
    guided = Toolchain(enlarge=EnlargeConfig(min_bias=0.8)).compile(
        BIASED_AND_UNBIASED, "bias"
    )
    golden = interpret_module(plain.module)
    assert run_block_structured(guided.block).outputs == golden
    assert guided.block.code_bytes <= plain.block.code_bytes
    # the unbiased branch's fork must be gone: fewer multi-variant blocks
    plain_variants = sum(1 for b in plain.block.blocks if b.path_dirs)
    guided_variants = sum(1 for b in guided.block.blocks if b.path_dirs)
    assert guided_variants < plain_variants


def test_min_bias_one_disables_all_forking():
    guided = Toolchain(enlarge=EnlargeConfig(min_bias=1.01)).compile(
        BIASED_AND_UNBIASED, "bias"
    )
    assert all(len(b.path_dirs) == 0 for b in guided.block.blocks)


def test_min_bias_needs_the_training_profile():
    """Only ``Toolchain.compile`` collects the profile; an emitter
    handed a guided config without one refuses it."""
    module = Toolchain().compile_ir(BIASED_AND_UNBIASED, "bias")
    with pytest.raises(CompileError, match="min_bias"):
        generate_block_structured(
            module, "bias", EnlargeConfig(min_bias=0.8)
        )


def test_guided_equivalence_on_feature_program():
    from tests.conftest import FEATURE_PROGRAM

    toolchain = Toolchain(enlarge=EnlargeConfig(min_bias=0.75))
    pair = toolchain.compile(FEATURE_PROGRAM, "feature")
    golden = interpret_module(pair.module)
    assert run_block_structured(pair.block).outputs == golden
