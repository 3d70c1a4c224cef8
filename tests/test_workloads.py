"""Tests for the workload layer: microbenchmarks, profiles, synthesis and
the 112-app registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Opcode
from repro.workloads import (
    EXPECTED_APP_COUNT,
    RF_SENSITIVE_APPS,
    SENSITIVE_APPS,
    CU_VALIDATION_SHAPES,
    AppProfile,
    all_profiles,
    app_names,
    build_kernel,
    build_warp_trace,
    cu_validation_microbenchmark,
    fma_microbenchmark,
    get_kernel,
    get_profile,
    scaled_imbalance_microbenchmark,
    suites,
    tpch_profile,
)


class TestFMAMicrobenchmark:
    def test_baseline_shape(self):
        k = fma_microbenchmark("baseline", fmas=16)
        assert k.warps_per_cta == 8
        assert all(w.count_opcode(Opcode.FFMA) == 16 for w in k.ctas[0].warps)

    def test_unbalanced_layout_stride(self):
        k = fma_microbenchmark("unbalanced", fmas=16)
        assert k.warps_per_cta == 32
        compute = [i for i, w in enumerate(k.ctas[0].warps)
                   if w.count_opcode(Opcode.FFMA)]
        assert compute == list(range(0, 32, 4))

    def test_balanced_layout_spreads_over_subcores(self):
        k = fma_microbenchmark("balanced", fmas=16)
        compute = [i for i, w in enumerate(k.ctas[0].warps)
                   if w.count_opcode(Opcode.FFMA)]
        assert len(compute) == 8
        # one compute warp per (row, sub-core) diagonal cell
        assert sorted(i % 4 for i in compute) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_all_warps_barrier(self):
        k = fma_microbenchmark("unbalanced", fmas=4)
        assert all(w.count_opcode(Opcode.BAR) == 1 for w in k.ctas[0].warps)

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            fma_microbenchmark("sideways")


class TestScaledImbalance:
    def test_every_fourth_warp_is_long(self):
        k = scaled_imbalance_microbenchmark(8, base_fmas=10)
        lengths = [w.count_opcode(Opcode.FFMA) for w in k.ctas[0].warps]
        for i, n in enumerate(lengths):
            assert n == (80 if i % 4 == 0 else 10)

    def test_imbalance_one_is_uniform(self):
        k = scaled_imbalance_microbenchmark(1, base_fmas=10)
        assert len({w.count_opcode(Opcode.FFMA) for w in k.ctas[0].warps}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_imbalance_microbenchmark(0)


class TestCUValidationSuite:
    def test_seven_kernels(self):
        kernels = {n: cu_validation_microbenchmark(n, insts=32, warps=4) for n in CU_VALIDATION_SHAPES}
        assert len(kernels) == 7
        for k in kernels.values():
            assert k.warps_per_cta == 4

    def test_conflict_variant_uses_one_parity(self):
        kernel = cu_validation_microbenchmark("ub-2op-conflict", insts=16, warps=1)
        trace = kernel.ctas[0].warps[0]
        for inst in trace.instructions[:-1]:
            assert all(r % 2 == inst.src_regs[0] % 2 for r in inst.src_regs)


class TestAppProfile:
    def test_validation_fractions(self):
        with pytest.raises(ValueError):
            AppProfile("x", "s", 0, mem_fraction=0.8, lds_fraction=0.3)
        with pytest.raises(ValueError):
            AppProfile("x", "s", 0, bank_bias=1.5)
        with pytest.raises(ValueError):
            AppProfile("x", "s", 0, divergence_multiplier=0.5)
        with pytest.raises(ValueError):
            AppProfile("x", "s", 0, operand_weights=(0, 0, 0))

    def test_warp_lengths_divergence(self):
        p = AppProfile(
            "x", "s", 0, warps_per_cta=8, insts_per_warp=10,
            divergence_period=4, divergence_multiplier=3.0,
        )
        assert p.warp_lengths() == (30, 10, 10, 10, 30, 10, 10, 10)

    def test_warp_lengths_uniform_without_divergence(self):
        p = AppProfile("x", "s", 0, warps_per_cta=4, insts_per_warp=7)
        assert p.warp_lengths() == (7, 7, 7, 7)

    def test_mean_operands(self):
        p = AppProfile("x", "s", 0, operand_weights=(1.0, 0.0, 0.0))
        assert p.mean_operands == 1.0

    def test_variant(self):
        p = AppProfile("x", "s", 0)
        q = p.variant(num_ctas=9)
        assert q.num_ctas == 9 and p.num_ctas != 9


class TestSynthesis:
    def test_deterministic(self):
        p = get_profile("cg-lou")
        a = build_warp_trace(p, 3, 50)
        b = build_warp_trace(p, 3, 50)
        assert [str(i) for i in a.instructions] == [str(i) for i in b.instructions]

    def test_warp_index_changes_stream(self):
        p = get_profile("cg-lou")
        a = build_warp_trace(p, 0, 50)
        b = build_warp_trace(p, 1, 50)
        assert [str(i) for i in a.instructions] != [str(i) for i in b.instructions]

    def test_instruction_count(self):
        p = AppProfile("x", "s", 1, insts_per_warp=40, barrier=True)
        tr = build_warp_trace(p, 0, 40)
        assert tr.dynamic_instructions == 41  # body + barrier

    def test_registers_within_declared_budget(self):
        p = get_profile("pb-sgemm")
        k = build_kernel(p)
        assert k.ctas[0].max_register() < p.regs_per_thread

    def test_pure_memory_profile(self):
        p = AppProfile("x", "s", 1, mem_fraction=1.0, insts_per_warp=30,
                       store_fraction=0.5, barrier=False)
        tr = build_warp_trace(p, 0, 30)
        mem_ops = sum(1 for i in tr.instructions if i.opcode.is_memory)
        assert mem_ops == 30

    def test_bank_bias_keeps_parity(self):
        p = AppProfile("x", "s", 1, bank_bias=1.0, mem_fraction=0.0,
                       dep_fraction=0.0, read_regs=16, insts_per_warp=60,
                       barrier=False)
        tr = build_warp_trace(p, 0, 60)
        for inst in tr.instructions[:-1]:
            if inst.src_regs:
                parities = {r % 2 for r in inst.src_regs}
                assert len(parities) == 1

    def test_kernel_level_attributes(self):
        p = AppProfile("x", "s", 1, shared_mem_per_cta=4096,
                       shared_conflict_degree=3, num_ctas=2)
        k = build_kernel(p)
        assert k.shared_mem_per_cta == 4096
        assert k.shared_conflict_degree == 3
        assert k.num_ctas == 2


class TestRegistry:
    def test_112_apps(self):
        assert len(all_profiles()) == EXPECTED_APP_COUNT == 112

    def test_eight_suites(self):
        assert len(suites()) == 8

    def test_suite_sizes(self):
        assert len(app_names("tpch-compressed")) == 22
        assert len(app_names("tpch-uncompressed")) == 22
        assert len(app_names("cugraph")) == 7
        assert len(app_names("parboil")) == 11
        assert len(app_names("rodinia")) == 20
        assert len(app_names("polybench")) == 15
        assert len(app_names("deepbench")) == 8
        assert len(app_names("cutlass")) == 7

    def test_sensitive_apps_registered(self):
        profiles = all_profiles()
        for name in SENSITIVE_APPS + RF_SENSITIVE_APPS:
            assert name in profiles

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            get_profile("nope")
        with pytest.raises(KeyError):
            app_names("nope-suite")

    def test_get_kernel_builds(self):
        k = get_kernel("rod-nw")
        assert k.dynamic_instructions > 0

    def test_tpch_q8_has_deepest_uncompressed_divergence(self):
        mult = {q: tpch_profile(q, False).divergence_multiplier for q in range(1, 23)}
        assert max(mult, key=mult.get) == 8

    def test_compressed_diverges_more_than_uncompressed(self):
        for q in (1, 9, 17):
            assert (
                tpch_profile(q, True).divergence_multiplier
                > tpch_profile(q, False).divergence_multiplier
            )

    def test_names_match_profiles(self):
        for name, p in all_profiles().items():
            assert p.name == name


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bias=st.floats(min_value=0.0, max_value=1.0),
    mem=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=20, deadline=None)
def test_property_synth_traces_are_wellformed(seed, bias, mem):
    p = AppProfile("prop", "s", seed, insts_per_warp=30, bank_bias=bias,
                   mem_fraction=mem)
    tr = build_warp_trace(p, 0, 30)
    assert tr[-1].opcode.is_exit
    assert tr.max_register() < p.regs_per_thread
    for inst in tr.instructions:
        assert inst.num_src_operands <= 3
