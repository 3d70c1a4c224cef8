"""--seed decides the inputs, and only the inputs."""

from repro.workloads import RF_SENSITIVE_APPS, build_kernel, get_kernel, get_profile

from perfbench import spec
from perfbench.workloads import draw_apps, make, reseed


def _stream(kernel):
    return [str(inst) for warp in kernel.ctas[0].warps for inst in warp.instructions]


def test_seed_zero_is_the_registry_profile():
    profile = get_profile("cutlass-4096")
    assert reseed(profile, 0) is profile
    assert _stream(build_kernel(reseed(profile, 0))) == _stream(get_kernel("cutlass-4096"))


def test_same_seed_same_trace_other_seed_other_trace():
    profile = get_profile("cutlass-4096")
    assert reseed(profile, 7) == reseed(profile, 7)
    a, b = (build_kernel(reseed(profile, seed)) for seed in (7, 8))
    assert _stream(a) != _stream(b)
    assert a.dynamic_instructions == b.dynamic_instructions


def test_figure_cold_draw_is_seeded_and_stratified():
    assert draw_apps(5, 4) == draw_apps(5, 4)
    draws = {draw_apps(seed, 4) for seed in range(12)}
    assert len(draws) > 1
    for apps in draws:
        assert len(set(apps)) == 4 and set(apps) <= set(RF_SENSITIVE_APPS)
    lengths = [sum(get_profile(a).total_instructions for a in apps) for apps in draws]
    assert max(lengths) / min(lengths) < 1.15


def test_point_lists_are_fixed_by_name_not_by_seed():
    dense = make(spec.LOOP_DENSE).sizes()
    assert dense["points"] == 12 and "pb-sgemm" in dense["apps"] and "cg-lou" in dense["apps"]
    sparse = make(spec.LOOP_SPARSE).sizes()
    assert sparse["points"] == 6 and "tpcU-q8" in sparse["apps"]
