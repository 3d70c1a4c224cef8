"""Columns are the trace: one representation from synthesis to the cycle loop.

A ``WarpTrace`` holds flat columns; ``Instruction`` objects are a view
materialized for cold consumers.  Two properties keep that honest: the
view round-trips (instruction list → columns → view → text → parse), and
nothing between ``build_kernel`` and the last simulated cycle — lowering,
the code cache, plain / sanitized / attributed / traced replay — ever
constructs an ``Instruction``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import volta_v100
from repro.gpu import simulate
from repro.isa import Instruction, exit_
from repro.obs import Tracer, stats_digest
from repro.regalloc import get_mapping
from repro.trace import WarpTrace, compile_kernel, dump_kernel, make_kernel, parse_kernel
from repro.trace.code_cache import load_compiled, store_compiled
from repro.workloads import get_profile
from repro.workloads.synth import build_kernel

from .test_more_properties import instructions


@given(bodies=st.lists(st.lists(instructions(), max_size=12), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_property_view_round_trips_through_columns_and_text(bodies):
    built = [WarpTrace.from_instructions(body) for body in bodies]
    # The same columns without the instruction list: the view is rebuilt.
    bare = [WarpTrace.from_columns(t.ops, t.dst_regs, t.src_regs, t.mem) for t in built]
    for body, first, second in zip(bodies, built, bare):
        assert second._view is None
        assert second.instructions == first.instructions == (*body, exit_())
        assert (len(second), second[0], list(second)) == (len(first), first[0], list(first))
        assert second.max_register() == max(
            (r for inst in first for r in inst.registers()), default=-1
        )
        assert second.register_reads() == sum(inst.num_src_operands for inst in first)
    again = parse_kernel(dump_kernel(make_kernel("prop", bare, num_ctas=2)))
    for first, parsed in zip(built, again.ctas[0].warps):
        assert parsed.instructions == first.instructions
        assert (parsed.ops, parsed.dst_regs, parsed.src_regs, parsed.mem) == (
            first.ops, first.dst_regs, first.src_regs, first.mem,
        )


def _legs(kernel, config):
    """Digest of every way a kernel is replayed, and the traced run's events."""
    attributed = config.replace(stall_attribution=True)
    tracer = Tracer()
    runs = {
        "plain": simulate(kernel, config),
        "sanitize": simulate(kernel, config.replace(sanitize=True)),
        "stall_attribution": simulate(kernel, attributed),
        "tracer": simulate(kernel, attributed, tracer=tracer),
    }
    digests = {leg: stats_digest(stats.to_payload()) for leg, stats in runs.items()}
    return digests, tracer.events


def test_synthesis_lowering_cache_and_replay_build_no_instruction(tmp_path, monkeypatch):
    config = volta_v100()
    profile = get_profile("rod-kmeans")
    # The reference goes through the view: text dump and parse build every
    # Instruction, and the parsed kernel is Instruction-built.
    parsed = parse_kernel(dump_kernel(build_kernel(profile)))
    reference, events = _legs(parsed, config)
    assert reference["sanitize"] == reference["plain"]

    def forbidden(self):
        raise AssertionError(f"built an Instruction: {self!r}")

    monkeypatch.setattr(Instruction, "__post_init__", forbidden)
    with pytest.raises(AssertionError, match="built an Instruction"):
        exit_()
    fresh = build_kernel(profile)
    assert fresh.ctas[0].dynamic_instructions == parsed.ctas[0].dynamic_instructions
    compile_kernel(fresh, get_mapping(config.bank_mapping), config.rf_banks_per_subcore)
    store_compiled(tmp_path, "k", fresh)
    loaded = load_compiled(tmp_path, "k")
    for kernel in (fresh, loaded):
        assert _legs(kernel, config) == (reference, events)
        assert all(trace._view is None for trace in kernel.ctas[0].warps)
