"""Every ``ValueError`` of the trace object model, by exact message.

A trace is validated however it was built: ``Instruction`` by
``Instruction`` for the builders, column-wise for the synthesizer and the
code cache (``docs/performance.md``, "Trace build path").  ``REJECTED`` is
what keeps a fast path from trading a check for speed; ``COLUMN_REJECTED``
states the same defects as columns and holds both paths to one message.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.isa import Instruction, MemRef, Opcode, bar, exit_, fadd, ffma, ldg
from repro.trace import CTATrace, KernelTrace, WarpTrace, dump_kernel, parse_kernel
from repro.trace.warp_trace import OPCODES
from repro.workloads import microbench

NEGATIVE_REGISTER = "register ids must be non-negative"


def _kernel_with_register(reg: int, **kwargs) -> KernelTrace:
    cta = CTATrace([WarpTrace([fadd(reg, 0, 1), exit_()])])
    return KernelTrace.uniform("k", cta, num_ctas=4, **kwargs)


REJECTED = [
    # -- MemRef ----------------------------------------------------------
    (lambda: MemRef(0, num_lines=0), "num_lines must be in [1, 32]"),
    (lambda: MemRef(0, num_lines=33), "num_lines must be in [1, 32]"),
    (lambda: MemRef(-128), "base_address must be non-negative"),
    (lambda: MemRef(-128, num_lines=0), "num_lines must be in [1, 32]"),
    # -- Instruction, in the order the checks run --------------------------
    (
        lambda: Instruction(Opcode.FFMA, 1, (1, 2, 3, 4)),
        "FFMA has 4 source operands; max is 3",
    ),
    (
        lambda: Instruction(Opcode.IMAD, 1, (1, 2, 3, -4)),
        "IMAD has 4 source operands; max is 3",
    ),
    (lambda: Instruction(Opcode.FADD, 1, (-1, 2)), NEGATIVE_REGISTER),
    (lambda: Instruction(Opcode.FADD, 1, (2, 0, -1)), NEGATIVE_REGISTER),
    (lambda: Instruction(Opcode.FADD, -1, (1, 2)), NEGATIVE_REGISTER),
    (lambda: Instruction(Opcode.LDG, -1, (1,)), NEGATIVE_REGISTER),
    (lambda: Instruction(Opcode.LDG, 1, (2,)), "LDG requires a MemRef"),
    (lambda: Instruction(Opcode.STG, None, (1, 2)), "STG requires a MemRef"),
    (
        lambda: Instruction(Opcode.FADD, 1, (1, 2), MemRef(0)),
        "FADD cannot carry a MemRef",
    ),
    (lambda: Instruction(Opcode.BAR, mem=MemRef(0)), "BAR cannot carry a MemRef"),
    (
        lambda: dataclasses.replace(ffma(1, 2, 3, 4), src_regs=(1, -2)),
        NEGATIVE_REGISTER,
    ),
    # -- WarpTrace -------------------------------------------------------
    (lambda: WarpTrace([]), "warp trace must end with EXIT"),
    (lambda: WarpTrace([fadd(1, 2, 3)]), "warp trace must end with EXIT"),
    (
        lambda: WarpTrace([exit_(), fadd(1, 2, 3)]),
        "warp trace must end with EXIT",
    ),
    (
        lambda: WarpTrace([fadd(1, 2, 3), exit_(), fadd(1, 2, 3), exit_()]),
        "EXIT may only appear as the final instruction",
    ),
    # -- CTATrace / KernelTrace --------------------------------------------
    (lambda: CTATrace([]), "a CTA must contain at least one warp"),
    (lambda: KernelTrace("k", []), "a kernel must contain at least one CTA"),
    (lambda: _kernel_with_register(3, regs_per_thread=0), "regs_per_thread must be >= 1"),
    (lambda: _kernel_with_register(3, shared_mem_per_cta=-1), "shared_mem_per_cta must be >= 0"),
    (
        lambda: _kernel_with_register(40),
        "kernel 'k' references register R40 but declares only 32 registers per thread",
    ),
    (
        # A source register is counted, not only destinations.
        lambda: KernelTrace.uniform(
            "k", CTATrace([WarpTrace([fadd(1, 2, 32), exit_()])]), num_ctas=4
        ),
        "kernel 'k' references register R32 but declares only 32 registers per thread",
    ),
    (
        # Only the second CTA of a non-uniform grid is out of range.
        lambda: KernelTrace(
            "k",
            [
                CTATrace([WarpTrace([fadd(1, 2, 3), exit_()])]),
                CTATrace([WarpTrace([exit_()]), WarpTrace([fadd(1, 2, 35), exit_()])]),
            ],
        ),
        "kernel 'k' references register R35 but declares only 32 registers per thread",
    ),
    (
        lambda: KernelTrace.uniform("k", CTATrace([WarpTrace([exit_()])]), num_ctas=0),
        "num_ctas must be >= 1",
    ),
]


@pytest.mark.parametrize("build, message", REJECTED)
def test_rejected_with_the_exact_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


#: ``REJECTED``'s MemRef, Instruction and WarpTrace rows as one trace each:
#: ``(opcode, dst_reg, src_regs, memory row or None)`` per instruction.
_EXIT = (Opcode.EXIT, None, (), None)
COLUMN_REJECTED = [
    ([(Opcode.LDG, 1, (2,), (0, 0, False)), _EXIT], "num_lines must be in [1, 32]"),
    ([(Opcode.LDG, 1, (2,), (0, 33, False)), _EXIT], "num_lines must be in [1, 32]"),
    ([(Opcode.LDG, 1, (2,), (-128, 1, False)), _EXIT], "base_address must be non-negative"),
    ([(Opcode.LDG, 1, (2,), (-128, 0, False)), _EXIT], "num_lines must be in [1, 32]"),
    ([(Opcode.FFMA, 1, (1, 2, 3, 4), None), _EXIT], "FFMA has 4 source operands; max is 3"),
    ([(Opcode.IMAD, 1, (1, 2, 3, -4), None), _EXIT], "IMAD has 4 source operands; max is 3"),
    ([(Opcode.FADD, 1, (-1, 2), None), _EXIT], NEGATIVE_REGISTER),
    ([(Opcode.FADD, 1, (2, 0, -1), None), _EXIT], NEGATIVE_REGISTER),
    ([(Opcode.FADD, -1, (1, 2), None), _EXIT], NEGATIVE_REGISTER),
    ([(Opcode.LDG, -1, (1,), None), _EXIT], NEGATIVE_REGISTER),
    ([(Opcode.LDG, 1, (2,), None), _EXIT], "LDG requires a MemRef"),
    ([(Opcode.STG, None, (1, 2), None), _EXIT], "STG requires a MemRef"),
    ([(Opcode.FADD, 1, (1, 2), (0, 1, False)), _EXIT], "FADD cannot carry a MemRef"),
    ([(Opcode.BAR, None, (), (0, 1, False)), _EXIT], "BAR cannot carry a MemRef"),
    ([], "warp trace must end with EXIT"),
    ([(Opcode.FADD, 1, (2, 3), None)], "warp trace must end with EXIT"),
    ([_EXIT, (Opcode.FADD, 1, (2, 3), None)], "warp trace must end with EXIT"),
    (
        [(Opcode.FADD, 1, (2, 3), None), _EXIT, (Opcode.FADD, 1, (2, 3), None), _EXIT],
        "EXIT may only appear as the final instruction",
    ),
]


def from_columns(rows) -> WarpTrace:
    return WarpTrace.from_columns(
        bytes(OPCODES.index(op) for op, _, _, _ in rows),
        tuple(dst for _, dst, _, _ in rows),
        tuple(srcs for _, _, srcs, _ in rows),
        {pc: mem for pc, (_, _, _, mem) in enumerate(rows) if mem is not None},
    )


def from_instructions(rows) -> WarpTrace:
    return WarpTrace(
        [
            Instruction(op, dst, srcs, None if mem is None else MemRef(*mem))
            for op, dst, srcs, mem in rows
        ]
    )


@pytest.mark.parametrize("rows, message", COLUMN_REJECTED)
@pytest.mark.parametrize("build", [from_columns, from_instructions])
def test_both_paths_reject_with_the_same_message(build, rows, message):
    with pytest.raises(ValueError) as raised:
        build(rows)
    assert str(raised.value) == message


def test_kernel_checks_see_column_built_traces():
    trace = from_columns([(Opcode.FADD, 40, (0, 1), None), _EXIT])
    assert trace.max_register() == 40
    with pytest.raises(ValueError) as raised:
        KernelTrace.uniform("k", CTATrace([trace]), num_ctas=4)
    assert str(raised.value) == (
        "kernel 'k' references register R40 but declares only 32 registers per thread"
    )
    with pytest.raises(ValueError, match="do not line up"):
        WarpTrace.from_columns(bytes([OPCODES.index(Opcode.EXIT)]), (None, None), ((),), {})


def test_an_empty_stream_still_builds_to_a_lone_exit():
    # ``WarpTrace([])`` is rejected (above); every builder appends the EXIT.
    assert list(WarpTrace.from_instructions([])) == [exit_()]
    assert list(microbench._empty_warp()) == [bar(), exit_()]
    parsed = parse_kernel(".kernel k\n.cta\n.warp\n")
    assert list(parsed.ctas[0].warps[0]) == [exit_()]
    assert parse_kernel(dump_kernel(parsed)).ctas[0].warps[0].instructions == (exit_(),)


def test_accepted_edge_cases():
    # Shared-memory opcodes need no MemRef but may carry one.
    assert Instruction(Opcode.LDS, 1, (2,)).mem is None
    assert Instruction(Opcode.STS, None, (1, 2), MemRef(0)).mem == MemRef(0)
    assert MemRef(0, num_lines=32).num_lines == 32
    assert _kernel_with_register(31).regs_per_thread == 32
    assert WarpTrace([exit_()]).max_register() == -1
    assert WarpTrace([ldg(7, 9, 0), exit_()]).max_register() == 9
    assert WarpTrace([ldg(9, 7, 0), exit_()]).max_register() == 9


def _decoded(inst: Instruction):
    return inst.opcode.value, inst.num_src_operands, inst.reads_register_file


@pytest.mark.parametrize(
    "inst",
    [ffma(8, 1, 2, 3), ldg(4, 5, 0x1000, 4), Instruction(Opcode.BAR), exit_()],
    ids=lambda inst: inst.opcode.name,
)
def test_copies_carry_the_decode_cache(inst):
    # Nothing is cached any more: the decode is derived from the four
    # fields, which are all a copy (and the pickled state) consists of.
    assert _decoded(inst) == (inst.opcode.value, len(inst.src_regs), bool(inst.src_regs))
    rebuilt = Instruction(inst.opcode, inst.dst_reg, inst.src_regs, inst.mem)
    loaded = pickle.loads(pickle.dumps(inst, protocol=4))
    same = dataclasses.replace(inst)
    for copy in (rebuilt, loaded, same):
        assert copy == inst and hash(copy) == hash(inst)
        assert _decoded(copy) == _decoded(inst)
    assert list(vars(inst)) == ["opcode", "dst_reg", "src_regs", "mem"]
    assert list(vars(loaded)) == list(vars(inst))


def test_replace_redecodes():
    inst = ffma(8, 1, 2, 3)
    changed = dataclasses.replace(inst, opcode=Opcode.FADD, src_regs=(1, 2))
    assert _decoded(changed) == (Opcode.FADD.value, 2, True)
    assert changed != inst
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.dst_reg = 3  # type: ignore[misc]
