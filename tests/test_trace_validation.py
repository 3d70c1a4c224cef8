"""Every ``ValueError`` of the trace object model, by exact message.

``Instruction`` and the trace classes validate on the synthesis hot path,
with checks arranged for speed (``docs/performance.md``, "Trace build
path"); this table is what keeps a fast path from trading a check for
speed.  It passes unchanged at the commit before those rewrites.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.isa import Instruction, MemRef, Opcode, exit_, fadd, ffma, ldg
from repro.trace import CTATrace, KernelTrace, WarpTrace

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


def test_accepted_edge_cases():
    # Shared-memory opcodes need no MemRef but may carry one.
    assert Instruction(Opcode.LDS, 1, (2,)).mem is None
    assert Instruction(Opcode.STS, None, (1, 2), MemRef(0)).mem == MemRef(0)
    assert MemRef(0, num_lines=32).num_lines == 32
    assert _kernel_with_register(31).regs_per_thread == 32
    assert WarpTrace([]).max_register() == -1
    assert WarpTrace([exit_()]).max_register() == -1
    assert WarpTrace([ldg(7, 9, 0), exit_()]).max_register() == 9
    assert WarpTrace([ldg(9, 7, 0), exit_()]).max_register() == 9


def _decoded(inst: Instruction):
    return inst.info, inst.num_src, inst.reads_rf


@pytest.mark.parametrize(
    "inst",
    [ffma(8, 1, 2, 3), ldg(4, 5, 0x1000, 4), Instruction(Opcode.BAR), exit_()],
    ids=lambda inst: inst.opcode.name,
)
def test_copies_carry_the_decode_cache(inst):
    assert _decoded(inst) == (inst.opcode.value, len(inst.src_regs), bool(inst.src_regs))
    rebuilt = Instruction(inst.opcode, inst.dst_reg, inst.src_regs, inst.mem)
    loaded = pickle.loads(pickle.dumps(inst, protocol=4))
    same = dataclasses.replace(inst)
    for copy in (rebuilt, loaded, same):
        assert copy == inst and hash(copy) == hash(inst)
        assert _decoded(copy) == _decoded(inst)
    # The pickled state is the seven fields in declaration order.
    assert list(vars(inst)) == [f.name for f in dataclasses.fields(Instruction)]
    assert list(vars(loaded)) == list(vars(inst))


def test_replace_redecodes():
    inst = ffma(8, 1, 2, 3)
    changed = dataclasses.replace(inst, opcode=Opcode.FADD, src_regs=(1, 2))
    assert _decoded(changed) == (Opcode.FADD.value, 2, True)
    assert changed != inst
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.dst_reg = 3  # type: ignore[misc]
