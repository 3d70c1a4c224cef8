"""Textual trace format: a SASS-like assembly for warp traces.

Accel-Sim consumes textual SASS trace files; this module gives the
simulator the same workflow — kernels can be written, inspected and
version-controlled as plain text:

.. code-block:: text

    .kernel demo
    .regs_per_thread 16
    .shared_mem 4096
    .ctas 2

    .cta
    .warp
    FFMA R4, R1, R2, R3
    LDG R5, [R0] lines=4 addr=0x1000
    BAR
    EXIT
    .warp
    IADD R6, R4, R5
    EXIT

Grammar
-------
* ``.kernel NAME`` starts a kernel; ``.regs_per_thread``, ``.shared_mem``,
  ``.shared_conflict_degree`` and ``.ctas`` set its attributes (``.ctas N``
  replicates the *single* described CTA N times).
* ``.cta`` starts a thread block; ``.warp`` starts a warp trace.
* Instructions are ``OPCODE [DST,] SRC...`` with registers written ``Rn``.
  Stores have no destination.  Global memory operands carry a bracketed
  address register plus ``lines=`` / ``addr=`` attributes.
* ``#`` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..isa import Instruction, MemRef, Opcode
from .kernel_trace import CTATrace, KernelTrace
from .warp_trace import WarpTrace

_REG = re.compile(r"^R(\d+)$")
_MEM = re.compile(r"^\[R(\d+)\]$")
_ATTR = re.compile(r"^(\w+)=(\S+)$")


class TraceParseError(ValueError):
    """Raised on malformed trace text, with a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# ---------------------------------------------------------------------------
# Disassembly (traces -> text)
# ---------------------------------------------------------------------------

def format_instruction(inst: Instruction) -> str:
    """One instruction in the textual format."""
    parts = [inst.opcode.name]
    operands = []
    if inst.dst_reg is not None:
        operands.append(f"R{inst.dst_reg}")
    if inst.opcode.is_global_memory:
        assert inst.mem is not None
        # address register is the last source by convention
        data_srcs = inst.src_regs[:-1]
        addr = inst.src_regs[-1]
        operands.extend(f"R{r}" for r in data_srcs)
        operands.append(f"[R{addr}]")
        parts.append(", ".join(operands))
        parts.append(f"lines={inst.mem.num_lines}")
        parts.append(f"addr={inst.mem.base_address:#x}")
        return " ".join(parts)
    operands.extend(f"R{r}" for r in inst.src_regs)
    if operands:
        parts.append(", ".join(operands))
    return " ".join(parts)


def dump_kernel(kernel: KernelTrace) -> str:
    """Serialize a kernel trace to text.

    Kernels whose CTAs all share one trace object (the common
    ``KernelTrace.uniform`` case) serialize a single ``.cta`` block plus a
    ``.ctas N`` directive; heterogeneous kernels list every CTA.
    """
    lines: List[str] = [f".kernel {kernel.name}"]
    lines.append(f".regs_per_thread {kernel.regs_per_thread}")
    if kernel.shared_mem_per_cta:
        lines.append(f".shared_mem {kernel.shared_mem_per_cta}")
    if kernel.shared_conflict_degree != 1:
        lines.append(f".shared_conflict_degree {kernel.shared_conflict_degree}")

    uniform = all(cta is kernel.ctas[0] for cta in kernel.ctas)
    ctas = [kernel.ctas[0]] if uniform else kernel.ctas
    if uniform and kernel.num_ctas > 1:
        lines.append(f".ctas {kernel.num_ctas}")
    for cta in ctas:
        lines.append("")
        lines.append(".cta")
        for warp in cta.warps:
            lines.append(".warp")
            lines.extend(format_instruction(i) for i in warp.instructions)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Assembly (text -> traces)
# ---------------------------------------------------------------------------

def parse_instruction(text: str, lineno: int = 0) -> Instruction:
    """Parse one instruction line."""
    body = text.split("#", 1)[0].strip()
    if not body:
        raise TraceParseError(lineno, "empty instruction")
    head, _, rest = body.partition(" ")
    try:
        opcode = Opcode[head.upper()]
    except KeyError:
        raise TraceParseError(lineno, f"unknown opcode {head!r}") from None

    # split trailing attr tokens (lines= / addr=) from the operand list
    attrs = {}
    tokens = rest.split()
    operand_tokens: List[str] = []
    for tok in tokens:
        m = _ATTR.match(tok)
        if m:
            attrs[m.group(1)] = m.group(2)
        else:
            operand_tokens.append(tok)
    operand_text = " ".join(operand_tokens)
    operands = [o.strip() for o in operand_text.split(",") if o.strip()]

    dst: Optional[int] = None
    srcs: List[int] = []
    addr_reg: Optional[int] = None
    for i, op in enumerate(operands):
        mem_m = _MEM.match(op)
        if mem_m:
            addr_reg = int(mem_m.group(1))
            continue
        reg_m = _REG.match(op)
        if not reg_m:
            raise TraceParseError(lineno, f"bad operand {op!r}")
        reg = int(reg_m.group(1))
        writes = opcode.is_memory and opcode in (Opcode.STG, Opcode.STS)
        if i == 0 and dst is None and not writes:
            dst = reg
        else:
            srcs.append(reg)

    mem: Optional[MemRef] = None
    if opcode.is_global_memory:
        if addr_reg is None:
            raise TraceParseError(lineno, f"{opcode.name} needs an [Rn] address operand")
        srcs.append(addr_reg)
        num_lines = int(attrs.get("lines", "1"))
        base = int(attrs.get("addr", "0"), 0)
        mem = MemRef(base_address=base, num_lines=num_lines,
                     is_store=opcode is Opcode.STG)
    elif addr_reg is not None:
        srcs.append(addr_reg)

    if opcode in (Opcode.BAR, Opcode.EXIT, Opcode.NOP) and (dst is not None or srcs):
        raise TraceParseError(lineno, f"{opcode.name} takes no operands")
    try:
        return Instruction(opcode, dst_reg=dst, src_regs=tuple(srcs), mem=mem)
    except ValueError as err:
        raise TraceParseError(lineno, str(err)) from None


def parse_kernel(text: str) -> KernelTrace:
    """Parse a full kernel trace from text."""
    name = None
    regs_per_thread = None
    shared_mem = 0
    conflict_degree = 1
    replicate = 1
    ctas: List[List[List[Instruction]]] = []
    current_cta: Optional[List[List[Instruction]]] = None
    current_warp: Optional[List[Instruction]] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, _, arg = line.partition(" ")
            arg = arg.strip()
            if directive == ".kernel":
                if name is not None:
                    raise TraceParseError(lineno, "duplicate .kernel")
                if not arg:
                    raise TraceParseError(lineno, ".kernel needs a name")
                name = arg
            elif directive == ".regs_per_thread":
                regs_per_thread = int(arg)
            elif directive == ".shared_mem":
                shared_mem = int(arg)
            elif directive == ".shared_conflict_degree":
                conflict_degree = int(arg)
            elif directive == ".ctas":
                replicate = int(arg)
            elif directive == ".cta":
                current_cta = []
                ctas.append(current_cta)
                current_warp = None
            elif directive == ".warp":
                if current_cta is None:
                    raise TraceParseError(lineno, ".warp outside a .cta")
                current_warp = []
                current_cta.append(current_warp)
            else:
                raise TraceParseError(lineno, f"unknown directive {directive!r}")
            continue
        if current_warp is None:
            raise TraceParseError(lineno, "instruction outside a .warp")
        current_warp.append(parse_instruction(line, lineno))

    if name is None:
        raise TraceParseError(0, "missing .kernel directive")
    if not ctas:
        raise TraceParseError(0, "kernel has no .cta")
    if replicate > 1 and len(ctas) != 1:
        raise TraceParseError(0, ".ctas replication requires exactly one .cta block")

    cta_traces = [
        CTATrace([WarpTrace.from_instructions(w) for w in cta]) for cta in ctas
    ]
    if replicate > 1:
        cta_traces = cta_traces * replicate
    if regs_per_thread is None:
        regs_per_thread = max(8, max(c.max_register() for c in cta_traces) + 1)
    return KernelTrace(
        name=name,
        ctas=cta_traces,
        regs_per_thread=regs_per_thread,
        shared_mem_per_cta=shared_mem,
        shared_conflict_degree=conflict_degree,
    )


def save_kernel(kernel: KernelTrace, path) -> None:
    """Write a kernel trace to a text file."""
    with open(path, "w") as fh:
        fh.write(dump_kernel(kernel))


def load_kernel(path) -> KernelTrace:
    """Read a kernel trace from a text file."""
    with open(path) as fh:
        return parse_kernel(fh.read())
