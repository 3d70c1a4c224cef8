"""Compiled warp code: the trace lowered into flat, replay-ready arrays.

Trace-driven simulators get their throughput from compiling the trace once
into a flat form the per-cycle loop can replay without touching the
front-end object graph (Accel-Sim's SASS front-end does exactly this).
:func:`compile_warp_trace` lowers one :class:`~repro.trace.WarpTrace` into
a :class:`CompiledWarp`: parallel immutable tuples, indexed by the warp's
existing trace cursor (``Warp.pc``), carrying everything the
issue/operand/dispatch path reads per instruction —

* the scoreboard *hazard mask* (one bit per architectural register; EXIT
  compiles to an all-ones mask because it waits for full drain) and the
  *destination bit* ``note_issue`` sets;
* the functional-unit id (an index into the sub-core's pipeline list,
  :data:`UNIT_INDEX`), and the ``reads_rf`` / ``num_src`` operand shape;
* per-instruction flags (barrier / exit / memory);
* the original :class:`~repro.isa.Instruction` objects, for the handoff
  points that still want them (pipeline issue, memory access, tracing).

Bank pre-resolution is layered on top: :meth:`CompiledWarp.bank_table`
returns a per-``(mapper, num_banks)`` table of source-operand bank tuples.
Mappings that are periodic in the warp id (``mod``: period 1,
``warp_swizzle``: period ``num_banks``) share rows across warps; aperiodic
mappings (``scrambled``, custom callables) get per-warp rows, computed once
and memoized.  Rows reproduce ``mapper(reg, warp_id, num_banks)`` call for
call, so collected stats stay byte-identical to the uncompiled path.

The compiled form is cached on the trace object itself (``trace._code``),
so every CTA sharing a trace by reference — ``KernelTrace.uniform``
replicates one ``CTATrace`` — compiles exactly once per process.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from ..isa import FuncUnit, Instruction, Opcode

if TYPE_CHECKING:  # pragma: no cover
    from .kernel_trace import KernelTrace
    from .warp_trace import WarpTrace

#: Stable functional-unit -> pipeline-index mapping (definition order of
#: the FuncUnit enum; the sub-core builds its pipeline list in this order).
UNIT_INDEX: Dict[FuncUnit, int] = {unit: i for i, unit in enumerate(FuncUnit)}

#: Per-instruction flag bits (``CompiledWarp.flags``).
F_BARRIER = 1
F_EXIT = 2
F_MEMORY = 4

#: ``(unit id, flags)`` of every opcode, keyed by name: a ``str`` caches
#: its hash, where an Enum member or ``OpcodeInfo`` key hashes in Python.
_OPCODE_STATIC: Dict[str, Tuple[int, int]] = {
    op.name: (
        UNIT_INDEX[op.value.unit],
        (F_BARRIER if op.value.is_barrier else 0)
        | (F_EXIT if op.value.is_exit else 0)
        | (F_MEMORY if op.value.is_memory else 0),
    )
    for op in Opcode
}

BankMapper = Callable[[int, int, int], int]


def _mapper_period(mapper: BankMapper, num_banks: int) -> Optional[int]:
    """Period of ``mapper`` in the warp id, or None when aperiodic.

    ``mod`` ignores the warp id entirely; ``warp_swizzle`` only sees
    ``warp_id % num_banks``.  Anything else (``scrambled``, custom
    callables) is treated as aperiodic and resolved per warp id.
    """
    # Late import: repro.regalloc imports nothing from repro.trace, but the
    # top-level import order (isa -> trace -> regalloc) stays acyclic this way.
    from ..regalloc import mod_mapping, warp_swizzle_mapping

    if mapper is mod_mapping:
        return 1
    if mapper is warp_swizzle_mapping:
        return num_banks
    return None


class _BankTable:
    """Pre-resolved source-operand banks for one ``(mapper, num_banks)``.

    ``row_for(warp_id)`` returns a tuple indexed by ``pc`` whose entries
    are the instruction's source banks (duplicates preserved) — exactly
    what ``RegisterFile.src_banks`` would compute, precomputed once per
    residue class (periodic mappings) or per warp id (aperiodic ones).
    """

    __slots__ = ("mapper", "num_banks", "period", "_src_regs", "_rows")

    def __init__(
        self, mapper: BankMapper, num_banks: int, src_regs: Tuple[Tuple[int, ...], ...]
    ):
        self.mapper = mapper
        self.num_banks = num_banks
        self.period = _mapper_period(mapper, num_banks)
        self._src_regs = src_regs
        self._rows: Dict[int, Tuple[Tuple[int, ...], ...]] = {}

    def row_for(self, warp_id: int) -> Tuple[Tuple[int, ...], ...]:  # simcheck: hot-ok -- memoized per warp-id residue; builds only on first miss
        key = warp_id % self.period if self.period else warp_id
        row = self._rows.get(key)
        if row is None:
            # One mapper call per register the trace reads, then an index
            # per operand, unrolled over the operand counts an Instruction
            # allows.  Every entry is a fresh tuple: entries shared between
            # instructions would change the pickled artifact.
            bank = {
                r: self.mapper(r, warp_id, self.num_banks)
                for r in set().union(*self._src_regs)
            }
            entries = []
            for srcs in self._src_regs:
                n = len(srcs)
                if n == 3:
                    a, b, c = srcs
                    entries.append((bank[a], bank[b], bank[c]))
                elif n == 2:
                    a, b = srcs
                    entries.append((bank[a], bank[b]))
                elif n == 1:
                    entries.append((bank[srcs[0]],))
                else:
                    entries.append(tuple([bank[r] for r in srcs]))
            row = tuple(entries)
            self._rows[key] = row
        return row

    def prewarm(self) -> None:
        """Materialize every residue row of a periodic mapping."""
        if self.period:
            for wid in range(self.period):
                self.row_for(wid)


class CompiledWarp:
    """One warp trace, lowered to flat parallel tuples (see module doc)."""

    __slots__ = (
        "insts",
        "length",
        "src_regs",
        "hazard_masks",
        "dst_bits",
        "unit_ids",
        "reads_rf",
        "num_src",
        "flags",
        "_bank_tables",
    )

    def __init__(self, instructions: Tuple[Instruction, ...]):
        # Column at a time: one comprehension per array costs a fraction of a
        # single loop appending to six lists.
        self.insts = instructions
        self.length = len(instructions)
        self.src_regs: Tuple[Tuple[int, ...], ...] = tuple(
            [inst.src_regs for inst in instructions]
        )
        self.reads_rf = tuple([inst.reads_rf for inst in instructions])
        self.num_src = tuple([inst.num_src for inst in instructions])
        static = [_OPCODE_STATIC[inst.info.name] for inst in instructions]
        self.unit_ids = tuple([unit for unit, _ in static])
        self.flags = tuple([flags for _, flags in static])
        self.dst_bits = tuple(
            [0 if inst.dst_reg is None else 1 << inst.dst_reg for inst in instructions]
        )
        hazard_masks = []
        for srcs, mask, flags in zip(self.src_regs, self.dst_bits, self.flags):
            if flags & F_EXIT:
                # EXIT waits for the whole scoreboard to drain.
                mask = -1
            else:
                for r in srcs:
                    mask |= 1 << r
            hazard_masks.append(mask)
        self.hazard_masks = tuple(hazard_masks)
        self._bank_tables: Dict[Tuple[BankMapper, int], _BankTable] = {}

    def bank_table(self, mapper: BankMapper, num_banks: int) -> _BankTable:  # simcheck: hot-ok -- memoized per (mapper, banks); builds only on first miss
        key = (mapper, num_banks)
        table = self._bank_tables.get(key)
        if table is None:
            table = _BankTable(mapper, num_banks, self.src_regs)
            self._bank_tables[key] = table
        return table


def compile_warp_trace(trace: "WarpTrace") -> CompiledWarp:
    """The compiled form of ``trace``, cached on the trace object."""
    code = getattr(trace, "_code", None)
    if code is None:
        code = CompiledWarp(tuple(trace.instructions))
        trace._code = code  # type: ignore[attr-defined]
    return code


def compile_kernel(
    kernel: "KernelTrace",
    mapper: Optional[BankMapper] = None,
    num_banks: Optional[int] = None,
) -> int:
    """Compile every unique warp trace of ``kernel``; returns the count.

    Traces are deduplicated via the ``_code`` attribute memo
    (``KernelTrace.uniform`` shares one ``CTATrace`` across the grid, so a
    4096-CTA kernel compiles its warps once).  With ``mapper``/``num_banks``
    given, the bank tables of periodic mappings are prewarmed too, so a
    simulation afterwards never computes bank layouts on the hot path.
    """
    compiled = 0
    for cta in kernel.ctas:
        for trace in cta.warps:
            code = getattr(trace, "_code", None)
            if code is None:
                code = compile_warp_trace(trace)
                compiled += 1
            if mapper is not None and num_banks is not None:
                code.bank_table(mapper, num_banks).prewarm()
    return compiled
