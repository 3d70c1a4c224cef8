"""Compiled warp code: the trace lowered into flat, replay-ready columns.

Trace-driven simulators get their throughput from compiling the trace once
into a flat form the per-cycle loop can replay without touching the
front-end object graph (Accel-Sim's SASS front-end does exactly this).
:func:`compile_warp_trace` lowers one :class:`~repro.trace.WarpTrace` into
a :class:`CompiledWarp`: parallel immutable columns, indexed by the warp's
trace cursor (``Warp.pc``), carrying everything the replay path — issue,
operand collection, dispatch, memory access, tracing, sanitizing — reads
per instruction:

* the trace's own columns, shared not copied: ``ops`` (opcode ids),
  ``dst_regs``, ``src_regs`` and the sparse ``mem`` rows
  ``(base_address, num_lines, is_store)``;
* the scoreboard *hazard mask* (one bit per architectural register; EXIT
  compiles to an all-ones mask because it waits for full drain) and the
  *destination bit* ``note_issue`` sets;
* ``num_src`` (zero: the instruction bypasses the operand collector) and,
  per opcode, the functional-unit id (an index into the sub-core's
  pipeline list, :data:`UNIT_INDEX`), the barrier / exit / memory
  ``flags``, ``latencies`` and ``intervals``.

Columns of small integers are ``bytes`` (indexing one yields an ``int``,
and the opcode-derived ones are a single ``bytes.translate`` of ``ops``).

Bank pre-resolution is layered on top: :meth:`CompiledWarp.bank_table`
returns a per-``(mapper, num_banks)`` table of source-operand bank tuples.
Mappings that are periodic in the warp id (``mod``: period 1,
``warp_swizzle``: period ``num_banks``) share rows across warps; aperiodic
mappings (``scrambled``, custom callables) get per-warp rows, computed once
and memoized.  Rows reproduce ``mapper(reg, warp_id, num_banks)`` call for
call, so collected stats stay byte-identical to the uncompiled path.

A row costs one pointer per instruction: its entries come from one
process-wide table of bank tuples (:data:`_BANK_TUPLES`), so every equal
tuple in every row, warp, layout and kernel is one object, instead of one
copy per row of each tuple the row holds.  Likewise ``dst_bits`` holds one
``int`` per destination register, not one per instruction.

The compiled form is cached on the trace object itself (``trace._code``),
so every CTA sharing a trace by reference — ``KernelTrace.uniform``
replicates one ``CTATrace`` — compiles exactly once per process.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from ..isa import FuncUnit
from .warp_trace import OPCODES, opcode_table

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

#: Opcode-id -> static property, as ``bytes.translate`` tables (so every
#: latency and interval must fit a byte).
_UNIT_IDS = opcode_table(lambda op: UNIT_INDEX[op.value.unit])
_FLAGS = opcode_table(
    lambda op: (F_BARRIER if op.value.is_barrier else 0)
    | (F_EXIT if op.value.is_exit else 0)
    | (F_MEMORY if op.value.is_memory else 0)
)
_LATENCIES = opcode_table(lambda op: op.value.latency)
_INTERVALS = opcode_table(lambda op: op.value.initiation_interval)
#: Mnemonic of each opcode id (``Enum.name`` is a descriptor call).
_NAMES = tuple([op.name for op in OPCODES])

BankMapper = Callable[[int, int, int], int]

#: Every bank tuple a bank row holds, keyed by itself.  An instruction
#: reads at most ``MAX_SRC_OPERANDS`` (3) registers, so ``B`` banks give at
#: most ``1 + B + B**2 + B**3`` entries (585 for 8 banks), and a smaller
#: bank count's tuples are a subset of a larger one's.  Pickling keeps the
#: sharing within an artifact (one copy of each tuple), never across them.
_BANK_TUPLES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


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
    are the instruction's source banks (duplicates preserved): ``mapper``
    applied to each source register for that warp, computed once per
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
            # allows.  Every entry is the process-wide table's copy of its
            # tuple, so the row itself is the only per-instruction cost.
            bank = {
                r: self.mapper(r, warp_id, self.num_banks)
                for r in set().union(*self._src_regs)
            }
            intern = _BANK_TUPLES.setdefault
            entries = []
            for srcs in self._src_regs:
                n = len(srcs)
                if n == 3:
                    a, b, c = srcs
                    banks = (bank[a], bank[b], bank[c])
                elif n == 2:
                    a, b = srcs
                    banks = (bank[a], bank[b])
                elif n == 1:
                    banks = (bank[srcs[0]],)
                else:
                    banks = tuple([bank[r] for r in srcs])
                entries.append(intern(banks, banks))
            row = tuple(entries)
            self._rows[key] = row
        return row

    def prewarm(self) -> None:
        """Materialize every residue row of a periodic mapping."""
        if self.period:
            for wid in range(self.period):
                self.row_for(wid)


class CompiledWarp:
    """One warp trace, lowered to flat parallel columns (see module doc)."""

    __slots__ = (
        "length",
        "ops",
        "dst_regs",
        "src_regs",
        "mem",
        "num_src",
        "unit_ids",
        "flags",
        "latencies",
        "intervals",
        "dst_bits",
        "hazard_masks",
        "_bank_tables",
    )

    def __init__(self, trace: "WarpTrace"):
        ops = self.ops = trace.ops
        self.length = len(ops)
        self.dst_regs = trace.dst_regs
        src_regs = self.src_regs = trace.src_regs
        self.mem = trace.mem
        self.num_src = bytes(map(len, src_regs))
        self.unit_ids = ops.translate(_UNIT_IDS)
        self.flags = ops.translate(_FLAGS)
        self.latencies = ops.translate(_LATENCIES)
        self.intervals = ops.translate(_INTERVALS)
        # Past the small-int cache every ``1 << d`` is a new object: one
        # per destination register, not one per instruction.
        bits = {d: 0 if d is None else 1 << d for d in set(trace.dst_regs)}
        self.dst_bits = tuple([bits[d] for d in trace.dst_regs])
        hazard_masks = []
        for srcs, mask in zip(src_regs, self.dst_bits):
            for r in srcs:
                mask |= 1 << r
            hazard_masks.append(mask)
        # EXIT (always last, and only there) waits for the whole scoreboard
        # to drain.
        hazard_masks[-1] = -1
        self.hazard_masks = tuple(hazard_masks)
        self._bank_tables: Dict[Tuple[BankMapper, int], _BankTable] = {}

    def well_formed(self, trace: "WarpTrace") -> bool:
        """Whether this has the structure of the lowering of ``trace``.

        What the code cache checks of an unpickled artifact before serving
        it: the trace's own columns, every column and bank row of one
        length, an EXIT at the end, and each periodic bank table fully
        prewarmed.
        """
        tables = list(self._bank_tables.values())
        columns = [
            self.ops, self.dst_regs, self.src_regs, self.num_src, self.unit_ids,
            self.flags, self.latencies, self.intervals, self.dst_bits, self.hazard_masks,
            *[row for table in tables for row in table._rows.values()],
        ]
        return (
            (self.ops, self.dst_regs, self.src_regs, self.mem)
            == (trace.ops, trace.dst_regs, trace.src_regs, trace.mem)
            and {len(column) for column in columns} == {self.length}
            and bool(self.flags[-1] & F_EXIT)
            and bool(tables)
            and all(
                not t.period or sorted(t._rows) == list(range(t.period)) for t in tables
            )
        )

    def opcode_name(self, pc: int) -> str:
        """Mnemonic of the instruction at ``pc`` (tracer events)."""
        return _NAMES[self.ops[pc]]

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
        code = CompiledWarp(trace)
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
