"""Per-warp instruction streams.

The simulator is trace driven, like Accel-Sim's SASS mode: each warp
executes a fixed, pre-recorded sequence of instructions.  Control flow is
already resolved in the trace (a warp that loops 4096 times simply carries
4096 FFMA entries), which is exactly the abstraction level at which the
paper's issue/operand-read effects arise.

A trace *is* four flat columns indexed by trace position — what the
synthesizer computes, the lowering pass reads and the code cache stores.
:class:`~repro.isa.Instruction` objects are a view of them, materialized
when a cold consumer (text format, register allocator, tests) iterates or
indexes the trace; the replay path never builds one.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..isa import MAX_SRC_OPERANDS, Instruction, MemRef, Opcode

#: Opcode of each id in an ``ops`` column: Enum definition order.
OPCODES: Tuple[Opcode, ...] = tuple(Opcode)
#: Keyed by name: a ``str`` caches its hash, an Enum member hashes in Python.
_OPCODE_ID: Dict[str, int] = {op._name_: i for i, op in enumerate(OPCODES)}
_EXIT_ID = _OPCODE_ID["EXIT"]


def opcode_table(value) -> bytes:
    """``bytes.translate`` table mapping an opcode id to ``value(opcode)``."""
    return bytes([value(op) for op in OPCODES]).ljust(256, b"\0")


#: Memory class of an opcode id: 0 takes no memory reference, shared memory
#: may carry one, global memory requires one.
SHARED_MEMORY, GLOBAL_MEMORY = 1, 2
MEM_CLASS = opcode_table(
    lambda op: GLOBAL_MEMORY if op.is_global_memory else int(op.value.is_memory)
)

#: One memory reference: ``MemRef``'s fields, in order.
MemRow = Tuple[int, int, bool]


class WarpTrace:
    """The instruction stream of one warp within a thread block.

    Columns, all indexed by trace position: ``ops`` (opcode ids, a
    ``bytes``), ``dst_regs`` (register id or None), ``src_regs`` (a tuple
    of register ids each) and ``mem``, sparse: position → ``(base_address,
    num_lines, is_store)`` for the instructions that carry a memory
    reference.  The final instruction must be ``EXIT``; the builders append
    it automatically.
    """

    def __init__(self, instructions: Sequence[Instruction]):
        view = tuple(instructions)
        self._set_columns(
            bytes([_OPCODE_ID[inst.opcode._name_] for inst in view]),
            tuple([inst.dst_reg for inst in view]),
            tuple([inst.src_regs for inst in view]),
            {
                pc: (inst.mem.base_address, inst.mem.num_lines, inst.mem.is_store)
                for pc, inst in enumerate(view)
                if inst.mem is not None
            },
        )
        self._view = view

    @classmethod
    def from_columns(
        cls,
        ops: bytes,
        dst_regs: Tuple[Optional[int], ...],
        src_regs: Tuple[Tuple[int, ...], ...],
        mem: Dict[int, MemRow],
    ) -> "WarpTrace":
        """A trace over the given columns, validated column-wise."""
        trace = cls.__new__(cls)
        trace._set_columns(ops, dst_regs, src_regs, mem)
        return trace

    def _set_columns(self, ops, dst_regs, src_regs, mem) -> None:
        self.ops = ops
        self.dst_regs = dst_regs
        self.src_regs = src_regs
        self.mem = mem
        self._view: Optional[Tuple[Instruction, ...]] = None
        self._validate()

    def _validate(self) -> None:
        """Every check of ``MemRef``, ``Instruction`` and the trace itself.

        Same order, exception type and message as constructing the
        instructions one by one; each check is one pass over a column, and
        the offending position is only searched for once a check failed.
        """
        ops, dst_regs, src_regs, mem = self.ops, self.dst_regs, self.src_regs, self.mem
        if not len(ops) == len(dst_regs) == len(src_regs) or not all(
            [0 <= pc < len(ops) for pc in mem]
        ):
            raise ValueError("trace columns do not line up")
        for base_address, num_lines, _ in mem.values():
            if num_lines < 1 or num_lines > 32:
                raise ValueError("num_lines must be in [1, 32]")
            if base_address < 0:
                raise ValueError("base_address must be non-negative")
        if max(map(len, src_regs), default=0) > MAX_SRC_OPERANDS:
            pc, srcs = next(
                (pc, s) for pc, s in enumerate(src_regs) if len(s) > MAX_SRC_OPERANDS
            )
            raise ValueError(
                f"{OPCODES[ops[pc]].name} has {len(srcs)} source operands; "
                f"max is {MAX_SRC_OPERANDS}"
            )
        regs = set().union(*src_regs)
        regs.update(dst_regs)
        regs.discard(None)
        if min(regs, default=0) < 0:
            raise ValueError("register ids must be non-negative")
        # Kept for KernelTrace's check against regs_per_thread.
        self._max_register = max(regs, default=-1)
        classes = ops.translate(MEM_CLASS)
        if classes.count(GLOBAL_MEMORY) != sum([classes[pc] == GLOBAL_MEMORY for pc in mem]):
            pc = next(
                pc for pc, c in enumerate(classes) if c == GLOBAL_MEMORY and pc not in mem
            )
            raise ValueError(f"{OPCODES[ops[pc]].name} requires a MemRef")
        for pc in mem:
            if not classes[pc]:
                raise ValueError(f"{OPCODES[ops[pc]].name} cannot carry a MemRef")
        if not ops or ops[-1] != _EXIT_ID:
            raise ValueError("warp trace must end with EXIT")
        if ops.find(_EXIT_ID) != len(ops) - 1:
            raise ValueError("EXIT may only appear as the final instruction")

    def __getstate__(self) -> dict:
        # Columns and compiled code only: the code cache stores no
        # ``Instruction``.
        state = self.__dict__.copy()
        state["_view"] = None
        return state

    # -- the Instruction view ------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The trace as ``Instruction`` objects (built on first use)."""
        if self._view is None:
            mem = self.mem
            refs = [MemRef(*mem[pc]) if pc in mem else None for pc in range(len(self.ops))]
            opcodes = [OPCODES[op] for op in self.ops]
            self._view = tuple(map(Instruction, opcodes, self.dst_regs, self.src_regs, refs))
        return self._view

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    @property
    def dynamic_instructions(self) -> int:
        """Instruction count excluding the trailing EXIT."""
        return len(self.ops) - 1

    def max_register(self) -> int:
        """Highest architectural register id referenced, or -1 if none."""
        return self._max_register

    def register_reads(self) -> int:
        """Total register-file source-operand reads in the trace."""
        return sum(map(len, self.src_regs))

    def count_opcode(self, opcode: Opcode) -> int:
        return self.ops.count(_OPCODE_ID[opcode._name_])

    @staticmethod
    def from_instructions(instructions: Sequence[Instruction]) -> "WarpTrace":
        """Build a trace, appending EXIT if the sequence does not end in one."""
        insts = list(instructions)
        if not insts or not insts[-1].opcode.is_exit:
            insts.append(Instruction(Opcode.EXIT))
        return WarpTrace(insts)
