"""Compiler register-allocation model.

The paper runs Accel-Sim in SASS mode precisely so that *compiler register
allocation and bank mappings are reflected in simulation*.  Our traces use
synthetic register ids; this module models the part of the compiler that
matters to the paper — bank-conflict-aware register renaming — so that the
baseline already contains a competent compiler, and RBA's gains come from
*dynamic inter-warp* conflicts the compiler cannot see.

:class:`ConflictAwareAllocator` renames the registers of a warp trace to
minimize *intra-instruction* same-bank operand pairs under a given bank
mapping, using a greedy graph-colouring pass over the operand co-occurrence
graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from ..isa import Instruction
from ..trace import WarpTrace
from .bank_mapping import BankMapper, get_mapping


class ConflictAwareAllocator:
    """Greedy bank-conflict-aware register renamer.

    Builds a co-occurrence graph over architectural registers (an edge for
    every pair of source operands appearing in the same instruction,
    weighted by frequency), then greedily assigns new register ids —
    highest-degree first — preferring ids whose bank differs from already-
    placed neighbours.
    """

    def __init__(self, num_banks: int, mapping: str | BankMapper = "mod") -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        self.num_banks = num_banks
        self.mapper: BankMapper = (
            get_mapping(mapping) if isinstance(mapping, str) else mapping
        )

    # -- public API ---------------------------------------------------------

    def allocate(self, trace: WarpTrace, warp_id: int = 0) -> WarpTrace:
        """Return a renamed copy of ``trace`` with reduced operand conflicts.

        Greedy colouring can occasionally *increase* the conflict count on
        adversarial co-occurrence graphs; like a real compiler pass, the
        allocator keeps the original assignment when its heuristic did not
        find an improvement, so the result is never worse than the input.
        """
        rename = self.build_renaming(trace, warp_id)
        if not rename:
            return trace
        insts = [self._rename_inst(inst, rename) for inst in trace.instructions]
        renamed = WarpTrace(insts)
        if self.conflict_cost(renamed, warp_id) >= self.conflict_cost(trace, warp_id):
            return trace
        return renamed

    def build_renaming(self, trace: WarpTrace, warp_id: int = 0) -> Dict[int, int]:
        """Compute the register renaming map for ``trace``."""
        weights = self._cooccurrence(trace)
        regs = self._registers(trace)
        if not regs:
            return {}
        # Highest total conflict weight first: place the hardest registers
        # while the bank space is still open.
        degree = defaultdict(int)
        for (a, b), w in weights.items():
            degree[a] += w
            degree[b] += w
        order = sorted(regs, key=lambda r: (-degree[r], r))

        rename: Dict[int, int] = {}
        used_ids: set[int] = set()
        for reg in order:
            new_id = self._pick_id(reg, rename, used_ids, weights, warp_id)
            rename[reg] = new_id
            used_ids.add(new_id)
        return rename

    def conflict_cost(self, trace: WarpTrace, warp_id: int = 0) -> int:
        """Number of same-bank source-operand pairs across the trace.

        The metric the allocator minimizes; exposed for tests and analysis.
        """
        cost = 0
        for inst in trace.instructions:
            banks = [self.mapper(r, warp_id, self.num_banks) for r in inst.src_regs]
            for i in range(len(banks)):
                for j in range(i + 1, len(banks)):
                    if banks[i] == banks[j]:
                        cost += 1
        return cost

    # -- internals ----------------------------------------------------------

    def _registers(self, trace: WarpTrace) -> List[int]:
        seen: set[int] = set()
        for inst in trace.instructions:
            seen.update(inst.registers())
        # int is totally ordered; the explicit key documents that the
        # result never depends on set hash order.
        return sorted(seen, key=int)

    def _cooccurrence(self, trace: WarpTrace) -> Dict[Tuple[int, int], int]:
        weights: Dict[Tuple[int, int], int] = defaultdict(int)
        for inst in trace.instructions:
            srcs = inst.src_regs
            for i in range(len(srcs)):
                for j in range(i + 1, len(srcs)):
                    a, b = sorted((srcs[i], srcs[j]))
                    if a != b:
                        weights[(a, b)] += 1
        return weights

    def _pick_id(
        self,
        reg: int,
        rename: Dict[int, int],
        used_ids: set[int],
        weights: Dict[Tuple[int, int], int],
        warp_id: int,
    ) -> int:
        # Weighted count of already-placed neighbours per bank.
        bank_pressure = [0] * self.num_banks
        for (a, b), w in weights.items():
            other = None
            if a == reg and b in rename:
                other = rename[b]
            elif b == reg and a in rename:
                other = rename[a]
            if other is not None:
                bank_pressure[self.mapper(other, warp_id, self.num_banks)] += w
        # Scan free ids in ascending order; take the first whose bank has the
        # minimum neighbour pressure (keeps ids compact, a real allocator goal).
        best_pressure = min(bank_pressure)
        candidate = 0
        while True:
            if candidate not in used_ids:
                bank = self.mapper(candidate, warp_id, self.num_banks)
                if bank_pressure[bank] == best_pressure:
                    return candidate
            candidate += 1
            if candidate > len(rename) + self.num_banks + reg + 1:
                # No id in a min-pressure bank is free within a compact
                # window; fall back to the lowest free id.
                candidate = 0
                while candidate in used_ids:
                    candidate += 1
                return candidate

    def _rename_inst(self, inst: Instruction, rename: Dict[int, int]) -> Instruction:
        return Instruction(
            opcode=inst.opcode,
            dst_reg=None if inst.dst_reg is None else rename[inst.dst_reg],
            src_regs=tuple(rename[r] for r in inst.src_regs),
            mem=inst.mem,
        )
