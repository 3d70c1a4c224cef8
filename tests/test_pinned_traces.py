"""Trace content is a contract: pinned digests of synthesized and lowered traces.

The result cache and the trace-code cache are keyed by ``PROFILE_VERSION``
and ``CODE_VERSION``, not by what the synthesizer and the lowering pass
actually produce, so a refactor of either that moved one register would
re-key nothing and silently change every figure.  The digests below hash a
canonical, Python-version-independent form of the trace of nine apps
(both TPC-H flavours, barrier and barrier-free, divergent, SFU, tensor and
shared-memory mixes) under the ``(warp_swizzle, 2)`` and ``(warp_swizzle,
4)`` bank layouts: per warp, ``(opcode.name, dst_reg, src_regs, mem
fields)`` of every instruction, then the compiled ``hazard_masks``,
``dst_bits``, ``unit_ids``, ``flags``, and the prewarmed bank rows.  Pickle
bytes are deliberately not pinned (Enum reduction differs across CPython
versions).

The values were printed by the commit before the allocation-lean build
path (PR 15).  A *deliberate* change to synthesis bumps
``PROFILE_VERSION``, one to the compiled form bumps ``CODE_VERSION``; both
re-pin this table (``python tests/test_pinned_traces.py`` prints it).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.regalloc import get_mapping
from repro.trace import compile_kernel
from repro.workloads import get_profile
from repro.workloads.synth import build_kernel

MAPPING = "warp_swizzle"

PINNED_TRACES = [
    ("tpcU-q8", 2, "86220377ce2d7ddebe9eeaa94ceef4cc922024c08e6f53f32bbb54279061446b"),
    ("tpcU-q8", 4, "a79d93b738cad038b642f3e6244d2ba3df5e051f2963323dc35a6392bbfeec89"),
    ("tpcC-q9", 2, "b1061e57ce30b78af61855c711987584cad1cfe5a8ff44c880d13c90ae81387a"),
    ("tpcC-q9", 4, "b230e38f8a4240eedb112a84623a37ac091608d63a6eea1a08fa7b467ce20ccc"),
    ("cg-lou", 2, "69e5c12a53a03f21102382fc8cb2139436c2cb1938f85bdbcb5013dcd457213c"),
    ("cg-lou", 4, "b979d1ed52c4e714a7e0d2953830a31b96411b341f716fea196c425dd1f88820"),
    ("pb-mriq", 2, "7496c2a7c1a5d12ffc795fc1b8f57697bb9d3bfa4444ac9ab6fed813cc73ba54"),
    ("pb-mriq", 4, "2e92264adbbde38c7acc17cc73b8682c4697bcec306e5430c228ff5658fe638a"),
    ("cutlass-256", 2, "6b9cb4dbea81793eb0d3530fe8fa7e82653c4587015e574e41185fe6be0c1e3f"),
    ("cutlass-256", 4, "6bd6a960a6adaf49a4789d38e47dfe22fb5012034c94b71b7b7f08acb555a12f"),
    ("db-rnn-tr", 2, "77a6228ec8ad9310df3a29b5ce6655e577f2b64f8b4c95f9645065ded77a3763"),
    ("db-rnn-tr", 4, "48997daa2e6bd1c736ad78818d2d5bd9b80cb6e3a497e73a4701104c47bbce16"),
    ("rod-bfs", 2, "699c06459518fee99e7fdd6662f1ffc9ce21bbcb2a33dd5e67139affea5fd642"),
    ("rod-bfs", 4, "d0fe388d48c740135d3a56de2c5ffa4c853c0f75d41fd27733fb5f86247eabe1"),
    ("rod-srad", 2, "11d536346fed6da189d70ca2a3e4499fc7a34f7ee0a99389300305f6cd696381"),
    ("rod-srad", 4, "591576e71e471284a8ca2472a409dbaa1a1cfb5069c233604cae603c77ac95c3"),
    ("ply-2Dcon", 2, "90ffabd234e0e99e4af3d74886f73b32eafd590e918bb40ed38b380e0c7fdabc"),
    ("ply-2Dcon", 4, "8ad333ae2083bd197ec82c199dca7c83501ae9ec300ef1877bd55dabd3c283be"),
]


@lru_cache(maxsize=1)
def _kernel(app: str):
    # The table lists an app's layouts together: one synthesis per app,
    # one kernel alive at a time.
    return build_kernel(get_profile(app))


def trace_digest(app: str, num_banks: int) -> str:
    """sha256 over the canonical form of ``app``'s trace under one layout."""
    kernel = _kernel(app)
    mapper = get_mapping(MAPPING)
    compile_kernel(kernel, mapper, num_banks)
    h = hashlib.sha256()

    def feed(*fields) -> None:
        h.update((" ".join(map(str, fields)) + "\n").encode("ascii"))

    feed(kernel.name, kernel.num_ctas, kernel.regs_per_thread,
         kernel.shared_mem_per_cta, kernel.shared_conflict_degree)
    # ``uniform`` kernels replicate one CTA by reference.
    assert all(cta is kernel.ctas[0] for cta in kernel.ctas)
    for trace in kernel.ctas[0].warps:
        feed("warp", len(trace))
        for inst in trace:
            mem = inst.mem
            feed(
                inst.opcode.name,
                inst.dst_reg,
                list(inst.src_regs),
                None if mem is None else (mem.base_address, mem.num_lines, mem.is_store),
            )
        code = trace._code
        for column in (code.hazard_masks, code.dst_bits, code.unit_ids, code.flags):
            feed(list(column))
        table = code.bank_table(mapper, num_banks)
        assert sorted(table._rows) == list(range(num_banks)), "bank rows not prewarmed"
        for residue in range(num_banks):
            feed([list(banks) for banks in table.row_for(residue)])
    return h.hexdigest()


@pytest.mark.parametrize("app, num_banks, expected", PINNED_TRACES)
def test_trace_content_is_pinned(app, num_banks, expected):
    assert trace_digest(app, num_banks) == expected


if __name__ == "__main__":
    for _app, _banks, _ in PINNED_TRACES:
        print(f'    ("{_app}", {_banks}, "{trace_digest(_app, _banks)}"),')
