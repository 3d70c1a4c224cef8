"""Golden-value regression tests.

The simulator is deterministic, so exact cycle counts for fixed scenarios
are stable; these tests pin them.  If a change to the timing model is
*intentional*, update the constants here — the diff then documents the
performance impact of the change.  If a change trips these without
touching the timing model, it introduced nondeterminism or an accidental
behavioural change.
"""

import hashlib

import pytest

from repro import (
    fully_connected,
    kepler,
    rba,
    simulate,
    srr,
    volta_v100,
)
from repro.experiments.designs import get_design
from repro.obs import Tracer
from repro.obs.chrome_trace import dumps_chrome_trace, iter_jsonl
from repro.obs.manifest import stats_digest
from repro.trace import TraceBuilder, make_kernel
from repro.workloads import fma_microbenchmark, get_kernel


def cycles(kernel, cfg):
    return simulate(kernel, cfg, num_sms=1).cycles


class TestGoldenMicrobench:
    def test_fma_baseline_volta(self):
        assert cycles(fma_microbenchmark("baseline", fmas=128), volta_v100()) == 609

    def test_fma_unbalanced_volta(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), volta_v100()) == 2145

    def test_fma_unbalanced_kepler(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), kepler()) == 607

    def test_fma_unbalanced_srr(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), srr()) == 612


class TestGoldenApps:
    def test_cg_lou_baseline(self):
        assert cycles(get_kernel("cg-lou"), volta_v100()) == 13147

    def test_cg_lou_rba(self):
        assert cycles(get_kernel("cg-lou"), rba()) == 10906

    def test_rod_nw_baseline(self):
        assert cycles(get_kernel("rod-nw"), volta_v100()) == 16156

    def test_pb_stencil_fully_connected(self):
        assert cycles(get_kernel("pb-stencil"), fully_connected()) == 18439


class TestGoldenPipeline:
    def test_single_fadd_latency(self):
        # issue t0, grants t0 (2 banks), dispatch t1, interval 2 + latency 4
        # -> writeback t7; EXIT waits for the scoreboard and issues t7;
        # run ends after cycle 7 -> 8 cycles total.
        k = make_kernel("one", [TraceBuilder().emit(
            __import__("repro.isa", fromlist=["fadd"]).fadd(8, 0, 1)
        ).build()])
        assert cycles(k, volta_v100()) == 8

    def test_single_ldg_latency(self):
        tb = TraceBuilder().global_load(dst=1, addr_reg=0, base_address=0)
        k = make_kernel("ld", [tb.build()])
        mem = volta_v100().memory
        got = cycles(k, volta_v100())
        # cold miss: L1 + L2 + DRAM latencies plus pipeline overheads
        floor = mem.l1_hit_latency + mem.l2_hit_latency + mem.dram_latency
        assert floor < got < floor + 50

    def test_instruction_count_exact(self):
        stats = simulate(
            fma_microbenchmark("baseline", fmas=64), volta_v100(), num_sms=1
        )
        # 8 warps x (64 FMA + BAR + EXIT)
        assert stats.instructions == 8 * 66


#: ``stats_digest`` of the designs no digest-checked grid drives: the
#: bank-stealing pass, the multi-slot issue loop of the fully-connected SM,
#: two-level selection and delayed RBA scores, with stall attribution off
#: and on, ``num_sms=1``.  Generated on the commit before ``repro.core`` was
#: de-twinned (one copy of each cycle-loop step); a moved digest means the
#: model changed.
DESIGN_DIGESTS = [
    ("bank_stealing", "cg-lou", False, "a7610adcc766a5fc"),
    ("bank_stealing", "cg-lou", True, "201b02b2ee1c152a"),
    ("bank_stealing", "tpcU-q8", False, "319cd1aa8d2a7895"),
    ("bank_stealing", "tpcU-q8", True, "d896381ce15b9358"),
    ("two_level", "cg-lou", False, "7dbc7f458ed87067"),
    ("two_level", "cg-lou", True, "c76606db4fb77495"),
    ("two_level", "tpcU-q8", False, "1315868cf04ca45d"),
    ("two_level", "tpcU-q8", True, "bf0b178842faa965"),
    ("fully_connected", "cg-lou", False, "306716b5bdac101d"),
    ("fully_connected", "cg-lou", True, "52f3a90c370b7686"),
    ("fully_connected", "tpcU-q8", False, "5ca8e4fbebc3b800"),
    ("fully_connected", "tpcU-q8", True, "7ba315ac9dfe87e4"),
    ("fc_rba", "cg-lou", False, "22b855afdd4e7b4b"),
    ("fc_rba", "cg-lou", True, "f4144d05ede3ee17"),
    ("fc_rba", "tpcU-q8", False, "e40b8c281489a763"),
    ("fc_rba", "tpcU-q8", True, "1509e34758046051"),
    ("rba_lat20", "cg-lou", False, "0c2b95a99ee8d327"),
    ("rba_lat20", "cg-lou", True, "d4ee2903b8f72ed3"),
    ("rba_lat20", "tpcU-q8", False, "f16582449ec3081f"),
    ("rba_lat20", "tpcU-q8", True, "247e4b3ef68893d1"),
]


class TestGoldenDesignDigests:
    @pytest.mark.parametrize("design,app,attribution,digest", DESIGN_DIGESTS)
    def test_stats_digest(self, design, app, attribution, digest):
        cfg = get_design(design).replace(stall_attribution=attribution)
        stats = simulate(get_kernel(app), cfg, num_sms=1)
        assert stats_digest(stats.to_payload()) == digest
        if design == "bank_stealing":
            assert sum(sm.steals for sm in stats.sms) > 0

    def test_bank_stealing_event_stream(self):
        # The steal pass emits warp_issue events too; the exported stream
        # pins which events it emits and in what order.
        tracer = Tracer()
        simulate(get_kernel("cg-lou"), get_design("bank_stealing"), num_sms=1, tracer=tracer)
        sha = hashlib.sha256()
        for line in iter_jsonl(tracer):
            sha.update(line.encode("utf-8") + b"\n")
        assert len(tracer) == 82828
        assert sha.hexdigest() == (
            "205c80186b6811fbb6ee911a738b7c3e132b54b59261338c1c8edcaac3d706ea"
        )
        # The same stream as a Chrome-trace document: pins the exporter's
        # bytes (track metadata, event order, key order, separators).
        doc = dumps_chrome_trace(tracer).encode("utf-8")
        assert len(doc) == 7800035
        assert hashlib.sha256(doc).hexdigest() == (
            "985a6ff2f710d05c17f5454270926b83ea411e813885a449ab71179eb928cd09"
        )

    def test_bank_stealing_capped_event_stream(self):
        # ``max_cycles`` keeps the events before the cap and counts the rest.
        tracer = Tracer(max_cycles=2000)
        simulate(get_kernel("cg-lou"), get_design("bank_stealing"), num_sms=1, tracer=tracer)
        sha = hashlib.sha256()
        for line in iter_jsonl(tracer):
            sha.update(line.encode("utf-8") + b"\n")
        assert (len(tracer), tracer.dropped) == (16808, 66020)
        assert sha.hexdigest() == (
            "ae28d5f65d6cd5ac0388debd61ce759919a81654f18a48fee31aa36e42d2f2d4"
        )
