"""The runtime invariant sanitizer: clean runs, fault injection, stats checks.

Fault-injection tests corrupt one model counter and assert that the
sanitizer raises an :class:`InvariantViolation` carrying the right
structured payload (invariant name, cycle, SM, sub-core, counter) — that
payload is the debugging contract the sanitizer exists for.
"""

import json
from types import SimpleNamespace

import pytest

from repro.analysis import InvariantViolation, Sanitizer
from repro.analysis.smoke import run_smoke_grid
from repro.config import volta_v100
from repro.gpu import GPU, simulate

from .conftest import simple_kernel


@pytest.fixture
def sanitized_config():
    return volta_v100().replace(num_sms=1, sanitize=True)


def _clean_run(config):
    gpu = GPU(config=config)
    stats = gpu.run(simple_kernel())
    return gpu, stats


# -- clean behaviour ---------------------------------------------------------

def test_clean_run_passes_and_checks_fire(sanitized_config):
    gpu, stats = _clean_run(sanitized_config)
    assert stats.instructions > 0
    sm = gpu.sms[0]
    assert sm.sanitizer is not None
    assert sm.sanitizer.checks_run > 0


def test_sanitizer_absent_when_disabled():
    gpu = GPU(config=volta_v100().replace(num_sms=1))
    assert all(sm.sanitizer is None for sm in gpu.sms)


def test_sanitized_stats_byte_identical_to_plain(sanitized_config):
    kernel = simple_kernel()
    sanitized = simulate(kernel, sanitized_config)
    plain = simulate(kernel, sanitized_config.replace(sanitize=False))
    assert json.dumps(sanitized.to_payload(), sort_keys=True) == json.dumps(
        plain.to_payload(), sort_keys=True
    )


# -- fault injection: per-cycle checks during a run --------------------------

def test_register_leak_raises_rf_conservation(sanitized_config):
    gpu = GPU(config=sanitized_config)
    gpu.sms[0].subcores[0].registers_used += 8
    with pytest.raises(InvariantViolation) as exc_info:
        gpu.run(simple_kernel())
    exc = exc_info.value
    assert exc.invariant == "rf-conservation"
    assert exc.counter == "registers_used"
    assert exc.sm_id == 0
    assert exc.cycle is not None
    assert exc.actual == exc.expected + 8


def test_instruction_counter_skew_raises_issue_accounting(sanitized_config):
    gpu = GPU(config=sanitized_config)
    gpu.sms[0].total_instructions += 7
    with pytest.raises(InvariantViolation) as exc_info:
        gpu.run(simple_kernel())
    exc = exc_info.value
    assert exc.invariant == "issue-accounting"
    assert exc.counter == "total_instructions"
    assert exc.sm_id == 0


def test_free_cu_with_pending_operands_raises(sanitized_config):
    # Injected after the run: a mid-run injection would be overwritten the
    # moment the scheduler legitimately allocates this CU.
    gpu, _ = _clean_run(sanitized_config)
    sm = gpu.sms[0]
    sm.subcores[1].collector_units[0].pending_operands = 3
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.check_sm(sm, now=gpu.now)
    exc = exc_info.value
    assert exc.invariant == "cu-occupancy"
    assert exc.counter == "pending_operands"
    assert exc.subcore_id == 1
    assert exc.actual == 3


def test_arbitration_pending_skew_raises(sanitized_config):
    # Injected after the run: GPU.run now resets transient arbitration
    # state at launch (begin_run), so a pre-run injection would be wiped
    # before the first sanitized cycle.
    gpu, _ = _clean_run(sanitized_config)
    sm = gpu.sms[0]
    sm.subcores[2].arbitration.pending += 1
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.check_sm(sm, now=gpu.now)
    exc = exc_info.value
    assert exc.invariant == "arbitration-accounting"
    assert exc.subcore_id == 2


def test_stale_scheduler_pointer_raises(sanitized_config):
    gpu, _ = _clean_run(sanitized_config)
    sm = gpu.sms[0]
    ghost = SimpleNamespace(warp_id=999)
    sm.subcores[3].scheduler.last_issued = ghost
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.check_sm(sm, now=1234)
    exc = exc_info.value
    assert exc.invariant == "scheduler-state"
    assert exc.cycle == 1234
    assert exc.subcore_id == 3
    assert exc.actual == 999


def _wedge_all_warps(sm):
    """Put every resident warp into a state no future event can wake.

    Each warp gets a phantom pending writeback that is never scheduled on
    the SM's writeback heap — the exact shape of a scoreboard deadlock
    (e.g. a lost memory completion event).
    """
    from repro.core.warp import WarpState

    for sc in sm.subcores:
        for w in sc.warps:
            w._pending |= 1 << 99
            w.set_state(WarpState.BLOCKED)


def test_wedged_sm_raises_liveness(sanitized_config):
    # Resident CTAs must always imply a next event: construct the hung
    # state (all warps blocked, writeback heap empty) and assert both the
    # next_event symptom and the sanitizer diagnosis.
    gpu = GPU(config=sanitized_config)
    sm = gpu.sms[0]
    k = simple_kernel()
    assert sm.try_allocate_cta(k, k.ctas[0], cta_id=0, now=0)
    _wedge_all_warps(sm)
    assert not sm._wb_heap
    assert sm.next_event(0) is None  # the idle-hang edge itself
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.check_sm(sm, now=7)
    exc = exc_info.value
    assert exc.invariant == "liveness"
    assert exc.counter == "next_event"
    assert exc.cycle == 7
    assert exc.sm_id == 0


def test_live_sm_passes_liveness(sanitized_config):
    # The same freshly-filled SM *with* runnable warps must not trip it.
    gpu = GPU(config=sanitized_config)
    sm = gpu.sms[0]
    k = simple_kernel()
    assert sm.try_allocate_cta(k, k.ctas[0], cta_id=0, now=0)
    assert sm.next_event(0) is not None
    sm.sanitizer.check_sm(sm, now=0)  # must not raise


# -- fault injection: end-of-kernel drain checks -----------------------------

def test_lost_warp_raises_warp_conservation_at_end(sanitized_config):
    gpu, _ = _clean_run(sanitized_config)
    sm = gpu.sms[0]
    sm._warp_id_counter += 1
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.end_of_kernel(sm, now=gpu.now)
    exc = exc_info.value
    assert exc.invariant == "warp-conservation"
    assert exc.counter == "warps"
    assert exc.expected == exc.actual + 1


def test_undrained_collector_unit_raises_at_end(sanitized_config):
    gpu, _ = _clean_run(sanitized_config)
    sm = gpu.sms[0]
    cu = sm.subcores[0].collector_units[0]
    cu.warp = SimpleNamespace(warp_id=0)  # a CU is occupied when it has a warp
    with pytest.raises(InvariantViolation) as exc_info:
        sm.sanitizer.end_of_kernel(sm, now=gpu.now)
    exc = exc_info.value
    assert exc.invariant == "drain-collector-units"
    assert exc.subcore_id == 0
    assert exc.actual == 1


# -- fault injection: collected-stats conservation ---------------------------

def test_stats_instruction_mismatch_raises(sanitized_config):
    gpu, stats = _clean_run(sanitized_config)
    stats.instructions += 1
    with pytest.raises(InvariantViolation) as exc_info:
        gpu.sms[0].sanitizer.check_run_stats(stats)
    exc = exc_info.value
    assert exc.invariant == "stats-conservation"
    assert "instruction total" in str(exc)


def test_stats_negative_delta_raises(sanitized_config):
    gpu, stats = _clean_run(sanitized_config)
    stats.sms[0].rf_reads = -1
    with pytest.raises(InvariantViolation) as exc_info:
        Sanitizer(sanitized_config).check_run_stats(stats)
    assert "rf_reads" in str(exc_info.value)


def test_violation_message_names_location():
    exc = InvariantViolation(
        "rf-conservation",
        "charges do not match",
        cycle=42,
        sm_id=3,
        subcore_id=1,
        counter="registers_used",
        expected=256,
        actual=264,
    )
    text = str(exc)
    assert "[rf-conservation]" in text
    assert "cycle 42" in text
    assert "SM 3" in text
    assert "sub-core 1" in text
    assert "counter=registers_used" in text
    assert "expected=256" in text and "actual=264" in text


# -- the smoke grid (the CI gate, exercised through the library API) ---------

def test_smoke_single_point_is_clean_and_identical():
    report = run_smoke_grid(apps=["cg-lou"], designs=["baseline"])
    assert report.ok
    (point,) = report.points
    assert point.bytes_identical
    assert point.checks_run > 0


@pytest.mark.slow
def test_smoke_full_grid_is_clean_and_identical():
    """The acceptance grid: 3 workloads x 5 designs, zero violations."""
    report = run_smoke_grid()
    assert len(report.points) == 15
    assert report.ok
    assert all(p.bytes_identical and p.checks_run > 0 for p in report.points)
