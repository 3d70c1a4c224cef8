"""Failures are counted, reported and turned into a non-zero exit code."""

import itertools

import pytest

import perfbench.__main__ as cli
from perfbench import env, harness, report, spec, workloads


def _corrupting_digest(monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(workloads, "stats_digest", lambda payload: f"corrupt-{next(counter)}")


def test_corrupted_digest_fails_ops_and_the_command(monkeypatch, capsys):
    _corrupting_digest(monkeypatch)

    def in_process(name, args, traced):
        return harness.run_workload(workloads.make(name, smoke=True), args.seed, args.seconds, traced)

    monkeypatch.setattr(cli, "run_section", in_process)
    code = cli.main(["--smoke", "--workload", spec.TRACE_BUILD])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAILED:" in out and "failed_share 0\n" not in out


def test_round_digest_mismatch_is_an_op_failure():
    ops = harness.Ops()
    rounds = [harness.Round(1.0, digests={"a": "1", "b": "2"}), harness.Round(1.0, digests={"a": "1", "b": "3"})]
    harness.check_rounds_identical(ops, rounds)
    assert list(ops.failed) == ["b#r2"]


def test_op_counts_and_swallows_exceptions_but_not_interrupts():
    ops = harness.Ops()
    ctx = harness.Ctx(0, None, 1, harness.Recorder("w"), ops)
    with ctx.op("boom") as op:
        raise ValueError("x")
    assert not op.ok and ops.attempted == 1 and "boom" in ops.failed
    with pytest.raises(KeyboardInterrupt):
        with ctx.op("ctrl-c"):
            raise KeyboardInterrupt


def test_cache_guard_sees_a_touched_default_directory(tmp_path):
    (tmp_path / "trace-code").mkdir()
    guard = env.CacheGuard(roots=[tmp_path])
    assert guard.changed() == []
    (tmp_path / "trace-code" / "x.code.pkl").write_bytes(b"warm")
    assert guard.changed() == [str(tmp_path)]


def test_scratch_is_removed_on_interrupt():
    with pytest.raises(KeyboardInterrupt):
        with env.scratch() as tmp:
            (tmp / "cache").mkdir()
            raise KeyboardInterrupt
    assert not tmp.exists()


def test_more_workers_than_cpus_is_refused():
    assert env.engine_workers(None) == min(2, env.nproc())
    with pytest.raises(SystemExit):
        env.engine_workers(env.nproc() + 1)


def test_loaded_host_warns_in_the_report(monkeypatch):
    monkeypatch.setattr(env.os, "getloadavg", lambda: (env.nproc() * 0.5 + 0.1, 0.0, 0.0))
    assert env.host_record(1)["warnings"]
    monkeypatch.setattr(env.os, "getloadavg", lambda: (0.0, 0.0, 0.0))
    assert env.host_record(1)["warnings"] == []


def _report(wall, samples, digest="d", failed=0):
    section = {
        "attempted": 4, "failed": failed, "failures": [], "model_digest": digest,
        "metrics": {
            "wall_s": harness._entry(spec.END_TO_END["wall_s"], wall, samples),
            "failed_share": harness._entry(spec.END_TO_END["failed_share"], failed / 4),
        },
        "layers": {"gpu.sim_cycles": {"value": 100.0, "unit": "count"}},
    }
    return report.assemble({spec.LOOP_DENSE: section}, {"seed": 0})


def test_agree_verdicts():
    bound = spec.END_TO_END["wall_s"].bound
    base = _report(1.00, [0.99, 1.00, 1.01])
    near = 1.0 + bound / 2
    rows, good = report.agree(base, _report(near, [near - 0.01, near, near + 0.01]))
    assert good and any(r.rstrip().endswith(" ok") and "wall_s" in r for r in rows)
    far = 1.0 + bound + 0.05
    rows, good = report.agree(base, _report(far, [far - 0.01, far, far + 0.01]))
    assert not good and any("worse" in r for r in rows)
    rows, good = report.agree(base, _report(1.02, [1.02 - 2 * bound, 1.02, 1.02 + 2 * bound]))
    assert good and any("unresolved" in r for r in rows)
    rows, good = report.agree(base, _report(1.00, [0.99, 1.00, 1.01], digest="other"))
    assert not good and any("model_digest" in r and "differs" in r for r in rows)
    rows, good = report.agree(base, _report(1.00, [0.99, 1.00, 1.01], failed=1))
    assert not good
    changed = _report(1.00, [0.99, 1.00, 1.01])
    changed["workloads"][spec.LOOP_DENSE]["layers"]["gpu.sim_cycles"]["value"] = 101.0
    rows, good = report.agree(base, changed)
    assert not good and any("gpu.sim_cycles" in r and "differs" in r for r in rows)
