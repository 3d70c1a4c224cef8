"""Span bookkeeping: parents, self time, layers, and the no-retention rule."""

from perfbench.spans import Recorder


def _tree(rec):
    with rec.span("round", op="r1"):
        with rec.span("op", op="a#r1"):
            with rec.span("gpu.construct"):
                pass
            with rec.span("gpu.run"):
                pass
        rec.add("cli.import", 1.0, 1.5)


def test_disabled_recorder_times_but_keeps_nothing():
    rec = Recorder("w")
    with rec.span("gpu.run") as span:
        pass
    assert span.seconds >= 0 and rec.spans == []
    rec.add("cli.import", 0.0, 1.0)
    assert rec.spans == []


def test_parents_ops_and_self_time():
    rec = Recorder("w")
    rec.enabled = True
    _tree(rec)
    round_, op, construct, run, imported = rec.spans
    assert (op.parent, construct.parent, run.parent, imported.parent) == (round_.id, op.id, op.id, round_.id)
    assert construct.op == run.op == "a#r1" and imported.op == "r1"
    own = rec.self_seconds()
    assert abs(own[op.id] - (op.seconds - construct.seconds - run.seconds)) < 1e-12
    assert abs(own[round_.id] - (round_.seconds - op.seconds - 0.5)) < 1e-12
    assert own[run.id] == run.seconds


def test_self_time_arithmetic_on_fixed_numbers():
    rec = Recorder("w")
    rec.enabled = True
    with rec.span("op"):
        rec.add("gpu.run", 10.0, 13.0)
        rec.add("gpu.construct", 13.0, 14.0)
    rec.spans[0].start, rec.spans[0].end = 9.0, 15.0
    assert rec.self_seconds() == {0: 2.0, 1: 3.0, 2: 1.0}
    assert rec.layer_self_seconds() == {"op": 2.0, "gpu": 4.0}
    assert rec.mean_ms("gpu.run") == 3000.0
