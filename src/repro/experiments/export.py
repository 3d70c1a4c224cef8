"""Machine-readable export of simulation and experiment results.

The figure harnesses print human tables; this module serializes the same
data as JSON so downstream tooling (plotting, regression tracking) can
consume it.  Everything here is plain-stdlib JSON — dataclasses are
flattened and numpy scalars coerced, so a figure's result (a dataclass, or
plain rows) serializes as it is.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from ..metrics.stats import SimStats


def _coerce(value: Any) -> Any:
    """Make a value JSON-serializable."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _coerce(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stats_to_dict(stats: SimStats, include_timeline: bool = False) -> dict:
    """Flatten a :class:`SimStats` (plus derived metrics) to a dict."""
    out = _coerce(stats)
    if not include_timeline:
        for sm in out["sms"]:
            sm.pop("rf_read_timeline", None)
    out["derived"] = {
        "ipc": stats.ipc,
        "issue_cov": stats.issue_cov(),
        "rf_reads_per_cycle": stats.rf_reads_per_cycle(),
        "bank_conflict_cycles": stats.bank_conflict_cycles(),
    }
    return out


def dump_json(obj: Any, path=None, indent: int = 2) -> str:
    """Serialize a stats/result object; optionally write it to ``path``."""
    payload = stats_to_dict(obj) if isinstance(obj, SimStats) else _coerce(obj)
    text = json.dumps(payload, indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
