"""The unified run dashboard: one static HTML file, no dependencies.

``python -m repro.obs --dashboard`` merges whatever run artifacts exist
into a single report that answers *what ran, how fast, where did the
cycles go, and is it getting faster*:

* **run manifests** (``manifest.jsonl``) — points by resolution source,
  simulation wall time, structured warnings, digest-mismatch detection
  (the first sign of a nondeterminism regression);
* **bench reports** (``BENCH_*.json``) — the committed performance
  trajectory via :mod:`repro.bench.history`, plus stacked
  stall-attribution bars from the newest report carrying stage shares;
* **metrics exports** (``metrics.json``) — the run's counter/gauge/
  histogram series;
* **status files** (``status.json``) — the last heartbeat of a live run.

Inputs are classified by shape (:func:`classify_input`), validated with
the same validators CI gates on, and rendering is pure — the same inputs
always produce byte-identical HTML (no timestamps), so the dashboard can
be diffed and cached like any other build artifact.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from .heartbeat import validate_status
from .journal import validate_journal_record
from .manifest import validate_manifest_record
from .metrics import validate_metrics_json
from .stall import STALL_BUCKETS

#: Categorical palette, one slot per stall bucket in STALL_BUCKETS order.
#: Fixed assignment (never cycled); light/dark pairs are the validated
#: 8-slot reference palette.
_SERIES = (
    ("#2a78d6", "#3987e5"),
    ("#eb6834", "#d95926"),
    ("#1baf7a", "#199e70"),
    ("#eda100", "#c98500"),
    ("#e87ba4", "#d55181"),
    ("#008300", "#008300"),
    ("#4a3aa7", "#9085e9"),
    ("#e34948", "#e66767"),
)


def classify_input(path: Union[str, Path]) -> Tuple[str, Any]:
    """Classify one artifact by shape; returns ``(kind, payload)``.

    Kinds: ``manifest`` (JSONL of run records), ``journal`` (JSONL run
    journal — key/digest checkpoints without a ``source``), ``events``
    (JSONL event stream), ``bench`` (a BENCH report), ``metrics`` (a
    metrics JSON export), ``status`` (a heartbeat document), ``trace``
    (Chrome-trace JSON), ``error`` (unreadable; payload is the message).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return "error", f"{path}: unreadable: {exc}"
    if path.suffix == ".jsonl":
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                return "error", f"{path}: line {lineno}: {exc}"
        first = records[0] if records else {}
        if isinstance(first, dict) and "e" in first and "t" in first:
            return "events", records
        if (
            isinstance(first, dict)
            and "key" in first
            and "digest" in first
            and "source" not in first
        ):
            return "journal", records
        return "manifest", records
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return "error", f"{path}: {exc}"
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return "trace", doc
        if "metrics" in doc and "schema" in doc:
            return "metrics", doc
        if "state" in doc and "schema" in doc:
            return "status", doc
        if "suite" in doc and "points" in doc:
            return "bench", doc
    return "error", f"{path}: unrecognized artifact shape"


def collect_inputs(paths: Sequence[Union[str, Path]]) -> Dict[str, Any]:
    """Classify and validate every input; returns the dashboard model."""
    model: Dict[str, Any] = {
        "manifests": [],   # (path, records)
        "journals": [],    # (path, records)
        "bench": [],       # (path, report)
        "metrics": [],     # (path, doc)
        "status": [],      # (path, doc)
        "skipped": [],     # (path, kind)
        "problems": [],    # strings
    }
    for raw in paths:
        kind, payload = classify_input(raw)
        name = str(raw)
        if kind == "error":
            model["problems"].append(str(payload))
        elif kind == "manifest":
            for i, record in enumerate(payload, start=1):
                status, problems = validate_manifest_record(record)
                if status == "error":
                    model["problems"].append(
                        f"{name}: record {i}: "
                        + (problems[0] if problems else "invalid")
                    )
            model["manifests"].append((name, payload))
        elif kind == "journal":
            for i, record in enumerate(payload, start=1):
                problems = validate_journal_record(record)
                if problems:
                    model["problems"].append(f"{name}: record {i}: {problems[0]}")
            model["journals"].append((name, payload))
        elif kind == "bench":
            from ..bench.schema import validate_report

            problems = validate_report(payload)
            if problems:
                model["problems"].append(f"{name}: {problems[0]}")
            else:
                model["bench"].append((name, payload))
        elif kind == "metrics":
            problems = validate_metrics_json(payload)
            if problems:
                model["problems"].append(f"{name}: {problems[0]}")
            else:
                model["metrics"].append((name, payload))
        elif kind == "status":
            problems = validate_status(payload)
            if problems:
                model["problems"].append(f"{name}: {problems[0]}")
            else:
                model["status"].append((name, payload))
        else:
            model["skipped"].append((name, kind))
    return model


def manifest_summary(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Counts, wall time, warnings and digest mismatches of one manifest."""
    by_source: Dict[str, int] = {}
    seconds = 0.0
    warnings: List[Dict[str, Any]] = []
    digests: Dict[str, set] = {}
    for record in records:
        source = record.get("source", "?")
        by_source[source] = by_source.get(source, 0) + 1
        if source == "warning":
            warnings.append(record)
            continue
        if isinstance(record.get("seconds"), (int, float)):
            seconds += record["seconds"]
        key = record.get("key")
        digest = record.get("digest")
        if isinstance(key, str) and isinstance(digest, str):
            digests.setdefault(key, set()).add(digest)
    mismatched = sorted(k for k, seen in digests.items() if len(seen) > 1)
    return {
        "records": len(records),
        "by_source": by_source,
        "sim_seconds": seconds,
        "warnings": warnings,
        "digest_mismatches": mismatched,
    }


# -- HTML rendering -----------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --page:          #f9f9f7;
  --surface-1:     #fcfcfb;
  --text-primary:  #0b0b0b;
  --text-secondary:#52514e;
  --text-muted:    #898781;
  --gridline:      #e1e0d9;
  --border:        rgba(11,11,11,0.10);
  --good:          #006300;
  --critical:      #d03b3b;
__LIGHT_SERIES__
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:          #0d0d0d;
    --surface-1:     #1a1a19;
    --text-primary:  #ffffff;
    --text-secondary:#c3c2b7;
    --text-muted:    #898781;
    --gridline:      #2c2c2a;
    --border:        rgba(255,255,255,0.10);
    --good:          #0ca30c;
    --critical:      #d03b3b;
__DARK_SERIES__
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:          #0d0d0d;
  --surface-1:     #1a1a19;
  --text-primary:  #ffffff;
  --text-secondary:#c3c2b7;
  --text-muted:    #898781;
  --gridline:      #2c2c2a;
  --border:        rgba(255,255,255,0.10);
  --good:          #0ca30c;
  --critical:      #d03b3b;
__DARK_SERIES__
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.viz-root h2 {
  font-size: 14px; font-weight: 600; margin: 28px 0 10px;
  color: var(--text-primary);
}
.viz-root .subtitle { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.viz-root section {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px 20px;
  margin-bottom: 16px;
}
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 24px; }
.viz-root .tile .label { font-size: 12px; color: var(--text-secondary); }
.viz-root .tile .value { font-size: 24px; font-weight: 600; }
.viz-root .tile .value.bad { color: var(--critical); }
.viz-root table { border-collapse: collapse; font-size: 13px; width: 100%; }
.viz-root th {
  text-align: left; font-weight: 600; color: var(--text-secondary);
  border-bottom: 1px solid var(--gridline); padding: 4px 12px 4px 0;
}
.viz-root td {
  padding: 4px 12px 4px 0; border-bottom: 1px solid var(--gridline);
  color: var(--text-primary);
}
.viz-root td.num, .viz-root th.num {
  text-align: right; font-variant-numeric: tabular-nums;
}
.viz-root td.good { color: var(--good); }
.viz-root td.bad { color: var(--critical); }
.viz-root .bar-row { display: flex; align-items: center; margin: 6px 0; }
.viz-root .bar-label {
  width: 180px; flex: none; font-size: 12px; color: var(--text-secondary);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
}
.viz-root .bar {
  display: flex; gap: 2px; height: 16px; flex: 1; min-width: 0;
}
.viz-root .bar .seg { border-radius: 0; }
.viz-root .bar .seg:last-child { border-radius: 0 4px 4px 0; }
.viz-root .legend {
  display: flex; flex-wrap: wrap; gap: 14px; margin-top: 12px;
  font-size: 12px; color: var(--text-secondary);
}
.viz-root .legend .key { display: flex; align-items: center; gap: 5px; }
.viz-root .legend .swatch {
  width: 10px; height: 10px; border-radius: 2px; display: inline-block;
}
.viz-root .problem { color: var(--critical); font-size: 13px; margin: 3px 0; }
.viz-root .muted { color: var(--text-muted); font-size: 12px; }
"""


def _css() -> str:
    light = "\n".join(
        f"  --series-{i + 1}: {pair[0]};" for i, pair in enumerate(_SERIES)
    )
    dark = "\n".join(
        f"    --series-{i + 1}: {pair[1]};" for i, pair in enumerate(_SERIES)
    )
    return _CSS.replace("__LIGHT_SERIES__", light).replace("__DARK_SERIES__", dark)


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _tile(label: str, value: str, bad: bool = False) -> str:
    cls = "value bad" if bad else "value"
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="{cls}">{_esc(value)}</div></div>'
    )


def _render_manifests(model: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for name, records in model["manifests"]:
        info = manifest_summary(records)
        out.append("<section>")
        out.append(f"<h2>run manifest — {_esc(Path(name).name)}</h2>")
        out.append('<div class="tiles">')
        out.append(_tile("records", str(info["records"])))
        for source in ("memory", "disk", "sim", "retry", "compile"):
            if info["by_source"].get(source):
                out.append(_tile(source, str(info["by_source"][source])))
        out.append(_tile("sim wall time", f"{info['sim_seconds']:.2f}s"))
        out.append(
            _tile(
                "digest mismatches",
                str(len(info["digest_mismatches"])),
                bad=bool(info["digest_mismatches"]),
            )
        )
        out.append(
            _tile(
                "warnings",
                str(len(info["warnings"])),
                bad=bool(info["warnings"]),
            )
        )
        out.append("</div>")
        for key in info["digest_mismatches"]:
            out.append(
                f'<p class="problem">digest mismatch for key '
                f"{_esc(key[:16])}… — nondeterminism suspect</p>"
            )
        for warning in info["warnings"]:
            out.append(
                f'<p class="problem">warning [{_esc(warning.get("kind", "?"))}] '
                f"{_esc(warning.get('detail', ''))}</p>"
            )
        out.append("</section>")
    return out


def _render_stall_bars(model: Dict[str, Any]) -> List[str]:
    staged = [
        (name, report)
        for name, report in model["bench"]
        if any(p.get("stall_shares") for p in report["points"])
    ]
    if not staged:
        return []
    # Newest report in history order: the last one after the same sort
    # the trajectory uses.
    from ..bench.history import _order_key

    name, report = sorted(staged, key=lambda item: _order_key(item[0]))[-1]
    out = ["<section>"]
    out.append(
        f"<h2>where the issue slots went — {_esc(Path(name).name)}</h2>"
    )
    for point in report["points"]:
        shares = point.get("stall_shares")
        if not shares:
            continue
        out.append('<div class="bar-row">')
        out.append(f'<div class="bar-label">{_esc(point["name"])}</div>')
        out.append('<div class="bar">')
        for i, bucket in enumerate(STALL_BUCKETS):
            share = float(shares.get(bucket, 0.0))
            if share <= 0:
                continue
            out.append(
                f'<div class="seg" style="width:{share * 100:.2f}%;'
                f"background:var(--series-{i + 1})\" "
                f'title="{_esc(bucket)}: {share:.1%}"></div>'
            )
        out.append("</div></div>")
    out.append('<div class="legend">')
    for i, bucket in enumerate(STALL_BUCKETS):
        out.append(
            f'<span class="key"><span class="swatch" '
            f'style="background:var(--series-{i + 1})"></span>'
            f"{_esc(bucket)}</span>"
        )
    out.append("</div>")
    out.append("</section>")
    return out


def _render_trajectory(model: Dict[str, Any]) -> List[str]:
    if not model["bench"]:
        return []
    from ..bench.history import load_history

    rows, problems = load_history([name for name, _ in model["bench"]])
    out = ["<section>", "<h2>performance trajectory</h2>"]
    for problem in problems:
        out.append(f'<p class="problem">{_esc(problem)}</p>')
    out.append("<table>")
    out.append(
        "<tr><th>report</th><th>suite</th><th>sim</th>"
        '<th class="num">points</th><th class="num">norm cycles/s</th>'
        '<th class="num">vs prev</th></tr>'
    )
    for row in rows:
        ratio = row["ratio"]
        if ratio is None:
            vs, cls = "—", "num"
        else:
            vs = f"{ratio:.2f}×"
            cls = "num good" if ratio >= 1.0 else "num bad"
        out.append(
            f"<tr><td>{_esc(row['name'])}</td><td>{_esc(row['suite'])}</td>"
            f"<td>{_esc(row['sim_version'])}</td>"
            f'<td class="num">{row["points"]}</td>'
            f'<td class="num">{row["normalized_cycles_per_sec"]:.5g}</td>'
            f'<td class="{cls}">{_esc(vs)}</td></tr>'
        )
    out.append("</table>")
    out.append("</section>")
    return out


def _render_journals(model: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for name, records in model["journals"]:
        keys = set()
        for record in records:
            key = record.get("key")
            if isinstance(key, str):
                keys.add(key)
        out.append("<section>")
        out.append(f"<h2>run journal — {_esc(Path(name).name)}</h2>")
        out.append('<div class="tiles">')
        out.append(_tile("checkpointed points", str(len(keys))))
        out.append(_tile("journal records", str(len(records))))
        out.append("</div>")
        out.append(
            '<p class="muted">points already earned by this run; '
            "<code>python -m repro --resume</code> re-simulates only the "
            "rest</p>"
        )
        out.append("</section>")
    return out


def _render_status(model: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for name, doc in model["status"]:
        stale = sorted(
            worker
            for worker, entry in doc["workers"].items()
            if entry.get("stale")
        )
        out.append("<section>")
        out.append(f"<h2>run health — {_esc(Path(name).name)}</h2>")
        out.append('<div class="tiles">')
        out.append(
            _tile(
                "state",
                doc["state"],
                bad=bool(stale) or doc["state"] == "interrupted",
            )
        )
        out.append(_tile("done", f"{doc['done']}/{doc['total']}"))
        out.append(_tile("failed", str(doc["failed"]), bad=doc["failed"] > 0))
        out.append(_tile("in flight", str(doc["in_flight"])))
        if doc.get("points_per_sec"):
            out.append(
                _tile("points/sec", f"{doc['points_per_sec']:.2f}")
            )
        eta = doc.get("eta_seconds")
        if eta is not None:
            out.append(_tile("ETA", f"{eta:.0f}s"))
        out.append(
            _tile("stale workers", str(len(stale)), bad=bool(stale))
        )
        out.append("</div>")
        for worker in stale:
            out.append(
                f'<p class="problem">worker {_esc(worker)} exceeded its '
                "chunk deadline without progress</p>"
            )
        out.append("</section>")
    return out


def _render_metrics(model: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for name, doc in model["metrics"]:
        out.append("<section>")
        out.append(f"<h2>metrics — {_esc(Path(name).name)}</h2>")
        out.append("<table>")
        out.append(
            "<tr><th>metric</th><th>type</th><th>labels</th>"
            '<th class="num">value</th></tr>'
        )
        for entry in doc["metrics"]:
            for sample in entry["samples"]:
                labels = ", ".join(
                    f"{k}={v}" for k, v in sorted(sample["labels"].items())
                )
                if entry["type"] == "histogram":
                    value = (
                        f"n={sample['count']}, sum={sample['sum']:.4g}"
                    )
                else:
                    value = f"{sample['value']:.6g}"
                out.append(
                    f"<tr><td>{_esc(entry['name'])}</td>"
                    f"<td>{_esc(entry['type'])}</td>"
                    f"<td>{_esc(labels) or '—'}</td>"
                    f'<td class="num">{_esc(value)}</td></tr>'
                )
        out.append("</table>")
        out.append("</section>")
    return out


def render_dashboard(model: Dict[str, Any]) -> str:
    """The full HTML document for one collected input model."""
    body: List[str] = []
    body.append("<h1>repro run telemetry</h1>")
    counted = (
        f"{len(model['manifests'])} manifest(s), "
        f"{len(model['journals'])} journal(s), "
        f"{len(model['bench'])} bench report(s), "
        f"{len(model['metrics'])} metrics export(s), "
        f"{len(model['status'])} status file(s)"
    )
    body.append(f'<p class="subtitle">{_esc(counted)}</p>')
    if model["problems"]:
        body.append("<section>")
        body.append("<h2>input problems</h2>")
        for problem in model["problems"]:
            body.append(f'<p class="problem">{_esc(problem)}</p>')
        body.append("</section>")
    body.extend(_render_status(model))
    body.extend(_render_manifests(model))
    body.extend(_render_journals(model))
    body.extend(_render_stall_bars(model))
    body.extend(_render_trajectory(model))
    body.extend(_render_metrics(model))
    if model["skipped"]:
        names = ", ".join(f"{n} ({k})" for n, k in model["skipped"])
        body.append(
            f'<p class="muted">not rendered (trace/event artifacts): '
            f"{_esc(names)}</p>"
        )
    if len(body) == 2:
        body.append('<p class="muted">no inputs recognized</p>')
    joined = "\n".join(body)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>repro run telemetry</title>\n"
        f"<style>{_css()}</style>\n"
        "</head>\n"
        f'<body class="viz-root">\n{joined}\n</body>\n</html>\n'
    )


def build_dashboard(
    paths: Sequence[Union[str, Path]],
    out: Union[str, Path],
) -> Dict[str, Any]:
    """Collect inputs, render, write; returns the model (for callers/tests)."""
    model = collect_inputs(paths)
    document = render_dashboard(model)
    out = Path(out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(document, encoding="utf-8")
    return model
