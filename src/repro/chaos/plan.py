"""Seeded fault plans: the deterministic grammar of injected failures.

A :class:`FaultPlan` is a small JSON-serializable document describing
*which* faults fire *where*.  Plans are deterministic by construction —
whether a rule fires for a given invocation depends only on the plan's
seed, the rule, the injection-site name, the site key (a point label or
cache key) and a per-process invocation counter; nothing reads entropy
or the wall clock.  The same plan over the same batch therefore injects
the same faults on every run, which is what lets the chaos matrix assert
byte-identical results rather than "it didn't crash".

Plan grammar (JSON)::

    {
      "schema": 1,
      "seed": 31337,
      "rules": [
        {"fault": "crash",    "site": "sim", "match": "rod-nw*", "times": 1},
        {"fault": "corrupt",  "site": "result_read", "times": 2},
        {"fault": "io_error", "site": "result_store", "times": 0},
        {"fault": "slow",     "site": "sim", "seconds": 0.05, "scope": "worker"},
        {"fault": "kill",     "site": "journal", "after": 5}
      ]
    }

Rule fields:

* ``fault`` — one of :data:`FAULTS`:
  ``crash`` (raise :class:`~repro.chaos.hooks.ChaosFault` — a worker
  dies mid-simulation), ``hang``/``slow`` (sleep ``seconds`` — a wedged
  or merely slow worker), ``corrupt`` (garble the file at the injection
  site's path — torn cache entries), ``io_error`` (raise ``OSError`` —
  a full or read-only disk), ``kill`` (``SIGKILL`` the calling process —
  a hard crash for resume testing).
* ``site`` — one of :data:`SITES`; production hooks name the seam they
  guard (``sim``, ``result_read``/``result_write``/``result_store``,
  ``code_read``/``code_write``/``code_store``, ``journal``).
* ``match`` — an :func:`fnmatch.fnmatch` glob over the site key
  (default ``*``).
* ``times`` — maximum firings per process (default 1; 0 = unlimited).
* ``after`` — skip the first N matching invocations (default 0).
* ``p`` — firing probability, decided by hashing (seed, site, fault,
  key): deterministic per key, no RNG (default 1.0).
* ``seconds`` — sleep duration for ``hang``/``slow`` (default 0.0).
* ``scope`` — ``any`` (default), ``worker`` (only in processes other
  than the plan's installing parent) or ``parent``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Tuple

#: Plan document layout version; loaders reject unknown versions.
PLAN_SCHEMA_VERSION = 1

#: Injectable fault kinds.
FAULTS = ("crash", "hang", "slow", "corrupt", "io_error", "kill")

#: Named injection sites wired into production code.
SITES = (
    "sim",            # worker simulation entry (crash/hang/slow)
    "result_read",    # engine result cache, before an entry is read
    "result_write",   # engine result cache, after an entry is written
    "result_store",   # engine result cache, store syscall path (io_error)
    "code_read",      # compiled-trace cache, before an entry is read
    "code_write",     # compiled-trace cache, after an entry is written
    "code_store",     # compiled-trace cache, store syscall path (io_error)
    "journal",        # run journal, after an append (kill for resume tests)
)

#: Rule scopes relative to the process that installed the plan.
SCOPES = ("any", "worker", "parent")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a plan (see the module grammar)."""

    fault: str
    site: str
    match: str = "*"
    times: int = 1
    after: int = 0
    p: float = 1.0
    seconds: float = 0.0
    scope: str = "any"

    def to_json(self) -> Dict[str, Any]:
        doc = asdict(self)
        # Keep serialized plans minimal: defaults are implied.
        defaults = FaultRule(fault=self.fault, site=self.site)
        for key in ("match", "times", "after", "p", "seconds", "scope"):
            if doc[key] == getattr(defaults, key):
                del doc[key]
        return doc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "rules": [rule.to_json() for rule in self.rules],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def decide(self, rule: FaultRule, key: str) -> bool:
        """The deterministic probability draw for one (rule, key) pair.

        Hashes the plan seed with the rule's identity and the site key;
        the same inputs fire identically in every process, so a plan's
        behaviour never depends on scheduling order across workers.
        """
        if rule.p >= 1.0:
            return True
        if rule.p <= 0.0:
            return False
        material = f"{self.seed}|{rule.site}|{rule.fault}|{rule.match}|{key}"
        draw = int.from_bytes(
            hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
        )
        return draw / float(1 << 64) < rule.p


def validate_plan(doc: Any) -> List[str]:
    """Structural problems of a plan document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["plan must be a JSON object"]
    if doc.get("schema") != PLAN_SCHEMA_VERSION:
        problems.append(
            f"unknown plan schema {doc.get('schema')!r} "
            f"(supported: {PLAN_SCHEMA_VERSION})"
        )
    if not isinstance(doc.get("seed", 0), int):
        problems.append("seed must be an integer")
    rules = doc.get("rules")
    if not isinstance(rules, list):
        return problems + ["rules must be a list"]
    for i, rule in enumerate(rules):
        where = f"rule {i}"
        if not isinstance(rule, dict):
            problems.append(f"{where}: must be an object")
            continue
        if rule.get("fault") not in FAULTS:
            problems.append(
                f"{where}: unknown fault {rule.get('fault')!r} "
                f"(options: {', '.join(FAULTS)})"
            )
        if rule.get("site") not in SITES:
            problems.append(
                f"{where}: unknown site {rule.get('site')!r} "
                f"(options: {', '.join(SITES)})"
            )
        if rule.get("scope", "any") not in SCOPES:
            problems.append(f"{where}: unknown scope {rule.get('scope')!r}")
        if not isinstance(rule.get("match", "*"), str):
            problems.append(f"{where}: match must be a string glob")
        for key, kind in (("times", int), ("after", int)):
            value = rule.get(key, 0)
            if not isinstance(value, int) or value < 0:
                problems.append(f"{where}: {key} must be a non-negative integer")
        for key in ("p", "seconds"):
            value = rule.get(key, 0.0)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: {key} must be a non-negative number")
    return problems


def plan_from_json(doc: Any) -> FaultPlan:
    """Parse a plan document; raises ``ValueError`` on structural problems."""
    problems = validate_plan(doc)
    if problems:
        raise ValueError(f"invalid fault plan: {problems[0]}")
    rules = tuple(
        FaultRule(
            fault=rule["fault"],
            site=rule["site"],
            match=rule.get("match", "*"),
            times=rule.get("times", 1),
            after=rule.get("after", 0),
            p=float(rule.get("p", 1.0)),
            seconds=float(rule.get("seconds", 0.0)),
            scope=rule.get("scope", "any"),
        )
        for rule in doc["rules"]
    )
    return FaultPlan(seed=doc.get("seed", 0), rules=rules)


def plan_loads(text: str) -> FaultPlan:
    """Parse a plan from JSON text; raises ``ValueError``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"fault plan is not valid JSON: {exc}") from None
    return plan_from_json(doc)


def single_fault_plan(
    fault: str,
    site: str,
    match: str = "*",
    times: int = 1,
    seconds: float = 0.0,
    scope: str = "any",
    after: int = 0,
    seed: int = 0,
) -> FaultPlan:
    """Convenience constructor for one-rule plans (tests, smoke matrix)."""
    return FaultPlan(
        seed=seed,
        rules=(
            FaultRule(
                fault=fault,
                site=site,
                match=match,
                times=times,
                after=after,
                seconds=seconds,
                scope=scope,
            ),
        ),
    )
