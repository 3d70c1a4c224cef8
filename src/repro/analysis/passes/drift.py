"""RPR3xx — version/schema drift and declaration-coverage checks.

Three cache/schema version constants guard on-disk artifacts whose
staleness is *silent* — a stale compiled trace or result-cache entry
doesn't crash, it quietly reproduces old behaviour:

* ``CODE_VERSION`` (``repro/trace/code_cache.py``) over the compiled-trace
  artifact: its codec, the trace and compiled-column classes it pickles
  (``repro/trace/{warp_trace,kernel_trace,compiled}.py``), opcode
  numbering (``repro/isa/opcodes.py``) and the bank mappers whose rows it
  stores (``repro/regalloc/bank_mapping.py``),
* ``PROFILE_VERSION`` (``repro/workloads/profiles.py``) over the profile
  payload, the profile → trace synthesizer and the kernel builders a
  simulation point can name (``repro/workloads/microbench.py``),
* ``CACHE_SCHEMA`` (``repro/experiments/engine.py``) over the result
  payload (``SimStats.to_payload`` in ``repro/metrics/stats.py``),
* ``EVENT_SCHEMA_VERSION`` (``repro/obs/events.py``) over the trace-event
  schema consumed by external tooling,
* ``MANIFEST_SCHEMA_VERSION`` (``repro/obs/manifest.py``) over run-manifest
  records (``repro.obs --validate`` rejects unknown versions),
* ``METRICS_SCHEMA_VERSION`` (``repro/obs/metrics.py``) over the canonical
  metrics JSON export and its validators,
* ``STATUS_SCHEMA_VERSION`` (``repro/obs/heartbeat.py``) over the live
  ``status.json`` heartbeat document.

**RPR301** hashes each contract's watched sources (comment-stripped,
whitespace-normalized — stable across Python versions) into
``analysis/contracts.json``.  A watched file changing without a matching
manifest refresh fails the check: bump the version constant if the
on-disk artifacts change meaning, then acknowledge with
``python -m repro.analysis --update-contracts`` (the manifest diff makes
the acknowledgment reviewable).

**RPR302** flags a ``GPUConfig``/``MemoryConfig`` field that no code ever
reads — unread config is a lie in every sweep definition (the field
*looks* like a model parameter but cannot affect results).

**RPR303** keeps the stats surface self-consistent: the ``SMStats``
construction in ``GPU._collect_stats`` must pass every field, the
conservation-check counter tuples must name real fields, and
``to_payload`` must serialize every field (a dropped field silently
truncates every cached result).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..project import ClassInfo, ProjectModel
from .base import AnalysisContext, AnalysisPass

MANIFEST_RELPATH = Path("analysis") / "contracts.json"
MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class Contract:
    """One versioned model contract: a constant + the sources it covers."""

    name: str
    version_file: str     # package-relative path holding the constant
    version_name: str
    watch: Tuple[str, ...]  # package-relative watched sources


CONTRACTS: Tuple[Contract, ...] = (
    Contract(
        "compiled-trace",
        "trace/code_cache.py",
        "CODE_VERSION",
        # Every module that defines what is in an artifact: the envelope
        # and codec, the pickled classes, opcode numbering, bank rows.
        (
            "trace/code_cache.py",
            "trace/compiled.py",
            "trace/warp_trace.py",
            "trace/kernel_trace.py",
            "isa/opcodes.py",
            "regalloc/bank_mapping.py",
        ),
    ),
    Contract(
        "profile-payload",
        "workloads/profiles.py",
        "PROFILE_VERSION",
        ("workloads/microbench.py", "workloads/profiles.py", "workloads/synth.py"),
    ),
    Contract(
        "result-cache",
        "experiments/engine.py",
        "CACHE_SCHEMA",
        ("metrics/stats.py",),
    ),
    Contract(
        "obs-events",
        "obs/events.py",
        "EVENT_SCHEMA_VERSION",
        ("obs/events.py",),
    ),
    Contract(
        "run-manifest",
        "obs/manifest.py",
        "MANIFEST_SCHEMA_VERSION",
        ("obs/manifest.py",),
    ),
    Contract(
        "obs-metrics",
        "obs/metrics.py",
        "METRICS_SCHEMA_VERSION",
        ("obs/metrics.py",),
    ),
    Contract(
        "run-status",
        "obs/heartbeat.py",
        "STATUS_SCHEMA_VERSION",
        ("obs/heartbeat.py",),
    ),
    Contract(
        "run-journal",
        "obs/journal.py",
        "JOURNAL_SCHEMA_VERSION",
        ("obs/journal.py",),
    ),
)


# -- hashing ------------------------------------------------------------------


def normalized_source(source: str) -> str:
    """Source text minus comments, trailing whitespace and blank lines.

    Token-based comment stripping (not ``ast.dump``) keeps the hash
    stable across CPython minor versions, so one committed manifest
    serves every CI interpreter.
    """
    lines = source.splitlines()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                row, col = tok.start
                lines[row - 1] = lines[row - 1][:col]
    except (tokenize.TokenError, IndentationError):
        pass  # syntactically broken files are RPR000's problem
    return "\n".join(line.rstrip() for line in lines if line.strip())


def contract_hash(root: Path, contract: Contract) -> str:
    digest = hashlib.sha256()
    for rel in sorted(contract.watch):
        file = root / rel
        text = file.read_text(encoding="utf-8") if file.exists() else ""
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(normalized_source(text).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def read_version(root: Path, contract: Contract) -> Tuple[Optional[int], int]:
    """(value, line) of the contract's version constant; value None if absent."""
    file = root / contract.version_file
    if not file.exists():
        return None, 1
    tree = ast.parse(file.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == contract.version_name
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                return node.value.value, node.lineno
    return None, 1


def current_contracts(root: Path) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for contract in CONTRACTS:
        version, _ = read_version(root, contract)
        out[contract.name] = {
            "version": version,
            "hash": contract_hash(root, contract),
            "watch": sorted(contract.watch),
        }
    return out


def manifest_path(root: Path) -> Path:
    return root / MANIFEST_RELPATH


def write_manifest(root: Path) -> Path:
    path = manifest_path(root)
    payload = {"schema": MANIFEST_SCHEMA, "contracts": current_contracts(root)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_manifest(root: Path) -> Optional[Dict[str, Dict[str, object]]]:
    path = manifest_path(root)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    contracts = payload.get("contracts")
    return contracts if isinstance(contracts, dict) else None


# -- the pass -----------------------------------------------------------------


class DriftPass(AnalysisPass):
    name = "contract-drift"

    def run(self, ctx: AnalysisContext) -> None:
        self._check_contracts(ctx)
        self._check_config_coverage(ctx)
        self._check_stats_declarations(ctx)

    # -- RPR301 ------------------------------------------------------------

    def _check_contracts(self, ctx: AnalysisContext) -> None:
        root = ctx.project.root
        manifest = load_manifest(root)
        for contract in CONTRACTS:
            version, line = read_version(root, contract)
            version_path = str(root / contract.version_file)
            if version is None:
                ctx.add(
                    "RPR301",
                    version_path,
                    line,
                    f"contract '{contract.name}': version constant "
                    f"{contract.version_name} not found in {contract.version_file}",
                )
                continue
            if manifest is None:
                ctx.add(
                    "RPR301",
                    version_path,
                    line,
                    f"contract '{contract.name}': manifest "
                    f"{MANIFEST_RELPATH} missing; generate it with "
                    "python -m repro.analysis --update-contracts",
                )
                continue
            entry = manifest.get(contract.name)
            if not isinstance(entry, dict):
                ctx.add(
                    "RPR301",
                    version_path,
                    line,
                    f"contract '{contract.name}' missing from the manifest; "
                    "refresh with --update-contracts",
                )
                continue
            current = contract_hash(root, contract)
            if entry.get("version") != version:
                ctx.add(
                    "RPR301",
                    version_path,
                    line,
                    f"contract '{contract.name}': {contract.version_name} is "
                    f"{version} but the manifest records "
                    f"{entry.get('version')}; refresh with --update-contracts",
                )
            elif entry.get("hash") != current:
                ctx.add(
                    "RPR301",
                    version_path,
                    line,
                    f"contract '{contract.name}': watched sources "
                    f"({', '.join(sorted(contract.watch))}) changed without a "
                    f"manifest refresh — bump {contract.version_name} if "
                    "on-disk artifacts change meaning, then run "
                    "--update-contracts",
                )

    # -- RPR302 ------------------------------------------------------------

    def _check_config_coverage(self, ctx: AnalysisContext) -> None:
        project = ctx.project
        read_attrs = self._all_attribute_reads(project)
        for class_name in ("GPUConfig", "MemoryConfig"):
            info = project.classes.get(class_name)
            if info is None or not info.module.endswith("config.gpu_config"):
                continue
            for field_name, lineno in self._dataclass_fields(info):
                if field_name not in read_attrs:
                    ctx.add(
                        "RPR302",
                        info.path,
                        lineno,
                        f"{class_name}.{field_name} is never read anywhere in "
                        "the package: the field cannot affect results",
                    )

    @staticmethod
    def _all_attribute_reads(project: ProjectModel) -> Set[str]:
        reads: Set[str] = set()
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
        return reads

    @staticmethod
    def _dataclass_fields(info: ClassInfo) -> List[Tuple[str, int]]:
        fields: List[Tuple[str, int]] = []
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann = ast.dump(stmt.annotation)
                if "ClassVar" in ann:
                    continue
                fields.append((stmt.target.id, stmt.lineno))
        return fields

    # -- RPR303 ------------------------------------------------------------

    def _check_stats_declarations(self, ctx: AnalysisContext) -> None:
        project = ctx.project
        sm_stats = project.classes.get("SMStats")
        sim_stats = project.classes.get("SimStats")
        if sm_stats is None or not sm_stats.module.endswith("metrics.stats"):
            return
        sm_fields = [name for name, _ in self._dataclass_fields(sm_stats)]
        self._check_construction(ctx, sm_fields)
        for info in (sm_stats, sim_stats):
            if info is None:
                continue
            fields = [name for name, _ in self._dataclass_fields(info)]
            self._check_conservation_tuples(ctx, info, fields)
            self._check_payload(ctx, info, fields)

    def _check_construction(self, ctx: AnalysisContext, fields: List[str]) -> None:
        """``GPU._collect_stats`` must pass every SMStats field explicitly."""
        project = ctx.project
        gpu = project.classes.get("GPU")
        if gpu is None:
            return
        for meth in gpu.methods.values():
            for node in ast.walk(meth.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "SMStats"
                ):
                    provided = {kw.arg for kw in node.keywords if kw.arg is not None}
                    provided.update(fields[: len(node.args)])
                    missing = [f for f in fields if f not in provided]
                    if missing:
                        ctx.add(
                            "RPR303",
                            gpu.path,
                            node.lineno,
                            f"SMStats construction in {gpu.name}.{meth.name} "
                            f"omits field(s) {', '.join(missing)}; per-SM "
                            "results would silently default",
                        )
                    return
        ctx.add(
            "RPR303",
            gpu.path,
            gpu.node.lineno,
            "no SMStats construction found in GPU; the stats-assembly "
            "declaration check lost its anchor",
        )

    def _check_conservation_tuples(
        self, ctx: AnalysisContext, info: ClassInfo, fields: List[str]
    ) -> None:
        meth = info.methods.get("conservation_errors")
        if meth is None:
            ctx.add(
                "RPR303",
                info.path,
                info.node.lineno,
                f"{info.name} has no conservation_errors(); the sanitizer's "
                "conservation contract lost its anchor",
            )
            return
        field_set = set(fields)
        for node in ast.walk(meth.node):
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
                names = [
                    elt.value
                    for elt in node.iter.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                for name in names:
                    if name not in field_set:
                        ctx.add(
                            "RPR303",
                            info.path,
                            node.lineno,
                            f"{info.name}.conservation_errors checks "
                            f"'{name}', which is not a {info.name} field "
                            "(renamed without updating the declaration?)",
                        )

    def _check_payload(self, ctx: AnalysisContext, info: ClassInfo, fields: List[str]) -> None:
        meth = info.methods.get("to_payload")
        if meth is None:
            ctx.add(
                "RPR303",
                info.path,
                info.node.lineno,
                f"{info.name} has no to_payload(); the cache-serialization "
                "declaration check lost its anchor",
            )
            return
        keys: Set[str] = set()
        for node in ast.walk(meth.node):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                    keys.add(node.slice.value)
        missing = [f for f in fields if f not in keys]
        if missing:
            ctx.add(
                "RPR303",
                info.path,
                meth.node.lineno,
                f"{info.name}.to_payload omits field(s) "
                f"{', '.join(missing)}; cached results would silently drop "
                "them",
            )
