"""Tests for simcheck v2: project model, call graph, passes, CLI.

Most tests build a miniature package tree under ``tmp_path / "repro"`` —
the subpackage names (``core``, ``gpu``, ...) matter because the passes
scope themselves by module prefix, and the root directory name becomes
the package name.  The fixture helper pre-seeds the version-constant
stubs the RPR301 contract check watches and writes a fresh manifest, so
a tree is drift-clean unless a test deliberately perturbs it.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import repro
from repro.analysis import lint_source
from repro.analysis.__main__ import main
from repro.analysis.callgraph import CallGraph
from repro.analysis.passes import run_project_passes
from repro.analysis.passes.drift import write_manifest
from repro.analysis.project import (
    TypeRef,
    build_project,
    reset_closure,
    scan_method,
)
from repro.analysis.sarif import sarif_report

#: Minimal files satisfying every RPR301 contract (version constant +
#: watched sources); the helper writes a manifest over the final tree, so
#: fixture trees start drift-clean.
CONTRACT_STUBS = {
    "trace/code_cache.py": "CODE_VERSION = 1\n",
    "trace/compiled.py": "F_EXIT = 2\n",
    "trace/warp_trace.py": "OPCODES = ()\n",
    "trace/kernel_trace.py": "WARP_SIZE = 32\n",
    "isa/opcodes.py": "MAX_SRC_OPERANDS = 3\n",
    "regalloc/bank_mapping.py": "MAPPINGS = {}\n",
    "workloads/profiles.py": "PROFILE_VERSION = 1\n",
    "workloads/synth.py": "SYNTH = 1\n",
    "experiments/engine.py": "CACHE_SCHEMA = 1\n",
    "metrics/stats.py": "PAYLOAD = 1\n",
    "obs/events.py": "EVENT_SCHEMA_VERSION = 1\n",
    "obs/manifest.py": "MANIFEST_SCHEMA_VERSION = 1\n",
    "obs/metrics.py": "METRICS_SCHEMA_VERSION = 1\n",
    "obs/heartbeat.py": "STATUS_SCHEMA_VERSION = 1\n",
    "obs/journal.py": "JOURNAL_SCHEMA_VERSION = 1\n",
}


def make_tree(tmp_path: Path, files=None) -> Path:
    root = tmp_path / "repro"
    for rel, src in {**CONTRACT_STUBS, **(files or {})}.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    (root / "analysis").mkdir(exist_ok=True)
    write_manifest(root)
    return root


def findings_for(tmp_path: Path, files) -> list:
    _, findings = run_project_passes(make_tree(tmp_path, files))
    return findings


def rules_of(findings) -> list:
    return sorted(f.rule_id for f in findings)


def method_scan(source: str, cls: str, meth: str):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == meth:
                    return scan_method(item)
    raise AssertionError(f"{cls}.{meth} not found")


# -- project model -----------------------------------------------------------


class TestAnnotations:
    def test_comment_annotations_are_indexed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": """\
                class C:
                    def __init__(self):
                        self.total = 0  # simcheck: persistent -- cumulative
                """
            },
        )
        project = build_project(root)
        ann = project.modules["repro.core.a"].annotations
        assert ann == {3: ("persistent", "cumulative")}

    def test_docstring_examples_do_not_register(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": '''\
                """Docs showing the grammar:

                    # simcheck: hot-ok -- example only
                """

                TAG = "# simcheck: persistent"
                X = 1  # simcheck: cold
                '''
            },
        )
        project = build_project(root)
        ann = project.modules["repro.core.a"].annotations
        assert list(ann) == [7]
        assert ann[7].tag == "cold"

    def test_reason_is_optional(self, tmp_path):
        root = make_tree(tmp_path, {"core/a.py": "X = 1  # simcheck: cold\n"})
        project = build_project(root)
        (ann,) = project.modules["repro.core.a"].annotations.values()
        assert ann == ("cold", None)


class TestAttrUseScanner:
    SOURCE = """\
    class C:
        def update(self):
            self.count += 1
            self.name = "x"
            q = self.queue
            q.append(1)
            self.slots[0] = None
            for part in self.parts:
                part.begin_run()
            self.done.clear()
            self._refresh()
            super().update()
    """

    def test_augment_is_not_a_rebind(self):
        scan = method_scan(self.SOURCE, "C", "update")
        assert scan.augments == {"count"}
        assert "count" not in scan.rebinds

    def test_rebinds_mutations_clears(self):
        scan = method_scan(self.SOURCE, "C", "update")
        assert scan.rebinds == {"name"}
        assert "queue" in scan.mutations  # through the local alias
        assert "slots" in scan.clears  # subscript re-init counts as reset
        assert "done" in scan.clears

    def test_loop_cascade_and_call_tracking(self):
        scan = method_scan(self.SOURCE, "C", "update")
        assert scan.cascaded == {"parts"}
        assert scan.self_calls == {"_refresh"}
        assert scan.super_calls == {"update"}


class TestTypeInference:
    FILES = {
        "core/parts.py": """\
        from typing import Dict, List, Optional


        class Part:
            def __init__(self):
                self.v = 0


        class Box:
            def __init__(self, spare: "Optional[Part]"):
                self.one = Part()
                self.many: List[Part] = [Part()]
                self.table: Dict[int, Part] = {}
                self.spare = spare
        """
    }

    def test_attribute_types(self, tmp_path):
        project = build_project(make_tree(tmp_path, self.FILES))
        attrs = project.classes["Box"].attrs
        assert attrs["one"].type == TypeRef(None, "Part")
        assert attrs["many"].type == TypeRef("list", "Part")
        assert attrs["table"].type == TypeRef("dict", "Part")
        assert attrs["spare"].type == TypeRef(None, "Part")

    def test_ownership(self, tmp_path):
        project = build_project(make_tree(tmp_path, self.FILES))
        attrs = project.classes["Box"].attrs
        assert attrs["one"].owned
        # Received from a parameter: the caller owns (and resets) it.
        assert not attrs["spare"].owned


class TestResetClosure:
    def test_follows_self_calls_and_super(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": """\
                class Base:
                    def __init__(self):
                        self.a = 0

                    def begin_run(self):
                        self.a = 0


                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.b = 0
                        self.c = 0

                    def begin_run(self):
                        super().begin_run()
                        self.b = 0
                        self._deep()

                    def _deep(self):
                        self.c = 0
                """
            },
        )
        project = build_project(root)
        names, merged = reset_closure(project, "Child")
        assert names == {"begin_run", "_deep"}
        assert merged.rebinds == {"a", "b", "c"}

    def test_flattened_attrs_subclass_wins(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": """\
                class Base:
                    def __init__(self):
                        self.x = []


                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.x = 0
                """
            },
        )
        project = build_project(root)
        assert not project.flattened_attrs("Child")["x"].mutable_container
        assert project.flattened_attrs("Base")["x"].mutable_container


# -- call graph --------------------------------------------------------------


CALLGRAPH_FILES = {
    "core/engine.py": """\
    class Engine:
        def spin(self):
            return 1


    class Other:
        def spin(self):
            return 2


    class Helper:
        def emit(self):
            return 3


    class Holder:
        def __init__(self):
            self.engine = Engine()
            self.tracer = None
            self.helper = Helper()

        def go(self):
            return self.engine.spin()

        def use(self, x):
            return x.spin()

        def run(self):
            if self.tracer:
                self.helper.emit()
            return self.go()
    """
}


class TestCallGraph:
    def test_typed_receiver_resolves_exactly(self, tmp_path):
        project = build_project(make_tree(tmp_path, CALLGRAPH_FILES))
        graph = CallGraph(project)
        sites = graph.callees("repro.core.engine.Holder.go")
        assert [s.callee for s in sites] == ["repro.core.engine.Engine.spin"]
        assert not sites[0].via_fallback

    def test_untyped_receiver_falls_back_to_cha(self, tmp_path):
        project = build_project(make_tree(tmp_path, CALLGRAPH_FILES))
        graph = CallGraph(project)
        sites = graph.callees("repro.core.engine.Holder.use")
        assert sorted(s.callee for s in sites) == [
            "repro.core.engine.Engine.spin",
            "repro.core.engine.Other.spin",
        ]
        assert all(s.via_fallback for s in sites)

    def test_cold_guard_marks_and_skips(self, tmp_path):
        project = build_project(make_tree(tmp_path, CALLGRAPH_FILES))
        graph = CallGraph(project)
        sites = graph.callees("repro.core.engine.Holder.run")
        cold = {s.callee: s.cold for s in sites}
        assert cold["repro.core.engine.Helper.emit"] is True
        assert cold["repro.core.engine.Holder.go"] is False

        hot = graph.reachable(["repro.core.engine.Holder.run"])
        assert "repro.core.engine.Helper.emit" not in hot
        assert "repro.core.engine.Engine.spin" in hot
        everything = graph.reachable(
            ["repro.core.engine.Holder.run"], skip_cold=False
        )
        assert "repro.core.engine.Helper.emit" in everything

    def test_cold_tag_stops_traversal(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": """\
                class C:
                    def top(self):
                        return self.frosty()

                    def frosty(self):  # simcheck: cold
                        return self.below()

                    def below(self):
                        return 1
                """
            },
        )
        graph = CallGraph(build_project(root))
        hot = graph.reachable(["repro.core.a.C.top"])
        assert "repro.core.a.C.frosty" not in hot
        assert "repro.core.a.C.below" not in hot


# -- reset-completeness pass (RPR2xx) ----------------------------------------


class TestResetPass:
    def test_rpr201_mutated_container_not_reset(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/buf.py": """\
                class Buf:
                    def __init__(self):
                        self.items = []

                    def push(self, v):
                        self.items.append(v)

                    def begin_run(self):
                        return None
                """
            },
        )
        assert rules_of(findings) == ["RPR201"]
        assert "Buf.items" in findings[0].message

    def test_rpr201_clear_in_reset_silences(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/buf.py": """\
                class Buf:
                    def __init__(self):
                        self.items = []

                    def push(self, v):
                        self.items.append(v)

                    def begin_run(self):
                        self.items.clear()
                """
            },
        )
        assert findings == []

    def test_rpr202_augmented_counter_not_reset(self, tmp_path):
        """The PR 8 true positive: ``launch_many`` forgot ``_cta_counter``."""
        findings = findings_for(
            tmp_path,
            {
                "core/sched.py": """\
                class Sched:
                    def __init__(self):
                        self.cursor = 0
                        self.counter = 0

                    def fill(self):
                        self.counter += 1

                    def launch(self):  # simcheck: reset-hook
                        self.cursor = 0
                """
            },
        )
        assert rules_of(findings) == ["RPR202"]
        assert "Sched.counter" in findings[0].message

    def test_rpr202_augment_inside_reset_hook_is_not_a_reset(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/sched.py": """\
                class Sched:
                    def __init__(self):
                        self.counter = 0

                    def fill(self):
                        self.counter += 1

                    def begin_run(self):
                        self.counter += 0
                """
            },
        )
        assert rules_of(findings) == ["RPR202"]

    def test_rpr202_rebind_in_tagged_hook_silences(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/sched.py": """\
                class Sched:
                    def __init__(self):
                        self.counter = 0

                    def fill(self):
                        self.counter += 1

                    def launch(self):  # simcheck: reset-hook
                        self.counter = 0
                """
            },
        )
        assert findings == []

    def test_persistent_annotation_declares_and_is_not_stale(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/stats.py": """\
                class Counters:
                    def __init__(self):
                        self.total = 0  # simcheck: persistent -- cumulative statistic

                    def bump(self):
                        self.total += 1

                    def begin_run(self):
                        return None
                """
            },
        )
        assert findings == []

    def test_rpr203_owned_component_never_cascaded(self, tmp_path):
        files = {
            "core/owner.py": """\
            class Part:
                def __init__(self):
                    self.v = 0

                def begin_run(self):
                    self.v = 0


            class Owner:
                def __init__(self):
                    self.part = Part()

                def begin_run(self):
                    return None
            """
        }
        findings = findings_for(tmp_path, files)
        assert rules_of(findings) == ["RPR203"]
        assert "Owner.part" in findings[0].message

    def test_rpr203_cascade_silences(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/owner.py": """\
                class Part:
                    def __init__(self):
                        self.v = 0

                    def begin_run(self):
                        self.v = 0


                class Owner:
                    def __init__(self):
                        self.part = Part()

                    def begin_run(self):
                        self.part.begin_run()
                """
            },
        )
        assert findings == []

    def test_borrowed_component_is_the_callers_problem(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/owner.py": """\
                class Part:
                    def __init__(self):
                        self.v = 0

                    def begin_run(self):
                        self.v = 0


                class Owner:
                    def __init__(self, part: Part):
                        self.part = part

                    def begin_run(self):
                        return None
                """
            },
        )
        assert findings == []

    def test_classes_without_reset_hooks_are_skipped(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "core/plain.py": """\
                class Plain:
                    def __init__(self):
                        self.items = []

                    def push(self, v):
                        self.items.append(v)
                """
            },
        )
        assert findings == []


# -- hot-path pass (RPR1xx) ---------------------------------------------------


def gpu_module(body: str) -> dict:
    return {
        "gpu/gpu.py": "class GPU:\n" + textwrap.indent(textwrap.dedent(body), "    ")
    }


class TestHotPathPass:
    def test_rpr101_display_in_hot_root(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    xs = [1, 2]
                    return xs
                """
            ),
        )
        assert rules_of(findings) == ["RPR101"]
        assert "list display" in findings[0].message

    def test_rpr101_lambda_in_keyword_argument(self, tmp_path):
        """Regression: ``x.sort(key=lambda ...)`` hides the lambda in an
        ``ast.keyword`` child, which a plain expr walk never visits."""
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self, items):
                    items.sort(key=lambda t: t[0])
                    return items
                """
            ),
        )
        assert rules_of(findings) == ["RPR101"]
        assert "lambda" in findings[0].message

    def test_rpr101_reaches_typed_callees(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "gpu/gpu.py": """\
                class Core:
                    def step(self):
                        return {1: 2}


                class GPU:
                    def __init__(self):
                        self.core = Core()

                    def _advance(self):
                        return self.core.step()
                """
            },
        )
        assert rules_of(findings) == ["RPR101"]
        assert "Core.step" in findings[0].message

    def test_rpr102_try_inside_loop(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    total = 0
                    while total < 4:
                        try:
                            total = total + 1
                        except ValueError:
                            total = 9
                    return total
                """
            ),
        )
        assert rules_of(findings) == ["RPR102"]

    def test_rpr103_repeated_attribute_chain(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    if self.mem.l2.hits > 0:
                        return self.mem.l2.hits
                    return self.mem.l2.hits + 1
                """
            ),
        )
        assert rules_of(findings) == ["RPR103"]
        assert "self.mem.l2.hits" in findings[0].message

    def test_hot_ok_line_annotation_accepts(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    xs = [1, 2]  # simcheck: hot-ok -- inherent to the model
                    return xs
                """
            ),
        )
        assert findings == []  # accepted, and the annotation is not stale

    def test_hot_ok_def_annotation_accepts_whole_function(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):  # simcheck: hot-ok -- setup-rate only
                    xs = [1, 2]
                    ys = {3}
                    return xs, ys
                """
            ),
        )
        assert findings == []

    def test_cold_guard_skips_observability_blocks(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    if self.tracer:
                        xs = [1]
                        return xs
                    return None
                """
            ),
        )
        assert findings == []

    def test_non_hot_functions_are_not_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def summarize(self):
                    return [1, 2, 3]
                """
            ),
        )
        assert findings == []

    def test_rpr104_unknown_tag(self, tmp_path):
        findings = findings_for(tmp_path, {"core/a.py": "X = 1  # simcheck: hotok\n"})
        assert rules_of(findings) == ["RPR104"]
        assert "unknown simcheck tag 'hotok'" in findings[0].message

    def test_rpr104_stale_hot_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            gpu_module(
                """\
                def _advance(self):
                    return 1  # simcheck: hot-ok -- nothing to accept here
                """
            ),
        )
        assert rules_of(findings) == ["RPR104"]
        assert "stale" in findings[0].message


# -- drift pass (RPR3xx) ------------------------------------------------------


class TestDriftPass:
    def test_fresh_manifest_is_clean(self, tmp_path):
        assert findings_for(tmp_path, {}) == []

    def test_watched_source_change_without_refresh(self, tmp_path):
        root = make_tree(tmp_path, {})
        (root / "metrics/stats.py").write_text("PAYLOAD = 99\n")
        _, findings = run_project_passes(root)
        assert rules_of(findings) == ["RPR301"]
        assert "result-cache" in findings[0].message

    def test_comment_only_change_does_not_drift(self, tmp_path):
        root = make_tree(tmp_path, {})
        (root / "metrics/stats.py").write_text("PAYLOAD = 1  # a remark\n")
        _, findings = run_project_passes(root)
        assert findings == []

    def test_version_bump_without_refresh(self, tmp_path):
        root = make_tree(tmp_path, {})
        (root / "experiments/engine.py").write_text("CACHE_SCHEMA = 2\n")
        _, findings = run_project_passes(root)
        assert rules_of(findings) == ["RPR301"]
        assert "manifest records" in findings[0].message

    def test_update_contracts_acknowledges(self, tmp_path):
        root = make_tree(tmp_path, {})
        (root / "experiments/engine.py").write_text("CACHE_SCHEMA = 2\n")
        write_manifest(root)
        _, findings = run_project_passes(root)
        assert findings == []

    def test_missing_version_constant(self, tmp_path):
        root = make_tree(tmp_path, {})
        (root / "obs/events.py").write_text("SOMETHING_ELSE = 1\n")
        _, findings = run_project_passes(root)
        assert rules_of(findings) == ["RPR301"]
        assert "EVENT_SCHEMA_VERSION not found" in findings[0].message

    def test_rpr302_unread_config_field(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "config/gpu_config.py": """\
                class GPUConfig:
                    num_sms: int
                    unused_knob: int

                    def check(self):
                        return self.num_sms
                """
            },
        )
        assert rules_of(findings) == ["RPR302"]
        assert "GPUConfig.unused_knob" in findings[0].message

    def test_rpr303_payload_and_conservation_lockstep(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "metrics/stats.py": """\
                class SMStats:
                    cycles: int
                    instructions: int

                    def conservation_errors(self):
                        out = []
                        for name in ("cycles", "bogus"):
                            out.append(name)
                        return out

                    def to_payload(self):
                        return {"cycles": self.cycles}
                """
            },
        )
        assert rules_of(findings) == ["RPR303", "RPR303"]
        messages = " | ".join(f.message for f in findings)
        assert "'bogus'" in messages
        assert "omits field(s) instructions" in messages


# -- SARIF --------------------------------------------------------------------


class TestSarif:
    def test_report_shape(self):
        findings = lint_source("xs = sorted({1, 2})\n", path="src/x.py")
        report = sarif_report(findings)
        assert report["version"] == "2.1.0"
        (run,) = report["runs"]
        assert run["tool"]["driver"]["name"] == "simcheck"
        (result,) = run["results"]
        assert result["ruleId"] == "RPR002"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"]["startLine"] == 1
        assert "suppressions" not in result
        assert json.dumps(report)  # JSON-serializable throughout

    def test_suppressed_findings_carry_suppressions(self):
        findings = lint_source(
            "xs = sorted({1, 2})  # simlint: ignore[RPR002]\n", path="x.py"
        )
        (result,) = sarif_report(findings)["runs"][0]["results"]
        assert result["suppressions"] == [{"kind": "inSource"}]

    def test_rule_descriptors_are_deduplicated(self):
        findings = lint_source("a = sorted({1})\nb = sorted({2})\n")
        rules = sarif_report(findings)["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["RPR002"]


# -- CLI ----------------------------------------------------------------------


CLEAN_FILES = {
    "core/clean.py": """\
    class Clean:
        def __init__(self):
            self.items = []

        def push(self, v):
            self.items.append(v)

        def begin_run(self):
            self.items.clear()
    """
}

DIRTY_FILES = {
    "core/dirty.py": """\
    class Dirty:
        def __init__(self):
            self.counter = 0

        def bump(self):
            self.counter += 1

        def begin_run(self):
            return None
    """
}


class TestCheckAllCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLEAN_FILES)
        assert main(["--check-all", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_with_github_annotations(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_FILES)
        assert main(["--check-all", str(root), "--github"]) == 1
        out = capsys.readouterr().out
        assert "RPR202" in out
        assert "::error file=" in out

    def test_sarif_export(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_FILES)
        sarif = tmp_path / "out.sarif"
        assert main(["--check-all", str(root), "--sarif", str(sarif)]) == 1
        capsys.readouterr()
        payload = json.loads(sarif.read_text())
        assert [r["ruleId"] for r in payload["runs"][0]["results"]] == ["RPR202"]

    def test_baseline_roundtrip(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_FILES)
        baseline = tmp_path / "baseline.json"
        assert main(["--check-all", str(root), "--write-baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == 1
        assert len(payload["entries"]) == 1
        assert payload["entries"][0].startswith("RPR202:")

        # Baselined findings no longer fail the run...
        assert main(["--check-all", str(root), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ...but --strict ignores the baseline.
        assert (
            main(["--check-all", str(root), "--baseline", str(baseline), "--strict"])
            == 1
        )

    def test_strict_summary_label(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLEAN_FILES)
        assert main(["--check-all", str(root), "--strict"]) == 0
        assert "simcheck (strict):" in capsys.readouterr().out

    def test_invalid_baseline_exits_two(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_FILES)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert main(["--check-all", str(root), "--baseline", str(bad)]) == 2

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["--check-all", "a", "b"]) == 2
        assert main(["--check-all", str(tmp_path / "missing")]) == 2
        assert main(["--check-all", "--sarif"]) == 2
        assert main(["--no-such-flag"]) == 2
        capsys.readouterr()

    def test_list_rules_covers_pass_families(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR101", "RPR201", "RPR301"):
            assert rule_id in out


class TestRealPackage:
    def test_shipped_package_is_simcheck_clean(self):
        """The CI gate, in-process: zero unsuppressed findings over the
        real package, including under the annotation-hygiene rules."""
        root = Path(repro.__file__).resolve().parent
        _, findings = run_project_passes(root)
        assert [f.format() for f in findings if not f.suppressed] == []
