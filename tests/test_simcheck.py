"""Tests for simcheck: project model, call graph, passes, CLI.

Most tests build a miniature package tree under ``tmp_path / "repro"`` —
the subpackage names (``core``, ``gpu``, ...) matter because the passes
scope themselves by module prefix, and the root directory name becomes
the package name.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.analysis.__main__ import main
from repro.analysis.callgraph import CallGraph
from repro.analysis.passes import run_project_passes
from repro.analysis.project import build_project


def make_tree(tmp_path: Path, files=None) -> Path:
    root = tmp_path / "repro"
    root.mkdir()
    for rel, src in (files or {}).items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    return root


def findings_for(tmp_path: Path, files) -> list:
    return run_project_passes(make_tree(tmp_path, files))


def rules_of(findings) -> list:
    return sorted(f.rule_id for f in findings)


# -- project model -----------------------------------------------------------


class TestAnnotations:
    def test_comment_annotations_are_indexed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": """\
                class C:
                    def __init__(self):
                        self.total = []  # simcheck: hot-ok -- setup only
                """
            },
        )
        project = build_project(root)
        ann = project.modules["repro.core.a"].annotations
        assert ann == {3: ("hot-ok", "setup only")}

    def test_docstring_examples_do_not_register(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "core/a.py": '''\
                """Docs showing the grammar:

                    # simcheck: hot-ok -- example only
                """

                TAG = "# simcheck: hot-ok"
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
    def test_receivers_resolve_by_method_name(self, tmp_path):
        # ``self.engine.spin()`` and ``x.spin()`` alike reach every ``spin``.
        project = build_project(make_tree(tmp_path, CALLGRAPH_FILES))
        graph = CallGraph(project)
        for caller in ("use", "go"):
            sites = graph.callees(f"repro.core.engine.Holder.{caller}")
            assert sorted(s.callee for s in sites) == [
                "repro.core.engine.Engine.spin",
                "repro.core.engine.Other.spin",
            ]

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

    def test_rpr101_reaches_callees(self, tmp_path):
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


# -- CLI ----------------------------------------------------------------------


CLEAN_FILES = gpu_module("def _advance(self):\n    return (1, 2)\n")

DIRTY_FILES = gpu_module("def _advance(self):\n    return [1, 2]\n")


class TestCheckAllCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLEAN_FILES)
        assert main(["--check-all", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_with_github_annotations(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_FILES)
        assert main(["--check-all", str(root), "--github"]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out
        assert "::error file=" in out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["--check-all", "a", "b"]) == 2
        assert main(["--check-all", str(tmp_path / "missing")]) == 2
        assert main(["--check-all", "--sarif"]) == 2
        assert main(["--no-such-flag"]) == 2
        capsys.readouterr()

    def test_list_rules_covers_pass_families(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR101", "RPR102", "RPR103", "RPR104"):
            assert rule_id in out


class TestRealPackage:
    def test_shipped_package_is_simcheck_clean(self):
        """The CI gate, in-process: zero unsuppressed findings over the
        real package, including under the annotation-hygiene rules."""
        root = Path(repro.__file__).resolve().parent
        assert [f.format() for f in run_project_passes(root)] == []
