"""Whole-program dataflow tests: CFGs, call graph, RL017/RL018, SARIF.

The RL017/RL018 rules exclude test paths by design (``tests/*`` and
``test_*`` globs), and pytest's ``tmp_path`` embeds the test name — so
every fixture tree is installed under ``<tmp>/src/repro/flowcase/`` and
linted from inside the tmp dir with *relative* paths, exactly as the
CLI is driven against a repo checkout.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import jsonschema
import pytest

from repro.lint.engine import LintEngine
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.program import Program
from repro.lint.flow.summaries import summarize_module
from repro.lint.flow.symbols import SymbolTable, build_module_decl, module_name_for
from repro.lint.reporters import SARIF_SCHEMA_URI, render_sarif

FIXTURES = Path(__file__).parent / "lint_fixtures"


# -- helpers -------------------------------------------------------------------


def install_fixture(tmp_path: Path, name: str) -> Path:
    """Copy one fixture (file or module directory) under src-like paths."""
    root = tmp_path / "src" / "repro" / "flowcase"
    root.mkdir(parents=True, exist_ok=True)
    source = FIXTURES / name
    if source.is_dir():
        for item in sorted(source.glob("*.py")):
            shutil.copy(item, root / item.name)
    else:
        shutil.copy(FIXTURES / f"{name}.py", root / f"{name}.py")
    return root


def whole_program_findings(tmp_path, monkeypatch, fixture: str, code: str):
    install_fixture(tmp_path, fixture)
    monkeypatch.chdir(tmp_path)
    engine = LintEngine(select=[code])
    return engine.lint_paths(["src"])


def summarize(source: str, rel: str = "src/repro/flowcase/mod.py"):
    return summarize_module(ast.parse(source), rel, rel)


def function_cfg(source: str):
    func = ast.parse(source).body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func, build_cfg(func)


def stmt_nodes_at(cfg, line: int):
    return [n for n in cfg.statement_nodes() if n.line == line]


# -- the whole-program rules over their fixtures -------------------------------

PROGRAM_CASES = [
    ("RL017", "rl017_bad", "rl017_good"),
    ("RL018", "rl018_bad", "rl018_good"),
]


class TestProgramRuleFixtures:
    @pytest.mark.parametrize("code,bad,_good", PROGRAM_CASES)
    def test_bad_fixture_fails(self, tmp_path, monkeypatch, code, bad, _good):
        findings = whole_program_findings(tmp_path, monkeypatch, bad, code)
        assert findings, f"{code} missed its known-bad fixture {bad}"
        assert all(f.code == code for f in findings)

    @pytest.mark.parametrize("code,_bad,good", PROGRAM_CASES)
    def test_good_fixture_clean(self, tmp_path, monkeypatch, code, _bad, good):
        findings = whole_program_findings(tmp_path, monkeypatch, good, code)
        assert findings == [], f"{code} false positive on {good}: {findings}"


class TestGrantLeak:
    def test_exception_edge_leak_is_flagged(self, tmp_path, monkeypatch):
        findings = whole_program_findings(tmp_path, monkeypatch, "rl017_bad", "RL017")
        by_kind = {("exception path" in f.message): f for f in findings}
        leak = by_kind.get(True)
        assert leak is not None, f"no exception-path leak in {findings}"
        assert leak.line == 14  # the reserve, not the raising statement
        assert "'grant'" in leak.message
        assert "neither committed nor released" in leak.message

    def test_discarded_grant_is_flagged(self, tmp_path, monkeypatch):
        findings = whole_program_findings(tmp_path, monkeypatch, "rl017_bad", "RL017")
        assert any("discarded" in f.message for f in findings)

    def test_noqa_suppresses_program_findings(self, tmp_path, monkeypatch):
        root = install_fixture(tmp_path, "rl017_bad")
        path = root / "rl017_bad.py"
        patched = "\n".join(
            line + "  # repro: noqa[RL017]"
            if "self.ledger.reserve(" in line
            else line
            for line in path.read_text().splitlines()
        )
        path.write_text(patched + "\n")
        monkeypatch.chdir(tmp_path)
        engine = LintEngine(select=["RL017"])
        assert engine.lint_paths(["src"]) == []


class TestInterproceduralUnits:
    def test_positional_and_keyword_mismatches(self, tmp_path, monkeypatch):
        findings = whole_program_findings(tmp_path, monkeypatch, "rl018_bad", "RL018")
        assert len(findings) == 2
        assert any("argument 1" in f.message for f in findings)
        assert any("keyword 'budget'" in f.message for f in findings)
        assert all(
            "time [s]" in f.message and "energy [J]" in f.message for f in findings
        )


# -- the CFG builder -----------------------------------------------------------


class TestCFG:
    def test_finally_body_is_duplicated(self):
        _func, cfg = function_cfg(
            "def f(self):\n"
            "    try:\n"
            "        self.work()\n"
            "    finally:\n"
            "        self.cleanup()\n"
        )
        copies = stmt_nodes_at(cfg, 5)
        assert len(copies) == 2  # one normal, one exceptional copy
        # The normal copy falls through to EXIT; the exceptional copy
        # re-raises (its only way forward is the RAISE node).
        reaches_exit = [
            n for n in copies if (cfg.exit, "normal") in cfg.successors(n.index)
        ]
        assert len(reaches_exit) == 1
        exceptional = next(n for n in copies if n not in reaches_exit)
        assert all(dst == cfg.raise_exit for dst, _ in cfg.successors(exceptional.index))

    def test_early_return_reaches_exit_and_kills_dead_code(self):
        _func, cfg = function_cfg(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
            "    unreachable()\n"
        )
        returns = [n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Return)]
        assert len(returns) == 2
        for node in returns:
            assert (cfg.exit, "normal") in cfg.successors(node.index)
        assert stmt_nodes_at(cfg, 5) == []  # code after return is never built

    def test_bare_reraise_escapes_the_function(self):
        _func, cfg = function_cfg(
            "def f(self):\n"
            "    try:\n"
            "        self.work()\n"
            "    except ValueError:\n"
            "        raise\n"
        )
        reraise = stmt_nodes_at(cfg, 5)
        assert len(reraise) == 1
        assert (cfg.raise_exit, "exception") in cfg.successors(reraise[0].index)
        # A non-catch-all handler may also fail to match: the dispatch
        # node keeps an exception edge outward.
        dispatch = [n for n in cfg.nodes if n.kind == "dispatch"]
        assert any(
            (cfg.raise_exit, "exception") in cfg.successors(d.index) for d in dispatch
        )

    def test_catch_all_handler_swallows_dispatch(self):
        _func, cfg = function_cfg(
            "def f(self):\n"
            "    try:\n"
            "        self.work()\n"
            "    except BaseException:\n"
            "        self.log()\n"
        )
        dispatch = [n for n in cfg.nodes if n.kind == "dispatch"]
        assert len(dispatch) == 1
        assert (cfg.raise_exit, "exception") not in cfg.successors(dispatch[0].index)

    def test_with_statement_exception_edges(self):
        _func, cfg = function_cfg(
            "def f(self):\n"
            "    with self.open() as fh:\n"
            "        fh.use()\n"
        )
        enter = stmt_nodes_at(cfg, 2)[0]
        assert (cfg.raise_exit, "exception") in cfg.successors(enter.index)
        # A plain lock expression cannot raise on entry.
        _func2, cfg2 = function_cfg(
            "def g(self):\n"
            "    with self._lock:\n"
            "        self.n += 1\n"
        )
        enter2 = stmt_nodes_at(cfg2, 2)[0]
        assert (cfg2.raise_exit, "exception") not in cfg2.successors(enter2.index)

    def test_loop_back_edge_and_break(self):
        _func, cfg = function_cfg(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            break\n"
            "    return 0\n"
        )
        loop = [n for n in cfg.nodes if n.kind == "branch" and isinstance(n.stmt, ast.For)]
        assert len(loop) == 1
        branch_if = [n for n in cfg.nodes if n.kind == "branch" and isinstance(n.stmt, ast.If)]
        # The if's fall-through loops back to the for header.
        assert (loop[0].index, "normal") in cfg.successors(branch_if[0].index)


# -- the grant-leak prover (unit level) ----------------------------------------

_PROVER_PREFIX = (
    "class S:\n"
    "    def __init__(self, ledger):\n"
    "        self.ledger = ledger\n"
)


def _leaks_of(body: str):
    summary = summarize(_PROVER_PREFIX + body)
    (func,) = [f for f in summary.functions.values() if f.qualname.endswith(".op")]
    return func.grant_leaks


class TestGrantProver:
    def test_call_between_reserve_and_commit_leaks_exceptionally(self):
        leaks = _leaks_of(
            "    def op(self, shard, batch):\n"
            "        grant = self.ledger.reserve(shard, 1.0)\n"
            "        self.encode(batch)\n"
            "        self.ledger.commit(shard, grant, grant)\n"
        )
        assert [leak.path_kind for leak in leaks] == ["exception"]
        assert leaks[0].variable == "grant"

    def test_try_finally_release_settles_both_edges(self):
        leaks = _leaks_of(
            "    def op(self, shard, batch):\n"
            "        grant = self.ledger.reserve(shard, 1.0)\n"
            "        try:\n"
            "            self.encode(batch)\n"
            "        finally:\n"
            "            self.ledger.release(shard, grant)\n"
        )
        assert leaks == []

    def test_return_hands_the_grant_off(self):
        leaks = _leaks_of(
            "    def op(self, shard):\n"
            "        grant = self.ledger.reserve(shard, 1.0)\n"
            "        return grant\n"
        )
        assert leaks == []

    def test_alias_settle_is_recognised(self):
        leaks = _leaks_of(
            "    def op(self, shard):\n"
            "        grant = self.ledger.reserve(shard, 1.0)\n"
            "        pending = grant\n"
            "        self.ledger.release(shard, pending)\n"
        )
        assert leaks == []

    def test_normal_path_leak_without_any_settle(self):
        leaks = _leaks_of(
            "    def op(self, shard):\n"
            "        grant = self.ledger.reserve(shard, 1.0)\n"
            "        self.n = 1\n"
        )
        assert [leak.path_kind for leak in leaks] == ["normal"]

    def test_reserve_helper_counts_as_reserve(self):
        leaks = _leaks_of(
            "    def op(self, shard, batch):\n"
            "        grant = self._reserve_for(shard, batch)\n"
            "        self.encode(batch)\n"
        )
        assert len(leaks) == 1
        assert "_reserve_for" in leaks[0].reserve_text


# -- the call graph ------------------------------------------------------------


class TestCallGraph:
    def _program(self, sources):
        summaries = {}
        for name, source in sources.items():
            rel = f"src/repro/flowcase/{name}.py"
            summary = summarize_module(ast.parse(source), rel, rel)
            summaries[summary.decl.name] = summary
        return Program(summaries)

    def test_decorated_function_still_resolves(self):
        program = self._program(
            {
                "mod": (
                    "import functools\n"
                    "\n"
                    "@functools.lru_cache(maxsize=None)\n"
                    "def helper(budget):\n"
                    "    return budget\n"
                    "\n"
                    "def outer(x):\n"
                    "    return helper(x)\n"
                )
            }
        )
        callees = [c for c, _ in program.callgraph.callees("repro.flowcase.mod.outer")]
        assert callees == ["repro.flowcase.mod.helper"]

    def test_cross_module_and_self_attr_resolution(self):
        program = self._program(
            {
                "mod_a": (
                    "import mod_b\n"
                    "\n"
                    "class Owner:\n"
                    "    def __init__(self):\n"
                    "        self.store = mod_b.Store()\n"
                    "    def use(self, key):\n"
                    "        return self.store.put_entry(key)\n"
                    "    def local(self, key):\n"
                    "        return self.use(key)\n"
                ),
                "mod_b": (
                    "class Store:\n"
                    "    def put_entry(self, key):\n"
                    "        return key\n"
                ),
            }
        )
        graph = program.callgraph
        assert [c for c, _ in graph.callees("repro.flowcase.mod_a.Owner.use")] == [
            "repro.flowcase.mod_b.Store.put_entry"
        ]
        assert [c for c, _ in graph.callees("repro.flowcase.mod_a.Owner.local")] == [
            "repro.flowcase.mod_a.Owner.use"
        ]

    def test_generic_method_names_resolve_to_nothing(self):
        program = self._program(
            {
                "mod": (
                    "class Sink:\n"
                    "    def append(self, item):\n"
                    "        return item\n"
                    "\n"
                    "def caller(bucket, item):\n"
                    "    bucket.append(item)\n"
                )
            }
        )
        assert program.callgraph.callees("repro.flowcase.mod.caller") == []

    def test_module_name_for_anchors_on_src(self):
        assert module_name_for("src/repro/cluster/ledger.py") == "repro.cluster.ledger"
        assert module_name_for("deep/tmp/dir/pkg/mod.py") == "deep.tmp.dir.pkg.mod"

    _CALLER = "import util\n\ndef run():\n    return util.helper()\n"

    def test_ambiguous_suffix_resolves_to_nothing(self):
        program = self._program(
            {
                "a/util": "def helper():\n    return 1\n",
                "b/util": "def helper():\n    return 2\n",
                "caller": self._CALLER,
            }
        )
        assert program.symtab.resolve_module("util") is None
        assert program.symtab.resolve_function("repro.flowcase.caller", "util.helper") is None
        assert program.callgraph.callees("repro.flowcase.caller.run") == []

    def test_unique_suffix_resolves(self):
        program = self._program(
            {"a/util": "def helper():\n    return 1\n", "caller": self._CALLER}
        )
        assert program.symtab.resolve_module("util") == "repro.flowcase.a.util"
        assert program.symtab.resolve_module("a.util") == "repro.flowcase.a.util"
        assert [c for c, _ in program.callgraph.callees("repro.flowcase.caller.run")] == [
            "repro.flowcase.a.util.helper"
        ]

    def test_exact_name_wins_over_suffix_match(self):
        # ``util`` names one module exactly and is the tail of another.
        table = SymbolTable(
            [
                build_module_decl(ast.parse("def helper():\n    pass\n"), rel, rel)
                for rel in ("util.py", "src/repro/flowcase/util.py")
            ]
        )
        assert table.resolve_module("util") == "util"
        assert table.resolve_function("caller", "util.helper") == "util.helper"
        assert table.resolve_module("flowcase.util") == "repro.flowcase.util"

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        install_fixture(tmp_path, "rl018_bad")
        monkeypatch.chdir(tmp_path)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        findings = LintEngine().lint_paths(["src"])
        assert sorted(parsed) == sorted(str(p) for p in Path("src").rglob("*.py"))
        assert len(parsed) == 2
        # The cross-call findings need both trees: the caller in mod_a,
        # the `budget` parameter in mod_b.
        assert [f.code for f in findings] == ["RL018", "RL018"]


# -- SARIF output --------------------------------------------------------------

#: The load-bearing subset of the SARIF 2.1.0 schema (required members
#: and enums as published at json.schemastore.org/sarif-2.1.0.json).
_SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {"type": "array", "items": {"$ref": "#/definitions/run"}},
    },
    "definitions": {
        "run": {
            "type": "object",
            "required": ["tool"],
            "properties": {
                "tool": {
                    "type": "object",
                    "required": ["driver"],
                    "properties": {"driver": {"$ref": "#/definitions/toolComponent"}},
                },
                "results": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/result"},
                },
                "columnKind": {"enum": ["utf16CodeUnits", "unicodeCodePoints"]},
            },
        },
        "toolComponent": {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "rules": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/reportingDescriptor"},
                },
            },
        },
        "reportingDescriptor": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "shortDescription": {"$ref": "#/definitions/message"},
                "fullDescription": {"$ref": "#/definitions/message"},
                "defaultConfiguration": {
                    "type": "object",
                    "properties": {
                        "level": {"enum": ["none", "note", "warning", "error"]}
                    },
                },
            },
        },
        "message": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        },
        "result": {
            "type": "object",
            "required": ["message"],
            "properties": {
                "ruleId": {"type": "string"},
                "ruleIndex": {"type": "integer", "minimum": 0},
                "level": {"enum": ["none", "note", "warning", "error"]},
                "message": {"$ref": "#/definitions/message"},
                "locations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "physicalLocation": {
                                "type": "object",
                                "properties": {
                                    "artifactLocation": {
                                        "type": "object",
                                        "properties": {
                                            "uri": {"type": "string"},
                                            "uriBaseId": {"type": "string"},
                                        },
                                    },
                                    "region": {
                                        "type": "object",
                                        "properties": {
                                            "startLine": {
                                                "type": "integer",
                                                "minimum": 1,
                                            },
                                            "startColumn": {
                                                "type": "integer",
                                                "minimum": 1,
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _document(self, tmp_path, monkeypatch):
        install_fixture(tmp_path, "rl017_bad")
        monkeypatch.chdir(tmp_path)
        engine = LintEngine(select=["RL017"])
        findings = engine.lint_paths(["src"])
        assert findings
        return findings, engine, json.loads(render_sarif(findings, engine.rules))

    def test_document_validates_against_the_2_1_0_schema(self, tmp_path, monkeypatch):
        _findings, _engine, doc = self._document(tmp_path, monkeypatch)
        jsonschema.Draft7Validator.check_schema(_SARIF_SCHEMA)
        jsonschema.validate(doc, _SARIF_SCHEMA)
        assert doc["$schema"] == SARIF_SCHEMA_URI
        assert doc["version"] == "2.1.0"

    def test_results_reference_the_rule_catalog(self, tmp_path, monkeypatch):
        findings, engine, doc = self._document(tmp_path, monkeypatch)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(r.code for r in engine.rules)
        assert len(run["results"]) == len(findings)
        for result, finding in zip(run["results"], findings):
            assert result["ruleId"] == finding.code
            assert rules[result["ruleIndex"]]["id"] == finding.code
            assert result["level"] == "error"
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == finding.line
            assert region["startColumn"] == finding.col + 1

    def test_empty_report_still_validates(self):
        doc = json.loads(render_sarif([], LintEngine().rules))
        jsonschema.validate(doc, _SARIF_SCHEMA)
        assert doc["runs"][0]["results"] == []
