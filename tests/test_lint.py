"""The domain-aware analyzer: rules, suppression, CLI, and the self-check."""

import json
import re
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    Severity,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.registry import RuleRegistry
from repro.lint.rules.domain import (
    DIM_ENERGY,
    DIM_POWER,
    DIM_TIME,
    POLY,
    build_env,
    infer_dim,
)
from repro.utils.errors import ValidationError

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fixtures are linted under a src-like display path so that every
#: path-scoped rule (RL003/RL004/RL005/RL012) applies to them.
FIXTURE_PATH = "src/repro/online/fixture.py"

#: Rules scoped to another package lint their fixtures under that path.
FIXTURE_PATHS = {
    "RL013": "src/repro/cluster/fixture.py",
    "RL014": "src/repro/overload/fixture.py",
}

#: Every per-file rule has an ``rlNNN_bad.py``/``rlNNN_good.py`` pair; the
#: whole-program rules' fixtures are exercised by ``test_lint_flow.py``.
RULES = sorted(rule.code for rule in all_rules() if not rule.whole_program)


def fixture_path(code=None):
    return FIXTURE_PATHS.get(code, FIXTURE_PATH)


def run_fixture(name, code=None):
    return lint_source((FIXTURES / name).read_text(), fixture_path(code))


class TestRuleFixtures:
    @pytest.mark.parametrize("code", RULES)
    def test_bad_fixture_fails(self, code):
        findings = run_fixture(f"{code.lower()}_bad.py", code)
        assert any(f.code == code for f in findings), (
            f"{code} known-bad fixture produced no {code} finding; got "
            f"{[f.format() for f in findings]}"
        )

    @pytest.mark.parametrize("code", RULES)
    def test_good_fixture_is_clean(self, code):
        findings = run_fixture(f"{code.lower()}_good.py", code)
        assert findings == [], [f.format() for f in findings]

    def test_findings_carry_location_and_severity(self):
        findings = run_fixture("rl004_bad.py")
        finding = next(f for f in findings if f.code == "RL004")
        assert finding.path == FIXTURE_PATH
        assert finding.line > 0
        assert finding.severity is Severity.ERROR
        assert "time.time()" in finding.message
        assert finding.format().startswith(f"{FIXTURE_PATH}:{finding.line}:")


class TestSuppression:
    @pytest.mark.parametrize("code", RULES)
    def test_noqa_round_trip(self, code):
        """Appending ``# repro: noqa[CODE]`` to each flagged line silences it."""
        source = (FIXTURES / f"{code.lower()}_bad.py").read_text()
        path = fixture_path(code)
        flagged = [f.line for f in lint_source(source, path) if f.code == code]
        assert flagged
        lines = source.splitlines()
        for lineno in set(flagged):
            lines[lineno - 1] += f"  # repro: noqa[{code}]"
        remaining = lint_source("\n".join(lines) + "\n", path)
        assert not [f for f in remaining if f.code == code]

    def test_blanket_noqa_silences_everything(self):
        source = (FIXTURES / "rl001_bad.py").read_text()
        flagged = {f.line for f in lint_source(source, FIXTURE_PATH)}
        lines = source.splitlines()
        for lineno in flagged:
            lines[lineno - 1] += "  # repro: noqa"
        assert lint_source("\n".join(lines) + "\n", FIXTURE_PATH) == []

    def test_noqa_naming_unknown_rule_is_reported(self):
        source = "x = 1  # repro: noqa[RL011]\ny = 2  # repro: noqa[RL003, RL999]\n"
        findings = lint_source(source, FIXTURE_PATH)
        assert [(f.code, f.line) for f in findings] == [("RL000", 1), ("RL000", 2)]
        assert "RL011" in findings[0].message and "RL999" in findings[1].message

    def test_noqa_for_another_code_does_not_silence(self):
        source = (FIXTURES / "rl004_bad.py").read_text()
        lineno = next(f.line for f in lint_source(source, FIXTURE_PATH) if f.code == "RL004")
        lines = source.splitlines()
        lines[lineno - 1] += "  # repro: noqa[RL013]"
        remaining = lint_source("\n".join(lines) + "\n", FIXTURE_PATH)
        assert any(f.code == "RL004" for f in remaining)


class TestEngine:
    def test_syntax_error_becomes_rl000(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert [f.code for f in findings] == ["RL000"]
        assert findings[0].severity is Severity.ERROR

    def test_path_scoping_gates_rules(self):
        source = (FIXTURES / "rl003_bad.py").read_text()
        assert any(f.code == "RL003" for f in lint_source(source, FIXTURE_PATH))
        # Outside the repro tree RL003 does not apply ...
        outside = lint_source(source, "scripts/export.py")
        assert not any(f.code == "RL003" for f in outside)
        # ... and fileio.py itself (the atomic_write implementation) is exempt.
        exempt = lint_source(source, "src/repro/utils/fileio.py")
        assert not any(f.code == "RL003" for f in exempt)

    def test_select_and_ignore(self):
        source = (FIXTURES / "rl013_bad.py").read_text()
        path = fixture_path("RL013")
        assert any(f.code == "RL013" for f in lint_source(source, path, select=["RL01"]))
        assert not lint_source(source, path, select=["RL001"])
        assert not lint_source(source, path, ignore=["RL013"])

    def test_unknown_selector_raises(self):
        with pytest.raises(ValidationError, match="RL999"):
            lint_source("x = 1\n", FIXTURE_PATH, select=["RL999"])

    def test_lint_paths_skips_fixture_corpus(self, tmp_path):
        corpus = tmp_path / "lint_fixtures"
        corpus.mkdir()
        (corpus / "case.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_paths([tmp_path]) == []


class TestSelfCheck:
    def test_repo_sources_are_clean(self):
        """The analyzer's own gate: ``repro lint src tests`` stays green."""
        findings = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert findings == [], "\n" + render_text(findings)

    def test_docs_catalog_names_exactly_the_registered_rules(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        documented = re.findall(r"^\| (RL\d{3}) \|", doc, flags=re.MULTILINE)
        assert sorted(documented) == sorted(rule.code for rule in all_rules())

    def test_at_least_seven_rules_registered(self):
        codes = {rule.code for rule in all_rules()}
        assert {"RL001", "RL017", "RL018"} <= codes  # units and the energy budget
        assert len(codes) >= 7


class TestRegistry:
    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rl001").code == "RL001"

    def test_unknown_rule_raises(self):
        with pytest.raises(ValidationError, match="unknown rule"):
            get_rule("RL999")

    def test_duplicate_registration_rejected(self):
        registry = RuleRegistry()
        rule_cls = type(get_rule("RL001"))
        registry.register(rule_cls)
        with pytest.raises(ValidationError, match="duplicate"):
            registry.register(rule_cls)

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.code.startswith("RL")
            assert rule.name
            assert len(rule.rationale) > 40, f"{rule.code} needs a real rationale"


class TestDimensionAlgebra:
    def infer(self, expr, env=None):
        import ast

        return infer_dim(ast.parse(expr, mode="eval").body, env or {})

    def test_literals_are_polymorphic(self):
        assert self.infer("3.5") == POLY

    def test_name_table_and_env(self):
        assert self.infer("energy") == DIM_ENERGY
        assert self.infer("energy", {"energy": DIM_TIME}) == DIM_TIME

    def test_products_of_known_dimensions(self):
        assert self.infer("power * elapsed") == DIM_ENERGY
        assert self.infer("energy / elapsed") == DIM_POWER

    def test_literal_products_stay_unknown(self):
        # 0.35 * 8.0 * total_power: the 8.0 may be a hidden horizon in
        # seconds, so the product must not be reported as power.
        assert self.infer("0.35 * 8.0 * power") is None

    def test_mismatched_sum_is_unknown(self):
        assert self.infer("energy + elapsed") is None

    def test_build_env_tracks_assignments(self):
        import ast

        tree = ast.parse("reserve = joules(5.0)\ntotal = reserve + joules(1.0)\n")
        env = build_env(tree)
        assert env["reserve"] == DIM_ENERGY
        assert env["total"] == DIM_ENERGY


class TestReporters:
    def sample(self):
        return [
            Finding(
                path="src/repro/x.py",
                line=3,
                col=4,
                code="RL001",
                message="mismatch",
                severity=Severity.ERROR,
            )
        ]

    def test_render_text(self):
        text = render_text(self.sample())
        assert "src/repro/x.py:3:5: RL001 mismatch" in text
        assert "1 finding" in text

    def test_render_text_clean(self):
        assert "clean" in render_text([])

    def test_render_json(self):
        payload = json.loads(render_json(self.sample()))
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["by_rule"] == {"RL001": 1}
        assert payload["findings"][0]["code"] == "RL001"
        assert payload["findings"][0]["severity"] == "error"


class TestCLI:
    def write(self, tmp_path, name, fixture):
        target = tmp_path / name
        target.write_text((FIXTURES / fixture).read_text())
        return target

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.py", "rl001_bad.py")
        assert lint_main([str(bad)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_clean_exit_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.py", "rl001_bad.py")
        assert lint_main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"RL001": 3}

    def test_select_filters(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.py", "rl001_bad.py")
        assert lint_main(["--select", "RL013", str(bad)]) == 0
        capsys.readouterr()

    def test_unknown_selector_exit_two(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main(["--select", "RL999", str(clean)]) == 2
        assert "RL999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "RL001", "RL002", "RL003", "RL004", "RL005",
            "RL012", "RL013", "RL014", "RL017", "RL018",
        ]
