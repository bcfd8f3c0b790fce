"""The docs-contract gate: catalogue completeness + API.md snippets."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.obs import docscheck

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRepoPasses:
    def test_this_repo_passes(self):
        assert docscheck.run_checks(REPO_ROOT) == []

    def test_main_exit_codes(self, capsys):
        assert docscheck.main(["--root", str(REPO_ROOT)]) == 0
        assert "docs-check: OK" in capsys.readouterr().out


class TestScanner:
    def test_finds_span_and_metric_call_sites(self):
        spans, metrics = docscheck.used_names(REPO_ROOT / "src")
        assert "mc.replay" in spans
        assert "experiment.fig5a" in spans
        assert "mc.trials_simulated" in metrics
        assert "verify.checks_run" in metrics
        # each name maps to the files using it
        assert any(p.endswith("montecarlo.py") for p in spans["mc.replay"])

    def test_obs_package_itself_is_excluded(self):
        spans, _ = docscheck.used_names(REPO_ROOT / "src")
        for files in spans.values():
            assert not any(f.startswith("repro/obs/") for f in files)

    def test_regexes_match_contract_style_only(self):
        assert docscheck.SPAN_USE_RE.findall('with span("a.b", n=1):') == ["a.b"]
        assert docscheck.SPAN_USE_RE.findall("span(name)") == []
        text = 'obs_metrics.inc("c.d", 2)'
        assert docscheck.METRIC_USE_RE.findall(text) == ["c.d"]
        assert docscheck.METRIC_USE_RE.findall("obs_metrics.inc(name)") == []


def _copy_repo_docs_and_src(tmp_path: Path) -> Path:
    root = tmp_path / "repo"
    (root / "docs").mkdir(parents=True)
    shutil.copytree(REPO_ROOT / "src", root / "src")
    for page in ("OBSERVABILITY.md", "API.md", "CHANNELS.md", "CACHING.md", "SERVICE.md"):
        shutil.copy(REPO_ROOT / "docs" / page, root / "docs" / page)
    return root


class TestFailureModes:
    def test_fails_when_span_name_removed_from_catalogue(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        obs_md = root / "docs" / "OBSERVABILITY.md"
        text = obs_md.read_text()
        assert "`mc.replay`" in text
        obs_md.write_text(text.replace("`mc.replay`", "`mc.removed_name`"))
        problems = docscheck.run_checks(root)
        assert any("'mc.replay'" in p and "Span catalogue" in p for p in problems)

    def test_fails_when_metric_name_removed_from_catalogue(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        obs_md = root / "docs" / "OBSERVABILITY.md"
        obs_md.write_text(obs_md.read_text().replace("`verify.checks_run`", "`x.y`"))
        problems = docscheck.run_checks(root)
        assert any("'verify.checks_run'" in p for p in problems)

    def test_fails_when_new_call_site_is_undocumented(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        extra = root / "src" / "repro" / "_docscheck_probe.py"
        extra.write_text(
            'from repro.obs.trace import span\n\n'
            'def f():\n'
            '    with span("undocumented.span"):\n'
            '        pass\n'
        )
        problems = docscheck.run_checks(root)
        assert any("'undocumented.span'" in p for p in problems)

    def test_fails_on_stale_catalogue_rows(self):
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        span_row = text.index("| `mc.replay` |")
        metric_row = text.index("| `mc.trials_simulated` |")
        assert span_row < metric_row
        text = (
            text[:span_row]
            + "| `backend.stale_span` | `n` | `gone.py` | no longer emitted |\n"
            + text[span_row:metric_row]
            + "| `backend.stale_count` | counter | n | no longer emitted |\n"
            + "Prose naming `backend.prose_only` is not a row.\n"
            + text[metric_row:]
        )
        problems = docscheck.check_catalogues(REPO_ROOT / "src", text)
        assert len(problems) == 2
        assert "span 'backend.stale_span'" in problems[0]
        assert "Span catalogue" in problems[0] and "no file under src/" in problems[0]
        assert "metric 'backend.stale_count'" in problems[1]
        assert "Metric catalogue" in problems[1]

    def test_fails_when_catalogue_section_missing(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        obs_md = root / "docs" / "OBSERVABILITY.md"
        obs_md.write_text(
            obs_md.read_text().replace("## Span catalogue", "## Spans (renamed)")
        )
        problems = docscheck.run_checks(root)
        assert any("no '## Span catalogue' section" in p for p in problems)

    def test_fails_when_observability_md_missing(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        (root / "docs" / "OBSERVABILITY.md").unlink()
        problems = docscheck.run_checks(root)
        assert any("does not exist" in p for p in problems)

    def test_main_exit_code_on_failure(self, tmp_path, capsys):
        root = _copy_repo_docs_and_src(tmp_path)
        obs_md = root / "docs" / "OBSERVABILITY.md"
        obs_md.write_text(obs_md.read_text().replace("`mc.replay`", "`gone`"))
        assert docscheck.main(["--root", str(root)]) == 1
        assert "docs-check: FAILED" in capsys.readouterr().err


class TestDoctestGate:
    def test_failing_snippet_reported(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        api = root / "docs" / "API.md"
        api.write_text(
            api.read_text()
            + "\n```python\n>>> 1 + 1\n3\n```\n"
        )
        problems = docscheck.run_checks(root)
        assert len(problems) == 1

    def test_failing_channels_snippet_reported(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ch = root / "docs" / "CHANNELS.md"
        ch.write_text(ch.read_text() + "\n```python\n>>> 2 + 2\n5\n```\n")
        problems = docscheck.run_checks(root)
        assert len(problems) == 1
        assert "CHANNELS.md" in problems[0]

    def test_blocks_without_prompts_are_ignored(self):
        md = "```python\nraise RuntimeError('not a doctest')\n```\n"
        assert docscheck.doctest_blocks(md) == []
        assert docscheck.run_doctest_blocks(md) == []

    def test_section_parser_stops_at_next_heading(self):
        md = (
            "## Span catalogue\n`a.b`\n\n"
            "## Metric catalogue\n`c.d`\n"
        )
        spans, metrics = docscheck.catalogued_names(md)
        assert spans == {"a.b"} and metrics == {"c.d"}


class TestChannelsGate:
    def test_repo_channels_doc_is_complete(self):
        problems = docscheck.run_checks(REPO_ROOT)
        assert problems == []

    def test_fails_when_law_removed_from_table(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ch = root / "docs" / "CHANNELS.md"
        text = ch.read_text()
        assert "`nakagami`" in text
        ch.write_text(text.replace("`nakagami`", "`renamed_law`"))
        problems = docscheck.run_checks(root)
        assert any("'nakagami'" in p and "Channel laws" in p for p in problems)

    def test_fails_when_policy_removed_from_table(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ch = root / "docs" / "CHANNELS.md"
        ch.write_text(ch.read_text().replace("`min_uniform`", "`gone`"))
        problems = docscheck.run_checks(root)
        assert any("'min_uniform'" in p and "Power policies" in p for p in problems)

    def test_fails_when_channels_md_missing(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        (root / "docs" / "CHANNELS.md").unlink()
        problems = docscheck.run_checks(root)
        assert any("docs/CHANNELS.md does not exist" in p for p in problems)

    def test_fails_when_section_heading_renamed(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ch = root / "docs" / "CHANNELS.md"
        ch.write_text(ch.read_text().replace("## Channel laws", "## Laws"))
        problems = docscheck.run_checks(root)
        assert any("no '## Channel laws' section" in p for p in problems)


class TestCachingGate:
    def test_fails_when_policy_removed_from_doc(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ca = root / "docs" / "CACHING.md"
        text = ca.read_text()
        assert "`repetition_aware`" in text
        ca.write_text(text.replace("`repetition_aware`", "`renamed_policy`"))
        problems = docscheck.run_checks(root)
        assert any(
            "'repetition_aware'" in p and "Eviction policies" in p for p in problems
        )

    def test_fails_when_caching_md_missing(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        (root / "docs" / "CACHING.md").unlink()
        problems = docscheck.run_checks(root)
        assert any("docs/CACHING.md does not exist" in p for p in problems)

    def test_fails_when_section_heading_renamed(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ca = root / "docs" / "CACHING.md"
        ca.write_text(ca.read_text().replace("## Eviction policies", "## Victims"))
        problems = docscheck.run_checks(root)
        assert any("no '## Eviction policies' section" in p for p in problems)

    def test_failing_caching_snippet_reported(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        ca = root / "docs" / "CACHING.md"
        ca.write_text(ca.read_text() + "\n```python\n>>> 3 + 3\n7\n```\n")
        problems = docscheck.run_checks(root)
        assert len(problems) == 1
        assert "CACHING.md" in problems[0]


class TestServiceGate:
    def test_fails_when_route_removed_from_doc(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        sv = root / "docs" / "SERVICE.md"
        text = sv.read_text()
        assert "`POST /v1/schedule`" in text
        sv.write_text(text.replace("`POST /v1/schedule`", "`POST /v1/renamed`"))
        problems = docscheck.run_checks(root)
        assert any(
            "'POST /v1/schedule'" in p and "Endpoints" in p for p in problems
        )

    def test_fails_when_error_code_removed_from_doc(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        sv = root / "docs" / "SERVICE.md"
        text = sv.read_text()
        assert "`queue-full`" in text
        sv.write_text(text.replace("`queue-full`", "`renamed-code`"))
        problems = docscheck.run_checks(root)
        assert any("'queue-full'" in p and "Error codes" in p for p in problems)

    def test_fails_when_service_md_missing(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        (root / "docs" / "SERVICE.md").unlink()
        problems = docscheck.run_checks(root)
        assert any("docs/SERVICE.md does not exist" in p for p in problems)

    def test_fails_when_section_heading_renamed(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        sv = root / "docs" / "SERVICE.md"
        sv.write_text(sv.read_text().replace("## Endpoints", "## Routes"))
        problems = docscheck.run_checks(root)
        assert any("no '## Endpoints' section" in p for p in problems)

    def test_failing_service_snippet_reported(self, tmp_path):
        root = _copy_repo_docs_and_src(tmp_path)
        sv = root / "docs" / "SERVICE.md"
        sv.write_text(sv.read_text() + "\n```python\n>>> 5 + 5\n11\n```\n")
        problems = docscheck.run_checks(root)
        assert len(problems) == 1
        assert "SERVICE.md" in problems[0]
