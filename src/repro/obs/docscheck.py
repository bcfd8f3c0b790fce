"""Documentation-contract checker behind ``make docs-check``.

Five gates, all cheap enough to run before every test pass:

1. **Catalogue completeness, both ways** — every span name passed to
   ``span("…")`` and every metric name passed to
   ``obs_metrics.inc/gauge/observe`` anywhere under ``src/`` (outside
   :mod:`repro.obs` itself) must appear in the corresponding catalogue
   section of ``docs/OBSERVABILITY.md``, and every catalogue table row
   of the form ``| `name` |`` must name a span or metric that ``src/``
   still emits.  Adding an instrumented call site without documenting
   it, or deleting one and leaving its row behind, fails the build,
   which is what keeps the span/metric names a *stable public
   contract* rather than an accident of the code.

2. **API snippets** — every fenced ````python```` block in
   ``docs/API.md`` that contains doctest prompts (``>>>``) is executed
   with the standard :mod:`doctest` machinery.  Documented signatures
   that drift from the code fail here instead of silently rotting.

3. **Channel reference** — every registered channel law
   (:func:`repro.channel.laws.channel_law_names`) and power policy
   (:data:`repro.core.powercontrol.POWER_POLICIES`) must appear
   backticked in the matching section of ``docs/CHANNELS.md``, and its
   doctest blocks run like API.md's.  Registering a law without
   documenting it fails the build.

4. **Cache reference** — every registered cache eviction policy
   (:data:`repro.cache.CACHE_POLICIES`) must appear backticked in the
   ``## Eviction policies`` section of ``docs/CACHING.md``, and its
   doctest blocks run like API.md's.

5. **Service reference** — every HTTP route template
   (:data:`repro.service.ROUTE_TEMPLATES`) must appear backticked in
   the ``## Endpoints`` section of ``docs/SERVICE.md``, every wire
   error code (:data:`repro.service.WIRE_ERROR_CODES`) in the
   ``## Error codes`` section, and its doctest blocks run like
   API.md's.  Adding a route or error code without documenting it
   fails the build.

The scanner is intentionally literal: instrumented call sites must
write ``span("dotted.name", ...)`` / ``obs_metrics.inc("dotted.name",
...)`` with a **string literal** first argument (this is also the
style the contract mandates — dynamic span names defeat aggregation).
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: ``span("name"`` — also matches ``trace.span(``; instrumented modules
#: import the function directly, so a bare call is the common form.
SPAN_USE_RE = re.compile(r"""\bspan\(\s*["']([A-Za-z0-9_.]+)["']""")
#: ``obs_metrics.inc("name"`` / ``.gauge(`` / ``.observe(`` — the import
#: alias ``from repro.obs import metrics as obs_metrics`` is part of the
#: instrumentation style so the scanner (and readers) can spot metric
#: call sites unambiguously.
METRIC_USE_RE = re.compile(
    r"""\bobs_metrics\.(?:inc|gauge|observe)\(\s*["']([A-Za-z0-9_.]+)["']"""
)

#: A catalogued name inside an OBSERVABILITY.md section: a backticked
#: dotted identifier like `` `mc.chunks_sampled` ``.
_CATALOGUE_NAME_RE = re.compile(r"`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`")
#: A catalogue table row whose first cell is one backticked name:
#: ``| `mc.replay` | ...``.  Only these rows claim an emitted name.
_CATALOGUE_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|", re.MULTILINE)


def used_names(src_root: Path) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Scan ``src_root`` for instrumented span / metric names.

    Returns ``(spans, metrics)`` mapping each name to the files using
    it.  ``repro/obs`` itself is excluded — its docstrings and tests
    mention names generically.
    """
    spans: Dict[str, List[str]] = {}
    metrics: Dict[str, List[str]] = {}
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel.startswith("repro/obs/"):
            continue
        text = path.read_text()
        for name in SPAN_USE_RE.findall(text):
            spans.setdefault(name, []).append(rel)
        for name in METRIC_USE_RE.findall(text):
            metrics.setdefault(name, []).append(rel)
    return spans, metrics


def _section(markdown: str, heading: str) -> str:
    """The body of one ``## heading`` section (empty if absent)."""
    pattern = re.compile(
        rf"^##\s+{re.escape(heading)}\s*$(.*?)(?=^##\s|\Z)",
        re.MULTILINE | re.DOTALL,
    )
    m = pattern.search(markdown)
    return m.group(1) if m else ""


def catalogued_names(observability_md: str) -> Tuple[Set[str], Set[str]]:
    """Span and metric catalogues from OBSERVABILITY.md text."""
    spans = set(_CATALOGUE_NAME_RE.findall(_section(observability_md, "Span catalogue")))
    metrics = set(
        _CATALOGUE_NAME_RE.findall(_section(observability_md, "Metric catalogue"))
    )
    return spans, metrics


def catalogue_rows(observability_md: str) -> Tuple[List[str], List[str]]:
    """First-cell names of the Span and Metric catalogue table rows."""
    return (
        _CATALOGUE_ROW_RE.findall(_section(observability_md, "Span catalogue")),
        _CATALOGUE_ROW_RE.findall(_section(observability_md, "Metric catalogue")),
    )


def check_catalogues(
    src_root: Path, observability_md: str
) -> List[str]:
    """Names used in ``src/`` but missing from the catalogues, and
    catalogue rows naming something ``src/`` no longer emits."""
    used_spans, used_metrics = used_names(src_root)
    doc_spans, doc_metrics = catalogued_names(observability_md)
    row_spans, row_metrics = catalogue_rows(observability_md)
    problems: List[str] = []
    if not doc_spans:
        problems.append(
            "docs/OBSERVABILITY.md has no '## Span catalogue' section (or it is empty)"
        )
    if not doc_metrics:
        problems.append(
            "docs/OBSERVABILITY.md has no '## Metric catalogue' section (or it is empty)"
        )
    for name in sorted(set(used_spans) - doc_spans):
        problems.append(
            f"span {name!r} (used in {', '.join(used_spans[name])}) is not in the "
            f"Span catalogue of docs/OBSERVABILITY.md"
        )
    for name in sorted(set(used_metrics) - doc_metrics):
        problems.append(
            f"metric {name!r} (used in {', '.join(used_metrics[name])}) is not in "
            f"the Metric catalogue of docs/OBSERVABILITY.md"
        )
    for kind, rows, used in (
        ("span", row_spans, used_spans),
        ("metric", row_metrics, used_metrics),
    ):
        for name in sorted(set(rows) - set(used)):
            problems.append(
                f"{kind} {name!r} has a row in the {kind.capitalize()} catalogue of "
                f"docs/OBSERVABILITY.md but no file under src/ emits it"
            )
    return problems


_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def doctest_blocks(markdown: str) -> List[str]:
    """Fenced python blocks containing doctest prompts."""
    return [block for block in _FENCE_RE.findall(markdown) if ">>>" in block]


def run_doctest_blocks(markdown: str, *, name: str = "docs") -> List[str]:
    """Execute every doctest block; returns failure descriptions."""
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS, verbose=False)
    parser = doctest.DocTestParser()
    failures: List[str] = []
    for i, block in enumerate(doctest_blocks(markdown)):
        test = parser.get_doctest(block, {}, f"{name}[block {i}]", name, 0)
        out: List[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            failures.append("".join(out) or f"{name}[block {i}] failed")
            runner = doctest.DocTestRunner(
                optionflags=doctest.ELLIPSIS, verbose=False
            )
    return failures


def check_channels_doc(channels_md: str) -> List[str]:
    """Registered law/policy names missing from docs/CHANNELS.md sections."""
    from repro.channel.laws import channel_law_names
    from repro.core.powercontrol import POWER_POLICIES

    problems: List[str] = []
    law_section = _section(channels_md, "Channel laws")
    policy_section = _section(channels_md, "Power policies")
    if not law_section:
        problems.append(
            "docs/CHANNELS.md has no '## Channel laws' section (or it is empty)"
        )
    if not policy_section:
        problems.append(
            "docs/CHANNELS.md has no '## Power policies' section (or it is empty)"
        )
    _name_re = re.compile(r"`([a-z0-9_]+)`")
    documented_laws = set(_name_re.findall(law_section))
    documented_policies = set(_name_re.findall(policy_section))
    for name in channel_law_names():
        if name not in documented_laws:
            problems.append(
                f"channel law {name!r} is registered but not documented in the "
                f"'Channel laws' section of docs/CHANNELS.md"
            )
    for name in POWER_POLICIES:
        if name not in documented_policies:
            problems.append(
                f"power policy {name!r} is registered but not documented in the "
                f"'Power policies' section of docs/CHANNELS.md"
            )
    return problems


def check_caching_doc(caching_md: str) -> List[str]:
    """Registered cache eviction policies missing from docs/CACHING.md."""
    from repro.cache import CACHE_POLICIES

    problems: List[str] = []
    policy_section = _section(caching_md, "Eviction policies")
    if not policy_section:
        problems.append(
            "docs/CACHING.md has no '## Eviction policies' section (or it is empty)"
        )
    _name_re = re.compile(r"`([a-z0-9_]+)`")
    documented = set(_name_re.findall(policy_section))
    for name in CACHE_POLICIES:
        if name not in documented:
            problems.append(
                f"cache policy {name!r} is registered but not documented in the "
                f"'Eviction policies' section of docs/CACHING.md"
            )
    return problems


def check_service_doc(service_md: str) -> List[str]:
    """Routes / wire error codes missing from docs/SERVICE.md sections."""
    from repro.service import ROUTE_TEMPLATES, WIRE_ERROR_CODES

    problems: List[str] = []
    endpoint_section = _section(service_md, "Endpoints")
    error_section = _section(service_md, "Error codes")
    if not endpoint_section:
        problems.append(
            "docs/SERVICE.md has no '## Endpoints' section (or it is empty)"
        )
    if not error_section:
        problems.append(
            "docs/SERVICE.md has no '## Error codes' section (or it is empty)"
        )
    _code_re = re.compile(r"`([a-z0-9-]+)`")
    documented_codes = set(_code_re.findall(error_section))
    for route in ROUTE_TEMPLATES:
        if f"`{route}`" not in endpoint_section:
            problems.append(
                f"route {route!r} is served but not documented in the "
                f"'Endpoints' section of docs/SERVICE.md"
            )
    for code in WIRE_ERROR_CODES:
        if code not in documented_codes:
            problems.append(
                f"wire error code {code!r} is emitted but not documented in the "
                f"'Error codes' section of docs/SERVICE.md"
            )
    return problems


def run_checks(root: Path) -> List[str]:
    """All docs-contract checks for a repo rooted at ``root``."""
    problems: List[str] = []
    obs_md = root / "docs" / "OBSERVABILITY.md"
    api_md = root / "docs" / "API.md"
    channels_md = root / "docs" / "CHANNELS.md"
    caching_md = root / "docs" / "CACHING.md"
    service_md = root / "docs" / "SERVICE.md"
    if not obs_md.exists():
        problems.append("docs/OBSERVABILITY.md does not exist")
    else:
        problems.extend(check_catalogues(root / "src", obs_md.read_text()))
    if not api_md.exists():
        problems.append("docs/API.md does not exist")
    else:
        problems.extend(run_doctest_blocks(api_md.read_text(), name="docs/API.md"))
    if not channels_md.exists():
        problems.append("docs/CHANNELS.md does not exist")
    else:
        text = channels_md.read_text()
        problems.extend(check_channels_doc(text))
        problems.extend(run_doctest_blocks(text, name="docs/CHANNELS.md"))
    if not caching_md.exists():
        problems.append("docs/CACHING.md does not exist")
    else:
        text = caching_md.read_text()
        problems.extend(check_caching_doc(text))
        problems.extend(run_doctest_blocks(text, name="docs/CACHING.md"))
    if not service_md.exists():
        problems.append("docs/SERVICE.md does not exist")
    else:
        text = service_md.read_text()
        problems.extend(check_service_doc(text))
        problems.extend(run_doctest_blocks(text, name="docs/SERVICE.md"))
    return problems


def main(argv: Iterable[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.obs.docscheck [--root DIR]``."""
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if args[:1] == ["--root"] and len(args) >= 2:
        root = Path(args[1])
    problems = run_checks(root)
    if problems:
        print("docs-check: FAILED", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    used_spans, used_metrics = used_names(root / "src")
    print(
        f"docs-check: OK ({len(used_spans)} span names, "
        f"{len(used_metrics)} metric names catalogued; API.md snippets pass)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
