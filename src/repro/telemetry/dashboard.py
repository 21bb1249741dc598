"""``repro dashboard``: a zero-dependency static HTML run dashboard.

Renders one run manifest (``*.manifest.json`` or a JSONL event stream,
via :func:`~repro.telemetry.diff.load_run`) into a single self-contained
HTML document: inline CSS, a small inline script for objective filtering,
no external fonts, scripts or CDNs — it opens offline from a CI artifact
or an ``file://`` path.

Sections: run summary tiles, per-(model, tool) coverage table with
inline meters, the provenance drill-down (uncovered objectives first,
with their solver-audit chains), stalled cells, phase seconds, changed
metric counters and recorded failures.  Every section degrades to a
short "(not recorded)" note when the run lacks it, so the page renders
for untraced and provenance-off runs too.

Colors follow one palette (light and dark variants selected per scheme,
not auto-inverted); status is never color alone — covered/uncovered and
ok/failed always pair a symbol and a text label with the color.
"""

from __future__ import annotations

import html
from typing import Dict, List

__all__ = ["render_dashboard"]

#: Inline stylesheet: palette custom properties (light + dark), layout.
_CSS = """
:root {
  --surface: #fcfcfb; --panel: #f4f4f2;
  --text: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --series: #2a78d6;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #232322;
    --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --series: #3987e5;
  }
}
:root[data-theme="dark"] {
  --surface: #1a1a19; --panel: #232322;
  --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --series: #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px; max-width: 1080px;
  background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--panel); border: 1px solid var(--grid);
  border-radius: 6px; padding: 10px 16px; min-width: 110px;
}
.tile .v {
  font-size: 22px; font-variant-numeric: tabular-nums;
}
.tile .k { color: var(--text-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-2); font-weight: 600; font-size: 12px; }
td.num { text-align: right; }
.meter {
  display: inline-block; vertical-align: middle;
  width: 120px; height: 8px; border-radius: 4px;
  background: var(--grid); overflow: hidden; margin-right: 8px;
}
.meter > span {
  display: block; height: 100%; border-radius: 4px;
  background: var(--series);
}
.ok { color: var(--good); }
.bad { color: var(--critical); }
details {
  background: var(--panel); border: 1px solid var(--grid);
  border-radius: 6px; padding: 8px 14px; margin: 8px 0;
}
summary { cursor: pointer; font-weight: 600; }
.objective { margin: 6px 0 6px 12px; }
.objective code {
  font-family: ui-monospace, monospace; font-size: 13px;
}
.audit { color: var(--text-2); margin: 2px 0 2px 24px; font-size: 13px; }
.note { color: var(--muted); }
input[type="search"] {
  background: var(--panel); color: var(--text);
  border: 1px solid var(--grid); border-radius: 6px;
  padding: 6px 10px; width: 320px; margin: 4px 0 8px;
}
"""

#: Objective filter: hides .objective rows not matching the query.
_JS = """
document.addEventListener('input', function (event) {
  if (event.target.id !== 'objective-filter') return;
  var query = event.target.value.toLowerCase();
  document.querySelectorAll('.objective').forEach(function (row) {
    var hit = row.dataset.id.toLowerCase().indexOf(query) !== -1;
    row.style.display = hit ? '' : 'none';
  });
  if (query) {
    document.querySelectorAll('details.prov').forEach(function (box) {
      box.open = true;
    });
  }
});
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _tile(label: str, value: str, cls: str = "") -> str:
    return (
        f'<div class="tile"><div class="v {cls}">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _meter(fraction: float) -> str:
    pct = max(0.0, min(1.0, float(fraction))) * 100.0
    return (
        f'<span class="meter"><span style="width:{pct:.1f}%"></span></span>'
        f"{pct:.1f}%"
    )


def _status(ok: bool, ok_text: str, bad_text: str) -> str:
    """Status as symbol + text label, never color alone."""
    if ok:
        return f'<span class="ok">&#10003; {_esc(ok_text)}</span>'
    return f'<span class="bad">&#10007; {_esc(bad_text)}</span>'


def _coverage_section(manifest: Dict[str, object]) -> List[str]:
    coverage = manifest.get("coverage") or {}
    out = ["<h2>Coverage</h2>"]
    if not coverage:
        out.append('<p class="note">(no finished cells recorded)</p>')
        return out
    out.append(
        "<table><tr><th>Model</th><th>Tool</th><th>Decision</th>"
        "<th>Condition</th><th>MC/DC</th><th>Runs</th></tr>"
    )
    for model in sorted(coverage):
        for tool in sorted(coverage[model]):
            agg = coverage[model][tool] or {}
            out.append(
                f"<tr><td>{_esc(model)}</td><td>{_esc(tool)}</td>"
                f"<td>{_meter(agg.get('decision', 0.0))}</td>"
                f"<td>{_meter(agg.get('condition', 0.0))}</td>"
                f"<td>{_meter(agg.get('mcdc', 0.0))}</td>"
                f"<td class=\"num\">{int(agg.get('runs', 0))}</td></tr>"
            )
    out.append("</table>")
    return out


def _audit_lines(entry: Dict[str, object]) -> List[str]:
    out = []
    attempts = entry.get("attempts") or {}
    skips = entry.get("skips") or {}
    if attempts:
        summary = ", ".join(f"{k} ×{v}" for k, v in attempts.items())
        out.append(f'<div class="audit">attempts: {_esc(summary)}</div>')
    if skips:
        summary = ", ".join(f"{k} ×{v}" for k, v in skips.items())
        out.append(f'<div class="audit">skips: {_esc(summary)}</div>')
    if not attempts and not skips:
        out.append('<div class="audit">never attempted</div>')
    for row in entry.get("trail") or []:
        compiled = "compiled" if row.get("compiled") else "interpreted"
        out.append(
            '<div class="audit">node '
            f"{_esc(row.get('node'))} &rarr; {_esc(row.get('verdict'))}"
            f"@{_esc(row.get('stage'))} ({_esc(row.get('engine'))} engine, "
            f"{compiled})</div>"
        )
    return out


def _provenance_section(manifest: Dict[str, object]) -> List[str]:
    provenance = manifest.get("provenance") or {}
    out = ["<h2>Objective provenance</h2>"]
    if not provenance:
        out.append(
            '<p class="note">(no provenance section — the ledger was off '
            "or the stream predates it)</p>"
        )
        return out
    out.append(
        '<input id="objective-filter" type="search" '
        'placeholder="filter objectives, e.g. M: or SwitchCase" />'
    )
    for model in sorted(provenance):
        for tool in sorted(provenance[model]):
            snapshot = provenance[model][tool] or {}
            objectives = snapshot.get("objectives") or {}
            totals = snapshot.get("totals") or {}
            uncovered = [
                (oid, e) for oid, e in objectives.items()
                if e.get("status") == "uncovered"
            ]
            covered = [
                (oid, e) for oid, e in objectives.items()
                if e.get("status") == "covered"
            ]
            open_attr = " open" if uncovered else ""
            out.append(
                f'<details class="prov"{open_attr}><summary>'
                f"{_esc(model)} / {_esc(tool)} &mdash; "
                f"{int(totals.get('covered', 0))}/"
                f"{int(totals.get('objectives', 0))} covered, "
                f"{len(uncovered)} uncovered</summary>"
            )
            for oid, entry in uncovered:
                out.append(
                    f'<div class="objective" data-id="{_esc(oid)}">'
                    f"{_status(False, 'covered', 'uncovered')} "
                    f"<code>{_esc(oid)}</code>"
                )
                out.extend(_audit_lines(entry))
                out.append("</div>")
            for oid, entry in covered:
                case = entry.get("case")
                case_text = (
                    "discarded candidate" if case is None else f"case {case}"
                )
                repetition = entry.get("repetition")
                rep = f", rep {repetition}" if repetition is not None else ""
                out.append(
                    f'<div class="objective" data-id="{_esc(oid)}">'
                    f"{_status(True, 'covered', 'uncovered')} "
                    f"<code>{_esc(oid)}</code> "
                    f'<span class="audit" style="display:inline">'
                    f"{_esc(case_text)}, step {_esc(entry.get('step'))} "
                    f"via {_esc(entry.get('origin'))}{_esc(rep)}</span></div>"
                )
            out.append("</details>")
    return out


def _fuzz_section(manifest: Dict[str, object]) -> List[str]:
    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    out = ["<h2>Fuzz campaigns</h2>"]
    if not counters.get("fuzz.cells"):
        out.append(
            '<p class="note">(no fuzz campaigns — Fuzz/Hybrid cells only)</p>'
        )
        return out
    corpus = ((metrics.get("gauges") or {}).get("fuzz.corpus_size") or {})
    out.append('<div class="tiles">')
    out.append(_tile("fuzz cells", str(int(counters["fuzz.cells"]))))
    out.append(_tile("executions", str(int(counters.get("fuzz.executions", 0)))))
    out.append(_tile("corpus size (max)", str(int(corpus.get("value") or 0))))
    out.append(_tile("retained", str(int(counters.get("fuzz.retained", 0)))))
    out.append(
        _tile("seed entries", str(int(counters.get("fuzz.seed_entries", 0))))
    )
    targets = int(counters.get("fuzz.targets", 0))
    if targets:
        out.append(
            _tile(
                "hybrid targets covered",
                f"{int(counters.get('fuzz.targets_covered', 0))}/{targets}",
            )
        )
        out.append(
            _tile("tree nodes fed", str(int(counters.get("fuzz.tree_nodes", 0))))
        )
    out.append("</div>")
    return out


def _table_section(
    title: str,
    rows: List[List[object]],
    headers: List[str],
    empty: str,
) -> List[str]:
    out = [f"<h2>{_esc(title)}</h2>"]
    if not rows:
        out.append(f'<p class="note">({_esc(empty)})</p>')
        return out
    out.append(
        "<table><tr>"
        + "".join(f"<th>{_esc(h)}</th>" for h in headers)
        + "</tr>"
    )
    for row in rows:
        out.append(
            "<tr>" + "".join(f"<td>{_esc(v)}</td>" for v in row) + "</tr>"
        )
    out.append("</table>")
    return out


def render_dashboard(
    manifest: Dict[str, object], title: str = "repro run dashboard"
) -> str:
    """One manifest document to one self-contained HTML page."""
    cells = int(manifest.get("cells", 0))
    ok = int(manifest.get("ok", 0))
    failed = int(manifest.get("failed", 0))
    stalls = manifest.get("stalls") or []
    body: List[str] = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">schema {_esc(manifest.get("schema", "?"))} &middot; '
        f"{int(manifest.get('events', 0))} events</p>",
        '<div class="tiles">',
        _tile("cells", str(cells)),
        _tile("ok", str(ok), "ok" if ok == cells else ""),
        _tile("failed", str(failed), "bad" if failed else ""),
        _tile("wall clock", f"{float(manifest.get('wall_s', 0.0)):.1f}s"),
        _tile("cell seconds", f"{float(manifest.get('cell_seconds', 0.0)):.1f}s"),
        "</div>",
    ]
    body.extend(_coverage_section(manifest))
    body.extend(_fuzz_section(manifest))
    body.extend(_provenance_section(manifest))
    body.extend(
        _table_section(
            "Stalled cells",
            [
                [s.get("model"), s.get("tool"), s.get("repetition"),
                 f"{float(s.get('quiet_s', 0.0)):.1f}s quiet"]
                for s in stalls
            ],
            ["Model", "Tool", "Rep", "Quiet"],
            "no stalls recorded",
        )
    )
    phase_seconds = manifest.get("phase_seconds") or {}
    body.extend(
        _table_section(
            "Phase seconds",
            [
                [phase, f"{seconds:.3f}s"]
                for phase, seconds in sorted(
                    phase_seconds.items(), key=lambda kv: -kv[1]
                )
            ],
            ["Phase", "Seconds"],
            "no phase totals — traced runs only",
        )
    )
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    body.extend(
        _table_section(
            "Metric counters",
            [[name, value] for name, value in sorted(counters.items())],
            ["Counter", "Value"],
            "no metrics registry snapshot in this run",
        )
    )
    body.extend(
        _table_section(
            "Failures",
            [
                [f.get("model"), f.get("tool"), f.get("repetition"),
                 f.get("kind"), f.get("message")]
                for f in (manifest.get("failures") or [])
            ],
            ["Model", "Tool", "Rep", "Kind", "Message"],
            "no failed cells",
        )
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8" />\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1" />\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + f"\n<script>{_JS}</script>\n</body>\n</html>\n"
    )
