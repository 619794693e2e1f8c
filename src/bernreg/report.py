"""Text and JSON rendering of summaries, comparisons, and predictions.

Text tables are fixed-width with right-aligned numbers; undefined
diagnostics print as NA. JSON goes through render_json: records
(summary rows, comparison rows, checks, run configs) serialize as their
dataclass fields, NaN becomes null, and the output is indented,
key-sorted, and holds full-precision values. Prediction JSON, one record
per scored row, is written directly, row by row, with the bytes
render_json gives for it: json's indent=2 encoder runs in pure Python.
"""

import json
import math
from json.encoder import encode_basestring_ascii

from .loo import K_BINS


def _fmt(value, places, width):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA".rjust(width)
    return f"{value:.{places}f}".rjust(width)


def _record_fields(record):
    """A record's fields for json.dumps, with NaN as None."""
    return {
        name: None if isinstance(value, float) and math.isnan(value) else value
        for name, value in vars(record).items()
    }


def render_json(value):
    """Indented, key-sorted JSON of dicts, lists and records."""
    return json.dumps(value, default=_record_fields, indent=2, sort_keys=True) + "\n"


def render_summary_text(rows):
    """Coefficient table: one row per parameter, diagnostics included."""
    name_width = max(len("parameter"), max((len(r.name) for r in rows), default=0))
    header = (
        f"{'parameter'.ljust(name_width)}  {'estimate':>9}  {'est_error':>9}  "
        f"{'q2.5':>8}  {'q97.5':>8}  {'ess_bulk':>8}  {'ess_tail':>8}  {'rhat':>6}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.name.ljust(name_width)}  {_fmt(r.estimate, 2, 9)}  "
            f"{_fmt(r.est_error, 2, 9)}  {_fmt(r.ci_lower, 2, 8)}  "
            f"{_fmt(r.ci_upper, 2, 8)}  {_fmt(r.ess_bulk, 0, 8)}  "
            f"{_fmt(r.ess_tail, 0, 8)}  {_fmt(r.rhat, 2, 6)}"
        )
    return "\n".join(lines) + "\n"


def render_summary_json(rows):
    return render_json({"parameters": rows})


def _k_bin_labels():
    """Column labels of the K_BINS bins, as k<=0.5 0.5-0.7 0.7-1 k>1, then k=NA."""
    edges = [f"{upper:g}" for _, upper in K_BINS[:-1]]
    return [f"k<={edges[0]}", *map("-".join, zip(edges, edges[1:])), f"k>{edges[-1]}", "k=NA"]


def render_comparison_text(comparison):
    """Model ranking, best first, differences against the best, then each
    model's p_loo and its observations per Pareto k bin."""
    name_width = max([len("model")] + [len(r.name) for r in comparison.rows])
    lines = [
        f"{'model'.ljust(name_width)}  {'elpd_diff':>10}  {'se_diff':>8}  {'p_loo':>7}  "
        + "  ".join(f"{label:>7}" for label in _k_bin_labels())
    ]
    for r in comparison.rows:
        counts = "  ".join(f"{n:>7}" for n in r.pareto_k_counts.values())
        lines.append(
            f"{r.name.ljust(name_width)}  {_fmt(r.elpd_diff, 1, 10)}  "
            f"{_fmt(r.se_diff, 1, 8)}  {_fmt(r.p_loo, 1, 7)}  {counts}"
        )
    return "\n".join(lines) + "\n"


def render_comparison_json(comparison):
    return render_json(comparison)


def render_predictions_text(rows):
    lines = [
        f"{'row':>5}  {'estimate':>9}  {'est_error':>9}  {'q2.5':>7}  {'q97.5':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.index:>5}  {_fmt(r.estimate, 3, 9)}  {_fmt(r.est_error, 3, 9)}  "
            f"{_fmt(r.ci_lower, 3, 7)}  {_fmt(r.ci_upper, 3, 7)}"
        )
    return "\n".join(lines) + "\n"


def _json_number(value):
    """A float or int as render_json writes it: its repr, NaN as null, and
    infinities as json spells them."""
    if not isinstance(value, float):
        return int.__repr__(value)
    if -math.inf < value < math.inf:
        return float.__repr__(value)
    if value != value:
        return "null"
    return "Infinity" if value > 0 else "-Infinity"


def render_predictions_json(rows):
    """render_json({"predictions": rows}), byte for byte, a row at a time."""
    if not rows:
        return '{\n  "predictions": []\n}\n'
    records = [
        '    {\n'
        f'      "ci_lower": {_json_number(r.ci_lower)},\n'
        f'      "ci_upper": {_json_number(r.ci_upper)},\n'
        f'      "est_error": {_json_number(r.est_error)},\n'
        f'      "estimate": {_json_number(r.estimate)},\n'
        f'      "index": {_json_number(r.index)},\n'
        f'      "scale": {encode_basestring_ascii(r.scale)}\n'
        '    }'
        for r in rows
    ]
    return '{\n  "predictions": [\n' + ",\n".join(records) + "\n  ]\n}\n"


def render_checks_text(checks):
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}: {c.detail}")
    return "\n".join(lines) + "\n"


def render_checks_json(checks):
    return render_json({"checks": checks})
