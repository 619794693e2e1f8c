"""Text and JSON rendering of summaries, comparisons, and predictions.

Text tables are fixed-width with right-aligned numbers; undefined
diagnostics print as NA. JSON output is indented, key-sorted, and holds
full-precision values (NaN becomes null).
"""

import json
import math


def _fmt(value, places, width):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA".rjust(width)
    return f"{value:.{places}f}".rjust(width)


def _fmt_int(value, width):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA".rjust(width)
    return f"{value:.0f}".rjust(width)


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
            f"{_fmt(r.ci_upper, 2, 8)}  {_fmt_int(r.ess_bulk, 8)}  "
            f"{_fmt_int(r.ess_tail, 8)}  {_fmt(r.rhat, 2, 6)}"
        )
    return "\n".join(lines) + "\n"


def render_summary_json(rows):
    return json.dumps(
        {"parameters": [r.to_dict() for r in rows]}, indent=2, sort_keys=True
    ) + "\n"


def render_comparison_text(comparison):
    """Model ranking, best first, differences against the best, then each
    model's p_loo and its observations per Pareto k bin."""
    name_width = max(
        len("model"), max((len(r.name) for r in comparison.rows), default=0)
    )
    lines = [
        f"{'model'.ljust(name_width)}  {'elpd_diff':>10}  {'se_diff':>8}  "
        f"{'p_loo':>7}  {'k<=0.5':>7}  {'0.5-0.7':>7}  {'0.7-1':>7}  {'k>1':>7}  "
        f"{'k=NA':>7}"
    ]
    for r in comparison.rows:
        counts = "  ".join(f"{n:>7}" for n in r.k_counts.values())
        lines.append(
            f"{r.name.ljust(name_width)}  {_fmt(r.elpd_diff, 1, 10)}  "
            f"{_fmt(r.se_diff, 1, 8)}  {_fmt(r.p_loo, 1, 7)}  {counts}"
        )
    return "\n".join(lines) + "\n"


def render_comparison_json(comparison):
    return json.dumps(comparison.to_dict(), indent=2, sort_keys=True) + "\n"


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


def render_predictions_json(rows):
    return json.dumps(
        {"predictions": [r.to_dict() for r in rows]}, indent=2, sort_keys=True
    ) + "\n"


def render_checks_text(checks):
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}: {c.detail}")
    return "\n".join(lines) + "\n"


def render_checks_json(checks):
    return json.dumps(
        {
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ]
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
