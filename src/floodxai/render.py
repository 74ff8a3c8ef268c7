"""Plain-text and SVG bar renderings for reports.

Static, dependency-free output: one-sided charts for magnitudes (monthly
rainfall means, global importances) and two-sided charts for signed
local weights, with negative bars extending left of the axis.
"""

from __future__ import annotations

from html import escape


def _text_bars(labels, values, width):
    """(label padded to the widest, value, bar length) per bar; the largest
    magnitude gets `width` characters."""
    values = [float(v) for v in values]
    labels = [str(x) for x in labels]
    peak = max((abs(v) for v in values), default=0.0)
    label_width = max((len(x) for x in labels), default=0)
    return [
        (label.ljust(label_width), value, int(round(abs(value) / peak * width)) if peak > 0 else 0)
        for label, value in zip(labels, values)
    ]


def bar_chart(labels, values, width=50, value_format="{:.2f}"):
    """One-sided horizontal text bars scaled to the largest value."""
    return "\n".join(
        f"{label} | {'#' * n:<{width}} {value_format.format(value)}"
        for label, value, n in _text_bars(labels, values, width)
    )


def two_sided_bar_chart(labels, values, width=24, value_format="{:+.4f}"):
    """Signed horizontal text bars: negatives left of the axis, positives right."""
    lines = []
    for label, value, n in _text_bars(labels, values, width):
        bar = "#" * n
        left = bar.rjust(width) if value < 0 else " " * width
        right = bar.ljust(width) if value >= 0 else " " * width
        lines.append(f"{label} {left}|{right} {value_format.format(value)}")
    return "\n".join(lines)


_BAR_HEIGHT = 22
_BAR_GAP = 6
_LABEL_SPACE = 150
_VALUE_SPACE = 90
_CHART_WIDTH = 640
_BAR_SPAN = _CHART_WIDTH - _LABEL_SPACE - _VALUE_SPACE


def _svg_bars(labels, values, title, span):
    """An SVG chart's opening parts and its height, and per bar its top y, its
    label's text element, its value and its bar length (the largest magnitude
    gets `span`)."""
    values = [float(v) for v in values]
    labels = [str(x) for x in labels]
    height = 40 + len(labels) * (_BAR_HEIGHT + _BAR_GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_CHART_WIDTH} {height}" '
        'font-family="monospace" font-size="13">',
    ]
    if title:
        parts.append(
            f'<text x="{_CHART_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="15">{escape(title, quote=False)}</text>'
        )
    peak = max((abs(v) for v in values), default=0.0)
    bars = []
    for i, (label, value) in enumerate(zip(labels, values)):
        y = 36 + i * (_BAR_HEIGHT + _BAR_GAP)
        text = (
            f'<text x="{_LABEL_SPACE - 8}" y="{y + 15}" text-anchor="end">'
            f"{escape(label, quote=False)}</text>"
        )
        bars.append((y, text, value, abs(value) / peak * span if peak > 0 else 0.0))
    return parts, height, bars


def svg_bar_chart(labels, values, title=""):
    """Static SVG with one horizontal bar per label."""
    parts, _, bars = _svg_bars(labels, values, title, _BAR_SPAN)
    for y, text, value, w in bars:
        parts += [
            text,
            f'<rect x="{_LABEL_SPACE}" y="{y}" width="{w:.1f}" '
            f'height="{_BAR_HEIGHT}" fill="#4682b4"/>',
            f'<text x="{_LABEL_SPACE + w + 6:.1f}" y="{y + 15}">{value:.2f}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_two_sided_bar_chart(labels, values, title=""):
    """Static SVG with a central axis; negative bars extend left."""
    half = _BAR_SPAN / 2
    axis = _LABEL_SPACE + half
    parts, height, bars = _svg_bars(labels, values, title, half)
    parts.append(
        f'<line x1="{axis:.1f}" y1="30" x2="{axis:.1f}" y2="{height - 10}" '
        'stroke="#888" stroke-width="1"/>'
    )
    for y, text, value, w in bars:
        x = axis - w if value < 0 else axis
        color = "#b44646" if value < 0 else "#4682b4"
        anchor = "end" if value < 0 else "start"
        tx = axis - w - 6 if value < 0 else axis + w + 6
        parts += [
            text,
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{_BAR_HEIGHT}" '
            f'fill="{color}"/>',
            f'<text x="{tx:.1f}" y="{y + 15}" text-anchor="{anchor}">'
            f"{value:+.4f}</text>",
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
