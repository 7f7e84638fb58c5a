"""Minimal deterministic SVG line charts (no display server, no deps).

Charts are pure views of already-written CSV rows: byte-identical inputs
produce byte-identical SVG output.
"""

__all__ = ["line_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 78, 24, 44, 58


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi, n=5):
    span = hi - lo
    step = span / (n - 1)
    return [lo + step * i for i in range(n)]


def _range(values):
    """(min, max) of ``values``, a flat range widened by a step relative to
    its level (1.0 below magnitude 1000), so that it stays wide at any scale."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + max(abs(lo) * 1e-3, 1.0)
    return lo, hi


def line_chart(series, title, xlabel, ylabel, path):
    """Write an SVG chart; ``series`` is a list of (label, xs, ys) triples."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("no data to plot")
    x_lo, x_hi = _range(xs_all)
    y_lo, y_hi = _range(ys_all)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x):
        return _ML + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MT + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>'
    )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for xt in _ticks(x_lo, x_hi):
        X = px(xt)
        out.append(
            f'<line x1="{X:.2f}" y1="{_MT + plot_h}" x2="{X:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{X:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xt)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        Y = py(yt)
        out.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" stroke="#333"/>')
        out.append(
            f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_ML + plot_w}" y2="{Y:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yt)}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MT + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = _MT + 16 + 18 * k
        out.append(
            f'<line x1="{_ML + plot_w - 150}" y1="{ly - 4}" x2="{_ML + plot_w - 122}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_ML + plot_w - 116}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
