"""Minimal deterministic SVG renderer for the standard plot kinds.

Hand-rolled on purpose: identical input must produce byte-identical SVG, so
no plotting library (with embedded timestamps or version metadata) is used.
Three kinds are supported: `profile` (species/resource levels versus
trait), `entropy` (diagnostics versus time), and `waterfall` (layered
species profiles over time).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .csvio import Table
from .errors import ParseError, RclabError, UnknownKind

_W, _H = 720.0, 460.0
_ML, _MR, _MT, _MB = 64.0, 16.0, 34.0, 44.0

_COLORS = ("#1f4e9c", "#c23b22", "#2e7d32", "#8e44ad")
_WATERFALL_LAYERS = 24


def _fnum(x: float) -> str:
    return f"{x:.2f}"


def _text(x: float, y: float, anchor: str, size: int, body: str, extra: str = "") -> str:
    return (f'<text x="{_fnum(x)}" y="{_fnum(y)}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="{size}"{extra}>{body}</text>')


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (f'<line x1="{_fnum(x1)}" y1="{_fnum(y1)}" x2="{_fnum(x2)}" y2="{_fnum(y2)}" '
            'stroke="#404040" stroke-width="1"/>')


def _axis(lo: float, hi: float) -> tuple[float, float]:
    """An axis from lo to hi, widened to lo + 1 if empty; its width must be finite and > 0."""
    if hi <= lo:
        hi = lo + 1.0
    if not 0.0 < hi - lo < np.inf:
        raise RclabError(f"an axis from {lo!r} to {hi!r} has no finite positive width")
    return lo, hi


class _Panel:
    """One plot area with linear axes mapped into a viewport rectangle."""

    def __init__(self, x0, y0, w, h, xmin, xmax, ymin, ymax):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        (self.xmin, self.xmax), (self.ymin, self.ymax) = _axis(xmin, xmax), _axis(ymin, ymax)

    def px(self, x: float) -> float:
        return self.x0 + (x - self.xmin) / (self.xmax - self.xmin) * self.w

    def py(self, y: float) -> float:
        return self.y0 + self.h - (y - self.ymin) / (self.ymax - self.ymin) * self.h

    def frame(self, out: list[str], title: str, xlabel: str, ylabel: str) -> None:
        out.append(
            f'<rect x="{_fnum(self.x0)}" y="{_fnum(self.y0)}" '
            f'width="{_fnum(self.w)}" height="{_fnum(self.h)}" '
            'fill="none" stroke="#404040" stroke-width="1"/>'
        )
        bottom, mid_x, mid_y = self.y0 + self.h, self.x0 + self.w / 2, self.y0 + self.h / 2
        out.append(_text(mid_x, self.y0 - 8, "middle", 13, title))
        out.append(_text(mid_x, bottom + 32, "middle", 11, xlabel))
        out.append(_text(self.x0 - 52, mid_y, "middle", 11, ylabel,
                         f' transform="rotate(-90 {_fnum(self.x0 - 52)} {_fnum(mid_y)})"'))
        for i in range(5):
            # the bits of * i / 4, as a division by 4 is exact, but no overflow
            xv = self.xmin + (self.xmax - self.xmin) / 4 * i
            yv = self.ymin + (self.ymax - self.ymin) / 4 * i
            xp, yp = self.px(xv), self.py(yv)
            out.append(_line(xp, bottom, xp, bottom + 4))
            out.append(_text(xp, bottom + 16, "middle", 10, f"{xv:.3g}"))
            out.append(_line(self.x0 - 4, yp, self.x0, yp))
            out.append(_text(self.x0 - 6, yp + 3, "end", 10, f"{yv:.3g}"))

    def polyline(self, out: list[str], xs, ys, color: str, label: str | None = None,
                 slot: int = 0) -> None:
        # px, py map arrays with the bits of their scalar calls, and %.2f spells as _fnum does
        xs, ys = self.px(xs), self.py(ys)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise RclabError("a point lies too far off the axes to be drawn")
        pts = " ".join(["%.2f,%.2f" % p for p in zip(xs.tolist(), ys.tolist())])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>'
        )
        if label is not None:
            out.append(_text(self.x0 + self.w - 6, self.y0 + 14 + 13 * slot, "end", 11,
                             label, f' fill="{color}"'))


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fnum(_W)}" '
        f'height="{_fnum(_H)}" viewBox="0 0 {_fnum(_W)} {_fnum(_H)}">\n'
        f'<rect x="0" y="0" width="{_fnum(_W)}" height="{_fnum(_H)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _series_names(columns: Iterable[str], prefix: str) -> list[str]:
    """The numbered columns prefix1..prefixN in trait order (f_tilde is not one)."""
    names = [c for c in columns if c.startswith(prefix) and c[len(prefix):].isdecimal()]
    return sorted(names, key=lambda c: int(c[len(prefix):]))


def _bounds(arrays) -> tuple[float, float]:
    lo, hi = _axis(min(float(np.min(a)) for a in arrays), max(float(np.max(a)) for a in arrays))
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_profile(table: Table) -> str:
    """Species and resource levels versus trait.

    Works on stable-distribution tables (trait, f_tilde, R_tilde) and on
    trajectory tables, where the first and last recorded rows are shown
    against the trait index.
    """
    body: list[str] = []
    half_w = (_W - _ML - _MR - 40) / 2
    if "trait" in table.columns:
        x = table.numeric("trait")
        series_f = [("f", table.numeric("f_tilde"))]
        series_R = [("R", table.numeric("R_tilde"))]
        xlabel = "trait"
    else:
        names_f = _series_names(table.columns, "f_")
        names_R = _series_names(table.columns, "R_")
        missing = [p + "*" for p, names in (("f_", names_f), ("R_", names_R)) if not names]
        if missing:
            raise ParseError(f"a trajectory profile needs {' and '.join(missing)} columns")
        x = np.arange(1, len(names_f) + 1, dtype=float)
        ends_f = np.array([table.numeric(c)[[0, -1]] for c in names_f])
        ends_R = np.array([table.numeric(c)[[0, -1]] for c in names_R])
        series_f = [("t=start", ends_f[:, 0]), ("t=end", ends_f[:, 1])]
        series_R = [("t=start", ends_R[:, 0]), ("t=end", ends_R[:, 1])]
        xlabel = "trait index"
    ymin_f, ymax_f = _bounds([s for _, s in series_f])
    ymin_R, ymax_R = _bounds([s for _, s in series_R])
    p1 = _Panel(_ML, _MT, half_w, _H - _MT - _MB, float(x[0]), float(x[-1]),
                min(ymin_f, 0.0), ymax_f)
    p2 = _Panel(_ML + half_w + 40, _MT, half_w, _H - _MT - _MB,
                float(x[0]), float(x[-1]), min(ymin_R, 0.0), ymax_R)
    p1.frame(body, "species", xlabel, "f")
    p2.frame(body, "resources", xlabel, "R")
    for idx, (label, s) in enumerate(series_f):
        p1.polyline(body, x, s, _COLORS[idx % len(_COLORS)], label, idx)
    for idx, (label, s) in enumerate(series_R):
        p2.polyline(body, x, s, _COLORS[idx % len(_COLORS)], label, idx)
    return _document(body)


def render_entropy(table: Table, log_scale: bool = False) -> str:
    """Entropy S (unless blank) and resource deviation Q versus time; a log scale
    draws each where it is > 0. A drawn column must be finite."""
    t = table.numeric("t")
    series = []
    if "S" in table.columns and not np.any(np.isnan(table.column("S"))):
        series.append(("S", t, table.numeric("S")))
    series.append(("Q", t, table.numeric("Q")))
    if log_scale:
        names = ", ".join(name for name, _, _ in series)
        series = [(f"log10({name})", ts[vals > 0], np.log10(vals[vals > 0]))
                  for name, ts, vals in series if np.any(vals > 0)]
        if not series:
            raise ParseError(f"no positive value to draw on a log scale in columns {names}")
    ymin, ymax = _bounds([vals for _, _, vals in series])
    body: list[str] = []
    panel = _Panel(_ML, _MT, _W - _ML - _MR, _H - _MT - _MB,
                   float(t[0]), float(t[-1]), ymin, ymax)
    panel.frame(body, "diagnostics", "t", "value")
    for idx, (name, ts, vals) in enumerate(series):
        panel.polyline(body, ts, vals, _COLORS[idx % len(_COLORS)], name, idx)
    return _document(body)


def render_waterfall(table: Table) -> str:
    """Layered species profiles at evenly spaced times, early at the bottom."""
    names_f = _series_names(table.columns, "f_")
    if not names_f:
        raise ParseError("waterfall needs a trajectory CSV with f_* columns")
    columns = [table.numeric(c) for c in names_f]
    n_times = len(columns[0])
    layers = min(_WATERFALL_LAYERS, n_times)
    picks = sorted({int(round(i)) for i in np.linspace(0, n_times - 1, layers)})
    fmax = max(float(np.max(c)) for c in columns) or 1.0
    fmat = np.array([c[picks] for c in columns]).T  # rows = picked times
    body: list[str] = []
    panel = _Panel(_ML, _MT, _W - _ML - _MR, _H - _MT - _MB,
                   1.0, float(len(columns)), 0.0, float(len(picks)) + 1.5)
    panel.frame(body, "species over time", "trait index", "time (layers)")
    x = np.arange(1, len(columns) + 1, dtype=float)
    for layer, row in enumerate(fmat):
        ys = layer + 1.5 * row / fmax
        panel.polyline(body, x, ys, _COLORS[layer % len(_COLORS)])
    return _document(body)


_KINDS = ("profile", "entropy", "waterfall")


def drawn(kind: str, header: list[str]) -> tuple[list[str], bool]:
    """The columns of a CSV with this header that a kind draws, and whether it draws
    only their first and last rows: a trajectory profile f_* and R_* at the ends, a
    stable distribution's profile trait, f_tilde and R_tilde, waterfall f_* and
    entropy t, S and Q, each in every row. A `read_csv` selection."""
    if kind == "entropy":
        return ["t", "S", "Q"], False
    if kind == "waterfall":
        return _series_names(header, "f_"), False
    if "trait" in header:
        return ["trait", "f_tilde", "R_tilde"], False
    return _series_names(header, "f_") + _series_names(header, "R_"), True


def check_request(kind: str, log_scale: bool) -> None:
    """Raise UnknownKind for a kind that is not drawn, and RclabError if a log
    scale is asked of a kind other than entropy."""
    if kind not in _KINDS:
        raise UnknownKind(f"unknown plot kind '{kind}' (expected {'|'.join(_KINDS)})")
    if log_scale and kind != "entropy":
        raise RclabError(f"--log applies to --kind entropy only, not {kind}")


@np.errstate(over="ignore")  # a point that overflows is refused as off the axes
def render(table: Table, kind: str, log_scale: bool = False) -> str:
    """Draw a table as the kind asks, once `check_request` has judged the request,
    by the renderer of that name as the module holds it when called."""
    check_request(kind, log_scale)
    if kind == "entropy":
        return render_entropy(table, log_scale=log_scale)
    return (render_waterfall if kind == "waterfall" else render_profile)(table)
