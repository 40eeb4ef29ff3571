"""Minimal deterministic SVG emission for reflection and quasidisk figures.

One fixed palette so figures stay comparable across maps: domain
boundary black, probe points blue, reflected points red, connecting
segments gray, separating lines dashed.  Output is plain SVG text with
fixed-precision coordinates, so a given scene always renders to the
same bytes.
"""

from __future__ import annotations

import numpy as np

BOUNDARY_COLOR = "#000000"
PROBE_COLOR = "#1f6fd6"
REFLECTION_COLOR = "#d62728"
SEGMENT_COLOR = "#9a9a9a"
MEDIATRIX_COLOR = "#444444"

VIEW_SIZE = 640.0
PAD_FRAC = 0.06
COORD_CLIP = 1e6
LINE_HALF_LENGTH = 2.0  # of a separating line, in image units


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def ratio_color(t: float) -> str:
    """Shade of red for a normalized ratio t in [0, 1]; low t is dark."""
    t = min(max(float(t), 0.0), 1.0)
    r = int(round(120 + 135 * t))
    g = int(round(20 + 120 * t))
    b = int(round(20 + 100 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


class SvgScene:
    """Collects plane geometry, then renders one self-contained SVG."""

    def __init__(self):
        self._lines = []
        self._dots = []

    def add_polyline(self, points, color: str = BOUNDARY_COLOR,
                     width: float = 1.5, dashed: bool = False,
                     closed: bool = False) -> None:
        # abs is inf where either part is, and a NaN fails the test
        pts = [z for z in map(complex, points) if abs(z) <= COORD_CLIP]
        if len(pts) < 2:
            return
        if closed:
            pts.append(pts[0])
        self._lines.append((pts, color, width, dashed))

    def add_dot(self, z: complex, color: str, radius: float = 2.5) -> None:
        z = complex(z)
        if not abs(z) <= COORD_CLIP:  # as in add_polyline: infinite, NaN or clipped
            return
        self._dots.append((z, color, radius))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for pts, _, _, _ in self._lines:
            xs.extend(p.real for p in pts)
            ys.extend(p.imag for p in pts)
        for z, _, _ in self._dots:
            xs.append(z.real)
            ys.append(z.imag)
        if not xs:
            return -1.0, -1.0, 1.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = PAD_FRAC * span
        return x0 - pad, y0 - pad, x1 + pad, y1 + pad

    def render(self) -> str:
        x0, y0, x1, y1 = self._bounds()
        span = max(x1 - x0, y1 - y0)
        scale = VIEW_SIZE / span

        def to_px(z: complex) -> tuple[float, float]:
            return (z.real - x0) * scale, (y1 - z.imag) * scale

        w = (x1 - x0) * scale
        h = (y1 - y0) * scale
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
            f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>',
        ]
        for pts, color, width, dashed in self._lines:
            coords = " ".join(
                f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, pts)
            )
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{_fmt(width)}"{dash}/>'
            )
        for z, color, radius in self._dots:
            px, py = to_px(z)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radius)}" '
                f'fill="{color}"/>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.render())


def reflection_scene(boundary, probes, reflections, mediatrix_lines=()) -> SvgScene:
    """Boundary polyline, probe/reflection dot pairs with their segments,
    and optional separating lines drawn dashed through their base points."""
    scene = SvgScene()
    scene.add_polyline(boundary, color=BOUNDARY_COLOR, closed=True)
    for w, r in zip(np.asarray(probes), np.asarray(reflections)):
        scene.add_polyline([w, r], color=SEGMENT_COLOR, width=0.8)
    for point, tangent in mediatrix_lines:
        t = complex(tangent)
        t = t / abs(t)
        scene.add_polyline([complex(point) - LINE_HALF_LENGTH * t,
                            complex(point) + LINE_HALF_LENGTH * t],
                           color=MEDIATRIX_COLOR, dashed=True, width=1.0)
    for w in np.asarray(probes):
        scene.add_dot(w, PROBE_COLOR, radius=2.0)
    for r in np.asarray(reflections):
        scene.add_dot(r, REFLECTION_COLOR, radius=2.0)
    return scene


def ratio_scene(boundary, probes, reflections, shades) -> SvgScene:
    """Boundary plus reflected points, each red by its finite shade value
    scaled to the shades' range (`awr quasidisk` shades by |R_w - w|)."""
    scene = SvgScene()
    scene.add_polyline(boundary, color=BOUNDARY_COLOR, closed=True)
    shades = np.asarray(shades, dtype=float)
    keep = np.isfinite(shades)
    finite = shades[keep]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    spread = max(hi - lo, 1e-12)
    for w in np.asarray(probes):
        scene.add_dot(w, PROBE_COLOR, radius=1.5)
    for r, q in zip(np.asarray(reflections)[keep], finite.tolist()):
        scene.add_dot(r, ratio_color((q - lo) / spread), radius=1.5)
    return scene
