"""The image of a map in closed form: Omega = post(leaf domain).

Every map is f = post(leaf(pre(z))) (`evaluate.normal_form`), so pre drops
out of the image.  Its boundary is one or two pieces q(t), t >= lo real,
each under a Mobius map q: the identity and disk leaves fold into post
and give the image of the unit circle (t -> (t - i)/(t + i)), a halfplane
leaf the image of its edge line;
a sector leaf, an affine map after u -> u^p on a half-plane with 0 on its
edge, gives the rays t e^{i theta}, t >= 0, from its vertex u = 0; the
strip |Im v| < pi/4 gives its edges t +- i pi/4.  Whether post is affine
is decided once, by `Mobius.is_affine`.  `convex`, the one convexity
verdict, reads each piece's side of the t-axis that holds the preimage.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .evaluate import Mobius, NormalForm, normal_form, sector_auto_params
from .expr import Disk, Halfplane, Identity, SectorAuto, SectorReal, Strip
from .record import Record


class Domain(Record):
    """The image post(leaf domain) of a normal form."""

    nf: NormalForm

    @classmethod
    def of(cls, expr) -> "Domain":
        return cls(normal_form(expr))

    def pieces(self):
        """(q, lo, side) per boundary piece: the points q(t), t >= lo real,
        with the image's preimage on the side of the real t-axis where
        side * Im t > 0."""
        leaf, post = self.nf.leaf, self.nf.post
        if isinstance(leaf, Strip):
            return tuple((post.compose(Mobius(1.0, h, 0.0, 1.0)), -math.inf, side)
                         for h, side in ((0.25j * math.pi, -1), (-0.25j * math.pi, 1)))
        if isinstance(leaf, SectorReal):  # (((1+z)/(1-z))^a - 1)/(2a), edge normal 1
            p, scale, phi = leaf.a, 0.5 / leaf.a, 0.0
        elif isinstance(leaf, SectorAuto):  # -b(((1+z)/(1+cz))^beta - 1), edge normal 1 - a
            _, p, scale = sector_auto_params(leaf.a)
            scale, phi = -scale, cmath.phase(1.0 - leaf.a)
        elif isinstance(leaf, Halfplane):  # Re(c w) < 1/2: the edge conj(c) (1/2 + i t), not the
            e = leaf.c.conjugate()  # Cayley image, whose pole cancels in c + 1 near c = -1
            return ((post.compose(Mobius(1j * e, 0.5 * e, 0.0, 1.0)), -math.inf, 1),)
        else:  # z / (1 + x z), x = 0 for the identity, after the Cayley map (t - i)/(t + i)
            mobius_leaf = Mobius(1.0, 0.0, getattr(leaf, "x", 0.0), 1.0)
            return ((post.compose(mobius_leaf).compose(Mobius(1.0, -1j, 1.0, 1j)), -math.inf, 1),)
        base = post.compose(Mobius(scale, -scale, 0.0, 1.0))
        return tuple((base.compose(Mobius(cmath.exp(1j * p * (phi + s)), 0.0, 0.0, 1.0)), 0.0, side)
                     for s, side in ((0.5 * math.pi, -1), (-0.5 * math.pi, 1)))

    def boundary_distance(self, w):
        """Distance from each point of w to the boundary, NaN where w is not
        finite: the least over each piece's ends q(lo), q(inf) and the feet
        of the perpendiculars on q(R) that pull back into t >= lo.  Those
        are the real roots of D t^2 - 2 N t + 2 N Re s - D |s|^2 (s = q^-1(w),
        q = (a t + b)/(c t + d), N = |c s|^2 - |d|^2, D = 2 (|c|^2 Re s +
        Re(d conj c))), where the circle through s and q's pole that is
        symmetric about R meets R; an affine q keeps one root, Re s."""
        w = np.asarray(w, dtype=complex)
        best = np.full(w.shape, np.inf)
        with np.errstate(all="ignore"):
            for q, lo, _ in self.pieces():
                s = (q.d * w - q.b) / (q.a - q.c * w)  # q^-1(w)
                n = abs(q.c) ** 2 * np.abs(s) ** 2 - abs(q.d) ** 2
                d = 2.0 * (abs(q.c) ** 2 * s.real + (q.d * q.c.conjugate()).real)
                big = n + np.copysign(np.hypot(n - d * s.real, d * s.imag), n)
                for t in (big / d, (2.0 * n * s.real - d * np.abs(s) ** 2) / big):
                    # NaN, a pole or a t whose c t overflows (its foot is q(inf)) drops out of fmin
                    t = np.where((t >= lo) & np.isfinite(q.c * t), t, np.nan)
                    best = np.fmin(best, np.abs(w - (q.a * t + q.b) / (q.c * t + q.d)))
                best = np.fmin(best, np.fmin(np.abs(w - q(lo)), np.abs(w - q(math.inf))))
        return np.where(np.isfinite(w), best, np.nan)

    def special_points(self) -> tuple:
        """The sector vertex post(v), then post(inf) for an unbounded leaf
        domain (the strip cusp, the half-plane's and the sector's far end)."""
        far = () if isinstance(self.nf.leaf, (Identity, Disk)) else (self.nf.post.at_infinity(),)
        if isinstance(self.nf.leaf, (SectorReal, SectorAuto)):
            return (self.pieces()[0][0](0.0)[()],) + far
        return far

    @property
    def convex(self) -> bool:
        """Whether the image is convex, the paper's hypothesis: each piece is a
        segment, a ray, or an arc whose circle holds the image (q's pole off the
        image's side of the t-axis, to 1e-12 relative).  The corners (a sector's
        two, the strip's cusp) have angles p pi < pi and 0, so the image is convex
        by Tietze-Nakajima; a pole on the image's side puts infinity in it."""
        return all(q.is_affine or side * q.pole().imag <= 1e-12 * (1.0 + abs(q.pole()))
                   for q, _, side in self.pieces())

    @property
    def bounded(self) -> bool:
        """Whether infinity misses the closed image: for an affine post,
        on the identity and disk leaves only; else unless post's pole, a
        shifted omitted point, is on a strip leaf's closed strip (-1/a for
        mobius-of-strip(a), so bounded iff |Im a| > (pi/4) |a|^2)."""
        post = self.nf.post
        if post.is_affine:
            return isinstance(self.nf.leaf, (Identity, Disk))
        return not (isinstance(self.nf.leaf, Strip) and abs(post.pole().imag) <= 0.25 * math.pi)

    def omits_on_boundary(self, f0: complex, a1: complex, c: complex) -> bool:
        """Whether the omitted point f(0) - 1/c (`evaluate.normalization`) is on the
        boundary (the delta_f = 0 family).  Only strip-built maps put it there, else
        the shifted map would be an unbounded zero-a2 map: the strip itself.  With
        c = 0 it is infinity, the cusp for an affine post, else a point of an edge
        through post's pole; otherwise it is the cusp post(inf), read as (w - f(0))/f'(0)."""
        if not isinstance(self.nf.leaf, Strip):
            return False
        post = self.nf.post
        if c == 0:
            return post.is_affine or abs(abs(post.pole().imag) - 0.25 * math.pi) < 1e-12
        cusp = (self.special_points()[0] - f0) / a1
        return not post.is_affine and abs(-1.0 / (c * a1) - cusp) <= 1e-9 * (1.0 + abs(cusp))

    def preimage(self, v) -> complex:
        """pre^{-1}(v), the disk point that the leaf's point v stands for
        (numpy complex division, as the recorded outputs were made)."""
        pre = self.nf.pre
        return complex((v + pre.lam * pre.a) / (np.conj(pre.a) * v + pre.lam))
