"""The image of a map in closed form: Omega = post(leaf domain).

Every map is f = post(leaf(pre(z))) (`evaluate.normal_form`), so pre drops
out of the image.  Its boundary is one or two pieces q(t), t >= lo real,
each under a Mobius map q: the identity, disk and halfplane leaves fold
into post and give the image of the unit circle (t -> (t - i)/(t + i));
a sector leaf, an affine map after u -> u^p on a half-plane with 0 on its
edge, gives the rays t e^{i theta}, t >= 0, from its vertex u = 0; the
strip |Im v| < pi/4 gives its edges t +- i pi/4.  Whether post is affine
is decided once, by `Mobius.is_affine`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .evaluate import Mobius, NormalForm, normal_form, sector_auto_params
from .expr import Disk, Identity, SectorAuto, SectorReal, Strip
from .record import Record

A2_ZERO_TOL = 1e-12


class Domain(Record):
    """The image post(leaf domain) of a normal form."""

    nf: NormalForm

    @classmethod
    def of(cls, expr) -> "Domain":
        return cls(normal_form(expr))

    def pieces(self):
        """(q, lo) per boundary piece: the points q(t), t >= lo real."""
        leaf, post = self.nf.leaf, self.nf.post
        if isinstance(leaf, Strip):
            return tuple((post.compose(Mobius(1.0, h, 0.0, 1.0)), -math.inf)
                         for h in (0.25j * math.pi, -0.25j * math.pi))
        if isinstance(leaf, SectorReal):  # (((1+z)/(1-z))^a - 1)/(2a), edge normal 1
            p, scale, phi = leaf.a, 0.5 / leaf.a, 0.0
        elif isinstance(leaf, SectorAuto):  # -b(((1+z)/(1+cz))^beta - 1), edge normal 1 - a
            _, p, scale = sector_auto_params(leaf.a)
            scale, phi = -scale, cmath.phase(1.0 - leaf.a)
        else:  # z / (1 + x z), x = 0 for the identity, after the Cayley map (t - i)/(t + i)
            mobius_leaf = Mobius(1.0, 0.0, getattr(leaf, "x", getattr(leaf, "c", 0.0)), 1.0)
            return ((post.compose(mobius_leaf).compose(Mobius(1.0, -1j, 1.0, 1j)), -math.inf),)
        base = post.compose(Mobius(scale, -scale, 0.0, 1.0))
        return tuple((base.compose(Mobius(cmath.exp(1j * p * (phi + s)), 0.0, 0.0, 1.0)), 0.0)
                     for s in (0.5 * math.pi, -0.5 * math.pi))

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
            for q, lo in self.pieces():
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
    def bounded(self) -> bool:
        """Whether infinity misses the closed image: for an affine post,
        on the identity and disk leaves only; else unless post's pole, a
        shifted omitted point, is on a strip leaf's closed strip (-1/a for
        mobius-of-strip(a), so bounded iff |Im a| > (pi/4) |a|^2)."""
        post = self.nf.post
        if post.is_affine:
            return isinstance(self.nf.leaf, (Identity, Disk))
        return not (isinstance(self.nf.leaf, Strip) and abs(post.pole().imag) <= 0.25 * math.pi)

    def omits_on_boundary(self, a2: complex) -> bool:
        """Whether -1/a2 is on the boundary (the delta_f = 0 family).  Only
        strip-built maps put it there, else the shifted map would be an
        unbounded zero-a2 map: the strip itself.  With a2 = 0 it is
        infinity, the cusp for an affine post, else a point of an edge
        through post's pole; otherwise it must be the cusp post(inf)."""
        if not isinstance(self.nf.leaf, Strip):
            return False
        post = self.nf.post
        if abs(a2) < A2_ZERO_TOL:
            return post.is_affine or abs(abs(post.pole().imag) - 0.25 * math.pi) < 1e-12
        (cusp,) = self.special_points()
        return not post.is_affine and abs(-1.0 / a2 - cusp) <= 1e-9 * (1.0 + abs(cusp))

    def preimage(self, v) -> complex:
        """pre^{-1}(v), the disk point that the leaf's point v stands for
        (numpy complex division, as the recorded outputs were made)."""
        pre = self.nf.pre
        return complex((v + pre.lam * pre.a) / (np.conj(pre.a) * v + pre.lam))
