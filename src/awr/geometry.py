"""Planar nearest-distance queries against segments and point clouds.

Both queries run on one static axis-aligned bounding-box tree built in
numpy; a point cloud is a family of segments with coincident endpoints.
Each segment is cut into pieces no longer than the mean segment length,
so there are at most twice as many pieces as segments, and the pieces
are sorted into a balanced binary tree by median splits across the wider
side of each node.  All probes descend the tree together, one level at a
time.  A probe drops a box that lies farther away than the nearest
farthest-corner distance among its current boxes, plus an allowance for
rounding.  Every piece keeps the index of its whole segment, and a leaf
evaluates the exhaustive-search formula on that whole segment, so the
results are bitwise equal to comparing each probe with every segment.
"""

from __future__ import annotations

import numpy as np

LEAF_SIZE = 8
# Rounding allowance per unit of coordinate magnitude.  Box bounds, piece
# endpoints and the segment formula each err by a few ulps of the
# magnitudes involved; this is far above that and far below any distance
# the scans resolve, so a dropped box never holds the nearest segment.
SLACK = 1e-12


class _BoxTree:
    """Pieces of segments a -> b in a complete binary tree of boxes.

    Every node of one level splits into nodes 2i and 2i + 1 of the
    next, and the leaves hold contiguous runs of ``order``.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = a
        self.d = d = b - a
        den = np.abs(d) ** 2
        self.den = np.where(den > 0.0, den, 1.0)
        self.scale = float(np.max(np.maximum(np.abs(a), np.abs(b))))

        length = np.abs(d)
        step = float(np.mean(length))
        cuts = np.ones(a.size, dtype=np.intp)
        if step > 0.0:
            cuts = np.maximum(np.ceil(length / step), 1.0).astype(np.intp)
        self.owner = owner = np.repeat(np.arange(a.size), cuts)
        k = np.arange(owner.size) - np.repeat(np.cumsum(cuts) - cuts, cuts)
        p0 = a[owner] + (k / cuts[owner]) * d[owner]
        p1 = a[owner] + ((k + 1) / cuts[owner]) * d[owner]
        lo_x, hi_x = np.minimum(p0.real, p1.real), np.maximum(p0.real, p1.real)
        lo_y, hi_y = np.minimum(p0.imag, p1.imag), np.maximum(p0.imag, p1.imag)

        mid_x, mid_y = (lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0
        order = np.arange(owner.size)
        starts = np.zeros(1, dtype=np.intp)
        sizes = np.array([owner.size])
        levels = [starts]
        while sizes.max() > LEAF_SIZE:
            x, y = mid_x[order], mid_y[order]
            wide_x = (np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
                      >= np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts))
            node = np.repeat(np.arange(starts.size), sizes)
            order = order[np.lexsort((np.where(wide_x[node], x, y), node))]
            half = sizes // 2
            starts = np.column_stack([starts, starts + half]).ravel()
            sizes = np.column_stack([half, sizes - half]).ravel()
            levels.append(starts)
        self.order = order
        self.leaf_starts, self.leaf_sizes = starts, sizes
        self.boxes = [
            tuple(np.minimum.reduceat(v[order], s) for v in (lo_x, lo_y))
            + tuple(np.maximum.reduceat(v[order], s) for v in (hi_x, hi_y))
            for s in levels
        ]

    def query(self, p: np.ndarray) -> np.ndarray:
        """Min distance from each finite point of p to the segments."""
        if p.size == 0:
            return np.empty(0)
        px, py = p.real, p.imag
        slack = SLACK * (np.abs(p) + self.scale)
        probe = np.arange(p.size)
        node = np.zeros(p.size, dtype=np.intp)
        for depth, (lo_x, lo_y, hi_x, hi_y) in enumerate(self.boxes):
            if depth:
                probe = np.repeat(probe, 2)
                node = (2 * node[:, None] + np.array([0, 1])).ravel()
            qx, qy = px[probe], py[probe]
            bx0, by0, bx1, by1 = lo_x[node], lo_y[node], hi_x[node], hi_y[node]
            near = np.hypot(np.maximum(np.maximum(bx0 - qx, qx - bx1), 0.0),
                            np.maximum(np.maximum(by0 - qy, qy - by1), 0.0))
            far = np.hypot(np.maximum(np.abs(qx - bx0), np.abs(qx - bx1)),
                           np.maximum(np.abs(qy - by0), np.abs(qy - by1)))
            # probe is sorted and every probe keeps its nearest-far box
            first = np.flatnonzero(np.diff(probe, prepend=-1))
            bound = np.minimum.reduceat(far, first) + slack
            keep = near <= bound[probe]
            probe, node = probe[keep], node[keep]

        count = self.leaf_sizes[node]
        probe = np.repeat(probe, count)
        slot = np.repeat(self.leaf_starts[node] - (np.cumsum(count) - count), count)
        seg = self.owner[self.order[slot + np.arange(probe.size)]]
        q, a, d = p[probe], self.a[seg], self.d[seg]
        t = np.real((q - a) * np.conjugate(d)) / self.den[seg]
        t = np.clip(t, 0.0, 1.0)
        dist = np.abs(q - (a + t * d))
        return np.minimum.reduceat(dist, np.flatnonzero(np.diff(probe, prepend=-1)))


def _distances(points, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = np.asarray(points, dtype=complex).ravel()
    if a.size == 0:
        return np.full(np.shape(points), np.inf)
    ok = np.isfinite(p)
    out = np.full(p.shape, np.nan)
    out[ok] = _BoxTree(a, b).query(p[ok])
    return out.reshape(np.shape(points))


def segment_distances(points, seg_a, seg_b) -> np.ndarray:
    """Min distance from each point to a family of segments.

    points, seg_a, seg_b are complex arrays; the result has the shape of
    points.  Segment endpoints must be finite; degenerate segments
    (coincident endpoints) act as points.  Points that are not finite get
    NaN, and an empty family gives +inf everywhere.
    """
    a = np.asarray(seg_a, dtype=complex).ravel()
    return _distances(points, a, np.asarray(seg_b, dtype=complex).ravel())


def cloud_distances(points, cloud) -> np.ndarray:
    """Min distance from each point to a finite point cloud, as for segment_distances."""
    c = np.asarray(cloud, dtype=complex).ravel()
    return _distances(points, c, c)
