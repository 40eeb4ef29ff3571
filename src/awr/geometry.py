"""Planar nearest-distance queries against segments and point clouds.

Both queries run on one static axis-aligned bounding-box tree built in
numpy; a point cloud is a family of segments with coincident endpoints.
Each segment is cut into pieces no longer than the mean segment length,
so there are at most twice as many pieces as segments.  The pieces are
split at the median across the wider side of each node into a balanced
binary tree, with one stable argsort of node + position per level.

A query makes two passes over the tree, each for all probes at once.
The first walks every probe to its nearer child down to one leaf; the
exact distance to that leaf's segments, the seed, bounds the answer, as
does the far-corner distance of every box met.  The tree is that path
plus the subtrees of the children not taken, so the second pass enters
only at those siblings and descends level by level.  It drops a box
lying beyond the smaller of the best distance so far and the least
far-corner distance seen, plus an allowance for rounding; every box
visited refreshes that far corner, which keeps the descent narrow where
the greedy leaf is wrong, as next to clipped long segments.  Box tests
compare squared distances.  Every piece keeps the index of its whole
segment, and a leaf evaluates the exhaustive-search formula on that
whole segment, so the results are bitwise equal to comparing each probe
with every segment.

Both passes score their (probe, leaf) pairs BLOCK_PAIRS at a time and
fold each block into the running minimum, so a query's memory grows
with the number of probes, never with the number of pairs.  The ratio
scan needs the segment query only: by the paper's theorem, which the
reflection's equivariance carries to every map the grammar builds, a
reflected point never lies in the closed image, so its distance to the
closed image is its distance to the boundary.
"""

from __future__ import annotations

import numpy as np

LEAF_SIZE = 8
# (probe, leaf) pairs scored at once; with LEAF_SIZE this bounds the
# segment-formula temporaries to a few hundred kB each.
BLOCK_PAIRS = 2048
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
            lo = np.minimum.reduceat(x, starts), np.minimum.reduceat(y, starts)
            span = np.maximum.reduceat(x, starts) - lo[0], np.maximum.reduceat(y, starts) - lo[1]
            wide_x = span[0] >= span[1]
            node = np.repeat(np.arange(starts.size), sizes)
            lo, span = np.where(wide_x, *lo), np.where(wide_x, *span)
            scale = 0.5 / np.where(span > 0.0, span, 1.0)
            # node + a fraction in [0, 1/2]: one sort keeps the nodes apart
            key = np.where(np.repeat(wide_x, sizes), x, y) - np.repeat(lo, sizes)
            key = node + key * np.repeat(scale, sizes)
            order = order[np.argsort(key, kind="stable")]
            half = sizes // 2
            starts = np.column_stack([starts, starts + half]).ravel()
            sizes = np.column_stack([half, sizes - half]).ravel()
            levels.append(starts)
        self.order = order
        self.leaf_starts, self.leaf_sizes = starts, sizes
        lo_x, lo_y, hi_x, hi_y = (v[order] for v in (lo_x, lo_y, hi_x, hi_y))
        self.boxes = [
            tuple(np.minimum.reduceat(v, s) for v in (lo_x, lo_y))
            + tuple(np.maximum.reduceat(v, s) for v in (hi_x, hi_y))
            for s in levels
        ]

    def _leaf_pairs(self, probe: np.ndarray, leaf: np.ndarray):
        """Expand (probe, leaf) pairs into (probe, segment) pairs."""
        count = self.leaf_sizes[leaf]
        probe = np.repeat(probe, count)
        slot = np.repeat(self.leaf_starts[leaf] - (np.cumsum(count) - count), count)
        return probe, self.owner[self.order[slot + np.arange(probe.size)]]

    def _segment_distance(self, q: np.ndarray, seg: np.ndarray) -> np.ndarray:
        a, d = self.a[seg], self.d[seg]
        t = np.real((q - a) * np.conjugate(d)) / self.den[seg]
        t = np.clip(t, 0.0, 1.0)
        return np.abs(q - (a + t * d))

    def _score(self, p: np.ndarray, best: np.ndarray, probe: np.ndarray, leaf: np.ndarray):
        """Fold the distance from each probe to each segment of its leaf
        into best, BLOCK_PAIRS (probe, leaf) pairs at a time."""
        for k in range(0, probe.size, BLOCK_PAIRS):
            i, seg = self._leaf_pairs(probe[k : k + BLOCK_PAIRS], leaf[k : k + BLOCK_PAIRS])
            np.minimum.at(best, i, self._segment_distance(p[i], seg))

    def query(self, p: np.ndarray) -> np.ndarray:
        """Min distance to the segments for each finite point of p."""
        best = np.full(p.size, np.inf)
        px, py = p.real, p.imag
        slack = SLACK * (np.abs(p) + self.scale)

        # Pass 1: every probe walks to its nearer child down to one leaf,
        # whose distance is the seed; it keeps each sibling's near gap and
        # the far corners.
        seed_leaf = np.zeros(p.size, dtype=np.intp)
        far_min = np.full(p.size, np.inf)
        sib_gaps = []
        for box in self.boxes[1:]:
            left = 2 * seed_leaf
            near_l, far_l = _gaps(box, left, px, py)
            near_r, far_r = _gaps(box, left + 1, px, py)
            right = near_r < near_l
            seed_leaf = left + right
            sib_gaps.append(np.where(right, near_l, near_r))
            far_min = np.minimum(far_min, np.minimum(far_l, far_r))
        self._score(p, best, np.arange(p.size), seed_leaf)

        # Pass 2: the descent enters at the siblings only.  A box lying
        # beyond the best distance or the least far corner seen, plus the
        # rounding allowance, is dropped; each box visited refreshes that
        # corner.  The sibling at depth k is the seed path's node there
        # with its last bit flipped.
        depth = len(sib_gaps)
        probe = node = np.empty(0, dtype=np.intp)
        for k, (box, sib_gap) in enumerate(zip(self.boxes[1:], sib_gaps), 1):
            probe = np.repeat(probe, 2)
            node = (2 * node[:, None] + np.array([0, 1])).ravel()
            near, far = _gaps(box, node, px[probe], py[probe])
            np.minimum.at(far_min, probe, far)
            cap = np.square(np.minimum(best, np.sqrt(far_min)) + slack)
            keep = near <= cap[probe]
            enter = np.flatnonzero(sib_gap <= cap)
            probe = np.concatenate([probe[keep], enter])
            node = np.concatenate([node[keep], (seed_leaf[enter] >> (depth - k)) ^ 1])
        self._score(p, best, probe, node)
        return best


def _gaps(box, node, qx, qy):
    """Squared distances from each point to the nearest and farthest
    points of its box; box holds (lo_x, lo_y, hi_x, hi_y) per node."""
    lo_x, lo_y, hi_x, hi_y = box
    ux, vx = lo_x[node] - qx, qx - hi_x[node]
    uy, vy = lo_y[node] - qy, qy - hi_y[node]
    nx, ny = np.maximum(np.maximum(ux, vx), 0.0), np.maximum(np.maximum(uy, vy), 0.0)
    fx, fy = np.minimum(ux, vx), np.minimum(uy, vy)
    return nx * nx + ny * ny, fx * fx + fy * fy


def _distances(points, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = np.asarray(points, dtype=complex).ravel()
    out = np.full(p.size, np.inf)
    if a.size == 0:
        return out.reshape(np.shape(points))
    ok = np.isfinite(p)
    out[~ok] = np.nan
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
    """Min distance from each point to a finite point cloud.

    Points that are not finite get NaN, and an empty cloud gives +inf.
    """
    c = np.asarray(cloud, dtype=complex).ravel()
    return _distances(points, c, c)
