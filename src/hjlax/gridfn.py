"""Uniform grid functions with multilinear interpolation.

Boxes are axis-aligned; values live on uniform nodes.  Two boundary
policies: "constant" keeps both endpoints as nodes and extends the function
constantly outside the box, "periodic" drops the right endpoint and wraps.
Either way the interpolant is defined on all of R^n, which is what the
operator search loops rely on.  Only this module applies the policy: other
modules read neighbours (shifted), displacements (nearest_image), gradients
(central_gradient) and node indices (node_index) through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy import sparse

from .errors import ConfigError
from .report import write_csv

Array = np.ndarray


@dataclass
class GridSpec:
    """Shape of a grid: box per axis, node count per axis, boundary policy."""

    box: list[tuple[float, float]]
    num: list[int]
    boundary: str = "constant"

    def build(self, fn: Callable[[Array], Array]) -> "GridFunction":
        return GridFunction.from_callable(self.box, self.num, fn, self.boundary)


@dataclass
class GridFunction:
    box: Array                    # (n, 2)
    values: Array                 # (m_1, ..., m_n)
    boundary: str = "constant"

    def __post_init__(self) -> None:
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.boundary not in ("constant", "periodic"):
            raise ConfigError(f"unknown boundary policy {self.boundary!r}")
        if self.box.shape[0] != self.values.ndim:
            raise ConfigError("box rank does not match value array rank")
        if min(self.values.shape) < 2:
            raise ConfigError(f"grid num {list(self.values.shape)} needs at least "
                              "2 nodes per axis")

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def spacing(self) -> Array:
        widths = self.box[:, 1] - self.box[:, 0]
        m = np.array(self.values.shape, dtype=float)
        if self.boundary == "periodic":
            return widths / m
        return widths / (m - 1.0)

    def axes(self) -> list[Array]:
        return [self.box[k, 0] + self.spacing[k] * np.arange(self.values.shape[k])
                for k in range(self.dim)]

    def nodes(self) -> Array:
        """All node coordinates, shape (prod(num), dim), C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_node(self, point: Array) -> tuple[int, ...]:
        i = np.round((np.asarray(point, dtype=float) - self.box[:, 0]) / self.spacing)
        return tuple(int(k) for k in self.node_index(i.astype(np.int64)))

    def node_point(self, idx: tuple[int, ...]) -> Array:
        return self.box[:, 0] + self.spacing * np.asarray(idx, dtype=float)

    @classmethod
    def from_callable(cls, box, num, fn: Callable[[Array], Array],
                      boundary: str = "constant") -> "GridFunction":
        g = cls(box=np.atleast_2d(np.asarray(box, float)),
                values=np.zeros(tuple(int(n) for n in np.atleast_1d(num))),
                boundary=boundary)
        g.values = np.asarray(fn(g.nodes()), dtype=float).reshape(g.values.shape)
        return g

    def with_values(self, values: Array) -> "GridFunction":
        return GridFunction(box=self.box.copy(), values=np.asarray(values, float),
                            boundary=self.boundary)

    # -- evaluation --------------------------------------------------------

    def _corners(self, pts: Array) -> Iterator[tuple[Array, Array]]:
        """Cell corners and multilinear weights at points of shape (n, dim):
        one (flat row-major node index, weight) pair per corner of the
        2^dim cell, in itertools.product order, made as the caller consumes
        them (see interp for the boundary policies).
        """
        n, shape, spacing = pts.shape[0], self.values.shape, self.spacing
        i0 = np.empty((n, self.dim), dtype=np.int64)
        i1 = np.empty((n, self.dim), dtype=np.int64)
        w = np.empty((n, self.dim))
        for k in range(self.dim):
            m = shape[k]
            u = (pts[:, k] - self.box[k, 0]) / spacing[k]
            if self.boundary == "periodic":
                u = np.mod(u, m)
                base = np.floor(u)
                i0[:, k] = base.astype(np.int64) % m
                i1[:, k] = (i0[:, k] + 1) % m
                w[:, k] = u - base
            else:
                u = np.clip(u, 0.0, m - 1.0)
                base = np.minimum(np.floor(u), m - 2)
                i0[:, k] = base.astype(np.int64)
                i1[:, k] = i0[:, k] + 1
                w[:, k] = u - base
        stride = np.cumprod((1,) + shape[:0:-1])[::-1]
        i0 *= stride
        i1 *= stride
        index, factor = (i0, i1), (1.0 - w, w)
        for corner in itertools.product((0, 1), repeat=self.dim):
            flat, weight = index[corner[0]][:, 0], factor[corner[0]][:, 0]
            for k in range(1, self.dim):
                flat = flat + index[corner[k]][:, k]
                weight = weight * factor[corner[k]][:, k]
            yield flat, weight

    def interp(self, points: Array) -> Array:
        """Multilinear interpolation at points of shape (..., dim).

        Constant policy clamps to the box (constant extension); periodic
        wraps.  Vectorised over leading axes.
        """
        pts = np.asarray(points, dtype=float)
        lead = pts.shape[:-1]
        pts = pts.reshape(-1, self.dim)
        values = self.values.ravel()
        out = np.zeros(pts.shape[0])
        for flat, weight in self._corners(pts):
            out += weight * values[flat]
        return out.reshape(lead)

    def foot_matrix(self, points: Array) -> sparse.csr_matrix:
        """Sparse (n_points, n_nodes) matrix P of interpolation weights, so
        that P @ values.ravel() is interp(points) (2^dim entries per row,
        summed in interp's corner order)."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        cols = np.empty((len(pts), 2 ** self.dim), dtype=np.int64)
        data = np.empty(cols.shape)
        for c, (flat, weight) in enumerate(self._corners(pts)):
            cols[:, c], data[:, c] = flat, weight
        indptr = np.arange(0, cols.size + 1, cols.shape[1])
        return sparse.csr_matrix((data.ravel(), cols.ravel(), indptr),
                                 shape=(len(pts), self.values.size))

    def __call__(self, points: Array) -> Array:
        return self.interp(points)

    # -- boundary policy ---------------------------------------------------

    def node_index(self, idx: Array) -> Array:
        """Integer node indices (..., dim), wrapped into the grid (periodic)
        or clamped to it (constant)."""
        m = np.array(self.values.shape)
        if self.boundary == "periodic":
            return np.asarray(idx) % m
        return np.clip(idx, 0, m - 1)

    def nearest_image(self, delta: Array) -> Array:
        """Displacements (..., dim) reduced to their nearest periodic image,
        in [-P/2, P/2) per axis; unchanged under the constant policy."""
        delta = np.asarray(delta, dtype=float)
        if self.boundary != "periodic":
            return delta
        period = self.box[:, 1] - self.box[:, 0]
        return (delta + 0.5 * period) % period - 0.5 * period

    def shifted(self, offset) -> Array:
        """values[i + offset] at every node, one integer offset per axis:
        wrapped (periodic), +inf where the shift leaves the box (constant)."""
        shape = self.values.shape
        offset = [int(k) for k in offset]
        if self.boundary == "periodic":
            axes = tuple(range(self.dim))
            return np.roll(self.values, [-k for k in offset], axis=axes)
        offset = [min(max(k, -n), n) for k, n in zip(offset, shape)]
        dst = tuple(slice(max(-k, 0), n - max(k, 0)) for k, n in zip(offset, shape))
        src = tuple(slice(max(k, 0), n + min(k, 0)) for k, n in zip(offset, shape))
        out = np.full_like(self.values, np.inf)
        out[dst] = self.values[src]
        return out

    def central_gradient(self) -> Array:
        """Central differences (values.shape + (dim,)); +-inf on the rims of
        a constant box, where one neighbour is missing."""
        return np.stack([(self.shifted(e) - self.shifted(-e)) / (2.0 * h)
                         for e, h in zip(np.eye(self.dim, dtype=int), self.spacing)],
                        axis=-1)

    # -- estimates ---------------------------------------------------------

    def lipschitz(self) -> float:
        """Estimated Lipschitz constant: per-axis max forward-difference slope,
        combined in Euclidean norm across axes."""
        total = 0.0
        for e, h in zip(np.eye(self.dim, dtype=int), self.spacing):
            d = np.abs(self.shifted(e) - self.values)
            s = float(d[np.isfinite(d)].max()) / float(h)
            total += s * s
        return float(np.sqrt(total))

    def interp_error_estimate(self) -> float:
        """Second-difference proxy for the multilinear interpolation error:
        max |u_{i+1} - 2 u_i + u_{i-1}| / 8 over interior nodes and axes.
        Matches h^2 |u''| / 8 on smooth parts and h |Du jump| / 8 at kinks."""
        worst = 0.0
        for e in np.eye(self.dim, dtype=int):
            d2 = np.abs(self.shifted(e) - 2.0 * self.values + self.shifted(-e))
            d2 = d2[np.isfinite(d2)]
            if d2.size:
                worst = max(worst, float(d2.max()) / 8.0)
        return worst

    # -- serialization -----------------------------------------------------

    def to_csv(self, path: str) -> None:
        write_csv(path, [f"x{k + 1}" for k in range(self.dim)] + ["value"],
                  ([*row, v] for row, v in zip(self.nodes(),
                                               self.values.ravel())))
