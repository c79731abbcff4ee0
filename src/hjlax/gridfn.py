"""Uniform grid functions with multilinear interpolation.

Boxes are axis-aligned; values live on uniform nodes.  Two boundary
policies: "constant" keeps both endpoints as nodes and extends the function
constantly outside the box, "periodic" drops the right endpoint and wraps.
Either way the interpolant is defined on all of R^n, which is what the
operator search loops rely on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .report import dump_json, write_csv

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
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.boundary not in ("constant", "periodic"):
            raise ConfigError(f"unknown boundary policy {self.boundary!r}")
        if self.box.shape[0] != self.values.ndim:
            raise ConfigError("box rank does not match value array rank")

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def num(self) -> tuple[int, ...]:
        return self.values.shape

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
        point = np.asarray(point, dtype=float)
        idx = []
        for k in range(self.dim):
            i = round(float((point[k] - self.box[k, 0]) / self.spacing[k]))
            m = self.values.shape[k]
            idx.append(int(i % m) if self.boundary == "periodic" else int(np.clip(i, 0, m - 1)))
        return tuple(idx)

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
                            boundary=self.boundary, meta=dict(self.meta))

    # -- evaluation --------------------------------------------------------

    def interp(self, points: Array) -> Array:
        """Multilinear interpolation at points of shape (..., dim).

        Constant policy clamps to the box (constant extension); periodic
        wraps.  Vectorised over leading axes.
        """
        pts = np.asarray(points, dtype=float)
        lead = pts.shape[:-1]
        pts = pts.reshape(-1, self.dim)
        n = pts.shape[0]
        i0 = np.empty((n, self.dim), dtype=np.int64)
        i1 = np.empty((n, self.dim), dtype=np.int64)
        w = np.empty((n, self.dim))
        for k in range(self.dim):
            m = self.values.shape[k]
            u = (pts[:, k] - self.box[k, 0]) / self.spacing[k]
            if self.boundary == "periodic":
                u = np.mod(u, m)
                base = np.floor(u)
                i0[:, k] = base.astype(np.int64) % m
                i1[:, k] = (i0[:, k] + 1) % m
                w[:, k] = u - base
            else:
                u = np.clip(u, 0.0, m - 1.0)
                base = np.minimum(np.floor(u), m - 2) if m > 1 else np.zeros_like(u)
                i0[:, k] = base.astype(np.int64)
                i1[:, k] = np.minimum(i0[:, k] + 1, m - 1)
                w[:, k] = u - base
        out = np.zeros(n)
        for corner in itertools.product((0, 1), repeat=self.dim):
            idx = tuple((i1 if c else i0)[:, k] for k, c in enumerate(corner))
            weight = np.ones(n)
            for k, c in enumerate(corner):
                weight = weight * (w[:, k] if c else 1.0 - w[:, k])
            out += weight * self.values[idx]
        return out.reshape(lead)

    def __call__(self, points: Array) -> Array:
        return self.interp(points)

    # -- estimates ---------------------------------------------------------

    def lipschitz(self) -> float:
        """Estimated Lipschitz constant: per-axis max forward-difference slope,
        combined in Euclidean norm across axes."""
        total = 0.0
        for k in range(self.dim):
            d = np.diff(self.values, axis=k)
            if self.boundary == "periodic":
                wrap = np.take(self.values, [0], axis=k) - np.take(self.values, [-1], axis=k)
                d = np.concatenate([d, wrap], axis=k)
            s = float(np.abs(d).max()) / float(self.spacing[k]) if d.size else 0.0
            total += s * s
        return float(np.sqrt(total))

    def interp_error_estimate(self) -> float:
        """Second-difference proxy for the multilinear interpolation error:
        max |u_{i+1} - 2 u_i + u_{i-1}| / 8 over interior nodes and axes.
        Matches h^2 |u''| / 8 on smooth parts and h |Du jump| / 8 at kinks."""
        worst = 0.0
        for k in range(self.dim):
            v = self.values
            if self.boundary == "periodic":
                upper = np.roll(v, -1, axis=k)
                lower = np.roll(v, 1, axis=k)
                d2 = upper - 2.0 * v + lower
            else:
                sl = [slice(None)] * self.dim
                sl[k] = slice(1, -1)
                d2 = (np.take(v, range(2, v.shape[k]), axis=k)
                      - 2.0 * np.take(v, range(1, v.shape[k] - 1), axis=k)
                      + np.take(v, range(0, v.shape[k] - 2), axis=k))
            if d2.size:
                worst = max(worst, float(np.abs(d2).max()) / 8.0)
        return worst

    # -- serialization -----------------------------------------------------

    def to_csv(self, path: str) -> None:
        write_csv(path, [f"x{k + 1}" for k in range(self.dim)] + ["value"],
                  ([*row, v] for row, v in zip(self.nodes(),
                                               self.values.ravel())))

    def header_dict(self) -> dict:
        return {
            "box": self.box.tolist(),
            "num": list(self.values.shape),
            "boundary": self.boundary,
            "lipschitz": self.lipschitz(),
        }

    def to_json_header(self, path: str) -> None:
        dump_json(self.header_dict(), path)

    @classmethod
    def from_csv(cls, csv_path: str, header_path: str) -> "GridFunction":
        with open(header_path) as fh:
            header = json.load(fh)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        values = data[:, -1].reshape(tuple(header["num"]))
        return cls(box=np.asarray(header["box"], float), values=values,
                   boundary=header["boundary"])
