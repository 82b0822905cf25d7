"""2x3 affine transforms on pixel coordinates, plus their serialization.

A transform maps a point p = (x, y) to M[:, :2] @ p + M[:, 2]. Three model
kinds are distinguished: pure translations, similarities (uniform scale +
rotation + translation), and general affinities. Composition and inversion
stay within the kind; affine is the superset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SingularTransformError


class TransformKind(str, Enum):
    TRANSLATION = "translation"
    SIMILARITY = "similarity"
    AFFINE = "affine"

    @property
    def n_params(self) -> int:
        return {TransformKind.TRANSLATION: 2,
                TransformKind.SIMILARITY: 4,
                TransformKind.AFFINE: 6}[self]

    @property
    def min_matches(self) -> int:
        # each point pair yields two linear constraints
        return (self.n_params + 1) // 2


@dataclass(frozen=True)
class AffineTransform:
    """2x3 row-major matrix [[a11, a12, tx], [a21, a22, ty]] with a kind tag."""

    m: np.ndarray
    kind: TransformKind = TransformKind.AFFINE

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=np.float64)
        if arr.shape != (2, 3):
            raise ValueError(f"transform matrix must be 2x3, got {arr.shape}")
        object.__setattr__(self, "m", arr)
        kind = TransformKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind == TransformKind.TRANSLATION:
            if not (arr[0, 0] == 1 and arr[1, 1] == 1
                    and arr[0, 1] == 0 and arr[1, 0] == 0):
                raise ValueError("translation kind requires identity linear part")
        elif kind == TransformKind.SIMILARITY:
            if not (arr[0, 0] == arr[1, 1] and arr[0, 1] == -arr[1, 0]):
                raise ValueError(
                    "similarity kind requires [[a, -b], [b, a]] linear part")

    @staticmethod
    def identity(kind: TransformKind = TransformKind.TRANSLATION) -> "AffineTransform":
        return AffineTransform(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), kind)

    @staticmethod
    def translation(tx: float, ty: float) -> "AffineTransform":
        return AffineTransform(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]]),
                               TransformKind.TRANSLATION)

    @staticmethod
    def similarity(a: float, b: float, tx: float, ty: float) -> "AffineTransform":
        """Map (x, y) -> (a*x - b*y + tx, b*x + a*y + ty)."""
        return AffineTransform(np.array([[a, -b, tx], [b, a, ty]]),
                               TransformKind.SIMILARITY)

    @property
    def translation_part(self) -> np.ndarray:
        return self.m[:, 2].copy()

    def scale(self) -> float:
        """Uniform scale factor; exact for similarity kinds."""
        return float(np.sqrt(abs(self.det())))

    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    def apply(self, points) -> np.ndarray:
        """Transform an (N, 2) array (or a single (2,) point) of (x, y)."""
        return np.stack(project(self.m, points), axis=-1)

    def compose(self, other: "AffineTransform") -> "AffineTransform":
        """Return the transform applying `other` first, then self."""
        kind = _widest_kind(self.kind, other.kind)
        t = self.m[:, :2] @ other.m[:, 2] + self.m[:, 2]
        if kind == TransformKind.TRANSLATION:
            return AffineTransform.translation(float(t[0]), float(t[1]))
        if kind == TransformKind.SIMILARITY:
            # compose in (a, b) parameters so the exact [[a, -b], [b, a]]
            # structure survives floating arithmetic
            a1, b1 = float(self.m[0, 0]), float(self.m[1, 0])
            a2, b2 = float(other.m[0, 0]), float(other.m[1, 0])
            return AffineTransform.similarity(a1 * a2 - b1 * b2,
                                              b1 * a2 + a1 * b2,
                                              float(t[0]), float(t[1]))
        a = self.m[:, :2] @ other.m[:, :2]
        return AffineTransform(np.column_stack([a, t]), kind)

    def inverse(self) -> "AffineTransform":
        d = self.det()
        if not abs(d) > 1e-12:  # also catches a NaN determinant
            raise SingularTransformError(f"transform is singular (|det|={abs(d):.3e})")
        a = self.m[:, :2]
        ainv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / d
        t = -ainv @ self.m[:, 2]
        return AffineTransform(np.column_stack([ainv, t]), self.kind)


def project(m, points) -> tuple[np.ndarray, np.ndarray]:
    """x and y of (..., 2) points under a 2x3 matrix, or under each matrix
    of a (b, 2, 3) stack, which puts a leading b axis on both.

    The products are written out per component, so a point maps to the
    same bits alone or inside any batch, and a matrix alone or in a stack.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    m = m.reshape(m.shape[:-2] + (1,) * (pts.ndim - 1) + (2, 3))
    x, y = pts[..., 0], pts[..., 1]
    return (m[..., 0, 0] * x + m[..., 0, 1] * y + m[..., 0, 2],
            m[..., 1, 0] * x + m[..., 1, 1] * y + m[..., 1, 2])


def _widest_kind(*kinds: TransformKind) -> TransformKind:
    order = [TransformKind.TRANSLATION, TransformKind.SIMILARITY, TransformKind.AFFINE]
    return max(kinds, key=order.index)


def to_json_dict(t: AffineTransform, support: int = 0, inliers: int = 0) -> dict:
    return {
        "model": t.kind.value,
        "matrix": [[float(v) for v in row] for row in t.m],
        "support": int(support),
        "inliers": int(inliers),
    }


def from_json_dict(obj: dict) -> AffineTransform:
    try:
        kind = TransformKind(obj["model"])
        m = np.asarray(obj["matrix"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed transform JSON: {exc}") from exc
    return AffineTransform(_finite(m), kind)


def format_matrix_text(t: AffineTransform) -> str:
    """Plain-text 2x3 matrix, one row per line."""
    rows = (" ".join(repr(float(v)) for v in row) for row in t.m)
    return "\n".join(rows) + "\n"


def parse_matrix_text(text: str) -> AffineTransform:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("matrix text must contain two rows of three numbers")
    m = np.array([[float(v) for v in row] for row in rows])
    return AffineTransform(_finite(m), TransformKind.AFFINE)


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("transform matrix holds a non-finite entry")
    return m


def load_transform(path) -> AffineTransform:
    """Read a transform from a JSON file or a plain-text 2x3 matrix file.

    A malformed file, or one with a non-finite entry, raises ValueError
    naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("{"):
            return from_json_dict(json.loads(text))
        return parse_matrix_text(text)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"transform file {path}: {exc}") from exc
