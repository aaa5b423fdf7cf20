"""Feature-vector templates and their on-disk format.

A template is an immutable float64 vector, optionally flagged as unit-norm.
Its file form is a compact binary record (magic ``TPL1``, little-endian
header and payload).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateTemplateError, TemplateFormatError
from .validation import as_vector

UNIT_NORM_TOL = 1e-9

_MAGIC = b"TPL1"
_HEADER = struct.Struct("<4sIB")  # magic, dimension, unit-norm flag


@dataclass(frozen=True, eq=False)
class Template:
    """An immutable feature vector with an optional unit-norm guarantee."""

    values: np.ndarray
    unit: bool = False

    def __post_init__(self):
        arr = as_vector(self.values, name="template").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "unit", bool(self.unit))
        if self.unit and abs(np.linalg.norm(arr) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"unit flag set but norm is {np.linalg.norm(arr)!r}"
            )

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return self.unit == other.unit and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Template(dim={self.dim}, unit={self.unit})"


def normalize(values) -> Template:
    """The array ``values`` scaled to unit norm, as a template. The zero
    vector has no direction and is rejected."""
    arr = as_vector(values, name="template")
    peak = np.max(np.abs(arr))
    if peak == 0.0:
        raise DegenerateTemplateError("degenerate template: cannot normalize the zero vector")
    scaled = arr / peak  # pre-scaling keeps the squared sum from overflowing
    return Template(scaled / np.linalg.norm(scaled), unit=True)


def write_template(template: Template, path) -> None:
    """Write the binary form: ``TPL1`` + u32 dim + u8 flag + float64 payload."""
    header = _HEADER.pack(_MAGIC, template.dim, 1 if template.unit else 0)
    Path(path).write_bytes(header + template.values.astype("<f8").tobytes())


def read_template(path) -> Template:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TemplateFormatError(f"truncated header: {len(raw)} bytes")
    magic, dim, flag = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise TemplateFormatError(f"bad magic {magic!r}")
    if dim < 1:
        raise TemplateFormatError(f"bad dimension {dim}")
    if flag not in (0, 1):
        raise TemplateFormatError(f"bad unit-norm flag {flag}")
    payload = raw[_HEADER.size:]
    if len(payload) != 8 * dim:
        raise TemplateFormatError(
            f"length mismatch: dimension {dim} implies {8 * dim} payload bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return _validated(values, bool(flag))


def _validated(values: np.ndarray, unit: bool) -> Template:
    if not np.isfinite(values).all():
        raise TemplateFormatError("non-finite value in template payload")
    if unit and not math.isclose(float(np.linalg.norm(values)), 1.0, abs_tol=UNIT_NORM_TOL, rel_tol=0.0):
        raise TemplateFormatError(
            f"unit-norm flag set but payload norm is {float(np.linalg.norm(values))!r}"
        )
    return Template(values, unit=unit)
