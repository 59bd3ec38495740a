"""Attribute data types, coercion and inference.

The substrate supports a deliberately small set of scalar types that cover
the wrangling scenario in the paper: strings, integers, floats and booleans,
plus SQL-style NULL (represented as Python ``None``).
"""

from __future__ import annotations

import enum
import math
from typing import Any

from repro.relational.errors import TypeCoercionError

__all__ = [
    "DataType",
    "NULL",
    "is_null",
    "coerce_value",
    "infer_type",
    "infer_common_type",
    "parse_literal",
]

#: Canonical NULL value used across the relational layer.
NULL = None


class DataType(enum.Enum):
    """Scalar data types supported by the relational substrate."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    #: ANY is used for attributes whose type is unknown (e.g. all-null columns).
    ANY = "any"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type support arithmetic."""
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def python_type(self) -> type | None:
        """The class :func:`coerce_value` produces for this type (None for ANY).

        A non-NaN value of exactly this class coerces to itself.
        """
        return _PYTHON_TYPES.get(self)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a type from its lower-case name (``"string"``, ``"int"``...)."""
        normalised = name.strip().lower()
        aliases = {
            "str": cls.STRING,
            "string": cls.STRING,
            "text": cls.STRING,
            "varchar": cls.STRING,
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "numeric": cls.FLOAT,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
            "any": cls.ANY,
        }
        if normalised not in aliases:
            raise TypeCoercionError(f"unknown data type name {name!r}")
        return aliases[normalised]


def is_null(value: Any) -> bool:
    """Return True when ``value`` represents SQL NULL.

    ``None`` is the canonical null; NaN floats are also treated as null
    because noisy numeric extraction frequently produces them.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


_PYTHON_TYPES = {
    DataType.STRING: str,
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.BOOLEAN: bool,
}

_TRUE_STRINGS = frozenset({"true", "t", "yes", "y", "1"})
_FALSE_STRINGS = frozenset({"false", "f", "no", "n", "0"})


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to ``dtype``, returning NULL unchanged.

    Raises :class:`TypeCoercionError` when the value cannot be represented in
    the requested type (e.g. ``"abc"`` as INTEGER).
    """
    if is_null(value):
        return NULL
    if dtype is DataType.ANY:
        return value
    if dtype is DataType.STRING:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)
    if dtype is DataType.INTEGER:
        return _coerce_integer(value)
    if dtype is DataType.FLOAT:
        return _coerce_float(value)
    if dtype is DataType.BOOLEAN:
        return _coerce_boolean(value)
    raise TypeCoercionError(f"unsupported data type {dtype!r}")  # pragma: no cover


def _coerce_integer(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeCoercionError(f"cannot coerce non-integral float {value!r} to INTEGER")
        return int(value)
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        try:
            return int(text)
        except ValueError:
            try:
                as_float = float(text)
            except ValueError:
                raise TypeCoercionError(f"cannot coerce {value!r} to INTEGER") from None
            if as_float.is_integer():
                return int(as_float)
            raise TypeCoercionError(f"cannot coerce {value!r} to INTEGER") from None
    raise TypeCoercionError(f"cannot coerce {type(value).__name__} value {value!r} to INTEGER")


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip().replace(",", "").replace("£", "").replace("$", "")
        try:
            return float(text)
        except ValueError:
            raise TypeCoercionError(f"cannot coerce {value!r} to FLOAT") from None
    raise TypeCoercionError(f"cannot coerce {type(value).__name__} value {value!r} to FLOAT")


def _coerce_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _TRUE_STRINGS:
            return True
        if text in _FALSE_STRINGS:
            return False
    raise TypeCoercionError(f"cannot coerce {value!r} to BOOLEAN")


def infer_type(value: Any) -> DataType:
    """Infer the narrowest :class:`DataType` able to hold ``value``."""
    if is_null(value):
        return DataType.ANY
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return _infer_string_type(value)
    return DataType.STRING


def _infer_string_type(text: str) -> DataType:
    stripped = text.strip()
    if not stripped:
        return DataType.ANY
    lowered = stripped.lower()
    if lowered in _TRUE_STRINGS | _FALSE_STRINGS and lowered not in {"0", "1"}:
        return DataType.BOOLEAN
    try:
        int(stripped)
        return DataType.INTEGER
    except ValueError:
        pass
    try:
        float(stripped)
        return DataType.FLOAT
    except ValueError:
        pass
    return DataType.STRING


_WIDENING_ORDER = {
    DataType.BOOLEAN: 0,
    DataType.INTEGER: 1,
    DataType.FLOAT: 2,
    DataType.STRING: 3,
}


def infer_common_type(types: list[DataType]) -> DataType:
    """Return the narrowest type that can represent every type in ``types``.

    ANY (all-null) entries are ignored; numeric types widen to FLOAT; any
    disagreement beyond that widens to STRING.
    """
    concrete = [t for t in types if t is not DataType.ANY]
    if not concrete:
        return DataType.ANY
    if all(t is concrete[0] for t in concrete):
        return concrete[0]
    numeric = {DataType.INTEGER, DataType.FLOAT}
    if all(t in numeric for t in concrete):
        return DataType.FLOAT
    return DataType.STRING


def parse_literal(text: str) -> Any:
    """Parse a raw CSV/string literal into the most natural Python value.

    Empty strings and the common null spellings become NULL.
    """
    stripped = text.strip()
    if stripped == "" or stripped.lower() in {"null", "none", "na", "n/a", "nan"}:
        return NULL
    inferred = infer_type(stripped)
    if inferred is DataType.ANY:
        return NULL
    if inferred is DataType.STRING:
        return stripped
    return coerce_value(stripped, inferred)
