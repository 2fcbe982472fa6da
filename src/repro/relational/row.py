"""Immutable relation rows.

A :class:`Row` is a hashable mapping from attribute names to values (domain
values or :data:`~repro.relational.nulls.NULL`).  Rows are deliberately
schema-free value objects — the owning :class:`~repro.relational.relation.Relation`
validates them against its schema on insertion — which lets the algebra
build intermediate rows cheaply.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.relational.errors import AttributeError_
from repro.relational.nulls import NULL, is_null


class Row(Mapping[str, Any]):
    """An immutable, hashable mapping of attribute names to values."""

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[str, Any]) -> None:
        self._values: Dict[str, Any] = dict(values)
        self._hash = hash(frozenset(self._values.items()))

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError_(
                f"row has no attribute {name!r}; available: {sorted(self._values)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        # Mapping's default __contains__ probes __getitem__ expecting
        # KeyError; ours raises AttributeError_, so answer directly.
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Row({inner})"

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Row":
        """Row restricted to *names* (all must be present)."""
        return Row({name: self[name] for name in names})

    def rename(self, mapping: Mapping[str, str]) -> "Row":
        """Row with attributes renamed according to *mapping*."""
        return Row({mapping.get(name, name): value for name, value in self._values.items()})

    def extend(self, extra: Mapping[str, Any]) -> "Row":
        """Row with *extra* attributes appended.

        Raises if an extra attribute would overwrite an existing one with a
        different value; writing the same value is a harmless no-op, and
        overwriting a NULL with a concrete value (the ILFD derivation step)
        is allowed.
        """
        merged = dict(self._values)
        for name, value in extra.items():
            if name in merged and merged[name] != value and not is_null(merged[name]):
                raise AttributeError_(
                    f"extend would overwrite non-NULL {name!r}="
                    f"{merged[name]!r} with {value!r}"
                )
            merged[name] = value
        return Row(merged)

    def values_for(self, names: Iterable[str]) -> Tuple[Any, ...]:
        """Values of *names*, as a tuple in the given order."""
        return tuple(self[name] for name in names)

    def null_padded(self, names: Iterable[str]) -> "Row":
        """Row extended with NULL for every name not already present."""
        merged = dict(self._values)
        for name in names:
            merged.setdefault(name, NULL)
        return Row(merged)

    def has_nulls(self, names: Iterable[str] | None = None) -> bool:
        """True iff any of *names* (default: all attributes) is NULL."""
        targets = self._values if names is None else names
        return any(is_null(self[name]) for name in targets)

    def non_null_names(self) -> Tuple[str, ...]:
        """Names of attributes bound to non-NULL values."""
        return tuple(name for name, value in self._values.items() if not is_null(value))
