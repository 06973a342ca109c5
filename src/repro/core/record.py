"""Runtime records and the record API exposed to user-defined functions.

The paper's UDFs access record fields positionally through a small record
API (``getField``, ``setField``, copy/default/concat constructors, ``emit``;
Section 5).  We mirror that API:

* :class:`InputRecord` — read-only positional view of a record; ``copy()``
  is the *implicit copy* constructor, ``new_record()`` the *implicit
  projection* constructor, and ``concat(other)`` the binary concatenation
  constructor.
* :class:`OutputRecord` — write handle with ``set_field``.
* :class:`Collector` — receives emitted records.

Runtime records are dictionaries keyed by global :class:`Attribute`.  This
is what makes reordering sound: an operator only manipulates attributes in
its own positional space (its field maps); every other attribute passes
through untouched, which is exactly the pi_W-complement preservation the
paper's proofs rely on.
"""

from __future__ import annotations

from typing import Any

from .errors import UdfError
from .schema import Attribute, FieldMap, NewAttributeFactory

RawRecord = dict[Attribute, Any]


# Exact-type fast path: sizing runs once per value per ship/spill, so it
# sits on the engine's hot path.  Subclasses fall through to the
# isinstance chain, preserving the original semantics (bool before int).
_SCALAR_BYTES: dict[type, int] = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
}


def value_bytes(value: Any) -> int:
    """Estimated serialized size of a single value, in bytes."""
    kind = type(value)
    size = _SCALAR_BYTES.get(kind)
    if size is not None:
        return size
    if kind is str:
        return 4 + len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(value_bytes(v) for v in value)
    return 16


def record_bytes(record: RawRecord) -> int:
    """Estimated serialized size of a record (values plus per-field header)."""
    total = 2 * len(record)
    scalar = _SCALAR_BYTES
    for value in record.values():
        size = scalar.get(type(value))
        if size is not None:
            total += size
        elif type(value) is str:
            total += 4 + len(value)
        else:
            total += value_bytes(value)
    return total


class OutputPositionResolver:
    """Resolves UDF *output* positions to global attributes.

    For a unary operator with input width ``w``, output positions ``0..w-1``
    address the input attributes and positions ``>= w`` create new
    attributes.  For a binary operator the concatenated widths are used, as
    with the paper's two-input record constructor.
    """

    def __init__(
        self, input_maps: tuple[FieldMap, ...], factory: NewAttributeFactory
    ) -> None:
        self._maps = input_maps
        self._factory = factory
        self._widths = [len(m) for m in input_maps]
        self._total_width = sum(self._widths)

    @property
    def total_width(self) -> int:
        return self._total_width

    def attr_for(self, output_position: int) -> Attribute:
        if output_position < 0:
            raise UdfError(f"negative field position {output_position}")
        offset = output_position
        for m in self._maps:
            if offset < len(m):
                return m.attr_at(offset)
            offset -= len(m)
        return self._factory.attr_for(output_position)

    def positional_attrs(self) -> frozenset[Attribute]:
        """All attributes inside this operator's positional space."""
        out: set[Attribute] = set()
        for m in self._maps:
            out.update(m.attributes)
        return frozenset(out)


class InputRecord:
    """Read-only positional view handed to UDFs."""

    __slots__ = ("_values", "_field_map", "_resolver")

    def __init__(
        self,
        values: RawRecord,
        field_map: FieldMap,
        resolver: OutputPositionResolver,
    ) -> None:
        self._values = values
        self._field_map = field_map
        self._resolver = resolver

    def get_field(self, position: int) -> Any:
        try:
            # fast path: in-range position, attribute present
            if position >= 0:
                return self._values[self._field_map.attributes[position]]
        except KeyError:
            attr = self._field_map.attr_at(position)
            raise UdfError(
                f"attribute {attr.name} absent at runtime; the plan projects "
                "it away before this operator"
            ) from None
        except IndexError:
            pass
        return self._values[self._field_map.attr_at(position)]  # raises

    def copy(self) -> "OutputRecord":
        """Implicit-copy constructor: output starts as a full copy."""
        return OutputRecord(dict(self._values), self._resolver)

    def new_record(self) -> "OutputRecord":
        """Implicit-projection constructor.

        Attributes inside the operator's own positional space are dropped;
        attributes the operator does not know about pass through (global
        record semantics).
        """
        positional = self._resolver.positional_attrs()
        passthrough = {a: v for a, v in self._values.items() if a not in positional}
        return OutputRecord(passthrough, self._resolver)

    def concat(self, other: "InputRecord") -> "OutputRecord":
        """Binary concatenation constructor (implicit copy of both inputs)."""
        if not isinstance(other, InputRecord):
            raise UdfError("concat expects another input record")
        merged = dict(self._values)
        merged.update(other._values)
        return OutputRecord(merged, self._resolver)

    def raw(self) -> RawRecord:
        """The underlying attribute-keyed values (library internal)."""
        return self._values


class OutputRecord:
    """Mutable record under construction by a UDF."""

    __slots__ = ("_values", "_resolver")

    def __init__(self, values: RawRecord, resolver: OutputPositionResolver) -> None:
        self._values = values
        self._resolver = resolver

    def set_field(self, position: int, value: Any) -> None:
        """Set an output field.

        Following the paper's record API, setting a field to ``None`` is an
        *explicit projection* (the attribute is removed).
        """
        attr = self._resolver.attr_for(position)
        if value is None:
            self._values.pop(attr, None)
        else:
            self._values[attr] = value

    def get_field(self, position: int) -> Any:
        """Read back a field previously present on the output record."""
        attr = self._resolver.attr_for(position)
        try:
            return self._values[attr]
        except KeyError:
            raise UdfError(f"output field {position} ({attr.name}) not set") from None

    def raw(self) -> RawRecord:
        return self._values


class Collector:
    """Receives records emitted by a UDF invocation."""

    __slots__ = ("_out",)

    def __init__(self) -> None:
        self._out: list[RawRecord] = []

    def emit(self, record: InputRecord | OutputRecord) -> None:
        if isinstance(record, OutputRecord):
            # The UDF may keep mutating the output record after emitting
            # it, so the emitted snapshot must be a copy.
            self._out.append(dict(record.raw()))
        elif isinstance(record, InputRecord):
            # Emitting an input record is an implicit full copy; the view
            # is read-only and records are never mutated once emitted, so
            # the underlying dict can be shared instead of copied.
            self._out.append(record.raw())
        else:
            raise UdfError(f"emit() expects a record, got {type(record).__name__}")

    def records(self) -> list[RawRecord]:
        return self._out
