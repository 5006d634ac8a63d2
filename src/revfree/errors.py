"""Shared exception types, and the strict reader of JSON documents."""

from itertools import chain


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract.

    Instances may carry a ``witness`` attribute pointing at the offending
    structure (e.g. the row/column subsets of a forbidden pattern, or the
    word pair and positions of a reverse).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapacityError(PreconditionError):
    """Input is structurally valid but exceeds a hard size guard."""


class InvariantError(RuntimeError):
    """A guaranteed postcondition failed; indicates a bug, not bad input."""


_SEQUENCES = {list, tuple}


def _read_document(data, kind: str, header, **tables):
    """The values of ``data``'s ``header`` keys, then of its ``tables`` keys.

    ``tables`` maps each key to its row width, or None for any width.  A
    table must be a list (or tuple) of lists (or tuples) of exact ints,
    bools refused; a failure names its location, e.g. ``words[1][0]``.
    Header values are returned unchecked.
    """
    if not isinstance(data, dict):
        raise PreconditionError(
            f"malformed {kind} document: expected a JSON object, got {type(data).__name__}"
        )
    try:
        values = [data[key] for key in (*header, *tables)]
    except KeyError as exc:
        raise PreconditionError(f"malformed {kind} document: missing {exc}") from exc
    for (key, width), rows in zip(tables.items(), values[len(header):]):
        if type(rows) not in _SEQUENCES:
            raise PreconditionError(f"malformed {kind} document: {key} must be a list")
        # one C-level pass per check; the location is looked for only on failure
        if set(map(type, rows)) - _SEQUENCES or (
            width is not None and set(map(len, rows)) - {width}
        ):
            a = next(a for a, row in enumerate(rows) if type(row) not in _SEQUENCES
                     or width is not None and len(row) != width)
            shape = "a list" if width is None else f"a list of {width} integers"
            raise PreconditionError(
                f"malformed {kind} document: {key}[{a}] = {rows[a]!r} is not {shape}"
            )
        if set(map(type, chain.from_iterable(rows))) - {int}:
            a, i = next((a, i) for a, row in enumerate(rows)
                        for i, c in enumerate(row) if type(c) is not int)
            raise PreconditionError(
                f"malformed {kind} document: {key}[{a}][{i}] = {rows[a][i]!r} "
                "is not an integer"
            )
    return values
