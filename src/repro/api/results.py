"""The common result protocol of every experiment driver.

Historically each experiment's ``run()`` returned its own ad-hoc shape (a
list of rows here, a grid object there) and only the textual ``report()``
views were uniform.  :class:`ExperimentResult` turns the structured data into
the primary artefact: every registered experiment returns one, carrying

* the experiment ``name`` and the ``paper_reference`` it reproduces,
* the ``params`` the run was invoked with,
* the native ``payload`` (the driver's own rows/grid dataclasses), and
* uniform machine-readable exports -- :meth:`to_dict`, :meth:`to_json` and
  :meth:`to_csv_rows`.

``report()`` functions remain pure views over the payload, so the rendered
tables are unchanged.  For backwards compatibility the wrapper behaves like
its payload: iteration, indexing, ``len()`` and attribute access are all
delegated, so ``for row in table2_wctt.run()`` keeps working.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["ExperimentResult", "ResultEncoder", "unwrap"]

#: Exact types :func:`_plain` keeps as they are (enum members of them do not).
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})


class ResultEncoder(json.JSONEncoder):
    """JSON encoder understanding the value types experiment payloads use.

    Delegates to :func:`_plain`: ``Fraction`` becomes a ``"num/den"``
    string, coordinates become ``[x, y]`` pairs, enums collapse to their
    value and any remaining dataclass is emitted field by field.
    """

    def default(self, o: Any) -> Any:  # noqa: D102 - see class docstring
        return _plain(o)


def _payload_rows(payload: Any) -> List[Dict[str, Any]]:
    """Flatten a native payload into a list of homogeneous row dicts."""
    if payload is None:
        return []
    if hasattr(payload, "as_rows"):
        return [dict(row) for row in payload.as_rows()]
    if isinstance(payload, Mapping):
        return [dict(payload)]
    if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
        rows = []
        for item in payload:
            if hasattr(item, "as_dict"):
                rows.append(dict(item.as_dict()))
            elif isinstance(item, Mapping):
                rows.append(dict(item))
            else:
                rows.append({"value": item})
        return rows
    if hasattr(payload, "as_dict"):
        return [dict(payload.as_dict())]
    return [{"value": payload}]


@dataclass
class ExperimentResult:
    """Uniform, exportable wrapper around one experiment run.

    The ``payload`` is the driver's native structured result; the wrapper
    delegates sequence/attribute access to it so existing callers are
    unaffected by the API migration.
    """

    experiment: str
    payload: Any
    params: Dict[str, Any] = field(default_factory=dict)
    paper_reference: str = ""
    description: str = ""
    from_cache: bool = False

    # ------------------------------------------------------------------
    # Machine-readable exports
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        """The payload flattened to a list of homogeneous row dicts."""
        return _payload_rows(self.payload)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: experiment metadata plus the flattened rows."""
        return {
            "experiment": self.experiment,
            "paper_reference": self.paper_reference,
            "description": self.description,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "rows": [{k: _plain(v) for k, v in row.items()} for row in self.rows()],
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON rendering of :meth:`to_dict` (always serialisable)."""
        return json.dumps(self.to_dict(), indent=indent, cls=ResultEncoder, sort_keys=False)

    def to_csv_rows(self) -> Tuple[List[str], List[List[Any]]]:
        """``(header, rows)`` ready for :mod:`csv` writers.

        The header is the union of the row keys in first-seen order, so
        heterogeneous payloads (e.g. sweeps over several experiments) can be
        concatenated into one file.
        """
        dict_rows = self.to_dict()["rows"]
        header: List[str] = []
        for row in dict_rows:
            for key in row:
                if key not in header:
                    header.append(key)
        return header, [[_csv_cell(row.get(key, "")) for key in header] for row in dict_rows]

    @staticmethod
    def is_dict_form(data: Any) -> bool:
        """Whether ``data`` has the shape of :meth:`to_dict`, which is what
        :meth:`from_dict` rebuilds: an object whose ``params`` is an object
        and whose ``rows`` is a list of objects (either may be missing)."""
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            return False
        rows = data.get("rows", [])
        return isinstance(rows, list) and all(isinstance(row, dict) for row in rows)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a (rows-only) result from its :meth:`to_dict` form
        (``data`` must pass :meth:`is_dict_form`).

        Used by the batch engine's persistent cache: the native payload is
        not reconstructed, the flattened rows become the payload instead.
        """
        return cls(
            experiment=str(data.get("experiment", "")),
            payload=[dict(row) for row in data.get("rows", [])],
            params=dict(data.get("params", {})),
            paper_reference=str(data.get("paper_reference", "")),
            description=str(data.get("description", "")),
            from_cache=True,
        )

    # ------------------------------------------------------------------
    # Payload delegation (backwards compatibility with the old run() types)
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        return iter(self.payload)

    def __getitem__(self, index: Any) -> Any:
        return self.payload[index]

    def __len__(self) -> int:
        return len(self.payload)

    def __bool__(self) -> bool:
        try:
            return len(self.payload) > 0
        except TypeError:
            return self.payload is not None

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails; forward to the
        # payload so e.g. ``result.normalized`` reaches a Table3Result.
        payload = object.__getattribute__(self, "payload")
        try:
            return getattr(payload, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!s} of experiment {self.experiment!r} has no "
                f"attribute {name!r} (payload type: {type(payload).__name__})"
            ) from None


def unwrap(result: Any) -> Any:
    """Return the native payload of ``result`` (no-op for plain payloads).

    ``report()`` views accept both :class:`ExperimentResult` objects and the
    historical native payloads; they call this first.
    """
    if isinstance(result, ExperimentResult):
        return result.payload
    return result


def _plain(value: Any) -> Any:
    """Recursively convert one value to a JSON-friendly plain type.

    The single source of truth for value flattening: :class:`ResultEncoder`
    and the engine's config-hash canonicalisation both build on it.
    """
    if type(value) in _PRIMITIVES:
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(_plain(k)): _plain(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float)):  # subclasses, e.g. numpy.float64
        return value
    if hasattr(value, "x") and hasattr(value, "y") and not isinstance(value, type):
        return [value.x, value.y]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return repr(value)


def _csv_cell(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return json.dumps(value, cls=ResultEncoder, sort_keys=True)
