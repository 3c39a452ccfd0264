"""Deterministic CSV/JSON emission of column tables.

A table is a mapping from column name to a 1-D numpy array; every column
has one entry per row.  The writers emit the named columns in order, and a
column's dtype says how its values are written:

- float: the shortest round-trip form (``float.__repr__``).  NaN marks an
  absent value and is written as an empty CSV field or JSON ``null``.  The
  CSV writes -0.0 as 0.0; infinities are ``inf``/``-inf`` in the CSV and
  ``Infinity``/``-Infinity`` in the JSON.
- integer: decimal.
- bool: ``true``/``false``.
- anything else: strings, written as they are in the CSV and escaped as
  JSON strings in the JSON.

The CSV begins with a ``#schema=`` comment line followed by a header row, so
identical inputs give byte-identical files.  The JSON mirror carries the rows
plus run metadata (config digest, package and numpy versions), laid out as
``json.dump(payload, indent=2, sort_keys=True)`` lays it out.  Both writers
format ``BLOCK_ROWS`` rows at a time, one column at a time, and write each
block before formatting the next, so no file is held in memory whole.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import IO, Any, Iterator, Mapping, Sequence

import numpy as np

BLOCK_ROWS = 1024

# the rows key in the indent=2 skeleton, and the layout of one row under it
_ROWS_SLOT = '\n  "rows": []'
_ROW_OPEN, _ROW_SEP, _ROW_CLOSE = "\n    [\n      ", ",\n      ", "\n    ]"


def _float_tokens(a: np.ndarray, for_json: bool) -> list[str]:
    # each distinct value is formatted once: tables repeat their totals on
    # every sector row.  np.unique merges -0.0 with 0.0 (and may merge NaNs),
    # so zeros and non-finite values are set from ``a`` itself.
    distinct, index = np.unique(a, return_inverse=True)
    out = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)[index]
    out[a == 0.0] = "0.0"
    if for_json:
        out[(a == 0.0) & np.signbit(a)] = "-0.0"
        out[np.isnan(a)] = "null"
        out[a == np.inf] = "Infinity"
        out[a == -np.inf] = "-Infinity"
    else:
        out[np.isnan(a)] = ""
    return out.tolist()


def _tokens(col: np.ndarray, for_json: bool, memo: dict) -> list[str]:
    """The written form of every value of one column (block)."""
    kind = col.dtype.kind
    if kind == "f":
        return _float_tokens(col, for_json)
    if kind in "iu":
        return list(map(str, col.tolist()))
    if kind == "b":
        return ["true" if v else "false" for v in col.tolist()]
    values = map(str, col.tolist())
    if not for_json:
        return list(values)
    out = []
    for s in values:
        tok = memo.get(s)
        if tok is None:
            tok = memo[s] = json.dumps(s)
        out.append(tok)
    return out


def _blocks(
    columns: Sequence[str], data: Mapping[str, Any], for_json: bool
) -> Iterator[list[tuple[str, ...]]]:
    """The rows of ``data``, ``BLOCK_ROWS`` at a time, as tuples of tokens."""
    cols = [np.asarray(data[c]) for c in columns]
    memos: list[dict] = [{} for _ in cols]
    n_rows = len(cols[0]) if cols else 0
    for lo in range(0, n_rows, BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        yield list(zip(*(_tokens(c[lo:hi], for_json, m) for c, m in zip(cols, memos))))


def stream_csv(fh: IO[str], schema: str, columns: Sequence[str], data: Mapping[str, Any]) -> None:
    """Write the CSV of the named columns of ``data`` to an open text stream."""
    fh.write(f"#schema={schema}\n{','.join(columns)}\n")
    for rows in _blocks(columns, data, for_json=False):
        fh.write("\n".join(map(",".join, rows)) + "\n")


def write_csv(path: str, schema: str, columns: Sequence[str], data: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        stream_csv(fh, schema, columns, data)


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _nan_to_none(x: Any) -> Any:
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nan_to_none(v) for v in x]
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def write_json(
    path: str, payload: dict, columns: Sequence[str], data: Mapping[str, Any]
) -> None:
    """Write ``payload`` (JSON values; NaN is written as null) plus a ``rows``
    key holding the named columns of ``data`` row by row."""
    skeleton = json.dumps(_nan_to_none({**payload, "rows": []}), indent=2, sort_keys=True)
    head, tail = skeleton.split(_ROWS_SLOT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + _ROWS_SLOT[:-1])
        sep = ""
        for rows in _blocks(columns, data, for_json=True):
            fh.write(sep + ",".join(_ROW_OPEN + _ROW_SEP.join(r) + _ROW_CLOSE for r in rows))
            sep = ","
        fh.write(("\n  ]" if sep else "]") + tail + "\n")
