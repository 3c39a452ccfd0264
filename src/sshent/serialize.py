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
  JSON strings in the JSON.  A string column whose rows already index a
  few labels can be given as ``Labels``: its labels and those indices.

The CSV begins with a ``#schema=`` comment line followed by a header row, so
identical inputs give byte-identical files.  The JSON mirror carries the rows
plus run metadata (config digest, package and numpy versions), laid out as
``json.dump(payload, indent=2, sort_keys=True)`` lays it out.

``render`` spells a table once for both formats.  Each column becomes a
vocabulary of its distinct written values, each formatted one time
(``float.__repr__``, ``str`` or ``json.dumps``), and one compact code per row
into it; a value the two formats spell differently (-0.0, NaN, infinities,
strings) has one vocabulary entry per format.  The vocabulary is a byte
matrix, one entry per row, padded with 0xFF, a byte that UTF-8 text never
holds.  ``write_csv``, ``write_json`` and ``stream_csv`` all read one
rendering ``BLOCK_ROWS`` rows at a time: they gather a block's entries into
one byte matrix laid out row by row, drop the padding, and write the block
before gathering the next, so no file is held in memory whole.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

# SHA-256 from the interpreter's builtin module: hashlib would load OpenSSL's
# libcrypto (about 3.5 MB of resident memory) for this one digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

BLOCK_ROWS = 1024

_CSV, _JSON = range(2)
_PAD = 0xFF
# each format's row layout: (row prefix, column separator, row suffix); every
# JSON row starts with the comma that ends the row before it
_LAYOUTS = {_CSV: ("", ",", "\n"), _JSON: (",\n    [\n      ", ",\n      ", "\n    ]")}
# the rows key in the indent=2 skeleton
_ROWS_SLOT = '\n  "rows": []'


@dataclass(frozen=True)
class _Column:
    codes: np.ndarray  # each row's value index, which is its CSV vocabulary row
    json_rows: np.ndarray  # value index -> JSON vocabulary row
    vocabulary: np.ndarray  # (entries, width) uint8, each entry padded with _PAD


@dataclass(frozen=True)
class Labels:
    """A string column as its labels (strings) and each row's index into them."""

    labels: Sequence[str]
    codes: np.ndarray


@dataclass(frozen=True)
class Rendering:
    """The named columns of a table, spelled for both formats."""

    columns: list[str]
    n_rows: int
    parts: list[_Column]


def _float_values(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_values`` of a float column.  Only the non-NaN values are sorted (a
    NaN takes the sort off numpy's vectorized path); every NaN shares the
    last value, and -0.0, kept apart from 0.0, the one before it."""
    nan = np.isnan(col)
    values, inverse = np.unique(col[~nan], return_inverse=True)
    # np.unique merges the zeros under either sign; split them again
    values[values == 0.0] = 0.0
    negative_zero = (col == 0.0) & np.signbit(col)
    extra = ([-0.0] if negative_zero.any() else []) + ([np.nan] if nan.any() else [])
    codes = np.empty(col.size, inverse.dtype)
    codes[~nan] = inverse
    codes[negative_zero] = len(values)
    codes[nan] = len(values) + len(extra) - 1
    return np.append(values, np.array(extra, values.dtype)), codes


def _values(col: np.ndarray) -> tuple[Any, np.ndarray]:
    """The distinct values of ``col`` (an array, or a list of strings) and each
    row's index into them.  Floats keep -0.0 apart from 0.0."""
    if col.dtype.kind == "f":
        return _float_values(col)
    if col.dtype.kind in "iub":
        return np.unique(col, return_inverse=True)
    items = col.tolist()
    index = dict.fromkeys(items)
    if not all(type(v) is str for v in index):
        # equal non-strings (1, 1.0, True) can have different spellings
        items = list(map(str, items))
        index = dict.fromkeys(items)
    for i, v in enumerate(index):
        index[v] = i
    codes = np.fromiter(map(index.__getitem__, items), np.intp, len(items))
    return list(index), codes


def _csv_spelling(kind: str, values: Any) -> list[str]:
    """The CSV spelling of each of ``values``, distinct values of a column of
    dtype kind ``kind``."""
    if kind == "f":
        tokens = list(map(float.__repr__, values.tolist()))
        for i in np.flatnonzero(np.isnan(values) | (values == 0.0)):
            tokens[i] = "" if np.isnan(values[i]) else "0.0"
        return tokens
    if kind in "iu":
        return list(map(str, values.tolist()))
    if kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    return values


def _json_spelling(kind: str, values: Any) -> tuple[np.ndarray, list[str]]:
    """The indices of ``values`` that JSON spells unlike the CSV, and their
    JSON spelling."""
    if kind == "f":
        index = np.flatnonzero(~np.isfinite(values) | ((values == 0.0) & np.signbit(values)))
        return index, ["null" if v != v else json.dumps(v) for v in values[index].tolist()]
    if kind in "iub":
        return np.arange(0), []
    return np.arange(len(values)), list(map(json.dumps, values))


def _padded(tokens: list[str]) -> np.ndarray:
    """``tokens`` as UTF-8, one row of a uint8 matrix each, padded with _PAD."""
    raw = [t.encode("utf-8") for t in tokens]
    lengths = np.fromiter(map(len, raw), np.intp, len(raw))
    width = max(int(lengths.max(initial=0)), 1)
    matrix = np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)
    matrix[np.arange(width) >= lengths[:, None]] = _PAD
    return matrix


def _pack(chunks: Iterable[list[str]]) -> np.ndarray:
    """``_padded`` of all tokens of ``chunks``; only one chunk is held as
    Python strings at a time."""
    packed = [_padded(tokens) for tokens in chunks if tokens]
    if len(packed) == 1:
        return packed[0]
    width = max((m.shape[1] for m in packed), default=1)
    out = np.full((sum(map(len, packed)), width), _PAD, np.uint8)
    row = 0
    for matrix in packed:
        out[row : row + len(matrix), : matrix.shape[1]] = matrix
        row += len(matrix)
    return out


def _index(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` in the smallest unsigned type that holds indices below ``size``."""
    return a.astype(np.min_scalar_type(max(size - 1, 0)), copy=False)


def _render_column(col: Any) -> _Column:
    if isinstance(col, Labels):
        kind, values, codes = "U", list(col.labels), np.asarray(col.codes)
    else:
        col = np.asarray(col)
        kind = col.dtype.kind
        values, codes = _values(col)
    k = len(values)
    # vocabulary rows: the CSV spelling of every value, then the JSON
    # spellings that differ from it
    differ, json_tokens = _json_spelling(kind, values)
    csv_chunks = (_csv_spelling(kind, values[lo : lo + BLOCK_ROWS]) for lo in range(0, k, BLOCK_ROWS))
    vocabulary = _pack(itertools.chain(csv_chunks, [json_tokens]))
    json_rows = np.arange(k)
    json_rows[differ] = k + np.arange(len(differ))
    return _Column(_index(codes, k), _index(json_rows, len(vocabulary)), vocabulary)


def render(columns: Sequence[str], data: Mapping[str, Any]) -> Rendering:
    """Spell the named columns of ``data`` for ``write_csv``, ``write_json``
    and ``stream_csv``."""
    parts = [_render_column(data[c]) for c in columns]
    lengths = {len(p.codes) for p in parts}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return Rendering(list(columns), lengths.pop() if parts else 0, parts)


def _blocks(rendering: Rendering, fmt: int) -> Iterator[np.ndarray]:
    """The rows of ``rendering`` in format ``fmt``, ``BLOCK_ROWS`` at a time,
    as UTF-8 bytes (uint8 arrays)."""
    parts = rendering.parts
    if not parts:
        return
    prefix, sep, suffix = (np.frombuffer(s.encode(), np.uint8) for s in _LAYOUTS[fmt])
    leads = [prefix] + [sep] * (len(parts) - 1)
    width = sum(len(s) + p.vocabulary.shape[1] for s, p in zip(leads, parts)) + len(suffix)
    for lo in range(0, rendering.n_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, rendering.n_rows)
        block = np.empty((hi - lo, width), np.uint8)
        at = 0
        for lead, part in zip(leads, parts):
            block[:, at : at + len(lead)] = lead
            at += len(lead)
            rows = part.codes[lo:hi] if fmt == _CSV else part.json_rows[part.codes[lo:hi]]
            vocab = part.vocabulary
            block[:, at : at + vocab.shape[1]] = np.take(vocab, rows, axis=0)
            at += vocab.shape[1]
        block[:, at:] = suffix
        yield block[block != _PAD]


def _csv_header(schema: str, rendering: Rendering) -> str:
    return f"#schema={schema}\n{','.join(rendering.columns)}\n"


def stream_csv(fh: IO[str], schema: str, rendering: Rendering) -> None:
    """Write the CSV of ``rendering`` to an open text stream."""
    fh.write(_csv_header(schema, rendering))
    for block in _blocks(rendering, _CSV):
        fh.write(block.tobytes().decode("utf-8"))


def write_csv(path: str, schema: str, rendering: Rendering) -> None:
    with open(path, "wb") as fh:
        fh.write(_csv_header(schema, rendering).encode("utf-8"))
        for block in _blocks(rendering, _CSV):
            fh.write(block)


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _nan_to_none(x: Any) -> Any:
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nan_to_none(v) for v in x]
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def write_json(path: str, payload: dict, rendering: Rendering) -> None:
    """Write ``payload`` (JSON values; NaN is written as null) plus a ``rows``
    key holding the columns of ``rendering`` row by row."""
    skeleton = json.dumps(_nan_to_none({**payload, "rows": []}), indent=2, sort_keys=True)
    head, tail = skeleton.split(_ROWS_SLOT)
    with open(path, "wb") as fh:
        fh.write((head + _ROWS_SLOT[:-1]).encode("utf-8"))
        first = True
        for block in _blocks(rendering, _JSON):
            fh.write(block[1:] if first else block)  # the first row has no comma before it
            first = False
        fh.write((("]" if first else "\n  ]") + tail + "\n").encode("utf-8"))
