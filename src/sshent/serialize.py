"""Deterministic CSV/JSON emission of column tables.

A table is a mapping from column name to a 1-D numpy array; every column
has one entry per row.  The writers emit the named columns in order, and a
column's dtype says how its values are written:

- float: the shortest round-trip form, byte for byte as ``float.__repr__``
  writes it (a float32 column as its float64 values).  NaN marks an absent
  value and is written as an empty CSV field or JSON ``null``.  The CSV
  writes -0.0 as 0.0; infinities are ``inf``/``-inf`` in the CSV and
  ``Infinity``/``-Infinity`` in the JSON.
- integer: decimal.
- bool: ``true``/``false``.
- anything else: strings, written as they are in the CSV and escaped as
  JSON strings in the JSON.

A column whose rows already index a few values can be given as ``Labels``:
those values (a list of strings, or an array written as above) and each
row's index into them, so only the values are sorted and spelled.

The CSV begins with a ``#schema=`` comment line followed by a header row, so
identical inputs give byte-identical files.  The JSON mirror carries the rows
plus run metadata (config digest, package and numpy versions), laid out as
``json.dump(payload, indent=2, sort_keys=True)`` lays it out.

``render`` spells a table once for both formats.  Each column becomes a
vocabulary of its distinct written values, each formatted one time, and one
compact code per row into it; a value the two formats spell differently
(-0.0, NaN, infinities, strings) has one vocabulary entry per format.  The
vocabulary is a byte matrix, one entry per row, padded with 0xFF, a byte
that UTF-8 text never holds.  Integers and bools are formatted by ``str``,
strings by ``json.dumps``.  The finite nonzero floats of all float columns
go through one numpy kernel together, ``FLOAT_CHUNK`` values at a time: it
finds each value's shortest round-trip decimal by Schubfach, with 128-bit
powers of ten built from Python ints for the exponents in use, and writes
the padded vocabulary rows in ``float.__repr__``'s layout directly, with no
Python string per value.

``write_csv``, ``write_json`` and ``stream_csv`` all read one rendering
``BLOCK_ROWS`` rows at a time: they gather a block's entries into one byte
matrix laid out row by row, drop the padding, and write the block before
gathering the next, so no file is held in memory whole.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import IO, Any, Iterator, Mapping, Sequence

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
    """A column as a few values and each row's index into them.  ``labels``
    is a list of strings, each written as it is, or an array, whose distinct
    values are written as its dtype says."""

    labels: Sequence[str] | np.ndarray
    codes: np.ndarray


def _kind(col: Any) -> str:
    """The dtype kind a column is written as; "U" for string labels."""
    if isinstance(col, Labels):
        return col.labels.dtype.kind if isinstance(col.labels, np.ndarray) else "U"
    return col.dtype.kind


def _factored(values_of, col: Any) -> tuple[Any, np.ndarray]:
    """``values_of`` of an array column; of a ``Labels`` column's values,
    with each row's index composed through its code."""
    if not isinstance(col, Labels):
        return values_of(col)
    values, codes = values_of(col.labels)
    return values, _index(codes.reshape(-1), len(values))[np.asarray(col.codes)]


@dataclass(frozen=True)
class Rendering:
    """The named columns of a table, spelled for both formats."""

    columns: list[str]
    n_rows: int
    parts: list[_Column]


def _float_values(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_values`` of a float column, taken as float64: its finite nonzero
    values first, sorted, then those of 0.0, -0.0, inf, -inf and NaN it
    holds, in that order (every NaN is one value).  Only the finite nonzero
    values are sorted: a NaN takes the sort off numpy's vectorized path."""
    col = col.astype(np.float64, copy=False)
    regular = np.isfinite(col) & (col != 0.0)
    if regular.all():
        values, codes = np.unique(col, return_inverse=True)
        return values, codes.reshape(-1)
    values, inverse = np.unique(col[regular], return_inverse=True)
    codes = np.empty(col.size, np.intp)
    codes[regular] = inverse.reshape(-1)
    zero, negative = col == 0.0, np.signbit(col)
    fixed = []
    for value, hit in zip((0.0, -0.0, math.inf, -math.inf, math.nan),
                          (zero & ~negative, zero & negative, col == math.inf, col == -math.inf,
                           np.isnan(col))):
        if hit.any():
            codes[hit] = len(values) + len(fixed)
            fixed.append(value)
    return np.append(values, fixed), codes


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


def _padded(tokens: list[str]) -> np.ndarray:
    """``tokens`` as UTF-8, one row of a uint8 matrix each, padded with _PAD."""
    raw = [t.encode("utf-8") for t in tokens]
    lengths = np.fromiter(map(len, raw), np.intp, len(raw))
    width = max(int(lengths.max(initial=0)), 1)
    matrix = np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)
    matrix[np.arange(width) >= lengths[:, None]] = _PAD
    return matrix


# Floats: the shortest decimal that reads back as the same double, nearest to
# it among the shortest, laid out as float.__repr__ lays it out; found for
# whole arrays by Schubfach (R. Giulietti, "The Schubfach way to render
# doubles", 2020).  The kernel works in int64, every value below 2^62, but for
# the products of _round_to_odd: there uint64 arrays meet only uint64 arrays
# and non-negative Python ints (beside int64 numpy would make them float64).
FLOAT_CHUNK = 2048
_M32 = 2**32 - 1
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# g = floor(10^e 2^-r) + 1 in [2^127, 2^128) for e = row - 292 in [-292, 324],
# as four 32-bit limbs, least significant first; a row is filled when a value
# first needs it
_G = np.zeros((4, 617), np.uint64)
_G_READY = np.zeros(617, bool)
# a token's class: its sign, digit count n (1 to 17) and one of 24 slots, 20
# for the decimal point of the fixed form (-3 to 16) and 4 exponent forms (the
# exponent's sign, 2 or 3 digits).  _spell's source rows: digit i at row i + 1,
# the exponent's last three digits at rows 24 to 26, then _CONSTANT_BYTES.
_SLOTS, _WIDTH = 24, 24
# the CSV and JSON spellings of the other floats, by float.hex
_FIXED = {"0x0.0p+0": ("0.0", "0.0"), "-0x0.0p+0": ("0.0", "-0.0"), "inf": ("inf", "Infinity"),
          "-inf": ("-inf", "-Infinity"), "nan": ("", "null")}
_CONSTANT_BYTES = b"0.e-+\xff"
_ZERO, _DOT, _E, _MINUS, _PLUS, _PAD_ROW = range(27, 33)


def _pow10_limbs(rows: np.ndarray) -> np.ndarray:
    """The ``(4, N)`` limbs of g for table rows ``rows``."""
    if not _G_READY[rows].all():
        for row in set(rows[~_G_READY[rows]].tolist()):
            p = 10 ** abs(row - 292)
            g = (p << 128 >> p.bit_length() if row >= 292 else (1 << 127 + p.bit_length()) // p) + 1
            _G[:, row] = [g >> shift & 0xFFFFFFFF for shift in (0, 32, 64, 96)]
            _G_READY[row] = True
    return _G[:, rows]


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Bits 128 to 191 of g·cp (cp < 2^60), the lowest set where bits 64 to
    127 exceed 1, that is where g·cp / 2^128 is not an integer."""
    c0, c1 = cp & _M32, cp >> 32
    # the sum at each 32-bit place: halves of the g_i·c0, the g_i·c1 < 2^60 whole
    a0, a1, a2, a3 = (g_i * c0 for g_i in g)
    acc = (a0 >> 32) + (a1 & _M32) + g[0] * c1
    acc = (acc >> 32) + (a1 >> 32) + (a2 & _M32) + g[1] * c1
    fraction = acc & _M32
    acc = (acc >> 32) + (a2 >> 32) + (a3 & _M32) + g[2] * c1
    fraction = (fraction | acc << 32).view(np.int64)
    acc = (acc >> 32) + (a3 >> 32) + g[3] * c1
    return acc | ((fraction != 0) & (fraction != 1))


def _decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip decimal of each finite nonzero double of ``x``:
    its digits d without trailing zeros, the decimal point p (|x| reads back
    from 0.d·10^p) and the token class."""
    bits = x.view(np.uint64)
    fraction = (bits & 2**52 - 1).view(np.int64)
    biased = (bits >> 52 & 0x7FF).view(np.int64)
    c = np.where(biased > 0, fraction + 2**52, fraction)
    q = np.maximum(biased, 1) - 1075  # |x| = c·2^q
    closer = (fraction == 0) & (biased > 1)  # the next double down is nearer
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10 2^q), or of 2^q·3/4
    h = q + ((-k * 1741647) >> 19) + 1  # q + floor(log2 10^-k) + 1, in [1, 4]
    cb = c << 2
    cp = np.stack([cb - 2 + closer, cb, cb + 2]) << h
    # the interval that reads back as x, and x, four times in units of 10^k
    vbl, vb, vbr = _round_to_odd(_pow10_limbs(292 - k), cp.view(np.uint64)).view(np.int64)
    lower, upper = vbl + (c & 1), vbr - (c & 1)
    s = vb >> 2
    # one digit fewer: the interval, narrower than 10^(k + 1), holds at most
    # one of the multiples of 10 around s
    sp = s // 10
    up, wp = lower <= sp * 40, sp * 40 + 40 <= upper
    fewer = (s >= 10) & (up != wp)
    u, w = lower <= s << 2, (s << 2) + 4 <= upper
    # where both s and s + 1 read back, the nearer, ties to even
    mid = (s << 2) + 2
    w = np.where(u != w, w, (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    d, point = np.where(fewer, sp + wp, s + w), k + fewer
    zeros = np.flatnonzero(d // 10 * 10 == d)  # strip trailing zeros
    if zeros.size:
        z, shift = d[zeros], point[zeros]
        for j in (16, 8, 4, 2, 1):
            quotient = z // _POW10[j]
            hit = quotient * _POW10[j] == z
            z, shift = np.where(hit, quotient, z), shift + hit * j
        d[zeros], point[zeros] = z, shift
    n = np.searchsorted(_POW10, d, "right")
    point += n
    # repr's exponent form: point <= -4 or point > 16, two exponent digits or three
    slot = np.where((point > -4) & (point <= 16), point + 3,
                    20 + 2 * (point < 1) + (np.abs(point - 1) >= 100))
    return d, point, ((np.signbit(x) * 17 + n - 1) * _SLOTS + slot).astype(np.int16)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each token class, the ``_spell`` source row of each byte of its
    token, the token's length, and 10^(17 - n)."""
    token = np.arange(2 * 17 * _SLOTS)[:, None]
    negative, n, slot = token // (17 * _SLOTS), token // _SLOTS % 17 + 1, token % _SLOTS
    at = np.arange(_WIDTH) - negative  # the place after the sign
    # fixed form: the whole part (at least "0"), ".", the fraction (at least "0")
    point = slot - 3
    whole = np.maximum(point, 1)
    i = point - whole + at - (at > whole)  # the digit at this place
    fixed = np.where(at == whole, _DOT, np.where((i >= 0) & (i < n), i + 1, _ZERO))
    # exponent form: d[.ddd]e-XX
    e_at, wide = np.where(n > 1, n + 1, 1), (slot - 20) % 2
    exp = np.where(at == e_at + 1, np.where(slot >= 22, _MINUS, _PLUS), 23 - wide + at - e_at)
    exp = np.where(at == e_at, _E, exp)
    exp = np.where(at < e_at, np.where(at == 0, 1, np.where(at == 1, _DOT, at)), exp)
    length = np.where(slot >= 20, e_at + 4 + wide, whole + 1 + np.maximum(n - point, 1))
    rows = np.where(at >= length, _PAD_ROW, np.where(slot >= 20, exp, fixed))
    layout = np.where(at < 0, _MINUS, rows).astype(np.int8)
    return layout, (length + negative).ravel(), _POW10[17 - n.ravel()]


def _spell(d: np.ndarray, point: np.ndarray, token: np.ndarray, out: np.ndarray) -> None:
    """Write the tokens of ``_decimals`` into the rows of ``out``, padded with
    _PAD."""
    size, token, point = len(d), token.astype(np.intp), point.astype(np.intp)
    layout, _, scale = _layouts()
    source = np.empty((33, size), np.uint8)
    # d·10^(17 - n) has 17 digits: two 9-digit numbers, the first led by 0,
    # then the exponent |point - 1|
    full = d * scale[token]
    high = full // 10**9
    numbers = np.stack([high, full - high * 10**9, np.abs(point - 1)])
    before = np.zeros_like(numbers)
    for i in range(9):
        places = numbers // 10 ** (8 - i)
        np.subtract(places, before * 10, out=before)
        np.add(before, 48, out=source[i : 27 : 9], casting="unsafe")
        before = places
    source[27:] = np.frombuffer(_CONSTANT_BYTES, np.uint8)[:, None]
    index = layout[token, : out.shape[1]].astype(np.intp)
    index *= size
    index += np.arange(size)[:, None]
    np.take(source.ravel(), index, out=out)


def _render_floats(cols: list[np.ndarray]) -> list[_Column]:
    """``_render_column`` of every float column of a rendering.  ``_decimals``
    takes their finite nonzero values together, FLOAT_CHUNK at a time; then
    ``_spell`` writes each column's vocabulary, as wide as its widest token,
    FLOAT_CHUNK rows at a time."""
    regular, factored = [], []
    for col in cols:
        values, codes = _factored(_float_values, col)
        k = int(np.count_nonzero(np.isfinite(values) & (values != 0.0)))
        regular.append(values[:k])
        factored.append((k, values[k:].tolist(), _index(codes, len(values))))
    stream = np.concatenate(regular or [np.zeros(0)])
    del regular
    decimals = [np.empty(len(stream), t) for t in (np.int64, np.int16, np.int16)]
    for lo in range(0, len(stream), FLOAT_CHUNK):
        for column, part in zip(decimals, _decimals(stream[lo : lo + FLOAT_CHUNK])):
            column[lo : lo + FLOAT_CHUNK] = part
    del stream
    parts, start = [], 0
    for k, fixed, codes in factored:
        # vocabulary rows: the finite nonzero values, the CSV and then the
        # JSON spellings of the fixed values
        spellings = [_FIXED[v.hex()] for v in fixed]
        tail = _padded([csv for csv, _ in spellings] + [js for _, js in spellings])
        lengths = _layouts()[1][decimals[2][start : start + k].astype(np.intp)]
        width = max(lengths.max(initial=1), tail.shape[1])
        vocabulary = np.full((k + len(tail), width), _PAD, np.uint8)
        vocabulary[k:, : tail.shape[1]] = tail
        for lo in range(0, k, FLOAT_CHUNK):
            hi = min(k, lo + FLOAT_CHUNK)
            _spell(*(column[start + lo : start + hi] for column in decimals), vocabulary[lo:hi])
        json_rows = np.concatenate([np.arange(k), k + len(fixed) + np.arange(len(fixed))])
        parts.append(_Column(codes, _index(json_rows, len(vocabulary)), vocabulary))
        start += k
    return parts


def _index(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` in the smallest unsigned type that holds indices below ``size``."""
    return a.astype(np.min_scalar_type(max(size - 1, 0)), copy=False)


def _render_column(col: Any) -> _Column:
    """A column's vocabulary: the CSV spelling of every value, then the JSON
    spellings that differ from it."""
    kind = _kind(col)
    if kind == "U" and isinstance(col, Labels):
        values, codes = list(col.labels), np.asarray(col.codes)
    else:
        values, codes = _factored(_values, col)
    json_tokens = [] if kind in "iub" else list(map(json.dumps, values))
    if kind in "iu":
        values = list(map(str, values.tolist()))
    elif kind == "b":
        values = ["true" if v else "false" for v in values.tolist()]
    vocabulary = _padded(values + json_tokens)
    json_rows = np.arange(len(values)) + (len(values) if json_tokens else 0)
    return _Column(_index(codes, len(values)), _index(json_rows, len(vocabulary)), vocabulary)


def render(columns: Sequence[str], data: Mapping[str, Any]) -> Rendering:
    """Spell the named columns of ``data`` for ``write_csv``, ``write_json``
    and ``stream_csv``."""
    cols = [data[c] if isinstance(data[c], Labels) else np.asarray(data[c]) for c in columns]
    is_float = [_kind(col) == "f" for col in cols]
    floats = iter(_render_floats([col for col, f in zip(cols, is_float) if f]))
    parts = [next(floats) if f else _render_column(col) for col, f in zip(cols, is_float)]
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
