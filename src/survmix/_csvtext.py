"""CSV rows formatted a block at a time in numpy, byte for byte as `fmt % row`.

A block of rows becomes a byte matrix with one row per output byte position
("plane") and one column per table row. Each field of the format fills a few
planes, padded with NUL where a value's text is shorter than the field; each
literal of the format fills one plane per byte. One transpose and
`bytes.translate(None, b"\\0")` then give the block's text. The strip is the
fastest form measured: on the 132-plane x 20000-row block of a 20000-point
curves.csv (2.64 MB, 16% NUL), translate took 4.1 ms, `bytes.replace(b"\\0",
b"")` 8.7 ms and a numpy boolean mask 6.1 ms (Xeon, numpy 2.4).

numpy writes the "%.9g" and "%d" fields. Python's own `spec % value` writes,
and splices into its field, every value that the fast path cannot prove
equal (`_python_texts`), and every field of any other spec. A field text
that holds a NUL byte is refused with a ValueError: the padding would drop it.

"%.9g": for |x| in [1e-14, 1e30), s = |x| * 10^k with 10^k exact (|k| <= 22)
is one correctly rounded operation whose error is below 1.2e-7 for s < 1e9,
so rint(s) is the 9-digit mantissa whenever s is not within 1e-6 of a
half-integer. log10 proposes the exponent, and rint(s) must lie in
[1e8, 1e9] (1e9 carries into the exponent). The layout follows Python's %g:
fixed notation for exponents -4 <= X < 9, else "e" with a sign and at least
two digits; trailing zeros and a bare point are dropped. Zero is "0".
Everything else goes to Python: nan, inf, |x| outside [1e-14, 1e30), s near
a half-integer, rint(s) outside [1e8, 1e9].
"""

import functools
import re

import numpy as np

# a conversion spec of a %-format
_SPEC = re.compile(r"(%[^a-zA-Z]*[a-zA-Z])")

# |x| * 10^k = |x| * _UP[k + 22] / _DOWN[k + 22] for |k| <= 22, where one of
# the two is 1 and the other an exact power of ten
_UP = np.array([float(10**max(k, 0)) for k in range(-22, 23)])
_DOWN = np.array([float(10**max(-k, 0)) for k in range(-22, 23)])


@functools.cache
def _digit_tables():
    """The four ASCII digits of each v < 10^4 as one word, in text order, and
    the number of zeros that end them; built at the first write."""
    digits = (np.arange(10_000) // np.array([[1000], [100], [10], [1]]) % 10 + 48).astype(np.uint8)
    words = np.ascontiguousarray(digits.T).view(np.uint32).ravel()
    trailing = (digits[::-1] == 48).cumprod(axis=0, dtype=np.uint8).sum(axis=0, dtype=np.uint8)
    words.flags.writeable = trailing.flags.writeable = False
    return words, trailing


def compile_format(fmt):
    """The specs of a %-format and the UTF-8 literals around them: a list of
    literals one longer than the list of specs."""
    pieces = _SPEC.split(fmt)
    return pieces[1::2], [text.encode("utf-8") for text in pieces[0::2]]


def format_tables(tables, columns):
    """Yield the UTF-8 bytes of `"".join(fmt % row for row in zip(*rows))`
    for each (specs, literals, names) of `tables` in turn, where
    `compile_format` split fmt into specs and literals and `rows` are the
    equal-length `columns[name]` for name in names; a float column gets
    + 0.0 first (negative zero is written as 0).

    A column is formatted once for each spec it is written with, and its
    planes are filled into every table, and every field, that writes it. A
    field is dropped once the last table that writes it is filled, before
    that table's planes are joined into text.
    """
    n = len(next(iter(columns.values())))
    last = {}  # the last table that writes each (spec, name)
    for i, (specs, _, names) in enumerate(tables):
        last.update(dict.fromkeys(zip(specs, names), i))
    fields = {}
    for i, (specs, literals, names) in enumerate(tables):
        parts = [_literal(literals[0])]
        for key, literal in zip(zip(specs, names), literals[1:]):
            if key not in fields:
                fields[key] = _field(key[0], columns[key[1]])
            parts += [fields[key], _literal(literal)]
        planes = np.empty((sum(width for width, _ in parts), n), np.uint8)
        row = 0
        for width, fill in parts:
            fill(planes[row:row + width])
            row += width
        del parts
        for key in zip(specs, names):
            if last[key] == i:
                fields.pop(key, None)
        text = planes.T.tobytes()
        del planes
        text = text.translate(None, b"\0")
        yield text
        del text


def _literal(text):
    """(width, fill) of a literal: one plane per byte."""
    def fill(out):
        out[...] = np.frombuffer(text, np.uint8)[:, None]
    return len(text), fill


def _field(spec, column):
    """(width, fill) of one field of a block: `fill` writes the field's text,
    NUL-padded, into `width` planes."""
    column = np.asarray(column)
    kind = column.dtype.kind
    if spec == "%.9g" and column.dtype == np.float64:
        width, fill, slow = _general9(column.copy())
    elif spec == "%d" and kind in "biu":
        width, fill, slow = _decimal(column)
    else:
        width, fill, slow = 0, lambda out: None, np.arange(len(column))
    if not slow.size:
        return width, fill
    values = (column[slow] + 0.0 if kind == "f" else column[slow]).tolist()
    texts = _python_texts(spec, values)
    lengths = np.array([len(text) for text in texts])
    flat = np.frombuffer(b"".join(texts), np.uint8)
    if not flat.all():
        raise ValueError(f"a {spec} field holds a NUL byte")
    # byte i of the text of row r goes to plane i of column r, which the
    # fast path left NUL
    planes_at = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows_at = np.repeat(slow, lengths)

    def fill_and_splice(out):
        fill(out[:width])
        out[width:] = 0
        out[planes_at, rows_at] = flat
    return max(width, lengths.max()), fill_and_splice


def _python_texts(spec, values):
    """The UTF-8 texts of Python's `spec % value` for each of `values`."""
    return [(spec % (value,)).encode("utf-8") for value in values]


def _general9(x):
    """(width, fill, slow) of "%.9g" on float64 `x`, a fresh array: `fill`
    lays out every value but those at the indices `slow`, which the fast path
    cannot prove."""
    negative = x < 0
    a = np.abs(x, out=x)
    zero = a == 0
    fast = (a >= 1e-14) & (a < 1e30)
    a[~fast] = 1.0
    # k = 8 - X puts s = |x| * 10^k in [1e8, 1e9); X <= 29, so only k > 22
    # needs a clip
    k = np.floor(np.log10(a)).astype(np.intp)
    np.subtract(30, k, out=k)  # k + 22
    np.minimum(k, 44, out=k)
    s = a * _UP.take(k)
    s /= _DOWN.take(k)
    mantissa = np.rint(s)
    fast &= (mantissa >= 1e8) & (mantissa <= 1e9) & (np.abs(s - mantissa, out=s) < 0.5 - 1e-6)
    carry = np.flatnonzero(mantissa == 1e9)  # rounding carried into a tenth digit
    mantissa[carry] = 1e8
    k[carry] -= 1
    exponent = (30 - k).astype(np.int8)
    negative &= fast
    slow = ~fast & ~zero
    mantissa[~fast] = 0.0
    exponent[~fast] = 0  # zero is laid out as 0e0

    words, trailing_zeros = _digit_tables()
    m = mantissa.astype(np.uint32)
    high = m // np.uint32(10_000)
    low = (m - high * np.uint32(10_000)).astype(np.intp)
    first = high // np.uint32(10_000)
    middle = (high - first * np.uint32(10_000)).astype(np.intp)
    words = (words.take(middle).view(np.uint8), words.take(low).view(np.uint8))
    digits = [(first + 48).astype(np.uint8)] + [words[j // 4][j % 4::4] for j in range(8)]
    # the digits that stay once trailing zeros are dropped
    trailing = trailing_zeros.take(low)
    round_low = np.flatnonzero(low == 0)
    trailing[round_low] += trailing_zeros.take(middle[round_low])
    significant = (9 - trailing).view(np.int8)

    # fixed notation writes the integer part's zeros; "e" form does not
    integer = ~slow & (exponent >= 0) & (exponent <= 8)
    scientific = fast & ((exponent < -4) | (exponent >= 9))
    length = significant.copy()
    np.maximum(length, exponent + 1, out=length, where=integer)
    length[slow] = 0
    # the point follows digit `point` (-1: no point after a digit) when a digit follows it
    point = np.where(integer, exponent, np.int8(-1))
    point[scientific] = 0
    point[significant <= point + 1] = -1
    # fixed notation below 1 starts with "0." and zeros - 1 more zeros (none
    # where zeros <= 0)
    zeros = np.negative(exponent)
    zeros[scientific] = 0

    has_sign, has_exponent = negative.any(), scientific.any()
    most_zeros = int(zeros.max(initial=0))
    prefix = b"0.000"[:most_zeros + 1] if most_zeros else b""
    most_digits = int(length.max(initial=0))
    most_points = int(point.max(initial=-1)) + 1
    width = has_sign + len(prefix) + most_digits + most_points + 4 * has_exponent

    def fill(out):
        planes = iter(out)
        if has_sign:
            np.multiply(negative, np.uint8(45), out=next(planes))
        for i, byte in enumerate(prefix):
            np.multiply(zeros >= max(i, 1), np.uint8(byte), out=next(planes))
        for j in range(most_digits):
            np.multiply(digits[j], length > j, out=next(planes))
            if j < most_points:
                np.multiply(point == j, np.uint8(46), out=next(planes))
        if has_exponent:
            tens, units = np.divmod(np.abs(exponent), 10)
            np.multiply(scientific, np.uint8(101), out=next(planes))
            np.multiply(scientific, np.where(exponent < 0, np.uint8(45), np.uint8(43)),
                        out=next(planes))
            np.multiply(scientific, tens + 48, out=next(planes), casting="unsafe")
            np.multiply(scientific, units + 48, out=next(planes), casting="unsafe")
    return width, fill, np.flatnonzero(slow)


def _decimal(v):
    """(width, fill, slow) of "%d" on an integer or bool column; numpy
    writes every value."""
    negative = v < 0
    magnitude = v.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # |v|, even for -2^63
    table, _ = _digit_tables()
    words, rest = [], magnitude
    while True:  # four digits at a time, the last four first
        rest, group = np.divmod(rest, np.uint64(10_000))
        words.insert(0, table.take(group.astype(np.intp)).view(np.uint8))
        if not rest.any():
            break
    places = 4 * len(words)
    length = np.ones(len(v), np.int8)
    for power in range(1, places):
        length += magnitude >= 10**power
    has_sign = negative.any()
    most_digits = int(length.max(initial=1))

    def fill(out):
        planes = iter(out)
        if has_sign:
            np.multiply(negative, np.uint8(45), out=next(planes))
        for j in range(places - most_digits, places):
            np.multiply(words[j // 4][j % 4::4], length >= places - j, out=next(planes))
    return has_sign + most_digits, fill, np.empty(0, np.intp)
