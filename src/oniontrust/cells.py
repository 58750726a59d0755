"""CSV bytes for fileio's writers: cells as byte matrices, and the writer.

A column of cells is a (rows, width) uint8 matrix of each cell's bytes,
padded with NUL; write_csv joins a block of columns with comma and newline
columns and drops the pad. Cells follow fmt's rule. Text and integer cells
come from str; float cells are float.__repr__'s text, and the floats in
[1e-4, 1) get it from an exact shortest-digit kernel over whole columns
(Steele & White's interval, read at a decimal scale in uint64 limbs).

fileio's writers import this module when they run, not at import: its
code, and the numpy loops it runs, then load once a command writes, after
its peak memory.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

# The shortest-digit arithmetic stays in uint64, every operand uint64:
# under numpy 1.x value-based casting, uint64 meeting int64 goes to float64.
_U1, _U32, _U52, _U64 = (np.uint64(k) for k in (1, 32, 52, 64))
_TEN = np.uint64(10)
_LOW32 = np.uint64((1 << 32) - 1)
_FRACTION_BITS = np.uint64((1 << 52) - 1)
_HIDDEN_BIT = np.uint64(1 << 52)
_EXPONENT_BIAS = np.uint64(1075)  # x = M * 2**(biased exponent - 1075)

#: _SCALE[e] = floor(e * log10(2)) + 1 = F, the digits of 2**e: the fewest
#: decimals whose step 10**-F is finer than the float step 2**-e. A value
#: in [1e-4, 1) has e from 53 to 66, so F from 16 to 20.
_SCALE = np.array([len(str(1 << e)) for e in range(67)], dtype=np.uint64)
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)


def _digit_quads() -> np.ndarray:
    """The four digits of each k < 10**4 as one uint32 of ASCII bytes."""
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[..., 0] = pairs[:, None]
    quads[..., 1] = pairs
    return quads.view(np.uint32).ravel()


def _cell_masks() -> Tuple[np.ndarray, np.ndarray]:
    """(keep, mark) per digit count D, three uint64 words each: over 24
    right-aligned digit bytes, keep holds the last D digits and mark puts
    '0.' before them."""
    keep = np.zeros((21, 24), dtype=np.uint8)
    mark = np.zeros((21, 24), dtype=np.uint8)
    for d in range(21):
        keep[d, 24 - d :] = 0xFF
        mark[d, 22 - d : 24 - d] = (ord("0"), ord("."))
    return keep.view(np.uint64), mark.view(np.uint64)


_DIGIT_QUADS = _digit_quads()
_KEEP, _MARK = _cell_masks()

#: A value _fraction_cells formats, standing in for rows it must not see.
_STAND_IN = np.float64(0.5625).view(np.uint64)


def text_cells(cells: Sequence[str]) -> np.ndarray:
    """(rows, width) uint8 matrix of the cells' UTF-8 bytes, NUL padded."""
    raw = np.array([cell.encode() for cell in cells], dtype=bytes)
    return raw.view(np.uint8).reshape(len(raw), raw.dtype.itemsize)


def int_cells(values: np.ndarray) -> np.ndarray:
    """Cells of integers: the str of each distinct value, gathered."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.take(text_cells(list(map(str, distinct.tolist()))), index, axis=0)


def _scaled_floor(hi: np.ndarray, lo: np.ndarray, s: np.ndarray) -> np.ndarray:
    """floor((hi * 2**64 + lo) / 2**s) for 0 < s < 64 and a quotient < 2**64."""
    return (hi << (_U64 - s)) | (lo >> s)


def _scaled_interval(bits: np.ndarray):
    """(a, b, c, lo, s, f) for the bit patterns of x = M * 2**E in
    [1e-4, 1): F = f = _SCALE[-E], P = 5**F, s = 1 - E - F, and lo the low
    limb of A = 2M * P; a, b and c are the floors of (A - P), (A + P) and A
    over 2**s, the rounding interval and x read at scale 10**F."""
    m = ((bits & _FRACTION_BITS) | _HIDDEN_BIT) << _U1
    e = _EXPONENT_BIAS - (bits >> _U52)
    f = _SCALE[e]
    s = e + _U1 - f
    p = _POW5[f]
    # A = m * p in 32-bit halves: m < 2**54 and p < 2**47, so the middle
    # products sum below 2**55.
    m0, m1, p0, p1 = m & _LOW32, m >> _U32, p & _LOW32, p >> _U32
    mid = m1 * p0 + m0 * p1
    lo0 = m0 * p0
    lo = lo0 + (mid << _U32)
    hi = m1 * p1 + (mid >> _U32) + (lo < lo0).astype(np.uint64)
    below, above = lo - p, lo + p
    a = _scaled_floor(hi - (lo < p).astype(np.uint64), below, s)
    b = _scaled_floor(hi + (above < lo).astype(np.uint64), above, s)
    return a, b, _scaled_floor(hi, lo, s), lo, s, f


def _stripped_digits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """j per row: the most trailing digits that a multiple of 10**j in
    (a, b] lets go. a and b are floored by 10 in place as the rows still
    stripping are narrowed."""
    j = np.zeros(len(a), dtype=np.intp)
    rows = np.arange(len(a))
    for _ in range(17):  # b < 10**17, so no more digits can go
        a //= _TEN
        b //= _TEN
        more = b > a
        rows, a, b = rows[more], a[more], b[more]
        if not len(rows):
            break
        j[rows] += 1
    return j


def _fraction_cells(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cells, tie) for the float64 bit patterns of values x in [1e-4, 1)
    whose significand is not a power of two; cells is (rows, 24) uint8.

    x = M * 2**E has the rounding interval (2M -/+ 1) * 2**(E-1), which
    read at scale 10**F is (2M -/+ 1) * P / 2**s (_scaled_interval).
    (2M -/+ 1) * P is odd, so no end is an integer and the interval holds
    the integer k exactly when a < k <= b. j counts the trailing zeros of
    the shortest decimal: while a multiple of 10**(j+1) lies in the
    interval, one more digit goes. There is one multiple of 10**j in it
    for j >= 1, which c rounded to 10**j finds; for j = 0 it is the
    integer nearest A / 2**s, and a tie there is left to the caller. The
    cell is '0.' and that digit string, zero padded to F - j digits, which
    is float.__repr__'s text.
    """
    a, b, c, lo, s, f = _scaled_interval(bits)
    j = _stripped_digits(a, b)
    del a, b
    ten = _POW10[j]
    half = _U1 << (s - _U1)
    rest = lo & ((_U1 << s) - _U1)
    first = j == 0
    digits = (c + ten // np.uint64(2)) // ten + (first & (rest > half)).astype(np.uint64)
    tie = first & (rest == half)
    del c, lo, s, ten, half, rest, first

    # The digits right-aligned in the last 20 of 24 bytes, four at a time
    # (digits < 10**17 fits int64, which indexes without a cast), cut to
    # the cell's F - j digits, with '0.' put before them.
    quads = np.empty((len(bits), 6), dtype=np.uint32)
    digits = digits.view(np.int64)
    for column in range(5, 0, -1):
        higher = digits // 10**4
        quads[:, column] = _DIGIT_QUADS[digits - higher * 10**4]
        digits = higher
    count = f.astype(np.intp) - j
    words = quads.view(np.uint64)
    words &= np.take(_KEEP, count, axis=0)
    words |= np.take(_MARK, count, axis=0)
    return words.view(np.uint8), tie


def float_cells(values: np.ndarray) -> np.ndarray:
    """Cells of float64 values as a (rows, 24) uint8 matrix, NUL padded:
    float.__repr__ of each, and NaN an empty cell.

    Values in [1e-4, 1) whose significand is not a power of two are
    formatted by _fraction_cells, exactly and at once. Every other value,
    and a j = 0 tie, goes through float.__repr__; no repr is longer than 24
    bytes. They are few in a score column (1.0 and powers of two), and a
    sort to find the distinct ones would load numpy's sort code into small
    writes for nothing.
    """
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    exact = (values >= 1e-4) & (values < 1.0) & ((bits & _FRACTION_BITS) != 0)
    cells, tie = _fraction_cells(np.where(exact, bits, _STAND_IN))
    other = ~exact | tie
    if other.any():
        shown = other & ~np.isnan(values)
        text = text_cells(list(map(float.__repr__, values[shown].tolist())))
        cells[other] = 0
        cells[shown, : text.shape[1]] = text
    return cells


def fmt(value) -> str:
    """One CSV cell: None -> empty, float -> shortest repr, else str.

    float.__repr__ also prints numpy floats (a float subclass) as plain
    numbers, where numpy's own repr would write np.float64(0.1).
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def record_columns(rows: Iterable[Sequence]) -> List[np.ndarray]:
    """Row tuples as one cell matrix per column, each cell by fmt; no rows
    gives no columns.

    These are the small tables (a row per round, CDF point or sweep
    value), and fmt's text costs about a millisecond per thousand rows.
    The float kernel would load its numpy code at the end of a simulate or
    sweep, where the process can sit at its peak memory: that raised
    their peak RSS by 0.07-0.23 MB.
    """
    return [text_cells(list(map(fmt, column))) for column in zip(*rows)]


def write_csv(path, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]):
    """Write the header, then each block of cell matrices as rows.

    A block is a sequence of columns, each a (rows, width) uint8 matrix of
    its cells' bytes padded with NUL. The columns are joined with comma and
    newline columns in one concatenate, and the pad bytes dropped, so a
    block is one write; no cell holds a NUL. Blocks are written as they
    come, so a caller can stream a large table without holding all of it
    at once.
    """
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for columns in blocks:
            if columns and len(columns[0]):
                rows = len(columns[0])
                comma = np.full((rows, 1), ord(","), dtype=np.uint8)
                pieces = [comma] * (2 * len(columns))
                pieces[::2] = columns
                pieces[-1] = np.full((rows, 1), ord("\n"), dtype=np.uint8)
                flat = np.concatenate(pieces, axis=1).ravel()
                handle.write(flat[flat != 0])
                # Free this block's bytes before the next block is made.
                del columns, pieces, flat
