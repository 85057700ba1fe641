"""CSV text of float blocks, byte for byte what ``'%.17g' % x`` prints per cell.

``%.17g`` in CPython costs about a microsecond a cell: 17 digits push its
float-to-decimal conversion onto the big-integer path.  This module prints
most cells with integer arithmetic on whole arrays instead, and hands every
cell it cannot print exactly to ``%`` itself (print fast with integers, fall
back when unsure; Loitsch, PLDI 2010).

Fast path.  A finite cell with 1e-4 <= |x| < 1e16 has e = floor(log10|x|) in
[-4, 15], where ``%g`` uses fixed notation and 10^(16-e) <= 10^20 is an exact
double.  Dekker's two-product gives |x| * 10^(16-e) exactly as hi + lo with
hi >= 1e16 > 2^53 an even integer, so the 17 significant digits are the
integer d = hi + rint(lo), an exact tie rounded half to even as ``%``'s
correctly rounded conversion rounds it.  d' = d + 9 int(|x|) 10^(16-e) puts a
'0' digit between the integer part and the fraction (for e < 0, int(|x|) = 0
and d' = d).  Lookup tables turn groups of d' into ASCII already shifted to
their bytes of the cell's 24-byte slot, and one subtraction of a row chosen
by (sign, e, last non-zero digit of d') turns that '0' into the point, cuts
the fraction's trailing zeros and writes the sign and the "0.000" of a
number below 1.

Fallback.  ``%`` formats every other cell: +-0, subnormals, |x| < 1e-4 or
>= 1e16, nan and +-inf, and any d outside [10^16, 10^17) (log10 off by one
next to a power of ten, or a round-up to the next power of ten).  Its text
with the ',' can take 25 bytes, one more than a slot; a pass that holds such
a cell gives every slot of that column a fourth word.

Text printed once.  A column that repeats its text (a time per node, the
particle index at every node, one control per node) is printed once by
``format_once``, through ``format_rows`` itself, and ``format_rows`` copies
its words into each block instead of printing it again.  Every pass still
rewrites every byte of the block.

One separator rule and one NUL cut.  Every printed slot and every copied text
ends with ','; ``format_rows`` writes '\\n' over the last byte of each line.
Dropped bytes are NUL, and ``bytes.translate`` cuts them from each block.
"""

from __future__ import annotations

import functools
import numbers
from typing import Iterator

import numpy as np

# Rows formatted per pass; memory grows with the block, not the file.  By rows
# per pass, the 16.8 MB paths.csv of 2000 particles x 101 nodes took 0.20 s at
# 512, 0.18 s at 1024 and 0.15-0.16 s from 2048 to 8192, and a 201 x 590-layer
# value surface 0.09-0.10 s at 512, 0.06 s at 2048, 0.05 s at 4096 and 0.04 s
# at 8192 (medians of 9 in-process writes, 2 vCPUs).  4096 rows hold one such
# node, or 20 such layers, in one pass.
_BLOCK_ROWS = 4096

_E_MIN, _E_MAX = -4, 15
_N_E = _E_MAX - _E_MIN + 1
_DIGITS = 18  # d with a '0' digit put in where the point goes

# A fast-path cell fills a 24-byte slot, three little-endian uint64 words:
# digit k of d' (k = 0..17) at byte 5 + k, the ',' that ends every cell at
# byte 23, and 0xFF in bytes 0-4 for the sign, the "0.000" of a number below
# 1, or NUL.  The longest fast-path text, "-0.00012345678901234567,", fills all
# 24 bytes, so only the NULs of shorter texts reach the cut.
_SLOT = 24
_WORDS = _SLOT // 8
_WIDE = 4  # words of the widest slot: "-2.2250738585072014e-308," has 25 bytes
_WORD = np.dtype("<u8")

_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def _veltkamp(a):
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


# Indexed by j = e - _E_MIN + 1, with a row on either side that no fast
# cell uses: 10^s (s = 16 - e) and its halves, and 9 10^s as an integer for
# e >= 0.  The outer rows hold 0, so d = 0 sends a cell to the fallback.
_POW10 = np.array([0.0] + [10.0 ** (16 - e) for e in range(_E_MIN, _E_MAX + 1)] + [0.0])
_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)
_POW10_NINE = np.array([0] + [9 * 10 ** (16 - e) if e >= 0 else 0 for e in range(_E_MIN, _E_MAX + 1)] + [0])


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def _digit_tables():
    """Lookup tables of the digit groups of d', built on first use.

    d' splits into the words of the slot: A (digits 0-2), B (digits 3-10,
    two groups of four) and C (digits 11-17, three and four).  Each table
    maps a group to its ASCII digits already shifted to their bytes, and to
    the position of its last non-zero digit in d' less ``_DIGITS`` (-1 -
    ``_DIGITS`` for a zero group), so that ``_DIGITS`` j plus the maximum
    over the groups is the row of the cell's layout.
    """
    digits = np.indices((10,) * 4).reshape(4, -1)  # of 0000..9999
    text = np.zeros(10**4, np.uint64)
    for k, digit in enumerate(digits):  # digit k at byte k
        text |= (digit + ord("0")).astype(np.uint64) << np.uint64(8 * k)
    last = np.select([digit != 0 for digit in digits[::-1]], [3, 2, 1, 0], -1)

    def position(first, width):  # of the last non-zero digit of a group starting at digit `first`
        return (np.where(last >= 0, first + last - (4 - width), -1) - _DIGITS).astype(np.int8)

    eight = np.uint64(8)
    words = (
        (text[:1000] >> eight) << np.uint64(40) | np.uint64(0xFF_FFFF_FFFF),  # A: bytes 5-7 after the 0xFF bytes
        text,  # B's first group: bytes 8-11
        text << np.uint64(32),  # B's second group: bytes 12-15
        text[:1000] >> eight,  # C's three digits: bytes 16-18
        text << np.uint64(24) | np.uint64(ord(",")) << np.uint64(56),  # C's four digits and the ','
    )
    significant = (position(0, 3)[:1000], position(3, 4), position(7, 4), position(11, 3)[:1000], position(14, 4))
    return tuple(map(_read_only, words)), tuple(map(_read_only, significant))


@functools.cache
def _layout_masks():
    """Subtrahends of the three slot words, indexed by (negative, e - _E_MIN,
    last non-zero digit of d'), built on first use.

    The slot minus its row is the cell's text: 0 keeps a digit, 0x30 takes a
    '0' digit to NUL, 2 takes the '0' digit at the point to '.', and 0xFF - c
    takes a 0xFF byte to the character c (NUL, the sign or the "0.000").  No
    byte borrows from the next, so one 64-bit subtraction does every byte.
    """
    e, last, pos = np.ix_(range(_E_MIN, _E_MAX + 1), range(_DIGITS), range(_SLOT))
    k = pos - 5  # the digit of d' at this byte, for bytes 5-22
    point = pos == 6 + e
    integer = (k >= 0) & ((k <= e) | ((k == 0) & (e < -1)))  # e < -1: the padding '0' prints
    fraction = (k > np.maximum(e + 1, 0)) & (k <= last)
    rows = np.where(integer | fraction, 0, 0x30)
    rows = np.where(point & (k >= 0) & (last > k), 2, rows)
    prefix = np.where(pos >= 5 + e, 0xFF - np.where(point, ord("."), ord("0")), 0xFF)
    rows = np.where(pos < 5, prefix, rows)
    rows = np.repeat(rows[None].astype(np.uint8), 2, axis=0)
    rows[1, :, :, 0] = 0xFF - ord("-")
    rows[..., -1] = 0
    return _read_only(np.ascontiguousarray(rows.reshape(-1, _SLOT).view(_WORD).T))


_NEGATIVE = _N_E * _DIGITS


def _cast(a, out):
    """``a`` cast to the dtype of ``out``, into ``out``."""
    np.copyto(out, a, casting="unsafe")
    return out


class _Work:
    """Scratch arrays for a pass of ``n`` cells, reused from pass to pass."""

    def __init__(self, n):
        self.floats = tuple(np.empty(n) for _ in range(7))
        self.ints = tuple(np.empty(n, np.int64) for _ in range(7))
        self.words = tuple(np.empty(n, _WORD) for _ in range(2))
        self.small = tuple(np.empty(n, np.int8) for _ in range(2))
        self.flag = np.empty(n, bool)
        self.slots = np.empty(n * _WIDE, _WORD)


def _fill(x, work):
    """Write the slots of the cells ``x`` into ``work.slots``; return the
    indices of fallback cells."""
    f0, f1, f2, f3, f4, f5, f6 = work.floats
    i0, i1, i2, i3, i4, i5, i6 = work.ints
    u0, u1 = work.words
    s0, s1 = work.small
    slots = work.slots[:x.size * _WORDS].reshape(x.size, _WORDS)
    with np.errstate(all="ignore"):  # fallback lanes carry inf, nan and wrapped integers
        ax = np.abs(x, out=f0)
        # the cast truncates log10|x| + 1 - _E_MIN, positive in the fast
        # range, to j; an e one off next to a power of ten leaves d outside
        # [10^16, 10^17)
        j = np.add(np.log10(ax, out=f1), 1 - _E_MIN, out=i0, casting="unsafe")
        hi = np.multiply(ax, _POW10.take(j, mode="clip", out=f1), out=f1)
        bh = _POW10_HIGH.take(j, mode="clip", out=f2)
        bl = _POW10_LOW.take(j, mode="clip", out=f3)
        ah = np.multiply(ax, _VELTKAMP, out=f4)  # Veltkamp's split of ax
        np.subtract(ah, np.subtract(ah, ax, out=f5), out=ah)
        al = np.subtract(ax, ah, out=f5)
        lo = np.multiply(ah, bh, out=f6)
        lo -= hi
        lo += np.multiply(ah, bl, out=ah)
        lo += np.multiply(al, bh, out=bh)
        lo += np.multiply(al, bl, out=bl)
        d = _cast(hi, i1)
        d += _cast(np.rint(lo, out=lo), i2)
        # every fast cell with e >= 0 has d = int(|x|) 10^s + a rest below
        # 10^s: a double below an integer N > 1 lies at least 2^-53 N below it,
        # farther than the half unit of d that would carry into N
        dp = _cast(ax, i2)
    slow = np.flatnonzero(np.greater_equal(np.subtract(d, 10**16, out=i3).view(_WORD), 9 * 10**16, out=work.flag))
    dp *= _POW10_NINE.take(j, mode="clip", out=i3)
    dp += d

    (a_text, b1_text, b2_text, c1_text, c2_text), significant = _digit_tables()
    t = np.floor_divide(dp, 10**7, out=i1)
    c2 = np.subtract(dp, np.multiply(t, 10**7, out=i4), out=i3)
    a = np.floor_divide(t, 10**8, out=i2)
    b2 = np.subtract(t, np.multiply(a, 10**8, out=i4), out=i1)
    b1 = np.floor_divide(b2, 10**4, out=i5)
    b2 -= np.multiply(b1, 10**4, out=i4)
    c1 = np.floor_divide(c2, 10**4, out=i6)
    c2 -= np.multiply(c1, 10**4, out=i4)
    last = significant[0].take(a, mode="clip", out=s0)
    for table, g in zip(significant[1:], (b1, b2, c1, c2)):
        np.maximum(last, table.take(g, mode="clip", out=s1), out=last)

    idx = np.multiply(j, _DIGITS, out=i0)
    idx += last
    idx += np.multiply(np.signbit(x, out=work.flag), _NEGATIVE, out=i4)
    masks = _layout_masks()
    np.subtract(a_text.take(a, mode="clip", out=u0), masks[0].take(idx, mode="clip", out=u1), out=slots[:, 0])
    word = np.bitwise_or(b1_text.take(b1, mode="clip", out=u0), b2_text.take(b2, mode="clip", out=u1), out=u0)
    np.subtract(word, masks[1].take(idx, mode="clip", out=u1), out=slots[:, 1])
    word = np.bitwise_or(c1_text.take(c1, mode="clip", out=u0), c2_text.take(c2, mode="clip", out=u1), out=u0)
    np.subtract(word, masks[2].take(idx, mode="clip", out=u1), out=slots[:, 2])
    return slow


def _print(x, work):
    """The slots of the cells ``x``, a view into ``work.slots``: ``_fill``'s
    slots, with ``%`` printing the fallback cells into theirs.

    A fallback text with its ',' can need 25 bytes
    ("-2.2250738585072014e-308,"); a pass that holds one gives every slot
    the whole words its longest text needs, the fast-path text in the last
    three.  Every byte of the returned slots is rewritten.
    """
    n = x.size
    slow = _fill(x, work)
    slots = work.slots[:n * _WORDS].reshape(n, _WORDS)
    if not slow.size:
        return slots
    text = [("%.17g," % v).encode() for v in x[slow].tolist()]
    width = max(_WORDS, -(-max(map(len, text)) // 8))
    if width > _WORDS:
        fast = slots.copy()  # the wide slots overlap these
        slots = work.slots[:n * width].reshape(n, width)
        slots[:, :width - _WORDS] = 0
        slots[:, width - _WORDS:] = fast
    size = 8 * width
    slots.view(np.uint8)[slow] = np.frombuffer(b"".join(t.rjust(size, b"\0") for t in text), np.uint8).reshape(-1, size)
    return slots


def _as_floats(cells) -> np.ndarray:
    """A float array of ``cells``; TypeError for a cell ``%`` would refuse.

    ``float()`` also parses strings, so an object array is checked first.  A
    float array comes back as it is, a broadcast view too.
    """
    cells = np.asarray(cells)
    if cells.dtype == object:
        for v in cells.flat:
            if not isinstance(v, numbers.Real):
                raise TypeError(f"CSV cells must be real numbers, not {type(v).__name__}")
    return np.asarray(cells, dtype=float)


class Text(np.ndarray):
    """Cells printed once, as ``format_once`` returns them: one row of uint64
    words per value, its text right-aligned and ended by ',', NUL before it.
    Slicing, ``np.repeat`` and ``np.tile`` keep the type."""


def format_once(values) -> Text:
    """Print the 1-D ``values`` once, by ``format_rows``' blocked pass, as a
    column that ``format_rows`` copies instead of printing again.

    Each value's line, its '\\n' turned back into ',', is packed to the right
    of the fewest words that hold the longest text, so a copied column passes
    fewer NUL bytes on to the join than a slot would.
    """
    text = b"".join(format_rows(_as_floats(values).reshape(-1))).replace(b"\n", b",")
    raw = np.frombuffer(text, np.uint8)
    count = np.diff(np.flatnonzero(raw == ord(",")), prepend=-1)
    width = -(-int(count.max(initial=1)) // 8) * 8
    packed = np.zeros((count.size, width), np.uint8)
    packed[np.arange(width) >= width - count[:, None]] = raw
    return packed.view(_WORD).view(Text)


def rows_once_if_repeated(values) -> list:
    """Each row of the 2-D ``values`` as ``format_rows`` takes a column:
    ``Text`` of its first value when every value of the row has the same
    bits, else the row's floats.  The repeated rows are printed in one pass.

    The test is on the bits, not on float equality, so ``-0.0`` next to
    ``0.0`` and differing nan payloads keep their own cells.
    """
    x = _as_floats(values)
    bits = x.view(_WORD)
    same = (bits == bits[:, :1]).all(axis=1) & (x.shape[1] > 0)
    text = format_once(x[same, 0])
    rows = list(x)
    for k, i in enumerate(np.flatnonzero(same)):
        rows[i] = text[k:k + 1]
    return rows


def format_rows(*columns) -> Iterator[bytes]:
    """Yield the ``columns`` side by side as CSV lines, one bytes chunk per
    block of ``_BLOCK_ROWS`` rows.

    Each line is the row's cells printed as ``'%.17g' % x`` prints them,
    joined by ',' and ended by '\\n'.  A column argument is either cells,
    1-D or rows by columns, printed on every pass, or ``Text`` from
    ``format_once``, copied: one value per row, or a single value that every
    row repeats.  The block buffer is reused from pass to pass; every pass
    rewrites all of its bytes.
    """
    return format_tables([columns])


def format_tables(tables) -> Iterator[bytes]:
    """Yield ``format_rows(*columns)`` for each tuple of ``columns`` in the
    iterable ``tables``, one after the other.

    One block buffer and one set of scratch arrays per column position serve
    every table: fresh ones for each table (a node of ``paths.csv``, a run of
    layers of the value surface) would cost their page faults again.
    """
    works = {}  # (column position, cells per pass) -> scratch arrays
    block = np.empty(0, _WORD)
    for columns in tables:
        parts = []
        for c in columns:
            if isinstance(c, Text):
                if len(c) == 1:  # a value every row repeats: its leading NUL words go
                    c = c[:, int(np.argmax(c[0] != 0)):]
            else:
                c = _as_floats(c)
                c = c if c.ndim == 2 else c[:, None]
            parts.append(c)
        n_rows = max((len(c) for c in parts if not (isinstance(c, Text) and len(c) == 1)), default=1)
        rows = max(1, min(n_rows, _BLOCK_ROWS))
        n_words = 0  # the most words a row can take
        for c in parts:
            text = isinstance(c, Text)
            if len(c) != n_rows and not (text and len(c) == 1):
                raise ValueError(f"a column has {len(c)} rows, another {n_rows}")
            n_words += c.shape[1] * (1 if text else _WIDE)
        if block.size < rows * n_words:
            block = np.empty(rows * n_words, _WORD)
        for start in range(0, n_rows, rows):
            stop = min(n_rows, start + rows)
            pieces = []
            for i, c in enumerate(parts):
                if isinstance(c, Text):
                    pieces.append(c if len(c) == 1 else c[start:stop])
                    continue
                # cells are printed into slots of their own, then copied into the block
                x = c[start:stop].ravel()
                if (i, x.size) not in works:
                    works[i, x.size] = _Work(x.size)
                slots = _print(x, works[i, x.size])
                pieces.append(slots.reshape(stop - start, c.shape[1] * slots.shape[1]))
            width = sum(q.shape[1] for q in pieces)
            out = block[:(stop - start) * width].reshape(stop - start, width)
            w0 = 0
            for q in pieces:
                out[:, w0:w0 + q.shape[1]] = q
                w0 += q.shape[1]
            raw = out.view(np.uint8)
            raw[:, -1] = ord("\n")  # over the ',' that ends the row's last cell
            yield raw.tobytes().translate(None, b"\0")
