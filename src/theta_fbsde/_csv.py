"""CSV text of float blocks, byte for byte what ``'%.17g' % x`` prints per cell.

``%.17g`` in CPython costs about a microsecond a cell: 17 digits push its
float-to-decimal conversion onto the big-integer path.  This module prints
most cells with integer arithmetic on whole arrays instead, and hands every
cell it cannot print exactly to ``%`` itself (print fast with integers, fall
back when unsure; Loitsch, PLDI 2010).

Fast path.  A finite cell with 1e-4 <= |x| < 1e16 has e = floor(log10|x|) in
[-4, 15], where ``%g`` uses fixed notation and 10^(16-e) <= 10^20 is an exact
double.  Dekker's two-product gives |x| * 10^(16-e) exactly as hi + lo with
hi >= 1e16 > 2^53 an integer, so the 17 significant digits are the integer
d = hi + rint(lo).  Four-digit groups of d come from a lookup table, and a
layout mask chosen by (sign, e, significant digits) keeps the sign, the
integer digits, the point and the fraction without its trailing zeros.

Fallback.  ``%`` formats every other cell into its slot: +-0, subnormals,
|x| < 1e-4 or >= 1e16, nan and +-inf, a product exactly half-way between two
integers (so the result never rests on a tie rule), and any d outside
[10^16, 10^17) (log10 off by one next to a power of ten, or a round-up to the
next power of ten).

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
_N_SIG = 17

# Each cell owns a 40-byte slot, five little-endian uint64 words: byte 0 the
# sign, bytes 1-5 the "0.000" of a number below 1, digit k (k = 0..16) at byte
# 6 + 2k and a point slot after it at byte 7 + 2k.  The point slot after the
# last digit, byte 39, holds the ',' that ends every cell.  Dropped bytes are
# NUL and are cut out when the block is joined.
_SLOT = 40
_WORDS = _SLOT // 8
_FALLBACK_WIDTH = 24  # the longest %.17g text, "-2.2250738585072014e-308"

_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def _veltkamp(a):
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


# 10^s (s = 16 - e) and its halves
_POW10 = np.array([10.0**s for s in range(21)])
_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)
_WORD = np.dtype("<u8")


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def _digit_tables():
    """Lookup tables of the four-digit groups 0000..9999, built on first use.

    The words hold the group's digits, each followed by a point slot.  Row j
    of the counts holds the number of digits of d up to its last non-zero
    one, when group j + 1 of d is its last non-zero group; a zero group gives
    1, which never wins the maximum, since the leading digit of d is not zero.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint16).reshape(4, -1).T
    words = (digits + (ord("0") | ord(".") << 8)).astype("<u2", order="C").view(_WORD).ravel()
    zero = digits == 0
    trailing = zero[:, 3].astype(np.int8)
    run = zero[:, 3]
    for j in (2, 1, 0):
        run = run & zero[:, j]
        trailing += run
    last = np.where(trailing == 4, np.int8(-20), 4 - trailing)
    offsets = np.array([1, 5, 9, 13], np.int8)[:, None]
    return _read_only(words), _read_only(np.maximum(offsets + last, np.int8(1)))


@functools.cache
def _layout_masks():
    """AND masks indexed by (negative, e - _E_MIN, digits - 1), built on
    first use.

    0xFF keeps the digit word's byte, a character replaces it (its byte there
    is 0xFF, or the point, whose bits cover ','), 0 drops it.  One more row,
    for fallback cells, keeps only the separator.
    """
    e, nsig, pos = np.ix_(range(_E_MIN, _E_MAX + 1), range(1, _N_SIG + 1), range(_SLOT))
    k = (pos - 6) // 2
    digit = (pos >= 6) & (pos % 2 == 0) & (k < np.maximum(nsig, e + 1))
    point = (pos >= 7) & (pos % 2 == 1) & (k == e) & (nsig > e + 1)
    below_one = (e < 0) & (pos >= 1) & (pos < 2 - e)
    layout = np.where(digit | point, np.uint8(0xFF), np.uint8(0))
    layout = np.where(below_one, np.where(pos == 2, np.uint8(ord(".")), np.uint8(ord("0"))), layout)
    masks = np.zeros((2 * _N_E * _N_SIG + 1, _SLOT), np.uint8)
    fast = masks[:-1].reshape((2,) + layout.shape)
    fast[...] = layout
    fast[1, :, :, 0] = ord("-")
    masks[:, -1] = ord(",")
    return _read_only(masks.view(_WORD))


_NEGATIVE = _N_E * _N_SIG
_FALLBACK = 2 * _NEGATIVE
# word 0 before masking: 0xFF in bytes 0-5, the leading digit, a point slot
_WORD0 = 0xFFFF_FFFF_FFFF | ord(".") << 56


def _fill(x, slots):
    """Write the slots of the cells ``x``; return the indices of fallback cells."""
    with np.errstate(all="ignore"):  # fallback lanes carry inf, nan and wrapped integers
        ax = np.abs(x)
        ef = np.floor(np.log10(ax))
        fast = (ef >= _E_MIN) & (ef <= _E_MAX)
        e = ef.astype(np.intp)
        s = 16 - e
        hi = ax * _POW10.take(s, mode="clip")
        bh = _POW10_HIGH.take(s, mode="clip")
        bl = _POW10_LOW.take(s, mode="clip")
        ah, al = _veltkamp(ax)
        lo = ah * bh
        lo -= hi
        lo += ah * bl
        lo += al * bh
        lo += al * bl
        r = np.rint(lo)
        fast &= np.abs(lo - r) != 0.5
        d = hi.astype(np.int64)
        d += r.astype(np.int64)
        fast &= (d >= 10**16) & (d < 10**17)
    groups, significant = _digit_tables()
    upper = d // 10**8
    lower = d - upper * 10**8
    d0 = upper // 10**8
    upper -= d0 * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    nsig = np.maximum(significant[0].take(g1, mode="clip"), significant[1].take(g2, mode="clip"))
    np.maximum(nsig, significant[2].take(g3, mode="clip"), out=nsig)
    np.maximum(nsig, significant[3].take(g4, mode="clip"), out=nsig)

    idx = (x < 0) * _NEGATIVE
    idx += (e - _E_MIN) * _N_SIG
    idx += nsig
    idx -= 1
    slow = np.flatnonzero(~fast)
    idx[slow] = _FALLBACK

    d0 += ord("0")
    d0 <<= 48
    np.bitwise_or(d0, _WORD0, out=slots[:, 0], casting="unsafe")
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        groups.take(g, mode="clip", out=slots[:, j])
    slots &= _layout_masks().take(idx, axis=0, mode="clip")
    return slow


def _print(x, slots):
    """Fill the slots of the cells ``x`` (see ``_fill``) and let ``%`` print
    the fallback cells into theirs.  Every byte of ``slots`` is rewritten."""
    slow = _fill(x, slots)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        slots.view(np.uint8)[slow, :_FALLBACK_WIDTH] = text.view(np.uint8).reshape(-1, _FALLBACK_WIDTH)


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
    parts = []
    for c in columns:
        if not isinstance(c, Text):
            c = _as_floats(c)
            c = c if c.ndim == 2 else c[:, None]
        parts.append(c)
    n_rows = max((len(p) for p in parts if not (isinstance(p, Text) and len(p) == 1)), default=1)
    rows = max(1, min(n_rows, _BLOCK_ROWS))
    layout, n_words = [], 0  # (part, first word, words per row, slots)
    for p in parts:
        text = isinstance(p, Text)
        if text and len(p) == 1:
            p = np.broadcast_to(p, (n_rows, p.shape[1]))
        if len(p) != n_rows:
            raise ValueError(f"a column has {len(p)} rows, another {n_rows}")
        if text:
            layout.append((p, n_words, p.shape[1], None))
        else:
            # cells are printed into slots of their own, then copied into the block
            slots = np.empty((rows * p.shape[1], _WORDS), _WORD)
            layout.append((p, n_words, p.shape[1] * _WORDS, slots))
        n_words += layout[-1][2]
    block = np.empty((rows, n_words), _WORD)
    for start in range(0, n_rows, rows):
        out = block[:min(rows, n_rows - start)]
        for p, w0, width, slots in layout:
            cells = p[start:start + rows]
            if slots is None:
                out[:, w0:w0 + width] = cells
            else:
                x = cells.ravel()
                _print(x, slots[:x.size])
                out[:, w0:w0 + width] = slots[:x.size].reshape(len(out), width)
        raw = out.view(np.uint8)
        raw[:, -1] = ord("\n")  # over the ',' that ends the row's last cell
        yield raw.tobytes().translate(None, b"\0")
