"""The vectorized CSV formatter against ``'%.17g' % x``, cell by cell."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theta_fbsde import _csv


def formatted(values, n_cols=1):
    return b"".join(_csv.format_tables([(np.asarray(values, dtype=float).reshape(-1, n_cols),)]))


def reference(values, n_cols=1):
    rows = np.asarray(values, dtype=float).reshape(-1, n_cols).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def assert_same_bytes(values, n_cols=1):
    got, want = formatted(values, n_cols), reference(values, n_cols)
    if got != want:
        pairs = zip(got.decode().splitlines(), want.decode().splitlines())
        bad = next((g, w) for g, w in pairs if g != w)
        pytest.fail(f"formatter printed {bad[0]!r} where %.17g prints {bad[1]!r}")


def powers_of_ten():
    p = 10.0 ** np.arange(-6, 18)
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def dyadic_ties(rng):
    """m 2^-(17-e), m odd: |x| 10^(16-e) is an integer plus exactly one half."""
    values = []
    for e in range(_csv._E_MIN, _csv._E_MAX + 1):
        q = 17 - e
        low = max(1, int(10.0**e * 2.0**q))
        high = min(2**53, int(10.0 ** (e + 1) * 2.0**q))
        m = rng.integers(low // 2, high // 2, 200) * 2 + 1
        values.append(np.ldexp(m.astype(float), -q))
    return np.concatenate(values)


SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
    np.nan, np.inf, -np.inf, 1e-4, 9.9999999999999991e-5, 1e16, 9999999999999998.0,
    0.99999999999999999, 9.9999999999999999e15, 99999999999999999.0, 1.7976931348623157e308,
])


class TestSameBytesAsPercentG:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
        assert_same_bytes(bits.view(np.float64))

    def test_values_in_the_fast_range(self):
        rng = np.random.default_rng(12)
        magnitude = 10.0 ** rng.uniform(-4.5, 16.5, 50_000)
        assert_same_bytes(magnitude * rng.choice([-1.0, 1.0], magnitude.size))

    def test_powers_of_ten_and_their_neighbours(self):
        p = powers_of_ten()
        assert_same_bytes(np.concatenate([p, -p]))

    def test_dyadic_half_way_ties(self):
        ties = dyadic_ties(np.random.default_rng(13))
        assert_same_bytes(np.concatenate([ties, -ties]))

    def test_special_values(self):
        assert_same_bytes(SPECIAL)

    def test_columns_and_blocks(self, monkeypatch):
        monkeypatch.setattr(_csv, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(14)
        cells = rng.standard_normal((11, 5))
        cells.flat[rng.choice(cells.size, 15, replace=False)] = np.resize(SPECIAL, 15)
        assert_same_bytes(cells, n_cols=5)

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        assert_same_bytes(values)


def layout_value(negative, e, n_sig):
    """A double whose %.17g text has the fixed-notation exponent e and n_sig
    significant digits: the first k-digit decimal 1.0..0j e``e`` (j > 0)
    that %.17g prints back as itself."""
    for j in range(1, 10**4):
        digits = str(j) if n_sig == 1 else "1" + str(j).rjust(n_sig - 1, "0")
        if len(digits) != n_sig or digits.endswith("0"):
            continue
        decimal = Decimal(f"{'-' if negative else ''}{digits[0]}.{digits[1:]}e{e}")
        value = float(decimal)
        if "%.17g" % value == format(decimal, "f"):
            return value
    raise AssertionError(f"no double prints with e = {e} and {n_sig} significant digits")


LAYOUTS = [
    (negative, e, n_sig)
    for negative in (False, True)
    for e in range(_csv._E_MIN, _csv._E_MAX + 1)
    for n_sig in range(1, 18)
]
# "-0.00012345678901234567," and "-2.2250738585072014e-308,": the longest
# fast-path text fills a 24-byte slot, the longest fallback text one byte more
LONGEST_FAST, LONGEST_FALLBACK = -0.00012345678901234567, -2.2250738585072014e-308


class TestLayouts:
    """Every sign x e x significant-digit count of the fast path, and the
    longest texts, which pin the edges of the 24-byte slot."""

    def test_one_value_per_fast_path_layout(self):
        values = np.array([layout_value(*layout) for layout in LAYOUTS])
        assert len(LAYOUTS) == 680
        texts = ["%.17g" % v for v in values]
        for (negative, e, n_sig), text in zip(LAYOUTS, texts):
            digits = text.lstrip("-").replace(".", "").strip("0")
            assert text.startswith("-") == negative and len(digits) == n_sig
            assert np.floor(np.log10(abs(float(text)))) == e
        assert_same_bytes(values)
        assert_same_bytes(values[::-1].reshape(-1, 4), n_cols=4)

    def test_longest_texts(self):
        assert len("%.17g," % LONGEST_FAST) == 24 and len("%.17g," % LONGEST_FALLBACK) == 25
        assert_same_bytes([LONGEST_FAST])
        assert_same_bytes([LONGEST_FALLBACK])
        assert_same_bytes([LONGEST_FAST, LONGEST_FALLBACK, 0.5, -0.0], n_cols=2)

    def test_longest_text_changes_from_pass_to_pass(self, monkeypatch):
        monkeypatch.setattr(_csv, "_BLOCK_ROWS", 3)
        short, long_fallback, long_fast, mid_fallback = 0.5, LONGEST_FALLBACK, LONGEST_FAST, 1e-300
        passes = [
            [short, 1.25, -3.0, 7.0, 0.125, 2.0],  # 8 bytes at most
            [long_fallback, short, 1.0, -0.0, 3.0, long_fast],  # a 25-byte cell widens the pass
            [long_fast, 1 / 3, -2 / 3, 0.1, 12.5, 1e15],  # 24 bytes at most: back to three words
            [mid_fallback, short, np.nan, -np.inf, short, long_fallback],
            [short, 2.0],
        ]
        assert_same_bytes([v for cells in passes for v in cells], n_cols=2)


class TestCellTypes:
    def test_object_array_of_numbers(self):
        cells = np.array([[0.1, 3, np.float32(2.5)], [-0.0, np.nan, 7]], dtype=object)
        assert b"".join(_csv.format_tables([(cells,)])) == b"0.10000000000000001,3,2.5\n-0,nan,7\n"

    @pytest.mark.parametrize("cell", ["1.5", b"2", None])
    def test_non_numbers_raise_type_error(self, cell):
        cells = np.array([[1.0, cell]], dtype=object)
        with pytest.raises(TypeError):
            "%.17g" % cell
        with pytest.raises(TypeError):
            b"".join(_csv.format_tables([(cells,)]))


ONCE = [0.0, -0.0, 7.0, 0.1, 123456.789, 1e16, 5e-324, -2.2250738585072014e-308, np.nan, -np.inf]


class TestFormatOnce:
    """The packed text of ``format_once``: each row the value's ``%.17g``
    text and its ',', right-aligned behind NULs, in the fewest whole words."""

    @pytest.mark.parametrize("values", [ONCE, *([v] for v in ONCE)], ids=["all", *map(repr, ONCE)])
    def test_rows_hold_the_text_right_aligned(self, values):
        text = _csv.format_once(values)
        assert isinstance(text, _csv.Text) and text.dtype == np.uint64
        want = [("%.17g," % v).encode() for v in values]
        assert text.shape == (len(values), -(-max(map(len, want)) // 8))
        for row, w in zip(text.view(np.uint8), want):
            assert row.tobytes() == w.rjust(row.size, b"\0")

    def test_empty_input(self):
        text = _csv.format_once([])
        assert isinstance(text, _csv.Text) and len(text) == 0

    def test_long_column_is_printed_in_blocks(self):
        values = np.arange(1e5)
        tracemalloc.start()
        try:
            _csv.format_once(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unblocked pass over the column took about 24 MB
        assert peak < 8e6
