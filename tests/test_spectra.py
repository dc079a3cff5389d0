import math
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import volcur.spectra
from volcur import (
    DENSE_CAP,
    CapExceededError,
    PiecewiseDyadicSpectrum,
    Spectrum,
    ValidationError,
    esp_ratios,
    generate_geometric,
    generate_power_law,
    load_spectrum,
    make_spectrum,
    parse_generator_spec,
    split_head_tail,
)
from volcur.spectra import _CHUNK, _read_table

positive_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=12)


class TestMakeSpectrum:
    def test_sorts_descending(self):
        s = make_spectrum([3.0, 1.0, 2.0])
        assert np.array_equal(s.values, [3.0, 2.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            make_spectrum([1.0, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_spectrum([])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            make_spectrum([1.0, float("nan")])

    def test_zeros_allowed_with_rank_zero(self):
        s = make_spectrum([0.0, 0.0])
        assert s.n == 2
        assert esp_ratios(s, 1).tolist() == [0.0, 0.0]

    def test_values_read_only(self):
        s = make_spectrum([2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([1.0, 2.0]))

    def test_direct_construction_requires_one_dimension(self):
        with pytest.raises(ValidationError, match="^spectrum must be one-dimensional$"):
            Spectrum(np.ones((2, 2)))

    def test_direct_construction_copies(self):
        values = np.array([2.0, 1.0])
        s = Spectrum(values)
        assert not np.shares_memory(s.values, values)
        assert values.flags.writeable

    def test_iteration_is_refused(self):
        with pytest.raises(TypeError):
            iter(make_spectrum([2.0, 1.0]))

    @given(positive_lists)
    def test_ratios_vanish_from_the_count_of_positive_entries(self, xs):
        s = make_spectrum(xs + [0.0, 0.0])
        rank = sum(1 for x in xs if x > 0)
        ratios = esp_ratios(s, s.n - 1)
        assert np.all(ratios[:rank] > 0.0) and not np.any(ratios[rank:])


class TestTailSum:
    def test_simple(self):
        s = make_spectrum([3.0, 2.0, 1.0])
        assert s.tail_sum(0) == pytest.approx(6.0)
        assert s.tail_sum(1) == pytest.approx(3.0)
        assert s.tail_sum(2) == pytest.approx(1.0)
        assert s.tail_sum(3) == 0.0

    def test_beyond_length_is_zero(self):
        assert make_spectrum([1.0]).tail_sum(5) == 0.0


class TestGenerators:
    def test_geometric_values(self):
        s = generate_geometric(0.5, 3)
        assert np.allclose(s.values, [1.0, 0.5, 0.25], rtol=0, atol=0)

    def test_geometric_rejects_bad_ratio(self):
        with pytest.raises(ValidationError):
            generate_geometric(0.0, 3)
        with pytest.raises(ValidationError):
            generate_geometric(1.5, 3)

    def test_power_law_values(self):
        s = generate_power_law(2.0, 3)
        assert np.allclose(s.values, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)

    def test_dyadic_values(self):
        s = PiecewiseDyadicSpectrum(3, 0.25)
        # levels: 1 copy of 1, 2 copies of 1/4, 4 copies of 1/16
        expected = [1.0, 0.25, 0.25, 0.0625, 0.0625, 0.0625, 0.0625]
        assert s.n == 7
        assert np.allclose(Spectrum(s).values, expected, rtol=0, atol=0)

    def test_numpy_integer_lengths(self):
        assert np.array_equal(generate_geometric(0.5, np.int64(4)).values,
                              generate_geometric(0.5, 4).values)
        assert np.array_equal(generate_power_law(2.0, np.int64(4)).values,
                              generate_power_law(2.0, 4).values)
        d = PiecewiseDyadicSpectrum(np.int64(3), 0.25)
        assert type(d.lmax) is int and d.n == 7
        for make in (lambda: generate_geometric(0.5, 4.0),
                     lambda: generate_power_law(2.0, 4.0)):
            with pytest.raises(ValidationError, match="^n must be a positive integer$"):
                make()
        with pytest.raises(ValidationError, match="^lmax must be a positive integer$"):
            PiecewiseDyadicSpectrum(3.0, 0.25)

    def test_dyadic_length_is_power_of_two_minus_one(self):
        for lmax in range(1, 8):
            assert PiecewiseDyadicSpectrum(lmax, 0.5).n == 2 ** lmax - 1
            assert Spectrum(PiecewiseDyadicSpectrum(lmax, 0.5)).n == 2 ** lmax - 1


def dense_power_law(p: float, n: int) -> np.ndarray:
    """The power law as one array, by the formula the chunks use."""
    values = np.arange(1, n + 1, dtype=np.float64)
    values **= -float(p)
    return values


def dense_geometric(q: float, n: int) -> np.ndarray:
    values = np.arange(n, dtype=np.float64)
    return np.power(q, values, out=values)


def read_by_chunks(s: Spectrum) -> np.ndarray:
    return np.concatenate([s._chunk(lo, lo + _CHUNK) for lo in range(0, s.n, _CHUNK)])


class TestGeneratedChunks:
    """A generated spectrum holds no entries: each chunk is computed when read."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7, 1e-9, 200.0])
    @pytest.mark.parametrize("n", [1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2**20 - 1])
    def test_power_law_chunks_are_the_dense_formula_bit_for_bit(self, p, n):
        s, want = generate_power_law(p, n), dense_power_law(p, n)
        assert read_by_chunks(s).tobytes() == want.tobytes()
        assert s.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1e-3, 0.5, 0.999])
    @pytest.mark.parametrize("n", [1, 2000, _CHUNK, _CHUNK + 1, 2**20 - 1])
    def test_geometric_chunks_are_the_dense_formula_bit_for_bit(self, q, n):
        s, want = generate_geometric(q, n), dense_geometric(q, n)
        assert read_by_chunks(s).tobytes() == want.tobytes()
        assert s.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s, want, kmax", [
        (generate_power_law(200.0, 1000), dense_power_law(200.0, 1000), 999),
        (generate_geometric(0.5, 2000), dense_geometric(0.5, 2000), 1999),
        (generate_power_law(2.0, 3 * _CHUNK + 7), dense_power_law(2.0, 3 * _CHUNK + 7), 8),
    ], ids=["pow-underflow", "geom-underflow", "pow-positive"])
    def test_ratios_vanish_where_the_dense_values_do(self, s, want, kmax):
        # a formula whose entries underflow to zero has the ratios of its dense
        # values, 0 from its last positive entry on (just before, the ratio
        # itself can round to 0, as at k = 1074 of geom 0.5)
        ratios = esp_ratios(s, kmax)
        assert "values" not in vars(s)          # found without materializing
        assert ratios.tobytes() == esp_ratios(make_spectrum(want), kmax).tobytes()
        rank = np.count_nonzero(want > 0.0)
        assert np.all(ratios[: rank - 1] > 0.0) and not np.any(ratios[rank:])

    def test_tail_sums_sum_chunks(self):
        s = generate_power_law(1.0, 3 * _CHUNK + 7)
        values = dense_power_law(1.0, s.n)
        for k in (0, 5, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 3, s.n - 1, s.n, s.n + 9):
            assert s.tail_sum(k) == pytest.approx(math.fsum(values[k:]), rel=1e-15, abs=0)

    def test_tail_sums_read_each_chunk_once(self):
        # bound_reports' ks: unordered, repeated, past n; one read per chunk, and the
        # bits of one tail_sum call per k
        s = generate_power_law(1.0, 3 * _CHUNK + 7)
        ks = [5, 0, _CHUNK + 1, _CHUNK - 1, 5, 2 * _CHUNK + 3, s.n, s.n + 9, _CHUNK]
        want = [s.tail_sum(k) for k in ks]
        entries, reads = s._entries, []
        s._entries = lambda lo, hi: reads.append((hi - 1) // _CHUNK) or entries(lo, hi)
        assert s._tail_sums(ks) == want
        assert sorted(reads) == [0, 1, 2, 3]
        assert "values" not in vars(s)

    def test_values_are_computed_once_and_read_only(self):
        s = generate_geometric(0.5, 10)
        assert s.values is s.values
        assert np.array_equal(np.asarray(s), s.values)      # what a tracer counts
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        assert repr(s) == "Spectrum([1, 0.5, 0.25, 0.125, 0.0625, 0.03125, ...], n=10)"

    @pytest.mark.parametrize("bad, message", [
        (2.0, "spectrum must be nonincreasing"),
        (float("nan"), "spectrum entries must be finite"),
        (-1.0, "spectrum entries must be nonnegative"),
    ])
    def test_each_chunk_is_checked_against_the_one_before(self, bad, message):
        # ones, then bad from entry _CHUNK on: the second chunk, read with the
        # first chunk's last entry, fails as the dense values fail at once
        def entries(lo, hi):
            values = np.ones(hi - lo)
            values[max(_CHUNK - lo, 0):] = bad
            return values

        with pytest.raises(ValidationError, match=f"^{message}$"):
            Spectrum(entries(0, 2 * _CHUNK))
        s = Spectrum._generated(2 * _CHUNK, entries)
        assert np.all(s._chunk(0, _CHUNK) == 1.0)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            s._chunk(_CHUNK, 2 * _CHUNK)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            esp_ratios(s, 3)

    def test_a_slice_is_checked_against_the_entry_before_it(self):
        # ones, then twos from entry _CHUNK on: the rise sits exactly at the seam
        # of a slice there, whose own entries are all in order
        s = Spectrum._generated(2 * _CHUNK, lambda lo, hi: np.where(
            np.arange(lo, hi) < _CHUNK, 1.0, 2.0))
        assert np.all(s._slice(0, _CHUNK).values == 1.0)
        with pytest.raises(ValidationError, match="^spectrum must be nonincreasing$"):
            s._slice(_CHUNK, s.n).values
        with pytest.raises(ValidationError, match="^spectrum must be nonincreasing$"):
            esp_ratios(s, 8)
        with pytest.raises(ValidationError, match="^spectrum must be nonincreasing$"):
            split_head_tail(s, _CHUNK)

    def test_materialized_values_do_not_change_where_reads_come_from(self):
        s = generate_power_law(1.0, 3 * _CHUNK + 7)
        want = esp_ratios(s, 8)
        s.values                                # materialized: reads still come from the formula
        entries, reads = s._entries, []
        s._entries = lambda lo, hi: reads.append(lo) or entries(lo, hi)
        assert esp_ratios(s, 8).tobytes() == want.tobytes()
        assert reads

    @pytest.mark.parametrize("n", [DENSE_CAP + 1, 10**15])
    @pytest.mark.parametrize("make", [lambda n: generate_power_law(2.0, n),
                                      lambda n: generate_geometric(0.5, n)],
                             ids=["pow", "geom"])
    def test_length_above_the_cap_is_refused(self, make, n):
        with pytest.raises(CapExceededError, match=f"^n = {n} exceeds the generated-spectrum "
                                                   f"cap {DENSE_CAP}$"):
            make(n)


class TestPiecewiseDyadic:
    def test_materialized_matches_generate(self):
        d = PiecewiseDyadicSpectrum(lmax=4, base=0.25)
        assert np.array_equal(
            Spectrum(d).values, Spectrum(PiecewiseDyadicSpectrum(4, 0.25)).values)

    @pytest.mark.parametrize("base", [0.3, 0.4, 0.7])
    def test_materialized_entries_are_the_piece_values(self, base):
        # Python's base**l: numpy's vectorized power gives 0.008099999999999998
        # for 0.3**4 on some CPUs, where Python's gives 0.0081
        d = PiecewiseDyadicSpectrum(lmax=8, base=base)
        assert d.pieces == tuple((2**level - 1, 2**level, base**level) for level in range(8))
        values = Spectrum(d).values
        for start, count, value in d.pieces:
            assert np.all(values[start : start + count] == value)

    @pytest.mark.parametrize("lmax", [31, 64])
    def test_materialized_above_the_cap_is_refused(self, lmax):
        d = PiecewiseDyadicSpectrum(lmax=lmax, base=0.5)
        with pytest.raises(CapExceededError, match=f"cap {DENSE_CAP}$"):
            Spectrum(d)

    def test_analytic_tail_sum_matches_materialized(self):
        d = PiecewiseDyadicSpectrum(lmax=6, base=0.3)
        m = Spectrum(d)
        for k in range(d.n + 2):
            assert d.tail_sum(k) == pytest.approx(m.tail_sum(k), rel=1e-12, abs=1e-300)

    def test_quarter_base_dominates_inverse_squares(self):
        # mu_i >= 1/i^2 entrywise when base = 1/4
        for lmax in (3, 10, 20):
            d = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
            i = np.arange(1, d.n + 1, dtype=float)
            assert np.all(Spectrum(d).values >= 1.0 / i ** 2 - 1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            PiecewiseDyadicSpectrum(lmax=0, base=0.5)
        with pytest.raises(ValidationError):
            PiecewiseDyadicSpectrum(lmax=3, base=1.0)


class TestSplitConcat:
    def test_example(self):
        split = split_head_tail(make_spectrum([4.0, 2.0, 1.0]), 1)
        assert np.array_equal(split.head.values, [4.0])
        assert split.pivot == 2.0
        assert np.array_equal(split.tail.values, [2.0, 1.0])

    def test_zero_pivot_raises(self):
        with pytest.raises(ValidationError,
                           match="^tail starting at position 2 is all zero; split undefined$"):
            split_head_tail(make_spectrum([1.0, 0.0, 0.0]), 1)

    def test_k_bounds(self):
        s = make_spectrum([2.0, 1.0])
        with pytest.raises(ValidationError):
            split_head_tail(s, -1)
        with pytest.raises(ValidationError):
            split_head_tail(s, 2)

    @given(positive_lists, st.integers(min_value=0, max_value=11))
    @settings(max_examples=200)
    def test_round_trip(self, xs, k):
        s = make_spectrum(xs)
        if k >= s.n:
            return
        split = split_head_tail(s, k)
        back = np.concatenate([split.head.values, split.tail.values])
        assert np.array_equal(back, s.values)
        assert split.head.n == k
        assert split.tail.n == s.n - k


class TestParsing:
    def test_load_spectrum_whitespace(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("3 1 2\n")
        assert np.array_equal(load_spectrum(p).values, [3.0, 2.0, 1.0])

    def test_load_spectrum_commas_and_lines(self, tmp_path):
        # one comma-separated line, or one value per line; a table is refused below
        p = tmp_path / "s.txt"
        for text in ("3,1,2\n", "3\n1\n2\n"):
            p.write_text(text)
            assert np.array_equal(load_spectrum(p).values, [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("text", [
        "0.5, 3,1e-3 ,2.25\n",
        "\n0.5\n\n3\n 1e-3\n\n\n2.25",
        "0.5\r\n3\r\n\r\n1e-3\r\n2.25\r\n",
        "0.5,3\t1e-3 2.25\r\n\r\n",
        # about 460 kB: read in several blocks, each cut at a line end
        "\r\n\r\n".join(format(x, ".17g") for x in np.random.default_rng(1).random(20000)),
    ], ids=["one_line", "blank_lines", "crlf", "crlf_one_line", "many_blocks"])
    def test_accepted_layouts_hold_every_token(self, tmp_path, text):
        # every token of a single line or column, sorted, as a flat read of the text gives
        p = tmp_path / "s.txt"
        p.write_bytes(text.encode())
        want = sorted((float(t) for t in text.replace(",", " ").split()), reverse=True)
        assert load_spectrum(p).values.tolist() == want

    @pytest.mark.parametrize("text, message", [
        ("3 1\n1 3\n", "spectrum file {p} holds a 2 x 2 table; "
                        "give one line of values, or one value per line"),
        (None, "spectrum file {p} holds a 12 x 12 table; "
               "give one line of values, or one value per line"),
        ("3,1\n2", "malformed spectrum file {p}: line 2: the number of columns changed "
                   "from 2 to 1"),
    ], ids=["2x2", "wishart12", "ragged"])
    def test_a_table_is_not_a_spectrum(self, tmp_path, text, message):
        # the 2 x 2 file was read as the entries {3, 3, 1, 1}; its spectrum is {4, 2}
        p = tmp_path / "s.txt"
        if text is None:
            g = np.random.default_rng(12).standard_normal((12, 12))
            np.savetxt(p, g @ g.T)
        else:
            p.write_text(text)
        with pytest.raises(ValidationError) as info:
            load_spectrum(p)
        assert str(info.value) == message.format(p=p)

    def test_load_spectrum_rejects_garbage(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1 banana\n")
        with pytest.raises(ValidationError):
            load_spectrum(p)

    @pytest.mark.parametrize("text, where", [
        ("3, 1, x, 2\n", "line 1, column 3"),
        ("3\n\n1\r\nx\n2\n", "line 4, column 1"),
    ], ids=["one_line", "one_per_line"])
    def test_a_malformed_token_is_located(self, tmp_path, text, where):
        p = tmp_path / "s.txt"
        p.write_bytes(text.encode())
        with pytest.raises(ValidationError) as info:
            load_spectrum(p)
        assert str(info.value) == (f"malformed spectrum file {p}: {where}: "
                                   "could not convert string 'x' to float64")

    @pytest.mark.parametrize("token", ["1_000", "\u0661"], ids=["underscore", "arabic_one"])
    def test_load_spectrum_uses_the_matrix_number_grammar(self, tmp_path, token):
        # Python's float() reads these as 1000 and 1; numpy's reader, as for matrices, does not
        p = tmp_path / "s.txt"
        p.write_text(f"2\n{token}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"could not convert string '{token}'"):
            load_spectrum(p)

    def test_parse_geometric(self):
        s = parse_generator_spec("geom:q=0.5,n=3")
        assert np.allclose(s.values, [1.0, 0.5, 0.25])

    def test_parse_power(self):
        s = parse_generator_spec("pow:p=2,n=3")
        assert np.allclose(s.values, [1.0, 0.25, 1.0 / 9.0])

    def test_parse_dyadic_returns_structured_form(self):
        d = parse_generator_spec("dyadic:lmax=3,base=0.25")
        assert isinstance(d, PiecewiseDyadicSpectrum)
        assert d.n == 7

    @pytest.mark.parametrize("text, message", [
        ("pow:p=0,n=3", "p must be positive"),
        ("pow:p=nan,n=3", "p must be positive"),
        ("geom:q=nan,n=3", "q must lie strictly between 0 and 1"),
        ("dyadic:lmax=3,base=nan", "base must lie strictly between 0 and 1"),
        ("geom:q=0.5,n=3,n=4", "generator parameter 'n' is given twice"),
    ])
    def test_parse_names_the_bad_parameter(self, text, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            parse_generator_spec(text)

    def test_parse_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            parse_generator_spec("zipf:s=1,n=3")

    def test_parse_rejects_missing_or_extra_keys(self):
        with pytest.raises(ValidationError):
            parse_generator_spec("geom:q=0.5")
        with pytest.raises(ValidationError):
            parse_generator_spec("geom:q=0.5,n=3,extra=1")


@st.composite
def malformed_tables(draw):
    """(text, where): a table with one bad token or one ragged row, and the location
    _read_table names, by 1-based file line; blank lines and separators vary."""
    width = draw(st.integers(1, 5))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = draw(st.lists(st.lists(number, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    pad = draw(st.sampled_from([0, 9000]))     # 9000 rows ahead: past one 64 Ki block
    rows = [["0.5"] * width] * pad + rows
    at = draw(st.integers(pad, len(rows) - 1))
    if at > 0 and draw(st.booleans()):
        changed = draw(st.integers(1, 6).filter(lambda v: v != width))
        rows[at] = (rows[at] * 6)[:changed]
        where = f"line {{}}: the number of columns changed from {width} to {changed}"
    else:
        column = draw(st.integers(0, width - 1))
        token = draw(st.sampled_from(["x", "1_000", "1..2", "#", "0x10", "--1"]))
        rows[at] = rows[at][:column] + [token] + rows[at][column + 1 :]
        where = f"line {{}}, column {column + 1}: could not convert string {token!r} to float64"
    lines = []
    for i, row in enumerate(rows):
        if i >= pad:
            lines += draw(st.lists(st.sampled_from(["", " ", "\t", ","]), max_size=2))
        sep = draw(st.sampled_from([" ", "\t", ",", ", ", " , "])) if i >= pad else " "
        lines.append(sep.join(row))
        if i == at:
            line = len(lines)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), where.format(line)


def read_through_a_pipe(data: bytes) -> str:
    """_read_table's message for data written into an os.pipe and read from its end."""
    r, w = os.pipe()

    def write():
        try:
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
        except BrokenPipeError:             # the reader stopped at the fault
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with pytest.raises(ValidationError) as info:
            _read_table(f"/dev/fd/{r}", "matrix")
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()
    return str(info.value).removeprefix(f"malformed matrix file /dev/fd/{r}: ")


class TestReadTable:
    @given(malformed_tables())
    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_the_fault_is_located_from_a_file_and_a_pipe(self, tmp_path, case):
        text, where = case
        p = tmp_path / "bad.txt"
        p.write_bytes(text.encode())
        with pytest.raises(ValidationError) as info:
            _read_table(p, "matrix")
        assert str(info.value) == f"malformed matrix file {p}: {where}"
        assert read_through_a_pipe(text.encode()) == where

    def test_a_malformed_file_is_opened_once(self, tmp_path, monkeypatch):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n" * 20000 + "3 x\n")
        opened = []
        monkeypatch.setattr(volcur.spectra, "open",
                            lambda *args: opened.append(args) or open(*args), raising=False)
        with pytest.raises(ValidationError) as info:
            _read_table(p, "matrix")
        assert str(info.value).startswith(f"malformed matrix file {p}: line 20001, column 2: ")
        assert opened == [(p,)]

    def test_an_undecodable_later_block_is_unreadable_not_malformed(self, tmp_path):
        # the decode error reaches numpy's reader, past the first block, as a ValueError
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 2\n" * 20000 + b"\xff 3\n")
        with pytest.raises(ValidationError) as info:
            _read_table(p, "matrix")
        assert str(info.value).startswith(f"cannot read matrix file {p}: 'utf-8' codec")


class TestNpyFiles:
    def test_a_npy_file_reads_as_its_text(self, tmp_path):
        a = np.array([[2.0, -0.0], [5e-324, 1e308]])
        text, npy = tmp_path / "m.txt", tmp_path / "m.npy"
        np.savetxt(text, a, fmt="%.17g")
        np.save(npy, np.asfortranarray(a))
        got = _read_table(npy, "matrix")
        assert np.array_equal(got.view(np.int64), _read_table(text, "matrix").view(np.int64))
        assert got.flags.c_contiguous and got.flags.writeable

    def test_a_npy_spectrum_keeps_the_one_row_or_column_rule(self, tmp_path):
        p = tmp_path / "s.npy"
        np.save(p, np.array([[1.0], [3.0], [2.0]]))
        assert load_spectrum(p).values.tolist() == [3.0, 2.0, 1.0]
        np.save(p, np.eye(2))
        with pytest.raises(ValidationError, match="holds a 2 x 2 table"):
            load_spectrum(p)

    @pytest.mark.parametrize("array, message", [
        (np.arange(3.0), "it holds a 1-D float64 array, not a 2-D float64 one"),
        (np.eye(2, dtype=np.float32), "it holds a 2-D float32 array, not a 2-D float64 one"),
        (np.zeros((2, 2, 2)), "it holds a 3-D float64 array, not a 2-D float64 one"),
        (np.array([[None]]), "Object arrays cannot be loaded when allow_pickle=False"),
        ("npz", "the magic string is not correct; expected b'\\x93NUMPY', got b'PK\\x03\\x04"),
        ("2 1\n1 2\n", "the magic string is not correct; expected b'\\x93NUMPY', got b'2 1\\n1"),
        ("", "EOF: reading magic string"),
    ], ids=["1d", "float32", "3d", "object", "npz", "text", "empty"])
    def test_any_other_content_is_refused_naming_the_file(self, tmp_path, array, message):
        p = tmp_path / "m.npy"
        if isinstance(array, np.ndarray):
            np.save(p, array)
        elif array == "npz":
            with open(p, "wb") as file:
                np.savez(file, m=np.eye(2))
        else:
            p.write_text(array)
        with pytest.raises(ValidationError) as info:
            _read_table(p, "matrix")
        assert str(info.value).startswith(f"malformed matrix file {p}: {message}")

    def test_a_missing_npy_file_cannot_be_read(self, tmp_path):
        p = tmp_path / "none.npy"
        with pytest.raises(ValidationError, match=f"^cannot read spectrum file {p}: "):
            load_spectrum(p)

    @pytest.mark.parametrize("name", ["m.npy", "m.txt"])
    def test_a_directory_cannot_be_read(self, tmp_path, name):
        p = tmp_path / name
        p.mkdir()
        with pytest.raises(ValidationError, match=f"^cannot read matrix file {p}: "):
            _read_table(p, "matrix")


class TestParseCache:
    """_read_table's cache of parsed text files, keyed by their content."""

    @staticmethod
    def parse_fails(monkeypatch):
        """From here on, a text parse fails the test: only the cache may answer."""
        monkeypatch.setattr(volcur.spectra, "_lines", lambda *args: pytest.fail("parsed"))

    def test_a_hit_is_the_parse_bit_for_bit(self, tmp_path, spd1000, cache, monkeypatch):
        odd = tmp_path / "odd.txt"
        odd.write_text("-0.0 nan 5e-324\n-inf 1.7976931348623157e308 0.1\n")
        parsed = [_read_table(p, "matrix") for p in (spd1000, odd)]
        assert len(list(cache.glob("*.npy"))) == 2
        self.parse_fails(monkeypatch)
        for p, want in zip((spd1000, odd), parsed):
            got = _read_table(p, "matrix")
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable

    def test_a_rewrite_of_the_same_size_and_time_is_a_miss(self, tmp_path, cache):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")
        assert _read_table(p, "matrix").tolist() == [[2, 1], [1, 2]]
        before = p.stat()
        p.write_text("3 1\n1 3\n")
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (p.stat().st_size, p.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert _read_table(p, "matrix").tolist() == [[3, 1], [1, 3]]
        assert len(list(cache.glob("*.npy"))) == 2

    @pytest.mark.parametrize("data, message", [
        (b"1 2\n3 x\n", "malformed matrix file {p}: line 2, column 2: "
                        "could not convert string 'x' to float64"),
        (b"1 2\n3\n", "malformed matrix file {p}: line 2: the number of columns changed "
                      "from 2 to 1"),
        (b"\n \n", "matrix file {p} is empty"),
        (b"1 \xff\n", "cannot read matrix file {p}: 'utf-8' codec can't decode byte 0xff "
                      "in position 2: invalid start byte"),
    ], ids=["bad_token", "ragged", "empty", "undecodable"])
    def test_a_malformed_file_stores_nothing(self, tmp_path, cache, data, message):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                _read_table(p, "matrix")
            assert str(info.value) == message.format(p=p)
        assert not cache.exists()

    @pytest.mark.parametrize("damage", [
        lambda entry: entry.write_bytes(entry.read_bytes()[:-8]),
        lambda entry: entry.write_bytes(b""),
        lambda entry: np.save(entry, np.arange(4.0)),
    ], ids=["truncated", "empty", "1d"])
    def test_a_damaged_entry_is_a_miss_and_is_replaced(self, tmp_path, cache, damage):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")
        want = _read_table(p, "matrix")
        [entry] = cache.glob("*.npy")
        stored = entry.read_bytes()
        damage(entry)
        assert np.array_equal(_read_table(p, "matrix"), want)
        assert entry.read_bytes() == stored
        assert sorted(cache.iterdir()) == [entry]

    def test_the_least_recently_used_entries_go_past_the_cap(self, tmp_path, cache,
                                                              monkeypatch):
        paths, entries = [tmp_path / f"m{i}.txt" for i in range(4)], []
        for i, p in enumerate(paths):
            p.write_text(f"{i} 1\n1 {i}\n")
        for p in paths[:3]:
            known = set(cache.glob("*.npy"))
            _read_table(p, "matrix")
            [entry] = set(cache.glob("*.npy")) - known
            entries.append(entry)
        for i, entry in enumerate(entries, 1):     # stored in order, long ago
            os.utime(entry, ns=(i * 10**9, i * 10**9))
        size = entries[0].stat().st_size
        monkeypatch.setattr(volcur.spectra, "_CACHE_CAP", 3 * size)
        _read_table(paths[0], "matrix")            # a hit: m0 is now the most recently used
        _read_table(paths[3], "matrix")            # the fourth entry evicts m1's
        kept = set(cache.iterdir())
        assert entries[1] not in kept and {entries[0], entries[2]} <= kept
        assert len(kept) == 3 and sum(e.stat().st_size for e in kept) <= 3 * size

    def test_a_parse_past_the_cap_is_not_stored(self, tmp_path, cache, monkeypatch):
        small, large = tmp_path / "small.txt", tmp_path / "large.txt"
        small.write_text("2 1\n1 2\n")
        large.write_text("1 0 0\n0 1 0\n0 0 1\n")
        _read_table(small, "matrix")
        [entry] = cache.glob("*.npy")
        monkeypatch.setattr(volcur.spectra, "_CACHE_CAP", 9 * 8 - 1)
        assert _read_table(large, "matrix").tolist() == np.eye(3).tolist()
        assert sorted(cache.iterdir()) == [entry]

    @pytest.mark.parametrize("mode, other_uid", [(0o770, 0), (0o702, 0), (0o700, 1)],
                             ids=["group-writable", "world-writable", "another-users"])
    def test_a_directory_others_may_write_is_no_cache(self, tmp_path, cache, mode, other_uid):
        p, q = tmp_path / "m.txt", tmp_path / "n.txt"
        p.write_text("2 1\n1 2\n")
        q.write_text("3 1\n1 3\n")
        _read_table(p, "matrix")
        [entry] = cache.glob("*.npy")
        np.save(entry, np.eye(2))                   # a planted parse under p's name
        cache.chmod(mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "getuid", lambda: cache.stat().st_uid + other_uid)
            assert _read_table(p, "matrix").tolist() == [[2, 1], [1, 2]]
            assert _read_table(q, "matrix").tolist() == [[3, 1], [1, 3]]
        assert sorted(cache.iterdir()) == [entry]   # nothing stored
        cache.chmod(0o700)
        assert _read_table(p, "matrix").tolist() == np.eye(2).tolist()
