import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcur import (
    DENSE_CAP,
    CapExceededError,
    DegenerateTailError,
    PiecewiseDyadicSpectrum,
    Spectrum,
    ValidationError,
    esp_ratios,
    generate_dyadic,
    generate_geometric,
    generate_power_law,
    load_spectrum,
    make_spectrum,
    parse_generator_spec,
    split_head_tail,
)
from volcur.spectra import _CHUNK

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
        assert s.rank == 0

    def test_values_read_only(self):
        s = make_spectrum([2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([1.0, 2.0]))

    def test_direct_construction_copies(self):
        values = np.array([2.0, 1.0])
        s = Spectrum(values)
        assert not np.shares_memory(s.values, values)
        assert values.flags.writeable

    def test_iteration_is_refused(self):
        with pytest.raises(TypeError):
            iter(make_spectrum([2.0, 1.0]))

    @given(positive_lists)
    def test_rank_counts_positive_entries(self, xs):
        s = make_spectrum(xs)
        assert s.rank == sum(1 for x in xs if x > 0)


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
        s = generate_dyadic(3, 0.25)
        # levels: 1 copy of 1, 2 copies of 1/4, 4 copies of 1/16
        expected = [1.0, 0.25, 0.25, 0.0625, 0.0625, 0.0625, 0.0625]
        assert s.n == 7
        assert np.allclose(s.materialized.values, expected, rtol=0, atol=0)

    def test_numpy_integer_lengths(self):
        assert np.array_equal(generate_geometric(0.5, np.int64(4)).values,
                              generate_geometric(0.5, 4).values)
        assert np.array_equal(generate_power_law(2.0, np.int64(4)).values,
                              generate_power_law(2.0, 4).values)
        d = generate_dyadic(np.int64(3), 0.25)
        assert type(d.lmax) is int and d.n == 7
        for make in (lambda: generate_geometric(0.5, 4.0),
                     lambda: generate_power_law(2.0, 4.0)):
            with pytest.raises(ValidationError, match="^n must be a positive integer$"):
                make()
        with pytest.raises(ValidationError, match="^lmax must be a positive integer$"):
            generate_dyadic(3.0, 0.25)

    def test_dyadic_length_is_power_of_two_minus_one(self):
        for lmax in range(1, 8):
            assert generate_dyadic(lmax, 0.5).n == 2 ** lmax - 1
            assert generate_dyadic(lmax, 0.5).materialized.n == 2 ** lmax - 1


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

    @pytest.mark.parametrize("s, want", [
        (generate_power_law(200.0, 1000), dense_power_law(200.0, 1000)),
        (generate_geometric(0.5, 2000), dense_geometric(0.5, 2000)),
        (generate_power_law(2.0, 3 * _CHUNK + 7), dense_power_law(2.0, 3 * _CHUNK + 7)),
    ], ids=["pow-underflow", "geom-underflow", "pow-positive"])
    def test_rank_counts_what_the_dense_values_count(self, s, want):
        assert s.rank == np.count_nonzero(want > 0.0)
        assert "values" not in vars(s)          # found without materializing

    def test_tail_sums_sum_chunks(self):
        s = generate_power_law(1.0, 3 * _CHUNK + 7)
        values = dense_power_law(1.0, s.n)
        for k in (0, 5, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 3, s.n - 1, s.n, s.n + 9):
            assert s.tail_sum(k) == pytest.approx(math.fsum(values[k:]), rel=1e-15, abs=0)

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
            d.materialized.values, generate_dyadic(4, 0.25).materialized.values)

    @pytest.mark.parametrize("base", [0.3, 0.4, 0.7])
    def test_materialized_entries_are_the_piece_values(self, base):
        # Python's base**l: numpy's vectorized power gives 0.008099999999999998
        # for 0.3**4 on some CPUs, where Python's gives 0.0081
        d = PiecewiseDyadicSpectrum(lmax=8, base=base)
        assert d.pieces == tuple((2**level - 1, 2**level, base**level) for level in range(8))
        values = d.materialized.values
        for start, count, value in d.pieces:
            assert np.all(values[start : start + count] == value)

    @pytest.mark.parametrize("lmax", [31, 64])
    def test_materialized_above_the_cap_is_refused(self, lmax):
        d = PiecewiseDyadicSpectrum(lmax=lmax, base=0.5)
        with pytest.raises(CapExceededError, match=f"cap {DENSE_CAP}$"):
            d.materialized

    def test_analytic_tail_sum_matches_materialized(self):
        d = PiecewiseDyadicSpectrum(lmax=6, base=0.3)
        m = d.materialized
        for k in range(d.n + 2):
            assert d.tail_sum(k) == pytest.approx(m.tail_sum(k), rel=1e-12, abs=1e-300)

    def test_quarter_base_dominates_inverse_squares(self):
        # mu_i >= 1/i^2 entrywise when base = 1/4
        for lmax in (3, 10, 20):
            d = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
            i = np.arange(1, d.n + 1, dtype=float)
            assert np.all(d.materialized.values >= 1.0 / i ** 2 - 1e-15)

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
        with pytest.raises(DegenerateTailError):
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
        p = tmp_path / "s.txt"
        p.write_text("3,1\n2\n")
        assert np.array_equal(load_spectrum(p).values, [3.0, 2.0, 1.0])

    def test_load_spectrum_rejects_garbage(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1 banana\n")
        with pytest.raises(ValidationError):
            load_spectrum(p)

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
