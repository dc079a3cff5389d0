import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volcur import (
    DegenerateTailError,
    PiecewiseDyadicSpectrum,
    Spectrum,
    ValidationError,
    concat,
    generate_dyadic,
    generate_geometric,
    generate_power_law,
    load_spectrum,
    make_spectrum,
    parse_generator_spec,
    split_head_tail,
)

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


class TestPiecewiseDyadic:
    def test_materialized_matches_generate(self):
        d = PiecewiseDyadicSpectrum(lmax=4, base=0.25)
        assert np.array_equal(
            d.materialized.values, generate_dyadic(4, 0.25).materialized.values)

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
        back = concat(split.head, split.tail)
        assert np.array_equal(back.values, s.values)
        assert split.head.n == k
        assert split.tail.n == s.n - k

    def test_concat_merges_sorted(self):
        a = make_spectrum([3.0, 1.0])
        b = make_spectrum([2.0])
        assert np.array_equal(concat(a, b).values, [3.0, 2.0, 1.0])


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

    def test_parse_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            parse_generator_spec("zipf:s=1,n=3")

    def test_parse_rejects_missing_or_extra_keys(self):
        with pytest.raises(ValidationError):
            parse_generator_spec("geom:q=0.5")
        with pytest.raises(ValidationError):
            parse_generator_spec("geom:q=0.5,n=3,extra=1")
