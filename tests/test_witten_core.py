"""Finite-group Witten L-functions and the character-table format."""

from fractions import Fraction

import pytest

from wittenzeta.errors import DomainError
from wittenzeta.witten_core import (BUILTIN_TABLES, Q8, S3, GaussianRational,
                                    TableFormatError, finite_witten_L,
                                    finite_witten_L_exact, haar_average_finite,
                                    load_table, parse_gaussian, parse_table)

F = Fraction


class TestParseGaussian:
    @pytest.mark.parametrize("text,re_,im", [
        ("2", F(2), F(0)),
        ("-1/2", F(-1, 2), F(0)),
        ("1+1i", F(1), F(1)),
        ("2i", F(0), F(2)),
        ("-i", F(0), F(-1)),
        ("i", F(0), F(1)),
        ("1/2-3/4i", F(1, 2), F(-3, 4)),
        ("-2-2i", F(-2), F(-2)),
    ])
    def test_valid(self, text, re_, im):
        g = parse_gaussian(text)
        assert (g.re, g.im) == (re_, im)

    @pytest.mark.parametrize("text", ["", "1+", "x", "1+2j", "1//2"])
    def test_invalid(self, text):
        with pytest.raises(TableFormatError):
            parse_gaussian(text)


_S3_TEXT = """
# symmetric group on three letters
group S3 6
classes 1 3 2
irrep 1 1 1 1
irrep 1 1 -1 1
irrep 2 2 0 -1
"""

# the symmetric group S4: classes e, (12), (12)(34), (123), (1234)
_S4_TEXT = """group S4 24
classes 1 6 3 8 6
irrep 1 1 1 1 1 1
irrep 1 1 -1 1 1 -1
irrep 2 2 0 2 -1 0
irrep 3 3 1 -1 0 -1
irrep 3 3 -1 -1 0 1
"""


class TestGaussianRational:
    def test_hash_agrees_with_equality(self):
        a, b = GaussianRational(F(1, 2), F(-3)), GaussianRational(F(2, 4),
                                                                 F(-3))
        assert a == b and hash(a) == hash(b)
        assert b in {a} and {a: "v"}[b] == "v"

    def test_immutable(self):
        with pytest.raises(AttributeError, match="is immutable"):
            GaussianRational(F(1)).re = F(2)

    def test_other_types_are_unequal(self):
        # __eq__ returns NotImplemented, so == falls back to identity
        assert GaussianRational(F(1)) != F(1)
        assert GaussianRational(F(1)) != "1"


class TestParseTable:
    def test_round_trip(self):
        table = parse_table(_S3_TEXT)
        assert table.order == 6
        assert table.n_classes == 3
        assert finite_witten_L_exact(table, -2, 0) == GaussianRational.of(6)

    def test_load_table(self, tmp_path):
        path = tmp_path / "s3.tbl"
        path.write_text(_S3_TEXT)
        assert load_table(str(path)).name == "S3"

    def test_bad_degree_sum(self):
        bad = _S3_TEXT.replace("irrep 2 2 0 -1", "irrep 3 3 0 -1")
        with pytest.raises(TableFormatError):
            parse_table(bad)

    def test_bad_directive(self):
        with pytest.raises(TableFormatError, match="line 2"):
            parse_table("group G 1\nnonsense\n")

    def test_missing_sections(self):
        with pytest.raises(TableFormatError):
            parse_table("group G 6\n")

    def test_char_at_identity_must_be_degree(self):
        bad = _S3_TEXT.replace("irrep 2 2 0 -1", "irrep 2 1 0 -1")
        with pytest.raises(TableFormatError):
            parse_table(bad)

    @pytest.mark.parametrize("old,new,match", [
        ("classes 1 3 2", "classes 1 3 3", "sum to 7, not the group order 6"),
        ("classes 1 3 2", "classes 3 1 2", "first class must be the identity"),
        ("irrep 2 2 0 -1", "irrep 2 2 0", "has 2 character values, "
                                          "expected 3"),
        ("group S3 6", "group S3", "line 3: expected: group <name> <order>"),
        ("classes 1 3 2", "classes 1 -3 2",
         "line 4: class sizes must be positive"),
        ("irrep 2 2 0 -1", "irrep 2",
         "line 7: expected: irrep <degree> <chi ...>"),
    ])
    def test_table_checks(self, old, new, match):
        with pytest.raises(TableFormatError, match=match):
            parse_table(_S3_TEXT.replace(old, new))


class TestAnchors:
    @pytest.mark.parametrize("table", [S3, Q8])
    def test_s_minus2_counts_group_order(self, table):
        vals = [finite_witten_L_exact(table, -2, c)
                for c in range(table.n_classes)]
        assert vals[0] == GaussianRational.of(table.order)
        assert all(v.is_zero for v in vals[1:])

    def test_q8_identity_at_zero_counts_irreps(self):
        # sum over irreps of chi(1)/deg = number of irreps
        assert finite_witten_L_exact(Q8, 0, 0) == GaussianRational.of(5)
        assert finite_witten_L_exact(S3, 0, 0) == GaussianRational.of(3)

    def test_exact_vs_float_path(self):
        for c in range(S3.n_classes):
            exact = complex(finite_witten_L_exact(S3, 3, c))
            approx = finite_witten_L(S3, 3.0 + 1e-9j, c)
            assert abs(exact - approx) <= 1e-8
            # the float route at the integer itself
            assert abs(finite_witten_L(S3, 3, c) - exact) <= 1e-15

    def test_haar_average_is_one(self):
        for table in (S3, Q8):
            for s in (0.7, -1.3, 2.5 + 1.0j, -0.25 - 2.0j):
                assert abs(haar_average_finite(table, s) - 1.0) <= 1e-12

    def test_s4_past_a_double_is_domain_error(self):
        # the float route at an integer s too: 3^701 overflows it
        table = parse_table(_S4_TEXT)
        with pytest.raises(DomainError, match="overflows"):
            finite_witten_L(table, -700, 0)
        with pytest.raises(DomainError, match="overflows"):
            haar_average_finite(table, -700)

    @pytest.mark.parametrize("s", [-2, -1, 0, 2])
    def test_s4_haar_average_is_one(self, s):
        table = parse_table(_S4_TEXT)
        assert abs(haar_average_finite(table, s) - 1.0) <= 1e-12

    def test_class_index_range(self):
        with pytest.raises(DomainError):
            finite_witten_L_exact(S3, 0, 3)
        with pytest.raises(DomainError, match="class index -1"):
            finite_witten_L(S3, 0.5, -1)

    @pytest.mark.parametrize("last,past", [(1000, 1001), (-1000, -1001)])
    def test_exact_order_bound(self, last, past):
        finite_witten_L_exact(S3, last, 0)
        with pytest.raises(DomainError, match="1000"):
            finite_witten_L_exact(S3, past, 0)

    def test_builtins_registered(self):
        assert BUILTIN_TABLES == {"S3": S3, "Q8": Q8}

    def test_builtin_checked_on_first_lookup(self):
        # the builtin tables go through parse_table at import, which checks
        # row orthogonality: here it fails between the two linear characters
        bad = _S3_TEXT.replace("irrep 1 1 -1 1", "irrep 1 1 1 -1")
        with pytest.raises(TableFormatError, match="orthogonality"):
            parse_table(bad)
