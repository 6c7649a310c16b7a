"""Linear forms of index expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.access import linear_form
from repro.ppl import builder as b
from repro.ppl.ir import BinOp, Select, UnaryOp


class TestLinearForm:
    def test_constant(self):
        form = linear_form(b.idx(7))
        assert form.is_constant and form.constant == 7

    def test_single_symbol(self):
        i = b.index_sym("i")
        form = linear_form(i)
        assert form.coefficient(i) == 1

    def test_sum_and_scale(self):
        i, j = b.index_sym("i"), b.index_sym("j")
        form = linear_form(b.add(b.mul(3, i), b.add(j, 2)))
        assert form.coefficient(i) == 3
        assert form.coefficient(j) == 1
        assert form.constant == 2

    def test_subtraction_and_negation(self):
        i = b.index_sym("i")
        form = linear_form(b.sub(10, i))
        assert form.coefficient(i) == -1
        assert form.constant == 10
        neg = linear_form(UnaryOp("neg", i))
        assert neg.coefficient(i) == -1

    def test_product_of_symbols_is_not_linear(self):
        i, j = b.index_sym("i"), b.index_sym("j")
        assert linear_form(b.mul(i, j)) is None

    def test_data_dependent_is_not_linear(self):
        x = b.array_sym("x", 1)
        assert linear_form(b.apply_array(x, 0)) is None

    def test_select_is_not_linear(self):
        i = b.index_sym("i")
        from repro.ppl.ir import Cmp

        assert linear_form(Select(Cmp("<", i, b.idx(1)), i, b.idx(0))) is None

    def test_removal(self):
        i, j = b.index_sym("i"), b.index_sym("j")
        form = linear_form(b.add(i, b.add(j, 5)))
        assert set(form.without([i]).coeffs) == {j}
        assert form.without([i]).constant == 5

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_linear_combination_roundtrip(self, a, c, k):
        i, j = b.index_sym("i"), b.index_sym("j")
        expr = b.add(b.add(b.mul(a, i), b.mul(c, j)), k)
        form = linear_form(expr)
        assert form is not None
        assert form.coefficient(i) == (a if a not in (0,) else 0)
        assert form.coefficient(j) == (c if c not in (0,) else 0)
        assert form.constant == k

