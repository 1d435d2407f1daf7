"""Word grammar: e<k>, v<k>, r<k>, r<k>^-1."""

import pytest
from hypothesis import given, strategies as st

from vtl.errors import WordParseError
from vtl.words import (
    E,
    RHO,
    RHO_INV,
    V,
    GeneratorSymbol,
    GeneratorWord,
    parse_word,
    render_symbol,
    render_word,
    symbol,
)

N = 5

symbols = st.builds(
    GeneratorSymbol,
    st.sampled_from([E, V, RHO, RHO_INV]),
    st.integers(min_value=1, max_value=N - 1),
)


def test_parse_simple():
    w = parse_word("e1 v2 r3", N)
    assert w.n == N
    assert w.symbols == (
        GeneratorSymbol(E, 1),
        GeneratorSymbol(V, 2),
        GeneratorSymbol(RHO, 3),
    )
    assert len(w) == 3


def test_parse_inverse_marker():
    w = parse_word("r2^-1", N)
    assert w.symbols == (GeneratorSymbol(RHO_INV, 2),)
    assert render_word(w) == "r2^-1"


def test_empty_word_is_identity():
    w = parse_word("", N)
    assert w.symbols == ()
    assert render_word(w) == ""


@given(st.lists(symbols, max_size=12))
def test_render_parse_round_trip(syms):
    word = GeneratorWord(N, tuple(syms))
    assert parse_word(render_word(word), N) == word


def test_error_reports_token_position():
    with pytest.raises(WordParseError) as err:
        parse_word("e1 v2 q3", N)
    assert err.value.position == 3
    with pytest.raises(WordParseError) as err:
        parse_word("e1 e9", 4)
    assert err.value.position == 2


def test_inverse_only_on_braid_letters():
    with pytest.raises(WordParseError) as err:
        parse_word("e1^-1", N)
    assert err.value.position == 1
    with pytest.raises(WordParseError):
        parse_word("v2^-1", N)


def test_site_range_depends_on_strand_count():
    parse_word("e3", 4)
    with pytest.raises(WordParseError):
        parse_word("e3", 3)
    with pytest.raises(WordParseError):
        parse_word("e0", 3)


def test_symbol_validation_and_render():
    assert render_symbol(symbol("e", 2)) == "e2"
    assert render_symbol(symbol("r_inv", 1)) == "r1^-1"
    with pytest.raises(ValueError):
        symbol("x", 1)


def test_symbol_equality_ordering_and_repr():
    a, b = GeneratorSymbol(E, 2), GeneratorSymbol(E, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != GeneratorSymbol(V, 2) and a != GeneratorSymbol(E, 3)
    assert (a.kind, a.index) == (E, 2)
    # ordered by (kind, index): kind first, as strings
    syms = [GeneratorSymbol(V, 1), GeneratorSymbol(RHO, 2), GeneratorSymbol(E, 3),
            GeneratorSymbol(E, 1), GeneratorSymbol(RHO_INV, 1)]
    assert sorted(syms) == sorted(syms, key=lambda s: (s.kind, s.index))
    assert [repr(s) for s in sorted(syms)] == ["e1", "e3", "r2", "r1^-1", "v1"]
    assert GeneratorSymbol(E, 1) < GeneratorSymbol(E, 2) < GeneratorSymbol(RHO, 1)
    with pytest.raises(AttributeError):
        a.index = 3
