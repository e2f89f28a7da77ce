"""Every public function of the library, called with drawn arguments, returns
or raises a `MotzkinError` with a one-line-sized message: never a bare
exception.

Integers come from small values, where the domains begin; negatives of any
magnitude; and the guards' boundaries.  Texts are of any alphabet, of '0',
'(' and ')' only, or balanced words, up to 200 symbols.  In-domain sizes stay
small enough to run in milliseconds from an empty table: a row plus its
column at most 200, an enumeration length at most 10.  Huge in-domain sizes,
which grow a table with the caller's value, are not drawn here.
"""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motzkin import oracle, pair_arith, sequences, weights, word_model
from motzkin.errors import MotzkinError

from long_words import canonical_texts

_HUGE_NEGATIVES = [-10**5000, -10**80, -10**80 + 1]


def _sizes(most):
    """An integer argument that reaches at most row `most` when in the domain."""
    return st.one_of(st.integers(-3, 12), st.integers(-3, most), st.integers(max_value=-4),
                     st.sampled_from(_HUGE_NEGATIVES))


def _past(most, guard):
    """A size argument with a guard: in range up to `most`, or past the guard."""
    return st.one_of(_sizes(most), st.integers(guard + 1, guard + 3),
                     st.sampled_from([10**80, 10**5000]))


_SIZE = _sizes(99)  # two sizes, row plus column, stay under 200
_INDEX = st.one_of(_SIZE, st.integers(-3, 10**80))  # a rank of a word under 200 symbols
_TEXT = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="0()", max_size=200),
    st.just("0"),
    st.tuples(st.integers(0, 3), canonical_texts(2, 197)).map(lambda z: "0" * z[0] + z[1]))
_WORD = object()  # a parameter that takes a Word: a drawn text, parsed first

_ARGUMENTS = {
    sequences.completions: (_SIZE, _SIZE),
    sequences.motzkin_number: (_SIZE,),
    sequences.unique_count: (_SIZE,),
    sequences.delta: (_SIZE,),
    sequences.delta_prime: (_SIZE,),
    weights.pair_weight: (_SIZE, _SIZE),
    weights.pair_nest_weight: (_SIZE, _SIZE, _SIZE),
    weights.pair_catalog_index: (_SIZE, _SIZE),
    weights.prime_pair_word: (_SIZE, _SIZE),
    weights.range_extrema: (_SIZE,),
    weights.rank: (_WORD,),
    weights.unrank: (_INDEX,),
    weights.decompose: (_WORD,),
    weights.compose: (_past(199, weights.MAX_COMPOSE_LENGTH),
                      st.lists(st.tuples(_SIZE, _SIZE), max_size=4)),
    oracle.completions: (_SIZE, _SIZE),
    oracle.enumerate_range: (_past(10, oracle.MAX_ENUM_LENGTH),),
    oracle.rank_by_counting: (_WORD,),
    pair_arith.padd: (_WORD, _WORD),
    pair_arith.psub: (_WORD, _WORD),
    word_model.parse: (_TEXT,),
    word_model.is_umw: (_WORD,),
    word_model.matched_pairs: (_WORD,),
    word_model.prime_segments: (_WORD,),
    word_model.compare_lex: (_WORD, _WORD),
    word_model.strip_leading_zeros: (_WORD,),
}


def test_every_public_function_is_drawn():
    public = {obj for module in (sequences, weights, oracle, pair_arith, word_model)
              for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_")}
    assert public == set(_ARGUMENTS)


def _short_error(call, *args):
    """Call; a `MotzkinError` with a message under 200 characters is an answer too."""
    try:
        return call(*args)
    except MotzkinError as exc:
        assert len(str(exc)) < 200
        return exc


@pytest.mark.parametrize("function", list(_ARGUMENTS),
                         ids=lambda f: f"{f.__module__.rpartition('.')[2]}.{f.__name__}")
@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_any_call_returns_or_raises_a_short_motzkin_error(function, fresh_state, data):
    fresh_state()  # fixtures run once per test, not per example
    args = []
    for strategy in _ARGUMENTS[function]:
        if strategy is _WORD:
            arg = _short_error(word_model.Word, data.draw(_TEXT))
            if isinstance(arg, MotzkinError):
                return
        else:
            arg = data.draw(strategy)
        args.append(arg)
    _short_error(function, *args)
