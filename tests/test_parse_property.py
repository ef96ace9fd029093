"""Every text parser raises only its declared error type, whatever the input."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from computadlab.computads import ComputadError, loads_computad
from computadlab.freecat import FreecatError, term_from_str
from computadlab.globular import GlobularError
from computadlab.operads import OperadError, parse_presentation
from computadlab.pasting import tree_from_str

PARSERS = [
    (term_from_str, FreecatError),
    (parse_presentation, OperadError),
    (loads_computad, ComputadError),
    (tree_from_str, GlobularError),
]

# Pieces of every grammar above. Each number ends in a space, so no run of
# digits is longer than one: a huge `dim` would allocate that many layers.
TOKENS = ["dim ", "op ", "eq ", "0 ", "1 ", "2 ", "²", "-", "a", "f", "m", "x",
          " ", "\n", "#", ":", "=", "=>", "->", ",", "(", ")", "gen(",
          "id1(", "comp_0(", "comp_1(", "comp_"]

texts = st.one_of(st.text(max_size=60),
                  st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))


@pytest.mark.parametrize("parse, error", PARSERS, ids=lambda p: p.__name__)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=texts)
@example(text="op m : ²")
@example(text="(" * 3000 + ")" * 3000)
@example(text="id1(" * 3000 + "gen(a)" + ")" * 3000)
@example(text="dim 1\n0 a\n1 f : " + "id1(" * 3000 + "gen(a)" + ")" * 3000
         + " => gen(a)\n")
@example(text="eq " + "m(" * 3000 + "x" + ")" * 3000 + " = x\n")
def test_parsers_raise_only_declared_errors(parse, error, text):
    try:
        parse(text)
    except error:
        pass
