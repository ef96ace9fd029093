"""Every text parser raises only its declared error type, whatever the input;
`eval` turns every malformed collection file into one `error:` line;
`natural`, the one reader of every number, reads exactly the numbers written
in ASCII digits up to its bound; and a presentation reads the same in any
order of its lines."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from computadlab import freecat
from computadlab.cli import main
from computadlab.computads import MAX_DIM, ComputadError, loads_computad
from computadlab.freecat import LARGEST, FreecatError, natural
from computadlab.operads import (
    OperadError, is_strongly_regular_presentation, parse_presentation,
)
from oracles import PastingError, tree_from_str


def term_from_str(text):
    """The term parser, over a generator map of the grammar's names."""
    return freecat.term_from_str(text, {"a": 0, "f": 1, "m": 1, "x": 2})


PARSERS = [
    (term_from_str, FreecatError),
    (parse_presentation, OperadError),
    (loads_computad, ComputadError),
    (tree_from_str, PastingError),
]

# Pieces of every grammar above. Digits join into numbers of many digits:
# `loads_computad` refuses a `dim` above `MAX_DIM` before it builds a layer.
TOKENS = ["dim ", "op ", "eq ", "0", "1", "2", "9", "²", "-", "a", "f", "m", "x",
          " ", "\n", "#", ":", "=", "=>", "->", ",", "(", ")", "gen(",
          "id1(", "comp_0(", "comp_1(", "comp_"]

texts = st.one_of(st.text(max_size=60),
                  st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))


@pytest.mark.parametrize("parse, error", PARSERS, ids=lambda p: p.__name__)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=texts)
@example(text="op m : ²")
@example(text=f"dim {MAX_DIM + 1}\n0 a\n")
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=12)


def right_or_wrong(right):
    """A field of the shape a collection expects, or any JSON value."""
    return st.one_of(right, json_values)


elements = st.lists(right_or_wrong(st.sampled_from(["a", "b", "c"])), max_size=3)
action_entries = st.fixed_dictionaries({}, optional={
    "perm": right_or_wrong(st.permutations([0, 1])),
    "map": right_or_wrong(st.dictionaries(st.sampled_from(["a", "b"]),
                                          st.sampled_from(["a", "b"]))),
})
payloads = st.one_of(
    elements,
    st.fixed_dictionaries({}, optional={
        "elements": right_or_wrong(elements),
        "action": right_or_wrong(st.lists(right_or_wrong(action_entries), max_size=2)),
    }),
    json_values,
)
collections = st.dictionaries(st.sampled_from(["-1", "0", "2", "x"]), payloads,
                              max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=st.one_of(json_values, collections))
def test_eval_rejects_malformed_collections_in_one_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "collection.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eval", path, "--set", "a,b"])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert not lines
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


# words that may or may not write a number: any text, digit strings with
# leading zeros and beyond `LARGEST`, and what `int()` would read but
# `natural` must not (a sign, an underscore, spaces, other digits)
words = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"0{0,30}[0-9]{1,25}", fullmatch=True),
    st.sampled_from(["", "+1", "-1", "1_0", " 4", "4 ", "\u0662", "\u00b2", "9" * 5000]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(word=words, largest=st.one_of(st.integers(-1, 100), st.integers(0, 10**20)))
def test_natural_reads_exactly_the_ascii_numbers_up_to_largest(word, largest):
    n = natural(word, largest)  # never raises
    number = word.isascii() and word.isdigit()
    assert n is None or (number and n == int(word) <= largest)
    if number and len(word) < 100 and int(word) <= largest:
        assert n == int(word)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 10**20), zeros=st.integers(0, 40), slack=st.integers(-1, 10**20))
def test_natural_reads_leading_zeros(n, zeros, slack):
    assert natural("0" * zeros + str(n), n + slack) == (n if slack >= 0 else None)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(word=words)
def test_a_flag_runs_exactly_when_natural_reads_it(word):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["trees", "--height", word, "--width", "0"])
    if natural(word, LARGEST) is not None:
        assert code == 0 and not err.getvalue()
    else:
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
        assert len(err.getvalue().encode()) <= 200


@st.composite
def presentations(draw):
    """Declared ops of arity 0 to 3, and equations whose sides use only
    them and the variables x, y, z: the op lines, the equation lines, and
    each equation's (left, right) variable occurrences."""
    ops = draw(st.dictionaries(st.sampled_from("mnce"), st.integers(0, 3), min_size=1))

    def side(depth):
        # a term as (text, its variable occurrences left to right)
        head = draw(st.sampled_from(
            ["x", "y", "z"] + [sym for sym, n in ops.items() if depth or not n]))
        if head not in ops:
            return head, [head]
        args = [side(depth - 1) for _ in range(ops[head])]
        text = f"{head}({','.join(t for t, _ in args)})" if args else head
        return text, [v for _, vs in args for v in vs]

    equations = [(side(2), side(2)) for _ in range(draw(st.integers(1, 4)))]
    return ([f"op {sym} : {n}" for sym, n in ops.items()],
            [f"eq {lt} = {rt}" for (lt, _), (rt, _) in equations],
            [(lv, rv) for (_, lv), (_, rv) in equations])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=presentations(), data=st.data())
def test_a_presentation_reads_the_same_in_any_line_order(drawn, data):
    op_lines, eq_lines, variables = drawn
    lines = eq_lines + op_lines
    order = data.draw(st.permutations(range(len(lines))))
    p = parse_presentation("\n".join(lines[i] for i in order))
    assert p.ops == {line.split()[1]: int(line.split()[3]) for line in op_lines}
    assert p.equations == [variables[i] for i in order if i < len(eq_lines)]
    # strongly regular: both sides the same variables, each once, in order
    assert is_strongly_regular_presentation(p).strongly_regular == all(
        lv == rv and len(set(lv)) == len(lv) for lv, rv in variables)
