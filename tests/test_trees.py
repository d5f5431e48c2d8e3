import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treetag import trees
from treetag.metrics import PUNCT_POS
from treetag.trees import (
    Internal,
    Leaf,
    ParseError,
    Sentence,
    demo_grammar,
    leaves,
    load_trees,
    parse_bracketed,
    random_tree,
    sample_corpus,
    save_trees,
    serialize,
    strip_function,
)
from test_walks import _oracle_spans_and_leaves

THREE_LEAF = "(S (NP (D the) (N dog)) (VP (V barks)))"


def depth(tree):
    """Height in node levels: a bare preterminal has depth 1."""
    if isinstance(tree, Leaf):
        return 1
    return 1 + max(depth(c) for c in tree.children)


def test_parse_simple():
    trees = parse_bracketed(THREE_LEAF)
    assert len(trees) == 1
    t = trees[0]
    assert isinstance(t, Internal) and t.label == "S"
    assert len(Sentence.from_tree(t)) == 3
    assert [l.word for l in leaves(t)] == ["the", "dog", "barks"]
    assert [l.pos for l in leaves(t)] == ["D", "N", "V"]


def test_parse_unary_chain():
    (t,) = parse_bracketed("(X (Y a))")
    assert t == Internal("X", [Leaf("Y", "a")])


def test_parse_multiple_trees():
    trees = parse_bracketed("(A (B x))  (C (D y))")
    assert len(trees) == 2


@pytest.mark.parametrize("text, counts, expected", [
    ("(S (A a) (B b)) (S (A c) (B d))", [2, 4], [("S", 0, 2), ("S", 2, 4)]),
    ("(S (A a) (B b))\n(NP (A c))\n(T (A e) (, f) (C g))", [2, 3, 6],
     [("S", 0, 2), ("NP", 2, 3), ("T", 3, 5)]),
])
def test_span_mode_counts_run_on_across_trees(tmp_path, text, counts, expected):
    """Span mode returns running leaf counts and offsets words from the
    start of `text`; load_trees, one tree per line, starts each at 0."""
    spans = []
    assert parse_bracketed(text, spans=spans, skip=PUNCT_POS) == counts
    assert spans == expected
    path = tmp_path / "t.trees"
    path.write_text("".join(serialize(t) + "\n" for t in parse_bracketed(text)), encoding="utf-8")
    forest = load_trees(path, spans=True, skip=PUNCT_POS)
    firsts = [min(start for _, start, _ in tree_spans) for tree_spans, _ in forest]
    assert firsts == [0] * len(counts)
    assert [n for _, n in forest] == [b - a for a, b in zip([0] + counts, counts)]


def test_parse_whitespace_insensitive():
    messy = "( S ( NP ( D the )\n\t( N dog ) ) ( VP ( V barks ) ) )"
    assert parse_bracketed(messy) == parse_bracketed(THREE_LEAF)


def test_parse_unbalanced_reports_offset():
    text = "(S (NP the)"
    with pytest.raises(ParseError) as err:
        parse_bracketed(text)
    assert err.value.offset == len(text.encode("utf-8"))


def test_parse_empty_constituent():
    with pytest.raises(ParseError):
        parse_bracketed("(S () (V b))")


def test_parse_stray_close():
    with pytest.raises(ParseError):
        parse_bracketed(")(")


def test_parse_ptb_wrapper_unwrapped():
    (t,) = parse_bracketed("( (S (NP (D the) (N dog)) (VP (V barks))) )")
    assert t.label == "S"


def test_serialize_round_trip():
    (t,) = parse_bracketed(THREE_LEAF)
    assert serialize(t) == THREE_LEAF
    assert parse_bracketed(serialize(t)) == [t]


def test_serialize_wrapped_leaf():
    t = Internal("X", [Leaf("N", "dog")])
    assert serialize(t) == "(X (N dog))"


def test_escaped_parens_kept_verbatim():
    text = "(S (-LRB- -LRB-) (N dog))"
    (t,) = parse_bracketed(text)
    assert serialize(t) == text


def test_strip_function_labels():
    assert strip_function("NP-SBJ-1") == "NP"
    assert strip_function("NP=2") == "NP"
    assert strip_function("-LRB-") == "-LRB-"
    (t,) = parse_bracketed("(S (NP-SBJ (D the) (N dog)) (VP (V barks)))",
                           strip_functions=True)
    assert t.children[0].label == "NP"


def test_internal_requires_children():
    with pytest.raises(ValueError):
        Internal("S", [])


def test_sentence_invariants():
    with pytest.raises(ValueError):
        Sentence((), ())
    with pytest.raises(ValueError):
        Sentence(("a",), ("N", "V"))
    s = Sentence.from_tree(parse_bracketed(THREE_LEAF)[0])
    assert s.words == ("the", "dog", "barks")
    assert len(s) == 3


def test_load_save_round_trip(tmp_path):
    forest = [random_tree(seed, 12, 8, ["S", "NP", "VP"]) for seed in range(20)]
    path = tmp_path / "forest.trees"
    save_trees(path, forest)
    assert load_trees(path) == forest


def test_load_trees_error_carries_line(tmp_path):
    path = tmp_path / "bad.trees"
    path.write_text("(S (A a))\n(S (B b)\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_trees(path)
    assert err.value.line == 2


def test_load_trees_error_message(tmp_path):
    path = tmp_path / "bad.trees"
    path.write_text("(S (A a))\n(S (B b)\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_trees(path)
    assert str(err.value) == "%s:2: byte 9: unbalanced '('" % path
    assert (err.value.message, err.value.offset) == ("unbalanced '('", 9)


@pytest.mark.parametrize("bad", [Leaf("NN", "a\ud800"), Leaf("N\udce9", "a"),
                                 Internal("S\ud800", [Leaf("NN", "a")])],
                         ids=["word", "pos", "label"])
def test_save_trees_refuses_a_lone_surrogate_and_writes_nothing(tmp_path, bad):
    good = parse_bracketed(THREE_LEAF)[0]
    with pytest.raises(ValueError):
        save_trees(tmp_path / "new.trees", [good, bad])
    assert not (tmp_path / "new.trees").exists()
    old = tmp_path / "old.trees"
    old.write_bytes(b"OLD CONTENT\n")
    with pytest.raises(ValueError):
        save_trees(old, [good, bad])
    assert old.read_bytes() == b"OLD CONTENT\n"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_text_that_utf8_cannot_encode_is_named_by_file_and_line(tmp_path, k):
    lines = ["(S (A caf\u00e9))"] * 3
    lines[k - 1] = "(S (A caf\udce9))"
    path = tmp_path / "out.trees"
    with pytest.raises(ValueError) as err:
        trees.write_text(path, "\n".join(lines) + "\n")
    assert str(err.value) == "%s:%d: not UTF-8 encodable (surrogates not allowed)" % (path, k)
    assert not path.exists()
    with pytest.raises(ValueError, match="^%s:%d: " % (re.escape(str(path)), k)):
        save_trees(path, [parse_bracketed(line)[0] for line in lines])
    assert not path.exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_text_files_read_with_universal_newlines(tmp_path, newline):
    path = tmp_path / "crlf.trees"
    path.write_bytes(newline.join(["(S (A a))", "", "(S (B caf\u00e9))", ""]).encode("utf-8"))
    assert load_trees(path) == parse_bracketed("(S (A a)) (S (B caf\u00e9))")
    assert trees.read_text(path) == "(S (A a))\n\n(S (B caf\u00e9))\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("bad", [b"\xe9", b"\xff", b"\xe2\x82"], ids=["e9", "ff", "cut"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(tmp_path, newline, bad, k):
    lines = [b"(S (A caf\xc3\xa9))"] * 4
    lines[k - 1] = b"(S (A caf" + bad + b"))"
    path = tmp_path / "latin.trees"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    for read in (trees.read_text, load_trees):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value).startswith("%s:%d: not UTF-8 (" % (path, k))
    path.write_bytes(newline.encode().join(lines[:k]))  # the bad byte ends the file
    with pytest.raises(ValueError, match="^%s:%d: " % (re.escape(str(path)), k)):
        trees.read_text(path)


def test_random_tree_deterministic():
    a = random_tree(7, 20, 10, ["S", "NP"])
    b = random_tree(7, 20, 10, ["S", "NP"])
    assert a == b


def test_random_tree_single_leaf():
    t = random_tree(7, 1, 6, ["S", "NP"])
    assert len(Sentence.from_tree(t)) == 1
    node = t
    while isinstance(node, Internal):
        assert len(node.children) == 1
        node = node.children[0]
    assert isinstance(node, Leaf)


@pytest.mark.parametrize("seed", range(0, 200, 7))
def test_random_tree_respects_bounds(seed):
    t = random_tree(seed, 25, 9, ["S", "NP", "VP", "PP", "ADJP"])
    assert len(Sentence.from_tree(t)) <= 25
    assert depth(t) <= 9


def test_random_tree_validates_arguments():
    with pytest.raises(ValueError):
        random_tree(1, 0, 5, ["S"])
    with pytest.raises(ValueError):
        random_tree(1, 5, 0, ["S"])
    with pytest.raises(ValueError):
        random_tree(1, 5, 5, [])


def test_pcfg_sample_deterministic_and_parsable():
    forest = sample_corpus(3, 50)
    assert forest == sample_corpus(3, 50)
    grammar = demo_grammar()
    for t in forest:
        assert t.label in ("S",)
        assert depth(t) <= 9
        for leaf in leaves(t):
            assert leaf.word in grammar.lexicon[leaf.pos]


# ---------------------------------------------------------------------------
# Differential test: the iterative parser against the recursive one it
# replaced, kept here verbatim as the oracle.

def _oracle_parse(text, strip_functions=False):
    tokens = [(m.group(), m.start()) for m in trees._TOKEN_RE.finditer(text)]
    out = []
    i = 0
    while i < len(tokens):
        tree, i = _oracle_group(text, tokens, i, strip_functions)
        out.append(tree)
    return out


def _byte_offset(text, char_pos):
    return len(text[:char_pos].encode("utf-8"))


def _oracle_group(text, tokens, i, strip_functions):
    tok, pos = tokens[i]
    if tok != "(":
        raise ParseError("expected '(', found %r" % tok, _byte_offset(text, pos))
    i += 1
    if i >= len(tokens):
        raise ParseError("unbalanced '('", _byte_offset(text, len(text)))

    tok, pos = tokens[i]
    if tok == ")":
        raise ParseError("empty constituent '()'", _byte_offset(text, pos))

    label = None
    if tok not in ("(", ")"):
        label = tok
        i += 1
        if i >= len(tokens):
            raise ParseError("unbalanced '('", _byte_offset(text, len(text)))
        tok, pos = tokens[i]

    if tok not in ("(", ")") and label is not None:
        # (POS word)
        word = tok
        i += 1
        if i >= len(tokens) or tokens[i][0] != ")":
            at = tokens[i][1] if i < len(tokens) else len(text)
            raise ParseError("expected ')' after leaf", _byte_offset(text, at))
        return Leaf(label, word), i + 1

    children = []
    while i < len(tokens) and tokens[i][0] == "(":
        child, i = _oracle_group(text, tokens, i, strip_functions)
        children.append(child)
    if i >= len(tokens):
        raise ParseError("unbalanced '('", _byte_offset(text, len(text)))
    tok, pos = tokens[i]
    if tok != ")":
        raise ParseError("expected ')', found %r" % tok, _byte_offset(text, pos))
    i += 1

    if not children:
        raise ParseError("constituent %r has no children" % label, _byte_offset(text, pos))
    if label is None:
        if len(children) == 1:
            return children[0], i
        label = "TOP"
    if strip_functions:
        label = strip_function(label)
    return Internal(label, children), i


def _outcome(call):
    try:
        return "trees", call()
    except ParseError as e:
        return "error", str(e), e.offset, e.line


# the last five are whitespace to `str.isspace`, and so to both tokenizers
_PIECES = ["(", ")", " ", "\n", "\t", "S", "NP-SBJ", "a", "\u00e9", "-LRB-",
           "\x0b", "\x1c", "\x85", "\xa0", "\u3000"]

_FUNCTION_ALPHABET = ["S", "NP-SBJ", "VP=2", "PP", "-NONE-"]


@st.composite
def _bracketings(draw):
    """Serialized random trees, sometimes wrapped PTB-style, sometimes
    with one token dropped or inserted, or the text cut short."""
    t = random_tree(draw(st.integers(0, 10**6)), 10, 7, _FUNCTION_ALPHABET)
    text = serialize(t)
    wrap = draw(st.sampled_from(["none", "single", "multi"]))
    if wrap == "single":
        text = "( %s )" % text
    elif wrap == "multi":
        text = "( %s\t%s )" % (text, serialize(random_tree(draw(st.integers(0, 99)), 4, 4, ["X"])))
    edit = draw(st.sampled_from(["none", "drop", "insert", "cut"]))
    tokens = trees._TOKEN_RE.findall(text)
    k = draw(st.integers(0, len(tokens) - 1))
    if edit == "drop":
        text = " ".join(tokens[:k] + tokens[k + 1:])
    elif edit == "insert":
        text = " ".join(tokens[:k] + [draw(st.sampled_from(_PIECES))] + tokens[k:])
    elif edit == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join), _bracketings()),
    st.booleans(),
)
def test_parser_matches_recursive_oracle(tmp_path_factory, text, strip):
    expected = _outcome(lambda: _oracle_parse(text, strip))
    assert _outcome(lambda: parse_bracketed(text, strip)) == expected
    # through load_trees: the same trees, or the same error on the same line
    path = tmp_path_factory.mktemp("parse") / "t.trees"
    path.write_text("(S (A a))\n" + text + "\n", encoding="utf-8")
    with mock.patch.object(trees, "parse_bracketed", _oracle_tree_mode):
        expected = _outcome(lambda: load_trees(path, strip))
    assert _outcome(lambda: load_trees(path, strip)) == expected


def _oracle_tree_mode(text, strip_functions, spans, skip):
    """_oracle_parse in load_trees' place: it reads trees only."""
    assert spans is None
    return _oracle_parse(text, strip_functions)


def test_parser_has_no_nesting_limit():
    text = "(A " * 5000 + "(P w)" + ")" * 5000
    (node,) = parse_bracketed(text)
    for _ in range(5000):
        assert node.label == "A"
        (node,) = node.children
    assert node == Leaf("P", "w")


def test_deep_trees_compare_and_hash():
    def chain(word):
        node = Leaf("P", word)
        for _ in range(5000):
            node = Internal("A", [node])
        return node

    a, b, c = chain("w"), chain("w"), chain("v")
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# The tokenizer: `str.split` around spaced-out brackets gives the tokens of
# the pattern that places errors, on any text.

@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.characters(), st.sampled_from(_PIECES))).map("".join))
def test_split_tokens_match_the_token_pattern(text):
    assert trees._tokens(text) == trees._TOKEN_RE.findall(text)


def test_split_tokens_match_the_token_pattern_on_every_code_point():
    text = "a".join(map(chr, range(0x110000)))
    assert trees._tokens(text) == trees._TOKEN_RE.findall(text)


# ---------------------------------------------------------------------------
# The span reader against the tree reader: the same error, or the spans and
# leaf count of the tree the tree reader reads.

def _read_outcome(call):
    try:
        return "read", call()
    except ParseError as e:
        return "error", e.message, e.offset, e.line, e.path


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_bracketings(), st.booleans(), st.booleans())
def test_span_reader_matches_the_tree_reader(tmp_path_factory, text, strip_functions,
                                             strip_punctuation):
    text = text.replace("P0", ",").replace("P1", "''")  # two POS tags become punctuation
    path = tmp_path_factory.mktemp("spans") / "t.trees"
    path.write_text(text + "\n", encoding="utf-8")
    skip = PUNCT_POS if strip_punctuation else ()

    def read_spans():
        forest = load_trees(path, strip_functions, spans=True, skip=skip)
        return [(list(Counter(spans).items()), leaves) for spans, leaves in forest]

    def read_trees():
        forest = load_trees(path, strip_functions)
        return [(list(spans.items()), leaves) for spans, leaves in
                (_oracle_spans_and_leaves(tree, strip_punctuation) for tree in forest)]

    assert _read_outcome(read_spans) == _read_outcome(read_trees)
