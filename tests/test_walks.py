"""Differential tests: the iterative tree walks against the recursive ones
they replaced (``encodings.boundaries``, ``metrics._spans_and_leaves`` and
``trees.serialize``), kept here verbatim as oracles.  The spans oracle also
checks the span reader (``trees.parse_bracketed`` with ``spans``), which
took over punctuation stripping from the walk.  ``metrics.span_counts``,
which split each whole-label span into its ``+``-joined members as it
counted, is kept here too: the reader, the walk and the decoder now split
as they emit, and must count the same."""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from treetag.trees import Internal, Leaf, demo_grammar, parse_bracketed, random_tree, serialize
from treetag.trees import leaves as leaf_nodes
from treetag.encodings import CHAIN_SEP, DUMMY, RELATIVE, _check_label, boundaries, encode
from treetag.encodings import decoded_spans
from treetag.metrics import PUNCT_POS, _spans_and_leaves


# ---------------------------------------------------------------------------
# The recursive walks.

def _oracle_boundaries(tree):
    u_chains = []
    pairs = []

    def walk(node, depth):
        chain = []
        while isinstance(node, Internal) and len(node.children) == 1:
            _check_label(node.label)
            chain.append(node.label)
            node = node.children[0]
        if isinstance(node, Leaf):
            u_chains.append(CHAIN_SEP.join(chain))
            return 0
        _check_label(node.label)
        chain.append(node.label)
        # this node is the LCA of the pairs straddling its children; their
        # priority is known once all children have returned
        splits = []
        priority = walk(node.children[0], depth + 1)
        for child in node.children[1:]:
            splits.append(len(pairs))
            pairs.append(None)
            priority = max(priority, walk(child, depth + 1))
        priority += 1
        label = CHAIN_SEP.join(chain)
        for i in splits:
            pairs[i] = (depth, label, priority)
        return priority

    walk(tree, 1)
    return u_chains, pairs


def _oracle_spans_and_leaves(tree, strip_punctuation):
    """labeled_spans(tree) and the raw leaf count, from one walk."""
    spans = []
    leaves = 0

    def walk(node, i):
        nonlocal leaves
        if isinstance(node, Leaf):
            leaves += 1
            if strip_punctuation and node.pos in PUNCT_POS:
                return i
            return i + 1
        j = i
        for child in node.children:
            j = walk(child, j)
        if j > i:
            for part in node.label.split(CHAIN_SEP):
                spans.append((part, i, j))
        return j

    walk(tree, 0)
    return Counter(spans), leaves


def _oracle_whole_spans(tree, skip=()):
    """The (label, start, end) span of each phrase node of `tree` over the
    leaves whose POS is not in `skip`, labels left whole, in post-order."""
    spans = []

    def walk(node, i):
        if isinstance(node, Leaf):
            return i + (node.pos not in skip)
        j = i
        for child in node.children:
            j = walk(child, j)
        if j > i:
            spans.append((node.label, i, j))
        return j

    walk(tree, 0)
    return spans


def _oracle_span_counts(spans):
    """Counter of (label, start, end) spans, one per ``+``-joined member."""
    return Counter([(part, i, j) for label, i, j in spans for part in label.split(CHAIN_SEP)])


def _oracle_serialize(tree):
    """Single-line bracketed form; inverse of parse_bracketed."""
    parts = []
    _oracle_serialize_into(tree, parts)
    return "".join(parts)


def _oracle_serialize_into(tree, parts):
    if isinstance(tree, Leaf):
        parts.append("(%s %s)" % (tree.pos, tree.word))
        return
    parts.append("(%s" % tree.label)
    for child in tree.children:
        parts.append(" ")
        _oracle_serialize_into(child, parts)
    parts.append(")")


# ---------------------------------------------------------------------------
# Trees: random and PCFG shapes, some leaves turned into punctuation, some
# labels reserved.

ALPHABET = ["S", "NP", "VP", "PP", "ADJP"]

RESERVED = ["NP+X", DUMMY, "N~P", "NONE", ""]

PUNCT = sorted(PUNCT_POS)


def _punctuate(tree, rng, share):
    if isinstance(tree, Leaf):
        return Leaf(rng.choice(PUNCT), tree.word) if rng.random() < share else tree
    return Internal(tree.label, [_punctuate(child, rng, share) for child in tree.children])


@st.composite
def _trees(draw):
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        alphabet = ALPHABET + draw(st.lists(st.sampled_from(RESERVED), max_size=2))
        tree = random_tree(seed, draw(st.sampled_from([2, 10, 40])), draw(st.integers(3, 14)),
                           alphabet)
    else:
        tree = demo_grammar().sample(random.Random(seed), max_depth=draw(st.integers(4, 12)))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return _punctuate(tree, random.Random(seed), share)


def _outcome(call):
    try:
        return "result", call()
    except ValueError as e:
        return "error", str(e)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_trees())
def test_walks_match_recursive_oracles(tree):
    expected = _outcome(lambda: (list(leaf_nodes(tree)), *_oracle_boundaries(tree)))
    assert _outcome(lambda: boundaries(tree)) == expected
    spans, leaves = _spans_and_leaves(tree)
    expected_spans, expected_leaves = _oracle_spans_and_leaves(tree, False)
    # the same spans in the same (post-order) order
    assert list(Counter(spans).items()) == list(expected_spans.items())
    assert leaves == expected_leaves
    text = serialize(tree)
    assert text == _oracle_serialize(tree)
    if parse_bracketed(text) == [tree]:  # not so for an empty label
        # the span reader on the tree's text, punctuation stripped or not
        for strip in (False, True):
            spans = []
            (leaves,) = parse_bracketed(text, spans=spans, skip=PUNCT_POS if strip else ())
            expected_spans, expected_leaves = _oracle_spans_and_leaves(tree, strip)
            assert list(Counter(spans).items()) == list(expected_spans.items())
            assert leaves == expected_leaves


# ---------------------------------------------------------------------------
# Spans one per chain member, as they are emitted.

PLUS = ["NP+", "+", "NP+VP", "S+PP+ADJP"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(PLUS), min_size=1, max_size=2),
       st.sampled_from([0.0, 0.3]))
def test_spans_are_split_where_they_are_emitted(seed, plus, share):
    """Counting the spans the reader, the walk and the decoder emit gives
    what splitting whole-label spans while counting gave, in the same
    insertion order for the reader and the walk."""
    tree = _punctuate(random_tree(seed, 12, 8, ALPHABET + plus), random.Random(seed), share)
    for skip in ((), PUNCT_POS):
        spans = []
        parse_bracketed(serialize(tree), spans=spans, skip=skip)
        expected = _oracle_span_counts(_oracle_whole_spans(tree, skip))
        assert list(Counter(spans).items()) == list(expected.items())
    expected = _oracle_span_counts(_oracle_whole_spans(tree))
    assert list(Counter(_spans_and_leaves(tree)[0]).items()) == list(expected.items())
    # the decoder reads ``+``-joined c labels and u chains off an encodable
    # tree's labels; it emits leaf chains first, so only the multiset agrees
    clean = random_tree(seed, 12, 8, ALPHABET)
    labels = encode(clean, RELATIVE).labels
    spans = decoded_spans(*zip(*[(lab.n, lab.c, lab.u) for lab in labels]))
    assert spans == _oracle_span_counts(_oracle_whole_spans(clean))
