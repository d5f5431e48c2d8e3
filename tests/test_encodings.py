"""Encoder/decoder tests.

Expected n/c values are computed with an independent oracle that collects
root-to-leaf label paths by hand (including its own unary-chain handling)
and intersects them, rather than reusing the library's counting code.
"""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from treetag.trees import Internal, Leaf, Sentence, parse_bracketed, random_tree, serialize
from treetag.seqfile import read_seq, write_seq
from treetag.encodings import (
    ABSOLUTE,
    DUMMY,
    DYNAMIC,
    PLACEHOLDER,
    RELATIVE,
    SCHEMES,
    EncodedSentence,
    NComponent,
    RepairLog,
    TagLabel,
    _brackets,
    _check_label,
    _CHECKED,
    _label,
    _n_component,
    boundaries,
    decode,
    decode_with_repairs,
    decoded_line,
    encode,
    encode_absolute,
    encode_dynamic,
    encode_relative,
    token_parts,
)

ALPHABET = ["S", "NP", "VP", "PP", "ADJP", "ADVP", "SBAR"]


# ---------------------------------------------------------------------------
# Oracle: explicit path intersection.

def oracle_paths(tree):
    """Root-to-leaf paths over phrase nodes, with unary chains collapsed
    the hard way: rebuild the collapsed tree by explicit case analysis,
    then walk it."""

    def collapse(node):
        # returns collapsed node or ("chain", chain_labels, leaf)
        if isinstance(node, Leaf):
            return node
        if len(node.children) == 1:
            inner = collapse(node.children[0])
            if isinstance(inner, Leaf):
                return ("chain", [node.label], inner)
            if isinstance(inner, tuple):
                return ("chain", [node.label] + inner[1], inner[2])
            # inner is a collapsed Internal: merge labels
            return Internal(node.label + "+" + inner.label, inner.children)
        kids = []
        for child in node.children:
            c = collapse(child)
            kids.append(c[2] if isinstance(c, tuple) else c)
        return Internal(node.label, kids)

    collapsed = collapse(tree)
    if isinstance(collapsed, tuple):
        collapsed = collapsed[2]
    paths = []

    def walk(node, stack):
        if isinstance(node, Leaf):
            paths.append(list(stack))
            return
        for child in node.children:
            walk(child, stack + [node])

    walk(collapsed, [])
    return paths


def oracle_pairs(tree):
    """(shared count, LCA label) per adjacent leaf pair, via the oracle."""
    paths = oracle_paths(tree)
    out = []
    for a, b in zip(paths, paths[1:]):
        k = 0
        while k < min(len(a), len(b)) and a[k] is b[k]:
            k += 1
        out.append((k, a[k - 1].label))
    return out


def random_forest(n, max_leaves=20, max_depth=10, seed0=0):
    return [random_tree(seed0 + i, max_leaves, max_depth, ALPHABET) for i in range(n)]


# ---------------------------------------------------------------------------
# common ancestors, as boundaries() reads them off

def common_ancestors(tree, t):
    """Shared-ancestor count and LCA label of the pair (word t, word t+1)."""
    return boundaries(tree)[2][t - 1][:2]


def test_common_ancestors_three_leaf():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    assert common_ancestors(t, 1) == (2, "NP")
    assert common_ancestors(t, 2) == (1, "S")


def test_common_ancestors_root_only():
    (t,) = parse_bracketed("(X (A a) (B b))")
    assert common_ancestors(t, 1) == (1, "X")


def test_common_ancestors_out_of_range():
    # one pair per pair of adjacent words, and none for a single word
    (t,) = parse_bracketed("(X (A a) (B b))")
    assert len(boundaries(t)[2]) == 1
    (t,) = parse_bracketed("(X (Y (A a)))")
    assert boundaries(t) == ([Leaf("A", "a")], ["X+Y"], [])


@pytest.mark.parametrize("seed", range(40))
def test_common_ancestors_matches_oracle(seed):
    t = random_tree(seed, 15, 9, ALPHABET)
    expected = oracle_pairs(t)
    assert len(boundaries(t)[2]) == len(expected)
    for i, pair in enumerate(expected, start=1):
        assert common_ancestors(t, i) == pair


# ---------------------------------------------------------------------------
# Encoders against the oracle.

def test_encode_relative_example():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    enc = encode_relative(t)
    assert [l.token() for l in enc.labels] == [
        "r2~NP~NONE",
        "r-1~S~NONE",
        "DUMMY~DUMMY~VP",
    ]


def test_encode_relative_leaf_chains():
    (t,) = parse_bracketed("(S (NP (NN dogs)) (VP (VBP bark)))")
    enc = encode_relative(t)
    assert [l.n.token() for l in enc.labels] == ["r1", "DUMMY"]
    assert [l.c for l in enc.labels] == ["S", "DUMMY"]
    assert [l.u for l in enc.labels] == ["NP", "VP"]


def test_encode_single_word_tree():
    (t,) = parse_bracketed("(X (N a))")
    enc = encode_relative(t)
    assert len(enc) == 1
    assert enc.labels[0] == TagLabel(NComponent("dummy"), DUMMY, "X")
    assert decode(enc) == t


def test_encode_absolute_examples():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    assert [l.n.token() for l in encode_absolute(t).labels] == ["a2", "a1", "DUMMY"]
    (flat,) = parse_bracketed("(S (A a) (B b) (C c))")
    assert [l.n.token() for l in encode_absolute(flat).labels] == ["a1", "a1", "DUMMY"]


def test_encode_absolute_right_comb():
    # right-branching comb over five leaves: counts climb 1,2,3,4
    t = Leaf("P", "w4")
    t = Internal("D4", [Leaf("P", "w3"), t])
    t = Internal("D3", [Leaf("P", "w2"), t])
    t = Internal("D2", [Leaf("P", "w1"), t])
    t = Internal("D1", [Leaf("P", "w0"), t])
    assert [l.n.token() for l in encode_absolute(t).labels] == [
        "a1", "a2", "a3", "a4", "DUMMY",
    ]


@pytest.mark.parametrize("seed", range(40))
def test_encoders_match_oracle(seed):
    t = random_tree(seed, 18, 10, ALPHABET)
    pairs = oracle_pairs(t)
    rel = encode_relative(t)
    ab = encode_absolute(t)
    prev = 0
    for i, (count, lca) in enumerate(pairs):
        assert rel.labels[i].n == NComponent(RELATIVE, count - prev)
        assert rel.labels[i].c == lca
        assert ab.labels[i].n == NComponent(ABSOLUTE, count)
        assert ab.labels[i].c == lca
        prev = count
    assert rel.labels[-1].n.is_dummy and rel.labels[-1].c == DUMMY


# ---------------------------------------------------------------------------
# Dynamic scheme.

def test_dynamic_switch_example():
    (t,) = parse_bracketed(
        "(S (NP (NP (D a) (N b)) (PP (P c) (NP (D d) (N e)))) (VP (V f)))"
    )
    assert [l.n.token() for l in encode_dynamic(t).labels] == [
        "r3", "r-1", "r1", "r1", "a1", "DUMMY",
    ]


def test_dynamic_equals_relative_when_shallow():
    (t,) = parse_bracketed("(S (A a) (B b))")
    assert encode_dynamic(t).labels == encode_relative(t).labels
    for seed in range(30):
        shallow = random_tree(seed, 8, 3, ALPHABET)
        assert encode_dynamic(shallow).labels == encode_relative(shallow).labels


@pytest.mark.parametrize("seed", range(60))
def test_dynamic_switch_rule_exhaustive(seed):
    t = random_tree(seed, 25, 12, ALPHABET)
    pairs = oracle_pairs(t)
    dyn = encode_dynamic(t)
    prev = 0
    for i, (count, _) in enumerate(pairs):
        should_switch = count <= 3 and (count - prev) <= -2
        n = dyn.labels[i].n
        assert (n.scale == ABSOLUTE) == should_switch
        assert n.value == (count if should_switch else count - prev)
        prev = count


def test_dynamic_reduces_distinct_n_tokens():
    # deep closings switch to the absolute scale, so the handful of a1..a3
    # tokens replaces the long tail of large negative relative values
    forest = random_forest(1000, max_leaves=40, max_depth=12)
    rel_tokens = {tok for t in forest for tok in encode_relative(t).n_tokens()}
    dyn_tokens = {tok for t in forest for tok in encode_dynamic(t).n_tokens()}
    assert len(dyn_tokens) <= len(rel_tokens)


# ---------------------------------------------------------------------------
# Round trips.

@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("seed", range(50))
def test_round_trip_random(scheme, seed):
    t = random_tree(seed, 20, 10, ALPHABET)
    encoded = encode(t, scheme)
    rebuilt, log = decode_with_repairs(encoded)
    assert rebuilt == t
    assert log.clean(), log


def test_round_trip_internal_chains():
    (t,) = parse_bracketed("(TOP (S (X (Y (Z (A a) (B b)))) (C c)))")
    for scheme in SCHEMES:
        assert decode(encode(t, scheme)) == t


def test_collapse_unary_chains_shapes():
    (t,) = parse_bracketed("(S (X (Y (Z (A a) (B b)))) (NP (NN c)))")
    labels = encode(t, RELATIVE).labels
    assert [lab.u for lab in labels] == ["", "", "NP"]
    assert [lab.c for lab in labels] == ["X+Y+Z", "S", DUMMY]


@pytest.mark.parametrize("text, label", [
    ("(S (NP+X (A a) (B b)) (C c))", "NP+X"),
    ("(DUMMY (A a) (B b))", "DUMMY"),
    ("(S (N~P (A a) (B b)) (C c))", "N~P"),
    ("(S (NONE (A a)) (B b))", "NONE"),
])
def test_reserved_nonterminals_rejected(text, label):
    (t,) = parse_bracketed(text)
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            encode(t, scheme)


RESERVED_ALPHABET = ["S", "NP", "NP+X", DUMMY, "N~P", "NONE", ""]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.sampled_from(RESERVED_ALPHABET), min_size=1, max_size=4),
)
def test_encode_rejects_or_round_trips_through_seq(tmp_path_factory, seed, alphabet):
    t = random_tree(seed, 8, 6, alphabet)
    path = tmp_path_factory.mktemp("seq") / "t.seq"
    for scheme in SCHEMES:
        try:
            encoded = encode(t, scheme)
        except ValueError:
            continue
        write_seq(path, [(encoded, {})])
        ((back, _),), _ = read_seq(path)
        assert decode(back) == t


# ---------------------------------------------------------------------------
# Decoding and repair.

def two_word_sentence():
    return Sentence(("w0", "w1"), ("P0", "P1"))


def test_decode_repairs_overlong_climb_to_flat():
    labels = [
        TagLabel(NComponent(RELATIVE, 5), "C"),
        TagLabel(NComponent("dummy"), DUMMY),
    ]
    enc = EncodedSentence(two_word_sentence(), labels, RELATIVE)
    tree, log = decode_with_repairs(enc)
    assert tree == Internal("C", [Leaf("P0", "w0"), Leaf("P1", "w1")])
    assert log.spliced == 4 and log.clamped == 0


def test_decode_clamps_negative_counts():
    labels = [
        TagLabel(NComponent(RELATIVE, -4), "C"),
        TagLabel(NComponent("dummy"), DUMMY),
    ]
    enc = EncodedSentence(two_word_sentence(), labels, RELATIVE)
    tree, log = decode_with_repairs(enc)
    assert tree == Internal("C", [Leaf("P0", "w0"), Leaf("P1", "w1")])
    assert log.clamped == 1


def test_decode_first_assignment_wins():
    sentence = Sentence(("a", "b", "c"), ("PA", "PB", "PC"))
    labels = [
        TagLabel(NComponent(RELATIVE, 1), "FIRST"),
        TagLabel(NComponent(RELATIVE, 0), "SECOND"),
        TagLabel(NComponent("dummy"), DUMMY),
    ]
    tree, log = decode_with_repairs(EncodedSentence(sentence, labels, RELATIVE))
    assert tree.label == "FIRST"
    assert log.label_conflicts == 1


def test_decode_placeholder_label():
    sentence = Sentence(("a", "b"), ("PA", "PB"))
    labels = [
        TagLabel(NComponent(RELATIVE, 1), DUMMY),
        TagLabel(NComponent("dummy"), DUMMY),
    ]
    tree, log = decode_with_repairs(EncodedSentence(sentence, labels, RELATIVE))
    assert tree.label == "X"
    assert log.placeholders == 1


def test_decode_length_mismatch_rejected():
    sentence = Sentence(("a", "b"), ("PA", "PB"))
    with pytest.raises(ValueError):
        EncodedSentence(sentence, [TagLabel(NComponent("dummy"), DUMMY)], RELATIVE)
    with pytest.raises(ValueError, match="1 labels for 2 words"):
        decoded_line(sentence, [NComponent("dummy")], [DUMMY], [""])


label_tokens = st.one_of(
    st.builds(
        lambda v: NComponent(RELATIVE, v), st.integers(min_value=-6, max_value=6)
    ),
    st.builds(lambda v: NComponent(ABSOLUTE, v), st.integers(min_value=1, max_value=8)),
    st.just(NComponent("dummy")),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(label_tokens, st.sampled_from(["S", "NP", DUMMY]), st.sampled_from(["", "NP", "X+Y"])),
        min_size=1,
        max_size=10,
    )
)
def test_decode_total_on_arbitrary_labels(parts):
    T = len(parts)
    sentence = Sentence(tuple("w%d" % i for i in range(T)), tuple("P" for _ in range(T)))
    labels = [TagLabel(n, c, u) for n, c, u in parts[:-1]]
    labels.append(TagLabel(NComponent("dummy"), DUMMY, parts[-1][2]))
    tree = decode(EncodedSentence(sentence, labels, DYNAMIC))
    assert [l.word for l in _leaves(tree)] == list(sentence.words)


def test_decode_deep_climb_returns_a_tree():
    # 3,000 open levels close one by one, with no recursion
    labels = [TagLabel(NComponent(ABSOLUTE, 3000), "S"), TagLabel(NComponent("dummy"), DUMMY)]
    tree, log = decode_with_repairs(EncodedSentence(two_word_sentence(), labels, DYNAMIC))
    assert tree == Internal("S", [Leaf("P0", "w0"), Leaf("P1", "w1")])
    assert log == RepairLog(spliced=2999)


# ---------------------------------------------------------------------------
# Oracle: the recursive two-pass decoder the one-pass decoder replaced.

class _Draft:
    def __init__(self):
        self.label = None
        self.children = []


def oracle_decode(encoded):
    """(tree, RepairLog): the skeleton along the rightmost spine, then a
    recursive pass applying the splice and placeholder repairs."""
    sentence, labels = encoded.sentence, encoded.labels
    log = RepairLog()
    T = len(sentence)
    wrapped = [
        _oracle_wrap(lab.u, [Leaf(pos, word)])
        for word, pos, lab in zip(sentence.words, sentence.pos, labels)
    ]
    if T == 1:
        return wrapped[0], log
    counts = []
    prev = 0
    for lab in labels[:-1]:
        n = lab.n
        if n.is_dummy:
            raw = prev if prev >= 1 else 1
            log.interior_dummies += 1
        elif n.scale == RELATIVE:
            raw = prev + n.value
        else:
            raw = n.value
        cur = max(1, raw)
        if cur != raw:
            log.clamped += 1
        counts.append(cur)
        prev = cur
    root = _Draft()
    spine = [root]
    for t in range(T):
        share = counts[t - 1] if t > 0 else 0
        if t > 0:
            del spine[share:]
            target = spine[share - 1]
            c = labels[t - 1].c
            if c and c != DUMMY:
                if target.label is None:
                    target.label = c
                elif target.label != c:
                    log.label_conflicts += 1
        want = max(share, counts[t]) if t < T - 1 else max(share, 1)
        while len(spine) < want:
            node = _Draft()
            spine[-1].children.append(node)
            spine.append(node)
        spine[-1].children.append(wrapped[t])
    return _oracle_finalize(root, log), log


def _oracle_finalize(node, log):
    if isinstance(node, (Leaf, Internal)):
        return node
    kids = [_oracle_finalize(child, log) for child in node.children]
    if node.label is None:
        if len(kids) == 1 and isinstance(kids[0], Internal):
            log.spliced += 1
            return kids[0]
        log.placeholders += 1
        return Internal(PLACEHOLDER, kids)
    return _oracle_wrap(node.label, kids)


def _oracle_wrap(chain, children):
    if not chain:
        return children[0]
    for part in reversed(chain.split("+")):
        children = [Internal(part, children)]
    return children[0]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            label_tokens,
            st.sampled_from(["S", "NP", "X+Y", DUMMY, ""]),
            st.sampled_from(["", "NP", "X+Y"]),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_decode_matches_recursive_oracle(parts):
    # arbitrary labels, so every repair kind occurs; the final n and c are
    # whatever was drawn, which both decoders must ignore
    T = len(parts)
    sentence = Sentence(tuple("w%d" % i for i in range(T)), tuple("P" for _ in range(T)))
    encoded = EncodedSentence(sentence, [TagLabel(n, c, u) for n, c, u in parts], DYNAMIC)
    assert decode_with_repairs(encoded) == oracle_decode(encoded)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            label_tokens,
            st.sampled_from(["S", "NP", "X+Y", DUMMY, ""]),
            st.sampled_from(["", "NP", "X+Y", "A+B+C"]),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_decoded_line_is_the_serialized_tree(parts):
    # arbitrary labels: interior dummies, clamped counts, conflicting c, +
    # chains and one-word sentences, so every repair kind occurs
    T = len(parts)
    sentence = Sentence(tuple("w%d" % i for i in range(T)), tuple("P%d" % i for i in range(T)))
    ns, cs, us = zip(*parts)
    encoded = EncodedSentence(sentence, [TagLabel(n, c, u) for n, c, u in parts], DYNAMIC)
    tree, log = decode_with_repairs(encoded)
    assert decoded_line(sentence, ns, cs, us) == (serialize(tree), log)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_encoded_labels_are_the_labels_built_directly(scheme):
    forest = random_forest(20)
    for tree in forest:
        labels = encode(tree, scheme).labels
        assert all(a is b for a, b in zip(labels, encode(tree, scheme).labels))  # one table
        for label in labels:
            assert label.token() and label.n.token()  # copied below with the text cached
            direct = TagLabel(NComponent(label.n.scale, label.n.value), label.c, label.u)
            for same in (direct, pickle.loads(pickle.dumps(label)), copy.copy(label),
                         copy.deepcopy(label)):
                assert same == label and hash(same) == hash(label) and repr(same) == repr(label)
                assert (same.token(), same.n.token()) == (label.token(), label.n.token())
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(TagLabel)] == [
        ("n", NComponent, dataclasses.MISSING), ("c", str, dataclasses.MISSING), ("u", str, "")]
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(NComponent)] == [
        ("scale", str, dataclasses.MISSING), ("value", int, None)]


def _leaves(tree):
    if isinstance(tree, Leaf):
        return [tree]
    out = []
    for child in tree.children:
        out.extend(_leaves(child))
    return out


def test_unary_chain_u_round_trip():
    (t,) = parse_bracketed("(S (Q (R (NN dogs))) (VP (VBP bark)))")
    enc = encode_relative(t)
    assert enc.labels[0].u == "Q+R"
    assert decode(enc) == t


def test_label_token_surface_forms():
    lab = TagLabel(NComponent(RELATIVE, -3), "S", "")
    assert lab.token() == "r-3~S~NONE"
    assert TagLabel(*token_parts("r-3~S~NONE")) == lab
    lab2 = TagLabel(NComponent(ABSOLUTE, 1), "S", "NP")
    assert lab2.token() == "a1~S~NP"
    assert TagLabel(*token_parts("a1~S~NP")) == lab2
    assert TagLabel(*token_parts("DUMMY~DUMMY~NONE")) == TagLabel(NComponent("dummy"), DUMMY)


# near misses of the encoders' spelling, beside arbitrary text
N_TEXT = st.one_of(st.integers(-12, 12).map("r{}".format), st.integers(-1, 12).map("a{}".format),
                   st.sampled_from(["DUMMY", "r+01", "a\u0663", "r1_0", "r-0", "r 1", "x1", "r", ""]))
CHAIN_TEXT = st.sampled_from(["NP", "S", "NP+S", "DUMMY", "NONE", "", "NP+", "NONE+S"])
LABEL_TEXT = st.builds(lambda n, rest: "~".join([n, *rest]), N_TEXT,
                       st.lists(CHAIN_TEXT, min_size=1, max_size=3))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.text(), N_TEXT, LABEL_TEXT))
def test_only_the_encoders_spelling_is_read(text):
    for parse in (NComponent.from_token, lambda tok: TagLabel(*token_parts(tok))):
        try:
            parsed = parse(text)
        except ValueError:
            continue
        assert parsed.token() == text


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from([NComponent(RELATIVE, -1), NComponent(ABSOLUTE, 2), NComponent("dummy")]),
       st.one_of(CHAIN_TEXT, st.sampled_from(["NP~X", "N P"]), st.text(max_size=3)),
       st.one_of(CHAIN_TEXT, st.text(max_size=3)))
def test_a_label_token_reads_back_as_its_label_or_is_refused(n, c, u):
    label = TagLabel(n, c, u)
    try:
        tok = label.token()
    except ValueError:
        with pytest.raises(ValueError):  # refused on every call, none caching a text
            label.token()
        return
    assert TagLabel(*token_parts(tok)) == label


# The token parsers as they were before token_parts read a token's text
# once: NComponent.from_token and TagLabel.from_token, kept as oracles.

def _oracle_n_from_token(tok):
    if tok == DUMMY:
        return NComponent("dummy")
    try:
        n = NComponent({"r": RELATIVE, "a": ABSOLUTE}.get(tok[:1]), int(tok[1:]))
        if n.token() == tok:
            return n
    except ValueError:
        pass
    raise ValueError("bad n token %r" % tok)


def _oracle_label_from_token(tok):
    parts = tok.split("~")
    if len(parts) != 3:
        raise ValueError("bad label token %r" % tok)
    n, c, u = parts
    label = TagLabel(_oracle_n_from_token(n), c, "" if u == "NONE" else u)
    if label.n.is_dummy != (c == DUMMY):
        raise ValueError("bad label token %r: n and c must both be %s or neither" % (tok, DUMMY))
    try:
        for chain, reserved in ((c, DUMMY), (u, "NONE")):
            if chain != reserved:
                for part in chain.split("+"):
                    _check_label(part)
    except ValueError as e:
        raise ValueError("bad label token %r: %s" % (tok, e)) from None
    return label


def _outcome(call, text):
    try:
        return "read", call(text)
    except ValueError as e:
        return "error", str(e)


def _tables():
    """The size of every process-wide table the label code keeps."""
    return (_n_component.cache_info().currsize, _label.cache_info().currsize,
            _brackets.cache_info().currsize, frozenset(_CHECKED))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.text(), N_TEXT, LABEL_TEXT))
def test_token_parts_reads_what_the_old_parsers_read(text):
    assert _outcome(NComponent.from_token, text) == _outcome(_oracle_n_from_token, text)
    expected = _outcome(_oracle_label_from_token, text)
    assert _outcome(lambda tok: TagLabel(*token_parts(tok)), text) == expected
    before = _tables()
    got = _outcome(token_parts, text)
    if expected[0] == "read":
        label = expected[1]
        assert got == ("read", (label.n, label.c, label.u))
        assert got[1][0] is _n_component(label.n.scale, label.n.value)
    else:
        assert got == expected
        assert _tables() == before


@pytest.mark.parametrize("tok", ["r987654321~NONE~NONE", "a987654321~FRESH~DUMMY",
                                 "r987654321~FRESH+~NONE", "DUMMY~DUMMY~FRESH+NONE"])
def test_a_rejected_token_leaves_the_tables_alone(tok):
    # an n and a nonterminal no other test reads: a table that took them
    # in before the token was rejected would grow here
    before = _tables()
    with pytest.raises(ValueError, match="bad label token"):
        token_parts(tok)
    assert _tables() == before


def test_boundaries_checks_each_nonterminal_once_and_keeps_only_encodable_ones(monkeypatch):
    from treetag import encodings

    checked = []
    check = encodings._check_label
    monkeypatch.setattr(encodings, "_check_label", lambda label: checked.append(label) or check(label))
    (tree,) = parse_bracketed("(FRESH1 (FRESH2 (FRESH3 (A a)) (B b)) (FRESH1 (C c) (D d)))")
    assert boundaries(tree) == boundaries(tree)
    assert checked == ["FRESH1", "FRESH2", "FRESH3"]  # in pre-order, once each
    (bad,) = parse_bracketed("(FRESH4 (N~P (A a)) (B b))")
    for _ in range(2):
        with pytest.raises(ValueError, match="'N~P' cannot be encoded"):
            boundaries(bad)
    assert "FRESH4" in _CHECKED and "N~P" not in _CHECKED


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RepairLog)])
def test_repair_log_is_clean_only_without_repairs(field):
    assert RepairLog().clean()
    assert not RepairLog(**{field: 1}).clean()


def test_label_parts_are_the_sublabel_tokens():
    assert TagLabel(NComponent(RELATIVE, -3), "S", "").parts() == ("r-3", "S", "NONE")
    assert TagLabel(NComponent(ABSOLUTE, 1), "S", "NP").parts() == ("a1", "S", "NP")
    assert TagLabel(NComponent("dummy"), DUMMY).parts() == ("DUMMY", "DUMMY", "NONE")


def test_ncomponent_validation():
    with pytest.raises(ValueError):
        NComponent(ABSOLUTE, 0)
    with pytest.raises(ValueError):
        NComponent("dummy", 3)
    with pytest.raises(ValueError):
        NComponent("sideways", 1)
