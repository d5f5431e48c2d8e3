"""Scorer tests, checked against naive span enumeration."""

import random
import re
from collections import Counter

import pytest

from treetag.trees import Internal, Leaf, parse_bracketed, random_tree
from treetag.encodings import encode_relative, EncodedSentence, TagLabel, NComponent, RELATIVE
from treetag.metrics import (
    BracketScore,
    bracket_score,
    corpus_bracket_score,
    format_bracket_report,
    label_space_stats,
    labeled_spans,
    n_token_sort_key,
    per_n_f1,
)

ALPHABET = ["S", "NP", "VP", "PP", "ADJP", "ADVP"]


# ---------------------------------------------------------------------------
# Oracle: enumerate (label, i, j) triples naively.

def oracle_spans(tree):
    spans = Counter()
    order = []

    def collect_leaves(node):
        if isinstance(node, Leaf):
            order.append(node)
        else:
            for c in node.children:
                collect_leaves(c)

    collect_leaves(tree)
    index = {id(leaf): i for i, leaf in enumerate(order)}

    def visit(node):
        if isinstance(node, Leaf):
            return [index[id(node)]]
        covered = []
        for c in node.children:
            covered.extend(visit(c))
        for part in node.label.split("+"):
            spans[(part, min(covered), max(covered) + 1)] += 1
        return covered

    visit(tree)
    return spans


def oracle_score(gold, pred):
    g = oracle_spans(gold)
    p = oracle_spans(pred)
    matched = 0
    for span in set(g) | set(p):
        matched += min(g[span], p[span])
    return matched, sum(g.values()), sum(p.values())


# ---------------------------------------------------------------------------
# bracket_score

def test_identical_trees_perfect():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    s = bracket_score(t, t)
    assert s.precision == s.recall == s.f1 == 1.0


def test_example_one_third():
    (gold,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    (pred,) = parse_bracketed("(S (NP (D the)) (VP (N dog) (V barks)))")
    s = bracket_score(gold, pred)
    assert (s.matched, s.gold_total, s.pred_total) == (1, 3, 3)
    assert s.precision == s.recall == pytest.approx(1 / 3)
    assert s.f1 == pytest.approx(1 / 3)


def test_flat_prediction_matches_root():
    (gold,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    pred = Internal("S", [Leaf("D", "the"), Leaf("N", "dog"), Leaf("V", "barks")])
    assert bracket_score(gold, pred).matched >= 1


def test_leaf_count_mismatch_rejected():
    (a,) = parse_bracketed("(S (A a) (B b))")
    (b,) = parse_bracketed("(S (A a) (B b) (C c))")
    with pytest.raises(ValueError):
        bracket_score(a, b)


@pytest.mark.parametrize("strip", [False, True])
@pytest.mark.parametrize(
    "gold, pred, counts",
    [
        ("(S (A a) (B b))", "(S (A a) (B b) (C c))", (2, 3)),
        ("(S (NP (D the) (N dog)) (. .))", "(S (NP (D the) (N dog)))", (3, 2)),
        ("(S (A a) (, ,) (B b))", "(S (A a) (, ,) (, ,) (B b) (. .))", (3, 5)),
    ],
)
def test_leaf_count_mismatch_message_counts_raw_leaves(gold, pred, counts, strip):
    """Punctuation leaves count towards the check even when stripped."""
    (g,) = parse_bracketed(gold)
    (p,) = parse_bracketed(pred)
    message = "gold has %d leaves, prediction has %d" % counts
    with pytest.raises(ValueError, match="^%s$" % message):
        bracket_score(g, p, strip_punctuation=strip)


def test_unary_chain_spans_expand():
    (gold,) = parse_bracketed("(S (X (Y (A a) (B b))) (C c))")
    spans = labeled_spans(gold)
    assert spans[("X", 0, 2)] == 1 and spans[("Y", 0, 2)] == 1
    collapsed = Internal("S", [Internal("X+Y", [Leaf("A", "a"), Leaf("B", "b")]), Leaf("C", "c")])
    assert labeled_spans(collapsed) == spans


def test_duplicate_spans_count_as_multiset():
    (gold,) = parse_bracketed("(S (X (X (A a) (B b))) (C c))")
    (pred,) = parse_bracketed("(S (X (A a) (B b)) (C c))")
    s = bracket_score(gold, pred)
    assert (s.matched, s.gold_total, s.pred_total) == (2, 3, 2)


def test_symmetry_swaps_precision_recall():
    for seed in range(20):
        gold = random_tree(seed, 8, 6, ALPHABET)
        pred = random_tree(seed + 1000, 8, 6, ALPHABET)
        if sum(1 for _ in _leaves(gold)) != sum(1 for _ in _leaves(pred)):
            continue
        a = bracket_score(gold, pred)
        b = bracket_score(pred, gold)
        assert a.precision == b.recall and a.recall == b.precision


def _leaves(tree):
    if isinstance(tree, Leaf):
        yield tree
    else:
        for c in tree.children:
            yield from _leaves(c)


def make_pair(seed):
    """Two random trees over the same token sequence."""
    rng = random.Random(seed)
    gold = random_tree(rng.randrange(10**6), 8, 6, ALPHABET)
    n = sum(1 for _ in _leaves(gold))
    while True:
        pred = random_tree(rng.randrange(10**6), 8, 6, ALPHABET)
        if sum(1 for _ in _leaves(pred)) == n:
            return gold, pred


@pytest.mark.parametrize("seed", range(60))
def test_score_matches_oracle(seed):
    gold, pred = make_pair(seed)
    s = bracket_score(gold, pred)
    assert (s.matched, s.gold_total, s.pred_total) == oracle_score(gold, pred)


def test_f1_one_iff_span_multisets_equal():
    for seed in range(30):
        gold, pred = make_pair(seed)
        if not oracle_spans(gold):
            continue  # bare one-leaf trees have no spans; f1 is 0/0 there
        s = bracket_score(gold, pred)
        assert (s.f1 == 1.0) == (oracle_spans(gold) == oracle_spans(pred))


def test_punctuation_stripping():
    (gold,) = parse_bracketed("(S (NP (D the) (N dog)) (, ,) (VP (V barks)))")
    (pred,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (, ,) (V barks)))")
    plain = bracket_score(gold, pred)
    assert plain.f1 < 1.0  # VP spans differ when punctuation counts
    stripped = bracket_score(gold, pred, strip_punctuation=True)
    assert stripped.f1 == 1.0


def test_zero_denominators():
    s = BracketScore(0, 0, 0)
    assert s.precision == s.recall == s.f1 == 0.0


def test_corpus_score_micro_average():
    (a,) = parse_bracketed("(S (A a) (B b))")
    (b,) = parse_bracketed("(S (NP (D d) (N n)) (V v))")
    s = corpus_bracket_score([a, b], [a, b])
    assert s.gold_total == 3 and s.f1 == 1.0
    assert format_bracket_report(s) == "P 100.00 R 100.00 F1 100.00"


# ---------------------------------------------------------------------------
# per-n diagnostics

def corpus_of(seeds):
    return [encode_relative(random_tree(s, 12, 8, ALPHABET)) for s in seeds]


def test_n_token_sort_key_orders_report_rows():
    tokens = ["DUMMY", "a4", "r10", "r3", "a1", "r0", "r-2", "r-10"]
    assert sorted(tokens, key=n_token_sort_key) == [
        "r-10", "r-2", "r0", "r3", "r10", "a1", "a4", "DUMMY"]
    with pytest.raises(ValueError, match=re.escape("bad n token 'r+3'")):
        n_token_sort_key("r+3")


def test_per_n_perfect_predictions():
    gold = corpus_of(range(10))
    table = per_n_f1(gold, gold)
    assert table
    for tok, (p, r, f) in table.items():
        assert p == r == f == 1.0


def test_per_n_single_confusion():
    (t,) = parse_bracketed(
        "(S (NP (NP (D a) (N b)) (PP (P c) (NP (D d) (N e)))) (VP (V f)))"
    )
    gold = encode_relative(t)
    assert gold.n_tokens().count("r-3") == 1
    # the only r-3 is mistagged as r-2
    pos = gold.n_tokens().index("r-3")
    labels = list(gold.labels)
    labels[pos] = TagLabel(NComponent(RELATIVE, -2), labels[pos].c, labels[pos].u)
    pred = EncodedSentence(gold.sentence, labels, RELATIVE)
    table = per_n_f1([gold], [pred])
    assert table["r-3"][2] == 0.0
    assert table["r-2"][0] == 0.0  # one false positive, no gold r-2


def test_per_n_matches_confusion_matrix_oracle():
    rng = random.Random(5)
    gold = corpus_of(range(100))
    pred = []
    tokens = sorted({tok for e in gold for tok in e.n_tokens()})
    for e in gold:
        labels = []
        for lab in e.labels:
            if rng.random() < 0.1:
                new_tok = rng.choice(tokens)
                labels.append(TagLabel(NComponent.from_token(new_tok), lab.c, lab.u))
            else:
                labels.append(lab)
        pred.append(EncodedSentence(e.sentence, labels, RELATIVE))

    # independent confusion-matrix computation
    tp, fp, fn = Counter(), Counter(), Counter()
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.n_tokens(), p.n_tokens()):
            if gt == pt:
                tp[gt] += 1
            else:
                fn[gt] += 1
                fp[pt] += 1
    table = per_n_f1(gold, pred)
    for tok in set(tp) | set(fp) | set(fn):
        prec = tp[tok] / (tp[tok] + fp[tok]) if tp[tok] + fp[tok] else 0.0
        rec = tp[tok] / (tp[tok] + fn[tok]) if tp[tok] + fn[tok] else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert table[tok] == pytest.approx((prec, rec, f1))


def test_per_n_micro_average_is_accuracy():
    # pooling tp/fp/fn over all n tokens: every error adds one fp and one
    # fn, so micro precision, recall and F1 all collapse to accuracy
    rng = random.Random(11)
    gold = corpus_of(range(50))
    pred = []
    for e in gold:
        labels = [
            TagLabel(NComponent(RELATIVE, 1), lab.c, lab.u) if rng.random() < 0.2 else lab
            for lab in e.labels
        ]
        pred.append(EncodedSentence(e.sentence, labels, RELATIVE))
    tp, fp, fn, total = Counter(), Counter(), Counter(), 0
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.n_tokens(), p.n_tokens()):
            total += 1
            if gt == pt:
                tp[gt] += 1
            else:
                fn[gt] += 1
                fp[pt] += 1
    accuracy = sum(tp.values()) / total
    micro_p = sum(tp.values()) / (sum(tp.values()) + sum(fp.values()))
    micro_r = sum(tp.values()) / (sum(tp.values()) + sum(fn.values()))
    micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r)
    assert micro_p == micro_r == pytest.approx(accuracy)
    assert micro_f1 == pytest.approx(accuracy)
    # and the per-token table agrees with the same pooled counts
    table = per_n_f1(gold, pred)
    for tok in table:
        denom = tp[tok] + fp[tok]
        assert table[tok][0] == pytest.approx(tp[tok] / denom if denom else 0.0)


def test_per_n_alignment_errors():
    gold = corpus_of(range(3))
    with pytest.raises(ValueError):
        per_n_f1(gold, gold[:2])


# ---------------------------------------------------------------------------
# label-space statistics

def test_label_space_small_example():
    from treetag.trees import Sentence

    sentence = Sentence(("a", "b"), ("PA", "PB"))
    labels = [TagLabel(NComponent(RELATIVE, 2), "NP"), TagLabel.dummy()]
    corpus = [EncodedSentence(sentence, labels, RELATIVE)]
    full = label_space_stats(corpus, decomposed=False)
    assert full.total_distinct == 2
    dec = label_space_stats(corpus, decomposed=True)
    assert dec.total_distinct == 5  # |N|=2, |C|=2, |U|=1


def test_label_space_bounds():
    corpus = corpus_of(range(40))
    full = label_space_stats(corpus, decomposed=False)
    dec = label_space_stats(corpus, decomposed=True)
    n = len([k for k in dec.freq_histogram if k.startswith("n:")])
    c = len([k for k in dec.freq_histogram if k.startswith("c:")])
    u = len([k for k in dec.freq_histogram if k.startswith("u:")])
    assert dec.total_distinct == n + c + u
    assert dec.total_distinct <= 3 * full.total_distinct
    assert full.total_distinct <= n * c * u


def test_rare_fraction():
    corpus = corpus_of(range(40))
    stats = label_space_stats(corpus)
    frac = stats.rare_fraction(5)
    assert 0.0 <= frac <= 1.0
    assert stats.rare_fraction(10**9) == 1.0


def test_label_space_empty_corpus_rejected():
    with pytest.raises(ValueError):
        label_space_stats([])
