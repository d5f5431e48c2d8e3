"""Bracketing scores and label-space diagnostics."""

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .trees import Leaf
from .encodings import ABSOLUTE, CHAIN_SEP, RELATIVE, NComponent

# POS tags deleted by the optional punctuation-stripping mode
PUNCT_POS = {"''", "``", ".", ":", ","}


@dataclass(frozen=True)
class BracketScore:
    matched: int
    gold_total: int
    pred_total: int

    @property
    def precision(self):
        return self.matched / self.pred_total if self.pred_total else 0.0

    @property
    def recall(self):
        return self.matched / self.gold_total if self.gold_total else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other):
        return BracketScore(self.matched + other.matched, self.gold_total + other.gold_total,
                            self.pred_total + other.pred_total)


def labeled_spans(tree):
    """Multiset (Counter) of the (label, start, end) spans of `tree`'s phrase
    nodes, one per member of a ``+``-joined label; preterminals give none."""
    return Counter(_spans_and_leaves(tree)[0])


def _spans_and_leaves(tree):
    """What `load_trees(path, spans=True)` reads for `tree`'s line: its spans
    (one per ``+``-joined member) in closing order and its leaf count."""
    spans = []
    i = 0  # leaves counted so far
    # the innermost open phrase (first a label-less one around `tree`): its
    # children left to visit, label and first leaf; `frames` holds the outer ones
    children, label, start = iter((tree,)), None, 0
    frames = []
    while True:
        for node in children:
            if isinstance(node, Leaf):
                i += 1
            else:
                frames.append((children, label, start))
                children, label, start = iter(node.children), node.label, i
                break
        else:
            if not frames:
                return spans, i
            spans += ([(part, start, i) for part in label.split(CHAIN_SEP)]
                      if CHAIN_SEP in label else [(label, start, i)])
            children, label, start = frames.pop()


def bracket_score(gold, predicted):
    """Precision/recall/F1 over labeled spans, as a BracketScore.

    Both trees must cover the same number of tokens.  Duplicate spans
    (from unary chains) match as multiset members.
    """
    return read_score(_spans_and_leaves(gold), _spans_and_leaves(predicted))


def read_score(gold, predicted):
    """bracket_score of two trees read as (spans, leaf count) by `load_trees`."""
    (gold_spans, gold_leaves), (pred_spans, pred_leaves) = gold, predicted
    if gold_leaves != pred_leaves:
        raise ValueError("gold has %d leaves, prediction has %d" % (gold_leaves, pred_leaves))
    return span_score(Counter(gold_spans), Counter(pred_spans))


def span_score(gold_spans, pred_spans):
    """BracketScore of two span multisets (Counters) over the same words."""
    matched = sum(map(min, pred_spans.values(), map(gold_spans.get, pred_spans, repeat(0))))
    return BracketScore(matched, sum(gold_spans.values()), sum(pred_spans.values()))


def corpus_bracket_score(gold_trees, predicted_trees):
    """Micro-averaged score over aligned tree lists."""
    if len(gold_trees) != len(predicted_trees):
        raise ValueError("corpora differ in length")
    scores = (bracket_score(g, p) for g, p in zip(gold_trees, predicted_trees))
    return sum(scores, BracketScore(0, 0, 0))


def format_bracket_report(score):
    return "P %.2f R %.2f F1 %.2f" % (100 * score.precision, 100 * score.recall, 100 * score.f1)


# ---------------------------------------------------------------------------
# Per-n diagnostics.

def per_n_f1(gold_corpus, pred_corpus):
    """Classification P/R/F1 of the n component, per distinct n token.

    Corpora must be aligned sentence by sentence with equal lengths.
    Returns {n token: (precision, recall, f1)}.
    """
    if len(gold_corpus) != len(pred_corpus):
        raise ValueError("corpora differ in length")
    matched = Counter()
    gold = Counter()
    pred = Counter()
    for g, p in zip(gold_corpus, pred_corpus):
        if len(g) != len(p):
            raise ValueError("sentence lengths differ: %d vs %d" % (len(g), len(p)))
        g_tokens, p_tokens = g.n_tokens(), p.n_tokens()
        gold.update(g_tokens)
        pred.update(p_tokens)
        matched.update(gt for gt, pt in zip(g_tokens, p_tokens) if gt == pt)
    scores = {tok: BracketScore(matched[tok], gold[tok], pred[tok]) for tok in gold | pred}
    return {tok: (score.precision, score.recall, score.f1) for tok, score in scores.items()}


def n_token_sort_key(tok):
    """Order n tokens for reports: relative by value, then absolute, DUMMY last."""
    n = NComponent.from_token(tok)
    return (RELATIVE, ABSOLUTE, "dummy").index(n.scale), n.value or 0


# ---------------------------------------------------------------------------
# Label-space statistics.

@dataclass(frozen=True)
class LabelSpaceStats:
    total_distinct: int
    freq_histogram: dict

    def rare_fraction(self, threshold):
        """Fraction of distinct labels occurring `threshold` times or fewer."""
        if not self.freq_histogram:
            return 0.0
        rare = sum(1 for n in self.freq_histogram.values() if n <= threshold)
        return rare / len(self.freq_histogram)


def label_space_stats(corpus, decomposed=False):
    """Count distinct labels over an encoded corpus.

    Full mode counts whole ``n~c~u`` strings; decomposed mode counts the
    three sub-vocabularies separately (namespaced in the histogram), so
    total_distinct becomes |N|+|C|+|U|.
    """
    if not corpus:
        raise ValueError("empty corpus")
    hist = Counter()
    for encoded in corpus:
        for lab in encoded.labels:
            if decomposed:
                hist.update(prefix + part for prefix, part in zip(("n:", "c:", "u:"), lab.parts()))
            else:
                hist[lab.token()] += 1
    return LabelSpaceStats(len(hist), dict(hist))
