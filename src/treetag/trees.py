"""Bracketed constituent trees: reading, writing, and synthesising.

Trees are immutable once built, so they can be shared freely between
threads.  The on-disk format is the usual one-tree-per-line bracketing
(``(S (NP (D the) (N dog)) (VP (V barks)))``); literal parentheses inside
tokens are expected to be pre-escaped as ``-LRB-``/``-RRB-`` and are kept
verbatim.
"""

import random
import re
from dataclasses import dataclass


class Leaf:
    """A preterminal: POS tag over a single word."""

    __slots__ = ("pos", "word")

    def __init__(self, pos, word):
        self.pos = pos
        self.word = word

    def __eq__(self, other):
        return isinstance(other, Leaf) and self.pos == other.pos and self.word == other.word

    def __hash__(self):
        return hash((Leaf, self.pos, self.word))

    def __repr__(self):
        return "Leaf(%r, %r)" % (self.pos, self.word)


class Internal:
    """A phrase node with a nonterminal label and at least one child."""

    __slots__ = ("label", "children")

    def __init__(self, label, children):
        children = tuple(children)
        if not children:
            raise ValueError("internal node %r must have at least one child" % label)
        self.label = label
        self.children = children

    def __eq__(self, other):
        pairs = [(self, other)]  # grows as it is read: no recursion, any depth
        for a, b in pairs:
            if isinstance(a, Leaf):
                if a != b:
                    return False
            elif (isinstance(b, Internal) and a.label == b.label
                  and len(a.children) == len(b.children)):
                pairs += zip(a.children, b.children)
            else:
                return False
        return True

    def __hash__(self):
        return hash(serialize(self))

    def __repr__(self):
        return "Internal(%r, %r)" % (self.label, list(self.children))


def leaves(tree):
    """Yield the Leaf nodes of `tree` left to right."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Sentence:
    """A tokenised sentence with one POS tag per word."""

    words: tuple
    pos: tuple

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "pos", tuple(self.pos))
        if not self.words:
            raise ValueError("sentence must be non-empty")
        if len(self.words) != len(self.pos):
            raise ValueError(
                "got %d words but %d POS tags" % (len(self.words), len(self.pos))
            )

    def __len__(self):
        return len(self.words)

    @classmethod
    def from_tree(cls, tree):
        ls = list(leaves(tree))
        return cls(tuple(l.word for l in ls), tuple(l.pos for l in ls))


class ParseError(ValueError):
    """Malformed bracketing.  `offset` is a byte offset into the input (a
    line of file `path`, if given; None for the file as a whole) and
    `message` the text without the position."""

    def __init__(self, message, offset, line=None, path=None):
        self.message = message
        self.offset = offset
        self.line = line
        self.path = path
        where = "%s:%d: " % (path, line) if line is not None else ""
        at = "byte %d: " % offset if offset is not None else ""
        super().__init__("%s%s%s" % (where, at, message))


_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")

_FUNC_RE = re.compile(r"^([^-=]+)[-=]")


def strip_function(label):
    """Drop function annotations / indices: ``NP-SBJ-1`` -> ``NP``.

    Leading hyphens (``-LRB-`` etc.) are left alone.
    """
    m = _FUNC_RE.match(label)
    return m.group(1) if m else label


def parse_bracketed(text, strip_functions=False):
    """Parse zero or more bracketed trees from `text`.

    Tolerates arbitrary whitespace between tokens.  A label-less wrapper
    group ``( (S ...) )`` (as in raw PTB .mrg files) is unwrapped when it
    has a single child and labelled TOP otherwise.  Iterative, so nesting
    depth is not bounded by the recursion limit.
    """
    tokens = _TOKEN_RE.findall(text)
    n = len(tokens)
    tokens += (None, None, None)  # lookahead past the end reads None
    trees = []
    out = trees  # finished children of the innermost open group
    stack = []  # (label or None, its parent's `out`) per open group
    i = 0
    while i < n:
        tok = tokens[i]
        if tok == "(":
            label = tokens[i + 1]
            if label == "(":  # a label-less wrapper group
                stack.append((None, out))
                out = []
                i += 1
                continue
            if label == ")":
                raise _error_at(text, i + 1, "empty constituent '()'")
            word = tokens[i + 2]
            if word == "(" or word == ")":
                # a phrase: its children (or its closing bracket) follow
                stack.append((label, out))
                out = []
                i += 2
                continue
            if tokens[i + 3] != ")":
                message = "unbalanced '('" if word is None else "expected ')' after leaf"
                raise _error_at(text, i + 3, message)
            out.append(Leaf(label, word))
            i += 4
        elif tok == ")":
            if not stack:
                raise _error_at(text, i, "expected '(', found %r" % tok)
            label, parent = stack.pop()
            if not out:
                raise _error_at(text, i, "constituent %r has no children" % label)
            if label is None and len(out) == 1:
                parent.append(out[0])
            else:
                if label is None:
                    label = "TOP"
                if strip_functions:
                    label = strip_function(label)
                parent.append(Internal(label, out))
            out = parent
            i += 1
        else:
            expected = "')'" if stack else "'('"
            raise _error_at(text, i, "expected %s, found %r" % (expected, tok))
    if stack:
        raise _error_at(text, n, "unbalanced '('")
    return trees


def _error_at(text, k, message):
    """A ParseError at the k-th token of `text` (its end if there is none),
    re-scanning the tokens: offsets are needed only on this path."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    at = starts[k] if k < len(starts) else len(text)
    return ParseError(message, len(text[:at].encode("utf-8")))


def serialize(tree):
    """Single-line bracketed form; inverse of parse_bracketed."""
    if isinstance(tree, Leaf):
        return "(%s %s)" % (tree.pos, tree.word)
    parts = ["(%s" % tree.label]
    children = iter(tree.children)  # what the innermost open phrase has left to write
    frames = []  # the same for each enclosing open phrase
    while True:
        for node in children:
            if isinstance(node, Leaf):
                parts.append(" (%s %s)" % (node.pos, node.word))
            else:
                parts.append(" (%s" % node.label)
                frames.append(children)
                children = iter(node.children)
                break
        else:
            parts.append(")")
            if not frames:
                return "".join(parts)
            children = frames.pop()


def load_trees(path, strip_functions=False):
    """Read one tree per line; blank lines skipped.

    Raises ParseError naming the file and line on malformed input, and
    the file (at line 1) when it holds no tree.
    """
    trees = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                parsed = parse_bracketed(line, strip_functions=strip_functions)
            except ParseError as e:
                raise ParseError(e.message, e.offset, lineno, path) from None
            if len(parsed) != 1:
                message = "expected one tree per line, got %d" % len(parsed)
                raise ParseError(message, 0, lineno, path)
            trees.append(parsed[0])
    if not trees:
        raise ParseError("file contains no trees", None, 1, path)
    return trees


def save_trees(path, trees):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(serialize(tree))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Random tree synthesis.

_POS_TAGS = ("P0", "P1", "P2", "P3", "P4", "P5")


def random_tree(rng_seed, max_leaves, max_depth, nonterminal_alphabet):
    """Deterministically sample a tree with <= max_leaves leaves and
    depth (in node levels) <= max_depth.

    The shape distribution is deliberately skewed: one child often takes
    most of the remaining leaf budget, which yields deep constituents whose
    closings drop several levels at once, and both preterminals and phrase
    nodes are occasionally wrapped in unary chains.
    """
    if max_leaves < 1 or max_depth < 1:
        raise ValueError("max_leaves and max_depth must be >= 1")
    alphabet = list(nonterminal_alphabet)
    if not alphabet:
        raise ValueError("nonterminal alphabet must be non-empty")
    rng = random.Random(rng_seed)
    n = rng.randint(1, max_leaves)
    tree, _ = _random_subtree(rng, n, max_depth, alphabet, counter=[0])
    return tree


def _random_leaf(rng, budget, alphabet, counter):
    idx = counter[0]
    counter[0] += 1
    node = Leaf(rng.choice(_POS_TAGS), "x%d" % idx)
    used = 1
    # unary chain over the preterminal, geometric length
    while used < budget and rng.random() < 0.22:
        node = Internal(rng.choice(alphabet), [node])
        used += 1
    return node, used


def _random_subtree(rng, n_leaves, budget, alphabet, counter):
    """Returns (tree, depth_used)."""
    if n_leaves == 1 or budget <= 2:
        return _random_leaf(rng, budget, alphabet, counter)

    k = rng.randint(2, min(3, n_leaves))
    # Skew the leaf budget towards a single child, preferring the last
    # position: right-branching spines below left-edge material are what
    # produce large one-step drops in shared-ancestor counts.
    shares = [1] * k
    rest = n_leaves - k
    if rest > 0:
        if rng.random() < 0.85:
            roll = rng.random()
            if roll < 0.6:
                lucky = k - 1
            elif roll < 0.9:
                lucky = 0
            else:
                lucky = rng.randrange(k)
            shares[lucky] += rest
        else:
            for _ in range(rest):
                shares[rng.randrange(k)] += 1

    kids = []
    deepest = 0
    for share in shares:
        child, d = _random_subtree(rng, share, budget - 1, alphabet, counter)
        kids.append(child)
        deepest = max(deepest, d)
    node = Internal(rng.choice(alphabet), kids)
    used = deepest + 1
    while used < budget and rng.random() < 0.05:
        node = Internal(rng.choice(alphabet), [node])
        used += 1
    return node, used


# ---------------------------------------------------------------------------
# A small PCFG for synthesising training corpora.

class PCFG:
    """Probabilistic CFG with a separate lexicon for preterminals.

    `rules` maps a nonterminal to a list of (rhs symbols, probability);
    `lexicon` maps a POS tag to the words it can emit.
    """

    def __init__(self, start, rules, lexicon):
        self.start = start
        self.rules = rules
        self.lexicon = lexicon
        self._min_depth = self._compute_min_depths()

    def _compute_min_depths(self):
        md = {pos: 1 for pos in self.lexicon}
        for sym in self.rules:
            md.setdefault(sym, 10**9)
        for _ in range(len(self.rules) + 2):
            for sym, alts in self.rules.items():
                for rhs, _p in alts:
                    if all(r in md for r in rhs):
                        cand = 1 + max(md[r] for r in rhs)
                        if cand < md[sym]:
                            md[sym] = cand
        return md

    def sample(self, rng, max_depth):
        return self._expand(self.start, rng, max_depth)

    def _expand(self, sym, rng, budget):
        if sym in self.lexicon:
            return Leaf(sym, rng.choice(self.lexicon[sym]))
        alts = [
            (rhs, p)
            for rhs, p in self.rules[sym]
            if 1 + max(self._min_depth[r] for r in rhs) <= budget
        ]
        if not alts:
            raise ValueError("no expansion of %r fits in depth %d" % (sym, budget))
        total = sum(p for _, p in alts)
        pick = rng.random() * total
        for rhs, p in alts:
            pick -= p
            if pick <= 0:
                break
        return Internal(sym, [self._expand(r, rng, budget - 1) for r in rhs])


def demo_grammar():
    """A compact English-like grammar used by the bundled corpora.

    PP attachment is deliberately unambiguous (PPs only adjoin to NP after
    a noun, or follow the verb directly), so the gold structure is
    recoverable from local context.
    """
    rules = {
        "S": [(("NP", "VP"), 0.9), (("VP",), 0.1)],
        "NP": [
            (("DT", "NN"), 0.45),
            (("DT", "JJ", "NN"), 0.25),
            (("NP", "PP"), 0.18),
            (("PRP",), 0.12),
        ],
        "VP": [
            (("VB", "NP"), 0.5),
            (("VB",), 0.25),
            (("VB", "PP"), 0.25),
        ],
        "PP": [(("IN", "NP"), 1.0)],
    }
    lexicon = {
        "DT": ["the", "a", "some", "this"],
        "NN": [
            "dog", "cat", "man", "park", "fish", "tree",
            "bird", "house", "car", "river", "stone", "cloud",
        ],
        "JJ": ["big", "old", "red", "lazy", "quick", "calm"],
        "VB": ["sees", "likes", "hears", "finds", "chases", "draws", "keeps", "moves"],
        "IN": ["in", "with", "near", "under"],
        "PRP": ["it", "she", "he"],
    }
    return PCFG("S", rules, lexicon)


def sample_corpus(rng_seed, count, grammar=None, max_depth=9):
    """Sample `count` trees from `grammar` (demo_grammar() by default)."""
    grammar = grammar or demo_grammar()
    rng = random.Random(rng_seed)
    return [grammar.sample(rng, max_depth=max_depth) for _ in range(count)]
