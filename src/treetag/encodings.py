"""Tree linearizations and their inverse.

A tree over ``T`` words becomes one label per word.  Each label is a
triple: an ``n`` component saying how many top tree levels the word shares
with its right neighbour (stored on a relative or an absolute scale), the
nonterminal at that shared level (``c``), and the word's leaf unary chain
(``u``).  The last word carries a reserved dummy ``n``/``c`` so the label
sequence has the same length as the sentence.

Three schemes are provided:

* relative  - ``n`` is the change in shared-ancestor count versus the
  previous word pair (first pair counts from zero);
* absolute  - ``n`` is the raw shared-ancestor count, root = level 1;
* dynamic   - relative by default, switching a position to the absolute
  scale when the pair shares at most the top 3 levels *and* the count just
  dropped by 2 or more, i.e. exactly when a long constituent closes.  The
  scale is part of the label, so decoding needs no side channel.

Ancestors are counted on the unary-collapsed tree: a chain of
single-child nonterminals counts as one ``+``-joined node, and a chain
hanging over a single preterminal moves into ``u``; both are restored on
decoding.  One walk over the original tree (``boundaries``) follows such
chains inline and yields, per adjacent word pair, the shared count, the
label of the node whose consecutive children the pair straddles (the LCA)
and that node's split priority; the encoders, ``common_ancestors`` and the
distance track all read from it.  Nonterminals that would not survive the
round trip (empty, containing ``+`` or ``~``, or equal to ``DUMMY`` or
``NONE``) are rejected there with a ValueError.

Everything here is pure and operates on immutable inputs.
"""

from dataclasses import dataclass

from .trees import Internal, Leaf, Sentence

RELATIVE = "relative"
ABSOLUTE = "absolute"
DYNAMIC = "dynamic"
SCHEMES = (RELATIVE, ABSOLUTE, DYNAMIC)

DUMMY = "DUMMY"
NO_CHAIN = "NONE"
CHAIN_SEP = "+"
FIELD_SEP = "~"
PLACEHOLDER = "X"

# dynamic switch thresholds: shared depth at most this...
_SWITCH_MAX_ABS = 3
# ...while the count dropped by at least this much
_SWITCH_MAX_REL = -2


@dataclass(frozen=True)
class NComponent:
    """The n part of a label: a scale plus a level count.

    scale is "relative", "absolute" or "dummy"; dummy carries no value.
    """

    scale: str
    value: int = None

    def __post_init__(self):
        if self.scale == "dummy":
            if self.value is not None:
                raise ValueError("dummy n carries no value")
        elif self.scale == RELATIVE:
            if not isinstance(self.value, int):
                raise ValueError("relative n needs an integer value")
        elif self.scale == ABSOLUTE:
            if not isinstance(self.value, int) or self.value < 1:
                raise ValueError("absolute n must be an integer >= 1")
        else:
            raise ValueError("unknown n scale %r" % self.scale)

    @property
    def is_dummy(self):
        return self.scale == "dummy"

    def token(self):
        if self.is_dummy:
            return DUMMY
        prefix = "r" if self.scale == RELATIVE else "a"
        return "%s%d" % (prefix, self.value)

    @classmethod
    def from_token(cls, tok):
        if tok == DUMMY:
            return cls("dummy")
        if tok[:1] == "r":
            return cls(RELATIVE, int(tok[1:]))
        if tok[:1] == "a":
            return cls(ABSOLUTE, int(tok[1:]))
        raise ValueError("bad n token %r" % tok)


def dummy_n():
    return NComponent("dummy")


@dataclass(frozen=True)
class TagLabel:
    """One per-word label: (n, c, u).

    c is a nonterminal (possibly ``+``-joined) or DUMMY; u is the word's
    leaf unary chain, ``+``-joined top-down, empty string when absent.
    """

    n: NComponent
    c: str
    u: str = ""

    def token(self):
        return FIELD_SEP.join((self.n.token(), self.c, self.u if self.u else NO_CHAIN))

    @classmethod
    def from_token(cls, tok):
        parts = tok.split(FIELD_SEP)
        if len(parts) != 3:
            raise ValueError("bad label token %r" % tok)
        n, c, u = parts
        return cls(NComponent.from_token(n), c, "" if u == NO_CHAIN else u)

    @classmethod
    def dummy(cls, u=""):
        return cls(dummy_n(), DUMMY, u)


@dataclass(frozen=True)
class EncodedSentence:
    """A sentence plus one TagLabel per word."""

    sentence: Sentence
    labels: tuple
    scheme: str

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.sentence):
            raise ValueError(
                "%d labels for %d words" % (len(self.labels), len(self.sentence))
            )
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r" % self.scheme)

    def __len__(self):
        return len(self.labels)

    def n_tokens(self):
        return [lab.n.token() for lab in self.labels]

    def tokens(self):
        return [lab.token() for lab in self.labels]


# ---------------------------------------------------------------------------
# The tree walk.

def _check_label(label):
    if not label or label in (DUMMY, NO_CHAIN) or CHAIN_SEP in label or FIELD_SEP in label:
        raise ValueError(
            "nonterminal %r cannot be encoded: labels must be non-empty, must not "
            "contain %r or %r and must not be %s or %s"
            % (label, CHAIN_SEP, FIELD_SEP, DUMMY, NO_CHAIN)
        )


def boundaries(tree):
    """Everything the encoders and the distance track read off a tree.

    Returns (u_chains, pairs): one leaf unary chain per leaf (``+``-joined
    top-down, empty when absent), and for each adjacent leaf pair a triple
    (shared-ancestor count, LCA label, LCA split priority), all counted on
    the unary-collapsed tree.  Raises ValueError on a reserved or empty
    nonterminal label.
    """
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


def common_ancestors(tree, t):
    """Shared-ancestor count and LCA label for the pair (word t, word t+1).

    `t` is 1-based and must satisfy 1 <= t < number of leaves.  Counting
    runs over the unary-collapsed tree, excludes preterminals and counts
    the root as level 1, so the count is always >= 1.
    """
    _, pairs = boundaries(tree)
    if not 1 <= t <= len(pairs):
        raise IndexError("pair index %d out of range 1..%d" % (t, len(pairs)))
    count, lca, _ = pairs[t - 1]
    return count, lca


# ---------------------------------------------------------------------------
# Encoders.

def _encode(tree, pick_n):
    sentence = Sentence.from_tree(tree)
    u_chains, pairs = boundaries(tree)
    labels = []
    prev = 0
    for (count, lca, _), u in zip(pairs, u_chains):
        labels.append(TagLabel(pick_n(count, prev), lca, u))
        prev = count
    labels.append(TagLabel.dummy(u_chains[-1]))
    return sentence, labels


def encode_relative(tree):
    """n = change in shared-ancestor count versus the previous pair."""
    sentence, labels = _encode(tree, lambda count, prev: NComponent(RELATIVE, count - prev))
    return EncodedSentence(sentence, labels, RELATIVE)


def encode_absolute(tree):
    """n = raw shared-ancestor count on the top-down scale."""
    sentence, labels = _encode(tree, lambda count, prev: NComponent(ABSOLUTE, count))
    return EncodedSentence(sentence, labels, ABSOLUTE)


def encode_dynamic(tree):
    """Relative scale with absolute-scale switches on long closings.

    A position is emitted on the absolute scale iff the pair shares at
    most the top 3 levels and the shared count just dropped by 2 or more.
    Both conditions are evaluated against the gold counts.
    """

    def pick(count, prev):
        if count <= _SWITCH_MAX_ABS and count - prev <= _SWITCH_MAX_REL:
            return NComponent(ABSOLUTE, count)
        return NComponent(RELATIVE, count - prev)

    sentence, labels = _encode(tree, pick)
    return EncodedSentence(sentence, labels, DYNAMIC)


def encode(tree, scheme):
    if scheme == RELATIVE:
        return encode_relative(tree)
    if scheme == ABSOLUTE:
        return encode_absolute(tree)
    if scheme == DYNAMIC:
        return encode_dynamic(tree)
    raise ValueError("unknown scheme %r" % scheme)


# ---------------------------------------------------------------------------
# Decoding.

@dataclass
class RepairLog:
    """What the decoder had to fix.  All zero on any encoder's own output."""

    clamped: int = 0
    interior_dummies: int = 0
    label_conflicts: int = 0
    placeholders: int = 0
    spliced: int = 0

    def clean(self):
        return not (
            self.clamped
            or self.interior_dummies
            or self.label_conflicts
            or self.placeholders
            or self.spliced
        )


class _Draft:
    """Mutable node used while rebuilding the skeleton."""

    __slots__ = ("label", "children")

    def __init__(self):
        self.label = None
        self.children = []


def decode(encoded):
    """Rebuild a tree from a label sequence; exact inverse of the encoders.

    Arbitrary label sequences of the right length are repaired
    deterministically rather than rejected, so this never fails on tagger
    output (see decode_with_repairs).
    """
    tree, _ = decode_with_repairs(encoded)
    return tree


def decode_with_repairs(encoded):
    """decode() plus a RepairLog describing any fixes applied.

    Repairs: shared counts are clamped to >= 1; a dummy n at an interior
    position repeats the previous count; when two positions disagree about
    a node's label the first assignment wins; nodes that never received a
    label become PLACEHOLDER, except that unlabelled nodes left with a
    single phrase child are artifacts of an overlong climb and are spliced
    out.  The final position's n and c are ignored (dummy by contract).
    """
    sentence = encoded.sentence
    labels = encoded.labels
    if len(labels) != len(sentence):
        raise ValueError("%d labels for %d words" % (len(labels), len(sentence)))
    log = RepairLog()
    T = len(sentence)
    wrapped = [
        _wrap_chain(lab.u, [Leaf(pos, word)])
        for word, pos, lab in zip(sentence.words, sentence.pos, labels)
    ]
    if T == 1:
        return wrapped[0], log

    # shared counts from the n components, with repairs
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

    # rebuild the skeleton along the rightmost spine
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

    return _finalize(root, log), log


def _finalize(node, log):
    if isinstance(node, (Leaf, Internal)):
        return node
    kids = [_finalize(child, log) for child in node.children]
    if node.label is None:
        if len(kids) == 1 and isinstance(kids[0], Internal):
            log.spliced += 1
            return kids[0]
        log.placeholders += 1
        return Internal(PLACEHOLDER, kids)
    return _wrap_chain(node.label, kids)


def _wrap_chain(chain, children):
    """The nodes of a ``+``-joined chain (top-down order) over `children`;
    an empty chain stands for the single child itself."""
    if not chain:
        return children[0]
    for part in reversed(chain.split(CHAIN_SEP)):
        children = [Internal(part, children)]
    return children[0]
