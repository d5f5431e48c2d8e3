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
chains inline and yields the leaves and, per adjacent word pair, the
shared count, the label of the node whose consecutive children the pair
straddles (the LCA) and that node's split priority; the encoders and the
distance track both read from it.  Nonterminals that would not survive the round trip (empty,
containing ``+`` or ``~``, or equal to ``DUMMY`` or ``NONE``) are rejected
there with a ValueError.  No walk here recurses, so trees of any depth
round-trip.

Everything here is pure and operates on immutable inputs.  The process-wide,
thread-safe tables (labels, n components, checked nonterminals, chain bracket
text: one entry per distinct one) and a label's formatted token are caches.
"""

import functools
from collections import Counter
from dataclasses import dataclass

from .trees import CHAIN_SEP, Internal, Leaf, Sentence

RELATIVE = "relative"
ABSOLUTE = "absolute"
DYNAMIC = "dynamic"
SCHEMES = (RELATIVE, ABSOLUTE, DYNAMIC)

DUMMY = "DUMMY"
NO_CHAIN = "NONE"
FIELD_SEP = "~"
PLACEHOLDER = "X"

# dynamic switch thresholds: shared depth at most this...
_SWITCH_MAX_ABS = 3
# ...while the count dropped by at least this much
_SWITCH_MAX_REL = -2

_CHECKED = set()  # the nonterminals boundaries() has passed: one check each per process


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
        return self._token

    @functools.cached_property  # formatted at most once per instance
    def _token(self):
        prefix = "r" if self.scale == RELATIVE else "a"
        return DUMMY if self.is_dummy else "%s%d" % (prefix, self.value)

    @classmethod
    def from_token(cls, tok):
        """The n component whose token() is `tok`; other text raises ValueError."""
        return _n_component(*_n_args(tok))


@dataclass(frozen=True)
class TagLabel:
    """One per-word label: (n, c, u).

    c is a nonterminal (possibly ``+``-joined) or DUMMY; u is the word's
    leaf unary chain, ``+``-joined top-down, empty string when absent.
    token() raises ValueError if token_parts would not read it back as this label.
    """

    n: NComponent
    c: str
    u: str = ""

    def parts(self):
        """The (n, c, u) sublabel tokens, with u = NO_CHAIN when empty."""
        return self.n.token(), self.c, self.u or NO_CHAIN

    def token(self):
        return self._token

    @functools.cached_property  # formatted, and checked, at most once per instance
    def _token(self):
        tok = FIELD_SEP.join(self.parts())
        if token_parts(tok) != (self.n, self.c, self.u):
            raise ValueError("label token %r does not read back as %r" % (tok, self))
        return tok


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


def _n_args(tok):
    """The (scale, value) of NComponent.from_token(tok), read off the text."""
    if tok == DUMMY:
        return "dummy", None
    scale = {"r": RELATIVE, "a": ABSOLUTE}.get(tok[:1])
    try:
        value = int(tok[1:])
        if scale and str(value) == tok[1:] and (scale == RELATIVE or value >= 1):
            return scale, value
    except ValueError:
        pass
    raise ValueError("bad n token %r" % tok)


def token_parts(tok):
    """The (n, c, u) of the TagLabel whose token() is `tok`, building no label:
    n from the process-wide _n_component, u empty for NO_CHAIN.  Other text
    raises ValueError before any table is touched."""
    parts = tok.split(FIELD_SEP)
    if len(parts) != 3:
        raise ValueError("bad label token %r" % tok)
    n, c, u = parts
    scale, value = _n_args(n)
    if (scale == "dummy") != (c == DUMMY):
        raise ValueError("bad label token %r: n and c must both be %s or neither" % (tok, DUMMY))
    try:
        for chain, reserved in ((c, DUMMY), (u, NO_CHAIN)):
            if chain != reserved:
                for part in chain.split(CHAIN_SEP):
                    _check_label(part)
    except ValueError as e:
        raise ValueError("bad label token %r: %s" % (tok, e)) from None
    return _n_component(scale, value), c, "" if u == NO_CHAIN else u


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

    Returns (leaves, u_chains, pairs): the Leaf nodes, each leaf's unary
    chain (``+``-joined top-down, empty when absent), and for each adjacent
    leaf pair a triple (shared-ancestor count, LCA label, LCA split
    priority), counted on the unary-collapsed tree.  Raises ValueError on a
    reserved or empty nonterminal label.  Iterative, in pre-order.
    """
    leaves = []
    u_chains = []
    lcas = []  # per adjacent leaf pair, the phrase whose children it straddles
    # open phrases as [children left to visit, label, depth, highest child
    # priority (its own once closed), first leaf], the outermost a holder of the tree
    phrase = [iter((tree,)), None, 0, 0, 0]
    frames = []  # the phrases enclosing `phrase`
    while True:
        for node in phrase[0]:
            if len(leaves) > phrase[4]:  # not the first child
                lcas.append(phrase)
            label = ""  # the labels of `node` and the unary chain below it, joined top-down
            while isinstance(node, Internal):
                if node.label not in _CHECKED:
                    _check_label(node.label)
                    _CHECKED.add(node.label)
                label = label + CHAIN_SEP + node.label if label else node.label
                if len(node.children) > 1:
                    break
                node = node.children[0]
            if isinstance(node, Leaf):
                leaves.append(node)
                u_chains.append(label)
                continue
            frames.append(phrase)
            phrase = [iter(node.children), label, len(frames), 0, len(leaves)]
            break
        else:
            if not frames:
                return leaves, u_chains, [(d, label, p) for _, label, d, p, _ in lcas]
            phrase[3] += 1
            priority = phrase[3]
            phrase = frames.pop()
            phrase[3] = max(phrase[3], priority)


# ---------------------------------------------------------------------------
# Encoders.

_n_component = functools.lru_cache(maxsize=None)(NComponent)


@functools.lru_cache(maxsize=None)
def _label(scale, value, c, u):
    """TagLabel(NComponent(scale, value), c, u), built once per process
    and sharing its n with the other labels of that n."""
    return TagLabel(_n_component(scale, value), c, u)


def _encode(tree, scheme, walk):
    leaves, u_chains, pairs = boundaries(tree) if walk is None else walk
    labels = []
    prev = 0
    for (count, lca, _), u in zip(pairs, u_chains):
        if scheme == ABSOLUTE or (scheme == DYNAMIC and count <= _SWITCH_MAX_ABS
                                  and count - prev <= _SWITCH_MAX_REL):
            labels.append(_label(ABSOLUTE, count, lca, u))
        else:
            labels.append(_label(RELATIVE, count - prev, lca, u))
        prev = count
    labels.append(_label("dummy", None, DUMMY, u_chains[-1]))
    sentence = Sentence([leaf.word for leaf in leaves], [leaf.pos for leaf in leaves])
    return EncodedSentence(sentence, labels, scheme)


def encode_relative(tree, walk=None):
    """n = change in shared-ancestor count versus the previous pair."""
    return _encode(tree, RELATIVE, walk)


def encode_absolute(tree, walk=None):
    """n = raw shared-ancestor count on the top-down scale."""
    return _encode(tree, ABSOLUTE, walk)


def encode_dynamic(tree, walk=None):
    """Relative scale with absolute-scale switches on long closings.

    A position is emitted on the absolute scale iff the pair shares at
    most the top 3 levels and the shared count just dropped by 2 or more.
    Both conditions are evaluated against the gold counts.
    """
    return _encode(tree, DYNAMIC, walk)


def encode(tree, scheme, walk=None):
    """Encode `tree` in `scheme`; `walk` is ``boundaries(tree)`` if already computed."""
    if scheme == RELATIVE:
        return encode_relative(tree, walk)
    if scheme == ABSOLUTE:
        return encode_absolute(tree, walk)
    if scheme == DYNAMIC:
        return encode_dynamic(tree, walk)
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
        return not any(vars(self).values())


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
    sentence, labels, log = encoded.sentence, encoded.labels, RepairLog()
    wrapped = [_wrap_chain(lab.u, [Leaf(pos, word)]) if lab.u else Leaf(pos, word)
               for lab, word, pos in zip(labels, sentence.words, sentence.pos)]
    return _spine([lab.n for lab in labels], [lab.c for lab in labels], wrapped, log), log


def decoded_spans(ns, cs, us):
    """labeled_spans(decode(·)) of a label sequence given as its n
    components, c labels and u chains, building neither labels nor tree."""
    spans = [(part, t, t + 1) for t, u in enumerate(us) if u for part in u.split(CHAIN_SEP)]
    _spine(ns, cs, us, RepairLog(), spans)
    return Counter(spans)


def decoded_line(sentence, ns, cs, us):
    """(serialize(tree), log) of decode_with_repairs() of a label sequence
    given as its n components, c labels and u chains, written without
    building labels or the tree."""
    if not len(ns) == len(cs) == len(us) == len(sentence):
        raise ValueError("%d labels for %d words" % (len(us), len(sentence)))
    log, line = RepairLog(), []
    words = zip(sentence.words, sentence.pos, map(_brackets, us))
    _spine(ns, cs, [o + " (%s %s)" % (p, w) + c for w, p, (o, c) in words], log, line=line)
    return "".join(line)[1:], log


def _spine(ns, cs, leaves, log, spans=None, line=None):
    """The decoder's one pass along the rightmost spine.  Position t
    brings ns[t] and cs[t] (both ignored at the last position) and
    leaves[t]: its wrapped leaf node; its leaf chain, when `spans` collects
    every phrase's (label, start, end) instead; or its wrapped leaf's text,
    when `line` collects the parts of the tree's bracketed line instead.
    An open node is [label, start, children], start being its first word or
    the slot in `line` its opening text fills; it is final, and repaired,
    once it leaves the spine.  Returns the tree when building."""
    last = len(leaves) - 1
    spine = []

    def close(end):
        label, start, kids = spine.pop()
        # a lone child is never a leaf (the deepest node opened at word
        # t < last gets a second child at t + 1): an overlong climb
        if label is None and len(kids) == 1:
            node = kids[0]
            log.spliced += 1
        else:
            if label is None:
                label = PLACEHOLDER
                log.placeholders += 1
            if line is not None:
                node = True
                line[start], closing = _brackets(label)
                line.append(closing)
            elif spans is None:
                node = _wrap_chain(label, kids)
            else:
                node = True
                for part in label.split(CHAIN_SEP):
                    spans.append((part, start, end))
        if spine:
            spine[-1][2].append(node)
        return node

    share = 0
    for t, leaf in enumerate(leaves):
        if t:
            while len(spine) > share:
                close(t)
            c = cs[t - 1]
            if c and c != DUMMY:
                target = spine[-1]
                if target[0] is None:
                    target[0] = c
                elif target[0] != c:
                    log.label_conflicts += 1
        count = 1  # the count shared with the next word, with repairs
        if t < last:
            n = ns[t]
            if n.scale == RELATIVE:
                raw = share + n.value
            elif n.scale == ABSOLUTE:
                raw = n.value
            else:
                raw = share if share > 0 else 1
                log.interior_dummies += 1
            count = raw if raw > 0 else 1
            if count != raw:
                log.clamped += 1
        if line is None:
            while len(spine) < count:
                spine.append([None, t, []])
        else:
            while len(spine) < count:
                spine.append([None, len(line), []])
                line.append("")  # stays empty if the node is spliced
            line.append(leaf)
        spine[-1][2].append(leaf)
        share = count
    if not last:
        return leaves[0]
    while spine:
        tree = close(last + 1)
    return tree


@functools.lru_cache(maxsize=None)  # one entry per chain decoded in this process
def _brackets(chain):
    """The text opening and closing the nodes of a ``+``-joined chain."""
    return ((" (" + chain.replace(CHAIN_SEP, " ("), ")" * (chain.count(CHAIN_SEP) + 1))
            if chain else ("", ""))


def _wrap_chain(chain, children):
    """The nodes of a non-empty ``+``-joined chain (top-down order) over
    `children`."""
    for part in reversed(chain.split(CHAIN_SEP)):
        children = [Internal(part, children)]
    return children[0]
