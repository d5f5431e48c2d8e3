"""Auxiliary supervision tracks for the tagger.

Two kinds are supported: copies of the n component shifted by k positions
(so the model also predicts its neighbours' level changes), and syntactic
split distances (how late each boundary would be split by a top-down
parser).  A track is the tuple of its labels, one per word; positions
without a defined value carry PAD.
"""

from .encodings import boundaries

PAD = "PAD"

DISTANCE = "dist"


def shifted_n(encoded, k):
    """The n token of the label k positions away (PAD out of range)."""
    if k == 0:
        raise ValueError("k=0 would duplicate the main task")
    tokens = encoded.n_tokens()
    T = len(tokens)
    return tuple(tokens[t + k] if 0 <= t + k < T else PAD for t in range(T))


def syntactic_distances(tree, cap=None, walk=None):
    """Distance track: each word gets the split priority of its LCA with
    the next word; the last word gets PAD.  `cap` (>= 1) optionally clips
    values from above (deep corpora can otherwise grow the label set
    without bound).  `walk` is ``boundaries(tree)`` when the caller
    already has it."""
    if cap is not None and cap < 1:
        raise ValueError("distance cap must be >= 1, got %r" % (cap,))
    _, _, pairs = boundaries(tree) if walk is None else walk
    return (*(str(p if cap is None else min(p, cap)) for _, _, p in pairs), PAD)


def track_names(corpus):
    """The sorted aux track names of (EncodedSentence, {aux name: track})
    pairs, which must be non-empty, share the first pair's scheme and carry
    the same tracks, each with one label per word: the first pair (from 1)
    that does not is a ValueError."""
    if not corpus:
        raise ValueError("empty corpus")
    names, scheme = sorted(corpus[0][1]), corpus[0][0].scheme
    for i, (encoded, aux) in enumerate(corpus, start=1):
        if encoded.scheme != scheme:
            raise ValueError("mixed schemes across corpus: pair %d is %s" % (i, encoded.scheme))
        if sorted(aux) != names or any(len(aux[name]) != len(encoded) for name in names):
            raise ValueError("inconsistent auxiliary tracks across corpus: pair %d" % i)
    return names

