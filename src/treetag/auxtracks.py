"""Auxiliary supervision tracks for the tagger.

Two kinds are supported: copies of the n component shifted by k positions
(so the model also predicts its neighbours' level changes), and syntactic
split distances (how late each boundary would be split by a top-down
parser).  Both produce one token per word; positions without a defined
value carry PAD.
"""

from dataclasses import dataclass

from .encodings import boundaries

PAD = "PAD"

DISTANCE = "dist"


@dataclass(frozen=True)
class AuxTrack:
    """One auxiliary label per word.  `name` doubles as the task id."""

    name: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


def shifted_n(encoded, k):
    """The n token of the label k positions away (PAD out of range)."""
    if k == 0:
        raise ValueError("k=0 would duplicate the main task")
    tokens = encoded.n_tokens()
    T = len(tokens)
    values = [tokens[t + k] if 0 <= t + k < T else PAD for t in range(T)]
    return AuxTrack("n%+d" % k, values)


def syntactic_distances(tree, cap=None, walk=None):
    """Distance track: each word gets the split priority of its LCA with
    the next word; the last word gets PAD.  `cap` (>= 1) optionally clips
    values from above (deep corpora can otherwise grow the label set
    without bound).  `walk` is ``boundaries(tree)`` when the caller
    already has it."""
    if cap is not None and cap < 1:
        raise ValueError("distance cap must be >= 1, got %r" % (cap,))
    _, pairs = boundaries(tree) if walk is None else walk
    values = [str(p if cap is None else min(p, cap)) for _, _, p in pairs]
    values.append(PAD)
    return AuxTrack(DISTANCE, values)


def make_track(name, tree, encoded, cap=None, walk=None):
    """Build the aux track `name` ("n+1", "n-1" or "dist") for a sentence."""
    if name == DISTANCE:
        return syntactic_distances(tree, cap=cap, walk=walk)
    if name.startswith("n"):
        k = int(name[1:])
        return shifted_n(encoded, k)
    raise ValueError("unknown auxiliary track %r" % name)
