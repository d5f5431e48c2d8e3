"""Auxiliary-track tests.

Distance expectations come from an oracle that recomputes split
priorities by direct bottom-up recursion over an independently collapsed
tree.
"""

import pytest

from treetag.trees import Leaf, parse_bracketed, random_tree
from treetag.encodings import encode_relative
from treetag.auxtracks import PAD, shifted_n, syntactic_distances

from test_encodings import oracle_paths

ALPHABET = ["S", "NP", "VP", "PP", "ADJP"]


def enc(text):
    (t,) = parse_bracketed(text)
    return t, encode_relative(t)


# ---------------------------------------------------------------------------
# shifted n tracks

def test_shifted_forward():
    _, e = enc("(S (NP (D the) (N dog)) (VP (V barks)))")
    track = shifted_n(e, +1)
    assert list(track) == ["r-1", "DUMMY", PAD]


def test_shifted_backward():
    _, e = enc("(S (NP (D the) (N dog)) (VP (V barks)))")
    track = shifted_n(e, -1)
    assert list(track) == [PAD, "r2", "r-1"]


def test_shifted_single_word():
    _, e = enc("(X (N a))")
    assert list(shifted_n(e, +1)) == [PAD]


def test_shifted_zero_rejected():
    _, e = enc("(X (A a) (B b))")
    with pytest.raises(ValueError):
        shifted_n(e, 0)


@pytest.mark.parametrize("seed", range(20))
def test_shift_then_unshift_recovers_interior(seed):
    t = random_tree(seed, 15, 8, ALPHABET)
    e = encode_relative(t)
    fwd = shifted_n(e, +1)
    shifted_back = [PAD] + list(fwd[:-1])
    for t_idx, tok in enumerate(e.n_tokens()):
        if 0 < t_idx < len(e) and shifted_back[t_idx] != PAD:
            assert shifted_back[t_idx] == tok


# ---------------------------------------------------------------------------
# syntactic distances

def oracle_distances(tree):
    paths = oracle_paths(tree)

    def priority(node):
        if isinstance(node, Leaf):
            return 0
        return max(priority(c) for c in node.children) + 1

    values = []
    for a, b in zip(paths, paths[1:]):
        k = 0
        while k < min(len(a), len(b)) and a[k] is b[k]:
            k += 1
        values.append(str(priority(a[k - 1])))
    values.append(PAD)
    return values


def test_distances_three_leaf():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    assert list(syntactic_distances(t)) == ["1", "2", PAD]


def test_distances_flat():
    (t,) = parse_bracketed("(S (A a) (B b) (C c))")
    assert list(syntactic_distances(t)) == ["1", "1", PAD]


def test_distances_right_branching():
    (t,) = parse_bracketed("(S (A a) (VP (V saw) (NP (D the) (N dog))))")
    assert list(syntactic_distances(t)) == ["3", "2", "1", PAD]


def test_distances_single_word():
    (t,) = parse_bracketed("(X (N a))")
    assert list(syntactic_distances(t)) == [PAD]


@pytest.mark.parametrize("seed", range(50))
def test_distances_match_oracle(seed):
    t = random_tree(seed, 18, 10, ALPHABET)
    assert list(syntactic_distances(t)) == oracle_distances(t)


@pytest.mark.parametrize("seed", range(30))
def test_distance_values_positive(seed):
    t = random_tree(seed, 15, 9, ALPHABET)
    for v in syntactic_distances(t):
        if v != PAD:
            assert int(v) >= 1


def test_distance_cap():
    (t,) = parse_bracketed("(S (A a) (VP (V saw) (NP (D the) (N dog))))")
    assert list(syntactic_distances(t, cap=2)) == ["2", "2", "1", PAD]
    for cap in (0, -1):
        with pytest.raises(ValueError, match="distance cap must be >= 1"):
            syntactic_distances(t, cap=cap)


def test_root_priority_equals_collapsed_depth():
    for seed in range(30):
        t = random_tree(seed, 15, 9, ALPHABET)
        paths = oracle_paths(t)
        if len(paths) == 1:
            continue
        values = syntactic_distances(t)
        assert max(int(v) for v in values if v != PAD) == max(len(p) for p in paths)


def test_track_alignment_invariant():
    t, e = enc("(S (NP (D the) (N dog)) (VP (V barks)))")
    for track in (syntactic_distances(t), shifted_n(e, 1), shifted_n(e, -1)):
        assert len(track) == len(e)
