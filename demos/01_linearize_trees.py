"""Walk through the three tree linearizations and decoding.

Run: python3 demos/01_linearize_trees.py
"""

from treetag import (
    SCHEMES,
    EncodedSentence,
    NComponent,
    TagLabel,
    decode,
    decode_with_repairs,
    encode,
    parse_bracketed,
    serialize,
)
from treetag.encodings import DUMMY
from treetag.trees import Sentence

TREE = "(S (NP (NP (D a) (N b)) (PP (P c) (NP (D d) (N e)))) (VP (V f)))"


def main():
    (tree,) = parse_bracketed(TREE)
    print("input tree:")
    print("  " + serialize(tree))
    print()
    print("Each word gets one label '<n>~<c>~<u>': how many top levels it")
    print("shares with the next word, the nonterminal at that level, and")
    print("its leaf unary chain.  The last word carries the dummy label.")
    print()

    for scheme in SCHEMES:
        encoded = encode(tree, scheme)
        print("%-9s %s" % (scheme, "  ".join(encoded.tokens())))
    print()
    print("Note the final real position: the relative scheme writes r-3")
    print("(close three levels), the dynamic scheme switches to a1 (back")
    print("to the top level) because the pair shares <= 3 levels and the")
    print("count just dropped by >= 2 - exactly the long-closing case the")
    print("absolute scale compresses.")
    print()

    for scheme in SCHEMES:
        rebuilt = decode(encode(tree, scheme))
        assert rebuilt == tree
    print("decode(encode(tree)) reproduces the tree under all three schemes.")
    print()

    # Decoding is total: a nonsense label sequence is repaired, not refused.
    sentence = Sentence(("w0", "w1"), ("P0", "P1"))
    nonsense = EncodedSentence(
        sentence,
        [TagLabel(NComponent("relative", 5), "C"), TagLabel(NComponent("dummy"), DUMMY)],
        "relative",
    )
    repaired, log = decode_with_repairs(nonsense)
    print("nonsense labels %s decode to %s" % (nonsense.tokens(), serialize(repaired)))
    print("repairs applied: %r" % log)


if __name__ == "__main__":
    main()
