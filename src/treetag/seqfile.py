"""Tab-separated sequence files (.seq) and tagged-sentence files.

A .seq file starts with a header comment::

    # scheme=relative aux=n+1,dist

followed by one line per token (word, POS, main label, then one column
per auxiliary track) and a blank line between sentences.  The companion
"tagged" format is the same minus the header and label columns: word and
POS only, for prediction input.
"""

import re

from .trees import Sentence
from .encodings import SCHEMES, EncodedSentence, TagLabel


# A field must be a token the bracket reader reads back whole.  The signs
# that a text may break that rule: a bracket, whitespace other than the
# tab and newline separators (text mode reads "\r" as a newline), or a
# tab next to a tab or a line end.
_TOKEN = re.compile(r"[^()\s]+")
_SIGNS = ("(", ")", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\t\t", "\t\n", "\n\t")
_SPACE = re.compile(r"[^\S\t\n]")


class SeqFormatError(ValueError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__("%s:%d: %s" % (path, line, message))


def write_seq(path, encoded_corpus, aux_corpus=None):
    """Write sentences (and aligned {aux name: track} dicts, if any) to `path`."""
    if not encoded_corpus:
        raise ValueError("nothing to write")
    scheme = encoded_corpus[0].scheme
    aux_names = sorted(aux_corpus[0]) if aux_corpus else []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scheme=%s aux=%s\n" % (scheme, ",".join(aux_names)))
        for i, encoded in enumerate(encoded_corpus):
            tracks = [aux_corpus[i][name] for name in aux_names]
            for cols in zip(encoded.sentence.words, encoded.sentence.pos, encoded.tokens(),
                            *tracks, strict=True):
                fh.write("\t".join(cols))
                fh.write("\n")
            fh.write("\n")


def read_seq(path):
    """Read a .seq file.

    Returns (encoded sentences, {aux name: track} dicts aligned with them,
    scheme).
    """
    with open(path, encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    if not header.startswith("#"):
        raise SeqFormatError(path, 1, "missing '# scheme=... aux=...' header")
    scheme, aux_names = _parse_header(path, header)
    n_cols = 3 + len(aux_names)
    corpus = []
    aux_corpus = []
    parsed = {}  # label token -> TagLabel, each distinct token checked once
    for first, rows in _blocks(path, body, 2, n_cols, "expected %d columns, got {}" % n_cols):
        words, pos, tokens, *aux = zip(*rows)
        for lineno, tok in enumerate(tokens, start=first):
            if tok not in parsed:
                try:
                    parsed[tok] = TagLabel.from_token(tok)
                except ValueError as e:
                    raise SeqFormatError(path, lineno, str(e)) from None
        labels = [parsed[tok] for tok in tokens]
        corpus.append(EncodedSentence(Sentence(words, pos), labels, scheme))
        aux_corpus.append(dict(zip(aux_names, aux)))
    if not corpus:
        raise SeqFormatError(path, 1, "file contains no sentences")
    return corpus, aux_corpus, scheme


def _parse_header(path, header):
    fields = dict(
        part.split("=", 1) for part in header.lstrip("#").split() if "=" in part
    )
    if "scheme" not in fields:
        raise SeqFormatError(path, 1, "header lacks scheme=")
    if fields["scheme"] not in SCHEMES:
        raise SeqFormatError(path, 1, "unknown scheme %r" % fields["scheme"])
    aux = [name for name in fields.get("aux", "").split(",") if name]
    for i, name in enumerate(aux):
        if name in aux[:i]:
            raise SeqFormatError(path, 1, "aux name %r repeated" % name)
    return fields["scheme"], aux


def read_tagged(path):
    """Read word<TAB>pos lines into Sentences (blank line separated)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    blocks = _blocks(path, text, 1, 2, "expected word<TAB>pos")
    sentences = [Sentence(*zip(*rows)) for _, rows in blocks]
    if not sentences:
        raise SeqFormatError(path, 1, "file contains no sentences")
    return sentences


def _blocks(path, text, first, n_cols, mismatch):
    """The blocks of tab-separated lines of `text` between blank or
    whitespace-only lines, as (number of the block's first line, rows);
    `text` starts at line `first` of `path`, and a row is a line's fields.

    A line without `n_cols` fields raises `mismatch`, formatted with the
    count found.  A field must be a token the bracket reader can read
    back: one that is empty or holds whitespace or a bracket raises.
    """
    suspect = (text.startswith("\t") or text.endswith("\t")
               or any(map(text.__contains__, _SIGNS))
               or not text.isascii() and _SPACE.search(text) is not None)
    lines = text.split("\n")
    lines.append("")  # closes the last block
    rows = []
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            if rows:
                yield lineno - len(rows), rows
                rows = []
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise SeqFormatError(path, lineno, mismatch.format(len(cols)))
        if suspect:
            for j, col in enumerate(cols, start=1):
                if not _TOKEN.fullmatch(col):
                    raise SeqFormatError(path, lineno, "column %d %r is empty or holds "
                                         "whitespace or a bracket" % (j, col))
        rows.append(cols)
