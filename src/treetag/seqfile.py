"""Tab-separated sequence files (.seq) and tagged-sentence files.

A .seq file starts with a header comment::

    # scheme=relative aux=n+1,dist

followed by one line per token (word, POS, main label, then one column
per auxiliary track) and a blank line between sentences.  The companion
"tagged" format is the same minus the header and label columns: word and
POS only, for prediction input.  Both go through trees.read_text/write_text.
"""

import re

from .auxtracks import track_names
from .trees import Sentence, read_text, write_text
from .encodings import DUMMY, FIELD_SEP, SCHEMES, EncodedSentence, TagLabel, token_parts


# A field must be a token the bracket reader reads back whole.  The signs
# that a text may break that rule: a bracket, whitespace other than the
# tab and newline separators (read_text reads "\r" as a newline), or a
# tab next to a tab or a line end.
_TOKEN = re.compile(r"[^()\s]+")
_SIGNS = ("(", ")", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\t\t", "\t\n", "\n\t")
_SPACE = re.compile(r"[^\S\t\n]")


class SeqFormatError(ValueError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__("%s:%d: %s" % (path, line, message))


def write_seq(path, corpus):
    """Write (EncodedSentence, {aux name: track}) pairs to `path`, whole or not at all.
    What read_seq would reject or read back altered is a ValueError naming the pair,
    label token, field or DUMMY placing at fault, and so is a lone surrogate."""
    aux_names = track_names(corpus)
    columns = [(encoded.sentence.words, encoded.sentence.pos, encoded.tokens(),
                *(aux[name] for name in aux_names)) for encoded, aux in corpus]
    for field in sorted(set().union(*(col for cols in columns for col in cols))):
        if not _TOKEN.fullmatch(field):
            raise ValueError("field %r is empty or holds whitespace or a bracket" % field)
    for i, cols in enumerate(columns, start=1):
        _check_dummies(cols[2], lambda t, message: ValueError("sentence %d: %s" % (i, message)))
    write_text(path, "# scheme=%s aux=%s\n" % (corpus[0][0].scheme, ",".join(aux_names))
               + "".join("\n".join(map("\t".join, zip(*cols))) + "\n\n" for cols in columns))


def _check_dummies(tokens, error):
    """Raise error(t, message) at the first label token, t from 0, to break the DUMMY
    rule.  Each is one token_parts reads, so it has n and c DUMMY iff it starts DUMMY~."""
    text = "\n" + "\n".join(tokens)  # no field holds a newline: the field rule comes first
    at = text.find("\n" + DUMMY + FIELD_SEP)  # before the first token with n and c DUMMY
    if at != len(text) - len(tokens[-1]) - 1:  # which is not the last
        t = text.count("\n", 0, at) if at >= 0 else len(tokens) - 1
        raise error(t, "label %r: n and c are %s in a sentence's last label and only there"
                    % (tokens[t], DUMMY))


def read_seq(path):
    """Read a .seq file.

    Returns ((EncodedSentence, {aux name: track}) pairs, scheme).  As the
    encoders write it, each sentence's last label and no other has a DUMMY
    n and c.
    """
    corpus, parts, scheme = read_seq_parts(path)
    labels = {tok: TagLabel(*label) for tok, label in parts.items()}
    return ([(EncodedSentence(sentence, [labels[tok] for tok in tokens], scheme), aux)
             for sentence, tokens, aux in corpus], scheme)


def read_seq_parts(path):
    """read_seq(path) building no labels: returns ((Sentence, label tokens, aux
    dict) triples, {token: token_parts(token)} parsed once per token, scheme)."""
    header, _, body = read_text(path).partition("\n")
    if not header.startswith("#"):
        raise SeqFormatError(path, 1, "missing '# scheme=... aux=...' header")
    scheme, aux_names = _parse_header(path, header)
    n_cols = 3 + len(aux_names)
    corpus = []
    parts = {}  # label token -> (n, c, u)
    for first, rows in _blocks(path, body, 2, n_cols, "expected %d columns, got {}" % n_cols):
        words, pos, tokens, *aux = zip(*rows)
        for lineno, tok in enumerate(tokens, start=first):
            if tok not in parts:
                try:
                    parts[tok] = token_parts(tok)
                except ValueError as e:
                    raise SeqFormatError(path, lineno, str(e)) from None
        _check_dummies(tokens, lambda t, message: SeqFormatError(path, first + t, message))
        corpus.append((Sentence(words, pos), tokens, dict(zip(aux_names, aux))))
    if not corpus:
        raise SeqFormatError(path, 1, "file contains no sentences")
    return corpus, parts, scheme


def _parse_header(path, header):
    fields = {}
    for key, value in (part.split("=", 1) for part in header.lstrip("#").split() if "=" in part):
        if key in fields:
            raise SeqFormatError(path, 1, "header key %r repeated" % key)
        fields[key] = value
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
    blocks = _blocks(path, read_text(path), 1, 2, "expected word<TAB>pos")
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
