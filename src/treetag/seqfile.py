"""Tab-separated sequence files (.seq) and tagged-sentence files.

A .seq file starts with a header comment::

    # scheme=relative aux=n+1,dist

followed by one line per token (word, POS, main label, then one column
per auxiliary track) and a blank line between sentences.  The companion
"tagged" format is the same minus the header and label columns: word and
POS only, for prediction input.
"""

from .trees import Sentence
from .encodings import SCHEMES, EncodedSentence, TagLabel
from .auxtracks import AuxTrack


class SeqFormatError(ValueError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__("%s:%d: %s" % (path, line, message))


def write_seq(path, encoded_corpus, aux_corpus=None):
    """Write sentences (and aligned aux-track dicts, if any) to `path`."""
    if not encoded_corpus:
        raise ValueError("nothing to write")
    scheme = encoded_corpus[0].scheme
    aux_names = []
    if aux_corpus:
        aux_names = sorted(aux_corpus[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scheme=%s aux=%s\n" % (scheme, ",".join(aux_names)))
        for i, encoded in enumerate(encoded_corpus):
            tracks = [aux_corpus[i][name] for name in aux_names] if aux_names else []
            for t in range(len(encoded)):
                cols = [
                    encoded.sentence.words[t],
                    encoded.sentence.pos[t],
                    encoded.labels[t].token(),
                ]
                cols.extend(track.values[t] for track in tracks)
                fh.write("\t".join(cols))
                fh.write("\n")
            fh.write("\n")


def read_seq(path):
    """Read a .seq file.

    Returns (encoded sentences, aux-track dicts aligned with them, scheme).
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise SeqFormatError(path, 1, "missing '# scheme=... aux=...' header")
    scheme, aux_names = _parse_header(path, lines[0])
    n_cols = 3 + len(aux_names)

    corpus = []
    aux_corpus = []
    rows = []

    def flush():
        if not rows:
            return
        words, pos, labels = [], [], []
        aux_values = [[] for _ in aux_names]
        for cols in rows:
            words.append(cols[0])
            pos.append(cols[1])
            try:
                labels.append(TagLabel.from_token(cols[2]))
            except ValueError as e:
                raise SeqFormatError(path, cols[-1], str(e)) from None
            for j in range(len(aux_names)):
                aux_values[j].append(cols[3 + j])
        sentence = Sentence(words, pos)
        corpus.append(EncodedSentence(sentence, labels, scheme))
        aux_corpus.append(
            {name: AuxTrack(name, vals) for name, vals in zip(aux_names, aux_values)}
        )
        rows.clear()

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise SeqFormatError(
                path, lineno, "expected %d columns, got %d" % (n_cols, len(cols))
            )
        rows.append(cols + [lineno])
    flush()
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
    return fields["scheme"], aux


def read_tagged(path):
    """Read word<TAB>pos lines into Sentences (blank line separated)."""
    sentences = []
    words, pos = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if words:
                    sentences.append(Sentence(words, pos))
                    words, pos = [], []
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise SeqFormatError(path, lineno, "expected word<TAB>pos")
            words.append(cols[0])
            pos.append(cols[1])
    if words:
        sentences.append(Sentence(words, pos))
    if not sentences:
        raise SeqFormatError(path, 1, "file contains no sentences")
    return sentences
