"""Tests of the .seq and .tagged readers: every format error with its
`file:line`, the field rule, a differential property against the
line-by-line readers they replaced, kept here as oracles (the .seq one
with the later rule on dummy label positions added), and a property that
every label sequence the .seq reader accepts decodes to a tree that reads
back unchanged and encodes, and one that the .seq writer writes only what
the reader reads back."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from treetag import tagger
from treetag.auxtracks import shifted_n, syntactic_distances
from treetag.encodings import (SCHEMES, EncodedSentence, NComponent, TagLabel, decode, encode,
                               encode_relative, token_parts)
from treetag.seqfile import SeqFormatError, _parse_header, read_seq, read_tagged, write_seq
from treetag.tagger import TrainConfig, Vocabularies, train_mtl
from treetag.trees import Sentence, load_trees, random_tree, save_trees, serialize


# ---------------------------------------------------------------------------
# The replaced readers.

def _oracle_read_seq(path):
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
                labels.append(TagLabel(*token_parts(cols[2])))
            except ValueError as e:
                raise SeqFormatError(path, cols[-1], str(e)) from None
            for j in range(len(aux_names)):
                aux_values[j].append(cols[3 + j])
        for t, (label, cols) in enumerate(zip(labels, rows)):
            if (label.c == "DUMMY") != (t == len(rows) - 1):
                raise SeqFormatError(path, cols[-1], "label %r: n and c are DUMMY in a "
                                     "sentence's last label and only there" % cols[2])
        sentence = Sentence(words, pos)
        corpus.append(EncodedSentence(sentence, labels, scheme))
        aux_corpus.append(
            {name: tuple(vals) for name, vals in zip(aux_names, aux_values)}
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


def _oracle_read_seq_pairs(path):
    corpus, aux_corpus, scheme = _oracle_read_seq(path)
    return list(zip(corpus, aux_corpus)), scheme


def _oracle_read_tagged(path):
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


# ---------------------------------------------------------------------------
# Every error, with its position.

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


SEQ_ERRORS = [
    ("", 1, "missing '# scheme=... aux=...' header"),
    ("the\tDT\tDUMMY~DUMMY~NONE\n\n", 1, "missing '# scheme=... aux=...' header"),
    ("# aux=n+1\nthe\tDT\tDUMMY~DUMMY~NONE\n\n", 1, "header lacks scheme="),
    ("# scheme=relative aux=n+1\nthe\tDT\tr1~NP~NONE\tPAD\ndog\tNN\tDUMMY~DUMMY~NONE\n",
     3, "expected 4 columns, got 3"),
    ("# scheme=relative aux=\n\nthe\tDT\tr1~NP~NONE\ndog\tNN\tr1~NP\n\n", 4,
     "bad label token 'r1~NP'"),
    ("# scheme=relative aux=\nthe\tDT\tx1~NP~NONE\ndog\tNN\tDUMMY~DUMMY~NONE\n", 2,
     "bad n token 'x1'"),
    ("# scheme=relative aux=\n\n \t\n", 1, "file contains no sentences"),
    ("# scheme=relative aux=\nthe dog\tDT\tDUMMY~DUMMY~NONE\n", 2,
     "column 1 'the dog' is empty or holds whitespace or a bracket"),
    ("# scheme=relative aux=dist\nthe\tDT\tr1~NP~NONE\t1\ndog\tNN\tDUMMY~DUMMY~NONE\t(\n",
     3, "column 4 '(' is empty or holds whitespace or a bracket"),
    ("# scheme=relative aux=\nthe\t\tDUMMY~DUMMY~NONE\n", 2,
     "column 2 '' is empty or holds whitespace or a bracket"),
    ("# scheme=relative aux=dist,dist\nthe\tDT\tDUMMY~DUMMY~NONE\t1\t1\n", 1,
     "aux name 'dist' repeated"),
    ("# scheme=relative scheme=dynamic aux=\nthe\tDT\tDUMMY~DUMMY~NONE\n", 1,
     "header key 'scheme' repeated"),
    # a dummy n and c in the last label of each sentence and nowhere else
    ("# scheme=relative aux=\nthe\tDT\tr1~NP~NONE\nbig\tJJ\tDUMMY~DUMMY~NONE\n"
     "dog\tNN\tDUMMY~DUMMY~NONE\n", 3,
     "label 'DUMMY~DUMMY~NONE': n and c are DUMMY in a sentence's last label and only there"),
    ("# scheme=relative aux=\nthe\tDT\tr1~NP~NONE\nbig\tJJ\tr1~ADJP~NONE\n"
     "dog\tNN\tr2~VP~NONE\n", 4,
     "label 'r2~VP~NONE': n and c are DUMMY in a sentence's last label and only there"),
]

# labels no encoder writes, each in the second line of a sentence
UNENCODABLE = ("bad label token %r: nonterminal %r cannot be encoded: labels must be non-empty, "
               "must not contain '+' or '~' and must not be DUMMY or NONE")
MIXED_DUMMY = "bad label token %r: n and c must both be DUMMY or neither"
SEQ_ERRORS += [
    ("# scheme=relative aux=\nthe\tDT\tr1~NP~NONE\ndog\tNN\t%s\n" % token, 3, message)
    for token, message in [
        ("r+01~NP~NONE", "bad n token 'r+01'"),
        ("a\u0663~NP~NONE", "bad n token 'a\u0663'"),
        ("r1_0~NP~NONE", "bad n token 'r1_0'"),
        ("r-0~NP~NONE", "bad n token 'r-0'"),
        ("r1~NP~", UNENCODABLE % ("r1~NP~", "")),
        ("r1~NP+~NONE", UNENCODABLE % ("r1~NP+~NONE", "")),
        ("r1~NP~X+NONE", UNENCODABLE % ("r1~NP~X+NONE", "NONE")),
        ("r1~~NONE", UNENCODABLE % ("r1~~NONE", "")),
        ("DUMMY~NP~NONE", MIXED_DUMMY % "DUMMY~NP~NONE"),
        ("r-2~DUMMY~NONE", MIXED_DUMMY % "r-2~DUMMY~NONE"),
    ]
]


def raises_at(path, line, message):
    where = "%s:%d: %s" % (path, line, message)
    return pytest.raises(SeqFormatError, match="^%s$" % re.escape(where))


@pytest.mark.parametrize("text,line,message", SEQ_ERRORS)
def test_read_seq_errors(tmp_path, text, line, message):
    path = write(tmp_path, "bad.seq", text)
    with raises_at(path, line, message):
        read_seq(path)


TAGGED_ERRORS = [
    ("the\tDT\n\ndog\n", 3, "expected word<TAB>pos"),
    ("the\tDT\textra\n", 1, "expected word<TAB>pos"),
    ("\n \n\t\n", 1, "file contains no sentences"),
    ("", 1, "file contains no sentences"),
    ("the\tDT\n(dog\tNN\n", 2, "column 1 '(dog' is empty or holds whitespace or a bracket"),
    ("big cat\tNN\n", 1, "column 1 'big cat' is empty or holds whitespace or a bracket"),
    ("the\tDT)\n", 1, "column 2 'DT)' is empty or holds whitespace or a bracket"),
    ("the\tD\xa0T\n", 1, "column 2 'D\\xa0T' is empty or holds whitespace or a bracket"),
    ("\tDT\n", 1, "column 1 '' is empty or holds whitespace or a bracket"),
]


@pytest.mark.parametrize("text,line,message", TAGGED_ERRORS)
def test_read_tagged_errors(tmp_path, text, line, message):
    path = write(tmp_path, "bad.tagged", text)
    with raises_at(path, line, message):
        read_tagged(path)


def test_header_and_whitespace_only_lines_are_exempt(tmp_path):
    seq = write(tmp_path, "ok.seq", "#  scheme=relative   aux=n+1\r\n  \r\n"
                "the\tDT\tDUMMY~DUMMY~NONE\tPAD\r\n \t \r\ndog\tNN\tDUMMY~DUMMY~NONE\tr1\r\n")
    corpus, scheme = read_seq(seq)
    assert scheme == "relative"
    assert [enc.sentence.words for enc, _ in corpus] == [("the",), ("dog",)]
    assert [aux["n+1"] for _, aux in corpus] == [("PAD",), ("r1",)]
    tagged = write(tmp_path, "ok.tagged", " \nthe\tDT\n\t\ndog\tNN")
    assert read_tagged(tagged) == [Sentence(["the"], ["DT"]), Sentence(["dog"], ["NN"])]


def test_aux_tracks_read_back_as_built(tmp_path, monkeypatch):
    forest = [random_tree(seed, 12, 6, ["S", "NP", "VP"]) for seed in range(8)]
    encoded = [encode_relative(tree) for tree in forest]
    built = [{"n+1": shifted_n(enc, 1), "n-1": shifted_n(enc, -1),
              "dist": syntactic_distances(tree)} for tree, enc in zip(forest, encoded)]
    write_seq(tmp_path / "x.seq", list(zip(encoded, built)))
    back, _ = read_seq(tmp_path / "x.seq")
    assert [aux for _, aux in back] == built
    assert all(type(track) is tuple for _, tracks in back for track in tracks.values())
    # a later pair with an extra track, or lacking one, breaks the corpus rule
    # before the file is opened, and training rejects the same corpus
    extra = {**built[5], "n+2": shifted_n(encoded[5], 2)}
    lacking = {name: track for name, track in built[5].items() if name != "n-1"}
    for tracks in (extra, lacking):
        corpus = list(zip(encoded, built[:5] + [tracks] + built[6:]))
        with pytest.raises(ValueError, match="inconsistent auxiliary tracks across corpus"):
            write_seq(tmp_path / "bad.seq", corpus)
        assert not (tmp_path / "bad.seq").exists()
        with pytest.raises(ValueError, match="inconsistent auxiliary tracks across corpus"):
            train_mtl(corpus, TrainConfig(epochs=1))
    # a track one label too long, or one or two short, breaks it as well: no
    # file is written, and training stops before it draws a parameter
    monkeypatch.setattr(tagger, "TaggerModel", None)
    message = "^inconsistent auxiliary tracks across corpus: pair 4$"
    dist = built[3]["dist"]
    for track in (dist + ("PAD",), dist[:-1], dist[:-2]):
        corpus = list(zip(encoded, built[:3] + [{**built[3], "dist": track}] + built[4:]))
        with pytest.raises(ValueError, match=message):
            write_seq(tmp_path / "bad.seq", corpus)
        assert not (tmp_path / "bad.seq").exists()
        with pytest.raises(ValueError, match=message):
            Vocabularies.build(corpus)
        with pytest.raises(ValueError, match=message):
            train_mtl(corpus, TrainConfig(epochs=1))


def test_a_corpus_of_mixed_schemes_breaks_the_rule(tmp_path, monkeypatch):
    # the header names one scheme, so a second one would read back relabelled,
    # and a model would take the first pair's scheme for every sentence
    tree = random_tree(3, 12, 6, ["S", "NP", "VP"])
    monkeypatch.setattr(tagger, "TaggerModel", None)  # training stops before drawing
    for first, second in itertools.permutations(SCHEMES, 2):
        corpus = [(encode(tree, first), {}), (encode(tree, second), {})]
        message = "^mixed schemes across corpus: pair 2 is %s$" % second
        with pytest.raises(ValueError, match=message):
            write_seq(tmp_path / "mixed.seq", corpus)
        assert not (tmp_path / "mixed.seq").exists()
        with pytest.raises(ValueError, match=message):
            train_mtl(corpus, TrainConfig(epochs=1))


def test_empty_corpus_breaks_the_rule(tmp_path):
    for call in (lambda: write_seq(tmp_path / "empty.seq", []), lambda: Vocabularies.build([]),
                 lambda: train_mtl([], TrainConfig(epochs=1))):
        with pytest.raises(ValueError, match="^empty corpus$"):
            call()
    assert not (tmp_path / "empty.seq").exists()


def test_field_rule_is_the_tree_readers_token_rule(tmp_path):
    # every ASCII character and every whitespace character inside a word;
    # "\r" is left out, since reading in text mode turns it into a newline
    chars = {chr(c) for c in range(128)} | {c for c in map(chr, range(0x110000)) if c.isspace()}
    for char in sorted(chars - set("\t\n\r")):
        path = write(tmp_path, "one.tagged", "a%sb\tNN\n" % char)
        if char.isspace() or char in "()":
            with raises_at(path, 1, "column 1 %r is empty or holds whitespace or a bracket"
                           % ("a%sb" % char)):
                read_tagged(path)
        else:
            assert read_tagged(path) == [Sentence(["a%sb" % char], ["NN"])]


# ---------------------------------------------------------------------------
# The new readers against the old ones.

FIELDS = ["the", "dog", "DT", "NN", "PAD", "1", "r1~NP~NONE", "a2~S~NP+VP", "DUMMY~DUMMY~NONE",
          "r-1~S~NONE", "r1~NP", "x1~NP~NONE", "r~S~NONE", "é"]
UNSAFE_FIELDS = ["", "the dog", "(dog", "NN)", "a b", "x\x0cy"]
WIDTHS = {"# scheme=relative aux=": 3, "# scheme=dynamic aux=n+1": 4,
          "# scheme=absolute aux=dist,n+1": 5, "#scheme=relative": 3, "# aux=dist": 4,
          "# scheme=bogus": 3, "scheme=relative aux=": 3, None: 2}
BLANKS = ["", " ", "\t", " \t ", "\t\t"]
TOKEN = re.compile(r"[^()\s]+")


def lines_of(draw, width, unsafe):
    pool = FIELDS + (UNSAFE_FIELDS if unsafe else [])
    line = st.one_of(
        st.sampled_from(BLANKS),
        st.lists(st.sampled_from(pool), min_size=width - 1, max_size=width + 1).map("\t".join),
    )
    return draw(st.lists(line, max_size=12))


@st.composite
def texts(draw, header):
    unsafe = draw(st.booleans())
    first = draw(st.sampled_from([h for h in WIDTHS if h])) if header else None
    lines = ([first] if header else []) + lines_of(draw, WIDTHS[first], unsafe)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    last = draw(st.sampled_from(["", eol]))
    return eol.join(lines) + (last if lines else "")


def has_unsafe_field(text, header):
    lines = text.replace("\r\n", "\n").split("\n")[1 if header else 0:]
    return any(not TOKEN.fullmatch(field)
               for line in lines if line.strip() for field in line.split("\t"))


def outcome(reader, path):
    try:
        return reader(path)
    except SeqFormatError as e:
        return str(e)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts(header=True))
def test_read_seq_matches_the_old_reader(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("seq"), "x.seq", text)
    got = outcome(read_seq, path)
    if has_unsafe_field(text, header=True):
        # an error, where the old reader read the field, or split its line
        # at "\x0c" as str.splitlines does
        assert isinstance(got, str)
    else:
        assert got == outcome(_oracle_read_seq_pairs, path)


# Texts the readers accept: a header they read, encodable labels, and a
# DUMMY~DUMMY~u label last in each sentence.
READABLE_HEADERS = ["# scheme=relative aux=", "# scheme=dynamic aux=n+1",
                    "# scheme=absolute aux=dist,n+1"]
WORDS = ["the", "dog", "DT", "NN", "PAD", "1", "é"]
LABELS = ["r1~NP~NONE", "a2~S~NP+VP", "r-1~S~NONE"]
LAST_LABELS = ["DUMMY~DUMMY~NONE", "DUMMY~DUMMY~NP+VP"]


@st.composite
def readable_texts(draw):
    header = draw(st.sampled_from(READABLE_HEADERS))
    width = WIDTHS[header] - 1
    lines = [header]
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.sampled_from(LABELS), max_size=6))
        for label in labels + [draw(st.sampled_from(LAST_LABELS))]:
            fields = draw(st.lists(st.sampled_from(WORDS), min_size=width, max_size=width))
            lines.append("\t".join(fields[:2] + [label] + fields[2:]))
        lines += draw(st.lists(st.sampled_from(BLANKS), min_size=1, max_size=2))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(readable_texts())
def test_read_seq_matches_the_old_reader_on_readable_texts(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("seq"), "x.seq", text)
    assert outcome(read_seq, path) == outcome(_oracle_read_seq_pairs, path)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts(header=False))
def test_read_tagged_matches_the_old_reader(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("tagged"), "x.tagged", text)
    got = outcome(read_tagged, path)
    if has_unsafe_field(text, header=False):
        # an error, where the old reader read the field, or split its line
        # at "\x0c" as str.splitlines does
        assert isinstance(got, str)
    else:
        assert got == outcome(_oracle_read_tagged, path)


# ---------------------------------------------------------------------------
# Accepted label sequences decode to trees that read back unchanged.

NONTERMINALS = st.sampled_from(["NP", "VP", "S", "X", "TOP"])
CHAINS = st.lists(NONTERMINALS, min_size=1, max_size=3).map("+".join)
N_TOKENS = st.one_of(st.integers(-4, 4).map("r%d".__mod__), st.integers(1, 5).map("a%d".__mod__))
U_TOKENS = st.one_of(st.just("NONE"), CHAINS)


@st.composite
def accepted_seq_texts(draw):
    lines = ["# scheme=%s aux=" % draw(st.sampled_from(SCHEMES))]
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(st.tuples(N_TOKENS, CHAINS, U_TOKENS).map("~".join), max_size=8))
        tokens.append("DUMMY~DUMMY~" + draw(U_TOKENS))
        lines += ["w%d\tP%d\t%s" % (i, i % 3, token) for i, token in enumerate(tokens)]
        lines.append("")
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(accepted_seq_texts())
def test_accepted_label_sequences_decode_to_trees_that_read_back(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("decoded")
    corpus, scheme = read_seq(write(tmp, "x.seq", text))
    trees = [decode(encoded) for encoded, _ in corpus]
    save_trees(tmp / "x.trees", trees)
    back = load_trees(tmp / "x.trees")
    assert [serialize(tree) for tree in back] == [serialize(tree) for tree in trees]
    for tree in back:
        encode(tree, scheme)


# ---------------------------------------------------------------------------
# The writer writes only what the reader reads back.

@st.composite
def dummy_placements(draw):
    """Sentences whose last label, and no other, has a DUMMY n and c; then
    up to two of their n and c parts switched to or from DUMMY."""
    scheme = draw(st.sampled_from(SCHEMES))
    corpus = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 6))
        parts = [[draw(N_TOKENS), draw(CHAINS)] for _ in range(length - 1)] + [["DUMMY"] * 2]
        switches = st.tuples(st.integers(0, length - 1), st.integers(0, 1))
        for t, j in draw(st.lists(switches, max_size=2)):
            parts[t][j] = draw((N_TOKENS, CHAINS)[j]) if parts[t][j] == "DUMMY" else "DUMMY"
        labels = [TagLabel(NComponent.from_token(n), c, draw(st.one_of(st.just(""), CHAINS)))
                  for n, c in parts]
        sentence = Sentence(["w%d" % i for i in range(length)], ["P0"] * length)
        corpus.append((EncodedSentence(sentence, labels, scheme),
                       {"dist": tuple(str(i + 1) for i in range(length))}))
    return corpus


# text the .seq grammar reserves or splits on, alone, pieced together, or
# beside arbitrary text
AWKWARD_PIECES = ["NONE", "DUMMY", "~", "+", " ", "\t", "\r", "\n", "\xa0", "(", ")", "", "NP"]
AWKWARD = st.one_of(st.sampled_from(AWKWARD_PIECES),
                    st.lists(st.sampled_from(AWKWARD_PIECES), max_size=3).map("".join),
                    st.text(max_size=3))


@st.composite
def edited_corpora(draw):
    """dummy_placements' corpora with up to three of their words, POS, c,
    u or aux labels replaced by awkward text."""
    corpus = draw(dummy_placements())
    fields = [[list(encoded.sentence.words), list(encoded.sentence.pos),
               [[lab.n, lab.c, lab.u] for lab in encoded.labels], list(aux["dist"])]
              for encoded, aux in corpus]
    for _ in range(draw(st.integers(0, 3))):
        words, pos, labels, dist = draw(st.sampled_from(fields))
        t = draw(st.integers(0, len(words) - 1))
        column, j = draw(st.sampled_from([(words, None), (pos, None), (labels, 1), (labels, 2),
                                          (dist, None)]))
        if j is None:
            column[t] = draw(AWKWARD)
        else:
            column[t][j] = draw(AWKWARD)
    scheme = corpus[0][0].scheme
    return [(EncodedSentence(Sentence(words, pos), [TagLabel(*lab) for lab in labels], scheme),
             {"dist": tuple(dist)}) for words, pos, labels, dist in fields]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(edited_corpora())
def test_write_seq_writes_only_what_read_seq_reads_back(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("written") / "x.seq"
    try:
        write_seq(path, corpus)
    except ValueError:
        assert not path.exists()
        return
    back, scheme = read_seq(path)
    assert back == corpus
    assert scheme == corpus[0][0].scheme


def _two_words(c="NP", u="", words=("the", "dog"), pos=("DT", "NN"), dist=("1", "PAD")):
    labels = [TagLabel(NComponent("relative", 1), c, u), TagLabel(NComponent("dummy"), "DUMMY")]
    return [(EncodedSentence(Sentence(words, pos), labels, "relative"), {"dist": dist})]


@pytest.mark.parametrize("corpus", [
    _two_words(c="NP~X"), _two_words(c="NONE"), _two_words(c="N P"), _two_words(c=""),
    _two_words(c="NP+"), _two_words(u="NONE"), _two_words(words=("New York", "dog")),
    _two_words(words=("a\tb", "dog")), _two_words(words=("a\rb", "dog")),
    _two_words(pos=("(", "NN")), _two_words(dist=("1\t2", "PAD"))],
    ids=["c=NP~X", "c=NONE", "c=N P", "c=", "c=NP+", "u=NONE", "word=New York", "word=a<tab>b",
         "word=a<cr>b", "pos=(", "aux=1<tab>2"])
def test_write_seq_refuses_what_read_seq_would_reject_or_alter(tmp_path, corpus):
    with pytest.raises(ValueError):
        write_seq(tmp_path / "x.seq", corpus)
    assert not (tmp_path / "x.seq").exists()
    write_seq(tmp_path / "y.seq", _two_words())  # the same sentence, plainly spelled
    assert read_seq(tmp_path / "y.seq") == (_two_words(), "relative")


@pytest.mark.parametrize("corpus", [
    _two_words(words=("a\ud800", "dog")), _two_words(pos=("DT", "N\udce9")),
    _two_words(dist=("\ud800", "PAD"))], ids=["word", "pos", "aux"])
def test_write_seq_refuses_a_lone_surrogate_and_writes_nothing(tmp_path, corpus):
    with pytest.raises(ValueError):
        write_seq(tmp_path / "new.seq", corpus)
    assert not (tmp_path / "new.seq").exists()
    old = tmp_path / "old.seq"
    old.write_bytes(b"OLD CONTENT\n")
    with pytest.raises(ValueError):
        write_seq(old, corpus)
    assert old.read_bytes() == b"OLD CONTENT\n"
