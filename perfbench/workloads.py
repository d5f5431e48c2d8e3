"""The benchmark's workloads.

Each workload makes its input files from a seed (`setup`), then runs a
timed cycle of `treetag` subcommands through `treetag.cli.run` and
passes of single-sentence calls through the library's public functions
(`sentences`).  Corpora are cut into shards of a few hundred trees, so a
cycle is many short subcommands; every subcommand on a shard is a *unit*
and every single-sentence input an *item*, each repeated once per cycle
(or per pass), so the run can take each unit's and each item's time
over its repeats.

Every call is one operation; an operation fails when the subcommand
exits non-zero or its output does not check out.  The first time an
output file is produced it is checked in full; later cycles (and traced
cycles) must reproduce it byte for byte, since every subcommand is
deterministic given its seed.
"""

import hashlib
import io
import math
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import treetag as tt
from treetag import cli

ALPHABET = ["S", "NP", "VP", "PP", "ADJP", "ADVP", "SBAR"]
SCHEMES = ("relative", "absolute", "dynamic")
AUX = ["--aux", "n+1", "--aux", "dist"]
# Trees per shard file of the convert input and of the test sets.
CONVERT_SHARD = 100
TEST_SHARD = 200
# Single-sentence calls between two timings of the reference kernel.  At
# every 30 calls the convert p50 spread 0.04 over seeds, at every 9 calls
# 0.01; the kernel runs take about 1 ms each.
CALIBRATE_EVERY = 9
# Seeds of a workload's corpora are seed * SEED_STRIDE + offset + i.
SEED_STRIDE = 1_000_000

_F1_RE = re.compile(r"\bF1 (\d+\.\d+)")


class Cycle:
    """Timings of one cycle: (unit, subcommand, tokens, start, end) per
    subcommand call and (item, start, end) per single-sentence call, in
    `time.perf_counter` seconds."""

    def __init__(self, traced):
        self.traced = traced
        self.calls = []
        self.latencies = []

    def busy_seconds(self):
        return (sum(c[4] - c[3] for c in self.calls)
                + sum(c[2] - c[1] for c in self.latencies))


class Recorder:
    """Operations attempted and failed, and the timings of every cycle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cycles = []
        self.sampler = None

    def calibrate(self):
        """Time the reference kernel now, if a sampler is running."""
        if self.sampler is not None:
            self.sampler.sample()

    def begin_cycle(self, traced=False):
        self.cycles.append(Cycle(traced))

    def time(self, unit, stage, tokens, start, end):
        self.cycles[-1].calls.append((unit, stage, tokens, start, end))

    def latency(self, item, start, end):
        self.cycles[-1].latencies.append((item, start, end))

    def done(self, problems):
        """Close one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


def run_cli(rec, unit, argv, tokens):
    """One timed subcommand; `unit` names it among the cycle's calls.
    Returns (stdout text, problems)."""
    rec.calibrate()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(argv)
        end = time.perf_counter()
    rec.time(unit, argv[0], tokens, start, end)
    if code != 0:
        return out.getvalue(), ["%s exited %d: %s" % (unit, code, err.getvalue().strip())]
    return out.getvalue(), []


def printed_f1(text):
    """The F1 that `treetag eval` printed, as a ratio (None if absent)."""
    match = _F1_RE.search(text)
    return float(match.group(1)) / 100 if match else None


def check_identical(expected_path, actual_path):
    """Problems if the file at actual_path differs from expected_path."""
    with open(expected_path, "rb") as fh:
        expected = fh.read()
    try:
        with open(actual_path, "rb") as fh:
            actual = fh.read()
    except OSError as e:
        return ["cannot read %s: %s" % (actual_path, e)]
    if actual != expected:
        return ["%s differs from %s" % (os.path.basename(actual_path),
                                         os.path.basename(expected_path))]
    return []


def check_eval(gold_path, predicted_path, text):
    """Recompute bracketing F1 and compare it with the printed figure.

    Returns (f1, problems).  A prediction whose yield differs from the
    gold tree's, a non-finite F1 or a printed F1 that is not the
    recomputed one rounded to two decimals is a problem.
    """
    gold = tt.load_trees(gold_path)
    try:
        predicted = tt.load_trees(predicted_path)
    except (OSError, tt.ParseError) as e:
        return float("nan"), ["cannot read predictions: %s" % e]
    problems = []
    if len(gold) != len(predicted):
        return float("nan"), ["%d predicted trees for %d gold" % (len(predicted), len(gold))]
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if tt.Sentence.from_tree(g) != tt.Sentence.from_tree(p):
            problems.append("tree %d: predicted yield differs from input" % (i + 1))
            break
    f1 = tt.corpus_bracket_score(gold, predicted).f1 if not problems else float("nan")
    shown = printed_f1(text)
    if not math.isfinite(f1):
        problems.append("non-finite F1")
    elif shown is None or abs(shown - round(f1, 4)) > 5e-5:
        problems.append("eval printed F1 %r, recomputed %.6f" % (shown, f1))
    return f1, problems


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_tagged(path, forest):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in forest:
            for leaf in tt.leaves(tree):
                fh.write("%s\t%s\n" % (leaf.word, leaf.pos))
            fh.write("\n")


def token_count(forest):
    return sum(len(tt.Sentence.from_tree(t)) for t in forest)


def shards(forest, size):
    return [forest[i:i + size] for i in range(0, len(forest), size)]


def encode_file(trees_path, seq_path):
    """Set-up encoding through the CLI; raises if it fails."""
    with redirect_stdout(io.StringIO()):
        code = cli.run(["encode", "--scheme", "dynamic", *AUX, trees_path, seq_path])
    if code != 0:
        raise RuntimeError("set-up encode of %s exited %d" % (trees_path, code))


class Workload:
    """Shared plumbing: paths, sizes and output digests."""

    name = None

    def __init__(self, workdir, seed, scale):
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self.digests = {}
        self.quality = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def size(self, full, least):
        return max(least, int(round(full * self.scale)))

    def same_output(self, key, path, first_check):
        """Problems of an output: checked in full the first time, then
        compared byte for byte with that first output."""
        digest = _digest(path) if os.path.exists(path) else None
        if key not in self.digests:
            problems = first_check()
            if not problems:
                self.digests[key] = digest
            return problems
        if digest != self.digests[key]:
            return ["%s differs from the first cycle's output" % os.path.basename(path)]
        return []


class Convert(Workload):
    """Encode, decode and score long random trees in all three schemes."""

    name = "convert"

    def setup(self):
        n = self.size(1000, 20)
        base = self.seed * SEED_STRIDE
        self.forest = [tt.random_tree(base + i, 40, 12, ALPHABET) for i in range(n)]
        self.shards = []
        for k, part in enumerate(shards(self.forest, CONVERT_SHARD)):
            path = self.path("input-%d.trees" % k)
            tt.save_trees(path, part)
            self.shards.append((path, token_count(part)))
        self.tokens = sum(t for _, t in self.shards)

    def describe(self):
        return "%d random trees in %d shards, %d tokens" % (
            len(self.forest), len(self.shards), self.tokens)

    def cycle(self, rec):
        for scheme in SCHEMES:
            for k, (trees_path, tokens) in enumerate(self.shards):
                unit = "%s/%d" % (scheme, k)
                seq = self.path("%s-%d.seq" % (scheme, k))
                out = self.path("%s-%d.trees" % (scheme, k))
                _, problems = run_cli(rec, "encode/" + unit, [
                    "encode", "--scheme", scheme, *AUX, trees_path, seq], tokens)
                rec.done(problems)
                _, problems = run_cli(rec, "decode/" + unit, ["decode", seq, out], tokens)
                rec.done(problems or check_identical(trees_path, out))
                text, problems = run_cli(rec, "eval/" + unit, ["eval", trees_path, out], tokens)
                f1 = printed_f1(text)
                if not problems and f1 != 1.0:
                    problems = ["%s round trip of shard %d scored F1 %r" % (scheme, k, f1)]
                rec.done(problems)
                self.quality["eval_f1"] = min(self.quality.get("eval_f1", 1.0),
                                              f1 if f1 is not None else 0.0)
            # two passes a cycle, seconds apart, double each input's repeats
            if scheme == SCHEMES[0]:
                self.sentences(rec)
        self.sentences(rec)

    def sentences(self, rec):
        """Round trip every tree in every scheme: encode, then decode with
        the repair log."""
        for i, tree in enumerate(self.forest):
            if i % (CALIBRATE_EVERY // len(SCHEMES)) == 0:
                rec.calibrate()
            for scheme in SCHEMES:
                start = time.perf_counter()
                back, log = tt.decode_with_repairs(tt.encode(tree, scheme))
                rec.latency((i, scheme), start, time.perf_counter())
                problems = []
                if not log.clean():
                    problems.append("decoder repaired encoder output: %r" % log)
                if back != tree:
                    problems.append("%s round trip changed tree %d" % (scheme, i))
                rec.done(problems)


class _TaggerWorkload(Workload):
    """A saved model predicts and scores a held-out test set, once through
    `predict` + `eval` on each shard and once sentence by sentence."""

    model_file = None

    def set_test(self, forest):
        self.test_forest = forest
        self.test_shards = []
        for k, part in enumerate(shards(forest, TEST_SHARD)):
            gold, tagged = self.path("test-%d.trees" % k), self.path("test-%d.tagged" % k)
            tt.save_trees(gold, part)
            write_tagged(tagged, part)
            self.test_shards.append((gold, tagged, token_count(part)))
        self.test_tokens = sum(t for _, _, t in self.test_shards)
        self.test_sentences = [tt.Sentence.from_tree(t) for t in forest]
        self.predicted_lines = None
        self._model = None
        self._passes = 0

    def predict_and_eval(self, rec):
        first = "eval_f1" not in self.quality
        predicted = []
        for k, (gold, tagged, tokens) in enumerate(self.test_shards):
            pred = self.path("test-%d.pred.trees" % k)
            _, problems = run_cli(rec, "predict/%d" % k, [
                "predict", self.path(self.model_file), tagged, pred], tokens)
            if not problems:
                problems = self.same_output("pred/%d" % k, pred, lambda: [])
            rec.done(problems)
            text, problems = run_cli(rec, "eval/%d" % k, ["eval", gold, pred], tokens)
            if not problems and first:
                _, problems = check_eval(gold, pred, text)
                predicted.extend(tt.load_trees(pred))
            rec.done(problems)
        if first and len(predicted) == len(self.test_forest):
            f1 = tt.corpus_bracket_score(self.test_forest, predicted).f1
            self.quality["eval_f1"] = f1
            self.predicted_lines = [tt.serialize(t) for t in predicted]
            rec.done([] if math.isfinite(f1) else ["non-finite test F1"])

    def sentences(self, rec):
        """One pass over the test sentences: predict_greedy + decode each."""
        if self._model is None:
            self._model = tt.load_model(self.path(self.model_file))
        model = self._model
        lines = self.predicted_lines
        first = self._passes == 0
        self._passes += 1
        right = seen = 0
        for i, sentence in enumerate(self.test_sentences):
            if i % CALIBRATE_EVERY == 0:
                rec.calibrate()
            start = time.perf_counter()
            encoded = tt.predict_greedy(model, sentence)
            tree = tt.decode(encoded)
            rec.latency(i, start, time.perf_counter())
            problems = []
            if tt.Sentence.from_tree(tree) != sentence:
                problems.append("sentence %d: decoded yield differs" % i)
            elif first:
                # first pass: agrees with the batch `predict` output, and
                # counts towards token accuracy
                if lines is not None and tt.serialize(tree) != lines[i]:
                    problems.append("sentence %d: predict_greedy disagrees with predict" % i)
                gold = tt.encode_dynamic(self.test_forest[i]).tokens()
                right += sum(a == b for a, b in zip(encoded.tokens(), gold))
                seen += len(gold)
            rec.done(problems)
        if first:
            self.quality["token_acc"] = right / seen


class Train(_TaggerWorkload):
    """Train, fine-tune, predict and score on a short-sentence PCFG corpus."""

    name = "train"
    model_file = "tuned.npz"
    EPOCHS = 10
    FINETUNE_EPOCHS = 1

    def setup(self):
        self.train_forest = tt.sample_corpus(2 * self.seed, self.size(200, 20))
        # dev is the head of the held-out stream, test its next 2000 trees:
        # PCFG sentence lengths put the median near a 5/6-word step, which
        # 100 dev sentences alone would make p50 and eval figures flip on
        n_dev = self.size(100, 10)
        held_out = tt.sample_corpus(2 * self.seed + 1, n_dev + self.size(2000, 20))
        self.dev_forest = held_out[:n_dev]
        for name, forest in (("train", self.train_forest), ("dev", self.dev_forest)):
            tt.save_trees(self.path(name + ".trees"), forest)
            encode_file(self.path(name + ".trees"), self.path(name + ".seq"))
        self.train_tokens = token_count(self.train_forest)
        self.set_test(held_out[n_dev:])

    def describe(self):
        return ("%d train trees (%d tokens), %d dev trees (%d tokens), %d test trees "
                "(%d tokens) in %d shards"
                % (len(self.train_forest), self.train_tokens, len(self.dev_forest),
                   token_count(self.dev_forest), len(self.test_forest), self.test_tokens,
                   len(self.test_shards)))

    def cycle(self, rec):
        p = self.path
        _, problems = run_cli(rec, "train", [
            "train", p("train.seq"), p("dev.seq"), p("model.npz"),
            "--epochs", str(self.EPOCHS)], self.EPOCHS * self.train_tokens)
        if not problems and "f1_before" not in self.quality:
            problems = self._score_trained()
        rec.done(problems)
        # the model of the previous cycle, which this cycle reproduces: a
        # second pass per cycle gives each sentence twice the repeats
        if self._model is not None:
            self.sentences(rec)

        _, problems = run_cli(rec, "finetune", [
            "finetune", p("model.npz"), p("train.trees"), p("dev.trees"), p("tuned.npz"),
            "--epochs", str(self.FINETUNE_EPOCHS), "--log", p("pg.tsv")],
            self.FINETUNE_EPOCHS * self.train_tokens)
        if not problems:
            problems = self.same_output("pg.tsv", p("pg.tsv"), self._check_log)
        rec.done(problems)

        self.predict_and_eval(rec)
        if "finetune_delta_f1" not in self.quality and "eval_f1" in self.quality:
            self.quality["finetune_delta_f1"] = (self.quality["eval_f1"]
                                                 - self.quality["f1_before"])
        self.sentences(rec)

    def _score_trained(self):
        """Test F1 of the model before fine-tuning, for the PG delta."""
        model = tt.load_model(self.path("model.npz"))
        predicted = [tt.decode(tt.predict_greedy(model, s)) for s in self.test_sentences]
        f1 = tt.corpus_bracket_score(self.test_forest, predicted).f1
        self.quality["f1_before"] = f1
        return [] if math.isfinite(f1) else ["non-finite test F1 after train"]

    def _check_log(self):
        with open(self.path("pg.tsv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != self.FINETUNE_EPOCHS:
            return ["pg.tsv has %d rows for %d epochs" % (len(rows), self.FINETUNE_EPOCHS)]
        for row in rows:
            if not all(math.isfinite(float(v)) for v in row.split("\t") if v):
                return ["non-finite value in pg.tsv: %r" % row]
        return []


class Parse(_TaggerWorkload):
    """Predict and score long held-out random trees with a weak model."""

    name = "parse"
    model_file = "model.npz"

    def setup(self):
        base = self.seed * SEED_STRIDE
        forests = {
            name: [tt.random_tree(base + offset + i, 40, 12, ALPHABET) for i in range(n)]
            for name, offset, n in (("train", 0, self.size(1000, 20)),
                                    ("dev", 400_000, self.size(100, 10)),
                                    ("test", 500_000, self.size(2000, 20)))}
        for name in ("train", "dev"):
            tt.save_trees(self.path(name + ".trees"), forests[name])
            encode_file(self.path(name + ".trees"), self.path(name + ".seq"))
        with redirect_stdout(io.StringIO()):
            code = cli.run(["train", self.path("train.seq"), self.path("dev.seq"),
                            self.path("model.npz"), "--epochs", "1"])
        if code != 0:
            raise RuntimeError("set-up train exited %d" % code)
        self.train_size = (len(forests["train"]), token_count(forests["train"]))
        self.set_test(forests["test"])

    def describe(self):
        return ("model from %d random trees (%d tokens), 1 epoch; %d test trees "
                "(%d tokens) in %d shards"
                % (*self.train_size, len(self.test_forest), self.test_tokens,
                   len(self.test_shards)))

    def cycle(self, rec):
        self.predict_and_eval(rec)
        self.sentences(rec)


WORKLOADS = {w.name: w for w in (Convert, Train, Parse)}
