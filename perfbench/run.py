"""treetag benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Run from the root of a treetag checkout; the package is imported from
its ``src/`` directory.  The run makes the workload's inputs from the
seed and times them being set up (several times; the median is
``setup_s``).  Then, for about ``--seconds`` seconds, it repeats the
workload's cycle: ``treetag`` subcommands on shards of its corpus
through ``treetag.cli.run``, and passes of single-sentence calls through
the public library functions.  Each call is checked (see workloads.py)
and counted as attempted or failed.  Timings are in reference seconds,
which divide out the host's speed (hostspeed.py): each subcommand at
the median of its repeats.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` cycles alternate untraced and traced, and the per-layer
metrics come from spans recorded around calls into each module
(spans.py), plus the tracing overhead.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.  The last line of
standard output is one JSON object with the result.

BLAS is pinned to one thread before numpy loads: on small matrices a
thread pool measures scheduler contention, not the program.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = (3, 30)   # fewest and most set-ups per run...
SETUP_SECONDS = 2.0       # ...repeating while they take less than this
SAMPLE_INTERVAL = 0.05    # seconds between timings of the reference kernel

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_ref_s": "tokens/ref-s",
    "sentence_p50_ref_ms": "ref-ms",
    "sentence_p99_ref_ms": "ref-ms",
    "peak_rss_mb": "MB",
    "eval_f1": "ratio",
}

SUBCOMMANDS = ("encode", "decode", "eval", "train", "finetune", "predict")
REPAIRS = ("clamped", "interior_dummies", "label_conflicts", "placeholders", "spliced")

PER_LAYER_UNITS = {
    "trees.parse_us_per_tree": "us/tree",
    "trees.serialize_us_per_tree": "us/tree",
    "trees.generate_us_per_tree": "us/tree",
    "encodings.encode_relative_us_per_tree": "us/tree",
    "encodings.encode_absolute_us_per_tree": "us/tree",
    "encodings.encode_dynamic_us_per_tree": "us/tree",
    "encodings.decode_us_per_sentence": "us/sentence",
    "encodings.decode_calls": "count",
    "encodings.repaired_share": "ratio",
    **{"encodings.repairs." + r: "1/1k-sentences" for r in REPAIRS},
    "auxtracks.dist_us_per_tree": "us/tree",
    "auxtracks.shift_us_per_tree": "us/tree",
    "seqfile.write_us_per_sentence": "us/sentence",
    "seqfile.read_us_per_sentence": "us/sentence",
    "seqfile.read_tagged_us_per_sentence": "us/sentence",
    "metrics.bracket_score_us_per_tree": "us/tree",
    "metrics.bracket_score_calls": "count",
    "tagger.featurize_us_per_token": "us/token",
    "tagger.forward_us_per_token": "us/token",
    "tagger.forward_calls": "count",
    "tagger.backward_us_per_token": "us/token",
    "tagger.backward_calls": "count",
    "tagger.train_self_s": "s/call",
    "tagger.dev_eval_s": "s/call",
    "tagger.predict_us_per_token": "us/token",
    "tagger.checkpoint_ms": "ms/call",
    "tagger.token_acc": "ratio",
    "pg.update_ms_per_sentence": "ms/sentence",
    "pg.self_ms_per_sentence": "ms/sentence",
    "pg.reward_ms_per_sentence": "ms/sentence",
    "pg.forward_calls_per_sentence": "count/sentence",
    "pg.backward_calls_per_sentence": "count/sentence",
    "pg.decode_calls_per_sentence": "count/sentence",
    "pg.baseline_calls_per_sentence": "count/sentence",
    "pg.finetune_delta_f1": "ratio",
    "cli.self_s": "s/call",
    **{"cli.%s_tokens_per_s" % c: "tokens/s" for c in SUBCOMMANDS},
    "trace.overhead_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("convert", "train", "parse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor (the smoke test uses a tiny one)")
    return parser.parse_args(argv)


def bootstrap():
    """Pin BLAS threads, then import treetag from this checkout's src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "treetag", "__init__.py")):
        raise SystemExit("perfbench: no treetag sources under %s" % src)
    sys.path.insert(0, src)
    import treetag
    if not os.path.abspath(treetag.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported treetag from %s, not %s" % (treetag.__file__, src))


def environment():
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def stage_rate(cycles, stage):
    """Median over calls of one subcommand's tokens per wall second."""
    return median([tokens / (end - start) for c in cycles
                   for _, name, tokens, start, end in c.calls if name == stage])


def cycle_rate(cycle):
    """Tokens per wall second over all subcommands of one cycle."""
    return sum(c[2] for c in cycle.calls) / sum(c[4] - c[3] for c in cycle.calls)


def per_key(pairs, pick):
    """`pick` of the values of each key over (key, value) pairs."""
    values = {}
    for key, value in pairs:
        values.setdefault(key, []).append(value)
    return {key: pick(v) for key, v in values.items()}


def ref_rate(cycles, sampler):
    """Tokens per reference second of a cycle's subcommands, each unit
    taken at the median of its repeats."""
    ref = per_key(((c[0], sampler.ref_seconds(c[3], c[4])) for cycle in cycles
                   for c in cycle.calls), statistics.median)
    calls = cycles[0].calls
    return sum(c[2] for c in calls) / sum(ref[c[0]] for c in calls)


def ref_latencies(cycles, sampler, pick):
    """Reference seconds of each single-sentence input, `pick` of its
    repeats, sorted."""
    return sorted(per_key(((item, sampler.ref_seconds(start, end)) for c in cycles
                           for item, start, end in c.latencies), pick).values())


def measure(workload, rec, seconds, tracer=None, sampler=None):
    """Repeat the workload's cycle for about `seconds` seconds.

    At least two cycles run; with a tracer every second one is traced.
    No cycle starts that the previous cycle's length says would end
    after the deadline.
    """
    start = time.perf_counter()
    last = 0.0
    if sampler is not None:
        rec.sampler = sampler
        sampler.start()
    try:
        while len(rec.cycles) < 2 or time.perf_counter() - start + last <= seconds:
            traced = tracer is not None and len(rec.cycles) % 2 == 1
            began = time.perf_counter()
            rec.begin_cycle(traced)
            if traced:
                tracer.install()
            try:
                workload.cycle(rec)
            finally:
                if traced:
                    tracer.uninstall()
            last = time.perf_counter() - began
    finally:
        if sampler is not None:
            sampler.stop()


def end_to_end(workload, rec, setup_times, sampler):
    """Figures over the untraced cycles, in reference seconds (hostspeed.py).
    Single-sentence latencies are over inputs, each timed once per pass."""
    cycles = [c for c in rec.cycles if not c.traced]
    # The p50 takes each input at its median repeat, the p99 at its best:
    # the slowest inputs' median repeats jump from run to run with the
    # collections and host hiccups they happen to meet, so a tail of
    # median repeats measures those, not the slowest inputs.
    typical = ref_latencies(cycles, sampler, statistics.median)
    fastest = ref_latencies(cycles, sampler, min)
    repeats = sum(len(c.latencies) for c in cycles) / len(typical)
    p99 = statistics.quantiles(fastest, n=100)[98]
    beyond = sum(1 for s in fastest if s > p99)
    kernel = statistics.quantiles(sampler.seconds, n=4)
    print("# %d set-ups; %d cycles, each unit timed %d times; %d single-sentence inputs, "
          "each timed %.1f times, %d beyond p99"
          % (len(setup_times), len(cycles), len(cycles), len(typical), repeats, beyond))
    print("# reference kernel timed %d times: quartiles %.3f %.3f %.3f ms"
          % (len(sampler.seconds), *(k * 1e3 for k in kernel)))
    print("# cycle tokens per wall second: "
          + " ".join("%.0f" % cycle_rate(c) for c in cycles))
    print("# set-up s: " + " ".join("%.4f" % s for s in setup_times))
    return {
        "setup_s": median(setup_times),
        "tokens_per_ref_s": ref_rate(cycles, sampler),
        "sentence_p50_ref_ms": statistics.median(typical) * 1e3,
        "sentence_p99_ref_ms": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_f1": workload.quality.get("eval_f1", 0.0),
    }


def per_layer(workload, rec, cycle_spans, setup_spans):
    from spans import SpanTable

    t = SpanTable(cycle_spans)
    s = SpanTable(setup_spans)
    traced = [c for c in rec.cycles if c.traced]
    plain = [c for c in rec.cycles if not c.traced]
    n = len(traced)
    v = {}

    v["trees.parse_us_per_tree"] = t.per_call("trees.parse_bracketed", 1e6)
    v["trees.serialize_us_per_tree"] = t.per_call("trees.serialize", 1e6)
    generated = s.count.get("trees.random_tree", 0) + s.items.get("trees.sample_corpus", 0)
    v["trees.generate_us_per_tree"] = (
        (s.total.get("trees.random_tree", 0.0) + s.total.get("trees.sample_corpus", 0.0))
        * 1e6 / generated if generated else 0.0)

    for scheme in ("relative", "absolute", "dynamic"):
        v["encodings.encode_%s_us_per_tree" % scheme] = t.per_call(
            "encodings.encode_" + scheme, 1e6)
    logs = [span[5] for span in t.spans if span[0] == "encodings.decode_with_repairs"]
    v["encodings.decode_us_per_sentence"] = t.per_call("encodings.decode_with_repairs", 1e6)
    v["encodings.decode_calls"] = len(logs) / n
    v["encodings.repaired_share"] = (
        sum(1 for log in logs if not log.clean()) / len(logs) if logs else 0.0)
    for r in REPAIRS:
        v["encodings.repairs." + r] = (
            sum(getattr(log, r) for log in logs) * 1000.0 / len(logs) if logs else 0.0)

    v["auxtracks.dist_us_per_tree"] = t.per_call("auxtracks.syntactic_distances", 1e6)
    v["auxtracks.shift_us_per_tree"] = t.per_call("auxtracks.shifted_n", 1e6)
    v["seqfile.write_us_per_sentence"] = t.per_item("seqfile.write_seq", 1e6)
    v["seqfile.read_us_per_sentence"] = t.per_item("seqfile.read_seq", 1e6)
    v["seqfile.read_tagged_us_per_sentence"] = t.per_item("seqfile.read_tagged", 1e6)
    v["metrics.bracket_score_us_per_tree"] = t.per_call("metrics.bracket_score", 1e6)
    v["metrics.bracket_score_calls"] = t.count.get("metrics.bracket_score", 0) / n

    v["tagger.featurize_us_per_token"] = t.per_item("tagger.featurize", 1e6)
    v["tagger.forward_us_per_token"] = t.per_item("tagger.forward", 1e6, by_self=True)
    v["tagger.forward_calls"] = t.count.get("tagger.forward", 0) / n
    v["tagger.backward_us_per_token"] = t.per_item("tagger.backward", 1e6)
    v["tagger.backward_calls"] = t.count.get("tagger.backward", 0) / n
    v["tagger.train_self_s"] = t.per_call("tagger.train_mtl", 1.0, by_self=True)
    trainings = t.count.get("tagger.train_mtl", 0)
    dev_eval = sum(span[2] - span[1]
                   for name in ("tagger.predict_greedy", "encodings.decode",
                                "metrics.bracket_score")
                   for span in t.under(name, "tagger.train_mtl", direct=True))
    v["tagger.dev_eval_s"] = dev_eval / trainings if trainings else 0.0
    v["tagger.predict_us_per_token"] = t.per_item("tagger.predict_greedy", 1e6)
    checkpoints = t.count.get("tagger.save_model", 0) + t.count.get("tagger.load_model", 0)
    v["tagger.checkpoint_ms"] = (
        (t.total.get("tagger.save_model", 0.0) + t.total.get("tagger.load_model", 0.0))
        * 1e3 / checkpoints if checkpoints else 0.0)
    v["tagger.token_acc"] = workload.quality.get("token_acc", 0.0)

    updates = t.count.get("pg.pg_update", 0)

    def per_update(x):
        return x / updates if updates else 0.0

    v["pg.update_ms_per_sentence"] = per_update(t.total.get("pg.pg_update", 0.0) * 1e3)
    v["pg.self_ms_per_sentence"] = per_update(
        (t.self_time.get("pg.pg_update", 0.0)
         + t.self_time.get("pg.estimate_policy_gradient", 0.0)) * 1e3)
    v["pg.reward_ms_per_sentence"] = per_update(t.total.get("pg.tree_reward", 0.0) * 1e3)
    for key, name in (("forward", "tagger.forward"), ("backward", "tagger.backward"),
                      ("decode", "encodings.decode_with_repairs"),
                      ("baseline", "tagger.predict_greedy")):
        v["pg.%s_calls_per_sentence" % key] = per_update(len(t.under(name, "pg.pg_update")))
    v["pg.finetune_delta_f1"] = workload.quality.get("finetune_delta_f1", 0.0)

    v["cli.self_s"] = t.per_call("cli.run", 1.0, by_self=True)
    for sub in SUBCOMMANDS:
        v["cli.%s_tokens_per_s" % sub] = stage_rate(plain, sub)
    v["trace.overhead_share"] = (median([c.busy_seconds() for c in traced])
                                 / median([c.busy_seconds() for c in plain]) - 1.0)
    return v


def run(args):
    import hostspeed
    import spans
    import workloads

    env = environment()
    print("# env " + " ".join("%s=%s" % kv for kv in env.items()))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.scale)
        rec = workloads.Recorder()
        if args.trace:
            setup_tracer = spans.Tracer([workloads])
            setup_tracer.install()
            try:
                workload.setup()
            finally:
                setup_tracer.uninstall()
            tracer = spans.Tracer([workloads])
            measure(workload, rec, args.seconds, tracer)
            values = per_layer(workload, rec, tracer.spans, setup_tracer.spans)
            units = PER_LAYER_UNITS
            trace_path = os.path.join(
                OUT_DIR, "trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
            tracer.write(trace_path)
            print("# %d spans written to %s" % (len(tracer.spans), trace_path))
        else:
            setup_times = []
            while (len(setup_times) < SETUP_REPEATS[0]
                   or (sum(setup_times) < SETUP_SECONDS
                       and len(setup_times) < SETUP_REPEATS[1])):
                began = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - began)
            sampler = hostspeed.Sampler(SAMPLE_INTERVAL)
            measure(workload, rec, args.seconds, sampler=sampler)
            values = end_to_end(workload, rec, setup_times, sampler)
            units = END_TO_END_UNITS
        print("# workload %s seed %d: %s; %d cycles (%d traced)"
              % (args.workload, args.seed, workload.describe(), len(rec.cycles),
                 sum(c.traced for c in rec.cycles)))
        print("# quality " + " ".join("%s=%.6f" % kv for kv in sorted(workload.quality.items())))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in rec.problems:
        print("# FAILED: %s" % problem)
    metrics = {}
    for name, unit in units.items():
        # a non-finite figure has already failed its check; JSON has no NaN
        value = values[name] if math.isfinite(values[name]) else 0.0
        metrics[name] = {"value": value, "unit": unit}
        print("%s %.6g %s" % (name, value, unit))
    return {"correct": rec.failed == 0, "attempted": rec.attempted,
            "failed": rec.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
