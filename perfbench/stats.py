"""The benchmark's arithmetic: percentiles, span folding, goodput, failures.

Kept free of I/O so perfbench/tests/test_stats.py can check each rule on
hand-made inputs.
"""

import bisect
import math
import statistics
import struct
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "name tid start dur")

# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples, q=0.99, beyond=TAIL_BEYOND):
    """(value, p_used): the nearest-rank q-quantile, or, when there are too
    few samples for that, the highest percentile that still has `beyond`
    samples above it (never below the median)."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    p = min(q, max(0.5, (n - beyond) / n))
    rank = max(1, math.ceil(p * n - 1e-9))
    return sorted(samples)[rank - 1], p


def windowed_tail(samples, windows, q=0.99):
    """(value, p_used): the median over `windows` equal consecutive slices
    of `samples` (in arrival order) of each slice's tail_percentile.  One
    host stall then moves one slice's figure instead of the whole phase's."""
    n = len(samples)
    if n < windows:
        raise ValueError("fewer samples than windows")
    cuts = [n * w // windows for w in range(windows + 1)]
    tails = [tail_percentile(samples[a:b], q) for a, b in zip(cuts, cuts[1:])]
    return median([v for v, _ in tails]), min(p for _, p in tails)


def median(samples):
    return statistics.median(samples)


def fail_frac(attempted, failed):
    """Failed over attempted; every scheduled operation is attempted, whether
    or not it was answered."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return failed / attempted


def count_failures(statuses, mismatches, skipped_steps=0):
    """Non-200 and unanswered (status 0) requests, oracle mismatches among
    answered ones, and training steps the divergence guard skipped."""
    return sum(1 for s in statuses if s != 200) + mismatches + skipped_steps


# ---------------------------------------------------------------------------
# Open-loop phases and the goodput ladder.

def ladder(low, high, ratio):
    """Fixed geometric ladder of absolute rates from `low` up to `high`."""
    rates, r = [], float(low)
    while r <= high * (1 + 1e-9):
        rates.append(int(round(r)))
        r *= ratio
    return rates


def lag_growth_ms(due_us, sent_us):
    """Median generator lag over the last quarter of requests minus that
    over the first quarter: positive when the backlog grows during the
    phase.  Medians, so one burst of arrivals near the end is not mistaken
    for a backlog that keeps growing."""
    lags = [(s - d) / 1000.0 for d, s in sorted(zip(due_us, sent_us))]
    q = max(1, len(lags) // 4)
    return median(lags[-q:]) - median(lags[:q])


def phase_passes(p99_ms, failed, attempted, lag_growth, p99_limit_ms,
                 fail_limit, lag_growth_limit_ms):
    """A ladder step meets the limit when its tail latency, failure share and
    backlog growth are all within bounds."""
    return (p99_ms <= p99_limit_ms and failed <= fail_limit * attempted
            and lag_growth <= lag_growth_limit_ms)


def search_ladder(rates, probe):
    """Highest rate in `rates` for which probe(rate) is True, assuming the
    outcome is monotone in the rate (binary search).  Returns (rate or None,
    probed rates in order)."""
    lo, hi, probed = -1, len(rates), []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probed.append(rates[mid])
        if probe(rates[mid]):
            lo = mid
        else:
            hi = mid
    return (rates[lo] if lo >= 0 else None), probed


# ---------------------------------------------------------------------------
# Span folding.

def read_spans(path):
    """Reads perfbench_worker's PBSPANS1 dump into a list of Span."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"PBSPANS1":
        raise ValueError("not a span dump: %s" % path)
    pos = 8
    (num_names,) = struct.unpack_from("<I", data, pos)
    pos += 4
    names = []
    for _ in range(num_names):
        (length,) = struct.unpack_from("<H", data, pos)
        pos += 2
        names.append(data[pos:pos + length].decode())
        pos += length
    (num_events,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    spans = []
    for name, _cat, tid, start, dur in struct.iter_unpack(
            "<HHIqq", data[pos:pos + 24 * num_events]):
        spans.append(Span(names[name], tid, start, dur))
    return spans


def nest(spans):
    """Same-thread parent of every span (index into `spans`, or None).

    Spans on one thread nest properly; a span's parent is the innermost
    enclosing span on the same thread.  Work on other threads never counts
    as a child: a worker's shard runs beside the caller's span rather than
    inside its thread's time."""
    parent = [None] * len(spans)
    by_tid = defaultdict(list)
    for i, s in enumerate(spans):
        by_tid[s.tid].append(i)
    for ids in by_tid.values():
        ids.sort(key=lambda i: (spans[i].start, -spans[i].dur))
        stack = []
        for i in ids:
            s = spans[i]
            while stack and spans[stack[-1]].start + spans[stack[-1]].dur <= s.start:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
    return parent


def self_times(spans, parent=None):
    """Each span's duration minus the time its same-thread children cover."""
    if parent is None:
        parent = nest(spans)
    child_time = [0] * len(spans)
    for i, p in enumerate(parent):
        if p is not None:
            child_time[p] += spans[i].dur
    return [s.dur - c for s, c in zip(spans, child_time)]


def _ancestor_in(i, names, spans, parent):
    p = parent[i]
    while p is not None:
        if spans[p].name in names:
            return True
        p = parent[p]
    return False


def group_total(ids, names, spans, parent):
    """(total_ns, count) of the spans among `ids` named in `names`, skipping
    any nested in a same-thread ancestor that is also in `names`, so a
    group is never counted twice."""
    total, count = 0, 0
    for i in ids:
        if spans[i].name in names and not _ancestor_in(i, names, spans, parent):
            total += spans[i].dur
            count += 1
    return total, count


def pool_overhead(parallel_fors, shards):
    """(calls, overhead_ns, shard_ns) for pool/parallel_for spans and the
    pool/shard spans run on workers.  A shard belongs to the parallel_for
    whose interval contains its start; the overhead of a call is its
    duration minus its longest shard."""
    pfs = sorted(parallel_fors, key=lambda s: s.start)
    starts = [p.start for p in pfs]
    longest = [0] * len(pfs)
    shard_ns = 0
    for sh in shards:
        k = bisect.bisect_right(starts, sh.start) - 1
        if k >= 0 and sh.start <= pfs[k].start + pfs[k].dur:
            longest[k] = max(longest[k], sh.dur)
            shard_ns += sh.dur
    overhead = sum(p.dur - l for p, l in zip(pfs, longest))
    return len(pfs), overhead, shard_ns


# Span names the library emits, grouped into the layers the per-layer
# metrics report.  Backward closures are spanned by their op name.
GEMM = {"gemm/gemm", "gemm/batched_gemm", "gemm/gemm_bf16",
        "gemm/batched_gemm_bf16"}
PACK = {"gemm/pack", "gemm/pack_a", "gemm/pack_b"}
MAIN_THREAD_LAYERS = {
    "nn.attention_ms": {"nn/attention_block"},
    "autograd.head_xent_ms": {"ops/softmax_xent", "softmax_cross_entropy"},
    "core.latent_ms": {"reparameterize", "ops/kl_standard_normal",
                       "kl_standard_normal"},
    "optim.step_ms": {"train/optimizer"},
    "data.next_batch_ms": {"data/next_batch"},
    "tensor.gemm_ms": GEMM,
}
STEP_CHILDREN = {"train/forward", "train/backward", "train/optimizer"}


def _only(spans, name):
    found = [s for s in spans if s.name == name]
    if len(found) != 1:
        raise ValueError("expected one %s span, found %d" % (name, len(found)))
    return found[0]


def fold_train(spans, threads):
    """Per-optimizer-step layer figures for the traced bench/fit span, and
    the eval figures for the traced bench/evaluate span."""
    ms = 1e-6
    parent = nest(spans)
    fit = _only(spans, "bench/fit")
    main = fit.tid
    in_fit = [i for i, s in enumerate(spans)
              if fit.start <= s.start < fit.start + fit.dur]
    on_main = [i for i in in_fit if spans[i].tid == main]
    steps = [i for i in on_main if spans[i].name == "train/step"]
    if not steps:
        raise ValueError("no train/step spans inside bench/fit")
    n = len(steps)
    out = {}
    for metric, names in MAIN_THREAD_LAYERS.items():
        out[metric] = group_total(on_main, names, spans, parent)[0] * ms / n
    gemm_ns, gemm_calls = group_total(on_main, GEMM, spans, parent)
    out["tensor.gemm_calls"] = gemm_calls / n
    out["tensor.pack_ms"] = group_total(in_fit, PACK, spans, parent)[0] * ms / n
    own = self_times(spans, parent)
    # Tape overhead: what the forward/backward wrappers spend outside every
    # named op, layer and kernel span beneath them.
    for metric, names in (("autograd.forward_ms", {"train/forward"}),
                          ("autograd.backward_ms",
                           {"train/backward", "autograd/backward"})):
        out[metric] = sum(own[i] for i in on_main
                          if spans[i].name in names) * ms / n
    calls, overhead, shard_ns = pool_overhead(
        [spans[i] for i in on_main if spans[i].name == "pool/parallel_for"],
        [spans[i] for i in in_fit if spans[i].name == "pool/shard"])
    step_ns = sum(spans[i].dur for i in steps)
    step_set = set(steps)
    named_ns = sum(spans[i].dur for i in on_main
                   if spans[i].name in STEP_CHILDREN and parent[i] in step_set)
    out["util.thread_pool.calls"] = calls / n
    out["util.thread_pool.overhead_ms"] = overhead * ms / n
    # Workers only: the caller runs shard 0 without a span of its own.
    out["util.thread_pool.busy_frac"] = (
        shard_ns / (max(1, threads - 1) * step_ns))
    out["core.step.attributed_frac"] = named_ns / step_ns
    out["core.fit.unattributed_frac"] = (
        (step_ns - named_ns) + (fit.dur - step_ns)) / fit.dur
    out["core.fit.steps"] = n

    ev = _only(spans, "bench/evaluate")
    users = [s.dur * ms for s in spans if s.name == "eval/score_user"
             and ev.start <= s.start < ev.start + ev.dur]
    if not users:
        raise ValueError("no eval/score_user spans inside bench/evaluate")
    out["eval.score_user_p50_ms"] = median(users)
    out["eval.score_user_p99_ms"] = tail_percentile(users)[0]
    out["eval.busy_frac"] = sum(users) / (threads * ev.dur * ms)
    out["eval.users"] = len(users)
    return out
