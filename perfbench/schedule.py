"""Seeded open-loop traffic for the serve stage.

Everything the daemon receives is generated here from the workload seed:
the user pool, each request's history, the Poisson arrival times and the
POST /reload cadence.  A phase is written as a schedule file that
perfbench_worker's loadgen replays; the same (seed, phase) gives the same
bytes.

Schedule lines:
    rec <due_us> <verify 0|1> <k> <json body>
    reload <due_us>
"""

import bisect
import json
import random

K = 10
# Repeat traffic: users drawn Zipf-1.5 from a fixed pool, 70% of requests
# replaying the user's current history.  Items are Zipf-1.05 popular, as in
# the Beauty-like corpus.
NUM_USERS = 2000
USER_ZIPF = 1.5
REPLAY_FRAC = 0.7
ITEM_ZIPF = 1.05
# Requests per phase checked against the offline oracle (a seeded sample;
# every non-200 and unanswered request is counted regardless).
VERIFY_PER_PHASE = 30


def _rng(seed, *parts):
    # String seeds hash through SHA-512, so streams are stable across runs
    # and Python processes (unlike hash()).
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _cumulative(weights):
    total, out = 0.0, []
    for w in weights:
        total += w
        out.append(total)
    return out


class Traffic:
    """Request generator for one run.

    kind "repeat": replayed histories are encoded-state cache hits once seen;
    the other requests extend the user's history by one item.  kind "fresh": every request is a new user with a new
    history (no cache hit possible).
    """

    def __init__(self, seed, kind, num_items, min_len, max_len):
        if kind not in ("repeat", "fresh"):
            raise ValueError("traffic kind must be repeat|fresh")
        self.seed, self.kind = seed, kind
        self.num_items, self.min_len, self.max_len = num_items, min_len, max_len
        self._item_cum = _cumulative(
            [1.0 / (r ** ITEM_ZIPF) for r in range(1, num_items + 1)])
        rng = _rng(seed, "items")
        # Popularity rank -> item id, so popular ids are spread over the
        # catalog rather than clustered at 1..k.
        self._item_of_rank = list(range(1, num_items + 1))
        rng.shuffle(self._item_of_rank)
        self._user_cum = _cumulative(
            [1.0 / (r ** USER_ZIPF) for r in range(1, NUM_USERS + 1)])
        pool_rng = _rng(seed, "users")
        self.histories = [self._history(pool_rng) for _ in range(NUM_USERS)]
        self._next_fresh_user = NUM_USERS

    def _item(self, rng):
        rank = bisect.bisect_left(self._item_cum,
                                  rng.random() * self._item_cum[-1])
        return self._item_of_rank[min(rank, self.num_items - 1)]

    def _history(self, rng):
        return [self._item(rng)
                for _ in range(rng.randint(self.min_len, self.max_len))]

    def request(self, rng):
        """Returns (user, history) for the next request."""
        if self.kind == "fresh":
            user = self._next_fresh_user
            self._next_fresh_user += 1
            return user, self._history(rng)
        user = bisect.bisect_left(self._user_cum,
                                  rng.random() * self._user_cum[-1])
        user = min(user, len(self.histories) - 1)
        if rng.random() >= REPLAY_FRAC:
            history = self.histories[user][1:] + [self._item(rng)]
            if len(history) < self.min_len:
                history.append(self._item(rng))
            self.histories[user] = history
        return user, list(self.histories[user])


def phase_lines(traffic, label, rate_qps, seconds, reload_every_s=0.0):
    """Schedule lines for one phase: Poisson arrivals at `rate_qps` for
    `seconds`, plus a POST /reload every `reload_every_s` (0 = none)."""
    rng = _rng(traffic.seed, traffic.kind, label, rate_qps)
    expected = max(1.0, rate_qps * seconds)
    verify_prob = min(1.0, VERIFY_PER_PHASE / expected)
    horizon_us = int(seconds * 1e6)
    events = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_qps)
        due = int(t * 1e6)
        if due >= horizon_us:
            break
        user, history = traffic.request(rng)
        verify = 1 if rng.random() < verify_prob else 0
        body = json.dumps({"user": user, "history": history, "k": K},
                          separators=(",", ":"))
        events.append((due, 0, "rec %d %d %d %s" % (due, verify, K, body)))
    if reload_every_s > 0:
        step_us = int(reload_every_s * 1e6)
        for due in range(step_us // 2, horizon_us, step_us):
            events.append((due, 1, "reload %d" % due))
    events.sort()
    return [line for _, _, line in events]
