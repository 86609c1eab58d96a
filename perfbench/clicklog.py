"""Seeded click log in the comma-separated layout the ``preprocess`` command reads.

Items belong to topic clusters. A session starts in a cluster drawn by
the week's cluster popularity and, click by click, stays in its cluster
with probability ``stay`` or jumps to a freshly drawn one; within a
cluster, items follow a fixed Zipf popularity. Every week the cluster
popularity ranking rotates by ``drift`` of the clusters, so items that
were cold become hot and new items keep entering the vocabulary.
Sessions start uniformly within their week and clicks are 10-300 s
apart. Rows are written in time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEEK_SECONDS = 7 * 86400
START_TIME = 1_600_000_000


@dataclass(frozen=True)
class ClickLog:
    weeks: int = 4
    sessions_per_week: int = 1250
    clusters: int = 120
    cluster_size: int = 40
    mean_session_length: float = 5.0
    stay: float = 0.8
    drift: float = 0.25
    cluster_exponent: float = 0.9
    item_exponent: float = 0.3


def write_click_log(path: str | Path, cfg: ClickLog, seed: int) -> int:
    """Write the log for ``seed`` to ``path``; returns the number of events."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    n_items = cfg.clusters * cfg.cluster_size
    item_keys = rng.permutation(10 * n_items)[:n_items]
    within = 1.0 / (np.arange(cfg.cluster_size) + 1.0) ** cfg.item_exponent
    within /= within.sum()
    cluster_rank = rng.permutation(cfg.clusters)
    shift = int(round(cfg.drift * cfg.clusters))

    events: list[tuple[int, int, int]] = []  # (time, session, item key)
    session = 0
    for week in range(cfg.weeks):
        if week:
            cluster_rank = (cluster_rank + shift) % cfg.clusters
        weights = 1.0 / (cluster_rank + 1.0) ** cfg.cluster_exponent
        weights /= weights.sum()
        for _ in range(cfg.sessions_per_week):
            t = START_TIME + week * WEEK_SECONDS + int(rng.integers(0, WEEK_SECONDS - 3600))
            length = 2 + int(rng.poisson(cfg.mean_session_length - 2.0))
            cluster = int(rng.choice(cfg.clusters, p=weights))
            for j in range(length):
                if j and rng.random() > cfg.stay:
                    cluster = int(rng.choice(cfg.clusters, p=weights))
                item = cluster * cfg.cluster_size + int(rng.choice(cfg.cluster_size, p=within))
                events.append((t, session, int(item_keys[item])))
                t += int(rng.integers(10, 300))
            session += 1
    events.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("session_id,timestamp,item_id\n")
        for t, s, key in events:
            fh.write(f"s{s},{t},p{key}\n")
    return len(events)
