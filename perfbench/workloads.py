"""Datasets, seeded query lists and the truth oracle for every workload.

Everything here runs before any timing starts: the server only ever
receives the generated records, and every answer the service returns is
compared against the answer computed here from the same plaintext.

The datasets (and the provider keys that bin them) come from one fixed
``DATA_SEED``; the benchmark's ``--seed`` draws the request streams.
Bin sizes follow the busiest cell-id of an epoch, a maximum that moves
by tens of percent between generator seeds, and every query pays for
it; a per-seed dataset would make run-to-run spread mostly a property
of the seed rather than of the code being measured.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.workloads import WifiConfig, generate_wifi_epoch

HOUR = 3600
MINUTE = 60
DATA_SEED = 2021


@dataclass(frozen=True)
class Dataset:
    """One fleet's data and public geometry (what the server is given)."""

    wifi: WifiConfig
    epoch_start: int
    epoch_seconds: int
    time_buckets: int
    cell_ids: int

    def records(self) -> list[tuple[str, int, str]]:
        return generate_wifi_epoch(
            self.wifi, epoch_start=self.epoch_start,
            epoch_duration=self.epoch_seconds,
        )

    def server_spec(self) -> dict:
        return {
            "access_points": self.wifi.access_points,
            "epoch_start": self.epoch_start,
            "epoch_seconds": self.epoch_seconds,
            "time_buckets": self.time_buckets,
            "cell_ids": self.cell_ids,
        }


def serve_dataset() -> Dataset:
    """serve-point / serve-range: one 4-hour epoch into the diurnal peak.

    10:00-14:00, 32 APs, 800 devices, 1,500 off-peak rows/h: about 44k
    records, about 22k stored rows per shard, one-minute buckets.
    """
    return Dataset(
        wifi=WifiConfig(
            access_points=32, devices=800, rows_per_hour_offpeak=1500,
            seed=DATA_SEED,
        ),
        epoch_start=10 * HOUR, epoch_seconds=4 * HOUR,
        time_buckets=240, cell_ids=1024,
    )


def oblivious_dataset() -> Dataset:
    """oblivious: the demo population (16 APs, 80 devices, one hour) at
    a quarter of its rate, 150 off-peak rows/h: about 960 records.

    At the demo's 600 rows/h a Concealer+ point takes 200-350 ms, too
    few per run for steady figures on a noisy host; at 150 rows/h it
    takes about 25 ms and runs the same oblivious code.
    """
    return Dataset(
        wifi=WifiConfig(
            access_points=16, devices=80, rows_per_hour_offpeak=150,
            seed=DATA_SEED,
        ),
        epoch_start=10 * HOUR, epoch_seconds=HOUR,
        time_buckets=30, cell_ids=64,
    )


def ingest_config() -> WifiConfig:
    """ingest: the serve population, landed one hour at a time."""
    return WifiConfig(
        access_points=32, devices=800, rows_per_hour_offpeak=1500,
        seed=DATA_SEED,
    )


def ingest_epoch_starts(count: int) -> list[int]:
    """Daytime hours (08:00-19:00) of successive days: 7-12k rows each.

    The first two (08:00-10:00) hold about 7.0k and 8.3k rows.
    """
    return [
        day * 24 * HOUR + hour * HOUR
        for day in range(count // 12 + 1)
        for hour in range(8, 20)
    ][:count]


# ------------------------------------------------------------------- oracle


class Truth:
    """Plaintext answers for every query shape the generators emit."""

    def __init__(self, records):
        self._cell = defaultdict(list)      # (location, time) -> devices
        self._times = defaultdict(list)     # location -> sorted times
        for location, time, device in records:
            self._cell[(location, time)].append(device)
            self._times[location].append(time)
        for times in self._times.values():
            times.sort()

    def point(self, request: dict):
        (location,) = request["index_values"]
        devices = self._cell.get((location, request["timestamp"]), [])
        if request.get("aggregate", "count") == "collect":
            return collect_key(
                [location, request["timestamp"], device] for device in devices
            )
        return len(devices)

    def _window(self, location: str, start: int, end: int) -> list[int]:
        times = self._times.get(location, [])
        return times[bisect.bisect_left(times, start):
                     bisect.bisect_right(times, end)]

    def range(self, request: dict):
        (slot,) = request["index_values"]
        locations = slot if isinstance(slot, list) else [slot]
        matched = [
            time
            for location in locations
            for time in self._window(
                location, request["time_start"], request["time_end"]
            )
        ]
        aggregate = request.get("aggregate", "count")
        if aggregate == "count":
            return len(matched)
        if aggregate == "min":
            return min(matched, default=None)
        if aggregate == "max":
            return max(matched, default=None)
        raise ValueError(f"no oracle for aggregate {aggregate!r}")

    def answer(self, request: dict):
        return (
            self.point(request) if request["op"] == "point"
            else self.range(request)
        )


def collect_key(rows) -> tuple:
    """COLLECT answers compare as multisets of records."""
    return tuple(sorted(Counter(tuple(row) for row in rows).items()))


def normalise(request: dict, answer):
    """Bring a wire answer into the oracle's comparison form."""
    if request.get("aggregate") == "collect":
        return collect_key(answer)
    return answer


# ---------------------------------------------------------------- queries


def _point(location: str, timestamp: int, aggregate: str) -> dict:
    return {
        "op": "point", "index_values": [location], "timestamp": timestamp,
        "aggregate": aggregate,
    }


def point_queries(
    records, rng: random.Random, count: int, collect: bool
) -> list[dict]:
    """BPB points at (location, minute) pairs drawn from the records.

    Drawing from the records carries the generator's Zipf AP skew into
    the query stream.  With ``collect`` one query in four is a COLLECT,
    so decryption and response encoding get real work.
    """
    queries = []
    for index in range(count):
        location, timestamp, _device = records[rng.randrange(len(records))]
        aggregate = "collect" if collect and index % 4 == 3 else "count"
        queries.append(_point(location, timestamp, aggregate))
    return queries


def _minute_window(dataset: Dataset, rng, minutes: int) -> tuple[int, int]:
    """A whole-minute window inside the epoch (inclusive bounds)."""
    first = rng.randrange(0, dataset.time_buckets - minutes + 1)
    start = dataset.epoch_start + first * MINUTE
    return start, start + minutes * MINUTE - 1


# (APs, minutes) of the scans in one serve-range round, in order.  A
# scan's cost follows its shape, and a round holds only four scans, so
# the shapes are fixed and the seed draws which APs and when.
SCAN_SHAPES = ((2, 15), (3, 10), (4, 5), (3, 12))


def range_cycle(
    dataset: Dataset, records, rng: random.Random, shape: tuple[int, int]
) -> list[dict]:
    """One short multi-location scan followed by 20 long windows.

    The scan covers ``shape`` = (2-4 APs, 5-15 minutes): eBPB or
    multipoint bins;
    long windows cover one AP for 1-4 hours, mostly COUNT plus some
    MIN/MAX over ``time``, which the auto planner sends to the
    aggregate tree.  Windows are whole minutes, matching the grid's
    one-minute buckets, so no sub-bucket residue queries are added.

    Long windows use the scalar one-location form ``["ap0003"]`` (what
    the repo's ``--trace range`` client sends): the one-element
    wildcard form ``[["ap0003"]]`` reaches the tree path and fails
    with ``BadRequest: TypeError`` (see NOTES.md, defect a).
    """
    locations = dataset.wifi.location_domain()
    aps, minutes = shape
    start, end = _minute_window(dataset, rng, minutes)
    cycle = [{
        "op": "range",
        "index_values": [sorted(rng.sample(locations, aps))],
        "time_start": start, "time_end": end,
        "aggregate": "count", "method": "auto",
    }]
    for index in range(20):
        location = records[rng.randrange(len(records))][0]
        start, end = _minute_window(dataset, rng, rng.randint(60, 240))
        aggregate = ("min", "max")[index % 2] if index % 5 == 4 else "count"
        request = {
            "op": "range", "index_values": [location],
            "time_start": start, "time_end": end,
            "aggregate": aggregate, "method": "auto",
        }
        if aggregate != "count":
            request["target"] = "time"
        cycle.append(request)
    return cycle


def is_scan(request: dict) -> bool:
    return request["op"] == "range" and isinstance(
        request["index_values"][0], list
    )


def readback_queries(
    records, epoch_start: int, rng, shard_of, shards: int
) -> list[dict]:
    """The fixed set that reads a landed hour back.

    Eight points per shard (the eighth a COLLECT), six two-AP
    five-minute scans and two half-hour long windows on one AP.  A
    point's cost depends on its shard, whose bins are padded to that
    shard's busiest cell-id, so ``shard_of`` (the fleet's own planner)
    balances the points: every seed then reads the same mix, and the
    median over the readback falls among the points, and the p90 among
    the scans.
    """
    points: dict[int, list[dict]] = defaultdict(list)
    while sum(len(chosen) for chosen in points.values()) < 8 * shards:
        location, timestamp, _ = records[rng.randrange(len(records))]
        owner = shard_of(_point(location, timestamp, "count"))
        if len(points[owner]) < 8:
            aggregate = "collect" if len(points[owner]) == 7 else "count"
            points[owner].append(_point(location, timestamp, aggregate))
    queries = [query for owner in sorted(points) for query in points[owner]]
    present = sorted({record[0] for record in records})
    for _ in range(6):
        first = epoch_start + rng.randrange(0, 56) * MINUTE
        queries.append({
            "op": "range", "index_values": [sorted(rng.sample(present, 2))],
            "time_start": first, "time_end": first + 5 * MINUTE - 1,
            "aggregate": "count", "method": "auto",
        })
    for _ in range(2):
        first = epoch_start + rng.randrange(0, 31) * MINUTE
        queries.append({
            "op": "range", "index_values": [rng.choice(records)[0]],
            "time_start": first, "time_end": first + 30 * MINUTE - 1,
            "aggregate": "count", "method": "auto",
        })
    return queries


def encode(request: dict) -> bytes:
    """Request JSON without its closing brace; the client appends the
    per-request traceparent and the newline."""
    return json.dumps(request)[:-1].encode()
