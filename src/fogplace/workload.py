"""Seeded synthetic workload generation.

Default ranges mirror the standard simulation parameter table: uniform
sampling for every range, user positions uniform over the coverage disc,
and latencies independent of distance. Each SSR carries its user's latency
and priority, and the bucket the config's one fog-cloud link latency.
``GeneratorConfig`` refuses, on construction, every config that could
generate an invalid bucket: generated functions always fit the cloud limits,
so a cloud assignment is feasible by construction. Each value is the draw of a
``default_rng(seed)`` call, decoded by ``RawDraws`` from the raw words of its
bit generator, so no draw costs a generator call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    RESOURCE_KINDS,
    TABLE_COLUMNS,
    EnvironmentLimits,
    ResourceVector,
    SSRBucket,
    link_overflows,
    settings_violations,
)
from .scoring import DEFAULT_DELTA, ssr_priorities, user_priorities

Range = tuple[float, float]
# The widest count range span that numpy draws by Lemire's method on a 32-bit half,
# as ``RawDraws`` decodes: it draws a span of 2**32 - 1 as a bare half, and wider ones
# from whole words.
MAX_COUNT_SPAN = 2**32 - 2


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_ssrs: tuple[int, int] = (4, 10)
    functions_per_ssr: tuple[int, int] = (4, 10)
    code_size: Range = (10.0, 500.0)
    input_size: Range = (100.0, 2500.0)
    cpu_demand: Range = (1.0, 4.0)
    ram_demand: Range = (100.0, 2048.0)
    storage_demand: Range = (10.0, 2048.0)
    net_io_demand: Range = (10.0, 4096.0)
    critical_value: tuple[int, int] = (1, 5)
    fog: EnvironmentLimits = EnvironmentLimits(
        ResourceVector(cpu=2, ram=1024, storage=1024, net_io=2048),
        code_size_limit=300.0, input_size_limit=1500.0)
    cloud: EnvironmentLimits = EnvironmentLimits(
        ResourceVector(cpu=6, ram=5120, storage=10240, net_io=10240),
        code_size_limit=500.0, input_size_limit=2500.0)
    link_latency: float = 40.0  # ms, the fog-cloud round trip
    distance_cap: float = 100.0  # km
    latency: Range = (5.0, 100.0)  # ms
    priority_blend: float = 0.5
    importance_factors: ResourceVector = ResourceVector(0.25, 0.25, 0.25, 0.25)
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            # every tuple is a range; the chained comparison is False for NaN
            if isinstance(value, tuple) and not -math.inf < value[0] <= value[1] < math.inf:
                raise ValueError(f"{name} range ({value[0]}, {value[1]}) "
                                 "must have finite ends with min <= max")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_ssrs", "functions_per_ssr"):
            lo, hi = getattr(self, name)
            if lo < 1:
                raise ValueError(f"{name} range has min {lo} < 1")
            if hi - lo > MAX_COUNT_SPAN:
                raise ValueError(f"{name} range ({lo}, {hi}) spans more than {MAX_COUNT_SPAN}")
        if not 1 <= self.critical_value[0] <= self.critical_value[1] <= 5:
            raise ValueError(f"critical_value range {self.critical_value} outside 1..5")
        cloud, cap = self.cloud, self.cloud.per_function_cap
        maxima = {f"{kind}_demand": getattr(cap, kind) for kind in RESOURCE_KINDS}
        maxima.update(code_size=cloud.code_size_limit, input_size=cloud.input_size_limit)
        for name, limit in maxima.items():  # every generated function fits the cloud
            lo, hi = getattr(self, name)
            if hi > limit:
                raise ValueError(f"{name} range max {hi} exceeds the cloud limit {limit}")
            if lo < 0:
                raise ValueError(f"{name} range has min {lo} < 0")
        for name in ("code_size", "input_size", "latency"):  # priorities divide by these
            if getattr(self, name)[0] <= 0:
                raise ValueError(f"{name} range has min {getattr(self, name)[0]} <= 0")
        if not (self.delta > 0 and 1 / self.delta < math.inf):  # the top function priority
            raise ValueError(f"delta must be > 0 with a finite 1/delta, got {self.delta}")
        if not 0 <= self.priority_blend <= 1:
            raise ValueError(f"priority blend {self.priority_blend} outside [0, 1]")
        if not (math.isfinite(self.distance_cap) and self.distance_cap > 0):
            raise ValueError(f"distance cap {self.distance_cap} must be finite and > 0")
        problems = settings_violations(self)
        if problems:
            raise ValueError("; ".join(problems))
        # a bucket's largest user latency is at least the range min; a sweep has 100 functions
        most = max(100, self.n_ssrs[1] * self.functions_per_ssr[1])
        if link_overflows(self.link_latency, self.latency[0], most):
            raise ValueError(f"link latency {self.link_latency} over the latency range "
                             f"min {self.latency[0]} overflows the costs")

    def demand_ranges(self) -> dict[str, Range]:
        return {kind: getattr(self, f"{kind}_demand") for kind in RESOURCE_KINDS}


_LOW = 0xFFFFFFFF  # masks a word's low 32-bit half
_BLOCK = 1024  # the fewest raw words fetched at once


class RawDraws:
    """numpy ``Generator`` draws decoded from the raw 64-bit words of its bit generator.

    A double is ``(w >> 11) * 2**-53`` of a fresh word. A bounded integer on
    ``lo..hi`` takes a 32-bit half ``x``: the low half of a fresh word, whose high
    half is kept for the next bounded draw, or the half kept before. Lemire's method
    makes it ``lo + (x * (span + 1) >> 32)``, and rejects it, to retry on the next
    half, when the low 32 bits of ``x * (span + 1)`` fall below
    ``(2**32 - span - 1) % (span + 1)``. A span of 0 draws nothing. This is how
    numpy's PCG64 ``random`` and ``integers(lo, hi + 1)`` decode words for spans up to
    ``MAX_COUNT_SPAN``, so the reader replays their stream bit for bit, starting with
    a half the generator's state may already keep. Words are fetched in blocks, so
    afterwards the bit generator stands past the last draw: use it for nothing else.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = 0  # the first unread word

    def _fetch(self, count: int) -> np.ndarray:
        """The next ``count`` words; they count as read once ``_pos`` moves past them."""
        if self._pos + count > len(self._words):
            self._words = np.concatenate([self._words[self._pos:],
                                          self._raw(max(count, _BLOCK))])
            self._pos = 0
        return self._words[self._pos:self._pos + count]

    def doubles(self, count: int) -> np.ndarray:
        """``rng.random(count)``."""
        words = self._fetch(count)
        self._pos += count
        return (words >> 11) * 2.0**-53

    def integer(self, lo: int, hi: int) -> int:
        """``int(rng.integers(lo, hi + 1))``, in plain ints."""
        end = hi - lo + 1
        if end == 1:
            return lo
        threshold = (2**32 - end) % end
        while True:
            x = self._half
            if x is None:
                if self._pos == len(self._words):
                    self._fetch(1)
                word = self._words.item(self._pos)
                self._pos += 1
                x, self._half = word & _LOW, word >> 32
            else:
                self._half = None
            m = x * end
            if m & _LOW >= threshold:
                return lo + (m >> 32)

    def rows(self, count: int, lead: int, lo: int, hi: int,
             tail: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` rows of ``lead`` doubles, an integer on ``lo..hi`` and ``tail`` doubles,
        as those calls of ``rng.random`` and ``rng.integers`` draw them, in order; returns
        the doubles, ``count`` x ``lead + tail``, and the integers.

        Without a rejection every other row takes a fresh word after its lead doubles,
        from the first row that finds no half kept, and the rows are decoded so, as
        arrays. A rejected draw's row is drawn again by ``doubles`` and ``integer``, and
        the rows after it by ``rows``.
        """
        width, end = lead + tail, hi - lo + 1
        if end == 1:  # no integer is drawn
            return (self.doubles(count * width).reshape(count, width),
                    np.full(count, lo, dtype=np.int64))
        kept = self._half is not None
        words = self._fetch(count * width + (count + 1 - kept) // 2)
        fresh = slice(kept * width + lead, None, 2 * width + 1)
        is_double = np.ones(len(words), dtype=bool)
        is_double[fresh] = False
        doubles = ((words[is_double] >> 11) * 2.0**-53).reshape(count, width)
        taken = words[fresh]
        halves = np.empty(kept + 2 * len(taken), dtype=np.uint64)
        if kept:
            halves[0] = self._half
        halves[kept::2], halves[kept + 1::2] = taken & _LOW, taken >> 32
        m = halves[:count] * np.uint64(end)
        values = (m >> 32).astype(np.int64) + lo
        threshold = (2**32 - end) % end
        rejected = np.flatnonzero((m & _LOW) < threshold)[:1].tolist() if threshold else []
        if not rejected:
            self._pos += len(words)
            self._half = int(halves[count]) if len(halves) > count else None
            return doubles, values
        j = rejected[0]  # the rows before it stand
        self._pos += j * width + (j + 1 - kept) // 2
        self._half = int(halves[j]) if (j - kept) % 2 else None
        head = self.doubles(lead)
        value = self.integer(lo, hi)
        row = np.concatenate([head, self.doubles(tail)])
        rest, rest_values = self.rows(count - j - 1, lead, lo, hi, tail)
        return (np.concatenate([doubles[:j], row[None], rest]),
                np.concatenate([values[:j], [value], rest_values]))


def _build_bucket(cfg: GeneratorConfig, draws: RawDraws, fn_counts: list[int]) -> SSRBucket:
    """Draw the users, then every function in order, and write the bucket's columns.

    Per user the draws are the radius share, the angle share and the latency.
    Per function they are code and input size, the critical value, then
    (total demand, base share) for each resource kind in RESOURCE_KINDS order.
    The stored demand is ``base + (total - base)``, which can differ from ``total``
    in the last bit: a bucket's costs equal those of the format that stored both parts.
    ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``, so doubles scaled
    afterwards give the same values. The users' draws are one block of doubles, and
    the functions' draws one ``RawDraws.rows`` pass: two doubles, the critical value
    (half a word, or none, as its span and the kept half decide) and eight doubles
    per function.
    """
    users = draws.doubles(3 * len(fn_counts)).reshape(-1, 3)
    # uniform over the disc of radius D around the fog node
    radius = cfg.distance_cap * np.sqrt(users[:, 0])
    theta = 2.0 * np.pi * users[:, 1]
    x, y = (radius * np.cos(theta)).tolist(), (radius * np.sin(theta)).tolist()
    latencies = cfg.latency[0] + (cfg.latency[1] - cfg.latency[0]) * users[:, 2]
    user_scores = user_priorities(zip(x, y), latencies.tolist(), cfg.distance_cap,
                                  cfg.priority_blend)

    n = sum(fn_counts)
    drawn, critical = draws.rows(n, 2, *cfg.critical_value, 8)
    # code and input size, then (total, share) per kind: the share is uniform on [0, 1)
    ranges = [cfg.code_size, cfg.input_size]
    for demand in cfg.demand_ranges().values():
        ranges += [demand, (0.0, 1.0)]
    low, high = np.array(ranges, dtype=float).T
    drawn = low + (high - low) * drawn
    total, share = drawn[:, 2::2], drawn[:, 3::2]
    base = total * share
    table = np.empty((n, len(TABLE_COLUMNS)))
    table[:, :4] = base + (total - base)
    table[:, 4:6] = drawn[:, :2]  # code and input size
    table[:, 6] = critical
    table[:, 7] = ssr_priorities(critical, drawn[:, 0], drawn[:, 1], cfg.delta, counts=fn_counts)
    return SSRBucket(table, fn_counts, latencies, user_scores, cfg.link_latency, cfg.fog,
                     cfg.cloud, cfg.importance_factors)


def generate_bucket(cfg: GeneratorConfig, seed: int | None = None) -> SSRBucket:
    """Generate one bucket; identical (config, seed) pairs give identical buckets."""
    draws = RawDraws(np.random.PCG64(cfg.seed if seed is None else seed))
    n = draws.integer(*cfg.n_ssrs)
    counts = draws.rows(n, 0, *cfg.functions_per_ssr, 0)[1]  # n integers, no doubles
    return _build_bucket(cfg, draws, counts.tolist())


def generate_sweep(
    cfg: GeneratorConfig, total_functions: int, seed: int | None = None
) -> SSRBucket:
    """Exactly `total_functions` functions over exactly 10 SSRs, 1-10 each."""
    if not 10 <= total_functions <= 100:
        raise ValueError(
            f"total functions {total_functions} outside [10, 100]; "
            "cannot split over 10 SSRs with 1-10 functions each"
        )
    draws = RawDraws(np.random.PCG64(cfg.seed if seed is None else seed))
    counts = [1] * 10
    open_slots = list(range(10))  # SSRs below 10 functions, ascending
    for _ in range(total_functions - 10):
        slot = open_slots[draws.integer(0, len(open_slots) - 1)]
        counts[slot] += 1
        if counts[slot] == 10:
            open_slots.remove(slot)
    return _build_bucket(cfg, draws, counts)
