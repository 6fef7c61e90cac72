"""Metric instruments and the registry.

Three instrument kinds, mirroring the usual metrics vocabulary:

* :class:`Counter` — monotonically increasing count (KVM exits, watchdog
  kicks, scheduler dispatches);
* :class:`Gauge` — last-written value with min/max tracking (runnable-queue
  depth);
* :class:`Histogram` — bucketed distribution with count/sum/min/max
  (exit-handling latency, quantum utilization, watchdog fire margin).

Instruments live in a :class:`MetricsRegistry` under hierarchical
``component.metric`` names; a *series* is one (name, labels) combination, so
``kvm.exits{core=0, reason=mmio}`` and ``kvm.exits{core=1, reason=intr}``
are two series of the same metric.  Everything is deterministic: label sets
are sorted tuples, snapshots render in sorted order, and no instrument ever
reads the host clock — time-valued observations are *modeled* nanoseconds
fed in by the instrumentation layer.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, object], ...]

#: default histogram bucket upper bounds: 1-2-5 decades, 1 ns .. 10 s
DEFAULT_BUCKETS = tuple(
    mantissa * 10 ** exponent
    for exponent in range(0, 10)
    for mantissa in (1, 2, 5)
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f"{name}={value}" for name, value in key)
    return "{" + inner + "}"


class Instrument:
    """Common base: a named series with a fixed label set."""

    kind = "instrument"

    def __init__(self, name: str, label_key: LabelKey):
        self.name = name
        self.label_key = label_key

    @property
    def labels(self) -> Dict[str, object]:
        return dict(self.label_key)

    @property
    def series_name(self) -> str:
        return self.name + _format_labels(self.label_key)

    def to_json(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Instrument):
    kind = "counter"

    def __init__(self, name: str, label_key: LabelKey):
        super().__init__(name, label_key)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.series_name} cannot decrease")
        self.value += amount

    def to_json(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge(Instrument):
    kind = "gauge"

    def __init__(self, name: str, label_key: LabelKey):
        super().__init__(name, label_key)
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if self.min is None:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.updates += 1

    def to_json(self) -> Dict[str, object]:
        return {"value": self.value, "min": self.min, "max": self.max,
                "updates": self.updates}


class Histogram(Instrument):
    kind = "histogram"

    def __init__(self, name: str, label_key: LabelKey,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, label_key)
        self.bounds: Tuple[float, ...] = tuple(buckets)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be ascending")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None:
            self.min = self.max = value
        else:
            # min()/max() semantics: replace only on a strict improvement.
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        # The first inclusive upper bound at or above ``value``; past the
        # last bound (and NaN, which compares false with every bound) is
        # the +inf overflow bucket.
        if value == value:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
        else:
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        the q-th observation falls in)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= target and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def to_json(self) -> Dict[str, object]:
        # Only non-empty buckets, keyed by their upper bound, keeps the
        # sidecar JSON compact without losing information.
        occupied = {}
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count:
                key = ("+inf" if index == len(self.bounds)
                       else repr(self.bounds[index]))
                occupied[key] = bucket_count
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "buckets": occupied}


class LazySeries(dict):
    """One metric's series keyed by a varying label, bound on first use.

    ``series[key]`` is a plain dict hit from the second observation on; a
    miss calls ``make(key)`` (a registry get-or-create).  A tap that never
    fires therefore registers no empty series, exactly like calling the
    registry on every event would.
    """

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[object], Instrument]):
        super().__init__()
        self._make = make

    def __missing__(self, key) -> Instrument:
        instrument = self[key] = self._make(key)
        return instrument


class MetricsRegistry:
    """Get-or-create store of labeled metric series."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        #: name -> (kind, {label_key: instrument})
        self._metrics: Dict[str, Tuple[str, Dict[LabelKey, Instrument]]] = {}

    # -- series access ------------------------------------------------------
    def _series(self, kind: str, name: str, labels: Dict[str, object],
                **extra) -> Instrument:
        if not name or name != name.strip():
            raise ValueError(f"bad metric name {name!r}")
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise TypeError(
                f"metric {name!r} already registered as a {entry[0]}, "
                f"requested as a {kind}")
        key = _label_key(labels)
        instrument = entry[1].get(key)
        if instrument is None:
            instrument = self._KINDS[kind](name, key, **extra)
            entry[1][key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._series("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series("gauge", name, labels)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._series("histogram", name, labels, buckets=buckets)

    # -- queries ------------------------------------------------------------
    def get(self, name: str, **labels) -> Optional[Instrument]:
        entry = self._metrics.get(name)
        if entry is None:
            return None
        return entry[1].get(_label_key(labels))

    def series_of(self, name: str) -> List[Instrument]:
        entry = self._metrics.get(name)
        if entry is None:
            return []
        return [entry[1][key] for key in sorted(entry[1])]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def total(self, name: str, **label_filter) -> float:
        """Sum a counter metric's value across all matching series."""
        total = 0.0
        for instrument in self.series_of(name):
            labels = instrument.labels
            if all(labels.get(k) == v for k, v in label_filter.items()):
                value = getattr(instrument, "value", None)
                total += value if isinstance(value, (int, float)) else 0.0
        return total

    def __iter__(self) -> Iterator[Instrument]:
        for name in self.names():
            yield from self.series_of(name)

    def __len__(self) -> int:
        return sum(len(entry[1]) for entry in self._metrics.values())

    # -- export --------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-ready dump of every series."""
        metrics = []
        for name in self.names():
            kind = self._metrics[name][0]
            series = [
                {"labels": instrument.labels, **instrument.to_json()}
                for instrument in self.series_of(name)
            ]
            metrics.append({"name": name, "type": kind, "series": series})
        return {"metrics": metrics, "num_series": len(self)}
