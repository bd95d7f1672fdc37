"""The metrics core: thread-safe instruments, labeled families, registries.

``repro.observability`` is the fifth architectural layer — the telemetry
story every other layer publishes into.  This module is the heart of it:
a small, stdlib-only metrics registry in the style of the Prometheus
client libraries, deliberately tiny so the engine/runner/dynamic/service
layers can depend on it without pulling anything in.

Three instrument kinds, all monotone-safe under concurrency:

* :class:`Counter` — a monotonically non-decreasing total;
* :class:`Gauge` — a value that goes up and down (with a ``set_max``
  high-water-mark helper);
* :class:`Histogram` — observations bucketed into **fixed deterministic
  bounds** (no adaptive resizing: two processes observing the same
  stream render byte-identical exposition).

Instruments come in **labeled families** (``family.labels(stage="parse")``)
created through a :class:`MetricsRegistry`.  Registration is
get-or-create: asking twice for the same ``(name, kind, labelnames)``
returns the same family (so independent modules can wire the same metric
against one registry), while a conflicting redefinition raises.

Every mutation and every read of a registry's instruments synchronizes
on the registry's single re-entrant ``lock``.  That is the atomicity
contract the service counters rely on: a compound update taken under
``with registry.lock:`` (e.g. the session store bumping ``lookups`` and
``hits`` together) is indivisible with respect to ``snapshot()`` /
``render()``, so invariants like ``hits + misses == lookups``
hold in *every* snapshot, not just quiescent ones.

There is a process-wide :func:`default_registry` (what ``python -m repro
metrics-dump`` reports and what the sweep runner publishes into) plus
freely constructible instances for tests and per-service scoping, and a
:class:`NullRegistry` whose instruments are no-ops — the baseline the
instrumentation-overhead benchmark compares against.

:func:`MetricsRegistry.render` emits the Prometheus text exposition
format (version 0.0.4): ``# HELP``/``# TYPE`` headers, escaped label
values, and the ``_bucket``/``_sum``/``_count`` triplet with cumulative
``le`` buckets for histograms.  :func:`parse_exposition` is the inverse
— enough of a parser for the load generator and CI to scrape
``GET /metrics`` and assert on what came back.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping

__all__ = [
    "BATCH_OCCUPANCY_BUCKETS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RequestStages",
    "default_registry",
    "format_value",
    "merge_expositions",
    "parse_exposition",
    "relabel_exposition",
    "sample_total",
    "stage_histogram",
]

# Latency buckets (seconds): sub-millisecond parse/serialize stages up
# through multi-second mechanism runs.  Fixed and deterministic — never
# derived from observed data.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Micro-batch flush occupancy (requests per flush).  ``le="1"`` counts
# the flushes that held a single request — everything beyond it is a
# flush that actually shared work.
BATCH_OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def format_value(value: float) -> str:
    """Render one sample value the way the exposition format wants it:
    integral floats without the trailing ``.0``, infinities as
    ``+Inf``/``-Inf``."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value.is_integer() and abs(value) < 1e17:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n"))


def _render_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(labelnames, labelvalues)]
    pairs.extend(f'{name}="{_escape_label_value(value)}"'
                 for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """High-water mark: keep the larger of the current and new value."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Observations bucketed into fixed bounds, plus running sum/count.

    Bucket bounds are upper-inclusive (``le`` semantics) and rendered
    cumulatively with a trailing ``+Inf`` bucket equal to ``count`` —
    the exposition-format invariants the golden tests pin.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock, bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # one overflow bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative_counts(self) -> list[int]:
        """Cumulative per-bucket counts, ending with the ``+Inf`` total."""
        with self._lock:
            out, running = [], 0
            for count in self._counts:
                running += count
                out.append(running)
            return out


class MetricFamily:
    """One named metric with zero or more label dimensions.

    With labels, address a child via ``family.labels(stage="parse")``.
    Without labels the family proxies the single implicit child, so
    ``family.inc()`` / ``family.observe(v)`` / ``family.set(v)`` work
    directly.
    """

    _CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: tuple[str, ...], lock: threading.RLock,
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}
        if not labelnames:
            self._child(())

    def _child(self, key: tuple[str, ...]):
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = self._CHILD_TYPES[self.kind](self._lock)
                self._children[key] = child
            return child

    def labels(self, **labelvalues: object):
        """The child instrument at these label values (created on first
        use).  Every declared label must be named, and nothing else."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}")
        return self._child(tuple(str(labelvalues[n]) for n in self.labelnames))

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {list(self.labelnames)}; "
                "address a child via .labels(...)")
        return self._children[()]

    # -- unlabeled passthrough ----------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_max(self, value: float) -> None:
        self._solo().set_max(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def cumulative_counts(self) -> list[int]:
        return self._solo().cumulative_counts()

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def sum(self) -> float:
        return self._solo().sum

    @property
    def count(self) -> int:
        return self._solo().count

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """Children in deterministic (label-value-sorted) order."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A set of metric families sharing one re-entrant lock.

    The lock is public on purpose: compound counter updates taken under
    ``with registry.lock:`` are atomic with respect to ``snapshot()``
    and ``render()`` (both acquire the same lock), which is how the
    service keeps cross-counter invariants true in every scrape.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    # -- registration (get-or-create) ---------------------------------------
    def _family(self, name: str, help: str, kind: str,
                labels: Iterable[str] = (),
                buckets: tuple[float, ...] | None = None) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labels)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} on {name}")
        if kind == "histogram" and "le" in labelnames:
            raise ValueError(f"histogram {name} reserves the 'le' label")
        with self.lock:
            family = self._families.get(name)
            if family is not None:
                if (family.kind, family.labelnames) != (kind, labelnames) or (
                        kind == "histogram" and family.buckets != buckets):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{list(family.labelnames)}; cannot "
                        f"redefine as {kind}{list(labelnames)}")
                return family
            family = MetricFamily(name, help, kind, labelnames, self.lock,
                                  buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help, "gauge", labels)

    def histogram(self, name: str, help: str = "", labels: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        bounds = tuple(float(b) for b in buckets if b != math.inf)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} needs strictly increasing finite "
                f"buckets, got {list(buckets)}")
        return self._family(name, help, "histogram", labels, buckets=bounds)

    def families(self) -> list[MetricFamily]:
        with self.lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict:
        """One atomic, JSON-serializable read of every instrument."""
        with self.lock:
            out: dict = {}
            for family in self.families():
                series = []
                for key, child in family.series():
                    labels = dict(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        cumulative = child.cumulative_counts()
                        buckets = {format_value(bound): count for bound, count
                                   in zip(family.buckets, cumulative)}
                        buckets["+Inf"] = cumulative[-1]
                        series.append({"labels": labels, "buckets": buckets,
                                       "sum": child.sum, "count": child.count})
                    else:
                        series.append({"labels": labels, "value": child.value})
                out[family.name] = {"type": family.kind, "help": family.help,
                                    "series": series}
            return out

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        with self.lock:
            lines: list[str] = []
            for family in self.families():
                if family.help:
                    lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for key, child in family.series():
                    labels = _render_labels(family.labelnames, key)
                    if family.kind == "histogram":
                        cumulative = child.cumulative_counts()
                        for bound, count in zip(
                                (*family.buckets, math.inf), cumulative):
                            le = _render_labels(
                                family.labelnames, key,
                                extra=(("le", format_value(bound)),))
                            lines.append(f"{family.name}_bucket{le} {count}")
                        lines.append(
                            f"{family.name}_sum{labels} {format_value(child.sum)}")
                        lines.append(f"{family.name}_count{labels} {child.count}")
                    else:
                        lines.append(
                            f"{family.name}{labels} {format_value(child.value)}")
            return "\n".join(lines) + "\n" if lines else ""


def stage_histogram(registry: MetricsRegistry) -> MetricFamily:
    """The shared per-request stage-latency histogram — one definition so
    the service core and the micro-batcher register identically."""
    return registry.histogram(
        "repro_stage_seconds",
        "Per-request latency by pipeline stage "
        "(parse/queue/build/execute/serialize)",
        labels=("stage",), buckets=DEFAULT_LATENCY_BUCKETS)


class RequestStages:
    """One priced request's stage ledger — the one channel its stage
    timings travel through.

    :meth:`record` writes a stage once into all three sinks: the
    :func:`stage_histogram` family, a child span of ``context`` on the
    ``spans`` recorder when the request is traced (``context`` is
    ``None`` otherwise), and :attr:`seconds`, which the request log
    renders as ``stages_ms``.  :meth:`fork` starts a ledger for the
    same request span that already carries this one's stages: how an
    envelope's ``parse``, recorded once, reaches each item's log line.
    """

    __slots__ = ("histogram", "spans", "context", "seconds")

    def __init__(self, histogram: MetricFamily, spans=None, context=None,
                 seconds: dict[str, float] | None = None) -> None:
        self.histogram = histogram
        self.spans = spans
        self.context = context
        self.seconds = {} if seconds is None else seconds

    def record(self, name: str, seconds: float, *,
               attributes: dict | None = None) -> None:
        self.histogram.labels(stage=name).observe(seconds)
        if self.context is not None:
            self.spans.observe(name, duration=seconds, parent=self.context,
                               attributes=attributes)
        self.seconds[name] = seconds

    def fork(self) -> "RequestStages":
        return RequestStages(self.histogram, self.spans, self.context,
                             dict(self.seconds))


# -- the process-wide default registry ---------------------------------------
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry: what the sweep runner publishes into
    and what ``python -m repro metrics-dump`` reports."""
    return _DEFAULT_REGISTRY


# -- the no-op registry ------------------------------------------------------
class _NullInstrument:
    """Answers the whole instrument *and* family API with no-ops."""

    __slots__ = ()

    def labels(self, **labelvalues: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def sum(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0


class NullRegistry:
    """A registry whose instruments do nothing — the un-instrumented
    baseline for the observability-overhead benchmark, and an explicit
    opt-out for hot paths."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._null = _NullInstrument()

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> _NullInstrument:
        return self._null

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> _NullInstrument:
        return self._null

    def histogram(self, name: str, help: str = "", labels: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> _NullInstrument:
        return self._null

    def families(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def render(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


# -- scraping ----------------------------------------------------------------
def _unescape_label_value(text: str) -> str:
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_sample_line(line: str) -> tuple[str, dict[str, str], float]:
    brace = line.find("{")
    labels: dict[str, str] = {}
    if brace == -1:
        name, _, value = line.partition(" ")
    else:
        name = line[:brace]
        end = line.rindex("}")
        body, value = line[brace + 1:end], line[end + 1:].strip()
        # Split on commas outside quoted values.
        depth_quote, start, parts = False, 0, []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\" and depth_quote:
                i += 2
                continue
            if ch == '"':
                depth_quote = not depth_quote
            elif ch == "," and not depth_quote:
                parts.append(body[start:i])
                start = i + 1
            i += 1
        if body[start:].strip():
            parts.append(body[start:])
        for part in parts:
            key, _, raw = part.partition("=")
            labels[key.strip()] = _unescape_label_value(raw.strip().strip('"'))
    value = value.strip().split()[0]  # a timestamp may follow
    return name.strip(), labels, float(value.replace("+Inf", "inf"))


def parse_exposition(text: str) -> dict:
    """Parse Prometheus exposition text into
    ``{"types": {family: kind}, "samples": {sample_name: [(labels, value), ...]}}``
    — sample names keep their ``_bucket``/``_sum``/``_count`` suffixes.
    Inverse enough of :meth:`MetricsRegistry.render` for scrapers and
    tests (round-trip pinned in the golden tests)."""
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) >= 4:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample_line(line)
        samples.setdefault(name, []).append((labels, value))
    return {"types": types, "samples": samples}


def sample_total(parsed: Mapping, name: str,
                 where: Mapping[str, str] | None = None) -> float:
    """Sum every sample of ``name`` whose labels include ``where``."""
    total = 0.0
    for labels, value in parsed.get("samples", {}).get(name, []):
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        total += value
    return total


# -- fleet aggregation -------------------------------------------------------
def relabel_exposition(text: str, labels: Mapping[str, str]) -> str:
    """Inject ``labels`` into every sample of an exposition.

    Pure text surgery — sample values, label ordering and escaping are
    left byte-for-byte as rendered — so the fleet router can prefix each
    worker's scrape with a ``shard="w0"`` label without re-parsing
    floats.  The injected labels come first; existing histograms keep
    their per-``le`` invariants because the new labels split series by
    shard, never within one.
    """
    pairs = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                     for name, value in labels.items())
    if not pairs:
        return text
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            out.append(line)
            continue
        brace, space = line.find("{"), line.find(" ")
        if brace != -1 and (space == -1 or brace < space):
            # `name{a="b"} v` — a first space may sit inside a quoted
            # label value, so the brace position is what decides.
            out.append(f"{line[:brace + 1]}{pairs},{line[brace + 1:]}")
        else:
            name, _, rest = line.partition(" ")
            out.append(f"{name}{{{pairs}}} {rest}")
    return "\n".join(out) + "\n"


def merge_expositions(parts: Iterable[str]) -> str:
    """Concatenate expositions, keeping one ``# HELP``/``# TYPE`` header
    per family (the first wins).  Families whose samples appear in
    several parts end up interleaved rather than contiguous — fine for
    :func:`parse_exposition` and the scrapers here, which key on sample
    names, not block order."""
    seen: set[tuple[str, str]] = set()
    out: list[str] = []
    for text in parts:
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                words = line.split()
                if len(words) >= 3:
                    header = (words[1], words[2])
                    if header in seen:
                        continue
                    seen.add(header)
            out.append(line)
    return "\n".join(out) + "\n" if out else ""
