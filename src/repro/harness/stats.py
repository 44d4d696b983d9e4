"""Measurement statistics.

Implements the methodology of Section 4.3: warm up without measuring,
label a sample of packets injected during a measurement interval,
then run until every labeled packet has been delivered.  Provides
summary statistics (mean/percentile latency, accepted throughput) and
a batch-means confidence interval, mirroring the paper's "accurate to
within 3% with 99% confidence" criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Two-sided z values for common confidence levels.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass
class LatencySample:
    """Latency observations for measured packets."""

    latencies: List[int] = field(default_factory=list)

    def add(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.latencies.append(latency)

    def __len__(self) -> int:
        return len(self.latencies)

    @property
    def mean(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def maximum(self) -> float:
        """Largest observed latency; NaN on an empty sample.

        NaN (not 0) so an empty measurement window reads the same way
        across mean, percentile, and maximum — a 0 here is a plausible
        real latency and silently poisons downstream min/max folds.
        """
        return float(max(self.latencies)) if self.latencies else float("nan")

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, q in [0, 100].

        An out-of-range ``q`` raises even on an empty sample: the
        argument is invalid regardless of the data, and returning NaN
        would hide the caller's bug whenever the window happened to be
        empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.latencies:
            return float("nan")
        data = sorted(self.latencies)
        if len(data) == 1:
            return float(data[0])
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def confidence_halfwidth(
        self, confidence: float = 0.99, batches: int = 10
    ) -> float:
        """Batch-means half-width of the CI on the mean latency.

        Splits the sample into ``batches`` consecutive batches and uses
        the batch means' standard error; returns ``inf`` when there is
        not enough data.  When ``n`` is not a multiple of ``batches``
        the remainder observations are folded into the final batch so
        every sample contributes (dropping the tail would bias the
        estimate toward the early, possibly unconverged, observations).
        """
        if confidence not in _Z_VALUES:
            raise ValueError(
                f"confidence must be one of {sorted(_Z_VALUES)}, got "
                f"{confidence}"
            )
        n = len(self.latencies)
        if n < batches * 2:
            return float("inf")
        size = n // batches
        means = []
        for b in range(batches):
            if b == batches - 1:
                chunk = self.latencies[b * size :]
            else:
                chunk = self.latencies[b * size : (b + 1) * size]
            means.append(sum(chunk) / len(chunk))
        grand = sum(means) / batches
        var = sum((m - grand) ** 2 for m in means) / (batches - 1)
        return _Z_VALUES[confidence] * math.sqrt(var / batches)

    def converged(
        self,
        relative: float = 0.03,
        confidence: float = 0.99,
        batches: int = 10,
    ) -> bool:
        """True when the CI half-width is within ``relative`` of the mean."""
        if not self.latencies:
            return False
        half = self.confidence_halfwidth(confidence, batches)
        return half <= relative * self.mean


@dataclass
class RunResult:
    """Outcome of one simulation run at a fixed offered load."""

    offered_load: float
    avg_latency: float
    p99_latency: float
    #: NaN when no packets were measured, like the other latency fields.
    max_latency: float
    throughput: float
    packets_measured: int
    cycles: int
    saturated: bool
    extra: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Tuple[float, float, float]:
        """(offered load, average latency, accepted throughput)."""
        return (self.offered_load, self.avg_latency, self.throughput)


def summarize(
    offered_load: float,
    sample: LatencySample,
    measured_flits: int,
    measured_cycles: int,
    num_ports: int,
    capacity: float,
    saturated: bool,
    cycles: int,
) -> RunResult:
    """Fold raw observations into a :class:`RunResult`.

    ``throughput`` is the accepted traffic during the measurement
    window as a fraction of switch capacity
    (``num_ports * capacity`` flits per cycle).
    """
    denom = measured_cycles * num_ports * capacity
    throughput = measured_flits / denom if denom > 0 else 0.0
    return RunResult(
        offered_load=offered_load,
        avg_latency=sample.mean,
        p99_latency=sample.percentile(99.0),
        max_latency=sample.maximum,
        throughput=throughput,
        packets_measured=len(sample),
        cycles=cycles,
        saturated=saturated,
    )
