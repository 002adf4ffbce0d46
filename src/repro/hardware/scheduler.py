"""Graph partitioning and the compiled execution model.

The scheduler walks a (full-size symbolic) model graph in execution order and
assigns every op to the backend's primary accelerator when it is supported
there, falling back to the CPU otherwise. Contiguous runs form *segments*;
each segment boundary costs a framework synchronization plus an inter-IP
tensor transfer over the SoC interconnect — the mechanism behind the paper's
Table 3 (NNAPI vs Neuron) and the Exynos 990 -> 2100 segmentation uplift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..kernels.numerics import Numerics
from .accelerator import AcceleratorSpec
from .soc import SoCSpec

__all__ = ["Segment", "CompiledModel", "partition_graph", "compile_model"]

# samples per offline batch each ALP pipeline runs
OFFLINE_BATCH = 256


@dataclass(frozen=True)
class Segment:
    """A contiguous run of ops on one accelerator (per-sample costs)."""

    accelerator: AcceleratorSpec
    op_names: tuple[str, ...]
    macs: float
    weight_bytes: float
    activation_bytes: float
    boundary_bytes: float  # activation bytes crossing into this segment

    @property
    def num_ops(self) -> int:
        return len(self.op_names)

    def compute_seconds(self, numerics: Numerics, tops_derate: float = 1.0) -> float:
        tops = self.accelerator.effective_tops[numerics] * tops_derate
        return (2.0 * self.macs) / (tops * 1e12)

    def memory_seconds(self, batch: int = 1) -> float:
        return (self.activation_bytes * batch + self.weight_bytes) / (
            self.accelerator.memory_gbps * 1e9
        )


@dataclass(frozen=True)
class FrameworkProfile:
    """How a runtime framework layers cost on top of raw hardware time.

    ``per_boundary_ms`` models the HAL synchronization the paper attributes
    to NNAPI (§7.1, Table 3); vendor SDKs keep it near zero. ``tops_derate``
    models incomplete hardware enablement (e.g. single- vs multi-MDLA).
    """

    name: str
    per_inference_ms: float = 0.0
    per_boundary_ms: float = 0.0
    tops_derate: float = 1.0
    # ops this runtime's driver cannot place on the primary engine even when
    # the hardware could run them (buggy/missing op support, paper App. D)
    unsupported_ops: frozenset[str] = frozenset()


_FIXED_FUNCTION_KINDS = {"npu", "apu", "dsp", "hta", "hvx", "ane"}


def _op_runs_on(op, acc: AcceleratorSpec, excluded: frozenset[str]) -> bool:
    if op.op_type in excluded and acc.kind in _FIXED_FUNCTION_KINDS:
        return False
    if op.op_type not in acc.supported_ops():
        return False
    # dilated (atrous) convolutions are a classic fixed-function gap
    if acc.kind in _FIXED_FUNCTION_KINDS and op.attrs.get("dilation", 1) > 1:
        return False
    return True


def partition_graph(
    graph: Graph,
    primary: AcceleratorSpec,
    fallback: AcceleratorSpec,
    numerics: Numerics,
    secondary: AcceleratorSpec | None = None,
    excluded_ops: frozenset[str] = frozenset(),
) -> tuple[Segment, ...]:
    """Assign ops to primary (then secondary, then fallback) and group runs."""
    runs: list[tuple[AcceleratorSpec, list]] = []  # (engine, its (op, cost) pairs)
    primary_ok = primary.supports(numerics)
    secondary_ok = secondary is not None and (
        secondary.supports(numerics) or secondary.supports(Numerics.FP16)
    )
    for op, cost in graph.op_costs(numerics):
        if op.op_type == "batch_norm":
            raise ValueError("compile exported graphs: batch norms must be folded")
        if primary_ok and _op_runs_on(op, primary, excluded_ops):
            target = primary
        elif secondary_ok and _op_runs_on(op, secondary, excluded_ops):
            target = secondary
        else:
            target = fallback
        if not runs or runs[-1][0] is not target:
            runs.append((target, []))
        runs[-1][1].append((op, cost))
    return tuple(_segment(graph, numerics, acc, ops) for acc, ops in runs)


def _segment(graph: Graph, numerics: Numerics, acc: AcceleratorSpec, ops: list) -> Segment:
    """One run's segment: its costs summed in op order."""
    macs = weight_bytes = activation_bytes = 0.0
    for _, cost in ops:
        macs += cost.macs
        weight_bytes += cost.weight_bytes
        activation_bytes += cost.activation_bytes
    boundary_bytes = sum(
        graph.spec(t).elements_per_sample * numerics.bytes_per_element
        for t in ops[0][0].inputs
    )
    return Segment(acc, tuple(op.name for op, _ in ops), macs, weight_bytes,
                   activation_bytes, boundary_bytes)


@dataclass(frozen=True)
class CompiledModel:
    """A model scheduled onto an SoC under one backend configuration.

    Frozen, so each batch size's query terms are prepared once, at its first
    query, and cannot go stale.
    """

    model_name: str
    task: str
    soc: SoCSpec
    numerics: Numerics
    segments: tuple[Segment, ...]
    framework: FrameworkProfile
    postprocess_cpu_ops: float = 0.0  # e.g. NMS — part of the "AI tax"
    # pre-processing (resize/crop/normalize/feature extraction) runs on the
    # CPU outside the benchmark's timed region by default (paper §7.2: "pre-
    # and post-processing and other tasks the benchmark does not measure");
    # end-to-end mode (App. E) adds it to the measured latency
    preprocess_cpu_ops: float = 0.0
    # batch -> the clock-independent terms of a query (see ``_prepare``)
    _prepared: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def hop_seconds(self, i: int, batch: int = 1) -> tuple[float, ...]:
        """The cost terms, in seconds, of the hop into segment ``i`` (> 0).

        Every hop pays the runtime's HAL synchronization; hops between two
        non-CPU engines additionally pay the SoC IP-block sync and the
        interconnect transfer of the activations entering the segment (the
        Exynos 990 -> 2100 software story, paper §7.1).
        """
        seg = self.segments[i]
        hal = self.framework.per_boundary_ms * 1e-3
        if self.segments[i - 1].accelerator.kind == "cpu" or seg.accelerator.kind == "cpu":
            return (hal,)
        return (hal, self.soc.segment_sync_ms * 1e-3,
                seg.boundary_bytes * batch / (self.soc.interconnect_gbps * 1e9))

    def _prepare(self, batch: int) -> tuple:
        """The terms of a ``batch``-sample query that do not depend on the
        clock: the base latency, the busy engines' names, per segment its
        compute and memory seconds, overhead, busy slot and hop terms, and the
        extra CPU seconds."""
        names: list[str] = []
        terms = []
        for i, seg in enumerate(self.segments):
            acc = seg.accelerator
            if acc.name not in names:
                names.append(acc.name)
            terms.append((
                seg.compute_seconds(self.numerics, self.framework.tops_derate) * batch,
                seg.memory_seconds(batch),
                (acc.dispatch_overhead_us + seg.num_ops * acc.per_op_overhead_us) * 1e-6,
                names.index(acc.name),
                self.hop_seconds(i, batch) if i > 0 else (),
            ))
        extra_cpu_ops = self.postprocess_cpu_ops + self.preprocess_cpu_ops
        extra_cpu = 0.0
        if extra_cpu_ops:
            cpu = self.soc.accelerator("cpu")
            extra_cpu = batch * extra_cpu_ops / (cpu.effective_tops[Numerics.FP32] * 1e12)
        return (self.framework.per_inference_ms * 1e-3, tuple(names), tuple(terms), extra_cpu)

    def query_seconds(
        self, clock_scale: float = 1.0, batch: int = 1
    ) -> tuple[float, dict[str, float]]:
        """One query of ``batch`` samples at ``clock_scale``: its end-to-end
        latency and each accelerator's busy seconds (power accounting)."""
        prepared = self._prepared.get(batch)
        if prepared is None:
            prepared = self._prepared[batch] = self._prepare(batch)
        total, names, terms, extra_cpu = prepared
        busy = [0.0] * len(names)
        for compute, memory, overhead, slot, hops in terms:
            active = max(compute / clock_scale, memory)
            busy[slot] += active
            # dispatch and per-op fill costs are clocked logic: they derate
            # with the engine clock just like the MACs do
            total += active + overhead / clock_scale
            for term in hops:
                total += term
        if extra_cpu:
            total += extra_cpu
        return total, dict(zip(names, busy))

    def latency_seconds(self, clock_scale: float = 1.0, batch: int = 1) -> float:
        """End-to-end latency for one query of ``batch`` samples."""
        return self.query_seconds(clock_scale, batch)[0]


def offline_throughput(pipelines: list["CompiledModel"]) -> float:
    """Aggregate samples/s of concurrent ALP pipelines.

    Each pipeline runs the whole graph on its own engine at batch
    :data:`OFFLINE_BATCH`, so their throughputs add.
    """
    if not pipelines:
        raise ValueError("need at least one pipeline")
    return sum(
        OFFLINE_BATCH / p.latency_seconds(batch=OFFLINE_BATCH) for p in pipelines
    )


def compile_model(
    graph: Graph,
    soc: SoCSpec,
    *,
    primary: str,
    numerics: Numerics,
    framework: FrameworkProfile,
    secondary: str | None = None,
    postprocess_cpu_ops: float = 0.0,
    preprocess_cpu_ops: float = 0.0,
) -> CompiledModel:
    """Partition ``graph`` onto ``soc`` with CPU fallback."""
    primary_acc = soc.accelerator(primary)
    fallback = soc.accelerator("cpu")
    secondary_acc = soc.accelerator(secondary) if secondary else None
    segments = partition_graph(
        graph, primary_acc, fallback, numerics, secondary_acc, framework.unsupported_ops
    )
    return CompiledModel(
        model_name=graph.name,
        task=str(graph.metadata.get("task", "unknown")),
        soc=soc,
        numerics=numerics,
        segments=segments,
        framework=framework,
        postprocess_cpu_ops=postprocess_cpu_ops,
        preprocess_cpu_ops=preprocess_cpu_ops,
    )
