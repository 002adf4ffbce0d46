#!/usr/bin/env python
"""Checked-in reference files: one registry that checks and regenerates them.

    PYTHONPATH=src python tools/references.py --check [NAME ...]  # every entry by default
    PYTHONPATH=src python tools/references.py --write NAME        # regenerate one entry

Each entry owns a path or glob, computes its files afresh and compares
stored and computed item by item (digests and ``float.hex`` strings by
equality, the staticcheck report byte for byte). An entry made with
:func:`store_kind` owns one kind of ``repro.store`` file, each an item
compared entry by entry (arrays by dtype, shape and bytes); a new kind needs
its key payload, a function giving each file's key and entries, and one
``REGISTRY`` line. ``--check`` prints ``<verdict> <entry> <item>[: fields that
differ]`` per item and exits 1 unless every verdict is ``ok``: ``MISMATCH``,
``MISSING`` (not stored) and ``STALE`` (computed no more) fail. ``--write``
rewrites one entry's files byte-reproducibly, for a change meant to move them.

DeepLab's golden digests and fit depend on the BLAS thread split, so when a
selected entry needs it BLAS is pinned to ``BLAS_THREADS`` before NumPy loads
(the functions below import it late); otherwise the ambient count stands.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import pathlib
import sys
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_THREADS = 2


@dataclasses.dataclass(frozen=True)
class Reference:
    """One checked-in reference."""

    path: str  # relative to the repo root; a glob owns every file it matches
    compute: Callable[[], bytes | dict[str, bytes]]  # one file's bytes, or each file's by name
    pinned: bool = False  # needs BLAS pinned to BLAS_THREADS
    items: Callable[[str, bytes], dict] = lambda name, data: json.loads(data)  # of one file

    def owned(self) -> list[pathlib.Path]:
        return sorted(pathlib.Path(p) for p in glob.glob(str(ROOT / self.path)))

    def computed(self) -> dict[str, bytes]:
        files = self.compute()
        return files if isinstance(files, dict) else {pathlib.PurePath(self.path).name: files}

    def item_map(self, files: dict[str, bytes]) -> dict:
        return {k: v for name, data in files.items() for k, v in self.items(name, data).items()}


def json_bytes(value, **dumps) -> bytes:
    return (json.dumps(value, **dumps) + "\n").encode()


NUMERICS = ("fp32", "fp16", "int8", "uint8")
GOLDEN_BATCH = 4


def digest(outputs: dict) -> str:
    """SHA-256 over outputs sorted by name: each contributes its name, dtype,
    shape and raw bytes."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = np.ascontiguousarray(outputs[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def golden_outputs() -> bytes:
    """One digest per unfitted zoo model x ``NUMERICS`` on fixed seeded feeds:
    the executor's exactness oracle."""
    from repro.graph import Executor, export_mobile
    from repro.kernels import Numerics
    from repro.models import available_models, create_reference_model, model_feeds
    from repro.staticcheck import deployment_variants

    digests = {}
    for name in available_models():
        exported = export_mobile(create_reference_model(name, fitted=False).graph)
        feeds = model_feeds(name, exported, GOLDEN_BATCH)
        modes = tuple(Numerics(n) for n in NUMERICS)
        digests[name] = {
            numerics.value: digest(Executor(graph).run(feeds))
            for numerics, graph in deployment_variants(exported, modes, [feeds])
        }
    payload = {"blas_threads": BLAS_THREADS, "batch": GOLDEN_BATCH, "digests": digests}
    return json_bytes(payload, indent=2, sort_keys=True)


def golden_items(_: str, data: bytes) -> dict:
    golden = json.loads(data)
    return {"blas_threads": golden["blas_threads"],
            **{f"{model}/{numerics}": value for model, row in golden["digests"].items()
               for numerics, value in row.items()}}


def fitted_models() -> dict[str, tuple[str, dict]]:
    """Each zoo model's fit key, and its refit params that differ from its
    unfitted build with its ``head_fit``; MobileBERT's fit changes none."""
    from repro.models import available_models, create_reference_model, fitting

    files = {}
    for name in available_models():
        bundle = create_reference_model(name, fitted=False)
        key = fitting.fit_key(bundle, fitting.FIT_SEED)
        before = dict(bundle.graph.params)
        fitting.fit_reference_heads(bundle, seed=fitting.FIT_SEED)
        changed = {param: arr for param, arr in bundle.graph.params.items()
                   if array_item(arr) != array_item(before[param])}
        if changed:
            files[name] = (key, {fitting.HEAD_FIT_ENTRY: bundle.graph.metadata["head_fit"],
                                 **changed})
    return files


def array_item(arr) -> tuple:
    return arr.dtype, arr.shape, arr.tobytes()


def squad_spans() -> dict[str, tuple[str, dict]]:
    """The key and the FP32 MobileBERT oracle's answer spans of the default
    SQuAD set, computed afresh over the harness's FP32 reference graph."""
    import numpy as np

    from repro.datasets import DEFAULT_SIZES, squad
    from repro.graph import export_mobile
    from repro.models import create_reference_model
    from repro.synthdata import token_sequence_batch

    bundle = create_reference_model("mobilebert")
    graph = export_mobile(bundle.graph)
    size, config = DEFAULT_SIZES["squad"], bundle.config
    ids, masks, context_starts = token_sequence_batch(
        size, config["seq_len"], config["vocab_size"], squad.SEED)
    spans = squad.run_oracle(graph, {"input_ids": ids, "input_mask": masks}, context_starts)
    key = squad.oracle_key(graph, config, size=size, seed=squad.SEED)
    return {squad.STORED_SET: (key, {"spans": np.array(spans, dtype=np.int64)})}


def store_kind(kind: str, entries: Callable[[], dict[str, tuple[str, dict]]],
               pinned: bool = False) -> Reference:
    """The store's ``kind`` files, ``entries()`` giving each one's key and
    entries by name; arrays compare by dtype, shape and bytes, the key and
    metadata by ``repr`` (so 1, 1.0 and True differ, as in their JSON)."""

    def compute() -> dict[str, bytes]:
        from repro import store

        return {f"{name}.npz": store.dump(arrays, key) for name, (key, arrays) in entries().items()}

    def items(name: str, data: bytes) -> dict:
        from repro import store

        return {pathlib.PurePath(name).stem: {
            entry: array_item(value) if hasattr(value, "tobytes") else repr(value)
            for entry, value in store.read(data).items()}}

    return Reference(f"src/repro/stored/{kind}/*.npz", compute, pinned, items)


# dataset -> (default reference model, oracle size, truths are predictions)
DATASET_CASES = {
    "imagenet": ("mobilenet_edgetpu", 32, True),
    "coco": ("mobiledet_ssd", 16, False),
    "ade20k": ("deeplab_v3plus", 8, True),
    "squad": ("mobilebert", 24, True),
    "speech": ("mobile_streaming_asr", 8, True),
    "superres": ("mobile_edge_sr", 8, True),
}
DATASET_BATCH = 8


def _update(h, value) -> None:
    """Feed ``value`` into ``h``: arrays by dtype, shape and raw bytes."""
    import numpy as np

    if isinstance(value, dict):
        for key in sorted(value):
            h.update(f"{key}:".encode())
            _update(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _update(h, item)
    elif dataclasses.is_dataclass(value):
        _update(h, dataclasses.astuple(value))
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())


def _sha256(value) -> str:
    h = hashlib.sha256()
    _update(h, value)
    return h.hexdigest()


def _hex(metrics: dict) -> dict[str, str]:
    return {k: float(v).hex() for k, v in sorted(metrics.items())}


def dataset_record(name: str) -> dict:
    """Digests, length and metrics of dataset ``name`` at its oracle size."""
    import numpy as np

    from repro.datasets import create_dataset
    from repro.graph import Executor, export_mobile
    from repro.models import create_reference_model

    model, size, truths_are_predictions = DATASET_CASES[name]
    bundle = create_reference_model(model)
    fp32 = export_mobile(bundle.graph)
    ds = create_dataset(name, fp32, bundle.config, size=size)
    n = len(ds)
    ex = Executor(fp32)
    predictions = {}
    for start in range(0, n, DATASET_BATCH):
        idx = np.arange(start, min(start + DATASET_BATCH, n))
        out = ex.run(ds.input_batch(idx))
        for j, i in enumerate(idx):
            predictions[int(i)] = ds.postprocess({k: v[j] for k, v in out.items()}, int(i))
    truths = [ds.ground_truth(i) for i in range(n)]
    record = {
        "len": n,
        "feeds": _sha256(ds.input_batch(np.arange(n))),
        "calibration": _sha256(ds.calibration_batches()),
        "truths": _sha256(truths),
        "fp32": _hex(ds.evaluate(predictions)),
    }
    if truths_are_predictions:
        record["truths_scored"] = _hex(ds.evaluate(dict(enumerate(truths))))
    return record


# (SoC, task): NPU+GPU hops on a slow interconnect, a two-engine ALP
# burst, and a laptop with its own thermal envelope
SIMULATOR_CASES = (
    ("exynos_990", "semantic_segmentation"),
    ("snapdragon_865plus", "image_classification"),
    ("core_i7_1165g7", "image_classification"),
)


def _query_row(result) -> list[float]:
    return [result.latency_seconds, result.energy.energy_joules,
            result.energy.average_watts, result.temperature_c, result.clock_scale]


def simulator_trace(soc_name: str, task: str) -> dict[str, list[float]]:
    """Every float of one fixed performance-mode sequence on ``soc_name``."""
    from repro.core.harness import full_graph
    from repro.backends import default_backend_for
    from repro.core.tasks import get_task
    from repro.hardware import SimulatedDevice, get_soc
    from repro.loadgen import PerformanceSUT

    soc = get_soc(soc_name)
    backend = default_backend_for(soc)
    graph = full_graph(get_task(task).models[soc.benchmark_version])
    single = backend.compile_single_stream(graph, task)
    pipelines = backend.compile_offline(graph, task)
    device = SimulatedDevice(soc)
    trace: dict[str, list[float]] = {}
    for i in range(3):
        trace[f"cold_query_{i}"] = _query_row(device.run_query(single))
    trace["batch_8_query"] = _query_row(device.run_query(single, batch=8))
    off = PerformanceSUT(device, single, pipelines).run_offline(4096)
    trace["offline"] = [off.total_seconds, off.steady_clock_scale,
                        off.energy_joules, off.throughput_fps]
    trace["after_offline"] = [device.thermal.temperature_c, device.virtual_time,
                              device.total_energy_joules]
    for i in range(2):
        trace[f"hot_query_{i}"] = _query_row(device.run_query(single))
    device.cooldown(60.0)
    trace["cooled_query"] = _query_row(device.run_query(single))
    trace["final"] = [device.thermal.temperature_c, device.virtual_time,
                      device.total_energy_joules]
    return trace


def staticcheck_report() -> bytes:
    """``python -m repro.staticcheck --format json``; it records any finding."""
    from repro.staticcheck.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--format", "json"])
    return out.getvalue().encode()


REGISTRY = {
    "golden_outputs": Reference("tests/golden_outputs.json", golden_outputs, True, golden_items),
    "fitted_models": store_kind("fitted_models", fitted_models, pinned=True),
    "squad_spans": store_kind("squad_spans", squad_spans),
    "dataset_oracle": Reference("tests/dataset_oracle.json", lambda: json_bytes(
        {name: dataset_record(name) for name in sorted(DATASET_CASES)}, indent=1)),
    "simulator_oracle": Reference("tests/simulator_oracle.json", lambda: json_bytes(
        {f"{soc}/{task}": {k: [float(v).hex() for v in row]
                           for k, row in simulator_trace(soc, task).items()}
         for soc, task in SIMULATOR_CASES}, indent=1)),
    "staticcheck": Reference("benchmarks/results/STATICCHECK.json", staticcheck_report,
                             items=lambda name, data: {name: data}),
}


def check(name: str) -> list[str]:
    """One ``<verdict> <name> <item>`` line per item, stored or computed."""
    ref = REGISTRY[name]
    stored = ref.item_map({path.name: path.read_bytes() for path in ref.owned()})
    computed = ref.item_map(ref.computed())
    lines = []
    for item in sorted(stored.keys() | computed.keys()):
        a, b = stored.get(item), computed.get(item)
        if item not in stored or item not in computed:
            lines.append(f"{'MISSING' if item in computed else 'STALE'} {name} {item}")
        elif a == b:
            lines.append(f"ok {name} {item}")
        elif isinstance(a, dict) and isinstance(b, dict):
            fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            lines.append(f"MISMATCH {name} {item}: {', '.join(fields)}")
        else:
            lines.append(f"MISMATCH {name} {item}")
    return lines


def write(name: str) -> None:
    """Rewrite ``name``'s files; an owned file computed no more is deleted."""
    ref = REGISTRY[name]
    files = ref.computed()
    for path in ref.owned():
        if path.name not in files:
            path.unlink()
    for file, data in files.items():
        target = (ROOT / ref.path).with_name(file)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        print(f"wrote {target}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", nargs="*", choices=REGISTRY, metavar="NAME",
                      help="compare entries (default: all) with a recomputation")
    mode.add_argument("--write", choices=REGISTRY, metavar="NAME", help="rewrite one entry's files")
    args = parser.parse_args(argv)
    names = [args.write] if args.write else args.check or list(REGISTRY)
    if any(REGISTRY[name].pinned for name in names):
        if "numpy" in sys.modules:  # NumPy reads the thread count when it loads
            raise RuntimeError(f"{', '.join(names)}: the BLAS pin must precede NumPy's import; "
                               "run tools/references.py in its own process")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(BLAS_THREADS)
    if args.write:
        write(args.write)
        return 0
    ok = True
    for name in names:
        lines = check(name)
        ok = ok and all(line.startswith("ok ") for line in lines)
        print("\n".join(lines), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
