"""Static memory arena: best-fit packing and the layout the DRAM model charges."""

from repro.graph import ExecutionPlan
from repro.graph.arena import (
    ARENA_ALIGNMENT,
    TensorRecord,
    graph_arena_bytes,
    graph_arena_layout,
    plan_layout,
)
from repro.staticcheck import check_arena_layout


class TestPlanLayout:
    def test_live_overlap_forces_disjoint_bytes(self):
        records = [
            TensorRecord("a", 100, 0, 2),
            TensorRecord("b", 100, 1, 3),
            TensorRecord("c", 50, 2, 4),
        ]
        layout = plan_layout(records)
        slots = list(layout.slots.values())
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                if a.first <= b.last and b.first <= a.last:
                    assert a.end <= b.offset or b.end <= a.offset

    def test_disjoint_intervals_reuse_bytes(self):
        records = [TensorRecord("a", 100, 0, 1), TensorRecord("b", 100, 2, 3)]
        layout = plan_layout(records)
        assert layout.slots["a"].offset == layout.slots["b"].offset == 0
        assert layout.total_bytes == 100
        assert layout.reuse_ratio > 1.0

    def test_offsets_cache_line_aligned(self):
        records = [
            TensorRecord("a", 130, 0, 3),
            TensorRecord("b", 70, 0, 3),
            TensorRecord("c", 60, 0, 3),
        ]
        layout = plan_layout(records)
        for s in layout.slots.values():
            assert s.offset % ARENA_ALIGNMENT == 0

    def test_best_fit_takes_smallest_adequate_gap(self):
        # layout at step >= 2 has two holes (where "a" and "c" died): 256B at
        # offset 0 and 128B at offset 448; the newcomer must take the smaller
        # adequate one, not the first gap and not the arena end
        records = [
            TensorRecord("a", 4 * ARENA_ALIGNMENT, 0, 1),
            TensorRecord("b", 3 * ARENA_ALIGNMENT, 0, 5),
            TensorRecord("c", 2 * ARENA_ALIGNMENT, 0, 1),
            TensorRecord("d", ARENA_ALIGNMENT, 0, 5),
            TensorRecord("new", ARENA_ALIGNMENT, 2, 5),
        ]
        layout = plan_layout(records)
        assert layout.slots["new"].offset == layout.slots["c"].offset != 0

    def test_deterministic_and_order_independent(self):
        records = [
            TensorRecord("a", 300, 0, 2),
            TensorRecord("b", 300, 1, 3),
            TensorRecord("c", 120, 2, 5),
            TensorRecord("d", 120, 4, 6),
        ]
        base = plan_layout(records)
        for perm in (records[::-1], records[2:] + records[:2]):
            again = plan_layout(perm)
            assert again.slots == base.slots
            assert again.arena_bytes == base.arena_bytes

    def test_one_arena_per_key(self):
        records = [
            TensorRecord("f", 64, 0, 2, key="<f4"),
            TensorRecord("q", 64, 0, 2, key="|u1"),
        ]
        layout = plan_layout(records)
        assert layout.slots["f"].offset == layout.slots["q"].offset == 0
        assert set(layout.arena_bytes) == {"<f4", "|u1"}
        assert layout.total_bytes == 128

    def test_describe_keys(self):
        layout = plan_layout([TensorRecord("a", 64, 0, 1)])
        d = layout.describe()
        assert set(d) == {
            "tensors", "arena_bytes", "peak_bytes", "naive_bytes",
            "reuse_ratio", "alignment",
        }


class TestStaticArena:
    def test_layout_excludes_outputs_and_validates(self, cls_exported):
        layout = graph_arena_layout(cls_exported)
        assert layout.slots  # conv-heavy graph: plenty of placed tensors
        for name in cls_exported.output_names:
            assert name not in layout.slots
        assert check_arena_layout(cls_exported, layout) == []

    def test_reuse_ratio_significant_on_deep_graph(self, cls_exported):
        layout = graph_arena_layout(cls_exported)
        assert layout.reuse_ratio >= 3.0

    def test_describe_includes_arena(self, toy_exported):
        exported, _ = toy_exported
        d = ExecutionPlan(exported).describe()
        assert d["arena"] == graph_arena_layout(exported).describe()
        assert "optimize" not in d

    def test_batch_scales_footprint(self, cls_exported):
        b1 = graph_arena_layout(cls_exported, batch=1)
        b4 = graph_arena_layout(cls_exported, batch=4)
        assert b1.total_bytes < b4.total_bytes
        assert b4.total_bytes <= 4 * b1.total_bytes + ARENA_ALIGNMENT * len(b1.slots)

    def test_graph_arena_bytes_consistent(self, cls_exported):
        info = graph_arena_bytes(cls_exported)
        layout = graph_arena_layout(cls_exported)
        assert info["arena_bytes"] == layout.total_bytes
        assert info["reuse_ratio"] == layout.reuse_ratio
        assert info["planned_bytes"] == info["arena_bytes"] + info["io_bytes"]
        assert info["planned_bytes"] < info["naive_bytes"]
        assert info["reuse_ratio"] > 3.0
