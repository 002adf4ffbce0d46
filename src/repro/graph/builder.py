"""Fluent graph builder with deterministic weight initialization.

The five reference models are assembled through this builder. With
``materialize=False`` the builder produces a *symbolic* graph (shapes and
costs only), which is how the zoo describes the full-size paper models
without allocating hundreds of MB of weights.
"""

from __future__ import annotations

import numpy as np

from ..kernels.numerics import Numerics
from . import ops as O
from .graph import Graph
from .tensor import TensorSpec

__all__ = ["GraphBuilder"]


class GraphBuilder:
    def __init__(
        self,
        name: str,
        seed: int = 0,
        materialize: bool = True,
        init_style: str = "he",
    ):
        if init_style not in ("he", "isometric"):
            raise ValueError("init_style must be 'he' or 'isometric'")
        self.graph = Graph(name)
        self.rng = np.random.default_rng(seed)
        self.materialize = materialize
        self.init_style = init_style
        self._counter: dict[str, int] = {}

    # -- naming / params ---------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        n = self._counter.get(prefix, 0)
        self._counter[prefix] = n + 1
        return f"{prefix}_{n}"

    def _weight(self, name: str, shape: tuple[int, ...], fan_in: int) -> str:
        if self.materialize:
            self.graph.add_param(name, self._init_weight(shape, fan_in))
        else:
            self.graph.add_param(name, None, shape)
        return name

    def _init_weight(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        """Delta-orthogonal-style initialization (Xiao et al., 2018).

        Convolutions get a (partial) isometry at the center tap plus small
        noise on the remaining taps; dense weights get a scaled partial
        isometry. Near-isometric mixing preserves input geometry through
        depth — the property trained networks have and pure He-Gaussian
        random networks lose exponentially (chaotic regime).
        """
        he_std = np.sqrt(2.0 / max(fan_in, 1))
        if self.init_style == "he":
            return self.rng.normal(0.0, he_std, size=shape).astype(np.float32)
        if len(shape) == 4 and shape[3] != 1:  # full conv (kh, kw, cin, cout)
            kh, kw, cin, cout = shape
            w = self.rng.normal(0.0, 0.35 * he_std, size=shape).astype(np.float32)
            w[kh // 2, kw // 2] += self._partial_isometry(cin, cout) * 1.2
            return w
        if len(shape) == 4:  # depthwise (kh, kw, c, 1): identity tap + noise
            kh, kw, c, _ = shape
            w = self.rng.normal(0.0, 0.35 * np.sqrt(2.0 / (kh * kw)), size=shape).astype(np.float32)
            w[kh // 2, kw // 2, :, 0] += 1.0
            return w
        if len(shape) == 2:  # dense (in, out)
            return (self._partial_isometry(*shape) * 1.1
                    + self.rng.normal(0.0, 0.25 * he_std, size=shape).astype(np.float32))
        return self.rng.normal(0.0, he_std, size=shape).astype(np.float32)

    def _partial_isometry(self, rows: int, cols: int) -> np.ndarray:
        """Random matrix with orthonormal columns (or rows when cols > rows)."""
        a = self.rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
        q, _ = np.linalg.qr(a)
        iso = q[:rows, :] if rows >= cols else q[:cols, :].T
        scale = np.sqrt(max(1.0, cols / rows))  # preserve forward signal energy
        return (iso * scale).astype(np.float32)

    def _bias(self, name: str, size: int) -> str:
        if self.materialize:
            self.graph.add_param(name, self.rng.normal(0.0, 0.05, size=size).astype(np.float32))
        else:
            self.graph.add_param(name, None, (size,))
        return name

    # -- graph io ----------------------------------------------------------
    def input(
        self,
        name: str,
        shape: tuple[int, ...],
        numerics: Numerics = Numerics.FP32,
        role: str = "data",
    ) -> str:
        self.graph.add_input(TensorSpec(name, shape, numerics, role=role))
        return name

    def outputs(self, *names: str) -> None:
        self.graph.set_outputs(names)

    def build(self) -> Graph:
        self.graph.validate()
        return self.graph

    # -- layers ------------------------------------------------------------
    def conv(
        self,
        x: str,
        c_out: int,
        k: int = 3,
        stride: int = 1,
        padding: str = "same",
        activation: str | None = None,
        use_bn: bool = False,
        dilation: int = 1,
        gamma_scale: float = 1.0,
        name: str | None = None,
    ) -> str:
        name = name or self._fresh("conv")
        c_in = self.graph.spec(x).shape[-1]
        w = self._weight(f"{name}/w", (k, k, c_in, c_out), k * k * c_in)
        bias = None if use_bn else self._bias(f"{name}/b", c_out)
        out = f"{name}/out"
        self.graph.add_op(
            O.Conv2D(
                name, [x], [out],
                weight=w, bias=bias, stride=stride, padding=padding, dilation=dilation,
                activation=None if use_bn else activation,
            )
        )
        if use_bn:
            out = self._batch_norm(out, c_out, f"{name}/bn", gamma_scale)
            if activation:
                out = self.activation(out, activation, name=f"{name}/act")
        return out

    def dwconv(
        self,
        x: str,
        k: int = 3,
        stride: int = 1,
        padding: str = "same",
        activation: str | None = None,
        use_bn: bool = False,
        name: str | None = None,
    ) -> str:
        name = name or self._fresh("dwconv")
        c = self.graph.spec(x).shape[-1]
        w = self._weight(f"{name}/w", (k, k, c, 1), k * k)
        bias = None if use_bn else self._bias(f"{name}/b", c)
        out = f"{name}/out"
        self.graph.add_op(
            O.DepthwiseConv2D(
                name, [x], [out],
                weight=w, bias=bias, stride=stride, padding=padding,
                activation=None if use_bn else activation,
            )
        )
        if use_bn:
            out = self._batch_norm(out, c, f"{name}/bn")
            if activation:
                out = self.activation(out, activation, name=f"{name}/act")
        return out

    def _batch_norm(self, x: str, channels: int, name: str, gamma_scale: float = 1.0) -> str:
        """``gamma_scale`` < 1 attenuates this branch (SkipInit-style); used on
        residual projection layers so identity paths dominate signal flow."""
        g = self.graph
        if self.materialize:
            g.add_param(f"{name}/mean", self.rng.normal(0.0, 0.1, channels).astype(np.float32))
            g.add_param(
                f"{name}/var", (1.0 + self.rng.uniform(-0.2, 0.2, channels)).astype(np.float32)
            )
            g.add_param(
                f"{name}/gamma",
                (gamma_scale * (1.0 + self.rng.normal(0, 0.05, channels))).astype(np.float32),
            )
            g.add_param(f"{name}/beta", self.rng.normal(0.0, 0.05, channels).astype(np.float32))
        else:
            for suffix in ("mean", "var", "gamma", "beta"):
                g.add_param(f"{name}/{suffix}", None, (channels,))
        out = f"{name}/out"
        g.add_op(
            O.BatchNorm(
                name, [x], [out],
                mean=f"{name}/mean", variance=f"{name}/var",
                gamma=f"{name}/gamma", beta=f"{name}/beta",
            )
        )
        return out

    def fc(
        self, x: str, units: int, activation: str | None = None, name: str | None = None
    ) -> str:
        name = name or self._fresh("fc")
        f_in = self.graph.spec(x).shape[-1]
        w = self._weight(f"{name}/w", (f_in, units), f_in)
        b = self._bias(f"{name}/b", units)
        out = f"{name}/out"
        self.graph.add_op(
            O.FullyConnected(name, [x], [out], weight=w, bias=b, activation=activation)
        )
        return out

    def activation(self, x: str, kind: str, name: str | None = None) -> str:
        name = name or self._fresh(f"act_{kind}")
        out = f"{name}/out"
        self.graph.add_op(O.Activation(name, [x], [out], kind=kind))
        return out

    def add(self, a: str, b: str, activation: str | None = None, name: str | None = None) -> str:
        name = name or self._fresh("add")
        out = f"{name}/out"
        self.graph.add_op(O.Add(name, [a, b], [out], activation=activation))
        return out

    def concat(self, xs: list[str], axis: int = -1, name: str | None = None) -> str:
        name = name or self._fresh("concat")
        out = f"{name}/out"
        self.graph.add_op(O.Concat(name, xs, [out], axis=axis))
        return out

    def global_pool(self, x: str, keepdims: bool = True) -> str:
        name = self._fresh("gap")
        out = f"{name}/out"
        self.graph.add_op(O.GlobalAvgPool(name, [x], [out], keepdims=keepdims))
        return out

    def resize(self, x: str, out_h: int, out_w: int, align_corners: bool = False) -> str:
        name = self._fresh("resize")
        out = f"{name}/out"
        self.graph.add_op(
            O.ResizeBilinear(name, [x], [out], out_h=out_h, out_w=out_w, align_corners=align_corners)
        )
        return out

    def reshape(self, x: str, shape: tuple[int, ...], name: str | None = None) -> str:
        name = name or self._fresh("reshape")
        out = f"{name}/out"
        self.graph.add_op(O.Reshape(name, [x], [out], shape=tuple(shape)))
        return out

    def softmax(self, x: str, axis: int = -1, name: str | None = None) -> str:
        name = name or self._fresh("softmax")
        out = f"{name}/out"
        self.graph.add_op(O.Softmax(name, [x], [out], axis=axis))
        return out

    def layer_norm(self, x: str, name: str | None = None) -> str:
        name = name or self._fresh("ln")
        d = self.graph.spec(x).shape[-1]
        if self.materialize:
            self.graph.add_param(f"{name}/gamma", np.ones(d, dtype=np.float32))
            self.graph.add_param(f"{name}/beta", np.zeros(d, dtype=np.float32))
        else:
            self.graph.add_param(f"{name}/gamma", None, (d,))
            self.graph.add_param(f"{name}/beta", None, (d,))
        out = f"{name}/out"
        self.graph.add_op(O.LayerNorm(name, [x], [out], gamma=f"{name}/gamma", beta=f"{name}/beta"))
        return out

    def attention(self, q: str, k: str, v: str, num_heads: int, mask: str | None = None,
                  name: str | None = None) -> str:
        name = name or self._fresh("attn")
        out = f"{name}/out"
        inputs = [q, k, v] + ([mask] if mask else [])
        self.graph.add_op(O.MultiHeadAttention(name, inputs, [out], num_heads=num_heads))
        return out

    def embedding(self, ids: str, vocab: int, dim: int, max_positions: int | None = None,
                  name: str | None = None) -> str:
        name = name or self._fresh("embed")
        if self.materialize:
            self.graph.add_param(
                f"{name}/table", self.rng.normal(0, 0.5, (vocab, dim)).astype(np.float32)
            )
        else:
            self.graph.add_param(f"{name}/table", None, (vocab, dim))
        pos = None
        if max_positions:
            pos = f"{name}/pos"
            if self.materialize:
                self.graph.add_param(
                    pos, self.rng.normal(0, 0.2, (max_positions, dim)).astype(np.float32)
                )
            else:
                self.graph.add_param(pos, None, (max_positions, dim))
        out = f"{name}/out"
        self.graph.add_op(
            O.Embedding(name, [ids], [out], table=f"{name}/table", position_table=pos)
        )
        return out

    def lstm(self, x: str, hidden: int, name: str | None = None) -> str:
        name = name or self._fresh("lstm")
        f_in = self.graph.spec(x).shape[-1]
        self._weight(f"{name}/w_ih", (f_in, 4 * hidden), f_in)
        self._weight(f"{name}/w_hh", (hidden, 4 * hidden), hidden)
        if self.materialize:
            bias = np.zeros(4 * hidden, dtype=np.float32)
            bias[hidden : 2 * hidden] = 1.0  # forget-gate bias init
            self.graph.add_param(f"{name}/b", bias)
        else:
            self.graph.add_param(f"{name}/b", None, (4 * hidden,))
        out = f"{name}/out"
        self.graph.add_op(
            O.LSTM(name, [x], [out], w_ih=f"{name}/w_ih", w_hh=f"{name}/w_hh",
                   bias=f"{name}/b")
        )
        return out

    def depth_to_space(self, x: str, block: int, name: str | None = None) -> str:
        name = name or self._fresh("d2s")
        out = f"{name}/out"
        self.graph.add_op(O.DepthToSpace(name, [x], [out], block=block))
        return out

    def split(self, x: str, parts: int, name: str | None = None) -> list[str]:
        name = name or self._fresh("split")
        outs = [f"{name}/out_{i}" for i in range(parts)]
        self.graph.add_op(O.Split(name, [x], outs, parts=parts))
        return outs
