"""Parameter and multiply-add accounting for layers and whole models.

Counting conventions (declared here once; every number in reports follows
them):

* One multiply-accumulate = 1 MAdd.  Batch norm, activations, elementwise
  skip-additions, and max pooling count 0; average pooling over C
  channels counts C.
* A convolution costs C_out · (C_in / groups) · k² · H' · W'.
* Dynamic layers add, per sample:
  - the branch FCs (C_in·s and s·d_out) plus the pooling read (C_in);
  - kernel assembly for the low-rank residual: the large product
    C_out·L·C_in plus the cheaper association order for the small one,
    min(L²·C_in, C_out·L²), for the four matrix forms (per diagonal block
    for the block-sparse form; for depthwise, P·Φ·Rᵀ with L = L_k,
    C_in = k² and C_out = C); and the three-step mode-product chain for
    the full k×k tensor form;
  - the channel scale Λ at min(C_in·C_out·k², H'·W'·C_out) — fold it
    into whichever of kernel or output is cheaper;
  - except for a 1×1 kernel on a 1×1 input (classifier head), where the
    dynamic product is counted by associativity as P·(Φ·(Qᵀx)):
    C_in·L + B·L² + L·C_out (B = 1 outside block_sparse) plus Λ on the
    C_out outputs, since materializing W(x) is pointless there;
  - for vanilla attention, the kernel mixing K·C_out·C_in.
* MAdds are reported per sample at an input resolution, by default the
  model's own.

Those are the paper's conventions, the ``madds`` column.  The
``executed_madds`` column counts the plan `DcdConv._conv` runs, as
`dynconv.layers.plan_madds` counts it and `dynconv.layers.materialises`
picks it: the same conv and branch, then either the kernel assembly with Λ
on the kernel (depthwise, and pointwise where that is cheaper) or the
factored chain of convs with Λ on the output (the other DCD layers).  It
charges each conv only the kernel taps `tensor.conv2d` multiplies
(`tensor.conv_taps`): where the conv's one output position reads fewer
real pixels than it has taps, the live window's taps (one for one real
pixel); those that can read a real pixel in the depthwise tap sum; all k²
otherwise.  One function, `_madds`, gives both columns.

Parameter counts are pure introspection: the number of learnable scalars
the layer actually allocates, bucketed into categories (static kernel,
projections, dynamic branch, batch norm, classifier).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor as T
from .layers import DcdConv, StaticConv, VanillaDynConv, _assembly_madds, materialises, plan_madds

CATEGORIES = ("static_kernel", "projections", "dynamic_branch", "batch_norm", "classifier")


def dcd_complexity_formula(c: int, l: int, r: int) -> int:
    """Closed-form learnable-scalar count of a square pointwise dynamic
    layer: C² + 2CL + (2C + L²)·⌊C/r⌋ (biases and batch norm excluded)."""
    return c * c + 2 * c * l + (2 * c + l * l) * (c // r)


@dataclass
class LayerCount:
    name: str
    kind: str
    params: int
    madds: int
    executed_madds: int
    categories: dict[str, int] = field(default_factory=dict)


@dataclass
class CountReport:
    rows: list[LayerCount] = field(default_factory=list)
    resolution: int | None = None

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_madds(self) -> int:
        return sum(r.madds for r in self.rows)

    @property
    def total_executed_madds(self) -> int:
        return sum(r.executed_madds for r in self.rows)

    def category_totals(self) -> dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for row in self.rows:
            for cat, n in row.categories.items():
                out[cat] += n
        return out

    def params_excluding_classifier(self) -> int:
        return self.total_params - self.category_totals()["classifier"]

    def madds_excluding_classifier(self) -> int:
        return self.total_madds - sum(r.madds for r in self.rows if "classifier" in r.categories)

    def csv_lines(self) -> list[str]:
        lines = ["layer,kind,params,madds,executed_madds"]
        for r in self.rows:
            lines.append(f"{r.name},{r.kind},{r.params},{r.madds},{r.executed_madds}")
        lines.append(f"TOTAL,,{self.total_params},{self.total_madds},{self.total_executed_madds}")
        return lines

    def table_lines(self) -> list[str]:
        width = max([len(r.name) for r in self.rows] + [5])
        lines = [f"{'layer':<{width}}  {'kind':<18} {'params':>12} {'madds':>14} {'executed_madds':>14}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.kind:<18} {r.params:>12} {r.madds:>14} {r.executed_madds:>14}")
        lines.append(f"{'TOTAL':<{width}}  {'':<18} {self.total_params:>12} {self.total_madds:>14} "
                     f"{self.total_executed_madds:>14}")
        cats = self.category_totals()
        lines.append("categories: " + ", ".join(f"{k}={v}" for k, v in cats.items() if v))
        return lines


# ---------------------------------------------------------------------------
# per-layer counting


def _bucket_params(layer, is_classifier: bool) -> tuple[int, dict[str, int]]:
    def size(*params) -> int:
        return sum(p.value.size for p in params if p is not None)

    cats = {c: 0 for c in CATEGORIES}
    if isinstance(layer, StaticConv):
        cats["static_kernel"] = size(layer.weight, layer.bias)
    elif isinstance(layer, DcdConv):
        cats["static_kernel"] = size(layer.w0, layer.bias)
        cats["projections"] = size(layer.p, layer.q, layer.r_mat)
    elif isinstance(layer, VanillaDynConv):
        cats["static_kernel"] = size(layer.kernels)
    else:
        raise TypeError(f"cannot count layer of type {type(layer).__name__}")
    if not isinstance(layer, StaticConv):
        cats["dynamic_branch"] = size(*layer.branch.parameters())
    if layer.bn is not None:
        cats["batch_norm"] = size(*layer.bn.parameters())
    total = sum(cats.values())
    assert total == sum(p.value.size for p in layer.parameters()), "category split must cover every scalar"
    if is_classifier:
        cats = {c: 0 for c in CATEGORIES} | {"classifier": total}
    return total, {k: v for k, v in cats.items() if v}


def _madds(layer, h_in: int) -> tuple[int, int, int]:
    """(paper, executed, h_out): MAdds per sample on an h_in×h_in input.
    The paper charges the conv all k² taps, the executed count the taps
    `tensor.conv_taps` says it runs.  A DCD layer adds to its conv and
    branch the plan `materialises` picks (executed) and, for the paper, the
    factored chain at a 1×1 head or else the assembly with Λ on whichever
    of kernel or output is cheaper."""
    if not isinstance(layer, (StaticConv, DcdConv, VanillaDynConv)):
        raise TypeError(f"cannot count layer of type {type(layer).__name__}")
    h_out = layer.out_size(h_in)
    c_in_g = layer.c_in // layer.groups
    conv = layer.c_out * c_in_g * h_out * h_out
    base = conv * layer.k * layer.k
    run = conv * T.conv_taps(h_in, h_in, layer.c_out, c_in_g, layer.groups, layer.k, layer.stride, layer.padding)
    if isinstance(layer, StaticConv):
        return base, run, h_out
    extra = layer.c_in + layer.c_in * layer.branch.squeeze + layer.branch.squeeze * layer.branch.d_out
    if isinstance(layer, VanillaDynConv):
        extra += layer.k_kernels * layer.c_out * layer.c_in
        return base + extra, run + extra, h_out
    factored, materialised = plan_madds(layer, h_in, h_in)
    executed = materialised if materialises(layer, h_in, h_in) else factored
    lam_on_output = h_out * h_out * layer.c_out if layer.lambda_enabled else 0
    paper = factored if h_in == 1 and layer.k == 1 else min(materialised, _assembly_madds(layer) + lam_on_output)
    return base + extra + paper, run + extra + executed, h_out


def layer_madds(layer, h_in: int) -> tuple[int, int]:
    """(madds, h_out) for one layer at spatial size h_in (square maps)."""
    madds, _, h_out = _madds(layer, h_in)
    return madds, h_out


def executed_madds(layer, h_in: int) -> int:
    """MAdds per sample of what the forward runs on an h_in×h_in input."""
    return _madds(layer, h_in)[1]


def count_model(graph, resolution: int | None = None) -> CountReport:
    """Params and MAdds of every layer at `resolution`, by default the graph's own."""
    from .models import GlobalPool, MaxPool2d

    resolution = graph.resolution if resolution is None else resolution
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    report = CountReport(resolution=resolution)
    for layer, role, h_in, _ in graph.iter_layers(resolution):
        if isinstance(layer, GlobalPool):
            report.rows.append(LayerCount(role, "global_pool", 0, layer.channels, layer.channels))
        elif isinstance(layer, MaxPool2d):
            report.rows.append(LayerCount(role, "max_pool", 0, 0, 0))
        else:
            params, cats = _bucket_params(layer, role == "classifier")
            madds, executed, _ = _madds(layer, h_in)
            report.rows.append(LayerCount(layer.name, f"{type(layer).__name__}/{getattr(layer, 'variant', role)}",
                                          params, madds, executed, cats))
    return report
