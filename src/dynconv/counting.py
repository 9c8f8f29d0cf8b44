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
    min(L²·C_in, C_out·L²), for matrix forms (per diagonal block for
    the block-sparse form); L_k²·k² + C·L_k·k² for depthwise; and the
    three-step mode-product chain for the full k×k tensor form;
  - the channel scale Λ at min(C_in·C_out·k², H'·W'·C_out) — fold it
    into whichever of kernel or output is cheaper;
  - except at 1×1 spatial resolution (classifier head), where the
    dynamic product is counted by associativity as P·(Φ·(Qᵀx)):
    C_in·L + L² + L·C_out, since materializing W(x) is pointless there.
* MAdds are reported per sample at a declared input resolution.

Parameter counts are pure introspection: the number of learnable scalars
the layer actually allocates, bucketed into categories (static kernel,
projections, dynamic branch, batch norm, classifier).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .layers import DcdConv, StaticConv, VanillaDynConv

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
        lines = ["layer,kind,params,madds"]
        for r in self.rows:
            lines.append(f"{r.name},{r.kind},{r.params},{r.madds}")
        lines.append(f"TOTAL,,{self.total_params},{self.total_madds}")
        return lines

    def table_lines(self) -> list[str]:
        width = max([len(r.name) for r in self.rows] + [5])
        lines = [f"{'layer':<{width}}  {'kind':<18} {'params':>12} {'madds':>14}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.kind:<18} {r.params:>12} {r.madds:>14}")
        lines.append(f"{'TOTAL':<{width}}  {'':<18} {self.total_params:>12} {self.total_madds:>14}")
        cats = self.category_totals()
        lines.append("categories: " + ", ".join(f"{k}={v}" for k, v in cats.items() if v))
        return lines


# ---------------------------------------------------------------------------
# per-layer counting


def _bucket_params(layer, is_classifier: bool) -> tuple[int, dict[str, int]]:
    cats = {c: 0 for c in CATEGORIES}
    if isinstance(layer, StaticConv):
        cats["static_kernel"] += layer.weight.value.size
        if layer.bias is not None:
            cats["static_kernel"] += layer.bias.value.size
        if layer.bn is not None:
            cats["batch_norm"] += sum(p.value.size for p in layer.bn.parameters())
    elif isinstance(layer, DcdConv):
        cats["static_kernel"] += layer.w0.value.size
        if layer.bias is not None:
            cats["static_kernel"] += layer.bias.value.size
        for p in (layer.p, layer.q, layer.r_mat):
            if p is not None:
                cats["projections"] += p.value.size
        cats["dynamic_branch"] += sum(p.value.size for p in layer.branch.parameters())
        if layer.bn is not None:
            cats["batch_norm"] += sum(p.value.size for p in layer.bn.parameters())
    elif isinstance(layer, VanillaDynConv):
        cats["static_kernel"] += layer.kernels.value.size
        cats["dynamic_branch"] += sum(p.value.size for p in (layer.w1, layer.b1, layer.w2, layer.b2))
        if layer.bn is not None:
            cats["batch_norm"] += sum(p.value.size for p in layer.bn.parameters())
    else:
        raise TypeError(f"cannot count layer of type {type(layer).__name__}")
    total = sum(cats.values())
    assert total == sum(p.value.size for p in layer.parameters()), "category split must cover every scalar"
    if is_classifier:
        cats = {c: 0 for c in CATEGORIES} | {"classifier": total}
    return total, {k: v for k, v in cats.items() if v}


def _branch_madds(layer: DcdConv) -> int:
    return layer.c_in + layer.c_in * layer.branch.squeeze + layer.branch.squeeze * layer.branch.d_out


def _assembly_madds(layer: DcdConv) -> int:
    l, l_k = layer.dims.l, layer.dims.l_k
    kk = layer.k * layer.k
    if layer.variant == "block_sparse":
        cb = layer.c_in // layer.blocks
        return layer.blocks * (l * l * cb + cb * l * cb)
    if layer.variant in ("pointwise", "channel_only_kxk"):
        return min(l * l * layer.c_in, layer.c_out * l * l) + layer.c_out * l * layer.c_in
    if layer.variant == "depthwise":
        return l_k * l_k * kk + layer.c_in * l_k * kk
    # full k×k tensor: ×₁Q then ×₂P then ×₃R
    return layer.c_in * l * l * l_k + layer.c_out * layer.c_in * l * l_k + layer.c_in * layer.c_out * l_k * kk


def _lambda_madds(layer: DcdConv, h_out: int, w_out: int) -> int:
    if not layer.lambda_enabled:
        return 0
    kernel_side = layer.c_out * (layer.c_in // layer.groups) * layer.k * layer.k
    output_side = h_out * w_out * layer.c_out
    return min(kernel_side, output_side)


def layer_madds(layer, h_in: int) -> tuple[int, int]:
    """(madds, h_out) for one layer at spatial size h_in (square maps)."""
    if not isinstance(layer, (StaticConv, DcdConv, VanillaDynConv)):
        raise TypeError(f"cannot count layer of type {type(layer).__name__}")
    h_out = layer.out_size(h_in)
    conv = layer.c_out * (layer.c_in // layer.groups) * layer.k * layer.k * h_out * h_out
    if isinstance(layer, StaticConv):
        return conv, h_out
    if isinstance(layer, VanillaDynConv):
        hidden = layer.w1.value.shape[1]
        branch = layer.c_in + layer.c_in * hidden + hidden * layer.k_kernels
        mixing = layer.k_kernels * layer.c_out * layer.c_in
        return conv + branch + mixing, h_out
    # DcdConv
    if h_in == 1 and layer.k == 1:
        # classifier-style head: apply the factors to the vector directly
        l = layer.dims.l
        dynamic = layer.c_in * l + l * l + l * layer.c_out
        lam = layer.c_out if layer.lambda_enabled else 0
        return conv + _branch_madds(layer) + dynamic + lam, h_out
    return conv + _branch_madds(layer) + _assembly_madds(layer) + _lambda_madds(layer, h_out, h_out), h_out


def count_model(graph, resolution: int | None = None) -> CountReport:
    """Walk a model graph; params always, madds when a resolution is given."""
    from .models import GlobalPool, MaxPool2d

    report = CountReport(resolution=resolution)
    for layer, role, h_in, h_out in graph.iter_layers(resolution):
        if isinstance(layer, GlobalPool):
            madds = layer.channels if resolution is not None else 0
            report.rows.append(LayerCount(name=role, kind="global_pool", params=0, madds=madds, categories={}))
            continue
        if isinstance(layer, MaxPool2d):
            report.rows.append(LayerCount(name=role, kind="max_pool", params=0, madds=0, categories={}))
            continue
        params, cats = _bucket_params(layer, role == "classifier")
        madds = 0
        if resolution is not None:
            madds, _ = layer_madds(layer, h_in)
        report.rows.append(
            LayerCount(name=layer.name, kind=f"{type(layer).__name__}/{getattr(layer, 'variant', role)}",
                       params=params, madds=madds, categories=cats)
        )
    return report


def count_params(graph) -> CountReport:
    return count_model(graph, None)
