"""Per-layer metrics and phase shares from the spans of one traced run.

A span's self time is its duration minus the durations of its direct
children; its own RSS rise is its ``ru_maxrss`` increase minus the rises of
its children, so each rise is charged to the innermost span that caused it.
"""

from collections import defaultdict

LAYERS = ("config", "sampler", "wavefunction", "system", "estimators",
          "optimizers", "svdengine", "linalg", "checkpoint", "runner")

FUNCTIONS = (
    "config.parse_config",
    "config.build_wavefunction",
    "sampler.WalkerEnsemble.create",
    "sampler.burn_in",
    "sampler.metropolis_step",
    "wavefunction.log_abs_batch",
    "wavefunction.gradient_and_laplacian_batch",
    "wavefunction.grad_theta_batch",
    "system.local_energy_batch",
    "estimators.assemble",
    "optimizers.wssr_step",
    "optimizers.minsr_update",
    "svdengine.ssi_svd",
    "svdengine.exact_truncated_svd",
    "linalg.qr_orthonormalize",
    "linalg.spd_factorize",
    "checkpoint.write_checkpoint",
    "checkpoint.read_checkpoint",
    "runner.run",
    "runner.step",
)

LOG_ABS = "wavefunction.log_abs_batch"
STEP = "runner.step"
# The caller a log_abs_batch call serves, named by the span that made it.
LOG_ABS_VIA = {
    "sampler.metropolis_step": "sweep",
    "wavefunction.gradient_and_laplacian_batch": "stencil",
    STEP: "refresh",
}
VIAS = ("sweep", "stencil", "refresh")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    metrics = []
    for fn in FUNCTIONS:
        metrics += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"),
                    (f"{fn}.self_s", "s", "lower")]
    metrics += [(f"{LOG_ABS}.{via}.s", "s", "lower") for via in VIAS]
    metrics.append((f"{LOG_ABS}.configs", "count", "lower"))
    metrics += [(f"{LOG_ABS}.configs.{via}", "count", "lower") for via in VIAS]
    for layer in LAYERS:
        metrics += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.rss_rise_mb", "MB", "lower")]
    metrics += [
        ("sampler.acceptance", "ratio", "higher"),
        ("linalg.qr_orthonormalize.cols", "count", "lower"),
        ("linalg.qr_orthonormalize.zero_pivots", "count", "lower"),
        ("optimizers.wssr.effective_rank", "count", "lower"),
        ("optimizers.wssr.r_max", "count", "lower"),
        ("optimizers.wssr.ssi_iterations", "count", "lower"),
        ("checkpoint.write_checkpoint.bytes", "B", "lower"),
        ("tracing_overhead", "ratio", "lower"),
    ]
    return metrics


class SpanTree:
    """Spans of one run indexed by id, with each span's self time and rise."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: s["id"])
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)

    @staticmethod
    def duration(span):
        return span["end"] - span["start"]

    def self_s(self, span):
        return self.duration(span) - sum(self.duration(c) for c in self.children[span["id"]])

    def own_rise_kb(self, span):
        rise = span["rss1_kb"] - span["rss0_kb"]
        return rise - sum(c["rss1_kb"] - c["rss0_kb"] for c in self.children[span["id"]])

    def via(self, span):
        parent = self.by_id.get(span["parent"])
        return LOG_ABS_VIA.get(parent["name"]) if parent else None

    def component(self, span):
        """Layer name, with log_abs_batch split by the caller it serves."""
        if span["name"] == LOG_ABS:
            return f"{LOG_ABS}.{self.via(span) or 'other'}"
        return span["name"].split(".", 1)[0]

    def descendants(self, span):
        stack = [span]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children[node["id"]])

    def steps(self):
        return [s for s in self.spans if s["name"] == STEP]


def aggregate(spans):
    """Every per-layer metric except the ones taken from the trace file."""
    tree = SpanTree(spans)
    values = {name: 0 for name, _, _ in per_layer_metrics()}
    accepted = proposed = 0
    for span in tree.spans:
        name = span["name"]
        layer = name.split(".", 1)[0]
        duration = tree.duration(span)
        own = tree.self_s(span)
        values[f"{name}.calls"] += 1
        values[f"{name}.s"] += duration
        values[f"{name}.self_s"] += own
        values[f"{layer}.self_s"] += own
        values[f"{layer}.rss_rise_mb"] += tree.own_rise_kb(span) / 1024.0
        if name == LOG_ABS:
            values[f"{LOG_ABS}.configs"] += span["configs"]
            via = tree.via(span)
            if via:
                values[f"{LOG_ABS}.{via}.s"] += duration
                values[f"{LOG_ABS}.configs.{via}"] += span["configs"]
        elif name == "sampler.metropolis_step":
            accepted += span["accepted"]
            proposed += span["proposed"]
        elif name == "linalg.qr_orthonormalize":
            values["linalg.qr_orthonormalize.cols"] += span["cols"]
            values["linalg.qr_orthonormalize.zero_pivots"] += span["zero_pivots"]
        elif name == "checkpoint.write_checkpoint":
            values["checkpoint.write_checkpoint.bytes"] += span["bytes"]
    values["sampler.acceptance"] = accepted / proposed if proposed else 0.0
    return values


def phase_shares(spans):
    """Self-time share of each component in step 1 and in steps >= 2."""
    tree = SpanTree(spans)
    phases = {"first_step": defaultdict(float), "step": defaultdict(float)}
    totals = {"first_step": 0.0, "step": 0.0}
    for step in tree.steps():
        phase = "first_step" if step.get("step") == 1 else "step"
        totals[phase] += tree.duration(step)
        for span in tree.descendants(step):
            phases[phase][tree.component(span)] += tree.self_s(span)
    return {
        phase: {k: v / totals[phase] for k, v in sorted(shares.items())}
        for phase, shares in phases.items() if totals[phase] > 0.0
    }


def check_prediction(prediction, shares):
    """Whether the traced shares bear out one workload prediction."""
    phase = shares.get(prediction.phase, {})

    def in_group(component):
        return any(component == g or component.startswith(g + ".") for g in prediction.group)

    share = sum(v for k, v in phase.items() if in_group(k))
    rivals = {k: v for k, v in phase.items() if not in_group(k)}
    top_rival = max(rivals, key=rivals.get) if rivals else None
    if prediction.kind == "largest":
        holds = top_rival is None or share > rivals[top_rival]
    else:
        holds = share > 0.5
    return {
        "prediction": prediction.text,
        "share": share,
        "largest_other": top_rival,
        "largest_other_share": rivals.get(top_rival, 0.0),
        "holds": holds,
    }
