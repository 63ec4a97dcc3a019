"""Shared instrumentation for driver runs.

run_audited wraps list_decode_mean with the trace observer and an observer
that re-verifies, at every processed branch: certificate soundness, both
split conditions from the raw weights, pointwise weight monotonicity,
progress (a positive weight zeroed per child), the depth bound, the
frontier potential, and that every branch carries one positive weight per
row of its support. Branches are support-local; the audit scatters their
weights to full length. Violations are collected as strings so a test can
assert the list is empty. Given an inlier mask that passes the library's
goodness check, an empty list raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ldme import (
    RunConfig,
    TraceRecorder,
    WeightFn,
    alpha_good,
    list_decode_mean,
    preprocess_rescale,
)
from ldme.multifilter import EIGEN_SLACK
from oracles import weighted_variance_along

REL = 1e-9


@dataclass
class RunAudit:
    violations: list[str] = field(default_factory=list)
    certified: int = 0
    reweighted: int = 0
    splits: int = 0
    pruned: int = 0
    max_depth: int = 0
    max_potential: float = 0.0


def report_bytes(report) -> bytes:
    """A Report as indented, key-sorted JSON without its wall time: the
    bytes two runs of one config share."""
    out = report.to_dict()
    del out["wall_time_s"]
    return json.dumps(out, indent=2, sort_keys=True).encode()


def eigenvalue_bound(alpha: float, big_c: float) -> float:
    """The eigenvalue at or below which basic_multifilter certifies before
    it projects: (1 - alpha/4) * EIGEN_SLACK * big_c * lg(2/alpha)^2, in
    the pass's own order of operations, so the same bits."""
    lg = np.log2(2.0 / alpha)
    return (1.0 - alpha / 4.0) * EIGEN_SLACK * (big_c * lg * lg)


def scatter(weights, rows, n: int) -> np.ndarray:
    """Support-local weights as a length-n array, zero off the given rows
    (an index array or a slice)."""
    full = np.zeros(n)
    full[rows] = weights.weights
    return full


def run_audited(points, cfg: RunConfig, inlier_mask=None):
    """Run list_decode_mean under a full invariant audit; returns the
    hypotheses, the trace events (with inlier masses when a mask is given)
    and the audit."""
    audit = RunAudit()
    trace = TraceRecorder(points, inlier_mask)
    ps = preprocess_rescale(np.asarray(points, dtype=float), cfg)
    n = ps.n
    lg = math.log2(2.0 / cfg.alpha)
    cert_gate = 2.0 * cfg.big_c * lg * lg
    loss_need = 48.0 * lg

    live: dict[int, float] = {0: float(n)}
    done_sq = 0.0

    def observer(step) -> None:
        trace(step)
        branch = step.branch
        res = step.result
        w = WeightFn(scatter(branch.weights, branch.rows, n))
        v = res.eigenpair.direction
        audit.max_depth = max(audit.max_depth, branch.depth)
        if branch.depth > n:
            audit.violations.append(f"depth {branch.depth} exceeds n={n}")
        for b in (branch,) + res.children + res.pruned:
            size = len(np.arange(n)[b.rows])
            if len(b.weights) != size or not (b.weights.weights > 0.0).all():
                audit.violations.append("branch weights are not positive on its rows")

        nonlocal done_sq
        live.pop(step.branch_id, None)

        if res.outcome.tag == "certified":
            audit.certified += 1
            full_var = weighted_variance_along(ps, w, v)
            if not full_var <= cert_gate:
                audit.violations.append(
                    f"certificate violated: var {full_var} > {cert_gate}"
                )
            done_sq += w.total**2
        else:
            for child in res.children + res.pruned:
                cw = scatter(child.weights, child.rows, n)
                if (cw > w.weights + 1e-15).any():
                    audit.violations.append("child weight exceeds parent weight")
                if ((cw < 0.0) | (cw > 1.0)).any():
                    audit.violations.append("child weight outside [0, 1]")
                newly_zero = ((w.weights > 0.0) & (cw == 0.0)).sum()
                if newly_zero < 1:
                    audit.violations.append(
                        f"{res.outcome.tag} child zeroed no positive weight"
                    )
            if res.outcome.tag == "reweighted":
                audit.reweighted += 1
            elif res.outcome.tag == "split":
                audit.splits += 1
                sp = res.outcome.split_params
                right, left = res.outcome.children
                w1, w2 = right.total, left.total
                if not w1 * w1 + w2 * w2 <= w.total**2 * (1.0 + REL):
                    audit.violations.append(
                        f"squared-mass condition violated: {w1}^2+{w2}^2 > {w.total}^2"
                    )
                need = loss_need / (sp.R * sp.R)
                loss = min(1.0 - w1 / w.total, 1.0 - w2 / w.total)
                if not loss >= need * (1.0 - REL):
                    audit.violations.append(
                        f"loss condition violated: {loss} < {need}"
                    )
                if not (w1 < w.total and w2 < w.total):
                    audit.violations.append("split child did not lose mass")
            audit.pruned += len(res.pruned)
            for cid, child in zip(step.child_ids, res.children):
                live[cid] = child.weights.total

        potential = done_sq + sum(t * t for t in live.values())
        audit.max_potential = max(audit.max_potential, potential)
        if not potential <= n * n * (1.0 + REL):
            audit.violations.append(
                f"frontier potential {potential} exceeds n^2 = {n * n}"
            )

    hyps, _ = list_decode_mean(points, cfg, observer=observer)
    if inlier_mask is not None and len(hyps) == 0 and alpha_good(points, inlier_mask, cfg):
        raise RuntimeError("no hypothesis produced on a verified good input")
    return hyps, trace.events, audit


def children_of(trace):
    """Map parent branch id -> list of non-certified child events."""
    by_parent: dict[int, list] = {}
    for ev in trace:
        if ev.tag != "certified":
            by_parent.setdefault(ev.parent_id, []).append(ev)
    return by_parent


def certified_ids(trace):
    return {ev.branch_id: ev for ev in trace if ev.tag == "certified"}


def nice_path_exists(trace, s_size: int, alpha: float) -> bool:
    """Is there a root-to-certified path with inlier mass >= 3|S|/4 at every
    node along which each step keeps the inlier loss a 24*lg(2/alpha) factor
    below the total loss?"""
    lg24 = 24.0 * math.log2(2.0 / alpha)
    floor = 0.75 * s_size
    kids = children_of(trace)
    certs = certified_ids(trace)

    def nice_edge(ev) -> bool:
        ds = ev.wS_before - ev.wS_after
        dt = ev.wT_before - ev.wT_after
        lhs = ds * ev.wT_before * lg24
        rhs = dt * ev.wS_before
        return lhs <= rhs * (1.0 + 1e-9) + 1e-12

    def walk(node_id: int, ws_here: float) -> bool:
        if ws_here < floor:
            return False
        if node_id in certs:
            return True
        for ev in kids.get(node_id, ()):
            if ev.tag == "pruned":
                continue
            if nice_edge(ev) and walk(ev.branch_id, ev.wS_after):
                return True
        return False

    return walk(0, float(s_size))
