"""Which rockland functions a traced run wraps, and the per-layer metrics
derived from the spans and counters they record.

Layers are rockland's modules.  NOTES.md lists the end-to-end metric each
per-layer metric should move; the names printed are those of BENCHMARK.json.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer, root_coverage, self_times


class _OptimizeProxy:
    """scipy.optimize as rockland.metric sees it, with minimize counted."""

    def __init__(self, real, minimize) -> None:
        self._real = real
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the loaded rockland modules."""
    from rockland import (cli, fields, fundsol, kernels, liealg, lifting,
                          metric, model, poly)

    span, busy, c = tracer.span_wrapper, tracer.busy_wrapper, tracer.counters

    def function(module, attr, wrap) -> None:
        tracer.replace_function(module.__name__, attr,
                                wrap(getattr(module, attr)))

    def method(cls, attr, wrap) -> None:
        tracer.replace(cls, attr, wrap(vars(cls)[attr]))

    def on_command(rc, args, kwargs):
        c["cli.commands_failed"] += rc != 0

    def on_gamma(rec, args, kwargs):
        c["fundsol.tail_bound"] += rec.tail_bound
        c["fundsol.error_bound"] += rec.error_bound

    def on_distance(res, args, kwargs):
        c["metric.distance_bad"] += not res.lower <= res.upper < float("inf")

    def on_feasible(res, args, kwargs):
        c["metric.feasible_ok"] += bool(res[0])

    def on_ball(vol, args, kwargs):
        c[f"metric.ball_hits.n{args[0].n}"] += vol.hits
        c[f"metric.ball_samples.n{args[0].n}"] += vol.samples

    def on_minimize(res, args, kwargs):
        c["metric.lbfgs_nfev"] += res.nfev
        c["metric.lbfgs_nit"] += res.nit

    function(model, "parse_model", lambda f: span("model.parse", f))
    function(cli, "main", lambda f: span("cli.command", f, on_command))
    method(cli.Report, "emit", lambda f: span("cli.emit", f))

    method(poly.Poly, "__mul__", lambda f: busy("poly", "poly.mul_calls", f))
    function(poly, "substitute",
             lambda f: busy("poly", "poly.substitute_calls", f))

    function(fields, "certify_homogeneity",
             lambda f: busy("fields", "fields.certify_calls", f))
    for attr in ("heat_extend", "operator_transpose"):
        function(fields, attr, lambda f: busy("fields", "fields.other_calls", f))

    function(liealg, "generate_lie_algebra",
             lambda f: span("liealg.generate", f))

    function(lifting, "build_lifting", lambda f: span("lifting.build", f))
    function(lifting, "saturable_check",
             lambda f: span("lifting.saturable", f))
    function(lifting, "lift_identity_check",
             lambda f: span("lifting.lift_identity", f))
    for cls in (lifting.GroupLaw, lifting.LiftedSystem):
        for attr in ("mult_eval", "inverse_eval"):
            method(cls, attr, lambda f: busy(
                "lifting.group_eval", "lifting.group_eval_calls", f))

    function(kernels, "heisenberg_gauge_kernel",
             lambda f: span("kernels.build", f))
    method(kernels.KernelSpec, "word_expr",
           lambda f: span("kernels.word_expr", f))
    method(kernels.KernelSpec, "sup_on_gauge_sphere",
           lambda f: span("kernels.sup_sphere", f))

    ev = fundsol.SaturationEvaluator
    function(fundsol, "kernel_calibrate", lambda f: span("fundsol.calibrate", f))
    function(fundsol, "calibration_residuals",
             lambda f: span("fundsol.calibration_residuals", f))
    method(ev, "__init__", lambda f: span("fundsol.evaluator_init", f))
    method(ev, "_integral", lambda f: span("fundsol.gamma", f, on_gamma))
    method(ev, "verify_left_inverse", lambda f: span("fundsol.left_inverse", f))
    for attr in ("verify_homogeneity", "verify_symmetry", "tail_doubling_check"):
        method(ev, attr, lambda f, a=attr: span(f"fundsol.{a}", f))

    ms = metric.MetricSpace
    method(ms, "_compile_flow", lambda f: span("metric.compile", f))
    method(ms, "distance", lambda f: span("metric.distance", f, on_distance))
    method(ms, "feasible", lambda f: span("metric.feasible", f, on_feasible))
    method(ms, "ball_volume", lambda f: span("metric.ball_volume", f, on_ball))
    method(ms, "box_bounds", lambda f: span("metric.box_bounds", f))
    tracer.replace(metric, "optimize", _OptimizeProxy(
        metric.optimize,
        span("metric.lbfgs", metric.optimize.minimize, on_minimize)))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, run, run_lo: float, run_hi: float,
                  setup_s: float, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, 0 where a layer is idle.

    trace.wall_s is wall_s measured with tracing on, so tracing overhead is
    trace.wall_s minus the untraced wall_s; trace.root_coverage is the share
    of the whole run, run_lo to run_hi, that top-level layer spans cover.
    """
    t, c = tracer, tracer.counters
    own = self_times(t.spans)
    cli_self = sum(s for s, span in zip(own, t.spans)
                   if span[0] == "cli.command")
    gamma_in_li = sum(1 for s in t.spans if s[0] == "fundsol.gamma"
                      and t.has_ancestor(s, "fundsol.left_inverse"))
    out = {
        "model.parse_s": t.outermost_total("model.parse"),
        "model.parse_calls": t.count("model.parse"),
        "cli.command_s": t.outermost_total("cli.command"),
        "cli.self_s": cli_self,
        "cli.commands_failed": c["cli.commands_failed"]
        + c["cli.command.raised"],
        "cli.emit_s": t.outermost_total("cli.emit"),
        "poly.mul_calls": c["poly.mul_calls"],
        "poly.substitute_calls": c["poly.substitute_calls"],
        "poly.busy_s": t.busy["poly"],
        "fields.certify_calls": c["fields.certify_calls"],
        "fields.busy_s": t.busy["fields"],
        "liealg.generate_calls": t.count("liealg.generate"),
        "liealg.generate_s": t.outermost_total("liealg.generate"),
        "lifting.build_s": t.outermost_total("lifting.build"),
        "lifting.build_calls": t.count("lifting.build"),
        "lifting.saturable_s": t.outermost_total("lifting.saturable"),
        "lifting.lift_identity_s": t.outermost_total("lifting.lift_identity"),
        "lifting.lift_identity_calls": t.count("lifting.lift_identity"),
        "lifting.group_eval_calls": c["lifting.group_eval_calls"],
        "kernels.build_s": t.outermost_total("kernels.build"),
        "kernels.word_expr_s": t.outermost_total("kernels.word_expr"),
        "kernels.sup_sphere_s": t.outermost_total("kernels.sup_sphere"),
        "kernels.sup_sphere_calls": t.count("kernels.sup_sphere"),
        "fundsol.calibrate_s": t.outermost_total("fundsol.calibrate"),
        # setup_s is scaled by the machine's speed (speed.py), so the
        # calibration is too before the two are compared
        "fundsol.calibrate_share": _ratio(
            sum(run.speed.scaled((s[1], s[2] - s[1])) for s in t.spans
                if s[0] == "fundsol.calibrate"), setup_s),
        "fundsol.gamma_calls": t.count("fundsol.gamma"),
        "fundsol.gamma_busy_s": t.outermost_total("fundsol.gamma"),
        "fundsol.calibration_residuals_s":
            t.outermost_total("fundsol.calibration_residuals"),
        "fundsol.left_inverse_s": t.outermost_total("fundsol.left_inverse"),
        "fundsol.left_inverse_gamma_calls": gamma_in_li,
        "fundsol.integration_warnings": run.integration_warnings,
        "fundsol.tail_share": _ratio(c["fundsol.tail_bound"],
                                     c["fundsol.error_bound"]),
        "metric.compile_s": t.outermost_total("metric.compile"),
        "metric.distance_calls": t.count("metric.distance"),
        "metric.distance_s": t.outermost_total("metric.distance"),
        "metric.distance_failed": c["metric.distance.raised"]
        + c["metric.distance_bad"],
        "metric.feasible_calls": t.count("metric.feasible"),
        "metric.feasible_s": t.outermost_total("metric.feasible"),
        "metric.feasible_ok_ratio": _ratio(c["metric.feasible_ok"],
                                           t.count("metric.feasible")),
        "metric.lbfgs_nfev": c["metric.lbfgs_nfev"],
        "metric.lbfgs_nit": c["metric.lbfgs_nit"],
        "metric.box_bounds_s": t.outermost_total("metric.box_bounds"),
        "trace.wall_s": wall_s,
        "trace.root_coverage": root_coverage(t.spans, run_lo, run_hi),
        "trace.spans": len(t.spans),
    }
    for name in ("calibration", "homogeneity", "symmetry", "left_inverse"):
        out[f"fundsol.residual.{name}"] = run.layer.get(
            f"fundsol.residual.{name}", 0.0)
    for n in (2, 3):
        out[f"metric.ballvol_hit_ratio.n{n}"] = _ratio(
            c[f"metric.ball_hits.n{n}"], c[f"metric.ball_samples.n{n}"])
    return out
