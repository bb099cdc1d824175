"""Per-layer tracing by wrapping the library's public functions from outside.

`Tracer.install()` replaces module attributes and class methods of the
cyclesynth modules with timing wrappers; `uninstall()` puts the originals
back, so untraced rounds run the unmodified code.  Cross-module calls go
through module attributes (`decoder.hybrid_solve`, `grammar.legal_actions`)
and intra-module calls through module globals, so both reach the wrappers.

Spans are aggregated in memory as they close: per name, the call count
and the self time (span duration minus the time of its child spans).
Count-only hooks record calls without opening a span, so their time
stays in the enclosing span (a residual evaluation stays inside the
solve that asked for it).
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

from cyclesynth import agent, decoder, fluids, grammar, harness, nn, worker

# (owner, attribute, name): timed spans, then count-only hooks
_SPANS = [
    (grammar, "legal_actions", "grammar.legal_actions"),
    (grammar, "structural_validity", "grammar.validity"),
    (grammar, "canonical_form", "grammar.canonical"),
    (grammar, "apply_action", "grammar.apply_action"),
    (decoder, "hybrid_solve", "decoder.solve"),
    (worker, "optimize_parameters", "worker.optimize"),
    (worker, "gp_fit", "worker.gp_fit"),
    (worker, "propose_next", "worker.acquisition"),
    (agent.ActorCritic, "act", "agent.act"),
    (agent, "ppo_loss_and_grads", "agent.update"),
    (agent, "elite_loss_and_grads", "agent.update"),
    (agent, "random_search", "agent.baseline"),
    (agent, "save_checkpoint", "agent.checkpoint"),
    (nn, "mlp_forward", "nn.forward"),
    (nn, "mlp_backward_from_output_grad", "nn.backward"),
    (nn, "mlp_backward", "nn.backward"),
    (nn, "adam_step", "nn.adam"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "export_report_csv", "harness.export_report"),
]
_COUNTS = [
    (decoder.CycleSystem, "residuals", "decoder.residual"),
    (worker, "ucb", "worker.ucb"),
    (agent.CycleEnv, "step", "agent.step"),
]
_FLUID_METHODS = ["ph_to_tsq", "ps_to_h", "h_from_pt", "p_to_sat",
                  "t_to_psat", "h_bounds", "ph_to_tsq_clamped",
                  "ps_to_h_clamped", "h_from_pt_clamped"]
_MARKED = {"agent.baseline", "harness.export_report", "harness.run_experiment"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.marks: defaultdict = defaultdict(list)   # name -> [(start, end)]
        self.solves: list[tuple[str, int]] = []       # (status, nfev)
        self.residuals_in_solve = 0
        self.evals = 0
        self.feasible_evals = 0
        self.cache_hits = 0
        self.checkpoint_bytes = 0
        self._stack: list[list] = []                  # [name, child seconds]
        self._saved: list[tuple[object, str, bool, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if name in _MARKED:
                    self.marks[name].append((t0, t1))
            self._after(name, args, out)
            return out

        return wrapper

    def _count(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name == "decoder.residual" and stack \
                    and stack[-1][0] == "decoder.solve":
                self.residuals_in_solve += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fluid(self, fn):
        """Outermost property calls only; nested ones stay in the span."""
        span = self._span("fluids", fn)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == "fluids":
                return fn(*args, **kwargs)
            return span(*args, **kwargs)

        return wrapper

    def _objective(self, fn):
        def make(*args, **kwargs):
            evaluate = fn(*args, **kwargs)

            def traced(x):
                out = evaluate(x)
                self.evals += 1
                self.feasible_evals += bool(out[1])
                return out

            return traced

        return make

    def _after(self, name: str, args, out) -> None:
        if name == "decoder.solve":
            self.solves.append((out.status, out.nfev))
        elif name == "worker.optimize" and out.cache_hit:
            self.cache_hits += 1
        elif name == "agent.checkpoint":
            self.checkpoint_bytes += os.path.getsize(args[0])

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in _COUNTS:
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))
        for attr in _FLUID_METHODS:
            cls = fluids.AnalyticFluid
            self._patch(cls, attr, self._fluid(getattr(cls, attr)))
        self._patch(worker, "penalized_objective",
                    self._objective(worker.penalized_objective))

    def uninstall(self) -> None:
        for owner, attr, own, orig in reversed(self._saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- metrics ----------------------------------------------------------

    def _phase(self, start_after: str, end_before: str) -> float:
        """Wall time between the last `start_after` span and `end_before`."""
        if not self.marks[start_after] or not self.marks[end_before]:
            return 0.0
        return self.marks[end_before][-1][0] - self.marks[start_after][-1][1]

    def metrics(self, output_bytes: int) -> dict[str, float]:
        c, s = self.calls, self.self_s
        n_solves = len(self.solves)
        converged = sum(st == decoder.STATUS_CONVERGED for st, _ in self.solves)
        export_s = 0.0
        if self.marks["harness.export_report"]:
            export_s = (self.marks["harness.run_experiment"][-1][1]
                        - self.marks["harness.export_report"][-1][0])
        return {
            "grammar.legal_actions.calls": c["grammar.legal_actions"],
            "grammar.legal_actions.s": s["grammar.legal_actions"],
            "grammar.validity.calls": c["grammar.validity"],
            "grammar.validity.s": s["grammar.validity"],
            "grammar.canonical.calls": c["grammar.canonical"],
            "grammar.canonical.s": s["grammar.canonical"],
            "grammar.apply_action.calls": c["grammar.apply_action"],
            "decoder.solve.calls": c["decoder.solve"],
            "decoder.solve.s": s["decoder.solve"],
            "decoder.residual.calls": c["decoder.residual"],
            "decoder.converged_ratio": converged / n_solves if n_solves else 0.0,
            "fluids.calls": c["fluids"],
            "fluids.s": s["fluids"],
            "worker.optimize.calls": c["worker.optimize"],
            "worker.cache_hit_ratio": (self.cache_hits / c["worker.optimize"]
                                       if c["worker.optimize"] else 0.0),
            "worker.evals": self.evals,
            "worker.feasible_ratio": (self.feasible_evals / self.evals
                                      if self.evals else 0.0),
            "worker.gp_fit.s": s["worker.gp_fit"],
            "worker.acquisition.s": s["worker.acquisition"],
            "worker.ucb.calls": c["worker.ucb"],
            "agent.steps": c["agent.step"],
            "agent.act.s": s["agent.act"],
            "agent.update.s": s["agent.update"],
            "agent.baseline.s": s["agent.baseline"],
            "agent.checkpoint.calls": c["agent.checkpoint"],
            "agent.checkpoint.s": s["agent.checkpoint"],
            "agent.checkpoint.bytes": self.checkpoint_bytes,
            "nn.forward.calls": c["nn.forward"],
            "nn.backward.calls": c["nn.backward"],
            "nn.adam.calls": c["nn.adam"],
            "harness.refine.s": self._phase("agent.baseline",
                                            "harness.export_report"),
            "harness.export.s": export_s,
            "harness.output.bytes": output_bytes,
        }
