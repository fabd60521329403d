"""The benchmark's workloads: inputs from the run seed, a fixed task list
per pass, and a correctness check on every task.

A workload is made of parts, each a flow of the ``felogit`` command.
Constructing them is the set-up that ``setup_s`` times: it builds the
specs and configs from the seed.  ``run_pass`` runs the task list once
and returns one record per task.  Every pass of a run repeats the
same inputs, so counts repeat exactly and timings summarise by median.

Calls into felogit go through ``tracer.call`` so that a traced pass
records a span per call; felogit itself is not patched.  Before each
task, and before each Monte Carlo study, ``tracer.sample_speed`` times
the calibration kernel of ``speed.py``, outside every task's time.
"""

from __future__ import annotations

import io
import json
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from felogit import cli, designs, estimation, model, moments, simulate, sufficiency

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Table 1 of the paper: minimal horizon T and differencing vector for a
# degree-p polynomial trend.
TABLE1 = {
    0: (2, (1, -1)),
    1: (4, (1, -1, -1, 1)),
    2: (7, (1, -1, -1, 0, 1, 1, -1)),
    3: (12, (1, -1, -1, 0, 1, 0, 0, 1, 0, -1, -1, 1)),
    4: (16, (1, -1, -1, 0, 0, 1, 1, 1, -1, -1, -1, 0, 0, 1, 1, -1)),
    5: (23, (1, -1, -1, 0, 0, 1, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0,
             1, 1, 0, 0, -1, -1, 1)),
}
RESIDUAL_TOL = 1e-8


def sub_seed(seed, *path):
    """Seed of one input, derived from the run seed and a fixed path."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


def compare(outputs, expected, tol):
    """Problems found comparing a task's outputs with its reference."""
    if expected is None:
        return ["no reference output for this task"]
    problems = []
    for key, want in expected.items():
        got = outputs.get(key)
        if isinstance(want, list):
            ok = got is not None and len(got) == len(want) and bool(
                np.all(np.abs(np.subtract(got, want)) <= tol))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key} = {got!r}, reference {want!r} (tol {tol})")
    return problems


def estimate_problems(report):
    """Converged, with finite estimates and SEs for identified parameters."""
    problems = [] if report.converged else ["did not converge"]
    skip = set(report.diagnostics.get("not_identified", ()))
    for name, est, se in zip(report.names, report.theta, report.std_errors):
        if name not in skip and not (np.isfinite(est) and np.isfinite(se)):
            problems.append(f"{name}: estimate {est}, SE {se}")
    return problems


class Workload:
    """Shared task bookkeeping.

    ``expected`` maps task ids to reference outputs, or is None when the
    run seed has none; ``tol`` bounds the absolute error of floats.
    """

    name = ""
    tol = 0.0
    seed_free = False  # True when the reference holds at every seed

    def __init__(self, seed, reference):
        self.seed = int(seed)
        section = reference.get(self.name)
        at_seed = self.seed == reference.get("seed")
        self.expected = section if (self.seed_free or at_seed) else None

    def record(self, task_id, wall, outputs, problems):
        if self.expected is not None and outputs is not None:
            problems = problems + compare(
                outputs, self.expected.get(task_id), self.tol)
        return {"id": task_id, "wall_s": wall, "problems": problems,
                "outputs": outputs}

    def run_task(self, tracer, task_id, fn):
        tracer.sample_speed()
        tracer.task = task_id
        start = perf_counter()
        try:
            outputs, problems = fn()
        except Exception:  # noqa: BLE001 - a failed task is counted, not fatal
            outputs, problems = None, [traceback.format_exc()]
        wall = perf_counter() - start
        tracer.task = None
        return self.record(task_id, wall, outputs, problems)


class TracedMoments:
    """A moment evaluator that times each ``stacked`` call and counts
    the units it evaluates, then defers to the felogit evaluator."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.k = inner.k

    def stacked(self, Y, Y0, X, theta):
        self.tracer.count("moments.stacked.rows", len(Y))
        return self.tracer.call("moments.stacked", self.inner.stacked,
                                Y, Y0, X, theta)


class PanelGMM(Workload):
    """``felogit simulate -> estimate --method gmm`` at n = 25,000.

    Two large problems, hundreds of moment evaluations each: moment
    evaluation and CSV I/O dominate.  The AR(2) sample reduces to 32
    (y0, y) cells; the quarterly one has continuous X and cannot.
    """

    name = "panel_gmm"
    tol = 1e-6

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.cases = [
            ("ar2_t3", simulate.DGPConfig(
                spec=designs.panel_ar(2, 3), theta=np.array([0.5, -0.3]),
                n=25_000, seed=sub_seed(seed, 1, 0),
                a_law={"kind": "two_point", "lo": -1.0, "hi": 1.0, "p": 0.4},
                y0_law={"kind": "stationary", "burn_in": 50}),
             moments.Ar2T3Moments()),
            ("quarterly_t6", simulate.DGPConfig(
                spec=designs.quarterly_ar(1, 6, d_x=1),
                theta=np.array([0.5, 1.0]), n=25_000, seed=sub_seed(seed, 1, 1),
                a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7},
                y0_law={"kind": "fixed", "value": 0}),
             moments.QuarterlyT6Moments(d_x=1)),
        ]

    def run_pass(self, tracer):
        return [
            self.run_task(tracer, kind,
                          lambda: self._task(tracer, cfg, evaluator))
            for kind, cfg, evaluator in self.cases
        ]

    def _task(self, tracer, cfg, evaluator):
        sample = tracer.call("simulate.generate", simulate.generate, cfg)
        buf = io.StringIO()
        tracer.call("cli.write_sample_csv", cli.write_sample_csv, sample, buf)
        csv_bytes = buf.tell()
        buf.seek(0)
        back = tracer.call("cli.read_sample_csv", cli.read_sample_csv,
                           buf, cfg.spec)
        if tracer.enabled:
            evaluator = TracedMoments(evaluator, tracer)
        report = tracer.call("estimation.gmm", estimation.gmm, back, evaluator,
                             np.zeros(cfg.spec.theta_dim))
        tracer.count("cli.csv_bytes", csv_bytes)
        tracer.count("simulate.units", sample.n)
        tracer.count("estimation.gmm.iterations", report.iterations)

        problems = estimate_problems(report)
        if not (np.array_equal(back.Y, sample.Y)
                and np.array_equal(back.Y0, sample.Y0)
                and (sample.X is None and back.X is None
                     or np.allclose(back.X, sample.X, rtol=1e-11, atol=0.0))):
            problems.append("CSV round trip changed the sample")
        if report.diagnostics["jacobian_rank"] != report.theta.size:
            problems.append(
                f"Jacobian rank {report.diagnostics['jacobian_rank']}")
        return {"theta": report.theta.tolist()}, problems


class MonteCarloCMLE(Workload):
    """``felogit mc``: one ``simulate.monte_carlo`` study per CMLE.

    Many small problems, where class construction, Newton steps and
    the simulator dominate.  A task is one replication.
    """

    name = "mc_cmle"
    tol = 1e-8
    replications = 20
    informative_key = {"cmle_static": "n_informative",
                       "cmle_pairwise": "n_contributing_units",
                       "cmle_dynamic_ar": "n_informative"}

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        correlated = {"kind": "correlated", "rho": 0.5, "scale": 1.0}
        wperp = np.array([1, -1])
        self.studies = [
            ("cmle_static", simulate.DGPConfig(
                spec=designs.build_design("two_way", n=3, tau=3, d_x=2),
                theta=np.array([1.0, -0.5]), n=1_000,
                seed=sub_seed(seed, 2, 0), a_law=correlated),
             estimation.cmle_static),
            ("cmle_pairwise", simulate.DGPConfig(
                spec=designs.build_design("panel_fe", T=2, d_x=1),
                theta=np.array([1.0]), n=5_000,
                seed=sub_seed(seed, 2, 1), a_law=correlated),
             lambda s: estimation.cmle_pairwise(s, wperp)),
            ("cmle_dynamic_ar", simulate.DGPConfig(
                spec=designs.panel_ar(2, 5), theta=np.array([0.5, -0.3]),
                n=5_000, seed=sub_seed(seed, 2, 2),
                a_law={"kind": "normal", "scale": 1.0},
                y0_law={"kind": "stationary", "burn_in": 50}),
             estimation.cmle_dynamic_ar),
        ]

    def run_pass(self, tracer):
        tasks = []
        for kind, cfg, fit in self.studies:
            tasks += self._study(tracer, kind, cfg, fit)
        return tasks

    def _study(self, tracer, kind, cfg, fit):
        tracer.sample_speed()
        reports = []
        ticks = [perf_counter()]  # ticks[k + 1] ends replication k

        def estimator(sample):
            tracer.task = f"{kind}/rep{len(reports)}"
            report = None
            try:
                report = tracer.call(f"estimation.{kind}", fit, sample)
                tracer.count("simulate.units", sample.n)
                tracer.count("estimation.newton_iters", report.iterations)
                tracer.count("estimation.informative_units",
                             report.diagnostics[self.informative_key[kind]])
                return report
            finally:
                reports.append(report)
                ticks.append(perf_counter())

        tracer.task = kind
        rows, _ = tracer.call("simulate.monte_carlo", simulate.monte_carlo,
                              cfg, estimator, self.replications, threads=1)
        tracer.task = None

        tasks = []
        aligned = len(reports) == len(rows)  # a failed generate skips the estimator
        for k, row in enumerate(rows):
            task_id = f"{kind}/rep{k}"
            report = reports[k] if aligned else None
            if report is None:
                tasks.append(self.record(
                    task_id, None, None,
                    [row.get("error", "replication did not reach the estimator")]))
                continue
            tasks.append(self.record(
                task_id, ticks[k + 1] - ticks[k],
                {"theta": report.theta.tolist()}, estimate_problems(report)))
        return tasks


class Identification(Workload):
    """``felogit table1 / wperp / moments / pairs / netcond``.

    Combinatorics over outcome paths with no sample: the designs,
    moment-construction and sufficiency layers do all the work.  The
    moment flows run at gamma = 0.9, where the numerical rank is well
    separated; only the fixed-effect draws come from the seed.
    """

    name = "identification"
    seed_free = True
    draws = 10
    gamma = 0.9

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.dyadic = designs.dyadic_matrix(6)
        self.moment_cases = []
        for i, (kind, spec) in enumerate((
                ("moments_ar1_t9", designs.panel_ar(1, 9)),
                ("moments_quarterly_t9", designs.quarterly_ar(1, 9)))):
            grid = np.random.default_rng(sub_seed(seed, 3, i)).uniform(
                -3, 3, (self.draws, spec.d_w))
            self.moment_cases.append((kind, spec, grid))
        self.pair_spec = designs.panel_ar(1, 9)
        self.net_spec = model.network_design(4, 3)

    def run_pass(self, tracer):
        tasks = [
            self.run_task(tracer, "table1", lambda: self._table1(tracer)),
            self.run_task(tracer, "wperp", lambda: self._wperp(tracer)),
        ]
        for kind, spec, grid in self.moment_cases:
            tasks.append(self.run_task(
                tracer, kind, lambda: self._moments(tracer, spec, grid)))
        tasks.append(self.run_task(tracer, "pairs", lambda: self._pairs(tracer)))
        tasks.append(self.run_task(tracer, "netcond",
                                   lambda: self._netcond(tracer)))
        return tasks

    def _table1(self, tracer):
        problems = []
        for p, (T_ref, w_ref) in TABLE1.items():
            T, w = tracer.call("designs.minimal_T_polytrend",
                               designs.minimal_T_polytrend, p)
            if T != T_ref or tuple(int(v) for v in w) not in (
                    w_ref, tuple(-v for v in w_ref)):
                problems.append(f"p={p}: T={T}, w={w.tolist()}")
        return {}, problems

    def _wperp(self, tracer):
        sols = tracer.call("designs.find_wperp", designs.find_wperp,
                           self.dyadic)
        tracer.count("designs.find_wperp.solutions", len(sols))
        W = np.rint(self.dyadic).astype(np.int64)
        bad = sum(bool(np.any(W @ w)) for w in sols)
        return {"solutions": len(sols)}, (
            [f"{bad} vectors with W w != 0"] if bad else [])

    def _moments(self, tracer, spec, grid):
        theta = np.array([self.gamma])
        y0 = np.zeros(spec.y0_len, dtype=np.int8)
        Q = tracer.call("moments.qt_values", moments.qt_values,
                        spec, y0, None, theta)
        dset = tracer.call("moments.build_dset", moments.build_dset, spec, Q)
        rep = tracer.call("moments.nullspace_moments",
                          moments.nullspace_moments, spec, y0, None, theta)
        resid = [tracer.call("moments.verify_moment", moments.verify_moment,
                             m, spec, y0, None, theta, grid)
                 for m in rep.moments]
        paths = 2**spec.T
        tracer.count("moments.nullspace.dimension", rep.dimension)
        tracer.count("moments.nullspace.weak_separation",
                     int(rep.weak_separation))
        tracer.count("moments.coefficient_matrix.bytes_computed",
                     dset.cardinality * paths * 8)
        tracer.count("moments.svd.bytes_computed", paths * paths * 8)
        problems = []
        if rep.dimension < paths - dset.cardinality:
            problems.append(f"dimension {rep.dimension} below the bound "
                            f"{paths - dset.cardinality}")
        worst = max(resid, default=0.0)
        if not worst <= RESIDUAL_TOL:
            problems.append(f"max verification residual {worst:.3g}")
        return {"dimension": rep.dimension}, problems

    def _pairs(self, tracer):
        certs = tracer.call("sufficiency.enumerate_pairs_ar1",
                            sufficiency.enumerate_pairs_ar1,
                            self.pair_spec, np.array([0]))
        tracer.count("sufficiency.pairs", len(certs))
        failed = sum(not c.passed for c in certs)
        return {"pairs": len(certs)}, (
            [f"{failed} pair certificates fail"] if failed else [])

    def _netcond(self, tracer):
        frac = tracer.call("sufficiency.network_star_equality_fraction",
                           sufficiency.network_star_equality_fraction,
                           self.net_spec)
        return {"star_equality_fraction": frac}, []


class Bench:
    """A benchmark workload: its parts' task lists run back to back."""

    def __init__(self, parts):
        self.parts = parts

    def run_pass(self, tracer):
        return [task for part in self.parts for task in part.run_pass(tracer)]


# ``estimate`` uses the estimation layer both ways, a few large GMM
# problems and many small CMLE ones; ``identification`` needs no sample.
WORKLOADS = {
    "estimate": (PanelGMM, MonteCarloCMLE),
    "identification": (Identification,),
}


def build(name, seed):
    """Set up workload ``name`` for ``seed``: the timed set-up."""
    reference = json.loads(REFERENCE_FILE.read_text())
    return Bench([part(seed, reference) for part in WORKLOADS[name]])
