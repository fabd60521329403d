"""Command-line interface.

Subcommands: wperp, table1, pairs, netcond, dset, moments, verify,
estimate, simulate, mc.  Exit codes: 0 success, 2 usage error, 3
degenerate outcome (no differencing vector, no identifying
information), 1 internal error.  Every run echoes its resolved
configuration to stderr; numeric output carries 12 significant digits.

File schemas (versioned in the emitted ``schema`` comment):

* model JSON: ``{"schema_version": 1, "family", "T", "d_x", "W", "p",
  "n", "tau"}`` with W row-major.
* sample CSV: columns ``unit,t,y,x1..xd``; rows with t <= 0 hold the
  initial-condition block in chronological order (covariates ignored
  there).
* network edge list CSV: columns ``unit,tau,i,j,y,x1..xd`` (the unit
  column may be omitted for a single network); tau = 0 rows hold the
  initial network.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import designs, estimation, model, moments, simulate, sufficiency
from .estimation import NoInformationError

SCHEMA = {
    "table1": "felogit.table1.v1",
    "sample": "felogit.sample.v1",
    "edges": "felogit.edges.v1",
    "mc": "felogit.mc.v1",
    "verify": "felogit.verify.v1",
}


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _echo_config(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"# config: {json.dumps(_round_floats(cfg), default=str)}",
          file=sys.stderr)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_out(doc, output):
    _emit(json.dumps(_round_floats(doc), indent=2) + "\n", output)


def _parse_vec(text, dtype=float):
    if text is None:
        return None
    parts = [p for p in text.replace(",", " ").split() if p]
    return np.array([dtype(p) for p in parts])


def _parse_bits(text):
    text = text.strip()
    if "," in text or " " in text:
        return _parse_vec(text, dtype=int).astype(np.int8)
    return np.array([int(c) for c in text], dtype=np.int8)


def _load_spec(args):
    if getattr(args, "model", None):
        with open(args.model) as fh:
            return model.ModelSpec.from_json(fh.read())
    design = getattr(args, "design", None)
    if design is None:
        raise ValueError("provide --model FILE or --design NAME")
    d_x = getattr(args, "d_x", 0) or 0
    if design in ("panel", "panel_fe"):
        return designs.build_design("panel_fe", T=args.T, d_x=d_x)
    if design in ("poly", "poly_trend"):
        return designs.build_design("poly_trend", p=args.p, T=args.T, d_x=d_x)
    if design == "overlapping":
        return designs.build_design("overlapping", d_x=d_x)
    if design in ("twoway", "two_way"):
        return designs.build_design("two_way", n=args.n, tau=args.tau, d_x=d_x)
    if design == "dyadic":
        return designs.build_design("dyadic", n=args.n, d_x=d_x)
    if design == "triadic":
        return designs.build_design(
            "triadic", n1=args.n1, n2=args.n2, n3=args.n3, d_x=d_x
        )
    if design == "ar":
        return designs.panel_ar(args.p, args.T, d_x=d_x)
    if design == "quarterly":
        return designs.quarterly_ar(args.p, args.T, d_x=d_x)
    if design == "trend-ar":
        return designs.trend_ar(args.T, d_x=d_x)
    if design == "network":
        return model.network_design(args.n, args.tau, d_x=d_x)
    raise ValueError(f"unknown design {design!r}")


# -- sample CSV ---------------------------------------------------------------


def write_sample_csv(sample, fh):
    spec = sample.spec
    w = csv.writer(fh)
    fh.write(f"# schema: {SCHEMA['sample']}\n")
    w.writerow(["unit", "t", "y"] + [f"x{k+1}" for k in range(spec.d_x)])
    L0 = spec.y0_len
    for i in range(sample.n):
        for j in range(L0):
            w.writerow([i + 1, j - L0 + 1, int(sample.Y0[i, j])]
                       + [""] * spec.d_x)
        for t in range(spec.T):
            xs = (
                [_fmt(float(v)) for v in sample.X[i, :, t]]
                if spec.d_x
                else []
            )
            w.writerow([i + 1, t + 1, int(sample.Y[i, t])] + xs)


_BINARY = {"0": 0, "1": 1}


def read_sample_csv(fh, spec):
    rows = [r for r in csv.reader(
        line for line in fh if not line.startswith("#")
    ) if r]
    header = rows[0]
    if header[:3] != ["unit", "t", "y"]:
        raise ValueError("sample CSV must start with columns unit,t,y")
    data = {}
    for k, r in enumerate(rows[1:], start=1):
        unit, t, y = int(r[0]), int(r[1]), _BINARY.get(r[2].strip())
        if y is None:
            raise ValueError(f"sample CSV data row {k}: y must be 0 or 1, "
                             f"found {r[2]!r}")
        xs = [float(v) for v in r[3: 3 + spec.d_x]] if t >= 1 and spec.d_x else None
        data.setdefault(unit, {})[t] = (y, xs)
    units = sorted(data)
    n, L0 = len(units), spec.y0_len
    Y = np.zeros((n, spec.T), dtype=np.int8)
    Y0 = np.zeros((n, L0), dtype=np.int8)
    X = np.zeros((n, spec.d_x, spec.T)) if spec.d_x else None
    for i, u in enumerate(units):
        for t in range(1, spec.T + 1):
            y, xs = data[u][t]
            Y[i, t - 1] = y
            if spec.d_x:
                X[i, :, t - 1] = xs
        for j in range(L0):
            Y0[i, j] = data[u][j - L0 + 1][0]
    return estimation.Sample(spec=spec, Y=Y, Y0=Y0, X=X)


def write_edge_csv(sample, fh):
    spec = sample.spec
    ds = model.dyads(spec.n)
    w = csv.writer(fh)
    fh.write(f"# schema: {SCHEMA['edges']}\n")
    w.writerow(["unit", "tau", "i", "j", "y"] + [f"x{k+1}" for k in range(spec.d_x)])
    D = spec.n_dyads
    for u in range(sample.n):
        for d, (i, j) in enumerate(ds):
            w.writerow([u + 1, 0, i + 1, j + 1, int(sample.Y0[u, d])]
                       + [""] * spec.d_x)
        for per in range(1, spec.tau + 1):
            for d, (i, j) in enumerate(ds):
                t = (per - 1) * D + d
                xs = (
                    [_fmt(float(v)) for v in sample.X[u, :, t]]
                    if spec.d_x
                    else []
                )
                w.writerow([u + 1, per, i + 1, j + 1, int(sample.Y[u, t])] + xs)


def read_edge_csv(fh, spec):
    rows = [r for r in csv.reader(
        line for line in fh if not line.startswith("#")
    ) if r]
    header = rows[0]
    if header[0] == "tau":  # single network without a unit column
        rows = [["1"] + r for r in rows[1:]]
    elif header[:4] == ["unit", "tau", "i", "j"]:
        rows = rows[1:]
    else:
        raise ValueError("edge CSV must have columns [unit,]tau,i,j,y,...")
    index = {d: k for k, d in enumerate(model.dyads(spec.n))}
    D = spec.n_dyads
    data = {}
    for r in rows:
        u, tau, i, j, y = int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4])
        d = index[(min(i, j) - 1, max(i, j) - 1)]
        xs = [float(v) for v in r[5: 5 + spec.d_x]] if tau >= 1 and spec.d_x else None
        data.setdefault(u, {})[(tau, d)] = (y, xs)
    units = sorted(data)
    n = len(units)
    Y = np.zeros((n, spec.T), dtype=np.int8)
    Y0 = np.zeros((n, D), dtype=np.int8)
    X = np.zeros((n, spec.d_x, spec.T)) if spec.d_x else None
    for k, u in enumerate(units):
        for (tau, d), (y, xs) in data[u].items():
            if tau == 0:
                Y0[k, d] = y
            else:
                t = (tau - 1) * D + d
                Y[k, t] = y
                if spec.d_x and xs is not None:
                    X[k, :, t] = xs
    return estimation.Sample(spec=spec, Y=Y, Y0=Y0, X=X)


# -- subcommands --------------------------------------------------------------


def cmd_wperp(args):
    spec = _load_spec(args)
    sols = designs.find_wperp(spec.W, max_solutions=args.max_solutions)
    _json_out([[int(v) for v in s] for s in sols], args.output)
    if not sols:
        print("no differencing vector exists for this design", file=sys.stderr)
        return 3
    return 0


def cmd_table1(args):
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA['table1']}\n")
    w = csv.writer(buf)
    w.writerow(["p", "T", "w_perp"])
    for p in range(args.max_p + 1):
        T, vec = designs.minimal_T_polytrend(p, allow_long_run=args.long_run)
        w.writerow([p, T, " ".join(str(int(v)) for v in vec)])
    _emit(buf.getvalue(), args.output)
    return 0


def cmd_pairs(args):
    spec = _load_spec(args)
    y0 = _parse_bits(args.y0)
    theta = _parse_vec(args.theta)
    certs = sufficiency.enumerate_pairs_ar1(
        spec, y0, require_gap=args.require_gap, theta=theta
    )
    doc = [
        {
            "y": [int(v) for v in c.y],
            "y_tilde": [int(v) for v in c.y_tilde],
            "transition_gap": c.transition_gap,
            "log_ratio": c.log_ratio,
        }
        for c in certs
    ]
    _json_out(doc, args.output)
    return 0 if certs else 3


def cmd_netcond(args):
    spec = model.network_design(args.n, 3)
    y = _parse_bits(args.path)
    y0 = _parse_bits(args.y0)
    cond = (
        sufficiency.network_cond_full(spec, y)
        if args.set == "full"
        else sufficiency.network_cond_star(spec, y)
    )
    doc = {
        "kind": cond.kind,
        "size": len(cond),
        "members": [[int(v) for v in m] for m in cond.members],
    }
    if args.theta is not None:
        theta = _parse_vec(args.theta)
        doc["likelihood"] = sufficiency.network_cond_likelihood(
            spec, theta, y, y0, cond
        )
    _json_out(doc, args.output)
    return 0


def _theta_or_zero(spec, text):
    theta = _parse_vec(text)
    return np.zeros(spec.theta_dim) if theta is None else theta


def _load_X(spec, path):
    if path is None:
        return None
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    if X.shape != (spec.d_x, spec.T):
        raise ValueError(f"covariate CSV must be d_x x T = {(spec.d_x, spec.T)}")
    return X


def cmd_dset(args):
    spec = _load_spec(args)
    theta = _theta_or_zero(spec, args.theta)
    y0 = _parse_bits(args.y0) if args.y0 else np.zeros(spec.y0_len, dtype=np.int8)
    X = _load_X(spec, args.x)
    Q = moments.qt_values(spec, y0, X, theta)
    ds = moments.build_dset(spec, Q)
    _json_out(
        {
            "Q": list(Q),
            "cardinality": ds.cardinality,
            "bound": 2**spec.T - ds.cardinality,
        },
        args.output,
    )
    return 0


def cmd_moments(args):
    spec = _load_spec(args)
    theta = _theta_or_zero(spec, args.theta)
    y0 = _parse_bits(args.y0) if args.y0 else np.zeros(spec.y0_len, dtype=np.int8)
    X = _load_X(spec, args.x)
    Q = moments.qt_values(spec, y0, X, theta)
    ds = moments.build_dset(spec, Q)
    rep = moments.nullspace_moments(spec, y0, X, theta)
    rng = np.random.default_rng(args.seed)
    grid = rng.uniform(-3, 3, (args.draws, spec.d_w))
    resid = [
        moments.verify_moment(m, spec, y0, X, theta, grid) for m in rep.moments
    ]
    _json_out(
        {
            "Q": list(Q),
            "dset_cardinality": ds.cardinality,
            "bound": 2**spec.T - ds.cardinality,
            "nullspace_dimension": rep.dimension,
            "weak_separation": rep.weak_separation,
            "max_residual": max(resid) if resid else 0.0,
        },
        args.output,
    )
    return 0


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA['verify']}\n")
    w = csv.writer(buf)
    w.writerow(["draw", "moment", "residual"])
    for draw in range(args.draws):
        if args.moment == "ar2_t3":
            spec = designs.panel_ar(2, 3)
            theta = rng.uniform(-1.5, 1.5, 2)
            y0 = rng.integers(0, 2, 2)
            m = moments.closed_form_ar2_T3(tuple(y0), theta)
            grid = rng.uniform(-5, 5, (10, 1))
            res = [("ar2_t3", moments.verify_moment(m, spec, y0, None, theta, grid))]
        elif args.moment == "quarterly_t6":
            spec = designs.quarterly_ar(1, 6, d_x=1)
            theta = rng.uniform(-1, 1, 2)
            X = rng.normal(size=(1, 6))
            y0 = int(rng.integers(0, 2))
            m1, m2 = moments.closed_form_quarterly_T6(theta, y0, X)
            grid = rng.uniform(-3, 3, (10, 4))
            res = [
                ("quarterly_m1",
                 moments.verify_moment(m1, spec, np.array([y0]), X, theta, grid)),
                ("quarterly_m2",
                 moments.verify_moment(m2, spec, np.array([y0]), X, theta, grid)),
            ]
        elif args.moment == "network_t3":
            spec = model.network_design(3, 3, d_x=1)
            theta = rng.uniform(-0.8, 0.8, 3)
            X = rng.normal(size=(1, 9))
            y0 = rng.integers(0, 2, 3)
            ref = rng.integers(0, 2, 3)
            m = moments.closed_form_network_transition(spec, ref, theta, y0, X)
            grid = rng.uniform(-2, 2, (10, 3))
            res = [("network_t3", moments.verify_moment(m, spec, y0, X, theta, grid))]
        else:
            raise ValueError(f"unknown moment family {args.moment!r}")
        for name, r in res:
            w.writerow([draw, name, _fmt(r)])
    _emit(buf.getvalue(), args.output)
    return 0


def _dgp_from_doc(doc):
    if "model" in doc:
        spec = model.ModelSpec.from_json(json.dumps(doc["model"]))
    else:
        ns = argparse.Namespace(model=None, **doc["design"])
        for k in ("T", "p", "n", "tau", "n1", "n2", "n3", "d_x"):
            if not hasattr(ns, k):
                setattr(ns, k, None)
        spec = _load_spec(ns)
    cfg = simulate.DGPConfig(
        spec=spec,
        theta=np.asarray(doc["theta"], dtype=float),
        n=int(doc["n"]),
        seed=int(doc.get("seed", 0)),
    )
    for key in ("a_law", "x_law", "y0_law"):
        if key in doc:
            setattr(cfg, key, doc[key])
    return cfg


def cmd_simulate(args):
    with open(args.config) as fh:
        cfg = _dgp_from_doc(json.load(fh))
    if args.seed is not None:
        cfg.seed = args.seed
    sample = simulate.generate(cfg)
    buf = io.StringIO()
    if cfg.spec.family == model.NETWORK:
        write_edge_csv(sample, buf)
    else:
        write_sample_csv(sample, buf)
    _emit(buf.getvalue(), args.output)
    return 0


def _build_estimator(doc, spec):
    method = doc["method"]
    init = np.asarray(doc["init"], dtype=float) if "init" in doc else None

    if method == "cmle":
        if spec.family == model.STATIC:
            return lambda s: estimation.cmle_static(s, init=init)
        return lambda s: estimation.cmle_dynamic_ar(s, init=init)
    if method == "pairwise":
        if "wperp" in doc:
            Wp = np.asarray(doc["wperp"], dtype=np.int64).T
        else:
            sols = designs.find_wperp(spec.W, max_solutions=16)
            if not sols:
                raise NoInformationError("design admits no differencing vector")
            Wp = np.stack(sols, axis=1)
        return lambda s: estimation.cmle_pairwise(s, Wp, init=init)
    if method == "gmm":
        name = doc.get("moments", "ar2_t3")
        if name == "ar2_t3":
            ev = moments.Ar2T3Moments()
        elif name == "quarterly_t6":
            ev = moments.QuarterlyT6Moments(
                d_x=spec.d_x, instruments=doc.get("instruments", True)
            )
        else:
            raise ValueError(f"unknown moment set {name!r}")
        start = np.zeros(spec.theta_dim) if init is None else init
        weighting = doc.get("weighting", "two-step")
        return lambda s: estimation.gmm(s, ev, start, weighting=weighting)
    raise ValueError(f"unknown method {method!r}")


def cmd_estimate(args):
    spec = _load_spec(args)
    with open(args.data) as fh:
        if spec.family == model.NETWORK:
            sample = read_edge_csv(fh, spec)
        else:
            sample = read_sample_csv(fh, spec)
    doc = {"method": args.method}
    if args.moments:
        doc["moments"] = args.moments
    if args.weighting:
        doc["weighting"] = args.weighting
    if args.init:
        doc["init"] = _parse_vec(args.init).tolist()
    if args.wperp:
        doc["wperp"] = [_parse_vec(args.wperp, dtype=int).tolist()]
    report = _build_estimator(doc, spec)(sample)
    _json_out(report.as_dict(), args.output)
    return 0


def cmd_mc(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    cfg = _dgp_from_doc(doc["dgp"])
    estimator = _build_estimator(doc["estimator"], cfg.spec)
    threads = args.threads or int(doc.get("threads", 1))
    rows, summary = simulate.monte_carlo(
        cfg, estimator, int(doc["replications"]), threads=threads
    )
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA['mc']}\n")
    w = csv.writer(buf)
    w.writerow(["kind", "rep", "seed", "name", "estimate", "se",
                "converged", "error", "bias", "rmse", "coverage", "n_ok"])
    names = [k for k in summary if k != "n_failed"]
    for r in rows:
        for name in names:
            if name not in r:
                continue
            w.writerow(["rep", r["rep"], r["seed"], name, _fmt(r[name]),
                        _fmt(r[f"se_{name}"]), r.get("converged", ""),
                        "", "", "", "", ""])
        if "error" in r:
            w.writerow(["rep", r["rep"], r["seed"], "", "", "", "",
                        r["error"], "", "", "", ""])
    for name in names:
        s = summary[name]
        w.writerow(["summary", "", "", name, "", "", "", "",
                    _fmt(s["bias"]), _fmt(s["rmse"]), _fmt(s["coverage"]),
                    s["n_ok"]])
    _emit(buf.getvalue(), args.output)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="felogit",
        description="fixed-effects logit: differencing, sufficiency, "
        "moment conditions, estimation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_design_flags(p, with_dx=True):
        p.add_argument("--model", help="model-spec JSON file")
        p.add_argument("--design", help="design family name")
        p.add_argument("--T", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--tau", type=int)
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--n3", type=int)
        if with_dx:
            p.add_argument("--d-x", dest="d_x", type=int, default=0)

    p = sub.add_parser("wperp", help="search differencing vectors")
    add_design_flags(p)
    p.add_argument("--max-solutions", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_wperp)

    p = sub.add_parser("table1", help="minimal T per trend degree, as CSV")
    p.add_argument("--max-p", type=int, default=5)
    p.add_argument("--long-run", action="store_true",
                   help="allow the p=6 scan (minutes, not hours, but gated)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("pairs", help="identifying AR(1) pairs")
    add_design_flags(p)
    p.add_argument("--y0", required=True)
    p.add_argument("--theta")
    p.add_argument("--require-gap", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("netcond", help="network conditioning set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--set", choices=["star", "full"], default="star")
    p.add_argument("--theta")
    p.add_argument("--output")
    p.set_defaults(func=cmd_netcond)

    p = sub.add_parser("dset", help="exponent-set size and moment bound")
    add_design_flags(p)
    p.add_argument("--theta")
    p.add_argument("--y0")
    p.add_argument("--x", help="covariate CSV, d_x rows x T columns")
    p.add_argument("--output")
    p.set_defaults(func=cmd_dset)

    p = sub.add_parser("moments", help="null-space moment report")
    add_design_flags(p)
    p.add_argument("--theta")
    p.add_argument("--y0")
    p.add_argument("--x")
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="closed-form moment residuals")
    p.add_argument("--moment", required=True,
                   choices=["ar2_t3", "quarterly_t6", "network_t3"])
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="fit a sample file")
    add_design_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   choices=["cmle", "pairwise", "gmm"])
    p.add_argument("--moments", choices=["ar2_t3", "quarterly_t6"])
    p.add_argument("--weighting", choices=["identity", "two-step"])
    p.add_argument("--init")
    p.add_argument("--wperp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a sample CSV from a DGP config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("FELOGIT_THREADS", "0")) or None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_mc)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except NoInformationError as exc:
        print(f"no information: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
