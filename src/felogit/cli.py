"""Command-line interface.

Subcommands: wperp, table1, pairs, netcond, dset, moments, verify,
estimate, simulate, mc.  Exit codes: 0 success, 2 usage error or size
refusal, 3 degenerate outcome (no differencing vector, no identifying
information), 1 internal error.  Every run echoes its resolved
configuration to stderr; numeric output carries 12 significant digits.

File schemas (versioned in the emitted ``schema`` comment):

* model JSON: ``{"schema_version": 1, "family", "T", "d_x", "W", "p",
  "n", "tau"}`` with W row-major.
* sample CSV: header exactly ``unit,t,y,x1..xd`` (d = d_x, covariates
  in order), one row per unit and t in 1-L0..T; rows with t <= 0 hold
  the L0 initial outcomes (covariates ignored there).
* network edge list CSV: header exactly ``unit,tau,i,j,y,x1..xd``, one
  row per unit, tau in 0..tau and dyad i != j (the unit column may be
  omitted for a single network); tau = 0 rows hold the initial network.

Rows may come in any order, with blank and "#" lines anywhere.  y is 0
or 1 and covariates are finite.  A malformed file is a usage error: it
exits 2 with a message naming the data row (counted from 1 after the
header), or the unit and the period missing or given twice.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace

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
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        fh.write(text)


def _json_out(doc, output):
    _emit(json.dumps(_round_floats(doc), indent=2) + "\n", output)


class DataError(ValueError):
    """Malformed input data: a sample, edge-list or covariate file, or a
    vector given on the command line.  The CLI exits with code 2."""


def _parse_vec(text, flag, dtype=float, length=None):
    """A vector written as separated numbers, optionally of a set length."""
    if text is None:
        return None
    try:
        vec = np.array([dtype(p) for p in text.replace(",", " ").split()])
    except ValueError:
        raise DataError(f"{flag} must be a list of numbers, found {text!r}") from None
    if length is not None and vec.shape != (length,):
        raise DataError(f"{flag} must have length {length}, found {vec.size}")
    return vec


def _parse_bits(text, flag, length):
    """A 0/1 vector of the given length, written as digits ("010") or
    as separated values ("0,1,0")."""
    text = text.strip()
    bits = text.replace(",", " ").split() if "," in text or " " in text else list(text)
    if len(bits) != length or any(b not in ("0", "1") for b in bits):
        raise DataError(f"{flag} must be a 0/1 vector of length {length}, found {text!r}")
    return np.array([int(b) for b in bits], dtype=np.int8)


@contextmanager
def _rejected_as(what):
    """Report a KeyError, TypeError or ValueError raised while reading a
    document or a design as a DataError that names ``what``."""
    try:
        yield
    except DataError:
        raise
    except KeyError as exc:
        raise DataError(f"{what} lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: {exc}") from None


def _load_spec(args):
    """The spec in --model FILE, or the catalogued --design NAME built
    from the design flags that it takes."""
    path, name = getattr(args, "model", None), getattr(args, "design", None)
    if path:
        with open(path) as fh, _rejected_as(f"model JSON {path}"):
            return model.ModelSpec.from_json(fh.read())
    if name is None:
        raise DataError("provide --model FILE or --design NAME")
    sizes = designs.DESIGNS[name][1] if name in designs.DESIGNS else {}
    with _rejected_as("--design"):
        return designs.build_design(name, d_x=getattr(args, "d_x", None) or 0,
                                    **{k: getattr(args, k, None) for k in sizes})


# -- sample CSV and network edge list -----------------------------------------


def _layout(spec, kind):
    """Both files are long tables with one row per unit and slot: its
    initial-condition outcomes, then its T periods.  Returns the key
    columns after ``unit`` with their (lo, hi) ranges, each slot's key
    fields as written, and the map from key values to slots."""
    L0, n, S = spec.y0_len, spec.n, spec.y0_len + spec.T
    if kind == "sample":
        return ({"t": (1 - L0, spec.T)}, [str(s - L0 + 1) for s in range(S)],
                lambda t: t + L0 - 1)
    ds, dyad = model.dyads(n), np.full((n + 1, n + 1), -S)
    for d, (i, j) in enumerate(ds):
        dyad[i + 1, j + 1] = dyad[j + 1, i + 1] = d
    return ({"tau": (0, spec.tau), "i": (1, n), "j": (1, n)},
            [f"{s // L0},{ds[s % L0][0] + 1},{ds[s % L0][1] + 1}"
             for s in range(S)], lambda tau, i, j: tau * L0 + dyad[i, j])


def _write_long(sample, fh, kind):
    spec, n, d_x, L0 = sample.spec, sample.n, sample.spec.d_x, sample.spec.y0_len
    keys, slots, _ = _layout(spec, kind)
    header = ["unit", *keys, "y"] + [f"x{k + 1}" for k in range(d_x)]
    fh.write(f"# schema: {SCHEMA[kind]}\n{','.join(header)}\r\n")
    # One %-template per unit, filled in one call with each slot's unit,
    # y and covariates ('%.12g' % v is f"{v:.12g}"; "" for the y0 slots).
    unit = "".join(f"%s,{key},%s{(',%.12g' if s >= L0 else ',%s') * d_x}\r\n"
                   for s, key in enumerate(slots))
    V = np.full((n, len(slots), 2 + d_x), "", dtype=object)
    V[..., 0] = np.array(list(map(str, range(1, n + 1))), dtype=object)[:, None]
    V[..., 1] = np.array(["0", "1"], dtype=object)[np.hstack([sample.Y0, sample.Y])]
    if d_x:
        V[:, L0:, 2:] = sample.X.transpose(0, 2, 1)
    fh.write((unit * n) % tuple(V.ravel().tolist()))


def _columns(what, lines, rows, cols, dtype):
    """Parse the columns ``{index: (name, lo, hi, expected)}`` of all
    ``lines`` in one call and check lo <= value <= hi.  On failure, name
    the first bad field and its data row (line k holds row rows[k])."""
    lo, hi = np.array([c[1:3] for c in cols.values()]).T
    try:
        A = np.loadtxt(lines, delimiter=",", usecols=list(cols), dtype=dtype,
                       ndmin=2, comments=None)
        if np.all((A >= lo) & (A <= hi)):
            return A
    except ValueError:
        pass
    for row, line in zip(rows, lines):
        fields = line.rstrip("\r\n").split(",")
        for c, (name, lo, hi, expected) in cols.items():
            text = fields[c] if c < len(fields) else ""
            try:
                if lo <= dtype(text) <= hi:
                    continue
            except (ValueError, OverflowError):
                pass
            raise DataError(f"{what} data row {row + 1}: {name} must be "
                            f"{expected}, found {text!r}")
    raise DataError(f"{what}: cannot parse the data rows")


def _lines(text):
    """The lines of ``text`` other than blank and comment lines, and the
    number of fields in each.  A function of its own, so that the text
    and its bytes are freed before the columns are parsed."""
    lines = np.array(text.split("\n"), dtype=object)
    # A blank or comment line is empty (its first byte below is "\n") or
    # starts with whitespace, "#" or a non-ASCII character: test only those.
    b = np.frombuffer(f"\n{text}\n".encode(), dtype=np.uint8)
    ends = np.flatnonzero(b == 10)  # line k lies between ends[k] and ends[k + 1]
    first = b[ends[:-1] + 1]
    odd = np.flatnonzero((first <= 32) | (first == 35) | (first >= 127))
    skip = [k for k in odd if not lines[k].strip() or lines[k].startswith("#")]
    fields = np.diff(np.searchsorted(np.flatnonzero(b == 44), ends)) + 1
    return np.delete(lines, skip), np.delete(fields, skip)


def _read_long(fh, spec, kind):
    keys, slots, slot_of = _layout(spec, kind)
    what = "sample CSV" if kind == "sample" else "edge CSV"
    big = np.finfo(float).max
    lines, fields = _lines(fh.read())
    head = lines[0].strip().split(",") if len(lines) else []
    bounds = {"unit": (-big, big), **keys, "y": (0, 1)}
    if kind == "edges" and head[:1] == ["tau"]:  # one network, no unit column
        del bounds["unit"]
    columns = [*bounds, *(f"x{k + 1}" for k in range(spec.d_x))]
    if head != columns or len(lines) < 2:
        raise DataError(f"{what} must start with columns {','.join(columns)} "
                        "and hold data rows")
    body, L0, S = lines[1:], spec.y0_len, len(slots)
    K = _columns(what, body, range(len(body)), {
        c: (m, lo, hi, "0 or 1" if m == "y" else "an integer" if m == "unit"
            else f"an integer in {lo}..{hi}")
        for c, (m, (lo, hi)) in enumerate(bounds.items())}, np.int64)
    slot = slot_of(*K[:, -len(keys) - 1:-1].T)
    bad = np.flatnonzero(slot < 0)  # an edge with i == j
    if bad.size:
        raise DataError(f"{what} data row {bad[0] + 1}: i and j must differ")
    units, unit = np.unique(K[:, 0] if "unit" in bounds else np.ones_like(slot),
                            return_inverse=True)
    key = unit * S + slot
    count = np.bincount(key, minlength=len(units) * S)
    bad = np.flatnonzero(count != 1)
    if bad.size:
        u, s = divmod(int(bad[0]), S)
        raise DataError(f"{what}: unit {units[u]} has {count[bad[0]] or 'no'} "
                        f"rows for {','.join(keys)} = {slots[s]}")
    Y, X = np.empty((len(units), S), dtype=np.int8), None
    np.put(Y, key, K[:, -1])
    if spec.d_x:
        rows = np.flatnonzero(slot >= L0)
        X = np.empty((len(units), spec.d_x, spec.T))
        X[unit[rows], :, slot[rows] - L0] = _columns(
            what, body[rows], rows,
            {len(bounds) + k: (f"x{k + 1}", -big, big, "a finite number")
             for k in range(spec.d_x)}, float)
    # counted last, so that a short row names its missing field first
    bad = np.flatnonzero(fields[1:] != len(columns))
    if bad.size:
        raise DataError(f"{what} data row {bad[0] + 1}: expected {len(columns)} "
                        f"fields, found {fields[bad[0] + 1]}")
    return estimation.Sample(spec=spec, Y=Y[:, L0:], Y0=Y[:, :L0], X=X)


def write_sample_csv(sample, fh):
    """Write ``sample`` to the text file ``fh`` as a sample CSV."""
    _write_long(sample, fh, "sample")


def read_sample_csv(fh, spec):
    """The Sample in the sample CSV ``fh``; bad input raises DataError."""
    return _read_long(fh, spec, "sample")


def write_edge_csv(sample, fh):
    _write_long(sample, fh, "edges")


def read_edge_csv(fh, spec):
    return _read_long(fh, spec, "edges")


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
    y0 = _parse_bits(args.y0, "--y0", spec.y0_len)
    theta = _parse_vec(args.theta, "--theta", length=spec.theta_dim)
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
    with _rejected_as("--n"):
        spec = designs.build_design("network", d_x=0, n=args.n, tau=3)
    y = _parse_bits(args.path, "--path", spec.T)
    y0 = _parse_bits(args.y0, "--y0", spec.y0_len)
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
        theta = _parse_vec(args.theta, "--theta", length=spec.theta_dim)
        doc["likelihood"] = sufficiency.network_cond_likelihood(
            spec, theta, y, y0, cond
        )
    _json_out(doc, args.output)
    return 0


def _theta_or_zero(spec, text):
    theta = _parse_vec(text, "--theta", length=spec.theta_dim)
    return np.zeros(spec.theta_dim) if theta is None else theta


def _load_X(spec, path):
    if path is None:
        return None
    with _rejected_as("covariate CSV"):
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    if X.shape != (spec.d_x, spec.T):
        raise DataError(f"covariate CSV must be d_x x T = {(spec.d_x, spec.T)}, "
                        f"found {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("covariate CSV entries must be finite")
    return X


def cmd_dset(args):
    spec = _load_spec(args)
    theta = _theta_or_zero(spec, args.theta)
    y0 = (_parse_bits(args.y0, "--y0", spec.y0_len) if args.y0
          else np.zeros(spec.y0_len, dtype=np.int8))
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
    y0 = (_parse_bits(args.y0, "--y0", spec.y0_len) if args.y0
          else np.zeros(spec.y0_len, dtype=np.int8))
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
    """The DGPConfig of a config's ``design`` or ``model``, ``theta``,
    ``n``, ``seed`` and laws."""
    with _rejected_as("DGP config"):
        if "model" in doc:
            spec = model.ModelSpec.from_json(json.dumps(doc["model"]))
        else:
            design = {"d_x": 0, **doc["design"]}
            spec = designs.build_design(design.pop("design", None), **design)
        return simulate.DGPConfig(
            spec=spec, theta=doc["theta"], n=doc["n"], seed=doc.get("seed", 0),
            **{key: doc[key] for key in simulate.LAWS if key in doc})


def cmd_simulate(args):
    with open(args.config) as fh, _rejected_as(f"{args.config} is not JSON"):
        doc = json.load(fh)
    cfg = _dgp_from_doc(doc)
    if args.seed is not None:
        with _rejected_as("--seed"):
            cfg = replace(cfg, seed=args.seed)
    sample = simulate.generate(cfg)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
        _write_long(sample, fh,
                    "edges" if cfg.spec.family == model.NETWORK else "sample")
    return 0


def _build_estimator(doc, spec):
    method = doc["method"]
    init = np.asarray(doc["init"], dtype=float) if "init" in doc else None
    if init is not None and init.shape != (spec.theta_dim,):
        raise DataError(f"init must have length {spec.theta_dim}, found {init.size}")

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
            raise DataError(f"unknown moment set {name!r}")
        start = np.zeros(spec.theta_dim) if init is None else init
        weighting = doc.get("weighting", "two-step")
        return lambda s: estimation.gmm(s, ev, start, weighting=weighting)
    raise DataError(f"unknown method {method!r}")


def cmd_estimate(args):
    spec = _load_spec(args)
    with open(args.data) as fh:
        sample = _read_long(
            fh, spec, "edges" if spec.family == model.NETWORK else "sample")
    doc = {"method": args.method}
    if args.moments:
        doc["moments"] = args.moments
    if args.weighting:
        doc["weighting"] = args.weighting
    if args.init:
        doc["init"] = _parse_vec(args.init, "--init", length=spec.theta_dim).tolist()
    if args.wperp:
        doc["wperp"] = [_parse_vec(args.wperp, "--wperp", dtype=int).tolist()]
    report = _build_estimator(doc, spec)(sample)
    _json_out(report.as_dict(), args.output)
    return 0


def cmd_mc(args):
    with open(args.config) as fh, _rejected_as(f"{args.config} is not JSON"):
        doc = json.load(fh)
    with _rejected_as("mc config"):
        cfg = _dgp_from_doc(doc["dgp"])
        estimator = _build_estimator(doc["estimator"], cfg.spec)
        reps = model.checked_int("replications", doc.get("replications"), 1)
        threads = args.threads or model.checked_int("threads", doc.get("threads", 1), 1)
    rows, summary = simulate.monte_carlo(cfg, estimator, reps, threads=threads)
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

    def add_design_flags(p):
        p.add_argument("--model", help="model-spec JSON file")
        p.add_argument("--design", help="design family name")
        p.add_argument("--T", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--tau", type=int)
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--n3", type=int)
        p.add_argument("--d-x", dest="d_x", type=int, default=0)

    p = sub.add_parser("wperp", help="search differencing vectors")
    add_design_flags(p)
    p.add_argument("--max-solutions", type=int)
    p.set_defaults(func=cmd_wperp)

    p = sub.add_parser("table1", help="minimal T per trend degree, as CSV")
    p.add_argument("--max-p", type=int, default=5)
    p.add_argument("--long-run", action="store_true",
                   help="allow the p=6 scan (T up to 31)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("pairs", help="identifying AR(1) pairs")
    add_design_flags(p)
    p.add_argument("--y0", required=True)
    p.add_argument("--theta")
    p.add_argument("--require-gap", action="store_true")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("netcond", help="network conditioning set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--set", choices=["star", "full"], default="star")
    p.add_argument("--theta")
    p.set_defaults(func=cmd_netcond)

    p = sub.add_parser("dset", help="exponent-set size and moment bound")
    add_design_flags(p)
    p.add_argument("--theta")
    p.add_argument("--y0")
    p.add_argument("--x", help="covariate CSV, d_x rows x T columns")
    p.set_defaults(func=cmd_dset)

    p = sub.add_parser("moments", help="null-space moment report")
    add_design_flags(p)
    p.add_argument("--theta")
    p.add_argument("--y0")
    p.add_argument("--x")
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="closed-form moment residuals")
    p.add_argument("--moment", required=True,
                   choices=["ar2_t3", "quarterly_t6", "network_t3"])
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a sample CSV from a DGP config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("FELOGIT_THREADS", "0")) or None)
    p.set_defaults(func=cmd_mc)
    for p in sub.choices.values():
        p.add_argument("--output")
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
        # every file the command reads is named by the user
        return 2 if isinstance(exc, (DataError, FileNotFoundError, model.TooLarge)) else 1


if __name__ == "__main__":
    sys.exit(main())
