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
header), or the unit and the period missing or given twice, or the first
byte that is not UTF-8.  The reader scans the text in blocks of ``BLOCK``
characters cut at newlines and keeps only each row's unit, slot, y and
covariates, so a file in the writer's row order takes at most three times
its length in memory, the text included.

``estimate``, ``mc`` and ``verify`` reach every estimator and closed-form
moment library through one table, ``METHODS`` or ``LIBRARIES``; one applied
outside the model it holds for exits 2, naming it and the spec.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace
from functools import partial

import numpy as np

from . import designs, estimation, model, moments, simulate, sufficiency
from .estimation import NoInformationError

SCHEMA = {
    "table1": "felogit.table1.v1",
    "sample": "felogit.sample.v1",
    "edges": "felogit.edges.v1",
    "mc": "felogit.mc.v2",
    "verify": "felogit.verify.v1",
}


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round_floats(obj):
    """``obj`` with floats at 12 significant digits, non-finite ones as
    None: JSON (RFC 8259) has no NaN or infinity."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}") if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text, output):
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        fh.write(text)


def _json_out(doc, output):
    _emit(json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n", output)


def _csv_out(schema, rows, output):
    """Emit the ``schema`` comment line, then ``rows`` as CSV."""
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA[schema]}\n")
    csv.writer(buf).writerows(rows)
    _emit(buf.getvalue(), output)


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


def _layout(spec):
    """A network spec's file is an edge list, any other's a sample CSV: a
    long table, one row per unit and slot (its initial outcomes, then its
    T periods).  Returns the kind, the key columns after ``unit`` with
    their (lo, hi) ranges, each slot's key fields and the key-to-slot map."""
    L0, n, S = spec.y0_len, spec.n, spec.y0_len + spec.T
    if spec.family != model.NETWORK:
        return ("sample", {"t": (1 - L0, spec.T)},
                [str(s - L0 + 1) for s in range(S)], lambda t: t + L0 - 1)
    ds, dyad = model.dyads(n), np.full((n + 1, n + 1), -S)
    for d, (i, j) in enumerate(ds):
        dyad[i + 1, j + 1] = dyad[j + 1, i + 1] = d
    return ("edges", {"tau": (0, spec.tau), "i": (1, n), "j": (1, n)},
            [f"{s // L0},{ds[s % L0][0] + 1},{ds[s % L0][1] + 1}"
             for s in range(S)], lambda tau, i, j: tau * L0 + dyad[i, j])


def write_sample_csv(sample, fh):
    """Write ``sample`` to ``fh`` as its spec's file (see ``_layout``)."""
    spec, n, d_x, L0 = sample.spec, sample.n, sample.spec.d_x, sample.spec.y0_len
    kind, keys, slots, _ = _layout(spec)
    header = ["unit", *keys, "y"] + [f"x{k + 1}" for k in range(d_x)]
    fh.write(f"# schema: {SCHEMA[kind]}\n{','.join(header)}\r\n")
    # One uint8 row per file row: the bytes of its unit, ",key," and y, then
    # its tail, the covariates and "\r\n" from one %-template ('%.12g' % v
    # is f"{v:.12g}"; empty for the y0 slots); the NUL padding is dropped.
    key = np.array([f",{s}," for s in slots], "S").view(np.uint8).reshape(len(slots), -1)
    Y, wu, wk, S = np.hstack([sample.Y0, sample.Y]), len(str(n)), key.shape[1], len(slots)
    for u in range(0, n, 4096):  # blocks of units bound the buffers
        m = min(n - u, 4096)
        X = [] if sample.X is None else sample.X[u:u + m].swapaxes(1, 2).ravel().tolist()
        tails = np.frombuffer(((("," * d_x + "\r\n") * L0 + (",%.12g" * d_x + "\r\n")
                                * spec.T) * m % tuple(X)).encode(), dtype=np.uint8)
        width = np.diff(np.flatnonzero(tails == 10), prepend=-1).reshape(m, S, 1)
        rows = np.zeros((m, S, wu + wk + 1 + width.max()), dtype=np.uint8)
        rows[..., :wu] = np.arange(u + 1, u + m + 1).astype(f"S{wu}").view(
            np.uint8).reshape(m, 1, wu)
        rows[..., wu:wu + wk] = key
        rows[..., wu + wk] = 48 + Y[u:u + m]
        rows[..., wu + wk + 1:][np.arange(rows.shape[2] - wu - wk - 1) < width] = tails
        fh.write(rows[rows != 0].tobytes().decode())


def _columns(what, parsed, lines, rows, cols, dtype):
    """The columns ``{index: (name, lo, hi, expected)}``, ``parsed`` (or
    None) if lo <= value <= hi, else from ``lines()`` in one np.loadtxt
    call; on failure, name the first bad field and its data row."""
    lo, hi = np.array([c[1:3] for c in cols.values()]).T
    if parsed is not None and np.all((parsed >= lo) & (parsed <= hi)):
        return parsed
    lines = lines()
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


class _Lines:
    """A text's lines but blank and comment lines, from one scan of its
    bytes ``b``: data line k from byte ``start[k]`` to the newline at
    ``stop[k]``, with ``fields[k]`` fields and its first comma at
    ``commas[first[k]]``."""

    def __init__(self, text):
        raw = self.raw = f"\n{text}\n".encode()
        b = self.b = np.frombuffer(raw, dtype=np.uint8)
        pos = np.int32 if len(b) < 2**31 else np.int64  # byte positions
        ends, self.commas = (np.flatnonzero(b == c).astype(pos) for c in (10, 44))
        # A blank or comment line is empty (its first byte below is "\n") or
        # starts with whitespace, "#" or a non-ASCII character: test only those.
        first = b[ends[:-1] + 1]
        odd = np.flatnonzero((first <= 32) | (first == 35) | (first >= 127))
        keep = np.delete(np.arange(len(ends) - 1, dtype=pos), [k for k in odd if not (
            line := raw[ends[k] + 1:ends[k + 1]].decode()).strip() or line[0] == "#"])
        at = np.searchsorted(self.commas, ends).astype(pos)
        self.start, self.stop, self.line = ends[keep] + 1, ends[keep + 1], keep + 1
        self.first, self.fields = at[keep], at[keep + 1] - at[keep] + 1

    def strings(self, rows):
        """Data lines ``rows`` as str, a "\r" ending kept."""
        return np.array(self.raw.decode().split("\n"), dtype=object)[self.line[rows]]

    def integers(self, n):
        """The first n fields of each data line as (lines, n) int64, None unless
        all are -?[0-9]{1,18} and each "\r" ends a line (np.loadtxt fails else)."""
        b, commas, first, last = self.b, self.commas, self.first, self.fields - 1
        if (not len(first) or last.min() < n - 1
                or np.any(b[np.flatnonzero(b == 13) + 1] != 10)):
            return None
        K = np.zeros((n, len(first)), dtype=np.int64)
        for c, value in enumerate(K):
            lo = self.start if c == 0 else commas[first + c - 1] + 1
            hi = np.where(last == c, self.stop - (b[self.stop - 1] == 13),
                          commas.take(first + c, mode="clip"))  # clipped where unused
            neg = b[lo] == 45
            width = hi - lo - neg
            if width.min() < 1 or width.max() > 18:
                return None
            for k in range(width.max(), 0, -1):  # the byte k places before hi
                digit = b[hi - k] - 48  # uint8: bytes below "0" wrap past 9
                digit[width < k] = 0
                if digit.max() > 9:
                    return None
                value *= 10
                value += digit
            value[neg] *= -1
        return K.T

    def floats(self, rows, skip, d):
        """Fields skip.. of the data lines ``rows``, (len(rows), d), if each has
        skip + d fields and one np.fromstring call reads them all."""
        if np.any(self.fields[rows] != skip + d):
            return None
        # one ",x1,...,xd" piece per line: from the comma before field ``skip``
        # up to the line's "\r\n" or "\n"
        stop = self.stop[rows]
        cuts = np.column_stack([self.commas[self.first[rows] + skip - 1],
                                stop - (self.b[stop - 1] == 13)]).ravel()
        text = self.b[np.repeat(np.arange(cuts.size + 1) % 2 == 1,
                                np.diff(cuts, prepend=0, append=len(self.b)))]
        with suppress(ValueError):
            X = np.fromstring(text[1:].tobytes(), sep=",")
            # np.fromstring reads a blank field as -1
            blank = np.any(X == -1) and b",," in text[text > 32].tobytes() + b","
            return X.reshape(len(stop), d) if X.size == len(stop) * d and not blank else None


BLOCK = 2**17  # characters a block; its scan's arrays take about ten bytes a character


def read_sample_csv(fh, spec):
    """The Sample in ``fh``, read as ``spec``'s file; bad input raises DataError.

    The text is read whole, not in pieces: ``read(n)`` on a StringIO filled
    by ``write`` copies its buffer to four bytes a character.  It is scanned
    in blocks of about BLOCK characters cut after a newline, and only each
    row's unit, slot, y and covariates outlive its block.  A refused file is
    scanned again as one block, so the message is that of the whole file."""
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{getattr(fh, 'name', 'sample file')}: byte {exc.start} is not "
                        f"UTF-8 ({exc.reason})") from None
    try:
        return _read_blocks(text, spec, BLOCK)
    except DataError:
        return _read_blocks(text, spec, len(text))


def _read_blocks(text, spec, size):
    """``read_sample_csv`` over blocks of about ``size`` characters.  Read as
    one block, a text is refused for its header, then its key columns, i == j,
    the rows of a unit, the covariates and last the field counts."""
    kind, keys, slots, slot_of = _layout(spec)
    what = "sample CSV" if kind == "sample" else "edge CSV"
    big, L0, S, d = np.finfo(float).max, spec.y0_len, len(slots), spec.d_x
    start = 0  # the header is the first line neither blank nor a comment
    while (line := text[start:text.find("\n", start) + 1 or len(text)]) and (
            not line.strip() or line[0] == "#"):
        start += len(line)
    head, start = line.strip().split(","), start + len(line)
    bounds = {"unit": (-big, big), **keys, "y": (0, 1)}
    if kind == "edges" and head[:1] == ["tau"]:  # one network, no unit column
        del bounds["unit"]
    columns = [*bounds, *(f"x{k + 1}" for k in range(d))]
    refusal = DataError(f"{what} must start with columns {','.join(columns)} "
                        "and hold data rows")
    if head != columns:
        raise refusal
    blocks, fields, m = [], [], 0  # m: the data rows before a block

    def scan(start, stop):
        """Keep the units, slots, y and covariates of the data rows in
        text[start:stop]; the block's other arrays go when it returns."""
        nonlocal m
        lines = _Lines(text[start:stop])
        if not len(lines.start):
            return
        K = _columns(what, lines.integers(len(bounds)), lambda: lines.strings(slice(None)),
                     range(m, m + len(lines.start)), {
            c: (name, lo, hi, "0 or 1" if name == "y" else "an integer" if name == "unit"
                else f"an integer in {lo}..{hi}")
            for c, (name, (lo, hi)) in enumerate(bounds.items())}, np.int64)
        slot = slot_of(*K[:, -len(keys) - 1:-1].T)
        bad = np.flatnonzero(slot < 0)  # an edge with i == j
        if bad.size:
            raise DataError(f"{what} data row {m + bad[0] + 1}: i and j must differ")
        bad = np.flatnonzero(lines.fields != len(columns))
        fields.extend((m + k, lines.fields[k]) for k in bad[:1])
        parsed = lines.floats(np.flatnonzero(slot >= L0), len(bounds), d) if d else None
        # a run of rows of one unit, as the writer emits them, is one id; the
        # ids of all blocks are made unique after the last block
        u = K[:, 0] if "unit" in bounds else np.ones_like(slot)
        new = np.r_[True, u[1:] != u[:-1]]
        ids, unit = u[new], np.cumsum(new) - 1
        blocks.append((start, stop, m, ids, unit.astype(np.min_scalar_type(len(ids))),
                       slot.astype(np.min_scalar_type(-S)), K[:, -1].astype(np.int8), parsed))
        m += len(lines.start)

    while start < len(text):
        stop = text.find("\n", start + size) + 1 or len(text)
        scan(start, stop)
        start = stop
    if not m:
        raise refusal
    units, where = np.unique(np.concatenate([b[3] for b in blocks]), return_inverse=True)
    Y, at = np.full((len(units), S), 2, dtype=np.int8), 0  # 2: no row yet
    for b, (start, stop, row, ids, unit, slot, y, parsed) in enumerate(blocks):
        blocks[b] = start, stop, row, where[at:][unit] * S + slot, parsed
        np.put(Y, blocks[b][3], y)
        at += len(ids)
    if m != Y.size or np.any(Y == 2):  # a unit has a row missing or repeated
        count = np.bincount(np.concatenate([b[3] for b in blocks]), minlength=Y.size)
        u, s = divmod(int(np.flatnonzero(count != 1)[0]), S)
        raise DataError(f"{what}: unit {units[u]} has {count[u * S + s] or 'no'} "
                        f"rows for {','.join(keys)} = {slots[s]}")
    X = np.empty((len(units), d, spec.T)) if d else None
    for start, stop, row, key, parsed in blocks if d else ():
        rows = np.flatnonzero(key % S >= L0)
        X[key[rows] // S, :, key[rows] % S - L0] = _columns(
            what, parsed, lambda: _Lines(text[start:stop]).strings(rows), row + rows,
            {len(bounds) + c: (f"x{c + 1}", -big, big, "a finite number")
             for c in range(d)}, float)
    if fields:  # counted last, so that a short row names its missing field first
        row, found = fields[0]
        raise DataError(f"{what} data row {row + 1}: expected {len(columns)} "
                        f"fields, found {found}")
    return estimation.Sample(spec=spec, Y=Y[:, L0:], Y0=Y[:, :L0], X=X)


# -- subcommands --------------------------------------------------------------


def cmd_wperp(args):
    if args.max_solutions is not None and args.max_solutions < 1:
        raise DataError(f"--max-solutions must be at least 1, found {args.max_solutions}")
    spec = _load_spec(args)
    sols = designs.find_wperp(spec.W, max_solutions=args.max_solutions)
    _json_out([[int(v) for v in s] for s in sols], args.output)
    if not sols:
        print("no differencing vector exists for this design", file=sys.stderr)
        return 3
    return 0


def cmd_table1(args):
    if not 0 <= args.max_p <= 6:
        bound = "at most 6" if args.max_p > 6 else "at least 0"
        raise DataError(f"--max-p must be {bound}, found {args.max_p}")
    out = [["p", "T", "w_perp"]]
    for p in range(args.max_p + 1):
        T, vec = designs.minimal_T_polytrend(p)
        out.append([p, T, " ".join(str(int(v)) for v in vec)])
    _csv_out("table1", out, args.output)
    return 0


def cmd_pairs(args):
    spec = _load_spec(args)
    if spec.family != model.AR or spec.p != 1:
        raise DataError(f"pairs needs an AR(1) design (--p 1), found {spec!r}")
    if spec.d_x:
        raise DataError(f"pairs is covariate-free (--d-x 0), found d_x = {spec.d_x}")
    y0 = _parse_bits(args.y0, "--y0", spec.y0_len)
    theta = _parse_vec(args.theta, "--theta", length=spec.theta_dim)
    certs = sufficiency.enumerate_pairs_ar1(spec, y0, require_gap=args.require_gap,
                                            theta=theta)
    cols = {k: getattr(certs, k).tolist()
            for k in ("y", "y_tilde", "transition_gap", "log_ratio")}
    _json_out([dict(zip(cols, row)) for row in zip(*cols.values())], args.output)
    return 0 if certs else 3


def cmd_netcond(args):
    with _rejected_as("--n"):
        spec = designs.build_design("network", d_x=0, n=args.n, tau=3)
    y = _parse_bits(args.path, "--path", spec.T)
    y0 = _parse_bits(args.y0, "--y0", spec.y0_len)
    cond = (sufficiency.network_cond_full if args.set == "full"
            else sufficiency.network_cond_star)(spec, y)
    doc = {"kind": cond.kind, "size": len(cond), "members": cond.members.tolist()}
    if args.theta is not None:
        theta = _parse_vec(args.theta, "--theta", length=spec.theta_dim)
        doc["likelihood"] = sufficiency.network_cond_likelihood(
            spec, theta, y, y0, cond
        )
    _json_out(doc, args.output)
    return 0


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


def _exponent_set(args):
    """The spec, theta, y0 and X of the flags, the caps Q and the DSet."""
    spec = _load_spec(args)
    theta = _parse_vec(args.theta, "--theta", length=spec.theta_dim)
    theta = np.zeros(spec.theta_dim) if theta is None else theta
    y0 = (_parse_bits(args.y0, "--y0", spec.y0_len) if args.y0
          else np.zeros(spec.y0_len, dtype=np.int8))
    if spec.d_x and args.x is None:
        raise DataError(f"--x is required: a covariate CSV of d_x x T = {(spec.d_x, spec.T)}")
    X = _load_X(spec, args.x)
    Q = moments.qt_values(spec, y0, X, theta)
    return spec, theta, y0, X, Q, moments.build_dset(spec, Q)


def cmd_dset(args):
    spec, _, _, _, Q, ds = _exponent_set(args)
    _json_out({"Q": list(Q), "cardinality": ds.cardinality,
               "bound": 2**spec.T - ds.cardinality}, args.output)
    return 0


def cmd_moments(args):
    spec, theta, y0, X, Q, ds = _exponent_set(args)
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


# -- the method catalogue ------------------------------------------------------
# A closed-form moment library holds under ``reference(d_x)``, its model at
# d_x covariates, and each spec of the same family, sizes and d_x whose W rows
# lie in the row space of its W; ``evaluator(spec, doc)`` is its GMM evaluator
# or None.  ``verify`` draws under reference(1), theta ~ U(+-h), A ~ U(+-g),
# and ``named`` gives the (name, MomentFunction) pairs of one draw.
Library = namedtuple("Library", "reference evaluator h g named")
LIBRARIES = {
    "ar2_t3": Library(
        lambda d_x: designs.panel_ar(2, 3),
        lambda spec, doc: moments.Ar2T3Moments(), 1.5, 5,
        lambda spec, rng, theta, y0, X: [("ar2_t3", moments.closed_form_ar2_T3(y0, theta))]),
    "quarterly_t6": Library(
        lambda d_x: designs.quarterly_ar(1, 6, d_x),
        lambda spec, doc: moments.QuarterlyT6Moments(spec.d_x, doc.get("instruments", True)),
        1, 3, lambda spec, rng, theta, y0, X: zip(
            ("quarterly_m1", "quarterly_m2"),
            moments.closed_form_quarterly_T6(theta, y0[0], X))),
    "network_t3": Library(
        lambda d_x: model.network_design(3, 3, d_x), None, 0.8, 2,
        lambda spec, rng, theta, y0, X: [(
            "network_t3", moments.closed_form_network_transition(
                spec, rng.integers(0, 2, spec.y0_len), theta, y0, X))]),
}


def cmd_verify(args):
    lib, rng = LIBRARIES[args.moment], np.random.default_rng(args.seed)
    spec, out = lib.reference(1), [["draw", "moment", "residual"]]
    for draw in range(args.draws):
        theta = rng.uniform(-lib.h, lib.h, spec.theta_dim)
        X = rng.normal(size=(spec.d_x, spec.T)) if spec.d_x else None
        y0 = rng.integers(0, 2, spec.y0_len)
        named = lib.named(spec, rng, theta, y0, X)  # may draw before the grid
        grid = rng.uniform(-lib.g, lib.g, (10, spec.d_w))
        out += [[draw, name, _fmt(moments.verify_moment(m, spec, y0, X, theta, grid))]
                for name, m in named]
    _csv_out("verify", out, args.output)
    return 0


def _cmle(doc, spec, init):
    return partial(estimation.cmle, init=init)


def _pairwise(doc, spec, init):
    sols = doc["wperp"] if "wperp" in doc else designs.find_wperp(spec.W, max_solutions=16)
    if not len(sols):
        raise NoInformationError("design admits no differencing vector")
    for w in doc.get("wperp", ()):
        v = np.asarray(w)
        if (v.shape != (spec.T,) or not set(v.tolist()) <= {-1, 0, 1} or not v.any()
                or np.abs(spec.W @ v).max() > 1e-9 * np.abs(spec.W).sum()):
            raise DataError(f"differencing vector {w} must have length {spec.T}, entries in "
                            f"-1, 0, 1, a nonzero entry and W w = 0 under {spec!r}")
    return partial(estimation.cmle_pairwise, Wperp=np.asarray(sols, dtype=np.int64).T,
                   init=init)


def _gmm(doc, spec, init):
    name = doc.get("moments", "ar2_t3")
    lib = LIBRARIES.get(name)
    if lib is None or lib.evaluator is None:
        raise DataError(f"unknown GMM moment set {name!r}")
    ref, rank = lib.reference(spec.d_x), np.linalg.matrix_rank
    sizes = [(s.family, s.sizes, s.T, s.d_x) for s in (ref, spec)]
    if sizes[0] != sizes[1] or rank(np.vstack([ref.W, spec.W])) != rank(ref.W):
        raise DataError(f"moment library {name} holds under {ref!r} and the designs "
                        f"whose W rows lie in its row space, found {spec!r}")
    weighting = doc.get("weighting", "two-step")
    if weighting not in WEIGHTINGS:
        raise DataError(f"weighting must be {' or '.join(WEIGHTINGS)}, found {weighting!r}")
    return partial(estimation.gmm, moments=lib.evaluator(spec, doc), init=init,
                   weighting=weighting)


WEIGHTINGS = ("identity", "two-step")
METHODS = {  # name: (estimator builder, {family it takes: least d_x})
    "cmle": (_cmle, {model.STATIC: 1, model.AR: 0, model.NETWORK: 0}),
    "pairwise": (_pairwise, {model.STATIC: 1}),
    "gmm": (_gmm, None),  # the moment library decides
}


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
        write_sample_csv(sample, fh)
    return 0


def _build_estimator(doc, spec):
    """The estimator that ``doc`` names for samples of ``spec``; a method or
    moment library that does not hold under ``spec`` raises DataError."""
    method = doc["method"]
    init = np.asarray(doc.get("init", np.zeros(spec.theta_dim)), dtype=float)
    if init.shape != (spec.theta_dim,):
        raise DataError(f"init must have length {spec.theta_dim}, found {init.size}")
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}")
    build, takes = METHODS[method]
    if takes is not None and spec.d_x < takes.get(spec.family, np.inf):
        rules = " or ".join(f"{family} designs" + (f" with d_x >= {k}" if k else "")
                            for family, k in takes.items())
        raise DataError(f"{method} takes {rules}, found {spec!r}")
    return build(doc, spec, init)


def cmd_estimate(args):
    spec = _load_spec(args)
    with open(args.data, encoding="utf-8") as fh:
        sample = read_sample_csv(fh, spec)
    doc = {key: getattr(args, key) for key in ("method", "moments", "weighting")
           if getattr(args, key)}
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
    source, value = ("mc config", doc["threads"]) if "threads" in doc else ("default", 1)
    if args.threads is not None:
        source, value = "--threads", args.threads
    elif env := os.environ.get("FELOGIT_THREADS"):
        source, value = "FELOGIT_THREADS", env
        with suppress(ValueError):
            value = int(env)
    with _rejected_as(source):
        threads = model.checked_int("threads", value, 1)
    print(f"# threads: {json.dumps({'threads': threads, 'source': source})}", file=sys.stderr)
    rows, summary = simulate.monte_carlo(cfg, estimator, reps, threads=threads)
    out = [["kind", "rep", "seed", "name", "estimate", "se",
            "converged", "error", "bias", "rmse", "coverage", "n_ok", "elapsed_s"]]
    names = [k for k in summary if k != "n_failed"]
    for r in rows:
        for name in names:
            if name not in r:
                continue
            out.append(["rep", r["rep"], r["seed"], name, _fmt(r[name]),
                        _fmt(r[f"se_{name}"]), r.get("converged", ""),
                        "", "", "", "", "", _fmt(r["elapsed_s"])])
        if "error" in r:
            out.append(["rep", r["rep"], r["seed"], "", "", "", "",
                        r["error"], "", "", "", "", _fmt(r["elapsed_s"])])
    for name in names:
        s = summary[name]
        out.append(["summary", "", "", name, "", "", "", "",
                    _fmt(s["bias"]), _fmt(s["rmse"]), _fmt(s["coverage"]),
                    s["n_ok"], ""])
    _csv_out("mc", out, args.output)
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
        for size in ("T", "p", "n", "tau", "n1", "n2", "n3"):
            p.add_argument(f"--{size}", type=int)
        p.add_argument("--d-x", dest="d_x", type=int, default=0)

    p = sub.add_parser("wperp", help="search differencing vectors")
    add_design_flags(p)
    p.add_argument("--max-solutions", type=int)
    p.set_defaults(func=cmd_wperp)

    p = sub.add_parser("table1", help="minimal T per trend degree, as CSV")
    p.add_argument("--max-p", type=int, default=5)
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
    p.add_argument("--moment", required=True, choices=list(LIBRARIES))
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="fit a sample file")
    add_design_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--moments", choices=[k for k, lib in LIBRARIES.items() if lib.evaluator])
    p.add_argument("--weighting", choices=WEIGHTINGS)
    p.add_argument("--init")
    p.add_argument("--wperp")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a sample CSV from a DGP config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_mc)
    for p in sub.choices.values():
        p.add_argument("--output")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"# config: {json.dumps(_round_floats(cfg), default=str)}", file=sys.stderr)
    try:
        return args.func(args)
    except NoInformationError as exc:
        print(f"no information: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # every file the command reads is named by the user
        refused = (DataError, FileNotFoundError, model.TooLarge, model.NoExactKey)
        return 2 if isinstance(exc, refused) else 1


if __name__ == "__main__":
    sys.exit(main())
