"""Line-oriented key=value configs and deterministic result files.

Scenario, model, body and profile files are plain text, one `key = value`
per line, `#` comments allowed.  Repeated keys are kept in order (vertex
and generator lists rely on this).  Result files are CSV with a comment
header carrying run metadata (seed included) and a column row, floats
printed with 17 significant digits so reruns are byte-identical, plus a
JSON summary with one pass/fail entry per check.
"""

import json
import os
from dataclasses import replace

import numpy as np

from .convex import box_body, cone_body, interval_body, polytope_body, segment_body
from .model import QuadraticModel
from .transform import bump_profile

__all__ = [
    "ConfigError",
    "ParseError",
    "MissingReferenceError",
    "KVFile",
    "parse_kv_file",
    "load_model",
    "load_body",
    "load_profile",
    "Scenario",
    "load_scenarios",
    "fmt17",
    "write_csv",
    "write_json",
]


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    pass


class MissingReferenceError(ConfigError):
    pass


class KVFile:
    """Ordered key=value pairs from one file."""

    def __init__(self, path, pairs):
        self.path = path
        self.pairs = pairs

    def getall(self, key):
        return [v for k, v in self.pairs if k == key]

    def get(self, key, default=None):
        vals = self.getall(key)
        if not vals:
            return default
        if len(vals) > 1:
            raise ParseError(f"{self.path}: key {key!r} given {len(vals)} times")
        return vals[0]

    def require(self, key):
        val = self.get(key)
        if val is None:
            raise ParseError(f"{self.path}: missing required key {key!r}")
        return val

    def keys(self):
        return [k for k, _ in self.pairs]


def parse_kv_file(path):
    if not os.path.isfile(path):
        raise MissingReferenceError(f"no such file: {path}")
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            pairs.append((key.strip(), val.strip()))
    return KVFile(path, pairs)


def _floats(text, path, key):
    """The one number parser: comma or space separated floats, else ParseError."""
    try:
        return [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"{path}: key {key!r} is not a list of numbers: {text!r}")


def _number(text, path, key):
    """Exactly one number, read by `_floats`."""
    vals = _floats(text, path, key)
    if len(vals) != 1:
        raise ParseError(f"{path}: key {key!r} is not a number: {text!r}")
    return vals[0]


def _integer(val, path, key):
    """A number read for an integer key, as an int; ParseError if it is not one."""
    if not float(val).is_integer():
        raise ParseError(f"{path}: key {key!r} is not an integer: {val!r}")
    return int(val)


def load_model(path):
    """Model file: keys n, m and A_1..A_m as row-major re,im pairs."""
    kv = parse_kv_file(path)
    try:
        n = int(kv.require("n"))
        m = int(kv.require("m"))
    except ValueError as exc:
        raise ParseError(f"{path}: n and m must be integers ({exc})")
    mats = np.empty((m, n, n), complex)
    for k in range(m):
        flat = _floats(kv.require(f"A_{k + 1}"), path, f"A_{k + 1}")
        if len(flat) != 2 * n * n:
            raise ParseError(
                f"{path}: A_{k + 1} needs {n * n} re,im pairs, got {len(flat) / 2:g}"
            )
        arr = np.asarray(flat).reshape(n * n, 2)
        mats[k] = (arr[:, 0] + 1j * arr[:, 1]).reshape(n, n)
    try:
        return QuadraticModel(mats)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


def load_body(path):
    """Body file: kind plus its parameters (interval, box, segment,
    polytope with vertex= lines, cone with generator= lines)."""
    kv = parse_kv_file(path)
    kind = kv.require("kind")
    try:
        if kind == "interval":
            return interval_body(_number(kv.require("lo"), path, "lo"),
                                 _number(kv.require("hi"), path, "hi"))
        if kind == "box":
            lo = _floats(kv.require("lo"), path, "lo")
            hi = _floats(kv.require("hi"), path, "hi")
            return box_body(lo, hi)
        if kind == "segment":
            return segment_body(
                _floats(kv.require("a"), path, "a"), _floats(kv.require("b"), path, "b")
            )
        if kind == "polytope":
            rows = [_floats(v, path, "vertex") for v in kv.getall("vertex")]
            if not rows:
                raise ParseError(f"{path}: polytope needs vertex= lines")
            return polytope_body(np.asarray(rows))
        if kind == "cone":
            rows = [_floats(v, path, "generator") for v in kv.getall("generator")]
            if not rows:
                raise ParseError(f"{path}: cone needs generator= lines")
            return cone_body(np.asarray(rows))
    except ValueError as exc:  # a constructor's refusal, such as an empty interval
        raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: unknown body kind {kind!r}")


def load_profile(path, body):
    """Profile file: a shaped density on the body (shape=bump for now).

    The density lives on the body's box, so a body that is not a polytope
    is a ParseError naming the profile and the body's kind.
    """
    kv = parse_kv_file(path)
    shape = kv.get("shape", "bump")
    nodes = _integer(_number(kv.get("nodes", "96"), path, "nodes"), path, "nodes")
    steep = _number(kv.get("steepness", "4.0"), path, "steepness")
    scale = _number(kv.get("scale", "1.0"), path, "scale")
    if shape != "bump":
        raise ParseError(f"{path}: unknown profile shape {shape!r}")
    if body.kind != "polytope":
        raise ParseError(f"{path}: a profile needs a polytope body, not a {body.kind}")
    bump = bump_profile(body, nodes=nodes, steepness=steep)
    return replace(bump, values=scale * bump.values, psi=lambda lams: scale * bump.psi(lams))


class Scenario:
    """One parsed scenario: raw keys plus typed, path-resolving accessors."""

    def __init__(self, path):
        self.path = path
        self.kv = parse_kv_file(path)
        self.dir = os.path.dirname(os.path.abspath(path))
        self.name = self.kv.get("name", os.path.splitext(os.path.basename(path))[0])
        for key in self.kv.keys():
            if key.startswith("tol"):
                if self.flt(key) <= 0.0:
                    raise ParseError(f"{path}: tolerance {key} must be positive")

    def get(self, key, default=None):
        return self.kv.get(key, default)

    def flt(self, key, default=None):
        val = self.kv.get(key)
        if val is None:
            if default is None:
                raise ParseError(f"{self.path}: missing required key {key!r}")
            return float(default)
        return _number(val, self.path, key)

    def integer(self, key, default=None):
        return _integer(self.flt(key, default), self.path, key)

    def vec(self, key, m, default=None):
        """The key's m numbers as an array; one number stands for all m."""
        raw = self.kv.get(key, default)
        if raw is None:
            raise ParseError(f"{self.path}: missing required key {key!r}")
        vals = _floats(raw, self.path, key)
        if len(vals) == 1:
            vals = vals * m
        if len(vals) != m:
            raise ParseError(f"{self.path}: key {key!r} needs {m} numbers")
        return np.asarray(vals)

    def numbers(self, key):
        """The number on each line of a repeated key, in order."""
        return [_number(raw, self.path, key) for raw in self.kv.getall(key)]

    def resolve(self, key):
        rel = self.kv.require(key)
        path = rel if os.path.isabs(rel) else os.path.join(self.dir, rel)
        if not os.path.isfile(path):
            raise MissingReferenceError(f"{self.path}: {key} -> no such file: {path}")
        return path

    def model(self):
        return load_model(self.resolve("model"))

    def body(self, key="body"):
        return load_body(self.resolve(key))

    def profile(self, body, key="profile"):
        return load_profile(self.resolve(key), body)


def load_scenarios(path):
    """A scenario file, or an index of scenario= lines (possibly empty)."""
    kv = parse_kv_file(path)
    refs = kv.getall("scenario")
    if refs:
        base = os.path.dirname(os.path.abspath(path))
        out = []
        for rel in refs:
            sub = rel if os.path.isabs(rel) else os.path.join(base, rel)
            if not os.path.isfile(sub):
                raise MissingReferenceError(f"{path}: scenario -> no such file: {sub}")
            out.append(Scenario(sub))
        return out
    if not kv.pairs:
        return []
    return [Scenario(path)]


def fmt17(x):
    return "%.17g" % float(x)


def _cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt17(x)
    if isinstance(x, (complex, np.complexfloating)):
        return f"{fmt17(x.real)}{'+' if x.imag >= 0 else '-'}{fmt17(abs(x.imag))}j"
    return str(x)


def write_csv(path, columns, rows, meta=None):
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key} = {_cell(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
