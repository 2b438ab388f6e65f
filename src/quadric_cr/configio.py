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
    """Ordered key=value pairs from one file, read through typed accessors.

    Every read marks its key, so `refuse_unread` can refuse the keys that no
    reader asked for: a misspelled key is an error, not a silent default.
    """

    def __init__(self, path, pairs):
        self.path = path
        self.pairs = pairs
        self.read_keys = set()

    def getall(self, key):
        self.read_keys.add(key)
        return [v for k, v in self.pairs if k == key]

    def get(self, key, default=None):
        vals = self.getall(key)
        if not vals:
            return default
        if len(vals) > 1:
            raise ParseError(f"{self.path}: key {key!r} given {len(vals)} times")
        return vals[0]

    def keys(self):
        return [k for k, _ in self.pairs]

    def text(self, key, default=None):
        """The key's value; a missing key reads str(default), or is refused without one."""
        val = self.get(key, default)
        if val is None:
            raise ParseError(f"{self.path}: missing required key {key!r}")
        return str(val)

    def _parse(self, key, text):
        """The one number parser: comma or space separated floats, else ParseError."""
        try:
            return [float(t) for t in text.replace(",", " ").split()]
        except ValueError:
            raise ParseError(f"{self.path}: key {key!r} is not a list of numbers: {text!r}")

    def _number(self, key, text):
        vals = self._parse(key, text)
        if len(vals) != 1:
            raise ParseError(f"{self.path}: key {key!r} is not a number: {text!r}")
        return vals[0]

    def floats(self, key, default=None):
        return self._parse(key, self.text(key, default))

    def flt(self, key, default=None):
        return self._number(key, self.text(key, default))

    def integer(self, key, default=None, least=0):
        """A number that is a whole number no smaller than least, as an int."""
        val = self.flt(key, default)
        if not val.is_integer():
            raise ParseError(f"{self.path}: key {key!r} is not an integer: {val!r}")
        if val < least:
            raise ParseError(f"{self.path}: key {key!r} must be at least {least}, got {val:g}")
        return int(val)

    def count(self, key, default=None):
        return self.integer(key, default, least=1)

    def flag(self, key):
        """true/yes/1 or false/no/0, in any case; a missing flag is false."""
        val = self.get(key, "false")
        if val.lower() in ("true", "yes", "1"):
            return True
        if val.lower() in ("false", "no", "0"):
            return False
        raise ParseError(f"{self.path}: key {key!r} is not true/false, yes/no or 1/0: {val!r}")

    def vec(self, key, m, default=None):
        """The key's m numbers as an array; one number stands for all m."""
        vals = self.floats(key, default)
        if len(vals) == 1:
            vals = vals * m
        if len(vals) != m:
            raise ParseError(f"{self.path}: key {key!r} needs {m} numbers")
        return np.asarray(vals)

    def numbers(self, key):
        """The number on each line of a repeated key, in order."""
        return [self._number(key, raw) for raw in self.getall(key)]

    def rows(self, key):
        """The numbers on each line of a repeated key, in order."""
        return [self._parse(key, raw) for raw in self.getall(key)]

    def given(self, **accessors):
        """The keys this file sets, each read by its named accessor, as the
        keywords of a library call whose own defaults cover the rest."""
        keys = set(self.keys())
        return {key: getattr(self, acc)(key) for key, acc in accessors.items() if key in keys}

    def refuse_unread(self):
        """ParseError naming every key no reader asked for."""
        unread = [k for k in dict.fromkeys(self.keys()) if k not in self.read_keys]
        if unread:
            raise ParseError(f"{self.path}: no reader asks for {', '.join(map(repr, unread))}")


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


def load_model(path):
    """Model file: keys n, m and A_1..A_m as row-major re,im pairs."""
    kv = parse_kv_file(path)
    n, m = kv.count("n"), kv.count("m")
    mats = np.empty((m, n, n), complex)
    for k in range(m):
        flat = kv.floats(f"A_{k + 1}")
        if len(flat) != 2 * n * n:
            raise ParseError(
                f"{path}: A_{k + 1} needs {n * n} re,im pairs, got {len(flat) / 2:g}"
            )
        arr = np.asarray(flat).reshape(n * n, 2)
        mats[k] = (arr[:, 0] + 1j * arr[:, 1]).reshape(n, n)
    kv.refuse_unread()
    try:
        return QuadraticModel(mats)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


_BODY_ROWS = {"polytope": ("vertex", polytope_body), "cone": ("generator", cone_body)}


def load_body(path):
    """Body file: kind plus its parameters (interval, box, segment,
    polytope with vertex= lines, cone with generator= lines)."""
    kv = parse_kv_file(path)
    kind = kv.text("kind")
    try:
        if kind == "interval":
            body = interval_body(kv.flt("lo"), kv.flt("hi"))
        elif kind == "box":
            body = box_body(kv.floats("lo"), kv.floats("hi"))
        elif kind == "segment":
            body = segment_body(kv.floats("a"), kv.floats("b"))
        elif kind in _BODY_ROWS:
            key, build = _BODY_ROWS[kind]
            rows = kv.rows(key)
            if not rows:
                raise ParseError(f"{path}: {kind} needs {key}= lines")
            body = build(np.asarray(rows))
        else:
            raise ParseError(f"{path}: unknown body kind {kind!r}")
    except ValueError as exc:  # a constructor's refusal, such as an empty interval
        raise ParseError(f"{path}: {exc}") from exc
    kv.refuse_unread()
    return body


def load_profile(path, body):
    """Profile file: a shaped density on the body (shape=bump for now).

    nodes and steepness default to `bump_profile`'s own.  The density lives
    on the body's box, so a body that is not a polytope is a ParseError
    naming the profile and the body's kind.
    """
    kv = parse_kv_file(path)
    shape = kv.get("shape", "bump")
    bump_kw = kv.given(nodes="count", steepness="flt")
    scale = kv.flt("scale", 1.0)
    if shape != "bump":
        raise ParseError(f"{path}: unknown profile shape {shape!r}")
    kv.refuse_unread()
    if body.kind != "polytope":
        raise ParseError(f"{path}: a profile needs a polytope body, not a {body.kind}")
    bump = bump_profile(body, **bump_kw)
    return replace(bump, values=scale * bump.values, psi=lambda lams: scale * bump.psi(lams))


class Scenario(KVFile):
    """One parsed scenario: a KVFile whose file references resolve against
    the scenario's directory."""

    def __init__(self, path):
        super().__init__(path, parse_kv_file(path).pairs)
        self.dir = os.path.dirname(os.path.abspath(path))
        for key in self.keys():
            if key.startswith("tol") and self.flt(key) <= 0.0:
                raise ParseError(f"{path}: tolerance {key} must be positive")
        # a tolerance counts as read where a check reads it, not here
        self.read_keys.clear()
        self.name = self.get("name", os.path.splitext(os.path.basename(path))[0])

    def resolve(self, key):
        rel = self.text(key)
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
        kv.refuse_unread()
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
