"""The three workloads: sweep, census and query.

A workload is built from a freshly imported package and a seed; building it
is the set-up the benchmark times.  It then runs units.  A unit is one call
into the package, timed, followed by the untimed checks of what it returned.
A measured run visits the units in order, from the first, in passes;
``trace_units`` is the fixed prefix that a traced run replays.

- sweep: non-simple census cocycles of C4, C5, C6 and D3 through
  ``check_cocycle_properties``, plus three seeded random subadditive maps
  per group through ``chain_lift`` and ``padded_lift``, as ``property_suite``
  does; each map is a unit of its own.  Table-level work and the
  per-context caches dominate; files, cli and the census backtracking are
  idle.  A cocycle costs 5 ms to 1.4 s, roughly in proportion to its number
  of ideals times the group order, so the cocycles are sorted by that
  product and visited in a low-discrepancy order from a seeded offset:
  every prefix samples the whole range, and a run's figures do not hang on
  which cocycles its seed drew.  The maps are spread evenly among them.
- census: ``enumerate_cocycles`` plus ``census_records`` on C7, C8 and D4.
  The backtracking core runs and every table is built and validated exactly
  once, with no context reuse; decomposition, generators and waterhouse are
  idle.  It is the bypass side for caches that only the sweep can hit.  The
  inputs ignore the seed; the seed picks which tables the oracle re-checks.
  An op is a cocycle enumerated and fingerprinted, so the enumeration steps
  complete no op, and per-op latency is that of the fingerprints.
- query: one client calls ``cli.run_command`` in-process, output captured,
  on the golden Z/9 and D3 files and on seeded order-8 cocycles of C8 and D4
  written to files, plus seeded single-entry flips sent to ``validate``.
  Every request pays the cold costs: the argument parser, the file parse
  with its group-table check, and a fresh context with empty caches.
  ``search-r`` runs at a bound that some requests meet and others exhaust.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import golden
import oracles
from stats import Outcome


def bits_of(rows: Sequence[Sequence[int]]) -> str:
    return "".join(str(v) for row in rows for v in row)


def table_text(rows: Sequence[Sequence[int]]) -> str:
    """A table in the cocycle file format: one row of 0/1 per line."""
    return "".join("".join(map(str, row)) + "\n" for row in rows)


def members(values) -> str:
    return ",".join(str(s) for s in sorted(values))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def spread_order(n: int, offset: float) -> List[int]:
    """A permutation of range(n) whose every prefix covers the range evenly.

    Position i of the van der Corput sequence, shifted by ``offset`` and
    scaled to n, names the next index; an index already taken moves to the
    next free one.
    """
    order: List[int] = []
    taken = set()
    i = 0
    while len(order) < n:
        i += 1
        point, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2
            k, bit = divmod(k, 2)
            point += bit / denom
        j = int((point + offset) % 1.0 * n)
        while j in taken:
            j = (j + 1) % n
        taken.add(j)
        order.append(j)
    return order


class _Profiled:
    """Times the body and, when a profiler is given, traces it."""

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self.seconds = 0.0

    def __enter__(self) -> "_Profiled":
        if self.profiler is not None:
            self.profiler.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.profiler is not None:
            self.profiler.disable()


class _Workload:
    """Set-up time spent inside ``untimed`` is benchmark work, such as oracle
    expectations and orderings, and ``set_up`` leaves it out of setup_s."""

    untimed_s = 0.0

    @contextlib.contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start


class Sweep(_Workload):
    name = "sweep"
    GROUPS = (("C4", "make_cyclic", 4), ("C5", "make_cyclic", 5),
              ("C6", "make_cyclic", 6), ("D3", "make_dihedral", 3))
    # property_suite's defaults: three maps per group, lifted over up to 64
    # chains each.
    LIFT_SAMPLES = 3
    LIFT_CHAINS = 64
    TRACE_UNITS = 12

    def __init__(self, cf, seed: int, workdir: str) -> None:
        self.cf = cf
        rng = random.Random(seed)
        offset = rng.random()
        population, maps = [], []
        for name, ctor, arg in self.GROUPS:
            group = getattr(cf, ctor)(arg)
            stream = cf.enumerate_cocycles(cf.CensusConfig(group=group))
            everything = tuple(range(group.order))
            population += [(name, c) for c in stream.cocycles if cf.inertial_group(c).members != everything]
            maps += [(name, cf.random_semilinear(group, rng)) for _ in range(self.LIFT_SAMPLES)]
        with self.untimed():
            self.units = self._order(population, maps, offset)
        self.trace_units = self.units[: self.TRACE_UNITS]

    @staticmethod
    def _order(population, maps, offset: float) -> list:
        """Cocycles sorted by cost and visited in a low-discrepancy order,
        with one map ahead of every len(population) / len(maps) of them.

        A cocycle costs roughly its number of ideals times the group order,
        so every prefix samples the whole cost range, and lifts keep the
        share of the work that they have in property_suite over the four
        groups.
        """
        keyed = []
        for name, c in population:
            bits = bits_of(c.values)
            cost = oracles.ideal_count(c.values, c.group.table) * c.group.order
            keyed.append((cost, name, bits, c))
        keyed.sort(key=lambda p: p[:3])
        cocycles = [("cocycle", name, bits, c) for _, name, bits, c in
                    (keyed[i] for i in spread_order(len(keyed), offset))]
        units = []
        for k, (name, r) in enumerate(maps):
            units.append(("lift", name, " ".join(map(str, r.values)), r))
            units += cocycles[k * len(cocycles) // len(maps):(k + 1) * len(cocycles) // len(maps)]
        return units

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for kind, name, text, _ in self.units:
            h.update(f"{kind} {name} {text}\n".encode())
        return h.hexdigest()

    def run(self, unit, profiler=None) -> Outcome:
        kind, name, text, item = unit
        if kind == "lift":
            return self._lift(name, item, profiler)
        try:
            with _Profiled(profiler) as timer:
                result = self.cf.check_cocycle_properties(item)
        except Exception as exc:
            return Outcome(1, timer.seconds, 1, [f"sweep {name} {text}: {_error(exc)}"])
        messages = [f"sweep {name} {text}: {f.check} failed: {f.detail}" for f in result.failures[:3]]
        if oracles.first_violation(item.values, item.group.table) is not None:
            messages.append(f"sweep {name} {text}: the census table is not a cocycle")
        checks = sum(result.counts.values())
        return Outcome(1, timer.seconds, 1 if messages else 0, messages, checks)

    def _lift(self, name, r, profiler) -> Outcome:
        """One map through chain_lift and padded_lift over the chains of
        the ideals of its cocycle, as property_suite lifts it."""
        cf = self.cf
        try:
            with _Profiled(profiler) as timer:
                lifts = []
                f = cf.cocycle_from_r(r)
                if cf.inertial_group(f).members != tuple(range(r.group.order)):
                    ideals = cf.enumerate_ideals(cf.AlgebraContext(f))
                    chains, _ = cf.descending_multichains(ideals, cap=self.LIFT_CHAINS)
                    for chain in chains:
                        lifted = cf.chain_lift(r, chain)
                        padded = cf.padded_lift(r, chain)
                        lifts.append((lifted.values, padded.certified, padded.lifted.values))
        except Exception as exc:
            return Outcome(1, timer.seconds, 1, [f"sweep {name} r={r.values}: {_error(exc)}"])
        mul = r.group.table
        for lifted, certified, padded in lifts:
            if not (certified
                    and all(v[0] == x for v, x in zip(lifted, r.values))
                    and oracles.lex_subadditive(lifted, mul)
                    and oracles.lex_subadditive(padded, mul)):
                return Outcome(1, timer.seconds, 1, [f"sweep {name} r={r.values}: lift or padded lift is wrong"])
        return Outcome(1, timer.seconds)


class Census(_Workload):
    name = "census"
    # The work is the same on every pass, so a run makes whole passes, each
    # after a fresh import, and counts each step at its fastest pass: every
    # run has the same mix, and a multi-second enumeration is read steadily.
    whole_passes = True
    GROUPS = (("C7", "make_cyclic", 7), ("C8", "make_cyclic", 8), ("D4", "make_dihedral", 4))
    # Fingerprints are taken in chunks so that the reference clock can scale
    # them finely; enumeration is one call per group.
    CHUNK = 500
    RECHECKED = 50

    def __init__(self, cf, seed: int, workdir: str) -> None:
        self.cf = cf
        self.rng = random.Random(seed)
        self.groups = [(name, getattr(cf, ctor)(arg)) for name, ctor, arg in self.GROUPS]
        self.units = [step for name, group in self.groups for step in self._steps(name, group)]
        self.trace_units = self._steps(*self.groups[0]) + self._steps(*self.groups[2])
        self.stream = None
        self.error: Optional[str] = None
        self.rechecked: set = set()

    def _steps(self, name, group) -> list:
        """Enumerate the group, then fingerprint its cocycles CHUNK at a time."""
        count = golden.CENSUS_COUNTS[name]
        return [(name, group, None)] + [(name, group, start) for start in range(0, count, self.CHUNK)]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, group in self.groups:
            h.update(f"{name} {group.table}\n".encode())
        return h.hexdigest()

    def run(self, unit, profiler=None) -> Outcome:
        name, group, start = unit
        if start is None:
            return self._enumerate(name, group, profiler)
        return self._fingerprint(name, group, start, profiler)

    def _enumerate(self, name, group, profiler) -> Outcome:
        """Keeps the stream for the fingerprint steps, which count the ops
        and carry any failure found here."""
        expected = golden.CENSUS_COUNTS[name]
        self.stream, self.error = None, None
        try:
            with _Profiled(profiler) as timer:
                stream = self.cf.enumerate_cocycles(self.cf.CensusConfig(group=group))
        except Exception as exc:
            self.error = f"census {name}: {_error(exc)}"
            return Outcome(0, timer.seconds)
        bits = [bits_of(c.values) for c in stream.cocycles]
        if len(bits) != expected or stream.truncated:
            self.error = f"census {name}: {len(bits)} cocycles, expected {expected}"
        elif any(a >= b for a, b in zip(bits, bits[1:])):
            self.error = f"census {name}: cocycles are not in strictly increasing bits order"
        else:
            self.stream = stream
            self.rechecked = set(self.rng.sample(range(expected), self.RECHECKED))
        return Outcome(0, timer.seconds)

    def _fingerprint(self, name, group, start, profiler) -> Outcome:
        size = min(self.CHUNK, golden.CENSUS_COUNTS[name] - start)
        if self.stream is None:
            return Outcome(size, 0.0, size, [self.error] if start == 0 else [])
        cocycles = self.stream.cocycles[start:start + size]
        try:
            with _Profiled(profiler) as timer:
                chunk = self.cf.CensusStream(cocycles=cocycles, truncated=False)
                records = self.cf.census_records(chunk)
        except Exception as exc:
            return Outcome(size, timer.seconds, size, [f"census {name}: {_error(exc)}"])
        if len(records) != size or any(r.bits != bits_of(c.values) for r, c in zip(records, cocycles)):
            message = f"census {name}: records do not match the cocycles"
            return Outcome(size, timer.seconds, size, [message])
        mul = group.table
        messages = []
        for i in sorted(i for i in self.rechecked if start <= i < start + size):
            rows, rec = cocycles[i - start].values, records[i - start]
            h = oracles.inertial(rows, mul)
            if len(h) == group.order:
                want = (0, (), 0)
            else:
                want = (
                    len(oracles.radical_powers(rows, mul)),
                    tuple(len(layer) for layer in oracles.layers(rows, mul)),
                    oracles.annihilator_classes(rows, mul),
                )
            if oracles.first_violation(rows, mul) is not None:
                messages.append(f"census {name}: table {bits_of(rows)} is not a cocycle")
            elif rec.inertial != h or (rec.max_power, rec.nk_sizes, rec.annihilator_classes) != want:
                messages.append(f"census {name}: record {rec} differs from the oracle's {h} {want}")
        return Outcome(size, timer.seconds, len(messages), messages)


Check = Callable[[Optional[int], str, str], Optional[str]]


def _expect(code: int, make_text: Callable[[], str]) -> Check:
    def check(rc, out, err):
        text = make_text()
        if rc != code or out != text:
            return f"expected exit {code} and {text!r}, got exit {rc} and {out!r} {err!r}"
        return None
    return check


def _exact(code: int, text: str) -> Check:
    return _expect(code, lambda: text)


def _rejects(kind: str, where: Tuple[int, ...]) -> Check:
    prefix = f"error: {kind} violated at {where}:"

    def check(rc, out, err):
        if rc != 1 or out or not err.startswith(prefix):
            return f"expected exit 1 and {prefix!r}, got exit {rc} and {err!r}"
        return None
    return check


def _words(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.strip("()").split(",") if x)


def _catalog_check(rows, mul) -> Check:
    def check(rc, out, err):
        want = oracles.word_catalog(rows, mul)
        got: Dict[int, List[Tuple[int, ...]]] = {}
        for line in out.splitlines():
            name, _, words = line.partition(": ")
            got[int(name)] = [_words(w) for w in words.split()]
        if rc != 0 or list(got) != sorted(want) or {s: set(w) for s, w in got.items()} != want \
                or sum(map(len, got.values())) != sum(map(len, want.values())):
            return f"generator catalog differs from the brute-force words: {out!r}"
        return None
    return check


_EDGE = re.compile(r'  "([^"]*)" -- "([^"]*)";')


def _graph_check(nodes: Callable[[], List[str]], edges: Optional[set] = None) -> Check:
    """DOT text with exactly these node lines and edges between known nodes."""

    def check(rc, out, err):
        lines = out.splitlines()
        names = nodes()
        head = ["graph {"] + [f'  "{v}";' for v in names]
        found = [_EDGE.fullmatch(line) for line in lines[len(head):-1]]
        if rc != 0 or lines[: len(head)] != head or lines[-1:] != ["}"] or not all(found) \
                or any(m.group(1) not in names or m.group(2) not in names for m in found):
            return f"malformed graph: {out!r}"
        if edges is not None and {(m.group(1), m.group(2)) for m in found} != edges:
            return f"graph edges differ: {out!r}"
        return None
    return check


def _generator_nodes(rows, mul) -> Callable[[], List[str]]:
    def nodes():
        words = [w for ws in oracles.word_catalog(rows, mul).values() for w in ws]
        words.sort(key=lambda w: (len(w), w))
        return ["()"] + ["(" + ",".join(map(str, w)) + ")" for w in words]
    return nodes


def _classes_check(rows, mul) -> Check:
    def check(rc, out, err):
        g = set(oracles.gstar(rows, mul))
        _, nontrivial = oracles.annihilators(rows, mul)
        lines = out.splitlines()
        verdict = "unique non-trivial annihilator class: "
        if _is_waterhouse(rows, mul):
            if rc == 1 and not out and "nothing-to-decompose" in err:
                return None
        elif rc == 0 and len(lines) == 1 and lines[0].startswith(verdict):
            if set(_words(lines[0][len(verdict):])) <= nontrivial:
                return None
        elif rc == 0 and lines[-1:] == ["recombines=true"]:
            parts = [re.fullmatch(r"rho=(\d+) ideal=([\d,]*) strict=true", line) for line in lines[:-1]]
            if all(parts) and all(int(m.group(1)) in g and set(_words(m.group(2))) <= g for m in parts):
                return None
        return f"class decomposition is malformed: {out!r}"
    return check


def _is_waterhouse(rows, mul) -> bool:
    return [list(row) for row in rows] == oracles.waterhouse_rows(rows, mul)


def _bstar_check(rows, mul) -> Check:
    def check(rc, out, err):
        words = {w for ws in oracles.word_catalog(rows, mul).values() for w in ws}
        lines = out.splitlines()
        gammas = [re.fullmatch(r"gamma=(\([\d,]*\)) ideal=[\d,]*", line)
                  for line in lines if line.startswith("gamma=")]
        if rc == 0 and lines[-1:] == ["recombines=true"] and all(gammas) \
                and bool(gammas) != _is_waterhouse(rows, mul) \
                and all(_words(m.group(1)) in words for m in gammas):
            return None
        return f"b* decomposition is malformed: {out!r}"
    return check


def _search_check(rows, mul, bound: int, known: Optional[Sequence[int]]) -> Check:
    def check(rc, out, err):
        if rc == 0:
            r = [int(x) for x in out.split()]
            if len(r) == len(mul) and max(r) <= bound and oracles.realizes(r, rows, mul):
                return None
        elif rc == 1 and re.fullmatch(rf"exhausted bound={bound} nodes=\d+\n", out):
            if known is None or max(known) > bound:
                return None
        return f"search-r at bound {bound} is wrong: exit {rc}, {out!r}"
    return check


def _lift_check(r: Sequence[int], mul, padded: bool) -> Check:
    def check(rc, out, err):
        lines = out.splitlines()
        if padded:
            if lines[-1:] != ["certified=true"]:
                return f"padded lift not certified: {out!r}"
            lines = lines[:-1]
        values = [_words(line) for line in lines]
        ok = (
            rc == 0
            and len(values) == len(r)
            and len({len(v) for v in values}) == 1
            and all(v[0] == x and (any(v) == (x != 0)) for v, x in zip(values, r))
            and oracles.lex_subadditive(values, mul)
        )
        return None if ok else f"lift of r={tuple(r)} is wrong: {out!r}"
    return check


def _count_check(order: int, count: int) -> Check:
    def check(rc, out, err):
        lines = out.splitlines()
        if rc == 0 and len(lines) == count and all(line.startswith(f"n={order} ") for line in lines):
            return None
        return f"census of order {order} printed {len(lines)} lines, expected {count}"
    return check


class Query(_Workload):
    name = "query"
    BOUND = 8
    ROUNDS = 24
    FLIPS = 2
    TRACE_UNITS = 400

    def __init__(self, cf, seed: int, workdir: str) -> None:
        self.cf = cf
        self.workdir = workdir
        self.files: Dict[str, str] = {}
        self.units: List[Tuple[List[str], str, Check]] = []
        os.makedirs(workdir, exist_ok=True)
        self._golden_z9()
        self._golden_d3(cf.make_dihedral(3))
        rng = random.Random(seed)
        groups = [("c8", cf.make_cyclic(8)), ("d4", cf.make_dihedral(4))]
        for name, group in groups:
            rows = "".join(" ".join(map(str, row)) + "\n" for row in group.table)
            self._write(f"{name}.group", f"{group.order}\n{rows}")
        for k in range(self.ROUNDS):
            for name, group in groups:
                mul = group.table
                r = cf.random_semilinear(group, rng).values
                while not any(r):
                    r = cf.random_semilinear(group, rng).values
                with self.untimed():
                    rows = oracles.induced_rows(r, mul)
                self._census_block(f"{name}-{k}r", name, mul, rows, r, rng)
                with self.untimed():
                    rows = oracles.random_cocycle(mul, rng)
                    while len(oracles.inertial(rows, mul)) == len(mul):
                        rows = oracles.random_cocycle(mul, rng)
                self._census_block(f"{name}-{k}f", name, mul, rows, None, rng)
        self.trace_units = self.units[: self.TRACE_UNITS]

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files[name] = text
        return path

    def _add(self, argv: List[str], check: Check) -> None:
        label = " ".join(os.path.relpath(a, self.workdir) if a.startswith(self.workdir) else a
                         for a in argv)
        self.units.append((argv, label, check))

    def _golden_z9(self) -> None:
        outputs = golden.Z9_OUTPUTS
        group = self._write("c9.group", golden.Z9_GROUP)
        cocycle = self._write("c9.cocycle", "\n".join(golden.Z9_ROWS) + "\n")
        rfile = self._write("c9.r", "".join(f"{v}\n" for v in golden.Z9_R))
        chain = self._write("c9.chain", golden.Z9_CHAIN)
        broken = [list(row) for row in golden.Z9_ROWS]
        broken[4][4] = "1"
        bad = self._write("c9-broken.cocycle", "\n".join("".join(row) for row in broken) + "\n")
        base = ["--group", group, "--cocycle", cocycle]
        rows = [tuple(int(c) for c in row) for row in golden.Z9_ROWS]
        mul = [[(a + b) % 9 for b in range(9)] for a in range(9)]
        for command in ("validate", "inertial", "nk", "radical-powers", "generators", "annihilators"):
            self._add([command] + base, _exact(*outputs[command]))
        self._add(["chain-cocycle"] + base + ["--chain", chain], _exact(*outputs["chain-cocycle"]))
        self._add(["decompose", "--by", "classes"] + base, _exact(*outputs["decompose-classes"]))

        def bstar(rc, out, err):
            if rc == 0 and out.startswith(golden.Z9_BSTAR_START) and golden.Z9_BSTAR_LINE in out \
                    and out.endswith(golden.Z9_BSTAR_END):
                return None
            return f"b* decomposition of the golden r: exit {rc}, {out!r}"

        self._add(["decompose", "--by", "bstar", "--group", group, "--r", rfile], bstar)
        self._add(["identity", "--name", "fI_eq_f", "--ideal", "6,7"] + base,
                  _exact(*outputs["identity-fI_eq_f"]))

        def cap_zero(rc, out, err):
            if rc == 1 and "intersect" in err:
                return None
            return f"cap_zero precondition: exit {rc}, {err!r}"

        self._add(["identity", "--name", "cap_zero", "--ideal", "4,5,6,7", "--ideal", "4,8"] + base,
                  cap_zero)
        self._add(["morphism", "--ideal", "6,7"] + base, _exact(*outputs["morphism"]))
        lifts = ["--group", group, "--r", rfile, "--chain", chain]
        self._add(["lift-r"] + lifts, _exact(*outputs["lift-r"]))
        self._add(["pad-lift"] + lifts, _exact(*outputs["pad-lift"]))
        self._add(["search-r", "--bound", "4"] + base, _exact(*outputs["search-r"]))
        self._add(["census", "--order", "3"], _exact(*outputs["census-3"]))
        self._add(["census", "--group", "cyclic2"], _exact(*outputs["census-cyclic2"]))
        self._add(["census", "--order", "4"], _count_check(4, golden.CENSUS_COUNTS["C4"]))
        self._add(["validate", "--group", group, "--cocycle", bad], _rejects("identity", (1, 3, 4)))
        self._add(["nk", "--group", group, "--r", rfile], _exact(*outputs["nk"]))
        edges = {(str(a), str(b)) for a, b in golden.Z9_ELEMENT_EDGES}
        self._add(["graph", "--kind", "element"] + base,
                  _graph_check(lambda: [str(s) for s in range(9)], edges))
        self._add(["graph", "--kind", "generator"] + base, _graph_check(_generator_nodes(rows, mul)))

    def _golden_d3(self, d3) -> None:
        cocycle = self._write("d3.cocycle", "\n".join(golden.D3_ROWS) + "\n")
        base = ["--group", "d3", "--cocycle", cocycle]
        rows = [tuple(int(c) for c in row) for row in golden.D3_ROWS]
        mul = d3.table
        self._add(["validate"] + base, _exact(0, "valid\n"))
        self._add(["inertial"] + base, _expect(0, lambda: members(oracles.inertial(rows, mul)) + "\n"))
        self._add(["radical-powers"] + base, _expect(0, lambda: _powers_text(rows, mul)))
        self._add(["nk"] + base, _expect(0, lambda: _layers_text(rows, mul)))
        outputs = golden.D3_OUTPUTS
        self._add(["generators"] + base, _exact(*outputs["generators"]))
        self._add(["annihilators"] + base, _exact(*outputs["annihilators"]))
        self._add(["graph", "--kind", "element"] + base, _exact(*outputs["graph-element"]))
        self._add(["graph", "--kind", "generator"] + base, _exact(*outputs["graph-generator"]))
        self._add(["search-r", "--bound", "3"] + base, _exact(*outputs["search-r-3"]))

    def _census_block(self, tag, group_name, mul, rows, r, rng) -> None:
        n = len(mul)
        group = os.path.join(self.workdir, f"{group_name}.group")
        cocycle = self._write(f"{tag}.cocycle", table_text(rows))
        with self.untimed():
            powers = oracles.radical_powers(rows, mul)
        second = powers[1] if len(powers) > 1 else set()
        chain_ideals = [frozenset(powers[0]), frozenset(second)]
        chain = self._write(f"{tag}.chain",
                            "".join(" ".join(map(str, sorted(i))) + "\n" for i in chain_ideals))
        ideal = second or powers[0]
        base = ["--group", group, "--cocycle", cocycle]
        self._add(["validate"] + base, _exact(0, "valid\n"))
        self._add(["inertial"] + base, _expect(0, lambda: members(oracles.inertial(rows, mul)) + "\n"))
        self._add(["radical-powers"] + base, _expect(0, lambda: _powers_text(rows, mul)))
        self._add(["nk"] + base, _expect(0, lambda: _layers_text(rows, mul)))
        self._add(["generators"] + base, _catalog_check(rows, mul))
        self._add(["annihilators"] + base, _expect(0, lambda: _annihilators_text(rows, mul)))
        self._add(["graph", "--kind", "element"] + base,
                  _graph_check(lambda: [str(s) for s in range(n)]))
        self._add(["graph", "--kind", "generator"] + base, _graph_check(_generator_nodes(rows, mul)))
        self._add(["chain-cocycle", "--chain", chain] + base,
                  _expect(0, lambda: table_text(oracles.chain_rows(rows, mul, chain_ideals))))
        self._add(["decompose", "--by", "classes"] + base, _classes_check(rows, mul))
        self._add(["decompose", "--by", "bstar"] + base, _bstar_check(rows, mul))
        self._add(["identity", "--name", "leq_f", "--chain", chain] + base, _exact(0, "leq_f ok=true\n"))
        self._add(["morphism", "--ideal", members(ideal)] + base, _exact(0, (
            f"ok=true\nscaling_ok=true\nkernel={members(ideal)}\npsi_ok=true\n"
            f"dims={n},{n - len(ideal)},{len(ideal)}\nsection_ok=true\n")))
        self._add(["search-r", "--bound", str(self.BOUND)] + base,
                  _search_check(rows, mul, self.BOUND, r))
        if r is not None:
            rfile = self._write(f"{tag}.r", "".join(f"{v}\n" for v in r))
            lifts = ["--group", group, "--r", rfile, "--chain", chain]
            self._add(["lift-r"] + lifts, _lift_check(r, mul, padded=False))
            self._add(["pad-lift"] + lifts, _lift_check(r, mul, padded=True))
        for k in range(self.FLIPS):
            with self.untimed():
                while True:
                    s, t = rng.randrange(n), rng.randrange(n)
                    flipped = [list(row) for row in rows]
                    flipped[s][t] ^= 1
                    witness = oracles.first_violation(flipped, mul)
                    if witness is not None:
                        break
            bad = self._write(f"{tag}-flip{k}.cocycle", table_text(flipped))
            self._add(["validate", "--group", group, "--cocycle", bad], _rejects(*witness))

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(f"{name}\n{self.files[name]}\n".encode())
        for _, label, _ in self.units:
            h.update(f"{label}\n".encode())
        return h.hexdigest()

    def run(self, unit, profiler=None) -> Outcome:
        argv, label, check = unit
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with _Profiled(profiler) as timer:
                    rc = self.cf.cli.run_command(argv)
            except Exception as exc:
                return Outcome(1, timer.seconds, 1, [f"query {label}: {_error(exc)}"])
        try:
            message = check(rc, out.getvalue(), err.getvalue())
        except (ValueError, IndexError) as exc:
            message = f"unparsable output ({_error(exc)}): {out.getvalue()!r}"
        messages = [f"query {label}: {message}"] if message else []
        return Outcome(1, timer.seconds, len(messages), messages)


def _powers_text(rows, mul) -> str:
    powers = oracles.radical_powers(rows, mul)
    lines = "".join(" ".join(map(str, sorted(p))) + "\n" for p in powers)
    return lines + f"nilpotency={len(powers) + 1}\n"


def _layers_text(rows, mul) -> str:
    layers = oracles.layers(rows, mul)
    return "".join(f"N{k}={members(layer)}\n" for k, layer in enumerate(layers, start=1))


def _annihilators_text(rows, mul) -> str:
    trivial, nontrivial = oracles.annihilators(rows, mul)
    return f"trivial={members(trivial)}\nnontrivial={members(nontrivial)}\n"


WORKLOADS = {w.name: w for w in (Sweep, Census, Query)}
