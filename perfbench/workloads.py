"""The four workloads: seeded inputs, and the fixed list of timed
operations that makes one round.

A round is a generator of :class:`Op`.  The runner times ``op.call()``
alone; building the next operation's arguments and ``op.check`` run
outside the timed region.  Checks compare against ``oracles`` (see
``checks.py``).
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks as chk
import oracles as o

HERE = Path(__file__).resolve().parent


class Op:
    """One timed call.  ``count`` turns its result into counters for the
    per-layer metrics; ``check`` raises CheckFailed on a wrong result."""

    __slots__ = ("name", "layer", "kind", "call", "check", "fault", "count")

    def __init__(self, name, layer, kind, call, check=None, fault=False,
                 count=None):
        self.name = name
        self.layer = layer
        self.kind = kind
        self.call = call
        self.check = check
        # fails every time today because of a named fault (README)
        self.fault = fault
        self.count = count


def standard_pair():
    """g1 = diag(4, 1, 1/4) and g2 = h g1 h^T, as in the acceptance tests."""
    def rot_z(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def rot_x(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])

    g1 = np.diag([4.0, 1.0, 0.25])
    h = rot_z(0.8) @ rot_x(0.5) @ rot_z(0.3)
    return g1, h @ g1 @ h.T


def rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def dense_rotations():
    return [rotation([0, 0, 1], 2.4), rotation([1, 0, 0], 1.7)]


def unipotent_pair():
    e12, e23 = np.eye(3), np.eye(3)
    e12[0, 1] = 1.0
    e23[1, 2] = 1.0
    return [e12, e23]


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rational_pair(rng, n):
    """Integer bases a and b = a P U: the flag of b sits in the position
    of the permutation P relative to the flag of a, often degenerate."""
    def unitriangular(lower):
        m = rng.integers(-2, 3, (n, n))
        m = np.tril(m, -1) if lower else np.triu(m, 1)
        return m + np.eye(n, dtype=np.int64)

    a = unitriangular(True) @ unitriangular(False)
    p = np.eye(n, dtype=np.int64)[:, rng.permutation(n)]
    return a, a @ p @ unitriangular(False)


def turn_about_line(frame, angle):
    """The frame rotated by ``angle`` inside the span of its last two
    columns: same line, another plane."""
    c, s = np.cos(angle), np.sin(angle)
    frame = np.asarray(frame, dtype=float)
    out = frame.copy()
    out[:, 1] = c * frame[:, 1] + s * frame[:, 2]
    out[:, 2] = -s * frame[:, 1] + c * frame[:, 2]
    return out


def generic_basis(rng, n):
    while True:
        m = rng.standard_normal((n, n))
        if np.linalg.cond(m) < 1e4:
            return m


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, root, seed):
        self.root = Path(root)
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# --- exact -------------------------------------------------------------------------

class Exact(Workload):
    """Group construction, Bruhat masks and queries, balanced
    thickenings, and the configuration cross-check."""

    name = "exact"
    BUILD = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4", "G2", "F4",
             "A1^6", "A2xG2", "B3xA1")
    MASKS = ("A5", "A6", "B4")
    QUERIES = 2000           # sampled bruhat_leq pairs per group in MASKS
    ENUMERATE = ("A2", "A3", "B2", "B3", "G2", "A4", "A1^5")
    COUNT = ("A2", "A3", "B2", "B3", "G2", "A4", "A1^2", "A1^3", "A1^4",
             "A1^5", "A1^6", "D4")
    BRUTE_FORCE = ("A2", "A3", "B2", "G2", "A1^2", "A1^3", "A1^4")
    CONFIGS = 150

    def setup(self):
        from weylkit import configurations, coxeter, thickenings
        self.cx, self.th, self.cf = coxeter, thickenings, configurations
        rng = np.random.default_rng(self.seed)
        self.pairs = {}
        for t in self.MASKS:
            order = o.group_order(t)
            half = self.QUERIES // 2
            self.pairs[t] = (rng.integers(0, order, size=(half, 2)).tolist(),
                             rng.integers(0, order, size=half).tolist(),
                             rng.integers(0, 2 ** 62, size=half).tolist())
        self.configs = []
        for _ in range(self.CONFIGS):
            n = int(rng.integers(1, 7))
            angles = [Fraction(int(k), 9) for k in rng.integers(0, 10, size=n)]
            weights = [Fraction(int(p), int(q)) for p, q in
                       zip(rng.integers(1, 9, size=n), rng.integers(1, 6, size=n))]
            strict = bool(rng.integers(0, 2))
            self.configs.append((configurations.WeightedConfig.circle(
                angles, weights), angles, weights, strict))
        W = coxeter.WeylGroup("A2")
        thickenings.count_balanced(W)
        coxeter.bruhat_leq(W.identity, W.w0)
        configurations.diagonal_thickening_check(self.configs[0][0])
        self._expected = {}

    def _brute_force(self, t):
        if t not in self._expected:
            self._expected[t] = o.indexed_group(t).count_balanced_brute_force()
        return self._expected[t]

    def round(self):
        cx, th, cf = self.cx, self.th, self.cf
        groups, enumerated = {}, {}

        def keep_group(t):
            def check(W):
                groups[t] = W
                chk.group_shape(t, len(W), len(W.reflections()),
                                W.lengths[W.w0_index])
            return check

        def build(t):
            return Op(f"WeylGroup {t}", "coxeter",
                      "build_F4" if t == "F4" else "build",
                      lambda: cx.WeylGroup(t), keep_group(t),
                      count=lambda W: {"elements": len(W)})

        for t in self.MASKS:
            yield build(t)

        for t in self.MASKS:
            W = groups[t]
            model = o.indexed_group(t, tuple(W.words)) if t[0] != "A" else None
            yield Op(f"leq_masks {t}", "coxeter", "leq_masks", W.leq_masks,
                     lambda m, W=W, model=model: chk.leq_masks(m, len(W), model))

        queries = []  # per group: (u, v, expected) for each sampled pair
        for t in self.MASKS:
            W = groups[t]
            rand, sub_v, sub_bits = self.pairs[t]
            pairs = [tuple(p) for p in rand]
            for v, bits in zip(sub_v, sub_bits):
                word = W.words[v]
                keep = [s for k, s in enumerate(word) if (bits >> k) & 1]
                pairs.append((W.gen_fold(0, keep), v))
            if t[0] == "A":
                want = [o.tableau_leq(W.one_line(u), W.one_line(v))
                        for u, v in pairs]
            else:
                below = o.indexed_group(t, tuple(W.words)).below_masks()
                want = [(below[v] >> u) & 1 == 1 for u, v in pairs]
            queries.append([(W.element(u), W.element(v), ok)
                            for (u, v), ok in zip(pairs, want)])
        # one operation asks ten pairs of each group, so all cost alike
        triples = list(zip(*queries))
        batches = []
        for k in range(0, len(triples), 10):
            batch = [q for t in triples[k:k + 10] for q in t]
            batches.append(Op(
                "bruhat_leq 10 x (A5, A6, B4)", "coxeter", "bruhat_leq",
                lambda batch=batch: [cx.bruhat_leq(eu, ev)
                                     for eu, ev, _ in batch],
                lambda got, batch=batch: [
                    chk.bruhat_answer(g, ok)
                    for g, (_, _, ok) in zip(got, batch)],
                count=lambda got: {"calls": len(got)}))
        # the short query operations are spread over the rest of the
        # round, one slice after each build, enumeration and count, so
        # their median reflects the whole round and not a few milliseconds
        later = [t for t in self.BUILD if t not in self.MASKS]
        slots = len(later) + len(self.ENUMERATE) + len(self.COUNT)
        slices = iter([batches[k::slots] for k in range(slots)])

        for t in later:
            yield build(t)
            yield from next(slices)

        def fresh(t):
            return groups[t] if t in groups else cx.WeylGroup(t)

        for t in self.ENUMERATE:
            def check(ths, t=t):
                model = o.indexed_group(t, tuple(ths[0].group.words))
                chk.balanced_family([x.mask for x in ths], model)
                enumerated[t] = len(ths)
            yield Op(f"enumerate_balanced {t}", "thickenings", "enumerate",
                     lambda t=t: th.enumerate_balanced(fresh(t)), check,
                     count=lambda ths: {"found": len(ths)})
            yield from next(slices)

        for t in self.COUNT:
            def check(n, t=t):
                if t in self.BRUTE_FORCE:
                    chk.balanced_count(n, self._brute_force(t), t)
                if t.startswith("A1^"):
                    chk.balanced_count(
                        n, o.A1_POWER_BALANCED[int(t[3:])], f"{t} (A001206)")
                if t in enumerated:
                    chk.balanced_count(n, enumerated[t], f"{t} vs enumeration")
            yield Op(f"count_balanced {t}", "thickenings", "count",
                     lambda t=t: th.count_balanced(fresh(t)), check,
                     fault=(t == "D4"), count=lambda n: {"found": n})
            yield from next(slices)

        # 25 configurations per operation, so that the median operation
        # of the round stays among the bruhat_leq batches
        for k in range(0, len(self.configs), 25):
            batch = self.configs[k:k + 25]
            yield Op("diagonal_thickening_check x25", "configurations",
                     "config",
                     lambda batch=batch: [cf.diagonal_thickening_check(
                         z, strict=s) for z, _, _, s in batch],
                     lambda got, batch=batch: [
                         chk.diagonal_verdict(g, a, w, s)
                         for g, (_, a, w, s) in zip(got, batch)],
                     count=lambda got: {"calls": len(got)})


# --- flags ---------------------------------------------------------------------------

class Flags(Workload):
    """Limit-set sampling, domain membership, relative positions, the
    nondiscreteness probes and flag-manifold expansion."""

    name = "flags"
    min_rounds = 2           # one round is close to the run length
    SAMPLE_LEN = 5
    MARGIN = 1.0
    RANDOM_MEMBERS = 6
    PAIRS_PER_KIND = 30      # batches of generic and of rational pairs

    def setup(self):
        from weylkit import flagdyn, thickenings
        self.fd = flagdyn
        rng = np.random.default_rng(self.seed)
        self.gens = list(standard_pair())
        self.random_members = [random_rotation(rng, 3)
                               for _ in range(self.RANDOM_MEMBERS)]
        self.member_angles = rng.uniform(0.3, 1.2, size=2).tolist()
        # a batch holds one pair for each n = 3..6, so every position
        # operation does the same mix of work
        self.batches = []
        for kind in ("generic", "rational"):
            for _ in range(self.PAIRS_PER_KIND):
                batch = []
                for n in (3, 4, 5, 6):
                    if kind == "generic":
                        a, b = generic_basis(rng, n), generic_basis(rng, n)
                        batch.append((a, b, a, b))
                    else:
                        a, b = rational_pair(rng, n)
                        batch.append((a.astype(float), b.astype(float),
                                      a.tolist(), b.tolist()))
                self.batches.append((kind, batch))
        self.q = random_rotation(rng, 3)
        self.balanced_a2 = thickenings.enumerate_balanced(
            flagdyn.position_group(3))
        flagdyn.limit_set_sample(self.gens, 2, self.MARGIN)
        f = flagdyn.flag_from_basis(self.batches[0][1][0][0])
        flagdyn.relative_position(f, f)

    def round(self):
        fd = self.fd
        state = {}

        def keep_sample(s):
            state["sample"] = s
            chk.limit_sample([f.basis for f in s.flags], s.words, s.margins,
                             self.gens, self.SAMPLE_LEN, self.MARGIN)

        words = o.reduced_word_count(2, self.SAMPLE_LEN)
        yield Op(f"limit_set_sample L={self.SAMPLE_LEN}", "flagdyn",
                 "limit_sample",
                 lambda: fd.limit_set_sample(self.gens, self.SAMPLE_LEN,
                                             self.MARGIN), keep_sample,
                 count=lambda s: {"flags": len(s), "words": words})

        sample = state["sample"]
        frames = [f.basis for f in sample.flags]
        # members: the first sample flag (position e) and that flag turned
        # about its line (a position of length 1)
        lam = sample.flags[0].basis
        flags = [fd.Flag(q) for q in self.random_members] + [fd.Flag(lam)]
        flags += [fd.Flag(turn_about_line(lam, t)) for t in self.member_angles]
        for th in self.balanced_a2:
            members = th.labels()
            for f in flags:
                def check(res, f=f, members=members):
                    verdict, witness = res
                    chk.membership(verdict, None if witness is None
                                   else witness.basis, f.basis, frames, members)
                yield Op("thickening_membership", "flagdyn", "membership",
                         lambda f=f, th=th: fd.thickening_membership(
                             f, sample, th), check)

        for kind, batch in self.batches:
            flags = [(fd.flag_from_basis(a), fd.flag_from_basis(b))
                     for a, b, _, _ in batch]

            def check(results, batch=batch):
                for res, (_, _, ea, eb) in zip(results, batch):
                    chk.position(res.w.label(), ea, eb)
            yield Op(f"relative_position n=3..6 {kind}", "flagdyn", "position",
                     lambda flags=flags: [fd.relative_position(fa, fb)
                                          for fa, fb in flags],
                     check, count=lambda results: {"calls": len(results)})

        for name, gens, max_len in (("dense rotations", dense_rotations(), 12),
                                    ("unipotent pair", unipotent_pair(), 8)):
            def check(res, gens=gens, max_len=max_len):
                cert = res.certificate
                chk.require(not res.budget_exhausted, "budget exhausted")
                chk.require(res.found == (max_len == 12),
                            "dense rotations need a certificate, integer "
                            "unipotents must give none")
                chk.probe(res.found, cert.words if cert else [],
                          cert.commutator_norm if cert else 0.0,
                          res.words_searched, gens, max_len, 0.1)
            yield Op(f"nondiscreteness_certificate {name}", "flagdyn", "probe",
                     lambda gens=gens, max_len=max_len:
                     fd.nondiscreteness_certificate(gens, epsilon=0.1,
                                                    max_len=max_len), check,
                     count=lambda res: {"words": res.words_searched})

        flag = fd.Flag(self.q)
        for k in range(1, 6):
            gk = self.q @ np.diag([4.0 ** -k, 1.0, 4.0 ** k]) @ self.q.T
            yield Op(f"expansion_factor k={k}", "flagdyn", "expansion",
                     lambda gk=gk: fd.expansion_factor(gk, flag, step=1e-6),
                     lambda got, k=k: chk.expansion(got, k))


# --- certificates ----------------------------------------------------------------------

class Certificates(Workload):
    """Schottky certificates, orbit growth, horofunctions, Morse defect
    reports and Finsler metric laws."""

    name = "certificates"
    SCHOTTKY_N = range(6, 21)
    FAULTY_N = range(12, 21)
    ORBIT = (6, 6)           # power N and word length of orbit_growth
    RAYS = 10
    TRIPLES = 150
    MOVES = 50
    FLAT_PAIRS = 50

    def setup(self):
        from weylkit import morse, symspace
        self.morse, self.ss = morse, symspace
        with open(HERE / "data" / "orbit_growth_ref.json") as fh:
            ref = json.load(fh)
        self.orbit_ref = [(e["length"], e["distance"]) for e in ref["entries"]]
        rng = np.random.default_rng(self.seed)
        self.gens = list(standard_pair())

        def near_identity(scale):
            g = np.eye(3) + scale * rng.standard_normal((3, 3))
            while abs(np.linalg.det(g)) < 0.1:
                g = np.eye(3) + scale * rng.standard_normal((3, 3))
            return g

        self.rays = []
        for _ in range(self.RAYS):
            p = symspace.point_from_group(near_identity(0.4))
            x = symspace.point_from_group(near_identity(0.4))
            gaps = 1.0 + rng.random(2)
            d = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
            self.rays.append((p, d - d.mean(), x, rng.standard_normal(3)))
        self.triples = [tuple(symspace.point_from_group(near_identity(0.5))
                              for _ in range(3)) for _ in range(self.TRIPLES)]
        self.moves = []
        for _ in range(self.MOVES):
            x, y = (symspace.point_from_group(near_identity(0.5))
                    for _ in range(2))
            g = near_identity(0.5)
            g = g / abs(np.linalg.det(g)) ** (1 / 3)
            self.moves.append((x, y, symspace.apply_isometry(g, x),
                               symspace.apply_isometry(g, y)))
        self.flat = [(a, b, symspace.flat_point(a), symspace.flat_point(b))
                     for a, b in (rng.standard_normal((2, 3))
                                  for _ in range(self.FLAT_PAIRS))]
        m = 100
        self.kink = [o.sl3_chart_vector(x, abs(x)) for x in np.arange(-m, m + 1.0)]
        slopes = rng.uniform(0.3, np.sqrt(3.0) - 0.3, size=2 * m)
        ys = np.concatenate([[0.0], np.cumsum(slopes)])
        self.graph = [o.sl3_chart_vector(x, y)
                      for x, y in zip(np.arange(2 * m + 1.0), ys)]
        p, d, x, _ = self.rays[0]
        symspace.horofunction_estimate(p, d, x, [5, 10])
        symspace.finsler_distance(*self.triples[0][:2])
        morse.schottky_certificate(self.gens, 1)

    def distance_ops(self):
        """Distance calls, four per operation so that all cost alike."""
        ss = self.ss

        def calls(results):
            return {"calls": len(results)}

        for x, y, z in self.triples:
            yield Op("finsler_distance triple", "symspace", "distance",
                     lambda x=x, y=y, z=z: [ss.finsler_distance(u, v) for u, v
                                            in ((x, y), (y, x), (y, z), (x, z))],
                     lambda d: chk.metric_triple(*d), count=calls)

        for k in range(0, len(self.moves), 2):
            pairs = [p for move in self.moves[k:k + 2]
                     for p in (move[:2], move[2:])]

            def check(d):
                for before, after in zip(d[::2], d[1::2]):
                    chk.invariance(after, before)
            yield Op("finsler_distance 2 moved pairs", "symspace", "distance",
                     lambda pairs=pairs: [ss.finsler_distance(u, v)
                                          for u, v in pairs],
                     check, count=calls)

        metrics = (("delta", ss.delta_distance), ("finsler", ss.finsler_distance),
                   ("riemannian", ss.riemannian_distance))
        for a, b, x, y in self.flat:
            def check(ds, a=a, b=b):
                for d, (name, _) in zip(ds, metrics):
                    chk.flat_distance(d, a, b, name)
                chk.symmetric(ds[1], ds[3])
            yield Op("delta, finsler, riemannian, finsler reversed flat",
                     "symspace", "distance",
                     lambda x=x, y=y: [fn(x, y) for _, fn in metrics]
                     + [ss.finsler_distance(y, x)], check, count=calls)

    def round(self):
        morse, ss = self.morse, self.ss
        scan, spacing = {}, {}
        # the short distance operations are spread over the round, one
        # slice after each Schottky certificate, so their median reflects
        # the whole round and not a few milliseconds of it
        distances = list(self.distance_ops())
        slots = len(self.SCHOTTKY_N) + 1
        slices = [distances[k::slots] for k in range(slots)]

        for N in self.SCHOTTKY_N:
            def check(rep, N=N):
                scan[N] = rep.passed
                spacing[N] = rep.min_spacing
                chk.schottky(rep.passed, rep.min_spacing,
                             [t.triple for t in rep.triples],
                             spacing.get(N - 1))
            yield Op(f"schottky_certificate N={N}", "morse", "schottky",
                     lambda N=N: morse.schottky_certificate(
                         self.gens, N, epsilon=0.2, spacing=10.0),
                     check, fault=N in self.FAULTY_N,
                     count=lambda rep: {"triples": len(rep.triples)})
            yield from slices[N - self.SCHOTTKY_N[0]]

        yield Op("find_schottky_threshold", "morse", "schottky",
                 lambda: morse.find_schottky_threshold(
                     self.gens, max_power=40, epsilon=0.2, spacing=10.0),
                 lambda n0: chk.threshold(n0, scan))
        yield from slices[-1]

        N, length = self.ORBIT
        yield Op(f"orbit_growth N={N} L={length}", "morse", "orbit_growth",
                 lambda: morse.orbit_growth(self.gens, N, length),
                 lambda data: chk.orbit_growth(data, self.orbit_ref),
                 fault=True)

        for p, d, x, offset in self.rays:
            state = {}
            yield Op("horofunction_estimate", "symspace", "horofunction",
                     lambda p=p, d=d, x=x: ss.horofunction_estimate(
                         p, d, x, [5, 10, 20, 40]),
                     lambda est: state.update(est=est))
            yield Op("horofunction_estimate offset", "symspace", "horofunction",
                     lambda p=p, d=d, x=x, off=offset: ss.horofunction_estimate(
                         p, d, x, [5, 10, 20, 40], offset=off),
                     lambda est2, state=state: chk.horofunction(
                         state["est"].estimates, state["est"].converged,
                         state["est"].value, est2.value))

        for name, vectors, L, A in (("kink", self.kink, 2.0, 1.0),
                                    ("graph", self.graph, 2.5, 0.5)):
            points = [ss.flat_point(v) for v in vectors]
            yield Op(f"morse_defect_report {name}", "morse", "defect",
                     lambda pts=points, L=L, A=A: morse.morse_defect_report(
                         pts, window=10.0, L=L, A=A),
                     lambda rep, v=vectors, L=L, A=A, k=(name == "kink"):
                     chk.defect_report(rep, v, 10.0, L, A, k))


# --- cli -----------------------------------------------------------------------------

class Cli(Workload):
    """``weylkit`` verbs as subprocesses, one invocation per operation."""

    name = "cli"
    min_rounds = 2           # outputs are compared across rounds
    STARTUP_PROBES = 3

    def setup(self):
        from weylkit import cli
        self.cli = cli
        rng = np.random.default_rng(self.seed)
        self.work = self.root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("WEYLKIT_TOLERANCE", None)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.gens = list(standard_pair())
        self.rotations = dense_rotations()
        self._write("gens.json", [g.tolist() for g in self.gens])
        self._write("rotations.json", [g.tolist() for g in self.rotations])
        self.flat_a, self.flat_b = rng.standard_normal((2, 3))
        self.pos_a, self.pos_b = (m.tolist() for m in rational_pair(rng, 4))
        self.weights = [int(w) for w in rng.integers(1, 6, size=6)]
        self.outside_flag = random_rotation(rng, 3).tolist()
        self.inside_angle = float(rng.uniform(0.3, 1.2))
        self.first_outputs = None
        # the balanced thickening of A2: the elements of length <= 1
        self.a2_balanced = ["123", "132", "213"]
        self.peak_kb = 0
        self.run_weylkit(["thickenings", "count", "--type", "A2"])
        self.peak_kb = 0  # the warm-up does not count

    def _write(self, name, obj):
        (self.work / name).write_text(json.dumps(obj))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_weylkit(self, argv):
        return self._spawn([sys.executable, "-m", "weylkit.cli", *argv])

    def _spawn(self, cmd):
        """Run to completion; returns stdout bytes. Peak RSS of the child
        comes from wait4, so no process outlives the call."""
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            # reaped by wait4: record the status so Popen does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            detail = (self.work / "stderr.txt").read_text()[-400:]
            raise RuntimeError(f"exit {proc.returncode}: {detail}{out[-400:]!r}")
        return out

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0

    def argv_list(self, state):
        """The verbs of one round; the last membership flag is a flag of
        this round's limit sample, known once that sample is checked."""
        diag, gens = np.diag, f"@{self.work / 'gens.json'}"
        sample = str(self.work / "sample.json")
        return [
            ["thickenings", "count", "--type", "A3"],
            ["dist", "delta", "--x", json.dumps(diag(np.exp(self.flat_a)).tolist()),
             "--y", json.dumps(diag(np.exp(self.flat_b)).tolist())],
            ["flags", "position", "--a", json.dumps(self.pos_a),
             "--b", json.dumps(self.pos_b)],
            ["config", "walls", "--weights", ",".join(map(str, self.weights))],
            ["coxeter", "order", "--type", "B4"],
            ["limits", "sample", "--gens", gens, "--max-len", "4"],
            ["domain", "membership", "--flag", json.dumps(self.outside_flag),
             "--sample", sample, "--thickening", "balanced:0"],
            ["domain", "membership", "--flag", json.dumps(state.get("inside")),
             "--sample", sample, "--thickening", "balanced:0"],
            ["morse", "schottky", "--gens", gens, "--N", "6"],
            ["discreteness", "probe", "--gens",
             f"@{self.work / 'rotations.json'}", "--max-len", "8"],
        ]

    def _checks(self, state):
        """One check per entry of argv_list, reading stdout text."""
        def count(out):
            chk.balanced_count(int(out), o.indexed_group("A3")
                               .count_balanced_brute_force(), "A3")

        def dist(out):
            chk.flat_distance(json.loads(out)["delta"], self.flat_a,
                              self.flat_b, "delta")

        def position(out):
            chk.position(json.loads(out)["position"], self.pos_a, self.pos_b)

        def walls(out):
            got = json.loads(out)
            chk.walls(got["walls"], got["in_open_chamber"], self.weights)

        def order(out):
            got = json.loads(out)
            model = o.indexed_group("B4")
            letters = {c: i for i, c in enumerate("abcd")}

            def element(label):
                word = () if label == "e" else tuple(letters[c] for c in label)
                return model.index[model.model.from_word(word)]
            chk.order_matrix(got["labels"], got["leq"], model, element)

        def sample(out):
            got = json.loads(out)
            chk.limit_sample(got["flags"], got["words"], got["margins"],
                             self.gens, 4, 1.0)
            frames = got["flags"]
            state["frames"] = frames
            state["inside"] = turn_about_line(frames[0],
                                              self.inside_angle).tolist()
            (self.work / "sample.json").write_text(out)

        def membership(key, expect):
            def check(out):
                got = json.loads(out)
                flag = self.outside_flag if key is None else state[key]
                chk.equal(got["in_thickened_limit_set"], expect, "verdict")
                chk.equal(got["in_domain"], not expect, "domain verdict")
                chk.membership(got["in_thickened_limit_set"], got["witness"],
                               flag, state["frames"], self.a2_balanced)
            return check

        def schottky(out):
            got = json.loads(out)
            for t in got["triples"]:
                ok = (min(t["spacing"]) >= 10.0 and all(t["regular"])
                      and max(t["angles"]) < 0.1)
                chk.equal(t["pass"], ok, f"verdict of triple {t['triple']}")
            chk.schottky(got["pass"], got["min_spacing"],
                         [t["triple"] for t in got["triples"]], None)

        def probe(out):
            got = json.loads(out)
            cert = got["nondiscrete_certificate"]
            chk.require(cert is not None, "dense rotations need a certificate")
            chk.probe(True, cert["words"], cert["commutator_norm"],
                      got["words_searched"], self.rotations, 8, 0.1)

        return [count, dist, position, walls, order, sample,
                membership(None, False), membership("inside", True),
                schottky, probe]

    def round(self):
        state, outputs = {}, []
        checks = self._checks(state)
        for i, check_text in enumerate(checks):
            argv = self.argv_list(state)[i]

            def check(out, i=i, check_text=check_text, argv=argv):
                outputs.append(out)
                check_text(out.decode())
                if self.first_outputs is not None:
                    chk.require(out == self.first_outputs[i],
                                f"weylkit {' '.join(argv[:2])}: output "
                                "differs from the first round")
            yield Op(f"weylkit {' '.join(argv[:2])}", "cli", "subprocess",
                     lambda argv=argv: self.run_weylkit(argv), check,
                     count=lambda out: {"bytes": len(out)})
        if self.first_outputs is None and len(outputs) == len(checks):
            self.first_outputs = outputs
        self.last_argvs = self.argv_list(state)

    def startup_probe(self):
        """Median wall time of a subprocess that only imports weylkit.cli."""
        times = []
        for _ in range(self.STARTUP_PROBES):
            t0 = time.perf_counter()
            self._spawn([sys.executable, "-c", "import weylkit.cli"])
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def inprocess_pass(self):
        """The last round's argv list through weylkit.cli.main in this
        process, with the per-process group cache emptied first so each
        pass starts as cold as a subprocess.  Returns seconds, and raises
        if any output differs from the subprocess output."""
        from weylkit import coxeter
        clear = getattr(getattr(coxeter, "_cached_group", None),
                        "cache_clear", None)
        if clear is not None:
            clear()
        total = 0.0
        for argv, want in zip(self.last_argvs, self.first_outputs):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = self.cli.main(list(argv))
            total += time.perf_counter() - t0
            chk.equal(code, 0, f"exit code of {' '.join(argv[:2])}")
            chk.require(buf.getvalue().encode() == want,
                        f"{' '.join(argv[:2])}: in-process output differs")
        return total


WORKLOADS = {w.name: w for w in (Exact, Flags, Certificates, Cli)}
