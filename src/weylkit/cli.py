"""Command line front end.

Every verb is one row of ``VERBS``: its name, help text, function and
options, from which ``build_parser`` builds the parser.  A verb function
takes the parsed arguments and returns its output: text (the DOT poset,
the order matrix JSON, the balanced count) or an object, which ``main``
renders with a deterministic JSON writer (floats with 17 significant
digits, rationals as "p/q" strings).  ``main`` emits that output once,
to ``--out`` or stdout.  Exit codes: 0 success, 1 domain error (with a
structured JSON error on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import configurations as cfg
from . import coxeter, flagdyn, morse, symspace, thickenings
from .errors import WeylkitError

ENV_TOL = "WEYLKIT_TOLERANCE"


# --- deterministic JSON ------------------------------------------------------

def _render(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f or f in (float("inf"), float("-inf")):
            return json.dumps(str(f))
        return format(f, ".17g")
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_render(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    return json.dumps(str(obj))


def render_json(obj):
    return _render(obj) + "\n"


# --- input parsing -----------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _num(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


def _matrix(data):
    return symspace._float_matrix([[float(_num(x)) for x in row]
                                   for row in data])


def _json_arg(text):
    """Inline JSON, an @file reference, or a bare path to a JSON file."""
    if text.startswith("@"):
        return _load_json(text[1:])
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if os.path.exists(text):
            return _load_json(text)
        raise


def _matrix_arg(text):
    return _matrix(_json_arg(text))


def _matrices_arg(text):
    return [_matrix(m) for m in _json_arg(text)]


def _is_rational(data):
    if isinstance(data, list):
        return all(_is_rational(x) for x in data)
    return isinstance(data, (int, str))


def _thickening_arg(text, group):
    """Either ``balanced:K``, a JSON list of member labels or a thickening
    dict {"type": ..., "members": [...]}."""
    if text.startswith("balanced:"):
        idx = int(text.split(":", 1)[1])
        ths = thickenings.enumerate_balanced(group)
        if not 0 <= idx < len(ths):
            raise WeylkitError(f"only {len(ths)} balanced thickenings exist")
        return ths[idx]
    data = _json_arg(text)
    if not isinstance(data, dict):
        th = thickenings.Thickening.from_json(
            {"type": group.ctype.descriptor, "members": data})
        return thickenings.down_closure(group, th.indices())
    kind = data.get("type")
    if kind is None or isinstance(kind, str):  # from_json names a missing key
        th = thickenings.Thickening.from_json(data)
        if th.group.ctype.descriptor == group.ctype.descriptor:
            return thickenings.Thickening(group, th.mask)
    raise ValueError(f"thickening of type {json.dumps(kind)} given "
                     f"for {group.ctype.descriptor}")


def _config_arg(text):
    data = _json_arg(text)
    angles = [_num(a) for a in data["angles"]]
    weights = [_num(w) for w in data["weights"]]
    return cfg.WeightedConfig.circle(angles, weights)


# --- verbs -------------------------------------------------------------------

def _fields(obj, *names):
    """{name: obj.name} for the given attribute names, in order, leaving
    out the attributes that are None."""
    return {name: getattr(obj, name) for name in names
            if getattr(obj, name) is not None}


def _coxeter_poset(args):
    W = coxeter.build_group(args.type)
    highlight = None
    if args.highlight:
        highlight = _thickening_arg(args.highlight, W)
    return coxeter.poset_dot(W, highlight)


def _coxeter_order(args):
    return coxeter.build_group(args.type).order_matrix_json() + "\n"


def _thickenings_enumerate(args):
    W = coxeter.build_group(args.type)
    ths = thickenings.enumerate_balanced(W)
    return [{"type": W.ctype.descriptor, "members": t.labels()} for t in ths]


def _thickenings_count(args):
    return f"{thickenings.count_balanced(coxeter.build_group(args.type))}\n"


def _thickenings_check(args):
    W = coxeter.build_group(args.type)
    th = _thickening_arg(args.members, W)
    ideal = th.is_ideal()
    out = {"type": W.ctype.descriptor, "members": th.labels(), "ideal": ideal}
    if ideal:
        out["slim"] = thickenings.is_slim(th)
        out["fat"] = thickenings.is_fat(th)
        out["balanced"] = thickenings.is_balanced(th)
    return out


def _dist(metric, args):
    x = symspace.SymPoint(_matrix_arg(args.x))
    y = symspace.SymPoint(_matrix_arg(args.y))
    return {args.verb: metric(x, y)}


def _cone(margin):
    return symspace.RegularityCone(margin) if margin is not None else None


def _seq_regularity(args):
    gs = _matrices_arg(args.gens)
    rep = symspace.sequence_regularity(gs, threshold=args.threshold,
                                       cone=_cone(args.margin))
    return _fields(rep, "margins", "regular_trend", "threshold", "theta_flags")


def _horo_estimate(args):
    p = symspace.SymPoint(_matrix_arg(args.p))
    x = symspace.SymPoint(_matrix_arg(args.x))
    direction = np.array([float(x) for x in args.direction.split(",")])
    ts = [float(t) for t in args.t.split(",")]
    est = symspace.horofunction_estimate(p, direction, x, ts)
    return {"t": est.t_values,
            **_fields(est, "estimates", "converged", "value")}


def _flags_position(args):
    a = _json_arg(args.a)
    b = _json_arg(args.b)
    exact = args.exact or (_is_rational(a) and _is_rational(b))
    if exact:
        res = flagdyn.relative_position_exact(
            [[_num(x) for x in row] for row in a],
            [[_num(x) for x in row] for row in b])
    else:
        fa, fb = (flagdyn.flag_from_basis(_matrix(m)) for m in (a, b))
        res = flagdyn.relative_position(fa, fb, tol=args.tol)
    return {"position": res.w.label(), "length": res.w.length,
            "rank_matrix": res.rank_matrix[1:, 1:],
            "confidence": res.confidence, "exact": exact}


def _flags_antipodal(args):
    a = flagdyn.flag_from_basis(_matrix_arg(args.a))
    b = flagdyn.flag_from_basis(_matrix_arg(args.b))
    return {"antipodal": flagdyn.is_antipodal(a, b, tol=args.tol)}


def _limits_sample(args):
    gens = _matrices_arg(args.gens)
    return flagdyn.limit_set_sample(gens, args.max_len,
                                    args.margin).to_json_obj()


def _domain_membership(args):
    flag = flagdyn.flag_from_basis(_matrix_arg(args.flag))
    sample = flagdyn.FlagSample.from_json_obj(_load_json(args.sample))
    W = flagdyn.position_group(flag.n)
    th = _thickening_arg(args.thickening, W)
    member, witness = flagdyn.thickening_membership(flag, sample, th,
                                                    tol=args.tol)
    return {"in_thickened_limit_set": member,
            "in_domain": not member,
            "witness": witness.basis if witness is not None else None}


def _expand_factor(args):
    g = _matrix_arg(args.gen)
    flag = flagdyn.flag_from_basis(_matrix_arg(args.flag))
    return {"expansion": flagdyn.expansion_factor(g, flag)}


def _discreteness_probe(args):
    gens = _matrices_arg(args.gens)
    res = flagdyn.nondiscreteness_certificate(
        gens, epsilon=args.epsilon, max_len=args.max_len)
    out = {"nondiscrete_certificate": None,
           **_fields(res, "words_searched", "budget_exhausted")}
    if res.certificate:
        out["nondiscrete_certificate"] = _fields(res.certificate, "words",
                                                 "commutator_norm")
    return out


def _path_points(data):
    return [symspace.SymPoint(_matrix(m)) for m in data]


def _morse_straightness(args):
    pts = _path_points(_json_arg(args.path))
    cert = morse.straightness_check(pts, _cone(args.margin),
                                    epsilon=args.epsilon, spacing=args.s)
    return {"pass": cert.verdict,
            **_fields(cert, "spacing_margin", "straightness_margin",
                      "regularity_flags"),
            "first_violation": list(cert.first_violation)
            if cert.first_violation else None}


def _morse_defect(args):
    pts = _path_points(_json_arg(args.path))
    rep = morse.morse_defect_report(pts, cone=_cone(args.margin),
                                    window=args.B, L=args.L, A=args.A)
    return _fields(rep, "qi_lower_margin", "qi_upper_margin",
                   "window_lengths", "window_defects", "segment_regular")


def _morse_schottky(args):
    gens = _matrices_arg(args.gens)
    rep = morse.schottky_certificate(gens, args.N, cone=_cone(args.margin),
                                     epsilon=args.epsilon, spacing=args.s)
    return {"N": rep.N, "pass": rep.passed,
            **_fields(rep, "min_spacing", "max_angle"),
            "triples": [{"triple": t.triple, "spacing": t.spacing,
                         "regular": list(t.regular), "angles": t.angles,
                         "pass": t.passed} for t in rep.triples]}


def _config_stability(args):
    z = _config_arg(args.config)
    return {"stable": cfg.is_stable(z), "semistable": cfg.is_semistable(z),
            "masses": [[m[0], m[1]] for m in cfg.aggregate_masses(z)]}


def _config_relpos(args):
    a = _config_arg(args.a)
    b = _config_arg(args.b)
    return {"relpos": list(cfg.relpos_config(a, b))}


def _config_walls(args):
    weights = [Fraction(w) for w in args.weights.split(",")]
    rep = cfg.wall_chamber_report(weights)
    return {
        "weights": list(rep.weights),
        "walls": [list(w) for w in rep.walls],
        "in_open_chamber": rep.in_open_chamber,
        "chamber_signs": {",".join(map(str, k)): v
                          for k, v in sorted(rep.chamber_signs.items())},
    }


# --- the verb table ----------------------------------------------------------
# An option is a bare flag (a required option), (flag, type, default), or
# (flag, keyword arguments of add_argument).  Options that several verbs
# take are spelled once.

TYPE = "--type"
GENS = "--gens"
AB = ["--a", "--b"]
XY = ["--x", "--y"]
OPTIONAL_MARGIN = ("--margin", float, None)
CERTIFICATE = [("--epsilon", float, 0.2), ("--s", float, 10.0),
               ("--margin", float, 0.05)]

# {command: (help, [(verb, help or None, function, options)])}
VERBS = {
    "coxeter": ("Weyl group combinatorics", [
        ("poset", "DOT digraph of the Bruhat order", _coxeter_poset,
         [TYPE, ("--highlight", {"help": "balanced:K or JSON member list"})]),
        ("order", "JSON export of the order matrix", _coxeter_order, [TYPE])]),
    "thickenings": ("lower ideals and balance", [
        ("enumerate", None, _thickenings_enumerate, [TYPE]),
        ("count", None, _thickenings_count, [TYPE]),
        ("check", None, _thickenings_check, [TYPE, "--members"])]),
    "dist": ("distances between positive forms", [
        (name, None, functools.partial(_dist, metric), XY)
        for name, metric in [("delta", symspace.delta_distance),
                             ("finsler", symspace.finsler_distance),
                             ("riemannian", symspace.riemannian_distance)]]),
    "seq": ("sequence diagnostics", [
        ("regularity", None, _seq_regularity,
         [GENS, ("--threshold", float, 1.0), OPTIONAL_MARGIN])]),
    "horo": ("horofunction estimates", [
        ("estimate", None, _horo_estimate,
         ["--p", "--x", ("--direction", {"required": True, "help":
                                         "comma separated chamber vector"}),
          ("--t", {"default": "5,10,20,40"})])]),
    "flags": ("relative position of flags", [
        ("position", None, _flags_position,
         [*AB, ("--exact", {"action": "store_true"})]),
        ("antipodal", None, _flags_antipodal, AB)]),
    "limits": ("sampled chamber limit sets", [
        ("sample", None, _limits_sample,
         [GENS, ("--max-len", int, 5), ("--margin", float, 1.0)])]),
    "domain": ("discontinuity domain membership", [
        ("membership", None, _domain_membership,
         ["--flag", ("--sample", {"required": True,
                                  "help": "JSON file from limits sample"}),
          "--thickening"])]),
    "expand": ("flag manifold expansion", [
        ("factor", None, _expand_factor, ["--gen", "--flag"])]),
    "discreteness": ("nondiscreteness probe", [
        ("probe", None, _discreteness_probe,
         [GENS, ("--epsilon", float, 0.1), ("--max-len", int, 12)])]),
    "morse": ("straightness and defect reports", [
        ("straightness", None, _morse_straightness, ["--path", *CERTIFICATE]),
        ("defect", None, _morse_defect,
         ["--path", ("--B", float, 10.0), ("--L", float, 2.0),
          ("--A", float, 1.0), OPTIONAL_MARGIN]),
        ("schottky", None, _morse_schottky,
         [GENS, ("--N", {"type": int, "required": True}), *CERTIFICATE])]),
    "config": ("weighted configurations", [
        ("stability", None, _config_stability, ["--config"]),
        ("relpos", None, _config_relpos, AB),
        ("walls", None, _config_walls,
         [("--weights", {"required": True, "help": "comma separated"})])]),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="weylkit",
        description="Weyl group combinatorics, flag positions and "
                    "chamber-valued metrics for discrete matrix groups")
    out_help = "write output to this path instead of stdout"
    p.add_argument("--out", help=out_help)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, verbs) in VERBS.items():
        verb_sub = sub.add_parser(command, help=summary).add_subparsers(
            dest="verb", required=True)
        for name, verb_help, fn, options in verbs:
            # a verb given no help text stays out of its command's list
            q = verb_sub.add_parser(
                name, **({"help": verb_help} if verb_help else {}))
            # every verb also takes --out after its name; SUPPRESS keeps a
            # verb from overwriting an --out given before the command
            q.add_argument("--out", default=argparse.SUPPRESS, help=out_help)
            for option in options:
                if isinstance(option, str):
                    option = option, {"required": True}
                elif len(option) == 3:
                    option = option[0], {"type": option[1],
                                         "default": option[2]}
                q.add_argument(option[0], **option[1])
            q.set_defaults(fn=fn)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get(ENV_TOL)
    try:
        args.tol = flagdyn.check_tol(float(env) if env else flagdyn.RANK_TOL)
    except ValueError as exc:
        parser.error(f"{ENV_TOL}={env!r}: {exc}")
    try:
        out = args.fn(args)
        if not isinstance(out, str):
            out = render_json(out)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    except (WeylkitError, OSError, ValueError, KeyError,
            ArithmeticError) as exc:
        # JSONDecodeError is a ValueError, Fraction("1/0") an ArithmeticError
        sys.stdout.write(render_json({
            "error": type(exc).__name__,
            "message": str(exc),
            "argv": list(argv) if argv is not None else sys.argv[1:],
        }))
        return 1


if __name__ == "__main__":
    sys.exit(main())
