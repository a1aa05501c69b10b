"""Command line front end.

All structured output is JSON rendered by a deterministic writer
(floats with 17 significant digits, rationals as "p/q" strings); the
poset verb emits DOT.  Exit codes: 0 success, 1 domain error (with a
structured JSON error on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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


def _emit(text, args):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- input parsing -----------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _num(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


def _matrix(data):
    return np.array([[float(_num(x)) for x in row] for row in data])


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


def _vector_arg(text):
    return np.array([float(x) for x in text.split(",")])


def _is_rational(data):
    if isinstance(data, list):
        return all(_is_rational(x) for x in data)
    return isinstance(data, (int, str))


def _thickening_arg(text, group):
    """Either ``balanced:K`` or a JSON members list."""
    if text.startswith("balanced:"):
        idx = int(text.split(":", 1)[1])
        ths = thickenings.enumerate_balanced(group)
        if idx >= len(ths):
            raise WeylkitError(f"only {len(ths)} balanced thickenings exist")
        return ths[idx]
    data = _json_arg(text)
    if isinstance(data, dict):
        return thickenings.Thickening.from_json(data)
    elems = [group.element_from_label(m) for m in data]
    return thickenings.down_closure(group, elems)


def _config_arg(text):
    data = _json_arg(text)
    angles = [_num(a) for a in data["angles"]]
    weights = [_num(w) for w in data["weights"]]
    return cfg.WeightedConfig.circle(angles, weights)


# --- verb implementations ----------------------------------------------------

def _cmd_coxeter_poset(args):
    W = coxeter.build_group(args.type)
    highlight = None
    if args.highlight:
        highlight = _thickening_arg(args.highlight, W)
    _emit(coxeter.poset_dot(W, highlight), args)
    return 0


def _cmd_coxeter_order(args):
    W = coxeter.build_group(args.type)
    _emit(W.order_matrix_json() + "\n", args)
    return 0


def _cmd_thick_enumerate(args):
    W = coxeter.build_group(args.type)
    ths = thickenings.enumerate_balanced(W)
    out = [{"type": W.ctype.descriptor, "members": t.labels()} for t in ths]
    _emit(render_json(out), args)
    return 0


def _cmd_thick_count(args):
    W = coxeter.build_group(args.type)
    _emit(f"{thickenings.count_balanced(W)}\n", args)
    return 0


def _cmd_thick_check(args):
    W = coxeter.build_group(args.type)
    th = _thickening_arg(args.members, W)
    ideal = th.is_ideal()
    out = {"type": W.ctype.descriptor, "members": th.labels(), "ideal": ideal}
    if ideal:
        out["slim"] = thickenings.is_slim(th)
        out["fat"] = thickenings.is_fat(th)
        out["balanced"] = thickenings.is_balanced(th)
    _emit(render_json(out), args)
    return 0


def _cmd_dist(args):
    x = symspace.SymPoint(_matrix_arg(args.x))
    y = symspace.SymPoint(_matrix_arg(args.y))
    if args.metric == "delta":
        out = {"delta": symspace.delta_distance(x, y)}
    elif args.metric == "finsler":
        out = {"finsler": symspace.finsler_distance(x, y)}
    else:
        out = {"riemannian": symspace.riemannian_distance(x, y)}
    _emit(render_json(out), args)
    return 0


def _cmd_seq_regularity(args):
    gs = _matrices_arg(args.gens)
    cone = symspace.RegularityCone(args.margin) if args.margin else None
    rep = symspace.sequence_regularity(gs, threshold=args.threshold, cone=cone)
    out = {
        "margins": rep.margins,
        "regular_trend": rep.regular_trend,
        "threshold": rep.threshold,
    }
    if rep.theta_flags is not None:
        out["theta_flags"] = rep.theta_flags
    _emit(render_json(out), args)
    return 0


def _cmd_horo_estimate(args):
    p = symspace.SymPoint(_matrix_arg(args.p))
    x = symspace.SymPoint(_matrix_arg(args.x))
    direction = _vector_arg(args.direction)
    ts = [float(t) for t in args.t.split(",")]
    est = symspace.horofunction_estimate(p, direction, x, ts)
    out = {"t": est.t_values, "estimates": est.estimates,
           "converged": est.converged, "value": est.value}
    _emit(render_json(out), args)
    return 0


def _cmd_flags_position(args):
    a = _json_arg(args.a)
    b = _json_arg(args.b)
    exact = args.exact or (_is_rational(a) and _is_rational(b))
    if exact:
        res = flagdyn.relative_position_exact(
            [[_num(x) for x in row] for row in a],
            [[_num(x) for x in row] for row in b])
    else:
        res = flagdyn.relative_position(flagdyn.flag_from_basis(_matrix(a)),
                                        flagdyn.flag_from_basis(_matrix(b)))
    out = {"position": res.w.label(), "length": res.w.length,
           "rank_matrix": res.rank_matrix[1:, 1:],
           "confidence": res.confidence, "exact": exact}
    _emit(render_json(out), args)
    return 0


def _cmd_flags_antipodal(args):
    a = flagdyn.flag_from_basis(_matrix_arg(args.a))
    b = flagdyn.flag_from_basis(_matrix_arg(args.b))
    _emit(render_json({"antipodal": flagdyn.is_antipodal(a, b)}), args)
    return 0


def _cmd_limits_sample(args):
    gens = _matrices_arg(args.gens)
    sample = flagdyn.limit_set_sample(gens, args.max_len, args.margin)
    _emit(render_json(sample.to_json_obj()), args)
    return 0


def _cmd_domain_membership(args):
    flag = flagdyn.flag_from_basis(_matrix_arg(args.flag))
    sample = flagdyn.FlagSample.from_json_obj(_load_json(args.sample))
    W = flagdyn.position_group(flag.n)
    th = _thickening_arg(args.thickening, W)
    member, witness = flagdyn.thickening_membership(flag, sample, th)
    out = {"in_thickened_limit_set": member,
           "in_domain": not member,
           "witness": witness.basis if witness is not None else None}
    _emit(render_json(out), args)
    return 0


def _cmd_expand_factor(args):
    g = _matrix_arg(args.gen)
    flag = flagdyn.flag_from_basis(_matrix_arg(args.flag))
    factor = flagdyn.expansion_factor(g, flag, step=args.step)
    _emit(render_json({"expansion": factor}), args)
    return 0


def _cmd_discreteness_probe(args):
    gens = _matrices_arg(args.gens)
    res = flagdyn.nondiscreteness_certificate(
        gens, epsilon=args.epsilon, max_len=args.max_len)
    out = {
        "nondiscrete_certificate": None,
        "words_searched": res.words_searched,
        "budget_exhausted": res.budget_exhausted,
    }
    if res.certificate:
        out["nondiscrete_certificate"] = {
            "words": res.certificate.words,
            "commutator_norm": res.certificate.commutator_norm,
        }
    _emit(render_json(out), args)
    return 0


def _path_points(data):
    return [symspace.SymPoint(_matrix(m)) for m in data]


def _cmd_morse_straightness(args):
    pts = _path_points(_json_arg(args.path))
    cone = symspace.RegularityCone(args.margin)
    cert = morse.straightness_check(pts, cone, epsilon=args.epsilon,
                                    spacing=args.s)
    out = {
        "pass": cert.verdict,
        "spacing_margin": cert.spacing_margin,
        "straightness_margin": cert.straightness_margin,
        "regularity_flags": cert.regularity_flags,
        "first_violation": list(cert.first_violation)
        if cert.first_violation else None,
    }
    _emit(render_json(out), args)
    return 0


def _cmd_morse_defect(args):
    pts = _path_points(_json_arg(args.path))
    cone = symspace.RegularityCone(args.margin) if args.margin else None
    rep = morse.morse_defect_report(pts, cone=cone, window=args.B,
                                    L=args.L, A=args.A)
    out = {
        "qi_lower_margin": rep.qi_lower_margin,
        "qi_upper_margin": rep.qi_upper_margin,
        "window_lengths": rep.window_lengths,
        "window_defects": rep.window_defects,
    }
    if rep.segment_regular is not None:
        out["segment_regular"] = rep.segment_regular
    _emit(render_json(out), args)
    return 0


def _cmd_morse_schottky(args):
    gens = _matrices_arg(args.gens)
    cone = symspace.RegularityCone(args.margin)
    rep = morse.schottky_certificate(gens, args.N, cone=cone,
                                     epsilon=args.epsilon, spacing=args.s)
    out = {
        "N": rep.N,
        "pass": rep.passed,
        "min_spacing": rep.min_spacing,
        "max_angle": rep.max_angle,
        "triples": [
            {"triple": t.triple, "spacing": t.spacing,
             "regular": list(t.regular), "angles": t.angles, "pass": t.passed}
            for t in rep.triples
        ],
    }
    _emit(render_json(out), args)
    return 0


def _cmd_config_stability(args):
    z = _config_arg(args.config)
    out = {"stable": cfg.is_stable(z), "semistable": cfg.is_semistable(z),
           "masses": [[m[0], m[1]] for m in cfg.aggregate_masses(z)]}
    _emit(render_json(out), args)
    return 0


def _cmd_config_relpos(args):
    a = _config_arg(args.a)
    b = _config_arg(args.b)
    _emit(render_json({"relpos": list(cfg.relpos_config(a, b))}), args)
    return 0


def _cmd_config_walls(args):
    weights = [Fraction(w) for w in args.weights.split(",")]
    rep = cfg.wall_chamber_report(weights)
    out = {
        "weights": list(rep.weights),
        "walls": [list(w) for w in rep.walls],
        "in_open_chamber": rep.in_open_chamber,
        "chamber_signs": {",".join(map(str, k)): v
                          for k, v in sorted(rep.chamber_signs.items())},
    }
    _emit(render_json(out), args)
    return 0


# --- parser ------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="weylkit",
        description="Weyl group combinatorics, flag positions and "
                    "chamber-valued metrics for discrete matrix groups")
    out_help = "write output to this path instead of stdout"
    p.add_argument("--out", help=out_help)
    sub = p.add_subparsers(dest="command", required=True)
    # every verb also takes --out after its name; SUPPRESS keeps a verb
    # from overwriting an --out given before the command with its default
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=argparse.SUPPRESS, help=out_help)
    verb_parser = functools.partial(argparse.ArgumentParser, parents=[out])

    def verbs(command, summary):
        return sub.add_parser(command, help=summary).add_subparsers(
            dest="verb", required=True, parser_class=verb_parser)

    coxsub = verbs("coxeter", "Weyl group combinatorics")
    q = coxsub.add_parser("poset", help="DOT digraph of the Bruhat order")
    q.add_argument("--type", required=True)
    q.add_argument("--highlight", help="balanced:K or JSON member list")
    q.set_defaults(fn=_cmd_coxeter_poset)
    q = coxsub.add_parser("order", help="JSON export of the order matrix")
    q.add_argument("--type", required=True)
    q.set_defaults(fn=_cmd_coxeter_order)

    thsub = verbs("thickenings", "lower ideals and balance")
    q = thsub.add_parser("enumerate")
    q.add_argument("--type", required=True)
    q.set_defaults(fn=_cmd_thick_enumerate)
    q = thsub.add_parser("count")
    q.add_argument("--type", required=True)
    q.set_defaults(fn=_cmd_thick_count)
    q = thsub.add_parser("check")
    q.add_argument("--type", required=True)
    q.add_argument("--members", required=True)
    q.set_defaults(fn=_cmd_thick_check)

    dsub = verbs("dist", "distances between positive forms")
    for name in ("delta", "finsler", "riemannian"):
        q = dsub.add_parser(name)
        q.add_argument("--x", required=True)
        q.add_argument("--y", required=True)
        q.set_defaults(fn=_cmd_dist, metric=name)

    ssub = verbs("seq", "sequence diagnostics")
    q = ssub.add_parser("regularity")
    q.add_argument("--gens", required=True)
    q.add_argument("--threshold", type=float, default=1.0)
    q.add_argument("--margin", type=float, default=None)
    q.set_defaults(fn=_cmd_seq_regularity)

    hsub = verbs("horo", "horofunction estimates")
    q = hsub.add_parser("estimate")
    q.add_argument("--p", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--direction", required=True,
                   help="comma separated chamber vector")
    q.add_argument("--t", default="5,10,20,40")
    q.set_defaults(fn=_cmd_horo_estimate)

    fsub = verbs("flags", "relative position of flags")
    q = fsub.add_parser("position")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--exact", action="store_true")
    q.set_defaults(fn=_cmd_flags_position)
    q = fsub.add_parser("antipodal")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.set_defaults(fn=_cmd_flags_antipodal)

    lisub = verbs("limits", "sampled chamber limit sets")
    q = lisub.add_parser("sample")
    q.add_argument("--gens", required=True)
    q.add_argument("--max-len", type=int, default=5)
    q.add_argument("--margin", type=float, default=1.0)
    q.set_defaults(fn=_cmd_limits_sample)

    domsub = verbs("domain", "discontinuity domain membership")
    q = domsub.add_parser("membership")
    q.add_argument("--flag", required=True)
    q.add_argument("--sample", required=True, help="JSON file from limits sample")
    q.add_argument("--thickening", required=True)
    q.set_defaults(fn=_cmd_domain_membership)

    exsub = verbs("expand", "flag manifold expansion")
    q = exsub.add_parser("factor")
    q.add_argument("--gen", required=True)
    q.add_argument("--flag", required=True)
    q.add_argument("--step", type=float, default=1e-5)
    q.set_defaults(fn=_cmd_expand_factor)

    dissub = verbs("discreteness", "nondiscreteness probe")
    q = dissub.add_parser("probe")
    q.add_argument("--gens", required=True)
    q.add_argument("--epsilon", type=float, default=0.1)
    q.add_argument("--max-len", type=int, default=12)
    q.set_defaults(fn=_cmd_discreteness_probe)

    mosub = verbs("morse", "straightness and defect reports")
    q = mosub.add_parser("straightness")
    q.add_argument("--path", required=True)
    q.add_argument("--epsilon", type=float, default=0.2)
    q.add_argument("--s", type=float, default=10.0)
    q.add_argument("--margin", type=float, default=0.05)
    q.set_defaults(fn=_cmd_morse_straightness)
    q = mosub.add_parser("defect")
    q.add_argument("--path", required=True)
    q.add_argument("--B", type=float, default=10.0)
    q.add_argument("--L", type=float, default=2.0)
    q.add_argument("--A", type=float, default=1.0)
    q.add_argument("--margin", type=float, default=None)
    q.set_defaults(fn=_cmd_morse_defect)
    q = mosub.add_parser("schottky")
    q.add_argument("--gens", required=True)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--epsilon", type=float, default=0.2)
    q.add_argument("--s", type=float, default=10.0)
    q.add_argument("--margin", type=float, default=0.05)
    q.set_defaults(fn=_cmd_morse_schottky)

    cosub = verbs("config", "weighted configurations")
    q = cosub.add_parser("stability")
    q.add_argument("--config", required=True)
    q.set_defaults(fn=_cmd_config_stability)
    q = cosub.add_parser("relpos")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.set_defaults(fn=_cmd_config_relpos)
    q = cosub.add_parser("walls")
    q.add_argument("--weights", required=True, help="comma separated")
    q.set_defaults(fn=_cmd_config_walls)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if os.environ.get(ENV_TOL):
        try:
            tol = float(os.environ[ENV_TOL])
        except ValueError:
            tol = math.nan
        if not 0 < tol < math.inf:
            parser.error(f"{ENV_TOL} must be a positive finite number, "
                         f"not {os.environ[ENV_TOL]!r}")
        flagdyn.RANK_TOL = tol
    try:
        return args.fn(args)
    except (WeylkitError, OSError, ValueError, KeyError) as exc:
        # json.JSONDecodeError is a ValueError
        sys.stdout.write(render_json({
            "error": type(exc).__name__,
            "message": str(exc),
            "argv": list(argv) if argv is not None else sys.argv[1:],
        }))
        return 1


if __name__ == "__main__":
    sys.exit(main())
