"""The canonical element order, pinned by digests.

Group construction fixes one index per element.  Labels, DOT output, the
order-matrix export and the order of the balanced enumeration all follow
that index, so the digests below pin it together with the word tables
and the exact reflection matrices.  A change to how groups are built
must leave every one of them unchanged.

Reduced words are enumerated in shortlex order (a < A < b < B < ...), and
the limit-set sample, the orbit growth data and the Schottky triples
follow that order; their digests pin it together with every float.  The
orbit growth data and the Schottky rows are also checked against
mpmath products to 1e-12, so the digests pin correct values.
"""

import hashlib

import mpmath as mp
import numpy as np
import pytest

import mp_oracle
from weylkit import flagdyn, morse
from weylkit.cli import main
from weylkit.coxeter import WeylGroup, poset_dot

GROUP_DIGESTS = {
    "A1": "c9fa3a440f85c7c68ca16a2650257b9363919b7a9f3f8086e1ca990697105e98",
    "A2": "93a77e834010a8b64578cd3ddb8248bde44e9e04a7c0b4e2a522d433586c2367",
    "A3": "30a3e907aba5e758ebe00f22dca5a0685cccf872b18cefb46b0b1f19ef51d040",
    "A4": "b4c0b8d6ccef79905a2374d47c7b5eb00bfdde1ba5d4725da55873482177ba01",
    "A5": "1de7b28a5556cf1d99c5414c80053dcb1f35217ae9e4f356c92d0cf9c3a49145",
    "A6": "c95654b653c3c386af44070209d7e857a3cd068281c313188a866d7214e60943",
    "B2": "22ae2dccf464b27a3f24d1c5213a19424acc3cc4cd0d8853e028657b9bdb85e9",
    "B3": "dcb8d2281bd941a14af75e00e4f0707fa6f78644ada7fd30dc496b754b88f45a",
    "B4": "41760a19c6c659d37ff0c728dfa0d06fedc1daa8a3563f0b935c80847721be39",
    "D2": "828a5f857a64b6b8f1f0d5430dc9e11c8e071894995f44e0ea4e5d9fa14cbad7",
    "D3": "5fd8f6008cfded408af4eec35856b2e64f5f1cb69753308e6e70b1f483e501a7",
    "D4": "f21ba09e12ea3a489addf6eb451c24ffa0ec066b4d2dbef97f6d6cec9bd1f2a4",
    "G2": "4ec585e995553c3907926d2cc547c861711d24d67919c1c2af82533615ff0cbc",
    "F4": "5858fce2b20f3905c6dea16d88f381724397a36035b9912809b8db9a48ccb4a3",
    "A1^6": "3d7d8b64fd9b1ba35484f830ce39a57e97b1d65688666c27c39baf368756fa05",
    "A2xG2": "7e780c0cff9030a2918fa192579861cd2ab072cfdf5d00ac5ee0e5af6cfd9ab8",
    "B3xA1": "69fc52be315a8dfeb1a6285bbd0c94ac0d8098e7a1aa153ea920a75fad8bf0fe",
}

DOT_DIGESTS = {
    "A2": "fa3f13a9c2d2511eb94ad4d1b5df9ec2b1dee234f8114df106d2cb33be833017",
    "A3": "b204fa4f96837a1444ccfbfed8633691f4fdf599974b63bb60c65dd5a43ec8c5",
    "B2": "af8908af245d710ccd04c3b0d7de27d206b80619d9795db8f976770429c0adf9",
    "B3": "cf36d28f124f66afe6998443d58a1b4a3ffa03f245d6fdfa1cffe66608db5469",
    "G2": "795e86da7929e3084a3b1a1ca9d6aba49fca9da2f6ce579390ce1bbe887fe339",
}

ENUMERATE_DIGESTS = {
    "A2": "83ef8dad8a4c4f65212b89489b5dbf8c4c7e76cd3e984a3987d2848a2d1edc62",
    "A3": "90b8a276ebad0ba5355668c78b9e3fd9e655cdc9df6e3141fd3ac8238aa3dbc4",
    "B2": "b0ae7d79f896cd51357b0152af416d0474cb29c5e952e4f4ac718c9cf996c3ba",
    "B3": "c2f077c7c8646f1b4bf82112f96e9ba245a987c246aa7ac1c8ef005f0ee20ea5",
    "G2": "4fcd7c3998e54e79b4f114606c08b5ea8f1035e3f5fcf6907337aa20baca62c4",
}

WORD_DIGESTS = {
    "limit_set_sample": "403cdfa24b504689f4468e5dc07378e4442dd009bf602b4ed432a89cb0cb99d4",
    "limit_set_sample_L5": "9eebc437265476db611334b68ec5a4b43303bb79a7255d85d176c7f80835b412",
    "orbit_growth": "edde47af20ee8f0b64380ae781f10c4e177811ff8fbb5d6b2e36aa8198a51cec",
    "schottky_certificate": "8517d18faa4719c287c1bc40bf611c8727fb3934ebd7708aa861c4c94214e1e2",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def group_digest(W):
    # an entry x keys as (num, den, 0, 1), the key it had as x + 0 sqrt 3
    # when G2 was realised over Q(sqrt 3), so digests without G2 held
    matrix_keys = [tuple((e.numerator, e.denominator, 0, 1)
                         for row in W.matrix(i) for e in row)
                   for i in range(len(W))]
    return _sha(repr((W.lengths, W.words, W.gen_mult, W.inverse_table,
                      matrix_keys)))


@pytest.mark.parametrize("descriptor", sorted(GROUP_DIGESTS))
def test_group_tables_pinned(descriptor):
    assert group_digest(WeylGroup(descriptor)) == GROUP_DIGESTS[descriptor]


@pytest.mark.parametrize("descriptor", sorted(DOT_DIGESTS))
def test_poset_dot_pinned(descriptor):
    assert _sha(poset_dot(WeylGroup(descriptor))) == DOT_DIGESTS[descriptor]


@pytest.mark.parametrize("descriptor", sorted(ENUMERATE_DIGESTS))
def test_balanced_enumeration_pinned(capsys, descriptor):
    assert main(["thickenings", "enumerate", "--type", descriptor]) == 0
    assert _sha(capsys.readouterr().out) == ENUMERATE_DIGESTS[descriptor]


def _standard_pair():
    def rot(t, i, j):
        m = np.eye(3)
        m[i, i] = m[j, j] = np.cos(t)
        m[j, i] = np.sin(t)
        m[i, j] = -m[j, i]
        return m
    g1 = np.diag([4.0, 1.0, 0.25])
    h = rot(0.8, 0, 1) @ rot(0.5, 1, 2) @ rot(0.3, 0, 1)
    return [g1, h @ g1 @ h.T]


def test_limit_set_sample_pinned():
    sample = flagdyn.limit_set_sample(_standard_pair(), 4, 1.0)
    assert _sha(repr(sample.to_json_obj())) == WORD_DIGESTS["limit_set_sample"]


def test_limit_set_sample_L5_pinned():
    # 448 flags, with the dedup screened by the angle between first lines
    sample = flagdyn.limit_set_sample(_standard_pair(), 5, 1.0)
    assert len(sample) == 448
    assert (_sha(repr(sample.to_json_obj()))
            == WORD_DIGESTS["limit_set_sample_L5"])


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_dense_rotation_probe_pinned():
    # every word of length <= 12 is searched, the last length a block of
    # parents at a time; the Frobenius screen must keep each one within
    # epsilon of the identity
    gens = [_rotation([0, 0, 1], 2.4), _rotation([1, 0, 0], 1.7)]
    res = flagdyn.nondiscreteness_certificate(gens, epsilon=0.1, max_len=12)
    assert res.certificate.words == ["abABabAB", "aBAbaBAb", "aBAbaBAb"]
    assert repr(res.certificate.commutator_norm) == "0.0003279337128114587"
    assert res.words_searched == 1062880
    assert res.budget_exhausted is False


def test_orbit_growth_pinned():
    gens = _standard_pair()
    data = morse.orbit_growth(gens, 1, 5)
    levels, want = [], []
    with mp.workdps(30):
        letters = mp_oracle.power_letters(gens, 1)
        for parent, letter, _ in flagdyn.reduced_words(
                flagdyn.stack_letters(gens), 5):
            levels.append((parent, letter))
            logs = [mp_oracle.word_logs(
                        letters, flagdyn.word_of(4, len(levels), row))
                    for row in range(len(parent))]
            want += [(len(levels), 2 * np.linalg.norm(v - v.mean()))
                     for v in logs]
    assert [length for length, _ in data] == [length for length, _ in want]
    assert np.allclose([d for _, d in data], [d for _, d in want],
                       rtol=1e-12, atol=0)
    assert _sha(repr(data)) == WORD_DIGESTS["orbit_growth"]


def test_schottky_rows_pinned():
    gens = _standard_pair()
    rep = morse.schottky_certificate(gens, 6)
    rows = [(t.triple, t.spacing, t.regular, t.angles, t.passed)
            for t in rep.triples]
    want = mp_oracle.schottky_rows(gens, 6, morse.ZetaType.default(3).array)
    for t, (s1, s2, a1, a2) in zip(rep.triples, want, strict=True):
        assert np.allclose(t.spacing, (s1, s2), rtol=1e-12, atol=0)
        assert np.allclose(t.angles, (a1, a2), rtol=0, atol=1e-12)
    assert _sha(repr(rows)) == WORD_DIGESTS["schottky_certificate"]
