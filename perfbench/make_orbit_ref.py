"""Regenerate data/orbit_growth_ref.json, the reference for orbit_growth.

    python3 perfbench/make_orbit_ref.py

For the standard pair (workloads.standard_pair) and N = 6, every reduced
word of length 1..6 in g1^N, g2^N and their inverses is multiplied out
in 200-digit mpmath, starting from the float generators themselves; the
orbit distance of the product is twice the norm of its centred log
singular values.  No weylkit code is used.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

from workloads import standard_pair

N, MAX_LEN, DPS = 6, 6, 200
OUT = Path(__file__).resolve().parent / "data" / "orbit_growth_ref.json"


def main():
    mp.mp.dps = DPS
    gens = standard_pair()
    letters = []
    for g in gens:
        m = mp.matrix(g.tolist())
        letters.append(m ** N)
        letters.append(mp.inverse(m) ** N)
    names = "aAbB"
    entries = []
    frontier = [("", -1, mp.eye(3))]
    for length in range(1, MAX_LEN + 1):
        nxt = []
        for word, last, mat in frontier:
            for a, g in enumerate(letters):
                if last >= 0 and a == last ^ 1:
                    continue
                m = mat * g
                nxt.append((word + names[a], a, m))
                s = mp.svd_r(m, compute_uv=False)
                logs = [mp.log(s[i]) for i in range(3)]
                mean = sum(logs) / 3
                dist = 2 * mp.sqrt(sum((x - mean) ** 2 for x in logs))
                entries.append({"word": word + names[a], "length": length,
                                "distance": float(dist)})
        frontier = nxt
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "generators": [g.tolist() for g in gens], "N": N,
        "max_word_length": MAX_LEN, "dps": DPS, "entries": entries}, indent=0))


if __name__ == "__main__":
    main()
