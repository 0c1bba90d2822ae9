"""Rewrite band_pool.json, the DFAs the automata workload's seed draws from.

    PYTHONPATH=src python3 -m perfbench.make_band_pool

For each band, complete DFAs over {a, b} with the band's number of states are
drawn uniformly (each state accepting with probability 1/2) from a fixed
seed, and kept when they are minimal and their syntactic monoid order is
within 5% of the band's target.  Fixing the state count and a narrow order
range keeps the cost of a band's report nearly the same whichever member the
workload seed picks; drawing the pool once keeps that search out of set-up.
"""

import json
import random
import sys

from toposlsc.words import Dfa, minimize

from .inputs import BAND_POOL, BANDS

POOL_SIZE = 24


def monoid_order_capped(delta, cap):
    """Order of the transition monoid of ``delta``, or None above ``cap``."""
    letters = [tuple(row[a] for row in delta) for a in range(len(delta[0]))]
    identity = tuple(range(len(delta)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        f = frontier.pop()
        for letter in letters:
            g = tuple(letter[s] for s in f)
            if g not in seen:
                seen.add(g)
                if len(seen) > cap:
                    return None
                frontier.append(g)
    return len(seen)


def main():
    rng = random.Random("band pool")
    pool = {}
    for name, target, states in BANDS:
        lo, hi = round(target * 0.95), round(target * 1.05)
        members = []
        while len(members) < POOL_SIZE:
            delta = [[rng.randrange(states) for _ in "ab"] for _ in range(states)]
            accepting = sorted(s for s in range(states) if rng.random() < 0.5)
            m = minimize(Dfa("ab", states, 0, accepting, delta))
            if m.n != states:
                continue
            order = monoid_order_capped(m.delta, hi)
            if order is not None and order >= lo:
                members.append({"order": order, "accepting": accepting, "delta": delta})
                print(name, len(members), order, flush=True)
        pool[name] = members
    BAND_POOL.write_text(json.dumps(pool, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
