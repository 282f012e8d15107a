"""Regenerate the benchmark's committed ray files in perfbench/data/.

    PYTHONPATH=src python3 perfbench/build_inputs.py

rays165.txt is the published configuration: closure of the 12 MUB rays under
norm bound 6.  rays741.txt is the stress configuration: the same closure under
norm bound 18, assembled non-strictly.  ``closure_generate`` always assembles
strictly and raises NonTriangleClique at bound 18, so the closure loop is
repeated here from the public primitives.  Both files are written by
``export_rays`` and so are in canonical form and id order; the benchmark
checks every load against the counts below.
"""

from __future__ import annotations

import os

from ksembed.configuration import (
    canonicalize,
    closure_generate,
    configuration_from_vectors,
    export_rays,
    mub_seed,
)
from ksembed.exact import ParallelInput, conj_cross

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# (rays, edges, contexts) of each committed file
COUNTS = {
    "rays165.txt": (165, 390, 130),
    "rays741.txt": (741, 1974, 490),
}


def stress_vectors(norm_bound: int = 18):
    """Closure of the MUB seed keeping completions whose squared norm divides
    ``norm_bound``; the same insertion order as ``closure_generate``."""
    vecs, seen = [], set()
    for v in mub_seed():
        c = canonicalize(v)
        if c not in seen:
            seen.add(c)
            vecs.append(c)
    i = 0
    while i < len(vecs):
        u = vecs[i]
        for j in range(i):
            try:
                w = conj_cross(u, vecs[j])
            except ParallelInput:
                continue
            c = canonicalize(w)
            if c not in seen and norm_bound % c.sq_norm() == 0:
                seen.add(c)
                vecs.append(c)
        i += 1
    return vecs


def main() -> None:
    configs = {
        "rays165.txt": closure_generate(mub_seed()),
        "rays741.txt": configuration_from_vectors(stress_vectors(), strict=False),
    }
    os.makedirs(DATA, exist_ok=True)
    for name, cfg in configs.items():
        counts = (cfg.n_rays, len(cfg.edges), len(cfg.contexts))
        if counts != COUNTS[name]:
            raise SystemExit(f"{name}: got {counts}, expected {COUNTS[name]}")
        with open(os.path.join(DATA, name), "w") as fh:
            fh.write(export_rays(cfg))
        print(f"{name}: {counts[0]} rays, {counts[1]} edges, {counts[2]} contexts")


if __name__ == "__main__":
    main()
