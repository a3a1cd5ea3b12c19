#!/usr/bin/env python3
"""Sweep transition-layer energies over window heights and clamp offsets.

Estimates the internal layer between the two wells at increasing heights,
and the two boundary layers at a range of clamp offsets, writing one table.
The offset sweep shows the boundary layers vanish at zero offset.
"""

import argparse
import math
import sys
from pathlib import Path

from twinchain.gamma import (CLAMP_RATIO, LayerSpec, estimate_layer,
                             save_layer_estimates)
from twinchain.wells import boundary_gradient, build_wells


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", type=float, default=math.sqrt(2.0))
    p.add_argument("--height", type=int, default=16,
                   help="largest window half-height")
    p.add_argument("--offsets", type=float, nargs="*", default=[0.0, 0.15, 0.3],
                   help="clamp offsets for the boundary layers")
    p.add_argument("--out", type=Path, default=Path("runs/layers.csv"))
    return p.parse_args()


def main():
    args = parse_args()
    wells = build_wells(args.a)
    F = boundary_gradient(wells, 0.5)
    h = args.height
    L = CLAMP_RATIO * h
    entries = []
    spec = LayerSpec("C", wells.U0, wells.QU1, (0.0, 0.0), L, h)
    entries.append((spec, estimate_layer(spec, wells)))
    for r in args.offsets:
        for spec in (LayerSpec("B_plus", F, wells.U0, (r, 0.0), L, h),
                     LayerSpec("B_minus", wells.QU1, F, (r, 0.0), L, h)):
            entries.append((spec, estimate_layer(spec, wells)))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_layer_estimates(entries, args.out,
                         header=f"layer sweep a={args.a!r} height={h}")
    for spec, est in entries:
        print(f"{spec.kind:8s} offset=({spec.r_star[0]:g}, {spec.r_star[1]:g}) "
              f"value={est.value:.9g} stabilized={est.converged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
