"""The once-for-all supernet: counting, slicing, and extraction.

Every subnet is a set of prefix slices into one maximal weight store, so a
forward through the supernet at some config and a forward through the
extracted standalone copy must agree to float precision.
"""

import numpy as np

from ofat.rng import Rng
from ofat.spaces import (
    base_space, count_subnets, desk_space, max_subnet, min_subnet, named_subnet,
    sample_subnet, small_space,
)
from ofat.supernet import build_supernet, count_params, extract_subnet, forward, reference_forward

print("== subnet counting (exact integers) ==")
small, base = small_space(), base_space()
print(f"small supernet: {count_subnets(small):,} subnets (~9.5e11)")
print(f"base  supernet: {count_subnets(base):,} subnets (~6.5e9)")

print("\n== parameter counting at reference scale ==")
for name, space, cfg in [
    ("largest (768-dim, 12-head)", base, max_subnet(base)),
    ("a_base  (640-dim, 10-head)", base, named_subnet(base, "a_base")),
    ("a_small (384-dim, 6-head)", small, named_subnet(small, "a_small")),
    ("minimal (256-dim, 4-head)", small, min_subnet(small)),
]:
    pc = count_params(space, cfg)
    print(f"{name}: {pc.total / 1e6:6.2f}M   (blocks {pc.by_component['blocks'] / 1e6:.2f}M)")

print("\n== desk-scale supernet: slice vs extract ==")
space = desk_space()
model = build_supernet(space, Rng(1, 1))
rng = Rng(2, 4)
x = (Rng(3, 2).uniform((12, space.frontend_dim)) * 2 - 1).astype(np.float32)
for i in range(3):
    cfg = sample_subnet(space, rng)
    _, _, sup = forward(model, cfg, x)
    _, _, ext = reference_forward(extract_subnet(model, cfg), cfg, x)
    diff = float(np.abs(sup.data - ext.data).max())
    print(f"config embed={cfg.embed_dim} depth={cfg.depth} heads={cfg.heads}: "
          f"max |supernet - extracted| = {diff:.1e}")

print("\n== nesting ==")
lo, hi = min_subnet(space), max_subnet(space)
lo_params = count_params(space, lo, includes_frontend=False).total
hi_params = count_params(space, hi, includes_frontend=False).total
print(f"every one of the {count_subnets(space):,} desk subnets lives inside the same "
      f"{hi_params:,}-parameter store; the smallest uses {lo_params:,} of them")
