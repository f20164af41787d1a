"""Interval-Hessian reference methods.

An elementwise interval enclosure of the Hessian can be turned into
eigenvalue bounds in two classic ways: cheap Gershgorin discs, or exact
(for the enclosure) vertex enumeration.  The codelist methods skip the
matrix enclosure entirely, which is why they can win or lose against
either reference depending on the function.
"""

from hessbound import Box, compile_expression, eval_improved, eval_original
from hessbound.reference import (
    gershgorin_bounds,
    hertz_rohn_bounds,
    interval_hessian,
    sym_eigen_range,
)

SRC = "x1*x2 + x2^2 + exp(x1)"
cl = compile_expression(SRC, 2)
box = Box.from_bounds([(0, 1), (0, 1)])

enc = interval_hessian(cl, box)
print(f"function: {SRC}  on  {box}")
print("interval Hessian enclosure:")
print("  lower endpoints:\n", enc.lo)
print("  upper endpoints:\n", enc.hi)

print()
print(f"Gershgorin discs:       {gershgorin_bounds(enc)}")
print(f"vertex enumeration:     {hertz_rohn_bounds(enc)}")
print(f"direct codelist:        {eval_original(cl, box).eigen}")
print(f"sparsity-aware:         {eval_improved(cl, box).eigen}")

print()
mid = 0.5 * (enc.lo + enc.hi)
print(f"eigenvalue range of the midpoint matrix (LAPACK eigvalsh): "
      f"{sym_eigen_range(mid)}")
