"""Certify splitting schemes numerically from their coefficient matrices.

A one-shot resolvent splitting is pinned down by six constant matrices.
This demo runs the built-in schemes through the certification battery:
dimension check (schemes that solve every instance need at least n-1
lifted blocks), sampled averagedness of the update map, and, from one
evaluation at each fixed point, its drift ||T(z) - z|| with the solution-map
consistency conditions.  The four-operator extension is kept as a sobering
example: it passes the dimension check but is not averaged, and its
iteration can diverge geometrically.
"""

import numpy as np

from minsplit import (
    ZeroOp,
    check_solution_mapping,
    eval_scheme,
    gen_affine_monotone,
    lifting_ok,
    mt_scheme,
    mt_solve,
    ryu4_scheme,
    save_scheme,
)

gamma = 0.9
scheme = mt_scheme(4, gamma=gamma)
print(f"minimal-memory scheme, n={scheme.n}, d={scheme.d}")
print(f"  lifting dimension admissible: {lifting_ok(scheme.n, scheme.d)}")

inst = gen_affine_monotone(4, 3, seed=2)
ops = inst.operators()
report = mt_solve(ops, gamma=gamma, tol=1e-11, max_iter=200000, dim=3)
mapping = check_solution_mapping(scheme, ops, report.state.z)
print(f"  drift ||T(z) - z|| at a converged fixed point: {mapping.drift:.1e}")
print(f"  consensus spread {mapping.consensus_spread:.1e}, "
      f"solution vs mean resolvent input {mapping.solution_vs_mean_y:.1e}, "
      f"subgradient sum {mapping.inclusion_residual:.1e}")
print(f"  solution vs recorded zero: "
      f"{np.linalg.norm(mapping.solution - inst.solution):.1e}")

# the generic evaluator and the hand-written step agree to machine precision
z = np.arange(9.0).reshape(3, 3)
t_out, _, _, _ = eval_scheme(scheme, z, ops)
from minsplit import mt_step

z_next, _ = mt_step(z, ops, gamma)
print(f"  generic evaluation vs direct step: {np.max(np.abs(t_out - z_next)):.1e}")

print("\nfour-operator extension, n=4, d=3")
bad = ryu4_scheme(0.5)
print(f"  lifting dimension admissible: {lifting_ok(bad.n, bad.d)}")
z = np.array([[0.0], [0.0], [1.0]])
zero_ops = [ZeroOp() for _ in range(4)]
norms = []
for k in range(1, 9):
    z = eval_scheme(bad, z, zero_ops)[0]
    norms.append(float(np.linalg.norm(z)))
print("  ||z_k|| under zero operators:", " ".join(f"{v:.3f}" for v in norms))
print("  (growth factor 1.5 per step: the dimension check is necessary,"
      "\n   not sufficient; run `minsplit verify --builtin ryu4` for the"
      "\n   full report)")

save_scheme(scheme, "scheme_n4.txt")
print("\nwrote scheme_n4.txt; certify it with:"
      "\n  minsplit verify --scheme-file scheme_n4.txt --gamma 0.9")
