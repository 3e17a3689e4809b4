"""Connectivity of planar tight frames, constructively.

Unit vectors in the plane are unit complex numbers; k of them form a tight
frame exactly when their squares sum to zero.  Squaring maps the frame
space onto the space of closed unit chains, a 2^k-fold covering.  The demo
straightens a random chain to standard form, lifts the straightening back
through the covering, finishes inside the finite fiber, and validates
every sample.  Lifting a loop of Gram points back to frames can return a
reflected frame; the sign of that holonomy distinguishes loops that
reverse orientation.
"""

import numpy as np

import framelab as fl

rng = np.random.default_rng(42)
k = 7
z = fl.random_planar_frame(k, rng)
print(f"random planar frame, k={k}:")
print(np.round(z.z, 4))

chain = fl.square_map(z)
cp = fl.chain_straighten(chain)
print(f"\nstraightening path: {len(cp.points)} samples, "
      f"ends at {np.round(cp.end, 4)}")

lifted = fl.lift_path(cp, z)
print(f"lift ends over the standard chain at {np.round(lifted.end, 4)}")

path = fl.connect_to_standard(z)
report = fl.validate_path(path, 1e-6, expect_start=z.z,
                          expect_end=fl.canonical_planar(k).z)
print(f"\nfull path to the canonical frame: {len(path.points)} samples, "
      f"valid={report.ok}, worst violation {report.worst_violation:.2e}")

# the explicit 4-vector homotopy, projected to Gram points, is a loop whose
# lift picks up a reflection: holonomy sign -1
case1 = fl.case1_explicit_path()
loop = fl.to_gram_loop(case1)
print("\n4-vector homotopy endpoints:",
      np.round(case1.start, 4), "->", np.round(case1.end, 4))
print("same Gram point at both ends:",
      np.max(np.abs(loop[0].entries - loop[-1].entries)) < 1e-12)
print("holonomy sign around the loop:", fl.holonomy_sign(loop))
# a midpoint between each pair of loop points, each the Gram point of a
# retracted frame: the finer loop has the same holonomy
refined = fl.refine_loop(loop)
print(f"holonomy sign around the refined loop ({len(refined)} points):",
      fl.holonomy_sign(refined))
print("holonomy sign around the doubled loop:",
      fl.holonomy_sign(loop + loop[1:]))
