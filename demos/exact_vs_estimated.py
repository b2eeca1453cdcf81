"""
Exact directed information versus least squares estimates
==========================================================

A three-process network where processes 1 and 2 independently drive
process 3 with unit weights and unit noise.  The influence of process 1
on 3 is computable in closed form, both on its own and causally
conditioned on process 2, and the conditioned value is larger: knowing
the other driver removes noise from the regression.
"""

import math

import numpy as np

from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    estimate_di,
    exact_di_gaussian,
)
from dinet.simulate import simulate_panel

# coefficients[j-1, i-1] is the weight of the edge j -> i
c = np.zeros((3, 3))
c[0, 2] = 1.0
c[1, 2] = 1.0
model = LinearNetworkModel(c, np.ones(3))

lone = exact_di_gaussian(model, 3, (1,))
joint = exact_di_gaussian(model, 3, (1,), (2,))
print("exact I(X1 -> X3)        =", f"{lone:.9f}", "nats  (1/2 ln 3/2 =", f"{0.5 * math.log(1.5):.9f})")
print("exact I(X1 -> X3 || X2)  =", f"{joint:.9f}", "nats  (1/2 ln 2   =", f"{0.5 * math.log(2.0):.9f})")
print("conditioning gain ratio  =", f"{joint / lone:.4f}")

# the same two quantities estimated from a simulated sample path
for n in (1_000, 10_000, 100_000):
    panel = simulate_panel(model, n, seed=0)
    est_lone = estimate_di(panel, 3, (1,), (), EstimatorConfig())
    est_joint = estimate_di(panel, 3, (1,), (2,), EstimatorConfig())
    print(f"n={n:>6}: I(X1 -> X3) = {est_lone:.6f}   I(X1 -> X3 || X2) = {est_joint:.6f}")

# increments telescope: summing the two conditional gains in either order
# recovers the directed information of the pair as a whole
ev = DIEvaluator.from_model(model)
pair = ev.set_value(3, (1, 2))
order_a = ev.increment(3, (1,)) + ev.increment(3, (2,), (1,))
order_b = ev.increment(3, (2,)) + ev.increment(3, (1,), (2,))
print("whole-pair value         =", f"{pair:.9f}")
print("chain over (1 then 2)    =", f"{order_a:.9f}")
print("chain over (2 then 1)    =", f"{order_b:.9f}")
