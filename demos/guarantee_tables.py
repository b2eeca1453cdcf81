"""
Near-optimality guarantees and measured curvature
=================================================

The greedy search carries a worst-case guarantee: with curvature ratio
alpha measured along its chains, the greedy score is at least
1 - exp(-L / (1 + alpha + ... + alpha^(K-1))) times the optimal score.
Tabulate the coefficient, measure alpha on a family of random networks,
and compare the guarantee against what greedy actually achieves.
"""

from dinet.approximation import greedy_general, optimal_general
from dinet.bounds import (
    bound_witness_alpha,
    coefficient_table,
    degree_gap_coefficient,
    geometric_budget_maximum,
    greedy_bound_coefficient,
)
from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import generate_ar_network

print("guaranteed fraction of optimal, K parents, L greedy picks")
print(f"{'alpha':>6} {'K':>3} {'L':>3} {'coefficient':>12}")
for alpha, K, L, coeff in coefficient_table("greedy", (1.0, 1.3, 1.7, 2.5), 4, 4):
    print(f"{alpha:>6} {K:>3} {L:>3} {coeff:>12.4f}")

# alpha=1 with L=K gives the familiar 1 - 1/e floor at any K
print("floor at alpha=1, L=K:", f"{greedy_bound_coefficient(1.0, 4, 4):.4f}")

# dropping from K to L parents keeps at least this fraction of the score
print("degree gap, alpha=2, K=4 -> L=2:", degree_gap_coefficient(2.0, 4, 2))

# the coefficient comes from the worst ratio-capped gain chain under a
# prefix budget; its closed-form maximum is a pure geometric chain
print("budget chain maximum, alpha=2, K=4, L=2, budget=3:",
      geometric_budget_maximum(2.0, 4, 2, 3.0))

# measured curvature: alpha along exactly the chains the guarantee uses
m, K = 6, 2
print(f"\nrealized vs guaranteed greedy fraction, m={m}, K=L={K}")
print(f"{'trial':>5} {'alpha_hat':>9} {'guarantee':>10} {'realized':>9}")
for trial in range(8):
    model = generate_ar_network(m, seed=100 + trial)
    exact = DIEvaluator.from_model(model)
    optimal = optimal_general(build_cache(exact, m, K), K)
    greedy = greedy_general(exact, K)
    est = bound_witness_alpha(exact, optimal.assignment, greedy.orders)
    guarantee = greedy_bound_coefficient(est.alpha, K, K)
    realized = greedy.score / optimal.score
    print(f"{trial:>5} {est.alpha:>9.4f} {guarantee:>10.4f} {realized:>9.4f}")
    assert realized >= guarantee - 1e-9
