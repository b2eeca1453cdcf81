"""
Bounded in-degree structure search on a random network
======================================================

Draw a sparse stable network, score every size-K parent set exactly, and
compare the structures found by the exact search, the greedy search, and
the tree-containing (connected) variant.  The connected search pays a
score penalty for its spanning-tree guarantee.
"""

from dinet.approximation import (
    greedy_general,
    optimal_connected,
    optimal_general,
)
from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import generate_ar_network, true_parent_assignment

m, K = 6, 2
model = generate_ar_network(m, seed=7, edge_probability=0.4)
exact = DIEvaluator.from_model(model)
cache = build_cache(exact, m, K)

truth = true_parent_assignment(model)
print("generating parent sets:")
for i in range(1, m + 1):
    print(f"  node {i}: {list(truth.members_of(i))}")

opt = optimal_general(cache, K)
grd = greedy_general(exact, K)
con = optimal_connected(cache, K)

for name, result in (("optimal", opt), ("greedy", grd), ("connected", con)):
    sets = [list(result.assignment.members_of(i)) for i in range(1, m + 1)]
    print(f"{name:>9}: score {result.score:.6f}   parents {sets}")

# greedy keeps its pick order; the first pick is each node's best single parent
print("greedy pick orders:", [list(order) for order in grd.orders])

# the connected result certifies itself with an explicit spanning tree
print("connected root:", con.root)
print("connected tree edges:", sorted(con.tree))

# DOT renderings can be fed straight to graphviz
print(con.assignment.to_dot(root=con.root))
