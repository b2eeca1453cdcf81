"""
Ranked enumeration of near-optimal structures
=============================================

The best structure is rarely the only interesting one.  Enumerate the r
best bounded in-degree approximations in exact score order, for both the
unconstrained class and the tree-containing class, and show how quickly
the scores fall off.
"""

from dinet.estimation import DIEvaluator, build_cache
from dinet.simulate import generate_ar_network
from dinet.topr import top_r_connected, top_r_general

m, K, r = 5, 2, 8
model = generate_ar_network(m, seed=21, edge_probability=0.5)
cache = build_cache(DIEvaluator.from_model(model), m, K)

general = top_r_general(cache, K, r)
connected = top_r_connected(cache, K, r)

print(f"top {r} structures, {m} nodes, {K} parents per node")
print(f"{'rank':>4}  {'general':>10}  {'connected':>10}")
for rank in range(r):
    g = general[rank].score
    c = connected[rank].score
    print(f"{rank + 1:>4}  {g:>10.6f}  {c:>10.6f}")

# the runner-up often differs from the winner in a single parent set
best, second = general[0].assignment, general[1].assignment
changed = [
    i
    for i in range(1, m + 1)
    if best.members_of(i) != second.members_of(i)
]
print("sets changed between rank 1 and rank 2:", changed)
for i in changed:
    print(f"  node {i}: {list(best.members_of(i))} -> {list(second.members_of(i))}")

# connected ranks never beat the unconstrained ranks they correspond to
assert all(connected[k].score <= general[k].score + 1e-12 for k in range(r))
print("every connected rank scores at most its general counterpart")
