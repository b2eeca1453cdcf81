"""Property tests of the DI kernels against per-query oracles.

Hypothesis draws seeds, sizes and query roles; the panels and models
themselves come from numpy's generator, so every example is a well-posed
least squares, projection or counting problem rather than a degenerate
float pattern.  The plug-in kernel's panels may hold constant rows.  The
panel CSV round trip is checked on drawn values directly.
"""

import math
import os
import tempfile
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dinet import estimation
from dinet.errors import EstimationError
from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
    estimate_di,
    exact_di_gaussian,
    read_panel_csv,
    write_panel_csv,
)

from _oracles import lstsq_di, lyapunov_exact_di, naive_discrete_di, unique_count_di
from test_estimation import in_one_batch

# lstsq itself carries relative errors near 1e-13 on these panels (and
# far larger on small increments), so the bounds leave a wide margin
REL, ABS = 1e-9, 1e-12

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def panel_queries(draw):
    """A random real panel, a Markov order and one (target, add, cond) query."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(2, 5))
    order = draw(st.integers(1, 2))
    n = draw(st.integers(30, 200))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n))
    # a little lagged coupling so values are not all near zero
    for i in range(1, m):
        data[i, 1:] += 0.6 * data[i - 1, :-1]
    target = draw(st.integers(1, m))
    others = [j for j in range(1, m + 1) if j != target]
    # each other process is in the addition, the conditioning set, or neither
    roles = draw(st.lists(st.sampled_from("acn"), min_size=m - 1, max_size=m - 1))
    addition = tuple(j for j, role in zip(others, roles) if role == "a")
    conditioning = tuple(j for j, role in zip(others, roles) if role == "c")
    return data, order, target, addition, conditioning


@st.composite
def stable_models(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(2, 5))
    radius = draw(st.sampled_from([0.3, 0.9, 0.99]))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, m))
    c *= radius / float(np.max(np.abs(np.linalg.eigvals(c))))
    return LinearNetworkModel(c, rng.uniform(0.2, 1.5, size=m))


@SETTINGS
@given(panel_queries())
def test_kernel_matches_per_query_lstsq(query):
    data, order, target, addition, conditioning = query
    panel = TimeSeriesPanel(data)
    config = EstimatorConfig(markov_order=order)
    want = lstsq_di(data, target, addition, conditioning, order)
    got = estimate_di(panel, target, addition, conditioning, config)
    assert got == pytest.approx(want, rel=REL, abs=ABS)
    ev = DIEvaluator.from_panel(panel, config)
    assert ev.increment(target, addition, conditioning) == got


@SETTINGS
@given(stable_models(), st.data())
def test_kernel_matches_lyapunov_projection(model, data):
    m = model.m
    target = data.draw(st.integers(1, m))
    others = [j for j in range(1, m + 1) if j != target]
    roles = data.draw(st.lists(st.sampled_from("acn"), min_size=m - 1, max_size=m - 1))
    addition = tuple(j for j, role in zip(others, roles) if role == "a")
    conditioning = tuple(j for j, role in zip(others, roles) if role == "c")
    want = lyapunov_exact_di(
        model.coefficients, model.noise_variances, target, addition, conditioning
    )
    got = exact_di_gaussian(model, target, addition, conditioning)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-10)


@SETTINGS
@given(panel_queries(), st.integers(0, 4))
def test_panel_cache_equals_single_queries_bitwise(query, K):
    data, order, *_ = query
    m = data.shape[0]
    K = min(K, m - 1)
    panel = TimeSeriesPanel(data)
    config = EstimatorConfig(markov_order=order)
    cache = build_cache(DIEvaluator.from_panel(panel, config), m, K)
    fresh = DIEvaluator.from_panel(panel, config)
    for target, members, value in cache.items():
        assert value == fresh.set_value(target, members)


@SETTINGS
@given(stable_models(), st.integers(0, 4))
def test_model_cache_equals_single_queries_bitwise(model, K):
    K = min(K, model.m - 1)
    cache = build_cache(DIEvaluator.from_model(model), model.m, K)
    fresh = DIEvaluator.from_model(model)
    for target, members, value in cache.items():
        assert value == fresh.set_value(target, members)


@SETTINGS
@given(panel_queries(), st.randoms(use_true_random=False))
def test_chain_rule_telescopes(query, rnd):
    data, order, target, addition, conditioning = query
    members = list(addition + conditioning)
    rnd.shuffle(members)
    ev = DIEvaluator.from_panel(TimeSeriesPanel(data), EstimatorConfig(markov_order=order))
    increments = [
        ev.increment(target, (j,), members[:k]) for k, j in enumerate(members)
    ]
    total = ev.set_value(target, members)
    assert sum(increments) == pytest.approx(total, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# batches that mix targets and conditioning sets


def _queries(draw, m, count):
    """``count`` checked queries over ``m`` processes, any roles each."""
    queries = []
    for _ in range(count):
        target = draw(st.integers(1, m))
        others = [j for j in range(1, m + 1) if j != target]
        roles = draw(st.lists(st.sampled_from("acn"), min_size=m - 1, max_size=m - 1))
        addition = tuple(j for j, role in zip(others, roles) if role == "a")
        conditioning = tuple(j for j, role in zip(others, roles) if role == "c")
        queries.append((target, addition, conditioning))
    return queries


@st.composite
def panel_batches(draw):
    """A random real panel, a Markov order and 1 to 12 queries, any roles each."""
    data, order, *_ = draw(panel_queries())
    return data, order, _queries(draw, data.shape[0], draw(st.integers(1, 12)))


def _order_two_batch():
    """An order-2 batch whose groups (|cond|, |add|) are first seen as (2, 1),
    (0, 2), (0, 1), (1, 3); the target sorts first, in the middle and last
    among its conditioning set, and two queries repeat."""
    rng = np.random.default_rng(17)
    data = rng.standard_normal((6, 200))
    for i in range(1, 6):
        data[i, 2:] += 0.5 * data[i - 1, :-2]
    queries = [
        (4, (1,), (2, 5)),
        (2, (3, 6), ()),
        (5, (1,), ()),
        (4, (1,), (2, 5)),
        (1, (6,), (3, 5)),
        (6, (2, 4, 5), (1,)),
        (3, (1,), (2, 4)),
        (2, (3, 6), ()),
        (5, (), (1,)),
        (6, (5,), (1, 2)),
    ]
    return data, 2, queries


ORDER_TWO_BATCH = _order_two_batch()


@SETTINGS
@given(panel_batches())
@example(ORDER_TWO_BATCH)
def test_mixed_panel_batch_equals_single_queries(drawn):
    panel_data, order, queries = drawn
    panel = TimeSeriesPanel(panel_data)
    config = EstimatorConfig(markov_order=order)
    batch = DIEvaluator.from_panel(panel, config)._fill(queries)
    for (target, addition, conditioning), value in zip(queries, batch):
        single = DIEvaluator.from_panel(panel, config)
        assert value == single.increment(target, addition, conditioning)
        want = lstsq_di(panel_data, target, addition, conditioning, order)
        assert value == pytest.approx(want, rel=REL, abs=ABS)


@SETTINGS
@given(stable_models(), st.data())
def test_mixed_model_batch_equals_single_queries(model, data):
    queries = _queries(data.draw, model.m, data.draw(st.integers(1, 12)))
    batch = DIEvaluator.from_model(model)._fill(queries)
    for (target, addition, conditioning), value in zip(queries, batch):
        assert value == exact_di_gaussian(model, target, addition, conditioning)
        want = lyapunov_exact_di(
            model.coefficients, model.noise_variances, target, addition, conditioning
        )
        assert value == pytest.approx(want, rel=1e-7, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 5),
    st.sampled_from(["zero", "copy", "near copy"]),
    st.data(),
)
def test_mixed_batch_with_a_dead_or_copied_process_equals_single_queries(
    seed, m, kind, data
):
    # a zero process has an all-zero lag column and a copied one repeats
    # a column, so a block holding either does not factor; a near copy
    # (1e-7 noise) factors but fails the pivot check beside its source
    rng = np.random.default_rng(seed)
    panel_data = rng.standard_normal((m, 80))
    odd = data.draw(st.integers(1, m), label="odd process")
    live = [j for j in range(1, m + 1) if j != odd]
    source = data.draw(st.sampled_from(live), label="source")
    if kind == "zero":
        panel_data[odd - 1] = 0.0
    else:
        panel_data[odd - 1] = panel_data[source - 1]
        if kind == "near copy":
            panel_data[odd - 1] += 1e-7 * rng.standard_normal(80)
    queries = _queries(data.draw, m, data.draw(st.integers(0, 8)))
    # this query's block holds the odd column: beside its source's lag
    # when it is a copy
    bad = (source, (odd,), ())
    at = data.draw(st.integers(0, len(queries)), label="position")
    queries = queries[:at] + [bad] + queries[at:]
    panel = TimeSeriesPanel(panel_data)
    evaluator = DIEvaluator.from_panel(panel)
    values = evaluator._fill(queries)
    assert evaluator.calls == len(set(queries))
    for (target, addition, conditioning), value in zip(queries, values):
        single = DIEvaluator.from_panel(panel)
        assert value == single.increment(target, addition, conditioning)
        # a near copy's lag drops beside its source's, so lstsq, which
        # keeps it, differs there by more than rounding
        if kind == "near copy" and {source, odd} <= {target, *addition, *conditioning}:
            continue
        want = lstsq_di(panel_data, target, addition, conditioning, 1)
        assert value == pytest.approx(want, rel=REL, abs=ABS)
    assert values[at] == 0.0


def test_cache_fills_the_memo_once():
    rng = np.random.default_rng(5)
    panel = TimeSeriesPanel(rng.standard_normal((4, 120)))
    ev = DIEvaluator.from_panel(panel)
    cache = build_cache(ev, 4, 2)
    assert ev.calls == len(cache) == 4 * 3
    for target, members, value in cache.items():
        assert ev.set_value(target, members) == value
    # repeated queries and a second build read the memo
    build_cache(ev, 4, 2)
    assert ev.calls == 4 * 3


def test_order_two_batch_reads_the_documented_blocks():
    # each distinct query is computed once, and each value is its block's:
    # the sorted target and conditioning lags, the addition's lags, the
    # target row
    data, order, queries = ORDER_TWO_BATCH
    panel = TimeSeriesPanel(data)
    evaluator = DIEvaluator.from_panel(panel, EstimatorConfig(markov_order=order))
    values = evaluator._fill(queries)
    assert evaluator.calls == len(set(queries)) == 8
    moments = estimation._panel_moments(panel, order)
    assert estimation._projection_di(moments, queries) == values
    p = data.shape[0] * order

    def lags(procs):
        return [(s - 1) * order + lag for s in procs for lag in range(order)]

    for (target, addition, conditioning), value in zip(queries, values):
        if addition:
            ix = lags(sorted((target, *conditioning))) + lags(addition) + [p + target - 1]
            chol = np.linalg.cholesky(moments.stacked[np.ix_(ix, ix)])
            r, d = (len(conditioning) + 1) * order, len(ix) - 1
            gain = sum(float(v) ** 2 for v in chol[d, r:d])
            assert value == 0.5 * math.log1p(gain / float(chol[d, d]) ** 2)


# ---------------------------------------------------------------------------
# plug-in counting kernel


@st.composite
def discrete_queries(draw):
    """A finite-alphabet panel, a Markov order and one (target, add, cond) query.

    Processes are lag-coupled copies of their predecessor with noise, and
    any of them may be a constant row.  Joint state spaces over the default
    cap are redrawn.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    alphabet = draw(st.integers(2, 4))
    order = draw(st.integers(1, 2))
    n_cond = draw(st.integers(0, 2))
    n_add = draw(st.integers(1, 2))
    assume(alphabet ** (order * (1 + n_cond + n_add) + 1) <= 1_000_000)
    m = 1 + n_cond + n_add + draw(st.integers(0, 1))
    n = draw(st.integers(order + 1, 200))
    constant = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, alphabet, size=(m, n))
    for i in range(1, m):
        copy = rng.random(n - 1) < 0.6
        data[i, 1:] = np.where(copy, data[i - 1, :-1], data[i, 1:])
    for i in np.flatnonzero(constant):
        data[i] = rng.integers(0, alphabet)
    roles = [int(j) for j in rng.permutation(m) + 1]
    target = roles[0]
    conditioning = tuple(sorted(roles[1: 1 + n_cond]))
    addition = tuple(sorted(roles[1 + n_cond: 1 + n_cond + n_add]))
    return data, alphabet, order, target, addition, conditioning


def _discrete(data, alphabet, order):
    panel = TimeSeriesPanel(data, kind="discrete", alphabet_size=alphabet)
    return panel, EstimatorConfig(markov_order=order, estimator="discrete")


@SETTINGS
@given(discrete_queries())
def test_plugin_kernel_matches_unique_counts_bitwise(query):
    data, alphabet, order, target, addition, conditioning = query
    panel, config = _discrete(data, alphabet, order)
    want = unique_count_di(data, alphabet, target, addition, conditioning, order)
    got = estimate_di(panel, target, addition, conditioning, config)
    assert got == want
    ev = DIEvaluator.from_panel(panel, config)
    assert ev.increment(target, addition, conditioning) == got


@SETTINGS
@given(discrete_queries())
def test_plugin_batch_equals_single_queries_bitwise(query):
    data, alphabet, order, target, addition, conditioning = query
    panel, config = _discrete(data, alphabet, order)
    free = [j for j in range(1, len(data) + 1) if j != target and j not in conditioning]
    adds = list(combinations(free, len(addition)))
    batch = in_one_batch(DIEvaluator.from_panel(panel, config), target, adds, conditioning)
    singles = [
        DIEvaluator.from_panel(panel, config).increment(target, add, conditioning)
        for add in adds
    ]
    assert batch == singles


@SETTINGS
@given(discrete_queries(), st.integers(0, 2))
def test_plugin_cache_equals_fresh_estimates_bitwise(query, K):
    data, alphabet, order, *_ = query
    m = len(data)
    K = min(K, m - 1)
    panel, config = _discrete(data, alphabet, order)
    cache = build_cache(DIEvaluator.from_panel(panel, config), m, K)
    for target, members, value in cache.items():
        assert value == estimate_di(panel, target, members, (), config)


@SETTINGS
@given(discrete_queries(), st.integers(1, 2), st.integers(1, 3))
def test_plugin_chunks_of_q_queries_keep_every_bit(query, K, q):
    """A cap of ``cells * q`` splits each group into chunks of q queries."""
    data, alphabet, order, target, addition, conditioning = query
    m = len(data)
    K = min(K, m - 1)
    panel, config = _discrete(data, alphabet, order)
    cells = alphabet ** (order * (K + 1) + 1)
    default = build_cache(DIEvaluator.from_panel(panel, config), m, K)
    with patch.object(estimation, "MAX_CELLS", cells * q):
        cache = build_cache(DIEvaluator.from_panel(panel, config), m, K)
    assert cache.items() == default.items()
    for t, members, value in cache.items():
        assert value == unique_count_di(data, alphabet, t, members, (), order)
    # a group under a conditioning set, chunked the same way
    free = [j for j in range(1, m + 1) if j != target and j not in conditioning]
    adds = list(combinations(free, len(addition)))
    cells = alphabet ** (order * (1 + len(conditioning) + len(addition)) + 1)
    with patch.object(estimation, "MAX_CELLS", cells * q):
        batch = in_one_batch(DIEvaluator.from_panel(panel, config), target, adds, conditioning)
    assert batch == [
        unique_count_di(data, alphabet, target, add, conditioning, order) for add in adds
    ]
    # one cell short of a single query, the group's first query is named
    with patch.object(estimation, "MAX_CELLS", cells - 1):
        with pytest.raises(EstimationError) as err:
            in_one_batch(DIEvaluator.from_panel(panel, config), target, adds, conditioning)
    assert str(err.value).endswith(
        f"(target {target}, addition {list(adds[0])}, conditioning {list(conditioning)})"
    )


@SETTINGS
@given(discrete_queries())
def test_plugin_kernel_matches_dictionary_counting(query):
    data, alphabet, order, target, addition, conditioning = query
    panel, config = _discrete(data, alphabet, order)
    want = naive_discrete_di(data, alphabet, target, addition, conditioning, order)
    got = estimate_di(panel, target, addition, conditioning, config)
    # exact zeros come out of both as rounding residue of (a + b) - b - a
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# panel CSV round trip


def _round_trip(panel, header, **read):
    """``write_panel_csv`` and back; without ``header``, the file's header
    row is cut by hand, as in a headerless file written elsewhere."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_panel_csv(panel, path)
        with open(path) as fh:
            first, rows = fh.readline(), fh.read()
        assert first == ",".join(f"x{i}" for i in range(1, panel.m + 1)) + "\n"
        if not header:
            with open(path, "w") as fh:
                fh.write(rows)
        return read_panel_csv(path, kind=panel.kind, **read)


@SETTINGS
@given(
    st.integers(1, 4),
    st.integers(2, 30),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_discrete_csv_round_trip_is_exact(m, n, alphabet, header, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, rng.integers(1, alphabet + 1), size=(m, n))
    panel = TimeSeriesPanel(data, kind="discrete", alphabet_size=alphabet)
    back = _round_trip(panel, header, alphabet_size=alphabet)
    assert back.kind == "discrete" and back.alphabet_size == alphabet
    assert np.array_equal(back.data, panel.data)
    inferred = _round_trip(panel, header)
    assert inferred.alphabet_size == int(data.max()) + 1
    assert np.array_equal(inferred.data, panel.data)


@SETTINGS
@given(
    st.integers(1, 4).flatmap(
        lambda m: hnp.arrays(
            np.float64,
            st.tuples(st.just(m), st.integers(2, 20)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    ),
    st.booleans(),
)
def test_real_csv_round_trip_keeps_twelve_digits(data, header):
    panel = TimeSeriesPanel(data)
    back = _round_trip(panel, header)
    assert back.kind == "real" and back.data.shape == data.shape
    np.testing.assert_allclose(back.data, data, rtol=1e-11, atol=0.0)
