import math
import re

import numpy as np
import pytest

from dinet.errors import EstimationError, ValidationError
from dinet.estimation import (
    DIEvaluator,
    LinearNetworkModel,
    TimeSeriesPanel,
    build_cache,
    stationary_covariance,
)
from dinet.simulate import (
    AGGREGATE_HEADER,
    MAX_NETWORK_DRAWS,
    NOISE_VARIANCE,
    TRIAL_HEADER,
    ExperimentConfig,
    aggregate_rows,
    generate_ar_network,
    ratio_greedy_optimal,
    ratio_to_true,
    report_filename,
    run_experiment,
    simulate_panel,
    true_parent_assignment,
    write_experiment_csv,
)
from dinet import cli, estimation, simulate
from dinet.bounds import network_empirical_alpha
from dinet.simulate import _draw_trial, _exact_scores, _run_trial, _simulate_paths
from dinet.structures import ParentAssignment, _all_parent_sets

from _oracles import loop_simulate_panel, per_row_trial_reports, power_iteration_radius


def two_drivers_model():
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    c[1, 2] = 1.0
    return LinearNetworkModel(c, np.ones(3))


def test_generate_network_edge_frequency():
    rng = np.random.default_rng(3)
    m = 12
    present = 0
    cells = 0
    for _ in range(20):
        model = generate_ar_network(m, rng, edge_probability=0.5, include_diagonal=False)
        off = ~np.eye(m, dtype=bool)
        present += int(np.count_nonzero(model.coefficients[off]))
        cells += int(off.sum())
        assert np.all(np.diag(model.coefficients) == 0.0)
    assert abs(present / cells - 0.5) < 0.05
    # self terms are drawn from a continuous law, so they are never zero
    model = generate_ar_network(4, np.random.default_rng(9), include_diagonal=True)
    assert np.all(np.diag(model.coefficients) != 0.0)


def test_generate_network_spectral_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        target = float(rng.uniform(0.3, 0.99))
        model = generate_ar_network(m, rng, spectral_target=target)
        assert abs(model.spectral_radius() - target) < 1e-9
        assert abs(power_iteration_radius(model.coefficients) - target) < 1e-6
    # a single self loop rescales to the target magnitude exactly
    solo = generate_ar_network(1, np.random.default_rng(0), spectral_target=0.95)
    assert abs(abs(solo.coefficients[0, 0]) - 0.95) < 1e-12


def test_generate_network_validation():
    with pytest.raises(ValidationError):
        generate_ar_network(0, 1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            generate_ar_network(3, 1, spectral_target=bad)
    # nothing to rescale when every coefficient is masked away
    with pytest.raises(ValidationError, match=f"in {MAX_NETWORK_DRAWS} attempts"):
        generate_ar_network(2, 1, edge_probability=0.0, include_diagonal=False)


BAD_NETWORKS = {
    "edge_probability nan": ({"edge_probability": math.nan}, "edge_probability must lie in [0, 1]"),
    "edge_probability -1": ({"edge_probability": -1.0}, "edge_probability must lie in [0, 1]"),
    "edge_probability 5": ({"edge_probability": 5.0}, "edge_probability must lie in [0, 1]"),
    "spectral_target nan": ({"spectral_target": math.nan}, "spectral_target must lie in (0, 1)"),
    "spectral_target inf": ({"spectral_target": math.inf}, "spectral_target must lie in (0, 1)"),
    "spectral_target 0": ({"spectral_target": 0.0}, "spectral_target must lie in (0, 1)"),
}


def test_a_uniform_noise_variance_leaves_the_di_values_as_they_are():
    # a DI value is half the log of a ratio of two residual variances, so
    # a random network needs no noise-variance option: scaling every noise
    # variance by 2**k scales every variance exactly, and any other factor
    # moves a value by rounding only
    network = generate_ar_network(5, np.random.default_rng(3))
    assert np.array_equal(network.noise_variances, np.full(5, NOISE_VARIANCE))

    def values(q, panel):
        model = LinearNetworkModel(network.coefficients, np.full(5, q))
        if panel:
            evaluator = DIEvaluator.from_panel(simulate_panel(model, 400, 9))
        else:
            evaluator = DIEvaluator.from_model(model)
        return np.array([value for *_, value in build_cache(evaluator, 5, 2).items()])

    for panel, exact_scales in ((False, (1.0, 4.0, 2.0**-20)), (True, (1.0,))):
        want = values(0.25, panel)
        for q in exact_scales:
            assert np.array_equal(values(q, panel), want)
        np.testing.assert_allclose(values(0.3, panel), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", BAD_NETWORKS)
def test_one_check_refuses_bad_network_parameters(case):
    # a random network and a study refuse the same values with the same
    # words; without the check, a NaN or negative edge probability drew a
    # diagonal-only network
    kwargs, message = BAD_NETWORKS[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        generate_ar_network(4, 1, **kwargs)
    with pytest.raises(ValidationError, match=re.escape(message)):
        ExperimentConfig(3, 1, **kwargs)


def test_simulate_panel_determinism():
    model = generate_ar_network(3, np.random.default_rng(2))
    a = simulate_panel(model, 50, 7)
    b = simulate_panel(model, 50, 7)
    c = simulate_panel(model, 50, np.random.default_rng(7))
    assert a.data.shape == (3, 50)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.data, c.data)
    assert not np.array_equal(a.data, simulate_panel(model, 50, 8).data)
    with pytest.raises(ValidationError):
        simulate_panel(model, 1, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 40])
def test_simulate_panel_equals_the_stepwise_loop(m):
    # one noise draw for the whole path gives the stream of per-step draws,
    # and the in-place product of each step the oracle's x[t] bit for bit
    models = [generate_ar_network(m, np.random.default_rng([seed, m])) for seed in range(20)]
    models.append(LinearNetworkModel(np.zeros((m, m)), np.full(m, 0.25)))
    for seed, model in enumerate(models):
        for n in (2, 40, 150):
            got = simulate_panel(model, n, seed).data
            assert np.array_equal(got, loop_simulate_panel(model, n, seed))


@pytest.mark.parametrize("m", range(1, 41))
def test_stacked_recursion_equals_the_stepwise_loop_per_model(m):
    # a stacked matmul step gives each model the bits of its own dot, so
    # every panel of a lockstep run equals the oracle's, one model or forty
    models = [generate_ar_network(m, np.random.default_rng([seed, m, 26])) for seed in range(40)]
    for n in (2, 50, 300):
        want = [loop_simulate_panel(model, n, [seed, n]) for seed, model in enumerate(models)]
        for trials in (1, 2, 40):
            rngs = [np.random.default_rng([seed, n]) for seed in range(trials)]
            path = _simulate_paths(models[:trials], n, rngs)
            assert path.shape == (10 * m + n, trials, m)
            for j in range(trials):
                assert np.array_equal(simulate._path_panel(path, j, n).data, want[j])


def test_simulate_panel_moments():
    # memoryless single process: samples are iid with the noise variance
    flat = LinearNetworkModel(np.zeros((1, 1)), np.array([0.25]))
    panel = simulate_panel(flat, 200_000, 11)
    assert abs(float(panel.data.var()) - 0.25) < 0.01
    assert abs(float(panel.data.mean())) < 0.01
    # long panels reproduce the stationary covariance of the recursion
    model = generate_ar_network(3, np.random.default_rng(4), spectral_target=0.8)
    panel = simulate_panel(model, 100_000, 13)
    sigma = stationary_covariance(model)
    sample = np.cov(panel.data)
    assert np.allclose(sample, sigma, rtol=0.05, atol=0.02)


def test_ratio_helpers():
    model = two_drivers_model()
    exact = DIEvaluator.from_model(model)
    truth = true_parent_assignment(model)
    assert truth.members_of(3) == (1, 2)
    assert truth.members_of(1) == ()
    assert ratio_to_true(truth, model, exact) == 1.0
    partial = ParentAssignment.from_lists([(), (), (1,)])
    r = ratio_to_true(partial, model, exact)
    assert 0.0 < r < 1.0
    assert ratio_greedy_optimal(partial, partial, exact) == 1.0
    assert ratio_greedy_optimal(partial, truth, exact) == r
    with pytest.raises(ValidationError):
        ratio_greedy_optimal(partial, ParentAssignment.from_lists([(), (1,)]), exact)
    # an assignment of another size is refused, not summed over its own nodes
    for other in ([(), (1,)], [(), (), (1,), ()]):
        with pytest.raises(ValidationError, match="evaluator has m=3"):
            ratio_to_true(ParentAssignment.from_lists(other), model, exact)
    # a silent network has no score to compare against
    silent = LinearNetworkModel(np.zeros((2, 2)), np.ones(2))
    silent_exact = DIEvaluator.from_model(silent)
    empty = true_parent_assignment(silent)
    assert math.isnan(ratio_to_true(empty, silent, silent_exact))
    assert _exact_scores([empty], silent_exact) == [0.0]


def test_run_experiment_deterministic():
    config = ExperimentConfig(m=3, K=1, n=300, trials=4, seed=5)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.reports == second.reports
    assert first.excluded_trials == second.excluded_trials
    assert first.excluded_trials + len({r.trial for r in first.reports}) == 4
    for rep in first.reports:
        assert rep.K == 1 and rep.L == 1
        assert rep.ms == 0.0
        if rep.algorithm == "greedy":
            assert rep.alpha_hat is not None
        if rep.algorithm == "optimal":
            assert rep.alpha_hat is None


def test_run_experiment_exact_selection():
    config = ExperimentConfig(
        m=3, K=1, trials=6, seed=2, selection="exact", r=3
    )
    result = run_experiment(config)
    trials = sorted({r.trial for r in result.reports})
    assert len(trials) + result.excluded_trials == 6
    by_trial = {}
    for rep in result.reports:
        by_trial.setdefault(rep.trial, {})[(rep.algorithm, rep.graph_class)] = rep
    for rows in by_trial.values():
        # exact selection can never beat the generating parent sets
        for rep in rows.values():
            assert rep.ratio <= 1.0 + 1e-9
        assert abs(rows[("topr-1", "general")].score - rows[("optimal", "general")].score) < 1e-12
        ranked = [rows[(f"topr-{k}", "general")].score for k in (1, 2, 3)]
        assert ranked == sorted(ranked, reverse=True)
        assert rows[("greedy", "general")].score <= rows[("optimal", "general")].score + 1e-9
        assert rows[("optimal", "connected")].score <= rows[("optimal", "general")].score + 1e-9


@pytest.mark.parametrize("selection", ["estimated", "exact"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_batched_row_scores_equal_per_row_scoring(selection, seed):
    config = ExperimentConfig(
        m=6, K=2, n=300, trials=4, r=5, seed=seed, selection=selection
    )
    got = run_experiment(config).reports
    want = per_row_trial_reports(config)
    assert got and [repr(rep) for rep in got] == [repr(rep) for rep in want]


@pytest.mark.parametrize("selection", ["estimated", "exact"])
@pytest.mark.parametrize("K, L", [(1, None), (2, None), (2, 1), (3, 2)])
def test_a_trial_alpha_hat_is_the_network_alpha_cut_at_K_plus_L_minus_1(selection, K, L):
    config = ExperimentConfig(m=7, K=K, L=L, n=300, trials=3, r=0, seed=3, selection=selection)
    depth = K + config.greedy_length - 1
    checked = 0
    for trial in range(config.trials):
        draw = _draw_trial(config, trial)
        if isinstance(draw, str):
            continue
        panel = None
        if selection == "estimated":
            panel = simulate_panel(draw.model, config.n, draw.panel_seed)
        selector = draw.exact if panel is None else DIEvaluator.from_panel(panel)
        want = network_empirical_alpha(selector, depth).alpha
        rows = _run_trial(config, trial, draw, panel)
        assert {rep.alpha_hat for rep in rows if rep.algorithm == "greedy"} == {want}
        assert {rep.alpha_hat for rep in rows if rep.algorithm != "greedy"} == {None}
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("selection", ["estimated", "exact"])
def test_simulate_runs_write_identical_bytes(tmp_path, capsys, selection):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        argv = [
            "simulate", "--m", "6", "--K", "2", "--trials", "4", "--r", "5",
            "--seed", "2", "--selection", selection, "--out", str(out),
        ]
        assert cli.main(argv) == 0
        outputs.append(
            {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        )
    capsys.readouterr()
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]


# the calls each evaluator of a trial made at m=8, K=2, r=10: exact then
# panel evaluator for estimated selection, the one exact evaluator for
# exact selection; counted before greedy chains were batched together.
# The selector's network alpha orders 3 = K + L - 1 picks per target, not
# all 7, so it asks 8 * (4 + 3 + 2 + 1) = 80 fewer queries than full depth
TRIAL_CALLS = {
    ("estimated", 0): [(23, 600), (27, 600), (25, 600)],
    ("estimated", 5): [(26, 600), (24, 600), (20, 600)],
    ("exact", 0): [(607,), (609,), (609,)],
    ("exact", 5): [(609,), (607,), (606,)],
}


@pytest.mark.parametrize("selection, seed", sorted(TRIAL_CALLS))
def test_trial_calls_count_each_distinct_query_once(monkeypatch, selection, seed):
    made, asked = [], {}
    fill = DIEvaluator._fill
    for name in ("from_model", "from_panel"):
        build = getattr(DIEvaluator, name).__func__

        def recorded(cls, *args, _build=build, **kwargs):
            made.append(_build(cls, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(DIEvaluator, name, classmethod(recorded))

    def recorded_fill(self, queries):
        asked.setdefault(id(self), set()).update(queries)
        return fill(self, queries)

    monkeypatch.setattr(DIEvaluator, "_fill", recorded_fill)
    config = ExperimentConfig(m=8, K=2, trials=3, r=10, seed=seed, selection=selection)
    calls = []
    for trial in range(config.trials):
        made.clear()
        asked.clear()
        draw = _draw_trial(config, trial)
        panel = None
        if selection == "estimated":
            panel = simulate_panel(draw.model, config.n, draw.panel_seed)
        assert _run_trial(config, trial, draw, panel)
        for ev in made:
            assert ev.calls == len(asked[id(ev)])
        calls.append(tuple(ev.calls for ev in made))
    assert calls == TRIAL_CALLS[(selection, seed)]


def test_run_experiment_degenerate_trials_excluded():
    # diagonal-only networks have empty true parent sets: zero true score
    config = ExperimentConfig(m=2, K=1, trials=3, seed=0, edge_probability=0.0)
    result = run_experiment(config)
    assert result.reports == ()
    assert result.excluded_trials == 3
    # an unriggable draw is excluded rather than aborting the study
    config = ExperimentConfig(
        m=2, K=1, trials=2, seed=0, edge_probability=0.0, include_diagonal=False
    )
    result = run_experiment(config)
    assert result.reports == ()
    assert result.excluded_trials == 2


def test_excluded_trial_warning_names_the_trial_and_the_query(caplog):
    # three samples leave two rows for three regressors at the first query
    config = ExperimentConfig(m=4, K=2, n=3, trials=2, seed=0)
    with caplog.at_level("WARNING", logger="dinet.simulate"):
        result = run_experiment(config)
    assert result.excluded_trials == 2
    assert caplog.messages[0] == (
        "trial 0 excluded: insufficient samples: 2 rows for 3 regressors "
        "(target 1, addition [2, 3], conditioning [])"
    )


EXCLUSION_CONFIG = ExperimentConfig(m=3, K=1, n=2, trials=8, seed=0, edge_probability=0.2)
SHORT_PANEL = (
    "insufficient samples: 1 rows for 2 regressors (target 1, addition [2], conditioning [])"
)
EXCLUSIONS = [
    f"trial {t} excluded: "
    + ("degenerate (zero true score)" if t in (4, 7) else SHORT_PANEL)
    for t in range(8)
]


def _study(config, caplog, tmp_path, name):
    caplog.clear()
    with caplog.at_level("WARNING", logger="dinet.simulate"):
        result = run_experiment(config)
    out = tmp_path / name
    out.mkdir()
    paths = write_experiment_csv(result, out)
    return list(caplog.messages), [open(path, "rb").read() for path in paths]


@pytest.mark.parametrize("config", [
    EXCLUSION_CONFIG,
    ExperimentConfig(m=4, K=1, n=60, trials=8, r=3, seed=0, edge_probability=0.2),
])
def test_exclusions_and_csvs_do_not_depend_on_the_chunks(monkeypatch, caplog, tmp_path, config):
    # model draws are checked before the lockstep simulation, pipelines
    # after it; warnings still come in trial order, whatever the chunks
    messages, files = _study(config, caplog, tmp_path, "one")
    if config is EXCLUSION_CONFIG:
        assert messages == EXCLUSIONS
    else:
        assert files[0].count(b"\n") > 1
    per_trial = (10 * config.m + config.n) * config.m
    for name, cap in (("one-trial", 1), ("three-trial", 3 * per_trial)):
        monkeypatch.setattr(simulate, "MAX_CELLS", cap)
        assert _study(config, caplog, tmp_path, name) == (messages, files)


def copied_process_panel():
    data = simulate_panel(generate_ar_network(16, np.random.default_rng(7)), 1000, 7).data
    return TimeSeriesPanel(np.vstack([data[:15], data[0]]))


@pytest.mark.parametrize("source", ["clean panel", "copied process", "exact model"])
def test_chunked_gaussian_stacks_give_the_same_rows(monkeypatch, source):
    model = generate_ar_network(16, np.random.default_rng(7))
    K = 3
    make = {
        "clean panel": lambda: DIEvaluator.from_panel(simulate_panel(model, 1000, 7)),
        "copied process": lambda: DIEvaluator.from_panel(copied_process_panel()),
        "exact model": lambda: DIEvaluator.from_model(model),
    }[source]
    whole = build_cache(make(), 16, K)
    # one target's sets at a time, each in a batch of its own
    per_target = make()
    for target in range(1, 17):
        queries = [(target, members, ()) for members in _all_parent_sets(16, target, K)]
        assert np.array_equal(whole._row(target, K), per_target._fill(queries))
    # a few (K + 2) x (K + 2) blocks per chunk
    monkeypatch.setattr(estimation, "MAX_CELLS", 3 * (K + 2) ** 2)
    chunked = build_cache(make(), 16, K)
    for target in range(1, 17):
        assert np.array_equal(chunked._row(target, K), whole._row(target, K))


def test_chunked_gaussian_stacks_name_the_same_first_query(monkeypatch):
    panel = TimeSeriesPanel(np.random.default_rng(3).standard_normal((5, 4)))
    message = re.escape(
        "insufficient samples: 3 rows for 4 regressors"
        " (target 1, addition [2, 3, 4], conditioning [])"
    )
    with pytest.raises(EstimationError, match=message):
        build_cache(DIEvaluator.from_panel(panel), 5, 3)
    monkeypatch.setattr(estimation, "MAX_CELLS", 1)
    with pytest.raises(EstimationError, match=message):
        build_cache(DIEvaluator.from_panel(panel), 5, 3)


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(m=1, K=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=3)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, L=3)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, n=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, edge_probability=1.5)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, spectral_target=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, spectral_target=1.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, r=-1)
    with pytest.raises(ValidationError):
        ExperimentConfig(m=3, K=1, selection="both")
    assert ExperimentConfig(m=3, K=2).greedy_length == 2
    assert ExperimentConfig(m=4, K=2, L=1).greedy_length == 1


def test_csv_emission(tmp_path):
    config = ExperimentConfig(m=3, K=1, trials=2, seed=1, selection="exact", r=2)
    result = run_experiment(config)
    assert report_filename("study", 3, 1) == "study_3_1.csv"
    trial_path, agg_path = write_experiment_csv(result, tmp_path, name="study")
    assert trial_path.endswith("study_3_1.csv")
    assert agg_path.endswith("study_aggregate_3_1.csv")

    trial_lines = open(trial_path).read().splitlines()
    assert trial_lines[0] == ",".join(TRIAL_HEADER)
    assert len(trial_lines) == 1 + len(result.reports)
    # optimal rows carry no alpha estimate; the field stays empty
    opt_row = next(l for l in trial_lines[1:] if l.split(",")[1] == "optimal")
    assert opt_row.split(",")[7] == ""

    agg_lines = open(agg_path).read().splitlines()
    assert agg_lines[0] == ",".join(AGGREGATE_HEADER)
    algorithms = {l.split(",")[0] for l in agg_lines[1:]}
    assert {"optimal", "greedy", "greedy-vs-optimal", "topr-1", "topr-2"} <= algorithms

    rows = aggregate_rows(result)
    for row in rows:
        n, mean, std, lo, frac = row[4], row[5], row[6], row[7], row[8]
        assert n >= 1
        assert lo <= mean
        assert std >= 0.0
        assert 0.0 <= frac <= 1.0

    # emission is a pure function of the result
    other = tmp_path / "again"
    other.mkdir()
    t2, a2 = write_experiment_csv(result, other, name="study")
    assert open(t2, "rb").read() == open(trial_path, "rb").read()
    assert open(a2, "rb").read() == open(agg_path, "rb").read()
