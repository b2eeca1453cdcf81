import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from dinet.cli import build_parser, main
from dinet.estimation import (
    DIEvaluator,
    EstimatorConfig,
    LinearNetworkModel,
    TimeSeriesPanel,
    read_panel_csv,
    write_panel_csv,
)
from dinet.simulate import ExperimentConfig, generate_ar_network, simulate_panel
from dinet.structures import DirectedInfoCache

NINE_DECIMALS = re.compile(r"^-?\d+\.\d{9}$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def panel_path(tmp_path_factory):
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    c[1, 2] = 1.0
    model = LinearNetworkModel(c, np.ones(3))
    panel = simulate_panel(model, 2000, 42)
    path = tmp_path_factory.mktemp("panels") / "panel.csv"
    write_panel_csv(panel, str(path))
    return str(path)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory, panel_path):
    path = tmp_path_factory.mktemp("caches") / "cache.json"
    code = main(["cache", "build", panel_path, "--K", "1", "--out", str(path)])
    assert code == 0
    return str(path)


def test_estimate_prints_nine_decimals(capsys, panel_path):
    code, out, _ = run(capsys, "estimate", panel_path, "--target", "3", "--addition", "1")
    assert code == 0
    line = out.strip()
    assert NINE_DECIMALS.match(line)
    nats = float(line)
    assert abs(nats - 0.5 * math.log(1.5)) < 0.05

    code, out, _ = run(
        capsys, "estimate", panel_path, "--target", "3", "--addition", "1",
        "--units", "bits",
    )
    assert code == 0
    bits = float(out.strip())
    assert abs(bits - nats / math.log(2.0)) < 1e-8


def test_estimate_empty_addition_is_zero(capsys, panel_path):
    code, out, _ = run(capsys, "estimate", panel_path, "--target", "3", "--addition", "")
    assert code == 0
    assert out.strip() == "0.000000000"


def test_estimate_discrete_copy_channel(capsys, tmp_path):
    rng = np.random.default_rng(8)
    driver = rng.integers(0, 2, size=4000)
    copied = np.empty_like(driver)
    copied[0] = 0
    copied[1:] = driver[:-1]
    panel = TimeSeriesPanel(np.vstack([driver, copied]), kind="discrete", alphabet_size=2)
    path = tmp_path / "bits.csv"
    write_panel_csv(panel, str(path))
    code, out, _ = run(
        capsys, "estimate", str(path), "--target", "2", "--addition", "1",
        "--estimator", "discrete", "--alphabet-size", "2", "--units", "bits",
    )
    assert code == 0
    assert abs(float(out.strip()) - 1.0) < 0.05


def test_estimate_error_exit_codes(capsys, tmp_path, panel_path):
    # out-of-range query is a validation failure
    code, _, err = run(capsys, "estimate", panel_path, "--target", "9", "--addition", "1")
    assert code == 1
    assert err.startswith("error:")
    # a bad cell is a format failure named by file row
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n0.1,0.2\nnope,0.4\n")
    code, _, err = run(capsys, "estimate", str(bad), "--target", "1", "--addition", "2")
    assert code == 2
    assert "row 3" in err
    # missing file is an I/O failure
    code, _, err = run(
        capsys, "estimate", str(tmp_path / "absent.csv"), "--target", "1", "--addition", "2"
    )
    assert code == 2


def test_cache_build_contents(capsys, panel_path, cache_path):
    cache = DirectedInfoCache.from_json(open(cache_path).read())
    assert cache.m == 3
    assert cache.K == 1
    assert len(list(cache.items())) == 6
    panel = read_panel_csv(panel_path)
    ev = DIEvaluator.from_panel(panel)
    for target, members, value in cache.items():
        assert value == ev.set_value(target, members)
    # default output goes to stdout as the same JSON document
    code, out, _ = run(capsys, "cache", "build", panel_path, "--K", "1")
    assert code == 0
    assert json.loads(out) == json.loads(open(cache_path).read())


def test_approximate_cache_and_panel_agree(capsys, panel_path, cache_path):
    code, from_cache, _ = run(capsys, "approximate", "--cache", cache_path, "--K", "1")
    assert code == 0
    code, from_panel, _ = run(capsys, "approximate", "--panel", panel_path, "--K", "1")
    assert code == 0
    assert from_cache == from_panel
    doc = json.loads(from_cache)
    assert doc["class"] == "general"
    assert doc["search"] == "optimal"
    assert doc["score"] > 0.0
    assert len(doc["assignment"]["parents"]) == 3


def test_approximate_connected_roots(capsys, cache_path):
    code, out, _ = run(capsys, "approximate", "--cache", cache_path, "--K", "1", "--class", "connected")
    assert code == 0
    degrees = [len(p) for p in json.loads(out)["assignment"]["parents"]]
    assert sorted(degrees) == [0, 1, 1]
    code, out, _ = run(
        capsys, "approximate", "--cache", cache_path, "--K", "1",
        "--class", "connected", "--root-has-parents",
    )
    assert code == 0
    degrees = [len(p) for p in json.loads(out)["assignment"]["parents"]]
    assert degrees == [1, 1, 1]


def test_approximate_out_and_dot_files(capsys, cache_path, tmp_path):
    out_path = tmp_path / "structure.json"
    dot_path = tmp_path / "structure.dot"
    code, out, _ = run(
        capsys, "approximate", "--cache", cache_path, "--K", "1",
        "--out", str(out_path), "--dot", str(dot_path),
    )
    assert code == 0
    assert re.match(r"^score \d+\.\d{9}\n$", out)
    doc = json.loads(out_path.read_text())
    assert float(out.split()[1]) == pytest.approx(doc["score"], abs=5e-10)
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    assert "->" in dot


def test_search_input_requirements(capsys, cache_path):
    code, _, err = run(capsys, "approximate", "--K", "1")
    assert code == 1
    assert "--panel or --cache" in err
    code, _, err = run(capsys, "approximate", "--cache", cache_path, "--search", "greedy")
    assert code == 1
    assert "--panel" in err
    code, _, err = run(capsys, "approximate", "--cache", cache_path, "--K", "2")
    assert code == 1
    assert "cache holds K=1" in err


def test_incomplete_cache_is_internal_error(capsys, tmp_path, cache_path):
    cache = DirectedInfoCache.from_json(open(cache_path).read())
    partial = DirectedInfoCache(3, 1)
    entries = list(cache.items())
    for target, members, value in entries[:-1]:
        partial.put(target, members, value)
    path = tmp_path / "partial.json"
    path.write_text(partial.to_json())
    code, _, err = run(capsys, "approximate", "--cache", str(path), "--K", "1")
    assert code == 3
    assert "target" in err


@pytest.mark.parametrize(
    "fault, entry",
    [
        ("repeat", {"set": [2, 2]}),
        ("text", {"value": "abc"}),
        ("nan", {"value": math.nan}),
    ],
)
def test_malformed_cache_entry_is_a_validation_error(
    capsys, tmp_path, cache_path, fault, entry
):
    obj = json.loads(open(cache_path).read())
    obj["entries"][0].update(entry)
    path = tmp_path / f"{fault}.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "topr", "--cache", str(path), "--K", "1", "--r", "3")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: target 1: parent set [2")


def test_cache_build_of_a_duplicated_process(capsys, tmp_path):
    rng = np.random.default_rng(29)
    x = rng.standard_normal(80)
    panel = TimeSeriesPanel(np.vstack([rng.standard_normal(80), x, x]))
    path = tmp_path / "duplicated.csv"
    write_panel_csv(panel, str(path))
    code, out, err = run(capsys, "cache", "build", str(path), "--K", "1")
    assert code == 0
    assert err == ""
    values = {
        (e["target"], tuple(e["set"])): e["value"] for e in json.loads(out)["entries"]
    }
    assert values[2, (3,)] == 0.0
    assert values[1, (2,)] == values[1, (3,)]
    ev = DIEvaluator.from_panel(read_panel_csv(str(path)))
    assert len(values) == 6
    for (target, members), value in values.items():
        assert value == ev.set_value(target, members)


def test_cache_build_names_a_plugin_query_over_the_cap(capsys, tmp_path):
    # binary symbols at order 10: a one-process addition spans 2**21 cells,
    # above MAX_CELLS, and the query is refused before any row is counted
    rng = np.random.default_rng(31)
    path = tmp_path / "symbols.csv"
    write_panel_csv(
        TimeSeriesPanel(rng.integers(0, 2, size=(3, 60)), kind="discrete"), str(path)
    )
    code, out, err = run(
        capsys, "cache", "build", str(path), "--K", "1", "--estimator", "discrete",
        "--markov-order", "10",
    )
    assert code == 3
    assert out == ""
    assert "state space too large: 2097152 cells exceed cap 1000000" in err
    assert "(target 1, addition [2], conditioning [])" in err


def test_the_state_space_cap_is_not_an_option(capsys, panel_path):
    with pytest.raises(SystemExit) as exit_:
        main(["cache", "build", panel_path, "--K", "1", "--state-space-cap", "5"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --state-space-cap 5" in captured.err


def test_cache_build_over_the_size_cap_fails_early(capsys, tmp_path):
    # 40 * C(39, 5) values is above the cap; nothing is computed
    path = tmp_path / "wide.csv"
    write_panel_csv(TimeSeriesPanel(np.random.default_rng(37).standard_normal((40, 50))), str(path))
    code, out, err = run(capsys, "cache", "build", str(path), "--K", "5")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "m=40 and parent sets of size 5 holds 23,030,280 values" in lines[0]


def test_topr_rank_one_matches_approximate(capsys, cache_path):
    code, single, _ = run(capsys, "approximate", "--cache", cache_path, "--K", "1")
    assert code == 0
    code, ranked_text, _ = run(capsys, "topr", "--cache", cache_path, "--K", "1", "--r", "3")
    assert code == 0
    ranked = json.loads(ranked_text)
    assert [entry["rank"] for entry in ranked] == [1, 2, 3]
    scores = [entry["score"] for entry in ranked]
    assert scores == sorted(scores, reverse=True)
    best = json.loads(single)
    assert ranked[0]["score"] == best["score"]
    assert ranked[0]["assignment"] == best["assignment"]


def test_topr_dot_dir_and_validation(capsys, cache_path, tmp_path):
    dot_dir = tmp_path / "dots"
    code, _, _ = run(
        capsys, "topr", "--cache", cache_path, "--K", "1", "--r", "2",
        "--dot-dir", str(dot_dir),
    )
    assert code == 0
    assert sorted(p.name for p in dot_dir.iterdir()) == ["rank_001.dot", "rank_002.dot"]
    # the class has 2^3 members; asking for more is a validation error
    code, _, err = run(capsys, "topr", "--cache", cache_path, "--K", "1", "--r", "9")
    assert code == 1
    assert "out of range" in err


def test_topr_connected_class(capsys, cache_path):
    code, out, _ = run(
        capsys, "topr", "--cache", cache_path, "--K", "1", "--r", "2",
        "--class", "connected",
    )
    assert code == 0
    ranked = json.loads(out)
    assert len(ranked) == 2
    assert ranked[0]["score"] >= ranked[1]["score"]


def test_topr_greedy_connected_rank_one_matches_approximate(capsys, tmp_path):
    path = tmp_path / "panel5.csv"
    network = generate_ar_network(5, np.random.default_rng(17))
    write_panel_csv(simulate_panel(network, 500, 17), str(path))
    flags = ["--panel", str(path), "--search", "greedy", "--class", "connected", "--L", "2"]
    code, single, err = run(capsys, "approximate", *flags)
    assert code == 0
    assert err == ""
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, "topr", *flags, "--r", "5")
        assert code == 0
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    ranked = json.loads(outputs[0])
    assert [entry["rank"] for entry in ranked] == [1, 2, 3, 4, 5]
    assert len({json.dumps(entry["assignment"]) for entry in ranked}) == 5
    best = json.loads(single)
    assert ranked[0]["score"] == best["score"]
    assert ranked[0]["assignment"] == best["assignment"]


def test_bounds_table_output(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "greedy", "--alphas", "1", "--K", "3", "--L", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,K,L,coefficient"
    alpha, k, length, coeff = lines[1].split(",")
    assert (alpha, k, length) == ("1", "3", "3")
    assert abs(float(coeff) - 0.6321) < 1e-4
    code, out, _ = run(capsys, "bounds", "--table", "degree-gap", "--alphas", "2", "--K", "4", "--L", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "2,4,2,0.2"
    code, _, err = run(capsys, "bounds", "--alphas", "", "--K", "3", "--L", "3")
    assert code == 1
    code, _, err = run(capsys, "bounds", "--alphas", "fast", "--K", "3", "--L", "3")
    assert code == 1
    assert "comma-separated numbers" in err


def test_simulate_writes_deterministic_csvs(capsys, tmp_path):
    args = [
        "simulate", "--m", "3", "--K", "1", "--trials", "2", "--seed", "4",
        "--selection", "exact", "--r", "2", "--name", "study",
    ]
    code, out, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    first = out.strip().splitlines()
    assert first[0].endswith("study_3_1.csv")
    assert first[1].endswith("study_aggregate_3_1.csv")
    code, out, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    second = out.strip().splitlines()
    for one, two in zip(first, second):
        assert open(one, "rb").read() == open(two, "rb").read()
    header = open(first[0]).readline().strip()
    assert header == "trial,algorithm,class,K,L,score,ratio,alpha_hat,ms"
    body = open(first[0]).read()
    assert "topr-1" in body and "topr-2" in body


@pytest.mark.parametrize("timing", [False, True])
def test_simulate_timing_fills_the_ms_column(capsys, tmp_path, timing):
    args = [
        "simulate", "--m", "3", "--K", "1", "--trials", "2", "--seed", "4",
        "--selection", "exact", "--r", "3", *(["--timing"] if timing else []),
    ]
    code, out, _ = run(capsys, *args, "--out", str(tmp_path))
    assert code == 0
    with open(out.strip().splitlines()[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["algorithm"] for row in rows} == {
        "optimal", "greedy", "topr-1", "topr-2", "topr-3"
    }
    for row in rows:
        # a ranking's time is its first row's; the rows after it read 0
        timed = timing and row["algorithm"] in ("optimal", "greedy", "topr-1")
        assert (float(row["ms"]) > 0.0) if timed else row["ms"] == "0", row


def test_simulate_validation_exit(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--m", "2", "--K", "2", "--trials", "1",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "K 2 out of range 1..1" in err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--noise-variance", "nan")])
def test_simulate_refuses_a_bad_seed_or_noise_variance_with_one_error_line(
    capsys, tmp_path, flag, value
):
    code, out, err = run(
        capsys, "simulate", "--m", "3", "--K", "1", "--trials", "3", "--n", "50",
        flag, value, "--out", str(tmp_path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_a_cache_value_too_large_for_a_float_is_one_error_line(capsys, tmp_path):
    # JSON reads 10**400 as an int, which float() cannot hold
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"m": 3, "K": 1, "entries": [{"target": 1, "set": [2], "value": 10**400}]}
    ))
    code, out, err = run(capsys, "approximate", "--cache", str(path), "--K", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a float can hold" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approximate", "--K", "1", "--class", "general", "--root-has-parents"],
         "--root-has-parents"),
        (["topr", "--K", "1", "--r", "2", "--class", "general", "--root-has-parents"],
         "--root-has-parents"),
        (["topr", "--search", "greedy", "--L", "1", "--r", "2", "--root-has-parents"],
         "--root-has-parents"),
        (["approximate", "--K", "1", "--alphabet-size", "3"], "alphabet_size"),
    ],
    ids=["approximate", "topr", "topr greedy", "real panel alphabet size"],
)
def test_a_flag_the_search_would_ignore_is_refused_with_one_error_line(
    capsys, panel_path, argv, message
):
    code, out, err = run(capsys, *argv, "--panel", panel_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "panel.csv", "--target", "1"],
        ["cache", "build", "panel.csv", "--K", "1"],
        ["approximate"],
        ["topr", "--r", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_estimator_flag_defaults_are_the_config_defaults(argv):
    args = build_parser().parse_args(argv)
    want = EstimatorConfig()
    for field in dataclasses.fields(EstimatorConfig):
        assert getattr(args, field.name) == getattr(want, field.name), field.name


def test_simulate_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["simulate", "--m", "5", "--K", "2"])
    want = ExperimentConfig(m=5, K=2)
    for field in dataclasses.fields(ExperimentConfig):
        if field.name == "include_diagonal":  # the flag is --no-diagonal
            assert args.no_diagonal is not want.include_diagonal
        else:
            assert getattr(args, field.name) == getattr(want, field.name), field.name
