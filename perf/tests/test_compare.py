"""``perf/compare.py`` on hand-made result files."""

from __future__ import annotations

import json

from perf import compare

END_TO_END = [
    {"name": "queries_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.10},
    {"name": "query_s_gmean", "unit": "s", "better": "lower", "bound": 0.10},
]


def result(qps, p50, qps_spread=0.01, p50_spread=0.01, failed_frac=0.0):
    return {"workloads": {"w": {
        "end_to_end": {
            "queries_per_s": {"median": qps, "spread": qps_spread},
            "query_s_gmean": {"median": p50, "spread": p50_spread},
        },
        "failed_frac": failed_frac,
    }}, "exact": {"w": {"recycler.exact_hits": 5}}}


def verdicts(lines):
    return {line.split()[1]: line.split()[-1] for line in lines
            if line.startswith("w ")}


def test_within_bound_is_ok():
    lines, passed = compare.compare(result(100.0, 0.010),
                                    result(95.0, 0.0105), END_TO_END)
    assert passed
    assert verdicts(lines) == {"queries_per_s": "ok", "query_s_gmean": "ok",
                               "failed_frac": "ok"}
    assert any("B/A" in line for line in lines)
    assert any("A=100 1/s" in line for line in lines)   # ratio has a base
    assert "exact counters (replay check): identical" in lines


def test_direction_matters():
    # Throughput up and latency down are improvements, however large.
    _lines, passed = compare.compare(result(100.0, 0.010),
                                     result(200.0, 0.001), END_TO_END)
    assert passed


def test_worse_beyond_bound_is_regressed():
    lines, passed = compare.compare(result(100.0, 0.010),
                                    result(85.0, 0.0125), END_TO_END)
    assert not passed
    assert verdicts(lines)["queries_per_s"] == "regressed"
    assert verdicts(lines)["query_s_gmean"] == "regressed"


def test_wide_spread_is_unresolved_not_ok():
    lines, passed = compare.compare(
        result(100.0, 0.010, qps_spread=0.30), result(99.0, 0.010),
        END_TO_END)
    assert passed                       # unresolved is not a regression
    assert verdicts(lines)["queries_per_s"] == "unresolved"
    assert verdicts(lines)["query_s_gmean"] == "ok"


def test_any_rise_in_failed_frac_fails():
    lines, passed = compare.compare(result(100.0, 0.010),
                                    result(100.0, 0.010, failed_frac=0.001),
                                    END_TO_END)
    assert not passed
    assert verdicts(lines)["failed_frac"] == "regressed"


def test_exact_counter_differences_are_listed():
    b = result(100.0, 0.010)
    b["exact"]["w"]["recycler.exact_hits"] = 6
    lines, _passed = compare.compare(result(100.0, 0.010), b, END_TO_END)
    assert "exact counters (replay check): DIFFER" in lines
    assert any("A=5 B=6" in line for line in lines)


def test_main_reads_bounds_from_benchmark_json(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    with open(compare.ROOT + "/BENCHMARK.json") as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    doc = {"workloads": {"w": {
        "end_to_end": {n: {"median": 1.0, "spread": 0.0} for n in names},
        "failed_frac": 0.0}}}
    a.write_text(json.dumps(doc))
    doc["workloads"]["w"]["end_to_end"]["setup_s"]["median"] = 2.0
    b.write_text(json.dumps(doc))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
