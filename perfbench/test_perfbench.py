"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py

They need neither the CLI nor numpy, only the shipped table.
"""

import json
from pathlib import Path

import pytest

import checks
import run
import spans

TABLE_DOC = json.loads(run.TABLE_DOC.read_text())


def table_stdout(max_prime=17):
    rows = [{"form": form, "p": p, "holds": holds, "expected": holds, "status": "MATCH"}
            for (form, p), holds in checks.expected_congruences(TABLE_DOC, max_prime).items()]
    return json.dumps({"rows": rows, "all_match": True})


def search_stdout(max_weight=18, max_prime=17):
    hits = []
    for (form, p), holds in checks.expected_congruences(TABLE_DOC, max_prime, max_weight).items():
        hits.append({"weight": checks.weight_of(checks.parse_poly(form)), "p": p,
                     "holds_b": holds, "status": "congruence", "forms": [form]})
    return json.dumps({"congruences": hits})


def fail_frac(results):
    """Share of jobs judged failed, as run.py reports it."""
    verdicts = [run.judge(code, out, check) for code, out, check in results]
    return sum(v is not None for v in verdicts) / len(verdicts)


TABLE_CHECK = run.COMMANDS["table"][1]
SEARCH_CHECK = run.COMMANDS["search"][1]


def test_correct_outputs_pass():
    TABLE_CHECK(table_stdout())
    SEARCH_CHECK(search_stdout())
    for name in ("heat-cycle", "check-b0"):
        run.COMMANDS[name][1]((checks.REFERENCE_DIR / f"{name}.json").read_text())


def test_tampered_table_row_fails():
    doc = json.loads(table_stdout())
    doc["rows"][0]["holds"] = doc["rows"][0]["holds"][1:]   # still marked MATCH
    bad = json.dumps(doc)
    with pytest.raises(checks.CheckFailed):
        TABLE_CHECK(bad)
    assert fail_frac([(0, table_stdout(), TABLE_CHECK), (0, bad, TABLE_CHECK)]) == 0.5


def test_table_mismatch_and_missing_row_fail():
    doc = json.loads(table_stdout())
    doc["rows"][1]["status"] = "MISMATCH"
    with pytest.raises(checks.CheckFailed):
        TABLE_CHECK(json.dumps(doc))
    doc = json.loads(table_stdout())
    del doc["rows"][-1]
    with pytest.raises(checks.CheckFailed):
        TABLE_CHECK(json.dumps(doc))


def test_search_missing_congruence_fails():
    doc = json.loads(search_stdout())
    del doc["congruences"][2]
    bad = json.dumps(doc)
    with pytest.raises(checks.CheckFailed):
        SEARCH_CHECK(bad)
    good = (0, search_stdout(), SEARCH_CHECK)
    assert fail_frac([(0, bad, SEARCH_CHECK), good, good, good]) == 0.25


def test_search_forms_compared_up_to_scalar():
    doc = json.loads(search_stdout())
    (hit,) = [h for h in doc["congruences"] if h["p"] == 17]
    hit["forms"] = ["5*E4^2*chi10 + E6*chi12"]           # 5 * the table's form mod 17
    SEARCH_CHECK(json.dumps(doc))
    hit["forms"] = ["5*E4^2*chi10 + 2*E6*chi12"]
    with pytest.raises(checks.CheckFailed):
        SEARCH_CHECK(json.dumps(doc))


def test_normalize_mod_p19_row():
    table = checks.parse_poly("chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10")
    search = checks.parse_poly("18*E4*E6*chi10 + 10*chi10^2 + E4^2*chi12")
    assert checks.normalize_mod(table, 19) == checks.normalize_mod(search, 19)
    assert checks.weight_of(table) == 20


def test_nonzero_exit_fails_even_with_good_output():
    assert run.judge(1, table_stdout(), TABLE_CHECK) == "exit code 1"
    assert fail_frac([(1, table_stdout(), TABLE_CHECK), (0, table_stdout(), TABLE_CHECK)]) == 0.5
    assert run.judge(0, "not json", TABLE_CHECK) is not None
    assert run.judge(0, json.dumps({"congruences": [{"p": 5}]}), SEARCH_CHECK) is not None


def test_reference_allows_added_keys_only():
    ref = json.loads((checks.REFERENCE_DIR / "heat-cycle.json").read_text())
    checks.check_reference(json.dumps(dict(ref, extra=1)), "heat-cycle")
    with pytest.raises(checks.CheckFailed):
        bad = dict(ref, filtrations=ref["filtrations"][::-1])
        checks.check_reference(json.dumps(bad), "heat-cycle")


def test_self_time_on_nested_tree():
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> b [5, 9] -> a [6, 8] (recursion)
    tree = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
            ["b", 5.0, 9.0, 0], ["a", 6.0, 8.0, 3]]
    t = spans.layer_times(tree)
    assert t["a"] == {"calls": 2, "s": 10.0, "self_s": 3.0 + 2.0}
    assert t["b"] == {"calls": 2, "s": 7.0, "self_s": 2.0 + 2.0}
    assert t["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    # self time of every span sums to the root's duration
    assert sum(row["self_s"] for row in t.values()) == 10.0


def test_tracer_records_parents_and_hooks():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1,
                        hook=lambda stats, a, result: seen.append((a["x"], result)))
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert seen == [(2, 3), (2, 3)]
    t = spans.layer_times(tracer.spans)
    assert t["outer"]["s"] == 5.0 and t["outer"]["self_s"] == 3.0


def test_merge_adds_counts_and_keeps_maxima():
    one = {"times": {"a": {"calls": 2, "s": 1.0, "self_s": 0.5}},
           "stats": {"siegel.siegel_mul.box_max": 30, "linalg.entries": 10}}
    two = {"times": {"a": {"calls": 1, "s": 2.0, "self_s": 2.0}},
           "stats": {"siegel.siegel_mul.box_max": 12, "linalg.entries": 5}}
    merged = spans.merge([one, two])
    assert merged["times"]["a"] == {"calls": 3, "s": 3.0, "self_s": 2.5}
    assert merged["stats"] == {"siegel.siegel_mul.box_max": 30, "linalg.entries": 15}
    m = spans.metrics(merged)
    assert m["siegel.siegel_mul.box_max"] == 30 and m["jacobi.holo_basis.hit_ratio"] == 0.0
    assert set(m) == set(spans.metric_units())


def test_metric_names_match_benchmark_json():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


def test_host_speed_scale_uses_samples_around_the_interval():
    speed = run.HostSpeed()
    ref = run.CAL_REF_S
    # fast phase before t = 10, twice as slow after it
    speed.samples = [(t / 10, ref if t < 100 else 2 * ref) for t in range(200)]
    assert speed.scale(2.0, 8.0) == pytest.approx(1.0)
    assert speed.scale(12.0, 18.0) == pytest.approx(0.5)
    # a short interval is widened to CAL_HALF_S on each side of its middle
    around = [d for t, d in speed.samples if abs(t - 10.05) <= run.CAL_HALF_S]
    assert speed.scale(10.0, 10.1) == pytest.approx(ref / (sum(around) / len(around)))
    assert 0.5 < speed.scale(10.0, 10.1) < 1.0
