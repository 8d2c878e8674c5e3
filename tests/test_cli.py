import csv
import hashlib
import heapq
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasetrack as pt
from phasetrack import cli, scenario
from phasetrack.cli import main
from phasetrack.errors import InvariantViolation

from faults import inflate_event_tv

SCENARIO_INI = """\
[scenario]
gamma = 2
v_max = 0.05
w_max = 0.13333333333333333
w_c = 0.125
v_c = 0.02
x1 = -10
x2 = -7

[run]
n = 5
t_end = 430
snapshots = 0 100 420
"""

# SCENARIO_INI run to the scenario's default t_end, 1.25 t_last = 419.2, so
# without the snapshot at 420
SCENARIO_NO_T_END = SCENARIO_INI.replace("t_end = 430\n", "").replace(
    "snapshots = 0 100 420", "snapshots = 0 100 400")

CONSTANT_INI = """\
[model]
family = linear
v_max = 0.05
R = inf
gamma = 2.0
R_f_prime = 0.3
R_f_second = 0.35
V_c = 0.02

[datum]
kind = inline
breaks = 0.0
states = congested:0.37,0.01 | congested:0.37,0.01

[run]
n = 4
t_end = 10
snapshots = 0 5
"""

RANDOM_INI = """\
[model]
family = linear
v_max = 0.05
R = 1.0
gamma = 2.0
W_c = 0.125
W_max = 0.13333333333333333
V_c = 0.02

[datum]
kind = random
jumps = 8

[run]
n = 4
t_end = 60
"""


def read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_constant_datum_run(tmp_path):
    cfgf = tmp_path / "c.ini"
    cfgf.write_text(CONSTANT_INI)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    header, rows = read_csv(out / "fronts.csv")
    assert header[0] == "t0"
    assert rows == []
    header, rows = read_csv(out / "functionals.csv")
    assert len(rows) == 1
    assert float(rows[0][1]) == 0.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["events"] == 0
    assert "written_at" in meta


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nfamily = linear\n")   # missing everything
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 2


def test_invalid_scenario_exit_2(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI.replace("w_max = 0.13333333333333333",
                                         "w_max = 0.125").replace("w_c = 0.125",
                                                                  "w_c = 0.13333333333333333"))
    assert main(["run", str(cfgf), "--out", str(tmp_path / "o")]) == 2


def test_scenario_run_outputs(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out), "--strict"]) == 0
    for name in ("profiles.csv", "fronts.csv", "functionals.csv",
                 "entropy.csv", "metadata.json"):
        assert (out / name).exists()
    header, rows = read_csv(out / "functionals.csv")
    tvs = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(tvs, tvs[1:]))
    # 17-significant-digit serialization round-trips
    _, prows = read_csv(out / "profiles.csv")
    some = [float(v) for v in prows[len(prows) // 2]]
    assert len(some) == 6
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario"]["w_max"] > meta["scenario"]["w_c"]


def test_run_determinism(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(RANDOM_INI)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfgf), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["run", str(cfgf), "--out", str(out2), "--seed", "7"]) == 0
    for name in ("profiles.csv", "fronts.csv", "functionals.csv", "entropy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ladder_outputs_and_trends(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    out = tmp_path / "lad"
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "6",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "ladder.csv")
    assert [r[0] for r in rows] == ["4", "5", "6"]
    closed = {float(r[2]) for r in rows}
    assert len(closed) == 1            # the closed form does not depend on n
    errs = [float(r[3]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    neg = [float(r[5]) for r in rows]
    assert all(b < a for a, b in zip(neg, neg[1:]))


def test_ladder_bad_range_exit_2(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    assert main(["ladder", str(cfgf), "--n-min", "6", "--n-max", "4",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("t_end, jobs", [("100", "1"), ("100", "2"), ("0", "1")])
def test_ladder_t_end_before_the_last_passage_exit_2(tmp_path, capsys, t_end, jobs):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI.replace("t_end = 430", f"t_end = {t_end}"))
    out = tmp_path / "lad"
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "4",
                 "--jobs", jobs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the queue has not fully passed")
    assert f"(t_end = {float(t_end)})" in err
    assert not (out / "ladder.csv").exists()


def test_ladder_parallel_jobs(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "5",
                 "--out", str(out1)]) == 0
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "5",
                 "--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "ladder.csv").read_bytes() == (out2 / "ladder.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_ladder_jobs_below_one_exit_2(tmp_path, monkeypatch, capsys, jobs):
    # rejected before the config is read or any level runs
    monkeypatch.setattr(cli, "RunConfig", None)
    out = tmp_path / "lad"
    assert main(["ladder", str(tmp_path / "s.ini"), "--jobs", jobs,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


# ladder.csv of SCENARIO_INI, levels 4..5, with the pressure inverted in
# closed form: for the mesh nodes, R_c and R_max, and the exact
# construction's fan states; the ray projections and the two curved paths
# are closed forms too, so the L1 gap at the probe is rounding alone
LADDER_4_5_GOLDEN = [
    ["n", "sim_t_last", "closed_form_t_d1", "abs_error", "l1_error",
     "negative_entropy", "events"],
    ["4", "335.36932818844895", "333.81606715674451", "1.5532610317044373",
     "1.9984014443228744e-17", "0.0016927171960651739", "35"],
    ["5", "335.36932818844895", "333.81606715674451", "1.5532610317044373",
     "1.9984014443228744e-17", "0.00084637130768686476", "67"],
]


def test_ladder_golden_columns(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    out = tmp_path / "lad"
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "5",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "ladder.csv")
    assert [header[:7]] + [r[:7] for r in rows] == LADDER_4_5_GOLDEN
    assert header[7:] == ["violations"]
    assert [r[7:] for r in rows] == [["0"], ["0"]]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of the CSVs `phasetrack run` writes on the shipped configs, as
# written once the free line was built in closed form and the event log
# stopped stepping back in time.  The flat
# profiles.csv still carries the continuity breaks of diagram_at's
# (position, speed) sort; it is pinned against accidental change only
RUN_OUTPUT_GOLDENS = {
    ("traffic_light.ini",): {
        "fronts.csv": "ca9bebae08019d0a79bdd4f7f4133a173915c3d25e7d7b26087e39c08ca3564e",
        "functionals.csv": "75ddda36ac88d6294a335ec6cccb391065a939c8f82955fb8bea804ea68c1524",
        "profiles.csv": "899724c423276d22e4e021a73f9b56cb9d84297273059fcd330f00e5b8cecc5f",
        "entropy.csv": "b84f43c5959d95a95dc1ac2b64dd58ae5b138695272890a808e932748daf7dba"},
    ("flat_free_random.ini", "--seed", "7"): {
        "fronts.csv": "b18fdc21064ff8280f37fe6550e57e7ca3301e1edd0a532135539f19a1ec172b",
        "functionals.csv": "33bc692bbcece5a7d0b73f798b8da354e4fd5a97c652e66daf85b8c9e288e977",
        "profiles.csv": "ea8dcb3d355db4e4d781e781e755ed73768da830834159b5b226ec6dd9ddf4f4",
        "entropy.csv": "d1f74ac87488163360b0cdbacfdb86d68fd564e6af873734a4c5490b05c46757"},
}


@pytest.mark.parametrize("args", list(RUN_OUTPUT_GOLDENS), ids=lambda a: a[0])
def test_shipped_config_outputs_are_byte_identical(tmp_path, args):
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / args[0]), *args[1:], "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in RUN_OUTPUT_GOLDENS[args]}
    assert got == RUN_OUTPUT_GOLDENS[args]


# sha256 of the ladder.csv that `phasetrack ladder` writes on the shipped
# traffic-light config over its default levels 5..9, serially: the output
# the benchmark's ladder workload times
LADDER_5_9_SHA256 = "0b475f9cad7dac375798647fc72a89face50545aca38c06c60fb6fead771a3d7"


def test_shipped_ladder_output_is_byte_identical(tmp_path):
    out = tmp_path / "lad"
    assert main(["ladder", str(CONFIGS / "traffic_light.ini"), "--n-min", "5", "--n-max", "9",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "ladder.csv").read_bytes()).hexdigest() == LADDER_5_9_SHA256


@pytest.mark.parametrize("seed, events", [(1, 974), (7, 1089)])
def test_flat_config_moved_far_from_zero_keeps_its_events(tmp_path, seed, events):
    # the shipped constant-free-speed config with its datum window moved
    # from [-10, 10] to [1014, 1034]: no collision is dropped, so the run
    # has the events of the unmoved one and passes its audit
    text = (CONFIGS / "flat_free_random.ini").read_text()
    moved = text.replace("\nx_lo = -10\n", "\nx_lo = 1014\n").replace("\nx_hi = 10\n",
                                                                      "\nx_hi = 1034\n")
    assert moved.count("= 1014\n") == moved.count("= 1034\n") == 1
    cfgf = tmp_path / "moved.ini"
    cfgf.write_text(moved)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--seed", str(seed), "--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["events"] == events


# (config, datum window or None for the shipped one, extra arguments): the
# shipped configs, and the flat one moved to [8182, 8202].  Only the
# traffic-light run clamps no push: the flat family's co-located stacks
# have pairs whose rounded intercepts put them a few ulps in the past
STATS_RUNS = {
    "traffic_light": ("traffic_light.ini", None, ()),
    "flat": ("flat_free_random.ini", None, ("--seed", "7")),
    "flat_moved": ("flat_free_random.ini", (8182, 8202), ("--seed", "7")),
}


@pytest.mark.parametrize("case", list(STATS_RUNS))
def test_run_stats_in_metadata_match_a_recount(tmp_path, monkeypatch, case):
    name, window, extra = STATS_RUNS[case]
    text = (CONFIGS / name).read_text()
    if window is not None:
        text = text.replace("\nx_lo = -10\n", f"\nx_lo = {window[0]}\n").replace(
            "\nx_hi = 10\n", f"\nx_hi = {window[1]}\n")
        assert f"x_lo = {window[0]}\n" in text and f"x_hi = {window[1]}\n" in text
    cfgf = tmp_path / name
    cfgf.write_text(text)
    # every heap entry is recounted as heapq moves it: `run` binds heapq's
    # two functions when it starts.  An entry is stale when popped if its
    # two fronts are no longer adjacent, and a push is clamped if its time
    # is not the collision time of its two fronts' lines
    popped, clamped = [], []
    pop, push = heapq.heappop, heapq.heappush

    def counting_pop(heap):
        entry = pop(heap)
        t, _, a, b = entry
        popped.append((t, a.next is not b))
        return entry

    def counting_push(heap, entry):
        t, _, a, b = entry
        clamped.append(t != (b.icpt - a.icpt) / (a.speed - b.speed))
        push(heap, entry)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    monkeypatch.setattr(heapq, "heappush", counting_push)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), *extra, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    stats = meta["run_stats"]
    assert set(stats) == {"stale_pops", "clamped_pushes", "peak_fronts"}
    stale = sum(s for _, s in popped)
    assert stats["stale_pops"] == stale
    # every pop is stale, an event, or the one past t_end that ends the loop
    ended = int(bool(popped) and not popped[-1][1] and popped[-1][0] > meta["t_end"])
    assert len(popped) == stale + meta["events"] + ended
    assert stats["clamped_pushes"] == sum(clamped)
    assert stats["clamped_pushes"] == 0 if case == "traffic_light" else stats["clamped_pushes"] > 0
    header, rows = read_csv(out / "functionals.csv")
    assert stats["peak_fronts"] == max(int(r[header.index("waves")]) for r in rows)


def test_ladder_builds_construction_once(tmp_path, monkeypatch):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    builds = []
    original = scenario._Curves.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(scenario._Curves, "__init__", counting_init)
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "5",
                 "--jobs", "1", "--out", str(tmp_path / "lad")]) == 0
    assert len(builds) == 1


def test_one_scenario_build_per_command(tmp_path, monkeypatch):
    # the construction and the default t_end take the laws and datum the
    # config already built
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_NO_T_END)
    builds = []
    original = scenario.build_scenario

    def counting_build(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "build_scenario", counting_build)
    monkeypatch.setattr(cli, "build_scenario", counting_build)
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "5",
                 "--out", str(tmp_path / "lad")]) == 0
    assert len(builds) == 1
    builds.clear()
    assert main(["run", str(cfgf), "--out", str(tmp_path / "run")]) == 0
    assert len(builds) == 1


def test_ladder_strict_reaches_run(tmp_path, monkeypatch, capsys):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    seen = []
    original = cli.run

    def recording_run(*args, **kwargs):
        seen.append(kwargs.get("strict"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "4",
                 "--strict", "--out", str(tmp_path / "a")]) == 0
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "4",
                 "--out", str(tmp_path / "b")]) == 0
    assert seen == [True, False]

    def violating_run(*args, **kwargs):
        raise InvariantViolation("TV increased by 1")

    monkeypatch.setattr(cli, "run", violating_run)
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "4",
                 "--strict", "--out", str(tmp_path / "c")]) == 3
    assert "invariant violation: TV increased by 1" in capsys.readouterr().err


def test_scenario_defaults_come_from_the_config_class(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text("[scenario]\nx1 = -12\n")
    assert cli.RunConfig(cfgf).scenario_cfg == scenario.TrafficLightConfig(x1=-12.0)


def test_scenario_run_without_t_end_runs_past_the_last_passage(tmp_path):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_NO_T_END)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    t_last = scenario.closed_form_table(scenario.TrafficLightConfig()).t_last
    assert meta["t_end"] == 1.25 * t_last


def test_run_with_t_end_zero_writes_the_initial_resolution_alone(tmp_path):
    cfgf = tmp_path / "r.ini"
    cfgf.write_text(RANDOM_INI.replace("t_end = 60\n", "t_end = 0\n"))
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["t_end"] == 0.0
    assert meta["events"] == 0
    header, rows = read_csv(out / "fronts.csv")
    assert rows
    assert {(float(r[header.index("t0")]), float(r[header.index("t1")])) for r in rows} \
        == {(0.0, 0.0)}
    header, rows = read_csv(out / "functionals.csv")
    assert [float(r[0]) for r in rows] == [0.0]


@pytest.mark.parametrize("t_end", ["-5", "inf", "nan"])
def test_negative_or_non_finite_t_end_exit_2(tmp_path, capsys, t_end):
    for command, text in (("run", RANDOM_INI.replace("t_end = 60", f"t_end = {t_end}")),
                          ("ladder", SCENARIO_INI.replace("t_end = 430", f"t_end = {t_end}"))):
        cfgf = tmp_path / f"{command}.ini"
        cfgf.write_text(text)
        out = tmp_path / command
        assert main([command, str(cfgf), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: t_end must be ")
        assert not out.exists()


@pytest.mark.parametrize("text, k_grid", [
    (CONSTANT_INI, "-0.01 0.01"),      # below 0
    (SCENARIO_INI, "0.04"),            # above V_f = 0.03426...
], ids=["flat-below-0", "scenario-above-V_f"])
def test_k_grid_outside_zero_to_v_f_exit_2(tmp_path, capsys, text, k_grid):
    cfgf = tmp_path / "k.ini"
    cfgf.write_text(text.replace("[run]\n", f"[run]\nk_grid = {k_grid}\n"))
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: k_grid speeds must lie in")
    assert not out.exists()


@pytest.mark.parametrize("breaks", ["0 nan", "0 inf", "nan 0"])
def test_non_finite_datum_break_exit_2(tmp_path, capsys, breaks):
    # x_lo and x_hi are set, so the profile window does not read the breaks
    cfgf = tmp_path / "b.ini"
    cfgf.write_text(CONSTANT_INI.replace("breaks = 0.0", f"breaks = {breaks}").replace(
        "congested:0.37,0.01 | congested:0.37,0.01", "vacuum | free:0.33 | vacuum").replace(
        "[run]\n", "[run]\nx_lo = -10\nx_hi = 10\n"))
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: breakpoints must be finite, got [")
    assert not out.exists()


FLAT_INI = (CONFIGS / "flat_free_random.ini").read_text()
TRAFFIC_LIGHT_INI = (CONFIGS / "traffic_light.ini").read_text()


def test_vacuum_datum_writes_header_only_fronts_and_entropy(tmp_path):
    # a constant datum has no front: the run succeeds, strict or not, and
    # its per-front outputs hold their headers alone
    cfgf = tmp_path / "v.ini"
    cfgf.write_text(CONSTANT_INI.replace("breaks = 0.0", "breaks =").replace(
        "congested:0.37,0.01 | congested:0.37,0.01", "vacuum"))
    for flags in ([], ["--strict"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["run", str(cfgf), *flags, "--out", str(out)]) == 0
        assert read_csv(out / "fronts.csv") == (
            ["t0", "t1", "x0", "x1", "speed", "kind", "left_rho", "left_v", "left_phase",
             "right_rho", "right_v", "right_phase"], [])
        assert read_csv(out / "entropy.csv") == (["t0", "t1", "x0", "kind", "k", "upsilon"], [])


@pytest.mark.parametrize("text, old, new, message, tail", [
    (FLAT_INI, "snapshots = 0 50 100 150", "snapshots = -3 0 500",
     "snapshots must lie in [0, t_end = 150.0]", "got [-3.0, 0.0, 500.0]\n"),
    (SCENARIO_INI, "t_end = 430\n", "",      # the default t_end, 1.25 t_last
     "snapshots must lie in [0, t_end = 419.2", "got [0.0, 100.0, 420.0]\n"),
    (FLAT_INI, "[run]\n", "[run]\nx_lo = 5\nx_hi = -5\n", "profiles need a finite x_lo < x_hi",
     "got x_lo = 5.0, x_hi = -5.0, x_points = 400\n"),
    (FLAT_INI, "[run]\n", "[run]\nx_points = 1\n", "profiles need a finite x_lo < x_hi "
     "and x_points >= 2", ", x_points = 1\n"),
    # an entropy switch that is neither on nor off, not a silent "on"
    (FLAT_INI, "[run]\n", "[run]\nentropy = maybe\n", "[run] entropy must be one of ",
     "got 'maybe'\n"),
    # a random datum draws at least 3 breakpoints, strictly inside (x_lo, x_hi)
    (FLAT_INI, "jumps = 20\n", "jumps = 2\n", "[datum] jumps must be at least 3", "got 2\n"),
    (FLAT_INI, "x_lo = -10\nx_hi = 10\n", "x_lo = 10\nx_hi = -10\n",
     "[datum] needs a finite x_lo < x_hi", "got x_lo = 10.0, x_hi = -10.0\n"),
    (FLAT_INI, "x_lo = -10\nx_hi = 10\n", "x_lo = 4\nx_hi = 4\n",
     "[datum] needs a finite x_lo < x_hi", "got x_lo = 4.0, x_hi = 4.0\n"),
    # a key the config needs is named when it is missing
    (RANDOM_INI, "V_c = 0.02\n", "", "[model] needs V_max and V_c", "\n"),
    (RANDOM_INI, "v_max = 0.05\n", "", "[model] needs V_max and V_c", "\n"),
    (CONSTANT_INI, "breaks = 0.0\n", "", "missing [datum] key 'breaks'", "\n"),
    # a config without a section it needs, or with a kind or level no run takes
    (CONSTANT_INI, "[datum]\nkind = inline\nbreaks = 0.0\n"
     "states = congested:0.37,0.01 | congested:0.37,0.01\n", "",
     "config needs a [datum] section", "\n"),
    (CONSTANT_INI, "kind = inline\n", "kind = spline\n", "unknown datum kind 'spline'", "\n"),
    (CONSTANT_INI, "[model]\n", "[Model]\n", "config needs a [scenario] or [model] section",
     "\n"),
    (FLAT_INI, "\nn = 5\n", "\nn = 0\n", "n must be >= 1", "\n"),
    # an empty k_grid would audit no speed and write a header-only
    # entropy.csv; empty snapshots would silently write the default times
    (FLAT_INI, "[run]\n", "[run]\nk_grid =\n", "[run] k_grid = '': needs at least one value",
     "\n"),
    (FLAT_INI, "snapshots = 0 50 100 150", "snapshots =",
     "[run] snapshots = '': needs at least one value", "\n"),
], ids=["snapshots-outside-t_end", "snapshot-after-the-default-t_end",
        "descending-window", "one-x-point", "entropy-not-a-boolean",
        "datum-jumps-below-3", "datum-descending-span", "datum-empty-span",
        "model-without-V_c", "model-without-v_max", "datum-without-breaks",
        "model-without-datum", "datum-kind-unknown", "no-scenario-or-model", "level-0",
        "empty-k_grid", "empty-snapshots"])
def test_profile_options_that_cannot_be_met_exit_2(tmp_path, capsys, text, old, new,
                                                    message, tail):
    assert text.count(old) == 1
    cfgf = tmp_path / "p.ini"
    cfgf.write_text(text.replace(old, new))
    out = tmp_path / "out"
    # a scenario's datum is not random, so it takes no seed
    seed = [] if text is SCENARIO_INI else ["--seed", "7"]
    assert main(["run", str(cfgf), *seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.endswith(tail), err
    assert not out.exists()


@pytest.mark.parametrize("text", [CONSTANT_INI, SCENARIO_INI, TRAFFIC_LIGHT_INI],
                         ids=["inline", "scenario", "traffic_light.ini"])
def test_seed_without_a_random_datum_exit_2(tmp_path, capsys, text):
    # --seed draws a random datum; on any other datum it would change
    # nothing, so it is a configuration error, not an ignored flag
    cfgf = tmp_path / "d.ini"
    cfgf.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: --seed applies only to a [datum] of kind = random\n"
    assert not out.exists()
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    assert "seed" not in json.loads((out / "metadata.json").read_text())


@pytest.mark.parametrize("text, old, new, section, key", [
    (FLAT_INI, "snapshots = 0 50 100 150", "snapshot = 0 500", "run", "snapshot"),
    (SCENARIO_INI, "x2 = -7\n", "x2 = -7\nx3 = -2\n", "scenario", "x3"),
    (FLAT_INI, "V_c = 0.02\n", "V_c = 0.02\nW_min = 0\n", "model", "w_min"),
    (FLAT_INI, "jumps = 20\n", "jumps = 20\nseed = 3\n", "datum", "seed"),
], ids=["run", "scenario", "model", "datum"])
@pytest.mark.parametrize("command", ["run", "ladder"])
def test_unknown_config_key_exit_2(tmp_path, capsys, text, old, new, section, key, command):
    # a key no config reads (here a misspelt or invented one) is an error,
    # not an option that silently does nothing
    assert text.count(old) == 1
    cfgf = tmp_path / "u.ini"
    cfgf.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, str(cfgf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: unknown [{section}] key {key!r}\n"
    assert not out.exists()


# (config, old text, new text, the message): a key the config's shape does
# not read, or a free-band edge given twice, would each be silently ignored
IGNORED_KEYS = {
    "scenario-and-model": (SCENARIO_INI, "[run]\n", "[model]\nv_max = 0.05\n\n[run]\n",
                           "unknown [model] key 'v_max'"),
    "scenario-and-datum": (SCENARIO_INI, "[run]\n", "[datum]\nkind = inline\n\n[run]\n",
                           "unknown [datum] key 'kind'"),
    "scenario-n_min": (SCENARIO_INI, "x2 = -7\n", "x2 = -7\nn_min = 5\n",
                       "unknown [scenario] key 'n_min'"),
    **{f"inline-{key}": (CONSTANT_INI, "kind = inline\n", f"kind = inline\n{key} = {value}\n",
                         f"unknown [datum] key {key!r}")
       for key, value in (("jumps", "7"), ("x_lo", "5"), ("x_hi", "3"))},
    **{f"random-{key}": (RANDOM_INI, "jumps = 8\n", f"jumps = 8\n{key} = {value}\n",
                         f"unknown [datum] key {key!r}")
       for key, value in (("breaks", "0.0"), ("states", "vacuum"))},
    "misspelt-run": (FLAT_INI, "[run]\n", "[Run]\n", "unknown [Run] key 'n'"),
    "R_f_prime-and-W_c": (FLAT_INI, "V_c = 0.02\n", "V_c = 0.02\nW_c = 0.9\n",
                          "[model] keys 'r_f_prime' and 'w_c' set the same free-band edge"),
    "R_f_second-and-W_max": (FLAT_INI, "V_c = 0.02\n", "V_c = 0.02\nW_max = 0.9\n",
                             "[model] keys 'r_f_second' and 'w_max' set the same "
                             "free-band edge"),
}


@pytest.mark.parametrize("case", list(IGNORED_KEYS))
@pytest.mark.parametrize("command", ["run", "ladder"])
def test_every_ignored_config_shape_exit_2(tmp_path, capsys, case, command):
    # the config is read whole before a command looks at its shape, so
    # both commands reject it with the same message
    text, old, new, message = IGNORED_KEYS[case]
    assert text.count(old) == 1
    cfgf = tmp_path / "i.ini"
    cfgf.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, str(cfgf), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not out.exists()


def test_model_run_without_t_end_ends_at_100(tmp_path):
    cfgf = tmp_path / "r.ini"
    cfgf.write_text(RANDOM_INI.replace("t_end = 60\n", ""))
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["t_end"] == 100.0


def _with_value(text, section, key, value):
    """text with `key = value` in [section], in place of the key's line if
    the section has one (keys match case-insensitively, as configparser's)."""
    lines = text.splitlines(keepends=True)
    start = lines.index(f"[{section}]\n") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    at = [i for i in range(start, end) if lines[i].partition("=")[0].strip().lower() == key]
    if at:
        lines[at[0]] = f"{key} = {value}\n"
    else:
        lines.insert(start, f"{key} = {value}\n")
    return "".join(lines)


NUMBER_KEYS = [
    *((SCENARIO_INI, "scenario", key) for key in
      ("gamma", "v_max", "w_max", "w_c", "v_c", "x1", "x2")),
    *((RANDOM_INI, "model", key) for key in
      ("v_max", "r", "gamma", "v_ref", "rho_max", "r_f_prime", "w_c", "r_f_second",
       "w_max", "v_c")),
    *((RANDOM_INI, "datum", key) for key in ("jumps", "x_lo", "x_hi")),
    (CONSTANT_INI, "datum", "breaks"),
    (CONSTANT_INI, "datum", "states"),
    *((RANDOM_INI, "run", key) for key in
      ("n", "t_end", "snapshots", "x_points", "x_lo", "x_hi", "k_grid")),
]


@pytest.mark.parametrize("text, section, key", NUMBER_KEYS,
                         ids=[f"{section}-{key}" for _, section, key in NUMBER_KEYS])
def test_unparsable_number_names_its_key_exit_2(tmp_path, capsys, text, section, key):
    # a value that is no number names the key it was given for; a scenario
    # config is read the same way by both commands
    cfgf = tmp_path / "n.ini"
    cfgf.write_text(_with_value(text, section, key, "abc"))
    for command in ("run", "ladder") if section == "scenario" else ("run",):
        out = tmp_path / command
        assert main([command, str(cfgf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: [{section}] {key} = 'abc': "), err
        assert not out.exists()


def test_cli_import_leaves_the_process_pool_out():
    # only `ladder --jobs N` with N > 1 needs the pool; a fresh process
    # that imports the CLI must not pay for its import
    code = "import sys, phasetrack.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def test_constant_datum_without_breaks_profiles_around_0(tmp_path):
    cfgf = tmp_path / "c.ini"
    cfgf.write_text(CONSTANT_INI.replace("breaks = 0.0", "breaks =").replace(
        "congested:0.37,0.01 | congested:0.37,0.01", "congested:0.37,0.01"))
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 0
    header, rows = read_csv(out / "profiles.csv")
    xs = [float(r[header.index("x")]) for r in rows]
    # the window of a datum broken at 0: [-2, V_max t_end + 1]
    assert (min(xs), max(xs)) == (-2.0, 0.05 * 10.0 + 1.0)
    assert {r[header.index("rho")] for r in rows} == {rows[0][header.index("rho")]}


def test_entropy_off_writes_the_same_outputs_without_entropy_csv(tmp_path):
    outs = {}
    for mode in ("on", "off", "no"):
        cfgf = tmp_path / f"{mode}.ini"
        cfgf.write_text(RANDOM_INI.replace("[run]\n", f"[run]\nentropy = {mode}\n"))
        outs[mode] = tmp_path / mode
        assert main(["run", str(cfgf), "--out", str(outs[mode]), "--seed", "7"]) == 0
    assert (outs["on"] / "entropy.csv").exists()
    for mode in ("off", "no"):
        assert not (outs[mode] / "entropy.csv").exists(), mode
        for name in ("fronts.csv", "functionals.csv", "profiles.csv"):
            assert (outs[mode] / name).read_bytes() == (outs["on"] / name).read_bytes(), \
                (mode, name)
    assert len(read_csv(outs["on"] / "fronts.csv")[1]) > 0


def test_random_datum_seed_is_recorded_and_repeats_the_run(tmp_path):
    # the seed actually used, 0 without --seed, goes to metadata.json, and
    # running again with it writes the same fronts
    cfgf = tmp_path / "r.ini"
    cfgf.write_text(RANDOM_INI)
    for args, seed in (([], 0), (["--seed", "7"], 7)):
        first, again = tmp_path / f"first{seed}", tmp_path / f"again{seed}"
        assert main(["run", str(cfgf), "--out", str(first), *args]) == 0
        recorded = json.loads((first / "metadata.json").read_text())["seed"]
        assert recorded == seed
        assert main(["run", str(cfgf), "--out", str(again), "--seed", str(recorded)]) == 0
        assert (again / "fronts.csv").read_bytes() == (first / "fronts.csv").read_bytes()
    assert (tmp_path / "first0" / "fronts.csv").read_bytes() != \
        (tmp_path / "first7" / "fronts.csv").read_bytes()


def _inflate_event_fronts(monkeypatch, cfgf, n):
    """The TV fault of `faults`, for one run of the config at level n."""
    cfg = cli.RunConfig(cfgf)
    mesh = pt.GridMesh(cfg.laws, n)
    n_initial = pt.run(pt.approximate_datum(cfg.datum, mesh), 0.0, mesh).log.waves[0]
    inflate_event_tv(monkeypatch, n_initial)


def test_run_strict_stops_at_a_violation(tmp_path, monkeypatch, capsys):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    _inflate_event_fronts(monkeypatch, cfgf, 5)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out), "--strict"]) == 3
    assert "invariant violation: TV increased by " in capsys.readouterr().err
    assert not (out / "fronts.csv").exists()


def test_run_audit_reports_a_violation_after_writing(tmp_path, monkeypatch, capsys):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    _inflate_event_fronts(monkeypatch, cfgf, 5)
    out = tmp_path / "out"
    assert main(["run", str(cfgf), "--out", str(out)]) == 3
    assert "invariant violation: TV increased by " in capsys.readouterr().err
    for name in ("fronts.csv", "functionals.csv", "metadata.json"):
        assert (out / name).exists()


def test_ladder_audit_counts_violations(tmp_path, monkeypatch, capsys):
    cfgf = tmp_path / "s.ini"
    cfgf.write_text(SCENARIO_INI)
    _inflate_event_fronts(monkeypatch, cfgf, 4)
    out = tmp_path / "lad"
    assert main(["ladder", str(cfgf), "--n-min", "4", "--n-max", "4",
                 "--out", str(out)]) == 3
    assert "invariant violation:" in capsys.readouterr().err
    header, rows = read_csv(out / "ladder.csv")
    assert int(rows[0][header.index("violations")]) > 0
