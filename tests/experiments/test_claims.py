"""The paper check: each ✓ in EXPERIMENTS.md is a predicate on ``results/``.

Every ✓ in EXPERIMENTS.md is followed by a claim id (✓ `fig7-voice`).
Each id names one predicate below: a function of the same name that
reads the committed ``results/*.txt`` (written by
``scripts/run_experiments.py``) and asserts the measured sentence the ✓
stands for, no looser.  A number quoted in the sentence must be what the
file's value rounds to; a bound must hold as written.  A regenerated
file that breaks a sentence fails here, and so does a ✓ added to
EXPERIMENTS.md without a predicate.
"""

import re
import statistics
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TARGET = 0.01  # P_HD,target
LOADS = (60.0, 100.0, 150.0, 200.0, 250.0, 300.0)
RATIOS = ("1", "0.8", "0.5")
SCHEMES = ("AC1", "AC2", "AC3")
TAGGED = re.compile(r"✓ `([a-z0-9-]+)`")


def _cell(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


@cache
def parse(name: str) -> tuple[dict, list[str]]:
    """``results/<name>.txt`` as ``({block: (headers, rows)}, notes)``.

    A block is a ``[name]`` line, a header, a dashed rule whose runs fix
    the column spans, and rows up to the next blank line; a cell that
    reads as a number is a float.
    """
    path = ROOT / "results" / f"{name}.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    blocks, notes = {}, []
    for index, line in enumerate(lines):
        if line.startswith("note: "):
            notes.append(line[len("note: "):])
        elif line.startswith("[") and line.endswith("]"):
            rule = lines[index + 2]
            starts = [run.start() for run in re.finditer("-+", rule)]
            bounds = list(zip(starts, starts[1:] + [None]))

            def cells(text: str) -> list:
                return [_cell(text[a:b].strip()) for a, b in bounds]

            rows = []
            for row in lines[index + 3:]:
                if not row:
                    break
                rows.append(cells(row))
            blocks[line[1:-1]] = (cells(lines[index + 1]), rows)
    return blocks, notes


def series(name: str, block: str) -> dict[float, float]:
    """An x–y block of ``results/<name>.txt`` as ``{x: y}``."""
    return {x: y for x, y in parse(name)[0][block][1]}


def table(name: str, block: str) -> dict[object, dict[str, object]]:
    """A table block as ``{first cell: {header: cell}}``."""
    headers, rows = parse(name)[0][block]
    return {row[0]: dict(zip(headers, row)) for row in rows}


def notes(name: str) -> str:
    return "\n".join(parse(name)[1])


def reads(value: float, quoted: str) -> bool:
    """Whether ``value`` rounds to ``quoted`` at the precision it is
    quoted in; a quoted 0 means exactly 0."""
    if float(quoted) == 0.0:
        return value == 0.0
    mantissa, _, exponent = quoted.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    half_unit = 0.5 * 10.0 ** (int(exponent or 0) - decimals)
    return abs(value - float(quoted)) < half_unit


def spans(values, low: str, high: str) -> bool:
    """Whether min and max of ``values`` read ``low`` and ``high``."""
    values = list(values)
    return reads(min(values), low) and reads(max(values), high)


def rising(points: dict[float, float]) -> bool:
    """Whether y rises with every step of x."""
    ys = [y for _x, y in sorted(points.items())]
    return all(a < b for a, b in zip(ys, ys[1:]))


def crossing(points: dict[float, float], below: float, above: float) -> bool:
    """Whether y meets the target up to x = ``below`` and misses it from
    the next grid point ``above`` on."""
    xs = sorted(points)
    return (
        xs.index(above) == xs.index(below) + 1
        and all(y <= TARGET for x, y in points.items() if x <= below)
        and all(y > TARGET for x, y in points.items() if x >= above)
    )


CLAIMS = {}


def claim(predicate):
    """Register ``predicate`` under its name, ``_`` read as ``-``."""
    CLAIMS[predicate.__name__.replace("_", "-")] = predicate
    return predicate


@claim
def fig7_voice():
    high, low = series("fig7", "PHD Rvo=1"), series("fig7b", "PHD Rvo=1")
    assert rising(high) and high[60] == 0 and reads(high[300], "5.9e-3")
    assert reads(max(low.values()), "2.0e-3") and max(low, key=low.get) == 300


@claim
def fig7_video():
    assert reads(max(series("fig7", "PHD Rvo=0.5").values()), "4.2e-2")
    assert reads(max(series("fig7b", "PHD Rvo=0.5").values()), "3.5e-2")


@claim
def fig7_mixed():
    assert max(series("fig7b", "PHD Rvo=0.8").values()) <= 1.0e-2
    high = series("fig7", "PHD Rvo=0.8")
    assert reads(high[150], "1.1e-2") and reads(high[300], "2.0e-2")
    assert rising({x: y for x, y in high.items() if x >= 150})


@claim
def fig7_crossover():
    high = series("fig7", "PHD Rvo=0.8")
    assert crossing(high, 100, 150)
    assert reads(high[100], "3.7e-3") and reads(high[150], "1.08e-2")


@claim
def fig7_blocking():
    for name in ("fig7", "fig7b"):
        for ratio in RATIOS:
            assert rising(series(name, f"PCB Rvo={ratio}")), (name, ratio)
    pcb = series("fig7", "PCB Rvo=1")
    assert reads(pcb[60], "2.0e-4") and reads(pcb[300], "0.678")


@claim
def fig8_target():
    phd = {
        (mobility, ratio, load): value
        for name, mobility in (("fig8", "high"), ("fig8b", "low"))
        for ratio in RATIOS
        for load, value in series(name, f"PHD Rvo={ratio}").items()
    }
    over = {key: value for key, value in phd.items() if value > TARGET}
    assert len(phd) == 36 and len(phd) - len(over) == 31
    quoted = ("1.13e-2", "1.17e-2", "1.29e-2", "1.27e-2", "1.16e-2")
    assert sorted(over) == [("low", "0.5", load) for load in LOADS[1:]]
    low_video = [over["low", "0.5", load] for load in LOADS[1:]]
    assert all(map(reads, low_video, quoted))
    assert reads(max(phd.values()), "1.29e-2")


@claim
def fig8_gap():
    pcb = [series("fig8", f"PCB Rvo={ratio}") for ratio in RATIOS]
    phd = [series("fig8", f"PHD Rvo={ratio}") for ratio in RATIOS]
    assert spans((points[60] for points in pcb), "0", "3.2e-3")
    assert spans((points[60] for points in phd), "0", "8.9e-4")
    assert spans((points[300] for points in pcb), "0.672", "0.695")
    assert spans((points[300] for points in phd), "5.8e-3", "8.4e-3")


@claim
def fig9_monotone():
    br = series("fig9", "Br Rvo=1")
    assert reads(br[60], "1.7")
    assert rising({x: y for x, y in br.items() if x <= 150})
    quoted = ("7.2", "7.0", "8.4", "8.1")
    assert all(reads(br[x], q) for x, q in zip(LOADS[2:], quoted))


@claim
def fig9_video():
    quoted = ("8.1", "11.5", "15.1")
    for ratio, q in zip(RATIOS, quoted):
        assert reads(series("fig9", f"Br Rvo={ratio}")[300], q), ratio


@claim
def fig9_mobility():
    assert reads(series("fig9", "Br Rvo=1")[300], "8.1")
    assert reads(series("fig9b", "Br Rvo=1")[300], "5.4")


@claim
def fig9_used():
    br = {ratio: series("fig9", f"Br Rvo={ratio}") for ratio in RATIOS}
    bu = {ratio: series("fig9", f"Bu Rvo={ratio}") for ratio in RATIOS}
    assert reads(bu["1"][300], "85.1") and reads(bu["0.5"][300], "75.9")
    sums = {(r, x): br[r][x] + bu[r][x] for r in RATIOS for x in LOADS}
    assert spans((sums[ratio, 300.0] for ratio in RATIOS), "91.0", "93.1")
    assert all(total < 100 for total in sums.values())


@claim
def fig10_test():
    for cell, top, rises, falls in (("5", 7, 6, 15), ("6", 6, 6, 13)):
        t_est = list(series("fig10", f"Test cell<{cell}>").values())
        steps = list(zip(t_est, t_est[1:]))
        assert len(t_est) == 67 and (min(t_est), max(t_est)) == (1, top)
        assert sum(b > a for a, b in steps) == rises, cell
        assert sum(b < a for a, b in steps) == falls, cell


@claim
def fig10_br():
    for cell, low, high, rho in (
        ("5", "1.3", "22.4", "0.96"), ("6", "1.4", "24.7", "0.88")
    ):
        br = series("fig10", f"Br cell<{cell}>")
        t_est = series("fig10", f"Test cell<{cell}>")
        assert list(br) == list(t_est) and spans(br.values(), low, high)
        rho_measured = statistics.correlation(
            list(t_est.values()), list(br.values())
        )
        assert reads(rho_measured, rho), cell


@claim
def fig11_settle():
    final = dict(re.findall(r"cell<(\d)>=([\d.]+)", notes("fig11")))
    for cell, peak, last in (
        ("5", "1.02e-2", "4.8e-3"), ("6", "1.75e-2", "6.9e-3")
    ):
        phd = series("fig11", f"PHD cell<{cell}>")
        over = [t for t, value in phd.items() if value > TARGET]
        assert over and max(over) < 600 and reads(max(phd.values()), peak)
        assert reads(float(final[cell]), last), cell


@claim
def fig12_pcb():
    for name, quoted in (
        ("fig12a", ("0.672", "0.7005", "0.694")),
        ("fig12b", ("0.6605", "0.692", "0.685")),
    ):
        pcb = [series(name, f"PCB {scheme}")[300] for scheme in SCHEMES]
        assert all(map(reads, pcb, quoted)), name
        assert pcb[0] < min(pcb[1:]) and abs(pcb[1] - pcb[2]) < 0.01


@claim
def fig12_bounded():
    for scheme, quoted in (("AC2", "9.2e-3"), ("AC3", "8.7e-3")):
        worst = max(
            value
            for name in ("fig12a", "fig12b")
            for value in series(name, f"PHD {scheme}").values()
        )
        assert reads(worst, quoted) and worst <= TARGET, scheme


@claim
def fig12_ac1_violates():
    for name, at_150, at_300, below, above in (
        ("fig12a", "6.5e-3", "1.43e-2", 200, 250),
        ("fig12b", "9.0e-3", "1.59e-2", 150, 200),
    ):
        phd = series(name, "PHD AC1")
        assert reads(phd[150], at_150) and reads(phd[300], at_300), name
        assert crossing(phd, below, above), name
    phd = series("fig12a", "PHD AC1")
    assert reads(phd[200], "9.0e-3") and reads(phd[250], "1.14e-2")


@claim
def fig12_ac1_bounded():
    for name, quoted in (("fig12a", "1.4e-2"), ("fig12b", "1.6e-2")):
        phd = series(name, "PHD AC1")
        assert reads(phd[300], quoted) and max(phd.values()) <= 0.02, name


@claim
def fig13_ac1():
    for name in ("fig13a", "fig13b"):
        assert set(series(name, "Ncalc AC1").values()) == {1.0}, name


@claim
def fig13_ac2():
    for name in ("fig13a", "fig13b"):
        assert set(series(name, "Ncalc AC2").values()) == {3.0}, name


@claim
def fig13_ac3_low():
    for name, quoted in (("fig13a", "1.086"), ("fig13b", "1.065")):
        ncalc = series(name, "Ncalc AC3")
        assert ncalc[60] == 1 and reads(ncalc[100], quoted) and rising(ncalc)


@claim
def fig13_ac3_bound():
    for name, quoted in (("fig13a", "1.46"), ("fig13b", "1.41")):
        ncalc = series(name, "Ncalc AC3")
        assert reads(max(ncalc.values()), quoted) and max(ncalc.values()) < 1.5
    high = series("fig13a", "Ncalc AC3")
    assert max(high, key=high.get) == 300


@claim
def table2_phd():
    ac1, ac3 = ([row["PHD"] for row in table("table2", f"({s})").values()]
                for s in ("AC1", "AC3"))  # fmt: skip
    assert len(ac1) == len(ac3) == 10
    assert sum(phd > TARGET for phd in ac1) == 5 and reads(max(ac1), "3.5e-2")
    assert max(ac3) <= TARGET and reads(max(ac3), "7.1e-3")


@claim
def table2_pcb():
    ac1 = {cell: row["PCB"] for cell, row in table("table2", "(AC1)").items()}
    odd = [pcb for cell, pcb in ac1.items() if cell % 2]
    even = [pcb for cell, pcb in ac1.items() if not cell % 2]
    assert spans(odd, "0.89", "0.97") and spans(even, "0.28", "0.56")
    assert min(odd) > max(even)
    ac3 = [row["PCB"] for row in table("table2", "(AC3)").values()]
    assert spans(ac3, "0.56", "0.80")
    assert reads(statistics.pstdev(ac1.values()), "0.29")
    assert reads(statistics.pstdev(ac3), "0.077")


@claim
def table2_test():
    ac1 = table("table2", "(AC1)")
    starved = [row for cell, row in ac1.items() if cell % 2]
    assert all(reads(row["Test"], "45") for row in starved)
    assert spans((row["Br"] for row in starved), "87", "97")
    ac3 = [row["Test"] for row in table("table2", "(AC3)").values()]
    assert (min(ac3), max(ac3)) == (1, 8)


@claim
def table3_first_cell():
    ac1, ac3 = (table("table3", f"({s})")[1] for s in ("AC1", "AC3"))
    assert ac1["PCB"] == ac1["PHD"] == ac3["PHD"] == 0
    assert reads(ac3["PCB"], "0.044")


@claim
def table3_ac1_starve():
    ac1 = table("table3", "(AC1)")
    trio = [ac1[cell] for cell in (3, 5, 7)]
    assert spans((row["PCB"] for row in trio), "0.83", "0.96")
    assert spans((row["PHD"] for row in trio), "1.2e-2", "2.4e-2")
    assert reads(ac1[10]["PCB"], "0.96") and reads(ac1[10]["PHD"], "3.0e-2")
    assert reads(ac1[9]["PHD"], "1.26e-2") and reads(ac1[9]["PCB"], "0.50")
    assert {cell for cell, row in ac1.items() if row["PHD"] > TARGET} == {
        3, 5, 7, 9, 10
    }


@claim
def table3_ac3():
    ac3 = table("table3", "(AC3)")
    assert max(row["PHD"] for row in ac3.values()) <= 7.3e-3
    downstream = [row["PCB"] for cell, row in ac3.items() if cell >= 2]
    assert spans(downstream, "0.53", "0.77")


@claim
def fig14_offpeak():
    for scheme in SCHEMES:
        for metric in ("PCB", "PHD"):
            points = series("fig14", f"{metric} {scheme}")
            night = [value for hour, value in points.items() if hour % 24 < 7]
            assert len(night) == 14 and set(night) == {0.0}, (metric, scheme)


@claim
def fig14_peak_phd():
    for scheme, quoted in zip(SCHEMES, ("9.6e-3", "1.07e-2", "1.15e-2")):
        points = series("fig14", f"PHD {scheme}")
        assert reads(max(points.values()), quoted), scheme
        over = [hour // 24 for hour, value in points.items() if value > TARGET]
        assert over == ([] if scheme == "AC1" else [0.0, 1.0]), scheme


@claim
def fig14_pcb():
    peak = {s: max(series("fig14", f"PCB {s}").values()) for s in SCHEMES}
    assert all(map(reads, peak.values(), ("0.807", "0.819", "0.819")))
    assert peak["AC1"] < min(peak["AC2"], peak["AC3"])
    overall = dict(re.findall(r"(AC\d): overall PCB=([\d.]+)", notes("fig14")))
    quoted = ("0.565", "0.588", "0.587")
    assert all(reads(float(overall[s]), q) for s, q in zip(SCHEMES, quoted))


@claim
def fig14_retry():
    peak = {s: max(series("fig14", f"La {s}").values()) for s in SCHEMES}
    original = max(series("fig14", "profile Lo").values())
    assert original == 180
    assert min(peak, key=peak.get) == "AC1"
    assert max(peak, key=peak.get) == "AC2"
    assert reads(peak["AC1"], "473") and reads(peak["AC2"], "497")
    assert reads(peak["AC1"] / original, "2.6")
    assert reads(peak["AC2"] / original, "2.8")


@claim
def ablation_window_steps():
    rows = table("ablation-window-steps", "step policies")
    quoted = {
        "unit": ("0.692", "6.4e-3", "1.5", 5),
        "additive": ("0.704", "5.3e-3", "3.7", 11),
        "multiplicative": ("0.740", "3.8e-3", "2.6", 8),
    }
    assert set(rows) == set(quoted)
    for policy, (pcb, phd, spread, peak) in quoted.items():
        row = rows[policy]
        assert reads(row["PCB"], pcb) and reads(row["PHD"], phd), policy
        assert row["PHD"] <= TARGET and reads(row["std Test"], spread), policy
        assert row["max Test"] == peak, policy


@claim
def ablation_estimator_depth():
    rows = table("ablation-estimator-depth", "history depth")
    assert set(rows) == {5, 25, 100, 400}
    assert spans((row["PHD"] for row in rows.values()), "8.2e-3", "9.5e-3")
    assert spans((row["avg Br"] for row in rows.values()), "12.2", "13.6")


@claim
def ablation_signaling():
    rows = table("ablation-signaling", "signaling")
    assert set(rows) == set(SCHEMES)
    for scheme, quoted in zip(SCHEMES, ("4.0", "12.0", "5.3")):
        row = rows[scheme]
        logical = row["logical msgs/test"]
        assert reads(logical, quoted), scheme
        assert row["hops/test (full mesh)"] == logical, scheme
        assert abs(row["hops/test (star)"] - 2 * logical) < 0.01, scheme


@claim
def ablation_hex2d():
    rows = table("ablation-hex2d", "hex grid")
    assert reads(rows["AC3"]["PHD"], "9.7e-3") and rows["AC3"]["PHD"] <= TARGET
    assert reads(rows["AC3"]["Ncalc"], "1.315")
    assert rows["static"]["Ncalc"] == 0


@claim
def ablation_wired():
    rows = table("ablation-wired", "wired")
    radio = rows["radio only"]
    best = rows["best-effort backbone"]
    predictive = rows["predictive backbone"]
    assert reads(radio["PCB"], "0.555") and reads(best["PCB"], "0.654")
    assert best["wired blocks"] == 8145
    assert best["PHD"] == predictive["PHD"] == 0
    assert reads(best["reroutes"] / 1000, "13")
    assert reads(predictive["reroutes"] / 1000, "13")
    assert reads(predictive["max util"], "0.97")
    assert reads(best["max util"], "0.998")


@claim
def ablation_cdma():
    rows = table("ablation-cdma", "cdma")
    hard = rows["hard hand-off"]
    assert reads(hard["PHD"], "3.6e-2")
    quoted = {
        "soft capacity +10%": "6.5e-3", "soft hand-off 5s": "5.4e-3",
        "both": "6.6e-4",
    }  # fmt: skip
    assert set(rows) == {"hard hand-off", *quoted}
    assert all(reads(rows[name]["PHD"], q) for name, q in quoted.items())
    cost = [100 * (rows[name]["PCB"] - hard["PCB"]) for name in quoted]
    assert spans(cost, "5", "6")


@claim
def comparison_ns():
    rows = table("comparison-ns", "comparison")
    ac3, tuned = rows["AC3 (adaptive)"], rows["NS T=5s"]
    assert reads(ac3["PHD"], "6.3e-3") and reads(tuned["PHD"], "8.5e-3")
    assert max(ac3["PHD"], tuned["PHD"]) <= TARGET
    assert reads(ac3["PCB"], "0.595") and reads(tuned["PCB"], "0.577")
    assert rows["NS T=10s"]["PHD"] > TARGET
    assert reads(rows["NS T=10s"]["PHD"], "1.4e-2")
    assert reads(rows["NS T=20s"]["PHD"], "0.149")
    assert reads(ac3["calcs/test"], "1.4")
    ns = [row for name, row in rows.items() if name.startswith("NS")]
    assert ns and all(reads(row["calcs/test"], "2.3") for row in ns)


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_claim(claim_id):
    CLAIMS[claim_id]()


def test_every_check_mark_has_a_predicate():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    tagged = TAGGED.findall(text)
    assert text.count("✓") == len(tagged), "a ✓ without a claim id"
    assert sorted(tagged) == sorted(CLAIMS)


def test_reads_is_exact_to_the_quoted_digit():
    assert reads(5.94e-3, "5.9e-3") and not reads(5.96e-3, "5.9e-3")
    assert reads(0.6936, "0.694") and not reads(0.695, "0.70")
    assert reads(0.0, "0") and not reads(1e-9, "0")
    assert reads(473.1, "473") and not reads(473.6, "473")
