"""The verdicts: every paper artifact's checks, evaluated on its rows.

Each ``check_<artifact>`` function takes the rows one driver of
:data:`repro.bench.experiments.ARTIFACTS` produced and returns its
:class:`Check` list.  Two kinds of check live side by side:

* a *claim* holds one measured number against the paper's within an absolute
  tolerance -- the headline claims carry the paper section they come from
  (``source``) and form the reproduction contract EXPERIMENTS.md quotes;
* a *shape* is a who-wins / where-the-crossover-falls statement.

Tolerances are wide where the paper's number depends on its 1M-request scale
(FSMem's amortised-GC gap) and tight where the result is analytic
(Tables 1 and 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.analysis.tradeoff import table3, tradeoff_points

#: Table 2 as published (MTTDL in years)
PAPER_TABLE2 = {
    (6, 3): {1: 1.03e9, 10: 9.76e9, 40: 3.89e10, 100: 9.71e10},
    (10, 4): {1: 6.41e8, 10: 5.88e9, 40: 2.34e10, 100: 5.83e10},
    (12, 4): {1: 5.44e8, 10: 4.91e9, 40: 1.95e10, 100: 4.86e10},
    (15, 3): {1: 4.47e8, 10: 3.94e9, 40: 1.56e10, 100: 3.89e10},
}

#: Table 1's full-stripe column as published (units of M)
PAPER_TABLE1 = {"95:5": 1.05, "80:20": 1.2, "70:30": 1.3, "50:50": 1.5}


@dataclass(frozen=True)
class Check:
    """One verdict.  ``paper``/``ours``/``tolerance`` are set for a claim,
    ``source`` only for a headline claim."""

    name: str
    passed: bool
    paper: float | None = None
    ours: float | None = None
    tolerance: float | None = None
    source: str = ""


def claim(name: str, paper: float, ours: float, tolerance: float, source: str = "") -> Check:
    return Check(name, abs(ours - paper) <= tolerance, paper, ours, tolerance, source)


def shape(name: str, passed: bool) -> Check:
    return Check(name, bool(passed))


def render_checks(checks: list[Check], title: str) -> str:
    rows = [
        [c.name]
        + (["", "", ""] if c.paper is None
           else [f"{c.paper:g}", f"{c.ours:.2f}", f"±{c.tolerance:g}"])
        + ["PASS" if c.passed else "FAIL", c.source]
        for c in checks
    ]
    return format_table(["check", "paper", "ours", "tol", "verdict", "source"], rows,
                        title=title)


def _getter(rows: list[dict], *keys: str, field: str):
    """``get(*key, field=field)``: ``field`` of the row whose ``keys``
    columns equal ``key``."""
    index = {tuple(row[k] for k in keys): row for row in rows}
    return lambda *key, field=field: index[key][field]


def _cells(rows: list[dict], *keys: str) -> list[tuple]:
    """The distinct ``keys`` tuples of ``rows``, in row order."""
    return list(dict.fromkeys(tuple(row[k] for k in keys) for row in rows))


# ------------------------------------------------------------ Tables 1 and 2


def check_tab1(rows: list[dict]) -> list[Check]:
    trace = {row["ratio"]: row["trace"] for row in rows}
    return [
        shape("trace (1M objects) within 0.02 M of the paper, every ratio",
              all(abs(trace[ratio] - paper) < 0.02 for ratio, paper in PAPER_TABLE1.items())),
        shape("in-place stays at M, every ratio", all(row["in_place"] == 1.0 for row in rows)),
        claim("Table 1: full-stripe memory at 50:50 (xM)", 1.5, trace["50:50"], 0.02,
              "§2.3 Table 1"),
    ]


def check_tab2(rows: list[dict]) -> list[Check]:
    years = _getter(rows, "k", "r", "bandwidth_gbps", field="mttdl_years")
    return [
        shape("every cell within 1% of the paper",
              all(abs(years(k, r, b) - paper) <= 0.01 * paper
                  for (k, r), cells in PAPER_TABLE2.items() for b, paper in cells.items())),
        claim("Table 2: MTTDL of (6,3) at B=1 Gb/s (1e9 years)", 1.03,
              years(6, 3, 1) / 1e9, 0.02, "§3.1 Table 2"),
        claim("Table 2: MTTDL of (12,4) at B=40 Gb/s (1e10 years)", 1.95,
              years(12, 4, 40) / 1e10, 0.04, "§3.1 Table 2"),
    ]


# ------------------------------------------------------------------ Figure 3


def check_fig3(rows: list[dict]) -> list[Check]:
    def share_single(k, ratio):
        hist = {row["new_chunks"]: row["stripes"] for row in rows
                if row["k"] == k and row["ratio"] == ratio}
        return hist.get(1, 0) / sum(hist.values())

    codes = [k for k, _ in _cells(rows, "k", "r")]
    return [
        shape("95:5: over 75% of updated stripes have one new chunk, every code",
              all(share_single(k, "95:5") > 0.75 for k in codes)),
        shape("multi-chunk stripes gain share from 95:5 to 50:50, every code",
              all(1 - share_single(k, "50:50") > 1 - share_single(k, "95:5") for k in codes)),
    ]


# ----------------------------------------------------------------- Figure 10


def check_fig10(rows: list[dict]) -> list[Check]:
    read, write, degraded, tput = (
        _getter(rows, "store", "value_size", "ratio", field=field)
        for field in ("read_latency_us", "write_latency_us", "degraded_latency_us",
                      "throughput_kops")
    )
    stores = [s for (s,) in _cells(rows, "store")]
    ec = ("ipmem", "fsmem", "logecmem")
    cells = _cells(rows, "value_size", "ratio")

    def every(predicate) -> bool:
        return all(predicate(*cell) for cell in cells)

    def spread(get, among, *cell):
        values = [get(s, *cell) for s in among]
        return max(values) / min(values)

    return [
        shape("reads within 20% across all stores, every cell",
              every(lambda *c: spread(read, stores, *c) < 1.2)),
        shape("writes: replication > logecmem > vanilla, every cell",
              every(lambda *c: write("replication", *c) > write("logecmem", *c)
                    > write("vanilla", *c))),
        shape("writes: vanilla <= every other store, every cell",
              every(lambda *c: write("vanilla", *c) <= min(write(s, *c) for s in stores
                                                            if s != "vanilla"))),
        shape("degraded: replication < every EC store, every cell",
              every(lambda *c: degraded("replication", *c) < min(degraded(s, *c) for s in ec))),
        shape("degraded: EC stores within 25% of each other, every cell",
              every(lambda *c: spread(degraded, ec, *c) < 1.25)),
        shape("degraded: ipmem within 20% of logecmem, every cell",
              every(lambda *c: abs(degraded("ipmem", *c) - degraded("logecmem", *c))
                    / degraded("logecmem", *c) < 0.2)),
        shape("degraded: vanilla has none (n/a), every cell",
              every(lambda *c: math.isnan(degraded("vanilla", *c)))),
        shape("throughput: vanilla >= 0.999 x every store, every cell",
              every(lambda *c: tput("vanilla", *c) >= max(tput(s, *c) for s in stores) * 0.999)),
    ]


# ----------------------------------------------------- Figures 11, 12 and 13


def check_fig11(rows: list[dict]) -> list[Check]:
    get = _getter(rows, "store", "k", "ratio", field="update_latency_us")
    ks = [k for k, _ in _cells(rows, "k", "r")]
    ratios = [q for (q,) in _cells(rows, "ratio")]

    def reduction(hi, lo, k, ratio):
        return (get(hi, k, ratio) - get(lo, k, ratio)) / get(hi, k, ratio) * 100

    return [
        shape("logecmem < ipmem, every code x ratio",
              all(get("logecmem", k, q) < get("ipmem", k, q) for k in ks for q in ratios)),
        shape("replication < logecmem, every code x ratio",
              all(get("replication", k, q) < get("logecmem", k, q) for k in ks for q in ratios)),
        shape("replication fastest at 95:5, every code",
              all(get("replication", k, "95:5")
                  < min(get(s, k, "95:5") for s in ("ipmem", "fsmem", "logecmem")) for k in ks)),
        shape("fsmem > logecmem at 95:5, every code",
              all(get("fsmem", k, "95:5") > get("logecmem", k, "95:5") for k in ks)),
        shape("fsmem < logecmem at 50:50, k <= 10",
              all(get("fsmem", k, "50:50") < get("logecmem", k, "50:50") for k in ks if k <= 10)),
        shape("IPMem reduction r=4 > r=3 at 70:30",
              reduction("ipmem", "logecmem", 10, "70:30")
              > reduction("ipmem", "logecmem", 6, "70:30")),
        shape("IPMem reduction r=4 > r=3 at 95:5",
              reduction("ipmem", "logecmem", 10, "95:5")
              > reduction("ipmem", "logecmem", 6, "95:5")),
        claim("LogECMem vs IPMem update reduction, r=3 @70:30 (%)", 32.7,
              reduction("ipmem", "logecmem", 6, "70:30"), 6.0, "§6.3 Exp 2"),
        claim("LogECMem vs IPMem update reduction, r=4 @70:30 (%)", 37.8,
              reduction("ipmem", "logecmem", 10, "70:30"), 4.0, "§6.3 Exp 2"),
        # scale-sensitive: FSMem's amortised GC grows with trace length
        claim("LogECMem vs FSMem update reduction, (6,3) @95:5 (%)", 58.0,
              reduction("fsmem", "logecmem", 6, "95:5"), 30.0, "§6.3 Exp 2"),
    ]


def check_fig12(rows: list[dict]) -> list[Check]:
    cells = _cells(rows, "k", "ratio")
    mem = _getter(rows, "store", "k", "ratio", field="memory_GiB")

    def saving(other, k):
        return (1 - mem("logecmem", k, "50:50") / mem(other, k, "50:50")) * 100

    return [
        shape("logecmem < ipmem, every code x ratio",
              all(mem("logecmem", k, q) < mem("ipmem", k, q) for k, q in cells)),
        shape("logecmem < fsmem, every code x ratio",
              all(mem("logecmem", k, q) < mem("fsmem", k, q) for k, q in cells)),
        shape("replication > fsmem, every code x ratio",
              all(mem("replication", k, q) > mem("fsmem", k, q) for k, q in cells)),
        claim("(6,3) @95:5: 4-way replication GiB", 16, mem("replication", 6, "95:5"), 1.6),
        claim("(6,3) @95:5: IPMem GiB", 6, mem("ipmem", 6, "95:5"), 0.6),
        claim("(6,3) @95:5: LogECMem GiB", 4.7, mem("logecmem", 6, "95:5"), 0.47),
        claim("Memory saving vs IPMem, (6,3) (%)", 22.2, saving("ipmem", 6), 3.0,
              "§6.3 Exp 3"),
        claim("Memory saving vs FSMem, (6,3) @50:50 (%)", 49.0, saving("fsmem", 6), 6.0,
              "§6.3 Exp 3"),
        claim("Memory saving vs 5-way replication, (12,4) (%)", 79.3,
              saving("replication", 12), 3.0, "§6.3 Exp 3"),
    ]


def check_fig13(rows: list[dict]) -> list[Check]:
    get = _getter(rows, "store", "k", "ratio", field="update_latency_us")
    ks = [k for k, _ in _cells(rows, "k", "r")]
    cells = _cells(rows, "k", "ratio")
    stores = [s for (s,) in _cells(rows, "store")]
    lec = [get("logecmem", k, "95:5") for k in ks]
    return [
        shape("logecmem < ipmem, every code x ratio",
              all(get("logecmem", k, q) < get("ipmem", k, q) for k, q in cells)),
        shape("logecmem has the lowest memory, every code x ratio",
              all(get("logecmem", k, q, field="memory_GiB")
                  == min(get(s, k, q, field="memory_GiB") for s in stores) for k, q in cells)),
        shape("fsmem > logecmem at 70:30, every code",
              all(get("fsmem", k, "70:30") > get("logecmem", k, "70:30") for k in ks)),
        shape("logecmem flat in k at 95:5 (max/min < 1.1)", max(lec) / min(lec) < 1.1),
        shape("fsmem at 95:5: k=128 > 2 x k=16",
              get("fsmem", ks[-1], "95:5") > 2 * get("fsmem", ks[0], "95:5")),
        shape("fsmem > 1.5 x logecmem at (16,4) 95:5",
              get("fsmem", 16, "95:5") > 1.5 * get("logecmem", 16, "95:5")),
    ]


# ----------------------------------------------------------------- Figure 14


def check_fig14ab(rows: list[dict]) -> list[Check]:
    ios = _getter(rows, "scheme", "k", "ratio", field="disk_ios")
    space = _getter(rows, "scheme", "k", "ratio", field="log_disk_MiB")
    ratios = [q for k, q in _cells(rows, "k", "ratio") if k == 10]
    ks = [k for k, q in _cells(rows, "k", "ratio") if q == "95:5"]
    return [
        shape("log disk footprint: pl >= plr at (10,4), every ratio",
              all(space("pl", 10, q) >= space("plr", 10, q) for q in ratios)),
        shape("log disk footprint: plm <= plr at (10,4), every ratio",
              all(space("plm", 10, q) <= space("plr", 10, q) for q in ratios)),
        shape("pl < 0.2 x plm IOs at 95:5, every code",
              all(ios("pl", k, "95:5") < 0.2 * ios("plm", k, "95:5") for k in ks)),
        shape("plm <= plr-m <= plr IOs at 95:5, every code",
              all(ios("plm", k, "95:5") <= ios("plr-m", k, "95:5") <= ios("plr", k, "95:5")
                  for k in ks)),
        shape("plr IOs at (10,4): every ratio >= 95:5",
              all(ios("plr", 10, q) >= ios("plr", 10, "95:5") for q in ratios[1:])),
        shape("PLM vs PLR IO cut at (15,3) 95:5 > 10% (paper 23.7%)",
              1 - ios("plm", 15, "95:5") / ios("plr", 15, "95:5") > 0.1),
        shape("pl < plm < plr-m < plr IOs at (6,3) 50:50",
              ios("pl", 6, "50:50") < ios("plm", 6, "50:50") < ios("plr-m", 6, "50:50")
              < ios("plr", 6, "50:50")),
        shape("plr IOs at (6,3): 50:50 > 95:5", ios("plr", 6, "50:50") > ios("plr", 6, "95:5")),
    ]


def check_fig14cd(rows: list[dict]) -> list[Check]:
    get = _getter(rows, "scheme", "k", "ratio", field="degraded_latency_us")
    ratios = [q for k, q in _cells(rows, "k", "ratio") if k == 10]

    def improvement(k, ratio):
        return 1 - get("plm", k, ratio) / get("pl", k, ratio)

    return [
        shape("pl > plr at (10,4), every ratio",
              all(get("pl", 10, q) > get("plr", 10, q) for q in ratios)),
        shape("plm <= 1.02 x plr at (10,4), every ratio",
              all(get("plm", 10, q) <= get("plr", 10, q) * 1.02 for q in ratios)),
        shape("pl/plm gap at (10,4): 50:50 > 95:5",
              get("pl", 10, "50:50") / get("plm", 10, "50:50")
              > get("pl", 10, "95:5") / get("plm", 10, "95:5")),
        shape("PLM vs PL improvement at 95:5: k=6 > k=15 > 0",
              improvement(6, "95:5") > improvement(15, "95:5") > 0),
        shape("(6,3) 50:50: pl slower than plr and plm, plm <= 1.01 x plr",
              get("pl", 6, "50:50") > get("plr", 6, "50:50")
              and get("pl", 6, "50:50") > get("plm", 6, "50:50")
              and get("plm", 6, "50:50") <= get("plr", 6, "50:50") * 1.01),
        # delta density per hot stripe is scale-sensitive
        claim("PLM vs PL degraded-read reduction @50:50 (%)", 35.9,
              improvement(6, "50:50") * 100, 20.0, "§6.3 Exp 6"),
    ]


# ----------------------------------------------------------------- Figure 15


def check_fig15(rows: list[dict]) -> list[Check]:
    ks = [k for k, _ in _cells(rows, "k", "r")]

    tput = _getter(rows, "k", "log_assist", field="throughput_GiB_per_min")

    def gain(k):
        return tput(k, True) / tput(k, False) - 1

    by_k = sorted(ks)
    gains = [gain(k) for k in by_k]
    plains = [tput(k, False) for k in by_k]
    return [
        shape("log-assist beats plain repair, every code",
              all(tput(k, True) > tput(k, False) for k in ks)),
        shape("log-assisted stripes > 0, every code",
              all(tput(k, True, field="assisted_stripes") > 0 for k in ks)),
        shape("gain non-increasing in k", gains == sorted(gains, reverse=True)),
        shape("best gain in (10%, 30%) (paper: up to 18.2%)", 0.10 < max(gains) < 0.30),
        shape("plain throughput non-increasing in k",
              plains == sorted(plains, reverse=True)),
        shape("gain: (6,3) > (12,4) > 0", gain(6) > gain(12) > 0),
        shape("(6,3) gain in (10%, 30%)", 0.10 < gain(6) < 0.30),
        claim("Log-assist node-repair gain, (6,3) (%)", 18.2, gain(6) * 100, 5.0,
              "§6.3 Exp 7"),
    ]


# ----------------------------------------------------------------- Figure 16


def check_fig16(rows: list[dict]) -> list[Check]:
    cells = table3(rows)
    points = tradeoff_points(rows)

    def spread(store, k):
        lat = [p.update_latency_us for p in points if p.store == store and p.k == k]
        return max(lat) / min(lat)

    ks = [k for k, _ in _cells(rows, "k", "r")]
    return [
        shape("Table 3 (6, 95:5): logecmem best (best)",
              cells[(6, "95:5")]["logecmem"] == "best (best)"),
        shape("Table 3 (6, 95:5): ipmem low (low)", cells[(6, "95:5")]["ipmem"] == "low (low)"),
        shape("Table 3 (6, 95:5): fsmem high (high)",
              cells[(6, "95:5")]["fsmem"] == "high (high)"),
        shape("Table 3 (6, 50:50): fsmem best latency",
              cells[(6, "50:50")]["fsmem"].startswith("best")),
        shape("Table 3 (6, 50:50): logecmem best memory",
              cells[(6, "50:50")]["logecmem"].endswith("(best)")),
        shape("Table 3 (16, 80:20): logecmem best (best)",
              cells[(16, "80:20")]["logecmem"] == "best (best)"),
        shape("Table 3 (32, 80:20): logecmem best (best)",
              cells[(32, "80:20")]["logecmem"] == "best (best)"),
        shape("Table 3: logecmem best memory, every cell",
              all(cell["logecmem"].endswith("(best)") for cell in cells.values())),
        shape("logecmem latency flat across ratios (max/min < 1.1), every code",
              all(spread("logecmem", k) < 1.1 for k in ks)),
        shape("fsmem latency varies across ratios (max/min > 1.5), every code",
              all(spread("fsmem", k) > 1.5 for k in ks)),
    ]


# ---------------------------------------------------------------- extensions


def check_media(rows: list[dict]) -> list[Check]:
    us = _getter(rows, "media", "scheme", field="degraded_us")

    def advantage(media):
        return (us(media, "pl") - us(media, "plm")) / us(media, "pl")

    return [
        shape("nvram < ssd < ebs repair latency, pl and plm",
              all(us("nvram", s) < us("ssd", s) < us("ebs", s) for s in ("pl", "plm"))),
        shape("PLM-over-PL advantage: ebs > ssd > nvram",
              advantage("ebs") > advantage("ssd") > advantage("nvram")),
    ]


def check_adaptive(rows: list[dict]) -> list[Check]:
    ratios = [q for (q,) in _cells(rows, "ratio")]
    deltas = _getter(rows, "ratio", "store", field="deltas")
    ios = _getter(rows, "ratio", "store", field="disk_ios")

    def saving(ratio):
        return 1 - deltas(ratio, "adaptive") / deltas(ratio, "logecmem")

    return [
        shape("scrub clean after every run", all(row["scrub_clean"] for row in rows)),
        shape("adaptive ships fewer deltas, every ratio",
              all(deltas(q, "adaptive") < deltas(q, "logecmem") for q in ratios)),
        shape("adaptive disk IOs <= plain, every ratio",
              all(ios(q, "adaptive") <= ios(q, "logecmem") for q in ratios)),
        shape("saving at 50:50 > 0.9 x saving at 80:20", saving("50:50") > saving("80:20") * 0.9),
    ]


def check_closedloop(rows: list[dict]) -> list[Check]:
    stores = [s for (s,) in _cells(rows, "store")]

    get = _getter(rows, "store", "clients", field="throughput_ops_s")

    serial = [row for row in rows if row["clients"] == 1]
    return [
        shape("C=1 completes every request, every store",
              all(row["jobs_completed"] == row["requests"] for row in serial)),
        shape("C=1 makespan equals the sequential runner (rel 1e-9), every store",
              all(math.isclose(row["makespan_s"], row["sequential_s"], rel_tol=1e-9)
                  for row in serial)),
        shape("throughput C=64 >= C=8, every store",
              all(get(s, 64) >= get(s, 8) for s in stores)),
        shape("C=64: vanilla >= 0.999 x logecmem",
              get("vanilla", 64) >= get("logecmem", 64) * 0.999),
        shape("C=64: logecmem > replication", get("logecmem", 64) > get("replication", 64)),
    ]
