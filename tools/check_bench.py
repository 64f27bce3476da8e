#!/usr/bin/env python3
"""Checks the committed benchmark ledger (BENCH_<lane>.json).

Usage: tools/check_bench.py FILE...

Each FILE is one google-benchmark JSON run of a ledger bench, as written by
tools/run_bench.sh; its lane comes from the context's executable name. The
checker verifies, and prints every value it checks:

  * provenance: no duplicate JSON keys, every file built as `release`, and
    all files share one git sha (not "unknown") and one num_cpus;
  * the host-independent invariants of each lane, with fixed bounds (the
    A3 lane from the median of its repetitions);
  * the deterministic sim-clock and byte-accounting counters, compared
    against PINNED below (exactly, apart from WALL_LEAK).

Wall-clock speed is not judged here: perfbench's alternating parent/change
pairs do that. Exits 1 after listing every failure.
"""
import json
import os
import sys

# Deterministic simulated-clock and byte-accounting counters, pinned
# exactly (WALL_LEAK below is the one exception). A change that moves simulated behaviour edits these values in
# its own diff and regenerates the ledger with tools/run_bench.sh.
PINNED = {
    "BM_PortalOverload/1": {
        "p50_ms": 22.350090285690385, "p99_ms": 26722.06535646009,
        "goodput_per_s": 0.11776353836012246, "shed_rate": 0.1,
        "recomputes": 4.0},
    "BM_PortalOverload/2": {
        "p50_ms": 33.089780771231744, "p99_ms": 26792.673785057665,
        "goodput_per_s": 0.21807044909512194, "shed_rate": 0.16666666666666666,
        "recomputes": 4.0},
    "BM_PortalOverload/5": {
        "p50_ms": 13054.065506875128, "p99_ms": 26829.277498684936,
        "goodput_per_s": 0.3706663348667862, "shed_rate": 0.43333333333333335,
        "recomputes": 4.0},
    "BM_PortalStageInHedging/0": {
        "stage_in_p99_ms": 1012.8197804550703, "staging_wan_bytes": 1935360.0,
        "hedged_fetches": 0.0},
    "BM_PortalStageInHedging/1": {
        "stage_in_p99_ms": 781.9977425852817, "staging_wan_bytes": 2298240.0,
        "hedged_fetches": 18.0},
    "BM_MultiPoolRandom": {
        "makespan_sim_s": 103.94888888888889, "wan_bytes": 41400000000.0},
    "BM_MultiPoolLoadAware": {
        "makespan_sim_s": 101.44888888888889, "wan_bytes": 39000000000.0},
    "BM_MultiPoolLocality": {
        "makespan_sim_s": 40.0, "wan_bytes": 10500000000.0},
    "BM_MultiPoolWorkStealing": {
        "makespan_sim_s": 230.51333333333332, "wan_bytes": 720000000.0,
        "stolen_jobs": 72.0},
}

# The overload sweep calibrates its arrival rate with
# portal::measure_mean_service_ms, which sums PortalTrace::total_ms(), and
# that still adds the wall-clock merge_ms to simulated time. Its latencies
# and goodput therefore move in the 7th significant digit from run to run,
# and are compared to within this relative bound until that is fixed.
WALL_LEAK = {"p50_ms", "p99_ms", "goodput_per_s"}
WALL_LEAK_REL = 1e-3

LANES = {
    "bench_a3_morphology_kernel": "a3",
    "bench_s5_campaign": "s5",
    "bench_survey": "survey",
    "bench_portal": "portal",
    "bench_multipool": "multipool",
}

failures = []


def fail(message):
    failures.append(message)


def load(path):
    """Parses `path` as strict JSON, reporting every duplicate key (the last
    one wins) and every NaN, Infinity or -Infinity token (read as None),
    which Python's json module would otherwise accept."""
    def pairs(items):
        seen = {}
        for key, value in items:
            if key in seen:
                fail(f"{path}: duplicate key {key!r}")
            seen[key] = value
        return seen

    def non_finite(token):
        fail(f"{path}: non-finite number {token} (not strict JSON)")

    with open(path) as f:
        return json.load(f, object_pairs_hook=pairs, parse_constant=non_finite)


def by_name(doc):
    """Each benchmark's run, keyed by name: the median aggregate of a
    repeated benchmark, else its single iteration run. Other aggregates
    (mean, stddev, cv, complexity fits) are dropped."""
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            name = b["run_name"]
        else:
            name = b["name"]
        # Drop run-option suffixes ("/iterations:1") so names stay stable if
        # iteration pinning changes.
        runs["/".join(p for p in name.split("/") if ":" not in p)] = b
    return runs


def need(runs, *names):
    missing = [n for n in names if n not in runs]
    for n in missing:
        fail(f"{n}: missing from the run")
    return not missing


# The legacy rotate-and-copy asymmetry path allocates its rotated frame on
# every call; it is kept only as the baseline BM_StageAsymmetry is read
# against.
A3_ALLOCATING = {"BM_StageAsymmetryRotateCopy"}


def check_a3(runs):
    if not need(runs, "BM_FitsDecodePixels/64"):
        return
    for name, r in runs.items():
        if r.get("aggregate_name") != "median":
            fail(f"{name}: no median aggregate (run A3 with repetitions)")
        allocs = r.get("heap_allocs_per_iter")
        if allocs is None or name in A3_ALLOCATING:
            continue
        print(f"{name}: heap_allocs_per_iter = {allocs:g} (need 0)")
        if allocs != 0:
            fail(f"{name}: heap_allocs_per_iter = {allocs:g}, expected 0")


def check_s5(runs):
    for name in ("BM_VotableSerialize/512", "BM_VotableParse/512"):
        if need(runs, name):
            allocs = runs[name].get("heap_allocs_per_iter", -1)
            print(f"{name}: heap_allocs_per_iter = {allocs:g} (need 0)")
            if allocs != 0:
                fail(f"{name}: heap_allocs_per_iter = {allocs}, expected 0")
    if need(runs, "BM_PipelineOverlap/5"):
        o = runs["BM_PipelineOverlap/5"]
        serial = o["brownout_fetch_sim_seconds"] - o["clean_fetch_sim_seconds"]
        pipelined = o["brownout_sim_seconds"] - o["clean_sim_seconds"]
        print(f"brownout absorption: {o['absorption']:.2f}x (need >= 5x; "
              f"serial fetch bill +{serial:.2f} s, pipelined end-to-end "
              f"+{pipelined:.2f} s simulated)")
        if o["absorption"] < 5.0:
            fail(f"BM_PipelineOverlap/5: absorption {o['absorption']:.2f}x < 5x")


def check_survey(runs):
    if not need(runs, "BM_SurveyStreaming/20000", "BM_SurveyStreaming/100000",
                "BM_CampaignBaseline", "BM_SurveyMergeSteadyState/256"):
        return
    small = runs["BM_SurveyStreaming/20000"]
    survey = runs["BM_SurveyStreaming/100000"]
    campaign = runs["BM_CampaignBaseline"]
    multiple = survey["items_per_second"] / campaign["items_per_second"]
    print(f"survey at 10^5: {survey['items_per_second']:.0f} gal/s = "
          f"{multiple:.1f}x the campaign's {campaign['items_per_second']:.0f} "
          "gal/s (need >= 3x)")
    if multiple < 3.0:
        fail(f"survey throughput {multiple:.2f}x the campaign, need >= 3x")
    rss_small = small.get("vm_rss_end_kb", 0)
    rss_large = survey.get("vm_rss_end_kb", 0)
    if rss_small <= 0 or rss_large <= 0:
        print("survey RSS: procfs unavailable, check skipped")
    else:
        print(f"survey RSS: {rss_small:.0f} kB at 2x10^4 -> {rss_large:.0f} kB "
              "at 10^5 (need < 2x)")
        if rss_large >= 2.0 * rss_small:
            fail(f"survey RSS not flat: {rss_large:.0f} kB >= 2x {rss_small:.0f} kB")
    inner = runs["BM_SurveyMergeSteadyState/256"].get("merge_inner_allocs", -1)
    print(f"merge_inner_allocs = {inner:g} (need 0)")
    if inner != 0:
        fail(f"merge inner loop allocates: merge_inner_allocs = {inner}")


def check_portal(runs):
    points = [f"BM_PortalOverload/{x}" for x in (1, 2, 5)]
    if not need(runs, *points, "BM_PortalStageInHedging/0",
                "BM_PortalStageInHedging/1"):
        return
    print(f"{'overload':<22} {'p50_ms':>10} {'p99_ms':>10} {'goodput/s':>10} "
          f"{'shed%':>6} {'recomputes':>10} {'attain%':>8} {'expired':>7}")
    for name in points:
        r = runs[name]
        print(f"{name:<22} {r['p50_ms']:>10.1f} {r['p99_ms']:>10.1f} "
              f"{r['goodput_per_s']:>10.3f} {100 * r['shed_rate']:>6.1f} "
              f"{r['recomputes']:>4.0f} / {r['requests']:<3.0f} "
              f"{100 * r['deadline_attainment']:>8.1f} {r['expired']:>7.0f}")
        if r["recomputes"] >= r["requests"]:
            fail(f"{name}: memoization inert, {r['recomputes']:.0f} recomputes "
                 f"for {r['requests']:.0f} requests")
    if runs["BM_PortalOverload/5"]["shed_rate"] <= 0.0:
        fail("BM_PortalOverload/5: no load shed at 5x overload")
    # At 1x the budgets are generous multiples of the service time, so an
    # expiry means the plumbing is eating latency; bursty arrivals still
    # shed a few requests, which count against attainment, hence 80%.
    nominal = runs["BM_PortalOverload/1"]
    if nominal["deadlines_assigned"] > 0:
        if nominal["expired"] > 0:
            fail(f"BM_PortalOverload/1: {nominal['expired']:.0f} requests "
                 "expired at nominal load")
        if nominal["deadline_attainment"] < 0.80:
            fail("BM_PortalOverload/1: deadline attainment "
                 f"{100 * nominal['deadline_attainment']:.1f}% < 80%")

    # Hedging must cut the stage-in p99 on the identical workload, and the
    # extra WAN bytes stay within the hedged share of fetches (a hedge moves
    # at most one duplicate payload).
    off = runs["BM_PortalStageInHedging/0"]
    on = runs["BM_PortalStageInHedging/1"]
    inflation = on["staging_wan_bytes"] / off["staging_wan_bytes"] - 1.0
    print(f"stage-in p99: {off['stage_in_p99_ms']:.1f} ms unhedged -> "
          f"{on['stage_in_p99_ms']:.1f} ms hedged ({on['hedge_wins']:.0f}/"
          f"{on['hedged_fetches']:.0f} wins); WAN inflation "
          f"{100 * inflation:.2f}% (need <= hedge rate "
          f"{100 * on['hedge_rate']:.2f}%)")
    if (on["images_fetched"], on["clusters"]) != (off["images_fetched"],
                                                  off["clusters"]):
        fail("BM_PortalStageInHedging: variants did not run the same workload")
    if on["hedged_fetches"] <= 0:
        fail("BM_PortalStageInHedging/1: hedging never fired")
    if on["stage_in_p99_ms"] >= off["stage_in_p99_ms"]:
        fail("hedging did not improve the stage-in p99")
    if inflation > on["hedge_rate"] + 1e-9:
        fail(f"hedging inflated WAN bytes by {100 * inflation:.2f}%, more "
             f"than the {100 * on['hedge_rate']:.2f}% hedge rate")


def check_multipool(runs):
    policies = ("BM_MultiPoolRandom", "BM_MultiPoolLoadAware",
                "BM_MultiPoolLocality", "BM_MultiPoolWorkStealing")
    if not need(runs, *policies):
        return
    print(f"{'policy':<26} {'makespan (sim s)':>16} {'wan_bytes':>14}")
    for name in policies:
        print(f"{name:<26} {runs[name]['makespan_sim_s']:>16.1f} "
              f"{runs[name]['wan_bytes']:>14.0f}")
    rand, loc = runs["BM_MultiPoolRandom"], runs["BM_MultiPoolLocality"]
    print(f"locality vs random: {rand['makespan_sim_s'] - loc['makespan_sim_s']:.1f} "
          f"sim s faster, {rand['wan_bytes'] - loc['wan_bytes']:.0f} fewer WAN bytes")
    if loc["makespan_sim_s"] >= rand["makespan_sim_s"]:
        fail("locality does not beat random on makespan "
             f"({loc['makespan_sim_s']:.1f} vs {rand['makespan_sim_s']:.1f} sim s)")
    if loc["wan_bytes"] >= rand["wan_bytes"]:
        fail("locality does not beat random on WAN bytes "
             f"({loc['wan_bytes']:.0f} vs {rand['wan_bytes']:.0f})")
    steal = runs["BM_MultiPoolWorkStealing"]
    print(f"work stealing: {steal['stolen_jobs']:.0f} jobs migrated, "
          f"{steal['makespan_nosteal_s']:.1f} -> {steal['makespan_sim_s']:.1f} sim s")
    if steal["stolen_jobs"] <= 0:
        fail("work stealing never fired")
    if steal["makespan_sim_s"] >= steal["makespan_nosteal_s"]:
        fail("work stealing did not improve the pinned-pool makespan")


def check_pinned(runs):
    for name, counters in PINNED.items():
        if name not in runs:
            continue
        for counter, want in counters.items():
            got = runs[name].get(counter)
            rel = WALL_LEAK_REL if (name.startswith("BM_PortalOverload/")
                                    and counter in WALL_LEAK) else 0.0
            ok = got is not None and abs(got - want) <= rel * abs(want)
            bound = f" (within {rel:g})" if rel else ""
            print(f"pinned {name} {counter} = {got!r}{bound}"
                  + ("" if ok else f"  MISMATCH, pinned {want!r}"))
            if not ok:
                fail(f"{name}: {counter} = {got!r}, pinned {want!r}{bound}")


CHECKS = {"a3": check_a3, "s5": check_s5, "survey": check_survey, "portal": check_portal,
          "multipool": check_multipool}


def main(paths):
    if not paths:
        sys.exit(__doc__.strip().splitlines()[2])
    shas, cpus = set(), set()
    for path in paths:
        doc = load(path)
        ctx = doc.get("context", {})
        exe = os.path.basename(ctx.get("executable", ""))
        lane = LANES.get(exe)
        print(f"=== {path}: lane {lane}, git_sha {ctx.get('git_sha')}, "
              f"build_type {ctx.get('build_type')}, num_cpus {ctx.get('num_cpus')}")
        if lane is None:
            fail(f"{path}: {exe!r} is not a ledger bench")
            continue
        if ctx.get("build_type") != "release":
            fail(f"{path}: build_type {ctx.get('build_type')!r}, need 'release'")
        if ctx.get("git_sha") in (None, "", "unknown"):
            fail(f"{path}: no git_sha recorded")
        shas.add(ctx.get("git_sha"))
        cpus.add(ctx.get("num_cpus"))
        runs = by_name(doc)
        if lane in CHECKS:
            CHECKS[lane](runs)
        check_pinned(runs)
    if len(shas) > 1:
        fail(f"files come from {len(shas)} commits: {sorted(map(str, shas))}")
    if len(cpus) > 1:
        fail(f"files record different num_cpus: {sorted(map(str, cpus))}")
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: {len(paths)} ledger file(s), one release build, every "
          "invariant and pinned counter holds")


if __name__ == "__main__":
    main(sys.argv[1:])
