#!/usr/bin/env python3
"""Self-test of bench/e2e/compare.py's verdict rules on synthetic runs.

    python3 scripts/compare_selftest.py

Each case writes a parent and a change run directory of hand-made
pc_bench_e2e results, plus a BENCHMARK-shaped file with one lower-is-better
and one higher-is-better metric, into a temporary directory, runs
compare.py on them, and checks its verdicts, claims and exit status.
Exits 0 when every case holds, 1 otherwise. Needs only the standard library.
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "bench", "e2e", "compare.py")
WORKLOAD = "w"
BENCHMARK = {
    "workloads": [{"name": WORKLOAD}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "rps", "unit": "req/s", "better": "higher", "bound": 0.25},
    ],
}
CLAIMS = ["--claim", WORKLOAD + ":lat_ms", "--claim", WORKLOAD + ":rps"]

# Ten parent latencies: median 10.45, quartiles 10.175..10.725 (IQR 0.55,
# IQR/median ~0.05, inside the 0.25 bound).
PARENT_LAT = [10.0 + 0.1 * i for i in range(10)]


def run(lat, rps=None, seed=None, valid=True, failed=0):
    """One result: `lat` ms and `rps` req/s (1000 / lat unless given)."""
    return {"workload": WORKLOAD, "seed": seed, "valid": valid,
            "attempted": 100, "failed": failed,
            "metrics": {"lat_ms": {"value": lat},
                        "rps": {"value": rps if rps is not None
                                else 1000.0 / lat}}}


def write_side(directory, runs):
    for i, r in enumerate(runs):
        sub = os.path.join(directory, "run%d" % i)
        os.makedirs(sub)
        with open(os.path.join(sub, WORKLOAD + ".json"), "w") as f:
            json.dump(r, f)


def compare(parent_runs, change_runs):
    """compare.py's exit status and output (stdout + stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        bench = os.path.join(tmp, "BENCHMARK.json")
        with open(bench, "w") as f:
            json.dump(BENCHMARK, f)
        write_side(os.path.join(tmp, "parent"), parent_runs)
        write_side(os.path.join(tmp, "change"), change_runs)
        done = subprocess.run(
            [sys.executable, COMPARE, os.path.join(tmp, "parent"),
             os.path.join(tmp, "change"), "--benchmark", bench] + CLAIMS,
            capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr


def verdict(out, metric):
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == metric:
            return fields[-2]
    return None


def claim(out, metric):
    prefix = "claim %s:%s: " % (WORKLOAD, metric)
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]  # "met" or "NOT"
    return None


def sides(parent_lat, change_lat, **change_kw):
    """Runs at seeds 1..n, both sides valid unless change_kw says so."""
    parent = [run(v, seed=s + 1) for s, v in enumerate(parent_lat)]
    change = [run(v, seed=s + 1, **change_kw)
              for s, v in enumerate(change_lat)]
    return parent, change


def case_improved():
    # 10 pairs, 10/10 wins, a 2 ms gap against a 0.55 ms parent IQR; rps,
    # higher-is-better, improves with it.
    code, out = compare(*sides(PARENT_LAT, [v - 2.0 for v in PARENT_LAT]))
    assert code == 0, out
    assert verdict(out, "lat_ms") == "improved", out
    assert verdict(out, "rps") == "improved", out
    assert claim(out, "lat_ms") == "met", out
    assert claim(out, "rps") == "met", out


def case_nine_pairs():
    # The same wins over only 9 pairs are not enough.
    code, out = compare(*sides(PARENT_LAT[:9],
                               [v - 2.0 for v in PARENT_LAT[:9]]))
    assert code == 0, out
    assert verdict(out, "lat_ms") == "unchanged", out
    assert claim(out, "lat_ms") == "NOT", out


def case_eight_of_ten_wins():
    change = [v - 2.0 for v in PARENT_LAT]
    change[0] = PARENT_LAT[0] + 0.05
    change[5] = PARENT_LAT[5] + 0.05
    code, out = compare(*sides(PARENT_LAT, change))
    assert code == 0, out
    assert verdict(out, "lat_ms") == "unchanged", out
    assert claim(out, "lat_ms") == "NOT", out


def case_gap_within_iqr():
    # 10/10 wins, but the 0.1 ms gap is narrower than the parent's IQR.
    code, out = compare(*sides(PARENT_LAT, [v - 0.1 for v in PARENT_LAT]))
    assert code == 0, out
    assert verdict(out, "lat_ms") == "unchanged", out
    assert claim(out, "lat_ms") == "NOT", out


def case_regressed():
    # Median 50% worse, past the 25% bound; rps falls with it.
    code, out = compare(*sides(PARENT_LAT, [v * 1.5 for v in PARENT_LAT]))
    assert code == 1, out
    assert verdict(out, "lat_ms") == "regressed", out
    assert verdict(out, "rps") == "regressed", out


def case_unresolved():
    # The parent's IQR/median is ~0.9 > 0.25, and the change, though its
    # median is lower, does not read better than every parent run.
    parent = [5.0, 6.0, 7.0, 8.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0]
    code, out = compare(*sides(parent, [v - 0.5 for v in parent]))
    assert code == 0, out
    assert verdict(out, "lat_ms") == "unresolved", out
    assert claim(out, "lat_ms") == "NOT", out


def case_failed_share_rises():
    # Every metric improves, but more requests fail: exit 1, claim not met.
    code, out = compare(*sides(PARENT_LAT, [v - 2.0 for v in PARENT_LAT],
                               failed=5))
    assert code == 1, out
    assert "more requests failed" in out, out
    assert verdict(out, "lat_ms") == "improved", out
    assert claim(out, "lat_ms") == "NOT", out


def case_invalid_run_left_out():
    # 9 of 10 valid pairs win (enough); an 11th seed, whose change run lost
    # but is marked invalid, would drop the share to 9/11 if it were paired.
    change_lat = [v - 2.0 for v in PARENT_LAT]
    change_lat[3] = PARENT_LAT[3] + 0.05
    parent, change = sides(PARENT_LAT, change_lat)
    parent.append(run(10.5, seed=11))
    change.append(run(30.0, seed=11, valid=False))
    code, out = compare(parent, change)
    assert code == 0, out
    assert "10 seed pairs (left out, unmatched or invalid: 1)" in out, out
    assert verdict(out, "lat_ms") == "improved", out


def case_repeated_seed():
    parent, change = sides(PARENT_LAT, PARENT_LAT)
    parent.append(run(10.0, seed=1))
    code, out = compare(parent, change)
    assert code == 2, out
    assert "appears twice" in out, out


CASES = [case_improved, case_nine_pairs, case_eight_of_ten_wins,
         case_gap_within_iqr, case_regressed, case_unresolved,
         case_failed_share_rises, case_invalid_run_left_out,
         case_repeated_seed]


def main():
    failures = 0
    for case in CASES:
        try:
            case()
            print("ok    %s" % case.__name__)
        except AssertionError as e:
            failures += 1
            print("FAIL  %s\n%s" % (case.__name__, e))
    print("%d of %d cases hold" % (len(CASES) - failures, len(CASES)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
