#!/usr/bin/env python3
"""Run every verification suite over the bundled fixtures.

Thin driver over the CLI: each line below is a (subcommand, bundle, extra
args, expected exit code) tuple.  Prints one PASS/FAIL line per suite, ending
in its wall time, and a summary line with the total time; exits nonzero if
any suite deviates from its expectation.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from rcwb.cli import _family_bound, main as cli_main  # noqa: E402

SUITES = [
    # positive fixtures
    (["check-laws", "finset_p_2"], 0),
    (["check-laws", "finset_p_1"], 0),
    (["build-par", "finset_inj_2"], 0),
    (["karoubi", "finset_p_2"], 0),
    (["geometric", "finset_inj_2"], 0),
    (["topology", "finset_inj_2"], 0),
    (["sheaf-check", "finset_inj_2", "yset2"], 0),
    (["sheafify", "finset_inj_2", "yset1"], 0),
    (["transfer", "finset_inj_2", "yset2", "--direction", "to-jrp"], 0),
    (["transfer", "finset_inj_2", "yset2", "--direction", "to-sheaf"], 0),
    (["roundtrip", "finset_inj_2", "yset1"], 0),
    (["unit", "finset_p_2"], 0),
    # size-3 fixtures: guard the cocone, sieve and matching-family searches
    # against a return to brute force
    (["topology", "finset_inj_3"], 0),
    (["geometric", "finset_inj_3"], 0),
    (["sheafify", "finset_inj_3", "yset1"], 0),
    (["sheaf-check", "finset_inj_3", "yset3"], 0),
    (["roundtrip", "finset_inj_3", "yset1"], 0),
    # guards sheaf_to_jrp, jrp_to_sheaf and the recipe join at size 3
    (["transfer", "finset_inj_3", "yset3", "--direction", "to-jrp"], 0),
    (["transfer", "finset_inj_3", "yset3", "--direction", "to-sheaf"], 0),
    # guards the hom-set join kernel against a return to linear scans
    (["check-laws", "finset_p_3"], 0),
    # guards karoubi_r, subcategory (through mtotal) and par at size 3
    (["unit", "finset_p_3"], 0),
    # guards the restriction-axiom check on the 796-map Karoubi envelope
    (["karoubi", "finset_p_3"], 0),
    # size 4: guards the M-system gate's pullback transport and the
    # pullback-stability pass of the geometric check
    (["geometric", "finset_inj_4"], 0),
    # size 4: guards the join-test covers and the SUBCAN certificate against
    # a return to the saturation loop and the per-representable sheaf scan
    (["topology", "finset_inj_4"], 0),
    # size 4: guards the amalgamation formula's covering antichains against
    # a return to listing every covering family of Sub_M(set4)
    (["transfer", "finset_inj_4", "yset1", "--direction", "to-sheaf"], 0),
    # size 4: guards the comparison maps against a return to iso search
    (["roundtrip", "finset_inj_4", "yset1"], 0),
    # M = the isos: pins the transferred action byte for byte (through the
    # --out artifact) and its round trip on a Par whose spans are all total
    (["transfer", "finset_iso_3", "yset3", "--direction", "to-jrp"], 0),
    (["roundtrip", "finset_iso_3", "yset3"], 0),
    # the unit's transfer on a base other than FinSet_p
    (["unit", "nojoin"], 0),
    # refused at once: a fixture too large to build exits 2 before any
    # table is made
    (["check-laws", "finset_p_9"], 2),
    # negative controls: these are supposed to fail with exit code 1
    (["check-laws", "nojoin"], 1),
    (["geometric", "finset_iso_2"], 1),
    # size 3: the colimit of the empty family, the empty set, maps into each
    # non-empty set by a map outside M (GEO-MU)
    (["geometric", "finset_iso_3"], 1),
]


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-family", type=_family_bound, default=3,
                        help="cap on family sizes in the join/cover scans")
    args = parser.parse_args(argv)

    failures = 0
    total = 0.0
    for cmd, expected in SUITES:
        start = time.perf_counter()
        code = cli_main(cmd + ["--max-family", str(args.max_family)])
        seconds = time.perf_counter() - start
        total += seconds
        ok = code == expected
        failures += not ok
        verdict = "PASS" if ok else "FAIL"
        note = f"(exit {code}, expected {expected})"
        print(f"{verdict}\t{' '.join(cmd)}\t{note}\t{seconds:.2f} s")
    print(f"{len(SUITES) - failures}/{len(SUITES)} suites as expected "
          f"in {total:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
