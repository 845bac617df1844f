"""Workloads of the time-to-verdict benchmark: job lists, seeded menus and
the bundles a pass generates.

A job is one rcwb CLI command.  An argument "@name" stands for a bundle that
the pass generates and writes into its work directory before timing starts.
Stdout is compared with each such path replaced by "@name" again, so the
pinned lines do not depend on where the checkout lives.

A seed picks one entry from each menu of its workload and permutes the job
order.  Every menu entry has pinned expected output (see pin.py).
"""

from __future__ import annotations

import os
import random

WORKLOADS = {
    # joins and restriction axioms take ~95% of self time; no colimits or
    # sieves.  Shows the poset kernel with memoised joins, not colimit or
    # sieve work.
    "laws": {
        "jobs": [
            ("check-laws", "finset_p_3", "--max-family", "2"),
            ("check-laws", "finset_p_2"),
            ("check-laws", "nojoin"),
            ("check-laws", "@par_inj2_{rp}"),
            ("karoubi", "finset_p_3"),
        ],
        "menus": {"rp": ("yset1", "yset2")},
    },
    # cocone search under matching colimits takes ~88%, sieves ~8%, joins 0.
    "spans": {
        "jobs": [
            ("geometric", "finset_inj_3", "--max-family", "3"),
            ("geometric", "finset_iso_3"),
            ("build-par", "finset_inj_3"),
            ("unit", "finset_p_2"),
            ("topology", "@inj3_all"),
        ],
        "menus": {},
    },
    # sieve enumeration takes ~97%; the size-2 commands expose fixed
    # per-command costs.
    "sites": {
        "jobs": [
            ("topology", "@inj3_iso_{const}"),
            ("sheaf-check", "@inj3_iso_{const}", "yset3"),
            ("sheafify", "@inj3_iso_{const}", "{const}"),
            ("transfer", "@inj3_iso_{const}", "yset3", "--direction", "to-jrp"),
            ("transfer", "@inj3_iso_{const}", "yset3",
             "--direction", "to-sheaf"),
            ("roundtrip", "@inj3_iso_{const}", "yset3"),
            ("topology", "finset_inj_2", "--max-family", "3"),
            ("sheaf-check", "finset_inj_2", "yset2", "--max-family", "3"),
            ("sheafify", "finset_inj_2", "yset1", "--max-family", "3"),
            ("transfer", "finset_inj_2", "yset2", "--direction", "to-jrp",
             "--max-family", "3"),
            ("transfer", "finset_inj_2", "yset2", "--direction", "to-sheaf",
             "--max-family", "3"),
            ("roundtrip", "finset_inj_2", "yset1", "--max-family", "3"),
            ("unit", "finset_p_2", "--max-family", "3"),
        ],
        "menus": {"const": ("const2", "const3")},
    },
    # Size <= 2 only, for the benchmark's own tests; not in BENCHMARK.json.
    "small": {
        "jobs": [
            ("check-laws", "finset_p_2"),
            ("check-laws", "nojoin"),
            ("check-laws", "@par_inj2_{rp}"),
            ("geometric", "finset_iso_2"),
            ("topology", "finset_inj_2"),
            ("sheafify", "finset_inj_2", "yset1"),
            ("unit", "finset_p_2"),
        ],
        "menus": {"rp": ("yset1", "yset2")},
    },
}


def menu_choices(workload):
    """Every combination of menu entries, as dicts menu -> entry."""
    combos = [{}]
    for menu, entries in sorted(WORKLOADS[workload]["menus"].items()):
        combos = [dict(c, **{menu: e}) for c in combos for e in entries]
    return combos


def expand(workload, choice):
    """The job list with the menu placeholders filled in, in listed order."""
    return [tuple(arg.format(**choice) for arg in job)
            for job in WORKLOADS[workload]["jobs"]]


def jobs(workload, seed):
    """The seeded job list: one entry per menu, then a permutation."""
    rng = random.Random(seed)
    spec = WORKLOADS[workload]
    choice = {menu: rng.choice(entries)
              for menu, entries in sorted(spec["menus"].items())}
    out = expand(workload, choice)
    rng.shuffle(out)
    return out


def job_key(job):
    return " ".join(job)


def bundle_names(job_list):
    return sorted({arg[1:] for job in job_list for arg in job
                   if arg.startswith("@")})


# -- generated bundles ------------------------------------------------------

def _par_inj2(rep):
    """Par(finset_inj_2) carrying the transfer of the representable `rep` as
    a restriction presheaf with element bars: check-laws then runs the RP
    and JRP element joins on top of the hom-set joins."""
    from rcwb.bridge import sheaf_to_jrp
    from rcwb.bundles import bundle_dict
    from rcwb.fixtures import build_finset_mcat
    from rcwb.mcat import par
    from rcwb.site import yoneda
    mc = build_finset_mcat(2, "inj")
    pc = par(mc)
    tr = sheaf_to_jrp(pc, yoneda(mc.base, mc.base.obj_names.index(rep[1:])))
    return bundle_dict(pc.rc.base, restriction=pc.rc.bar,
                       presheaves={rep: (tr.rp.presheaf, tr.rp.bar_elem)})


def _inj3(monics, const=None):
    """The 24-map subcategory of FinSet<=3 whose maps are the injections,
    with every map ("all") or the permutations ("iso") as M.  into(set3) has
    16 maps, so a site command closes 2^16 generator sets there."""
    from rcwb.bundles import bundle_dict
    from rcwb.fincat import subcategory
    from rcwb.fixtures import build_finset_data
    from rcwb.site import constant_presheaf
    data = build_finset_data(3)
    c = data.cat
    keep = [f for f in c.morphisms()
            if len(set(data.graphs[f])) == len(data.graphs[f])]
    cat = subcategory(c, c.objects, keep).cat
    if monics == "all":
        m = list(cat.morphisms())
    else:
        m = sorted(cat.isos())
    presheaves = None
    if const is not None:
        presheaves = {const: (constant_presheaf(cat, int(const[5:])), None)}
    return bundle_dict(cat, monics=m, presheaves=presheaves)


BUNDLES = {
    "par_inj2_yset1": lambda: _par_inj2("yset1"),
    "par_inj2_yset2": lambda: _par_inj2("yset2"),
    "inj3_all": lambda: _inj3("all"),
    "inj3_iso_const2": lambda: _inj3("iso", "const2"),
    "inj3_iso_const3": lambda: _inj3("iso", "const3"),
}


def write_bundles(names, workdir):
    """Generate and write the named bundles; returns name -> path."""
    from rcwb.bundles import dump_bundle
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_bundle(BUNDLES[name]()))
        paths[name] = path
    return paths


def resolve(job, paths):
    """The argv for rcwb.cli.main, with "@name" replaced by its path."""
    return [paths[arg[1:]] if arg.startswith("@") else arg for arg in job]


def normalise(lines, paths):
    """Replace each generated bundle path in the output by its "@name"."""
    out = []
    for line in lines:
        for name, path in paths.items():
            line = line.replace(path, "@" + name)
        out.append(line)
    return out
