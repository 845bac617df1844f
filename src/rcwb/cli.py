"""Command line entry point.

Every subcommand takes a bundle (a registered fixture name or a JSON file),
prints sorted law-report lines, writes a machine-readable JSON summary when
--out is given, and exits 0 on success, 1 on a law failure or a failed
precondition, 2 on an unreadable bundle or an --out file that cannot be
written (after the report lines are printed), 3 on an internal invariant
breach.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bridge import (amalgamation_formula_report, cocompletion_unit,
                     jrp_to_sheaf, roundtrip_report, sheaf_to_jrp,
                     transfer_report)
from .bundles import (Bundle, BundleError, bundle_dict, dump_bundle,
                      resolve_bundle)
from .fincat import validate_category
from .joins import check_join_axioms
from .mcat import check_m_system, is_geometric, karoubi_r, par
from .reports import InternalInvariantError, LawReport
from .restriction import check_restriction_axioms
from .rpsh import RestrictionPresheaf, rp_reports, yoneda_jr
from .site import (check_presheaf, generate_topology, is_sheaf,
                   saturation_is_fixpoint, sheaf_reports, sheafify,
                   subcanonical_report, yoneda)


def _family_bound(text):
    """A --max-family value: a non-negative int in ASCII digits.  A negative
    bound would admit no family at all, not even the empty one, and every
    scan would pass vacuously; int() would also read other decimal digits,
    such as '٣' or '３', as 3."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _parser():
    """The argument parser, built on the first main call and shared by
    every later one in the process: parse_args returns a fresh Namespace
    each time and keeps no state on the parser, so the shared parser must
    never be mutated (no add_argument or set_defaults after it is built)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-family", type=_family_bound, default=None,
                        help="bound on the size of families in join suites")
    common.add_argument("--out", default=None,
                        help="path for the machine-readable JSON summary")
    top = argparse.ArgumentParser(
        prog="rcwb",
        description="Law checking and constructions for finite restriction "
                    "categories, span categories and sheaf transfers.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, extra in (
            ("check-laws", ()),
            ("build-par", ()),
            ("karoubi", ()),
            ("geometric", ()),
            ("topology", ()),
            ("sheaf-check", ("presheaf",)),
            ("sheafify", ("presheaf",)),
            ("transfer", ("presheaf",)),
            ("roundtrip", ("presheaf",)),
            ("unit", ())):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("bundle")
        for arg in extra:
            p.add_argument(arg)
        if name == "transfer":
            p.add_argument("--direction", choices=("to-jrp", "to-sheaf"),
                           required=True)
    return top


def _gate(bundle: Bundle, cmd):
    """The precondition of a construction: the category laws of the bundle
    when they fail, else the law report of the section it builds on (the
    restriction for karoubi and unit, the monics for the others), or None
    for check-laws.  A missing section is a bundle error."""
    if cmd == "check-laws":
        return None
    category = validate_category(bundle.cat)
    if not category.ok:
        return category
    if cmd in ("karoubi", "unit"):
        if bundle.restriction is None:
            raise BundleError("$: this command needs a restriction section")
        return check_restriction_axioms(bundle.restriction)
    if bundle.mcat is None:
        raise BundleError("$: this command needs a monics section")
    return check_m_system(bundle.mcat)


def _presheaf_report(name, psh) -> LawReport:
    rep = LawReport(f"presheaf:{name}")
    if not check_presheaf(psh):
        rep.add("PSH", (), "not a presheaf")
    return rep


def _resolve_presheaf(bundle: Bundle, name):
    """A named presheaf from the bundle, or the representable for
    y<object> / <object>."""
    if name in bundle.presheaves:
        return bundle.presheaves[name][0]
    obj = _object_named(bundle.cat, name)
    if obj is None:
        raise BundleError(
            f"$.presheaves: no presheaf or object named {name!r}")
    return yoneda(bundle.cat, obj)


def _object_names(name):
    """The names that name may give an object by: name, then name less a
    leading y (y<object>)."""
    return (name, name[1:]) if name.startswith("y") else (name,)


def _object_named(cat, name):
    """The object that name gives (see _object_names), or None."""
    return next((cat.obj_names.index(cand) for cand in _object_names(name)
                 if cand in cat.obj_names), None)


def _run(args) -> list:
    """Returns the list of LawReports and the extra --out keys, each with a
    function that formats its value; main calls them only for --out."""
    bundle = resolve_bundle(args.bundle)
    reports = []
    extra = {}
    cmd = args.command
    gate = _gate(bundle, cmd)
    if gate is not None and not gate.ok:
        return [gate], extra
    if cmd in ("sheaf-check", "sheafify") or (
            cmd == "transfer" and args.direction == "to-jrp"):
        psh = _resolve_presheaf(bundle, args.presheaf)
        # a representable is a presheaf by construction; a bundle's is gated
        if args.presheaf in bundle.presheaves:
            psh_gate = _presheaf_report(args.presheaf, psh)
            if not psh_gate.ok:
                return [psh_gate], extra
    elif cmd == "transfer":
        obj = _object_named(bundle.cat, args.presheaf)
        if obj is None:
            raise BundleError(
                f"$: to-sheaf expects a representable y<object>; "
                f"no object named {_object_names(args.presheaf)[-1]!r}")

    if cmd == "check-laws":
        reports.append(validate_category(bundle.cat))
        # the join laws and the presheaves' RP reports read a lawful bar
        restriction_ok = False
        if bundle.restriction is not None:
            reports.append(check_restriction_axioms(bundle.restriction))
            restriction_ok = reports[-1].ok
            if restriction_ok:
                reports.append(check_join_axioms(bundle.restriction,
                                                 args.max_family))
        if bundle.mcat is not None:
            reports.append(check_m_system(bundle.mcat))
        for name, (psh, bars) in sorted(bundle.presheaves.items()):
            reports.append(_presheaf_report(name, psh))
            if bars is not None and restriction_ok:
                reports.extend(rp_reports(
                    RestrictionPresheaf(bundle.restriction, psh, bars),
                    args.max_family))

    elif cmd == "build-par":
        pc = par(bundle.mcat)
        reports.append(pc.axioms)
        extra["artifact"] = lambda: bundle_dict(pc.rc.base,
                                                restriction=pc.rc.bar)

    elif cmd == "karoubi":
        kr = karoubi_r(bundle.restriction)
        reports.append(check_restriction_axioms(kr.rc))
        extra["artifact"] = lambda: bundle_dict(kr.rc.base,
                                                restriction=kr.rc.bar)

    elif cmd == "geometric":
        reports.append(gate)
        reports.append(is_geometric(bundle.mcat, args.max_family))

    elif cmd == "topology":
        top = generate_topology(bundle.mcat)
        rep = LawReport("topology")
        if not saturation_is_fixpoint(top):
            rep.add("TOP-FIX", (), "saturation is not a fixpoint")
        reports.append(rep)
        reports.append(subcanonical_report(top))
        c = bundle.cat
        extra["topology"] = lambda: {
            c.obj_names[a]: [sorted(c.mor_names[f] for f in s)
                             for s in sorted(top.covers[a], key=sorted)]
            for a in c.objects}

    elif cmd in ("sheaf-check", "sheafify"):
        top = generate_topology(bundle.mcat)
        sep_rep, sheaf_rep = sheaf_reports(psh, top)
        reports.append(sep_rep)
        if cmd == "sheaf-check":
            reports.append(sheaf_rep)
        else:
            res = sheafify(psh, top)
            rep = LawReport("sheafify")
            if not is_sheaf(res.presheaf, top).ok:
                rep.add("SHFY", (), "result is not a sheaf")
            if sheaf_rep.ok and not res.unit.is_iso():
                rep.add("SHFY-UNIT", (), "unit not an iso on a sheaf")
            reports.append(rep)
            extra["artifact"] = lambda: bundle_dict(
                bundle.cat, presheaves={"sheafified": (res.presheaf, None)})

    elif cmd == "transfer":
        pc = par(bundle.mcat)
        top = generate_topology(bundle.mcat)
        if args.direction == "to-jrp":
            reports.append(transfer_report(pc, top, psh, args.max_family))

            def artifact():
                rp = sheaf_to_jrp(pc, psh).rp
                return bundle_dict(
                    pc.rc.base, restriction=pc.rc.bar,
                    presheaves={"transferred": (rp.presheaf, rp.bar_elem)})
            extra["artifact"] = artifact
        else:
            rp = yoneda_jr(pc.rc, obj)
            reports.append(amalgamation_formula_report(pc, top, rp,
                                                       args.max_family))
            extra["artifact"] = lambda: bundle_dict(
                bundle.cat, presheaves={
                    "transferred": (jrp_to_sheaf(pc, rp).presheaf, None)})

    elif cmd == "roundtrip":
        _resolve_presheaf(bundle, args.presheaf)
        reports.append(roundtrip_report(par(bundle.mcat)))

    elif cmd == "unit":
        reports.append(cocompletion_unit(bundle.restriction).report)

    return reports, extra


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        reports, extra = _run(args)
    except BundleError as exc:
        print(f"bundle error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    lines = []
    for rep in reports:
        lines.extend(f"{rep.name}\t{line}" for line in rep.lines())
    for line in sorted(lines):
        print(line)
    ok = all(rep.ok for rep in reports)
    print(f"{'PASS' if ok else 'FAIL'}\t{args.command}\t{args.bundle}")
    if args.out:
        summary = {
            "command": args.command,
            "bundle": args.bundle,
            "max_family": args.max_family,
            "ok": ok,
            "reports": [rep.summary() for rep in reports],
        }
        summary.update((key, build()) for key, build in extra.items())
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dump_bundle(summary))
        except OSError as exc:
            print(f"output error: cannot write {args.out!r} ({exc})",
                  file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
