"""Command-line front door.

Subcommands
    fixity    fixity report for one coset action G/U
    profile   fixed-point profile rows for G/U
    search    subgroup classes whose coset action has fixity exactly k
    marks     row of the table of marks for G/U
    sylow     orbit shape of a Sylow 3-subgroup on G/U
    verify    run a claim catalog, exit 1 on any FAIL
    zoo       list constructible group names

Stabilizers are selected by ``--stab-order N`` (all lattice classes of that
order; an optional ``--stab-descriptor`` narrows further) or by
``--stab-file`` pointing at a generator file whose permutations must lie in
the group.  Machine-readable JSON goes to stdout (or ``--out``); anything
human goes to stderr.  Exit codes: 0 success, 1 claim failure, 2 usage or
data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .cosets import (
    Caps,
    fixity,
    marks_row,
    profile,
    report_json,
)
from .enumeration import as_context, subgroup_closure
from .errors import FalsificationError, FixityError, GroupDataError, PreconditionError
from .perm import PermGroup, Subgroup
from .verifier import (
    CAPS_NOT_GIVEN,
    action_row,
    catalog_report_json,
    classify_sylow3_orbits,
    descriptor_matches,
    run_claim_catalog,
    search_fixity_k,
)
from .zoo import ENV_DATA_DIR, load_spec, resolve_group, zoo_names


def _positive_int(text: str) -> int:
    """A cap or ``--jobs`` value: a positive int, as a catalog cap must be."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive int, got {value}")
    return value


def _claim_ids(text: str) -> set[str]:
    """An ``--only`` value: comma-separated claim ids, none of them empty."""
    ids = text.split(",")
    if "" in ids:
        raise argparse.ArgumentTypeError(f"empty claim id in {text!r}")
    return set(ids)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fixitylab")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add_outputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--element-cap", type=_positive_int)
        p.add_argument("--subgroup-cap", type=_positive_int)
        p.add_argument("--coset-cap", type=_positive_int)

    def add_common(p: argparse.ArgumentParser, stab: bool) -> None:
        p.add_argument("--group", required=True, help="group selector, see `zoo`")
        if stab:
            p.add_argument("--stab-order", type=int, help="stabilizer order filter")
            p.add_argument(
                "--stab-descriptor",
                help="narrow --stab-order matches to one structure, e.g. D10",
            )
            p.add_argument("--stab-file", help="generator file for the stabilizer")
        add_outputs(p)

    for name in ("fixity", "profile", "marks", "sylow"):
        add_common(sub.add_parser(name), stab=True)

    p = sub.add_parser("search")
    add_common(p, stab=False)
    p.add_argument("--k", type=_positive_int, default=4, help="target fixity (default 4)")

    p = sub.add_parser("verify")
    p.add_argument("--catalog", required=True, help="claim catalog JSON file")
    p.add_argument("--only", type=_claim_ids, help="comma-separated claim ids to run")
    p.add_argument("--jobs", type=_positive_int, default=1)
    add_outputs(p)

    p = sub.add_parser("zoo")
    p.add_argument("--out", help="write JSON here instead of stdout")
    return top


def _caps_of(args: argparse.Namespace) -> dict[str, int]:
    """The caps given on the command line; a flag left out is not given."""
    caps = {"elements": args.element_cap, "subgroups": args.subgroup_cap, "cosets": args.coset_cap}
    return {k: v for k, v in caps.items() if v is not None}


def _stabilizers(
    g: PermGroup, args: argparse.Namespace, caps: Caps
) -> list[Subgroup]:
    """All stabilizers the flags select; ambiguity yields several."""
    if args.stab_file and args.stab_order is not None:
        raise PreconditionError("--stab-order and --stab-file are exclusive")
    if args.stab_descriptor is not None and args.stab_order is None:
        raise PreconditionError("--stab-descriptor narrows --stab-order, which is not given")
    if args.stab_file:
        spec = load_spec(Path(args.stab_file), Path(args.stab_file).stem)
        loaded = spec.build()
        return [subgroup_closure(g, list(loaded.generators))]
    if args.stab_order is None:
        raise PreconditionError("one of --stab-order or --stab-file is required")
    ctx = as_context(g, caps.elements)
    out = []
    for sc in ctx.subgroup_classes(caps.subgroups):
        if sc.order != args.stab_order:
            continue
        if args.stab_descriptor and not descriptor_matches(
            args.stab_descriptor, sc.representative.group
        ):
            continue
        out.append(sc.representative)
    if not out:
        raise GroupDataError(
            f"no subgroup class of order {args.stab_order} matches the filter"
        )
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _one_or_many(chunks: list[str], out: str | None) -> None:
    if len(chunks) == 1:
        _emit(chunks[0], out)
    else:
        _emit("[\n" + ",\n".join(chunks) + "\n]", out)


def _cmd_action_reports(args: argparse.Namespace) -> int:
    caps = Caps(**_caps_of(args))
    name, g = resolve_group(args.group)
    chunks = []
    for u in _stabilizers(g, args, caps):
        if args.subcommand == "fixity":
            # the profile enumerates G, so above the element cap it fails
            # before the fixity count has run
            prof = profile(g, u, caps)
            chunks.append(report_json(name, fixity(g, u, caps), prof))
            continue
        obj = {"group": name, "stabilizer_order": u.order, "degree": g.order // u.order}
        if args.subcommand == "profile":
            obj["profile"] = [list(r) for r in profile(g, u, caps).rows]
        elif args.subcommand == "marks":
            obj["marks"] = marks_row(g, u, caps)
        else:
            cls = classify_sylow3_orbits(g, u, caps)
            obj["case"] = cls.case
            obj["sylow3_order"] = cls.p_order
            obj["delta_size"] = cls.delta_size
            obj["orbit_sizes"] = [list(p) for p in cls.orbit_sizes]
        chunks.append(json.dumps(obj, indent=2))
    _one_or_many(chunks, args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    caps = Caps(**_caps_of(args))
    name, g = resolve_group(args.group)
    hits = search_fixity_k(g, args.k, caps)
    obj = {
        "group": name,
        "k": args.k,
        "classes": [action_row(h.report) for h in hits],
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # a cap given here bounds the claim's own cap
    caps = replace(CAPS_NOT_GIVEN, **_caps_of(args))
    results = run_claim_catalog(args.catalog, jobs=args.jobs, caps=caps, only=args.only)
    _emit(catalog_report_json(results), args.out)
    for r in results:
        print(f"{r.verdict:8s} {r.claim_id}", file=sys.stderr)
    return 1 if any(r.verdict == "FAIL" for r in results) else 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    extra = []
    env_dir = os.environ.get(ENV_DATA_DIR)
    if env_dir and Path(env_dir).is_dir():
        extra = sorted(p.stem for p in Path(env_dir).glob("*.grp"))
    obj = {
        "names": zoo_names(),
        "data_dir_names": extra,
        "families": [
            "alt_<n>",
            "cyclic_<n>",
            "dihedral_<n>",
            "pgl2_<q>",
            "psl2_<q>",
            "sym_<n>",
        ],
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand in ("fixity", "profile", "marks", "sylow"):
            return _cmd_action_reports(args)
        if args.subcommand == "search":
            return _cmd_search(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        return _cmd_zoo(args)
    except FalsificationError as e:
        print(f"falsified: {e}", file=sys.stderr)
        return 1
    except (FixityError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
