"""Command line entry point: verify, plan, simulate, and csar subcommands.

Exit codes: 0 clean, 1 findings (unfixed diagnostics, dependency cycles,
stage errors), 2 usage or parse errors.  Reports go to stdout; artifacts
are written only to explicitly given output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DependencyCycleError, ToscaflowError
from .parsing import SourceLocation, parse_service_template, serialize_template
from .verifier import ERROR, FIXABLE, report_to_dict, verify

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_template(path: str):
    """The parsed template, or None after printing why it could not be read.

    A ToscaflowError, or bytes that are not UTF-8, is printed with its
    source location when it has one.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_service_template(data.decode("utf-8"), filename=path)
    except UnicodeDecodeError as exc:
        location = SourceLocation.after(path, data[:exc.start].decode("utf-8"))
        _fail(f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8 "
              f"({exc.reason}) at {location}")
    except ToscaflowError as exc:
        location = getattr(exc, "location", None)
        _fail(f"{exc} at {location}" if location else str(exc))
    return None


def _print_report(diagnostics, report_format: str, fixed: bool):
    if report_format == "json":
        print(json.dumps(report_to_dict(diagnostics, fixed), indent=2))
        return
    for diag in diagnostics:
        columns = [diag.rule, diag.severity, ",".join(diag.nodes), diag.message]
        if diag.fix:
            columns.append(f"fixed: {diag.fix}")
        print("\t".join(columns))


def _unremedied(diagnostics) -> bool:
    return any(d.severity == ERROR or (d.severity == FIXABLE and d.fix is None)
               for d in diagnostics)


def _load_verified(path: str):
    """(template, None) for a template with no unremedied finding, else
    (None, exit code) after printing the parse error or the findings."""
    template = _load_template(path)
    if template is None:
        return None, EXIT_USAGE
    _, diagnostics = verify(template)
    if _unremedied(diagnostics):
        _print_report(diagnostics, "text", fixed=False)
        return None, EXIT_FINDINGS
    return template, None


def cmd_verify(args) -> int:
    template = _load_template(args.template)
    if template is None:
        return EXIT_USAGE
    fixed_template, diagnostics = verify(template, fix=args.fix, seed=args.seed)
    any_fix = any(d.fix for d in diagnostics)
    _print_report(diagnostics, args.report, fixed=any_fix)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize_template(fixed_template))
    return EXIT_FINDINGS if _unremedied(diagnostics) else EXIT_CLEAN


def cmd_plan(args) -> int:
    from .planner import plan

    template, code = _load_verified(args.template)
    if template is None:
        return code
    try:
        deployment = plan(template)
    except DependencyCycleError as exc:
        print("dependency cycle: " + " -> ".join(exc.members))
        return EXIT_FINDINGS
    if args.format == "json":
        print(json.dumps(deployment.to_list(), indent=2))
    else:
        for step in deployment.steps:
            line = f"{step.node}\t{step.op}"
            if step.annotation:
                line += f"\t{step.annotation}"
            print(line)
    return EXIT_CLEAN


def cmd_simulate(args) -> int:
    from .simulator import instantiate, parse_schedule

    template, code = _load_verified(args.template)
    if template is None:
        return code

    injections = []
    if args.inject:
        try:
            with open(args.inject, "r", encoding="utf-8") as handle:
                injections = parse_schedule(
                    handle.read(), base_dir=os.path.dirname(args.inject) or ".")
        except ValueError as exc:
            return _fail(str(exc))

    try:
        flow = instantiate(template)
    except ToscaflowError as exc:
        print(f"cannot simulate: {exc}")
        return EXIT_FINDINGS
    for tick, provider, bucket, key, payload in injections:
        flow.schedule_injection(tick, provider, bucket, key, payload)
    metrics = flow.run_until(args.until)
    rendered = json.dumps(metrics, indent=2)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    return EXIT_CLEAN if flow.error_count == 0 else EXIT_FINDINGS


def cmd_csar(args) -> int:
    from .csar import pack_csar, unpack_csar

    if args.action == "pack":
        source = args.source
        if not os.path.isdir(source):
            return _fail(f"{source!r} is not a directory")
        files = {}
        for root, _, names in os.walk(source):
            for name in names:
                full = os.path.join(root, name)
                rel = os.path.relpath(full, source).replace(os.sep, "/")
                with open(full, "rb") as handle:
                    files[rel] = handle.read()
        if args.entry not in files:
            return _fail(f"entry definitions {args.entry!r} not found in "
                         f"{source!r}")
        try:
            data = pack_csar(args.entry, files)
        except ToscaflowError as exc:
            return _fail(str(exc))
        with open(args.archive, "wb") as handle:
            handle.write(data)
        print(f"packed {len(files)} file(s) into {args.archive}")
        return EXIT_CLEAN

    try:
        with open(args.archive, "rb") as handle:
            archive = unpack_csar(handle.read())
    except ToscaflowError as exc:
        return _fail(str(exc))
    for rel, payload in sorted(archive.files.items()):
        destination = os.path.join(args.dest, rel.replace("/", os.sep))
        os.makedirs(os.path.dirname(destination) or ".", exist_ok=True)
        with open(destination, "wb") as handle:
            handle.write(payload)
    print(f"unpacked {len(archive.files)} file(s) to {args.dest} "
          f"(entry: {archive.entry_definitions})")
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toscaflow",
        description="Verify, plan, and simulate TOSCA data-pipeline blueprints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a blueprint, optionally fix it")
    p_verify.add_argument("template")
    p_verify.add_argument("--fix", action="store_true",
                          help="apply repairs for fixable findings")
    p_verify.add_argument("--out", help="write the verified template here")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for generated passphrases")
    p_verify.set_defaults(func=cmd_verify)

    p_plan = sub.add_parser("plan", help="emit the deployment order")
    p_plan.add_argument("template")
    p_plan.add_argument("--format", choices=("text", "json"), default="text")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run the topology on the virtual clock")
    p_sim.add_argument("template")
    p_sim.add_argument("--inject", help="injection schedule file")
    p_sim.add_argument("--until", type=int, default=100,
                       help="last tick to process (default 100)")
    p_sim.add_argument("--metrics", help="write metrics JSON here")
    p_sim.set_defaults(func=cmd_simulate)

    p_csar = sub.add_parser("csar", help="pack or unpack a CSAR archive")
    csar_sub = p_csar.add_subparsers(dest="action", required=True)
    p_pack = csar_sub.add_parser("pack")
    p_pack.add_argument("source", help="directory to pack")
    p_pack.add_argument("archive", help="output .csar path")
    p_pack.add_argument("--entry", default="service.yaml",
                        help="entry definitions file inside the directory")
    p_pack.set_defaults(func=cmd_csar, action="pack")
    p_unpack = csar_sub.add_parser("unpack")
    p_unpack.add_argument("archive")
    p_unpack.add_argument("dest", help="directory to unpack into")
    p_unpack.set_defaults(func=cmd_csar, action="unpack")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a path given on the command line
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
