"""Command-line surface: one subcommand per pipeline stage plus the live
snapshot populator.

    audit lexicon --config audit.json
    audit report --all --config audit.json --out-dir out/
    audit fetch --titles-file titles.txt --out snapshot.jsonl
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline
from .artifacts import open_input
from .config import AuditConfig
from .pipeline import STAGES, PipelineError

_STAGE_EPILOG = (
    "The stage always runs, but first checks every stage it reads from, "
    "directly or through another stage. If one of them is stale (its "
    "inputs, constants, seed, outputs or code changed since it last ran), "
    "nothing is written and the error names the first such stage and why; "
    "run that stage first, or use 'report --all'.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audit",
        description="Audit gender representation in encyclopedia "
                    "profession articles.")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log progress to stderr, with why each stage "
                             "ran or was skipped")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage_command(name, help_text):
        p = sub.add_parser(name, help=help_text, epilog=_STAGE_EPILOG)
        p.add_argument("--config", required=True,
                       help="JSON config file; relative paths resolve "
                            "against its directory")
        p.add_argument("--out-dir", help="override the configured output "
                                         "directory")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--snapshot", help="override the snapshot path")
        return p

    add_stage_command("lexicon", "parse the profession list into entries")
    add_stage_command("match", "match profession titles to article titles")
    add_stage_command("classify", "derive redirect-bias groups and tables")
    add_stage_command("webhits", "normalized hit differences and bias models")
    add_stage_command("mentions", "extract mentioned persons and ratios")
    add_stage_command("images", "aggregate crowd labels and distributions")
    add_stage_command("labor", "join labor-market statistics")
    report = add_stage_command("report", "emit the cross-cutting report bundle")
    report.add_argument("--all", action="store_true",
                        help="run every stage in order first, skipping a "
                             "stage whose inputs, constants, seed, outputs "
                             "and code are unchanged since it last ran "
                             "(the first stage always runs)")

    fetch = sub.add_parser("fetch", help="populate a snapshot from a live "
                                         "MediaWiki API")
    fetch.add_argument("--titles-file", required=True,
                       help="text file with one page title per line")
    fetch.add_argument("--out", required=True, help="snapshot JSONL to write")
    # _cmd_fetch resolves the defaults, so the audit never imports mediawiki
    fetch.add_argument("--endpoint",
                       help="MediaWiki api.php URL (default: the German "
                            "Wikipedia's, https://de.wikipedia.org/w/api.php)")
    fetch.add_argument("--rate", type=float, default=2.0,
                       help="max requests per second (default 2)")
    fetch.add_argument("--concurrency", type=int, default=4,
                       help="parallel requests (default 4)")
    fetch.add_argument("--user-agent",
                       help="User-Agent header (default: 'profaudit/0.1 "
                            "(profession corpus snapshot builder)')")
    return parser


def _load_config(args) -> AuditConfig:
    cfg = AuditConfig.from_file(args.config)
    if args.out_dir:
        # CLI overrides resolve against the caller's cwd, not the config
        cfg.out_dir = str(Path(args.out_dir).resolve())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.snapshot:
        cfg.snapshot = str(Path(args.snapshot).resolve())
    return cfg


def _cmd_fetch(args) -> int:
    from . import corpus, mediawiki

    if args.concurrency < 1:
        raise ValueError("--concurrency must be at least 1")
    if args.rate <= 0:
        raise ValueError("--rate must be positive")
    with open_input(args.titles_file, "titles file") as fh:
        titles = [line.strip() for line in fh if line.strip()]
    client = mediawiki.WikiClient(
        endpoint=args.endpoint or mediawiki.DEFAULT_ENDPOINT,
        user_agent=args.user_agent or mediawiki.DEFAULT_USER_AGENT,
        rate=mediawiki.RateLimiter(args.rate))
    records = client.fetch_many(titles, concurrency=args.concurrency)
    snapshot = corpus.build_snapshot(records)
    corpus.save_snapshot(snapshot, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "fetch":
            return _cmd_fetch(args)
        cfg = _load_config(args)
        if args.command == "report" and args.all:
            outputs = pipeline.run_all(cfg)
        else:
            outputs = pipeline.run_stage(args.command, cfg)
        for path in outputs:
            print(path)
        return 0
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
