"""Command-line entry points.

fedscore run <scenario>            execute a scenario, write a bundle
fedscore game shapley <table>      exact Shapley of an explicit game
fedscore score <archive> --method  score archived transcripts
fedscore influence <archive>       influence matrix from an archive
fedscore report <bundle>           verify + summarize a bundle

Data goes to stdout as CSV; diagnostics go to stderr.  The master seed
of `run` can be set by the FEDSCORE_SEED environment variable and
overridden per invocation with --seed.
"""

import argparse
import csv
import json
import os
import sys

from ..fedsim import load_transcripts, model_eval_oracle, test_set_for
from ..games import METHOD_LABELS, load_table_game, shapley_exact
from ..protocol import influence_matrix
from ..scoring import scores_to_csv
from .bundle import run_scenario, verify_bundle
from .runs import RepeatContext, method_scores, round_utilities

# `fedscore score --method` flag -> method label: every label but the
# retrained SV, lowercase without the hyphen
_METHODS = {m.lower().replace("-", ""): m for m in METHOD_LABELS if m != "SV"}


def _cmd_run(args):
    seed = args.seed
    if seed is None and "FEDSCORE_SEED" in os.environ:
        raw = os.environ["FEDSCORE_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise SystemExit(f"fedscore: FEDSCORE_SEED={raw!r} is not an integer")
    bundle = run_scenario(args.scenario, out_dir=args.out, master_seed=seed)
    print(bundle)
    return 0


def _cmd_game_shapley(args):
    game = load_table_game(args.table)
    scores_to_csv([shapley_exact(game.oracle())], args.out or sys.stdout)
    return 0


def _load_archive(args):
    """The archive as a repeat context, and the requested round."""
    config, transcripts = load_transcripts(args.archive)
    ctx = RepeatContext(
        repeat=0,
        config=config,
        transcripts=tuple(transcripts),
        evaluator=model_eval_oracle(test_set_for(config), config.utility_kind),
    )
    rnd = args.round if args.round is not None else len(transcripts)
    if not (1 <= rnd <= len(transcripts)):
        raise SystemExit(
            f"fedscore: round {rnd} outside 1..{len(transcripts)}"
        )
    return ctx, rnd


def _cmd_score(args):
    ctx, rnd = _load_archive(args)
    vector = method_scores(_METHODS[args.method], ctx, rnd, range(1, rnd + 1))
    scores_to_csv([vector], args.out or sys.stdout)
    return 0


def _cmd_influence(args):
    ctx, rnd = _load_archive(args)
    matrix = influence_matrix(round_utilities(ctx, rnd))
    fh = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "influence", "normalized"])
        n = len(matrix.entries)
        for j in range(n):
            for i in range(n):
                writer.writerow([
                    j, i,
                    repr(float(matrix.entries[j, i])),
                    repr(float(matrix.normalized[j, i])),
                ])
    finally:
        if args.out:
            fh.close()
    for col in matrix.flagged_columns:
        print(f"fedscore: column {col} degenerate, left unnormalized",
              file=sys.stderr)
    return 0


def _cmd_report(args):
    bad = verify_bundle(args.bundle)
    if bad:
        for rel in bad:
            print(f"fedscore: checksum mismatch: {rel}", file=sys.stderr)
        return 1
    run_path = os.path.join(args.bundle, "run.json")
    with open(run_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    print(f"scenario: {meta['scenario']}")
    print(f"components: {', '.join(meta['components'])}")
    print("tables:")
    for name in meta["tables"]:
        if name.endswith(".csv"):
            print(f"  tables/{name}")
    summary = os.path.join(args.bundle, "tables", "rank_fidelity.csv")
    if os.path.exists(summary):
        with open(summary, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                print(
                    f"  {row['method']:>6} {row['metric']:<8} "
                    f"mean={float(row['mean']):.6f} "
                    f"var={float(row['variance']):.2e}"
                )
    print("checksums: all match")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedscore",
        description="Contribution scores for federated learning transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a .scenario config")
    p_run.add_argument("--out", default=None, help="bundle output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed (beats FEDSCORE_SEED)")
    p_run.set_defaults(fn=_cmd_run)

    p_game = sub.add_parser("game", help="operations on explicit game tables")
    game_sub = p_game.add_subparsers(dest="game_command", required=True)
    p_sh = game_sub.add_parser("shapley", help="exact Shapley of a table game")
    p_sh.add_argument("table", help="path to a coalition table file")
    p_sh.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sh.set_defaults(fn=_cmd_game_shapley)

    p_score = sub.add_parser("score", help="score a transcript archive")
    p_score.add_argument("archive", help="transcript archive directory")
    p_score.add_argument("--method", required=True, choices=tuple(_METHODS))
    p_score.add_argument("--round", type=int, default=None,
                         help="evaluation round (default: last)")
    p_score.add_argument("--out", default=None)
    p_score.set_defaults(fn=_cmd_score)

    p_infl = sub.add_parser("influence",
                            help="report-influence matrix from an archive")
    p_infl.add_argument("archive", help="transcript archive directory")
    p_infl.add_argument("--round", type=int, default=None,
                        help="evaluation round (default: last)")
    p_infl.add_argument("--out", default=None)
    p_infl.set_defaults(fn=_cmd_influence)

    p_rep = sub.add_parser("report", help="verify and summarize a bundle")
    p_rep.add_argument("bundle", help="result bundle directory")
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except SystemExit:
        raise
    except BrokenPipeError:
        # The reader went away (`fedscore report B | head -1`): stop
        # quietly, with stdout on devnull so that the flush at exit cannot
        # fail again, as Python's "Note on SIGPIPE" advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"fedscore: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
