"""Command-line front end: dataset ingestion, query execution, JSON emission.

Output is canonical JSON: compact separators, insertion-ordered keys, floats
rendered with 12 significant digits.  Identical invocations (including seeds)
produce byte-identical output.  Errors are emitted to stderr as single-line
JSON ``{"error": "..."}``; the exit status is 0 on success, 1 on validation
errors, and 2 when an exact computation exceeds its size cap.  Each distinct
warning a call raises goes to stderr once, as one JSON line
``{"warning": "..."}`` ahead of any error line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence, Union

import numpy as np

from .model import (
    CapExceededError,
    QueryPoint,
    UncertainDatabase,
    ValidationError,
    load_database,
    parse_json,
)
from .predicates import KnnPredicate, RangePredicate
from .queries import (
    BACKENDS,
    ProbabilisticPredicate,
    answer_objects,
    answer_range,
    answer_rank,
    answer_results,
    enumerate_worlds,
    sampled_results,
)
from .representatives import cluster_representatives, max_cover_representatives
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED
from .trajectories import answer_pcnn, load_trajectory_dataset


def dumps_canonical(value) -> str:
    """Serialize to JSON with floats at 12 significant digits.

    A number is ``f"{x:.12g}"``, or ``"0"`` for zero; a non-finite float raises
    ``ValueError``.  A flat list of finite floats or of ints, a dict of such values,
    and a list of dicts that share their str keys in order (each key's values flat, or
    all lists of ints) are written in one pass, with the same bytes as item by item.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"non-finite number in output: {x}")
        return "0" if x == 0.0 else f"{x:.12g}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # what json.dumps does with a str
    if isinstance(value, (list, tuple, np.ndarray)):
        items = _flat(value)
        if items is None:
            items = _records(value)
        if items is None:
            items = map(dumps_canonical, value)
        return "[" + ",".join(items) + "]"
    if isinstance(value, dict):
        names = value if _STR.issuperset(map(type, value)) else map(str, value)
        keys = map(encode_basestring_ascii, names)
        items = _flat(value.values())
        if items is None:
            items = map(dumps_canonical, value.values())
        return "{" + ",".join([f"{k}:{v}" for k, v in zip(keys, items)]) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


_FLOATS = frozenset({float, np.float64})
_INT = frozenset({int})
_STR = frozenset({str})
_DICT = frozenset({dict})
_LIST = frozenset({list})


def _flat(values) -> Optional[List[str]]:
    """Each value written as ``dumps_canonical`` writes it, when every one is a finite
    float or every one an int; ``None`` otherwise."""
    if _FLOATS.issuperset(map(type, values)):
        floats = list(map(float, values))
        if all(map(math.isfinite, floats)):
            return ["0" if x == 0.0 else "%.12g" % x for x in floats]
    elif _INT.issuperset(map(type, values)):
        return list(map(str, values))
    return None


def _records(values) -> Optional[List[str]]:
    """Each value written as ``dumps_canonical`` writes it, when all are dicts with the
    same str keys in the same order and, per key, the values are ``_flat`` or are all
    lists of ints; ``None`` otherwise."""
    if not _DICT.issuperset(map(type, values)) or len(set(map(tuple, values))) != 1:
        return None
    keys = tuple(values[0])
    if not keys or not _STR.issuperset(map(type, keys)):
        return None
    columns = []
    for column in zip(*map(dict.values, values)):
        items = _flat(column)
        if (items is None and _LIST.issuperset(map(type, column))
                and _INT.issuperset(map(type, itertools.chain.from_iterable(column)))):
            # a list of ints is written as its repr is, without the spaces
            items = [repr(v).replace(" ", "") for v in column]
        if items is None:
            return None
        columns.append(items)
    # one %-format per record; encode_basestring_ascii leaves a "%" in a key, so double it
    row = "{" + ",".join(encode_basestring_ascii(k).replace("%", "%%") + ":%s" for k in keys) + "}"
    return [row % items for items in zip(*columns)]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the CLI error contract, and that reads a
    negative number in exponent form (``-1e3``, as ``dumps_canonical`` may write it) as a
    flag value, where argparse alone would take it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser():
    """The argument parser and its subcommand parsers by name, built on first use."""
    parser = _Parser(prog="uspatial", description="Probabilistic spatial queries")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--dataset", required=True, help="dataset JSON path")
        p.add_argument("--config", help="JSON file with default parameter values")
        p.add_argument("--output", help="write the JSON document to this path")
        return p

    def add_query_flags(p):
        p.add_argument("--query-x", type=float, help="query point x coordinate")
        p.add_argument("--query-y", type=float, help="query point y coordinate")
        p.add_argument("--query-object", help="treat this database object as the query")

    def add_backend_flags(p, choices=BACKENDS, default="pbr"):
        p.add_argument("--backend", choices=choices, default=default)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    add("worlds", _cmd_worlds, help="dump the possible-worlds enumeration")

    p = add("range", _cmd_range,
            help="range query: count distribution and per-object probabilities")
    add_query_flags(p)
    p.add_argument("--epsilon", type=float, help="query radius")
    p.add_argument("--tau", type=float, help="probability threshold for the result set")
    add_backend_flags(p)

    p = add("knn", _cmd_knn, help="k-nearest-neighbor probabilities")
    add_query_flags(p)
    p.add_argument("--k", type=int, help="number of nearest neighbors")
    p.add_argument("--semantics", choices=["object", "result"], default="object")
    add_backend_flags(p)

    p = add("topk", _cmd_topk, help="the k objects most likely to satisfy a spatial predicate")
    add_query_flags(p)
    p.add_argument("--k", type=int, help="number of objects to return")
    p.add_argument("--epsilon", type=float, help="range predicate radius")
    p.add_argument("--nn", type=int, help="kNN predicate neighbor count")
    add_backend_flags(p)

    p = add("rank", _cmd_rank, help="distance-rank distribution of one object")
    add_query_flags(p)
    p.add_argument("--object", help="object id to rank")
    p.add_argument("--backend", choices=["pbr", "gf"], default="pbr")

    p = add("reps", _cmd_reps, help="sample worlds and select representative results")
    add_query_flags(p)
    p.add_argument("--epsilon", type=float, help="range predicate radius")
    p.add_argument("--nn", type=int, help="kNN predicate neighbor count")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--method", choices=["maxcover", "cluster"], default="maxcover")
    p.add_argument("--tau", type=float, help="cover radius (maxcover)")
    p.add_argument("--n-reps", type=int, default=3, help="number of representatives (maxcover)")
    p.add_argument("--cluster-mode", choices=["complete", "taumax"], default="complete")
    p.add_argument("--tau-max", type=float)
    p.add_argument("--clusters", type=int, help="fixed cluster count")

    p = add("pcnn", _cmd_pcnn, help="qualifying timestamp subsets per trajectory")
    p.add_argument("--tau", type=float, help="probability threshold")
    add_backend_flags(p, ["exact", "sampled"], "exact")
    p.add_argument("--object", help="restrict to one trajectory id")
    p.add_argument("--maximal", action="store_true", help="report only maximal timestamp sets")
    return parser, sub.choices


def _config_args(path: str, command: argparse.ArgumentParser) -> List[str]:
    """The config file's values as flags of the subcommand; other keys are ignored.

    Parsed ahead of the explicit flags, they get the same checks and explicit flags win.
    """
    with open(path, "r", encoding="utf-8") as fh:
        overrides = parse_json(fh.read(), "config")
    if not isinstance(overrides, dict):
        raise ValidationError("config file must hold a JSON object")
    args = []
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config") or value is None:
            continue
        if action.nargs != 0:
            args.append(f"{flag}={value}")
        elif isinstance(value, bool):
            args += [flag] if value else []
        else:
            raise ValidationError(f"config value {key!r} must be true or false")
    return args


def _parse(argv: List[str]) -> argparse.Namespace:
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    return parser.parse_args(argv[:1] + _config_args(ns.config, commands[ns.command]) + argv[1:])


def _query_of(args, db: UncertainDatabase) -> Union[QueryPoint, str]:
    if args.query_object is not None:
        if args.query_x is not None or args.query_y is not None:
            raise ValidationError("--query-object and --query-x/--query-y are mutually exclusive")
        if args.query_object not in db:
            raise ValidationError(f"query object {args.query_object!r} not in dataset")
        return args.query_object
    if args.query_x is None or args.query_y is None:
        raise ValidationError("provide --query-x and --query-y, or --query-object")
    return QueryPoint(args.query_x, args.query_y)


def _query_json(q: Union[QueryPoint, str]):
    return q if isinstance(q, str) else [q.x, q.y]


def _spatial_predicate(args):
    if args.epsilon is not None and args.nn is not None:
        raise ValidationError("--epsilon and --nn are mutually exclusive")
    if args.epsilon is not None:
        return RangePredicate(args.epsilon)
    if args.nn is not None:
        return KnnPredicate(args.nn)
    raise ValidationError("provide --epsilon (range) or --nn (kNN) as the spatial predicate")


def _sorted_probabilities(probs: dict) -> dict:
    return {oid: probs[oid] for oid in sorted(probs)}


def _cmd_worlds(args, db) -> dict:
    entries = [{"choices": w.choices, "p": w.prob} for w in enumerate_worlds(db)]
    total = math.fsum(e["p"] for e in entries)
    return {"count": len(entries), "total_probability": total, "worlds": entries}


def _cmd_range(args, db) -> dict:
    q = _query_of(args, db)
    if args.epsilon is None:
        raise ValidationError("range requires --epsilon")
    probs, counts = answer_range(db, q, args.epsilon, args.backend, args.samples, args.seed)
    doc = {
        "epsilon": args.epsilon,
        "query": _query_json(q),
        "probabilities": _sorted_probabilities(probs),
        "count_distribution": list(counts.mass),
    }
    if args.tau is not None:
        selected = ProbabilisticPredicate(kind="threshold", tau=args.tau).select(probs)
        doc["tau"] = args.tau
        doc["result"] = list(selected.members)
    return doc


def _cmd_knn(args, db) -> dict:
    q = _query_of(args, db)
    if args.k is None or args.k < 1:
        raise ValidationError("knn requires --k >= 1")
    pred = KnnPredicate(args.k)
    doc = {"k": args.k, "query": _query_json(q), "semantics": args.semantics}
    if args.semantics == "object":
        probs = answer_objects(db, q, pred, args.backend, args.samples, args.seed)
        doc["probabilities"] = _sorted_probabilities(probs)
    else:
        pairs = answer_results(db, q, pred, args.backend, args.samples, args.seed)
        doc["results"] = [{"result": list(res.members), "p": p} for res, p in pairs]
    return doc


def _cmd_topk(args, db) -> dict:
    q = _query_of(args, db)
    if args.k is None or args.k < 1:
        raise ValidationError("topk requires --k >= 1")
    pred = _spatial_predicate(args)
    probs = answer_objects(db, q, pred, args.backend, args.samples, args.seed)
    if args.k > len(probs):
        raise ValidationError(f"k must be within 1..{len(probs)}")
    selected = ProbabilisticPredicate(kind="topk", k=args.k).select(probs)
    doc = {"k": args.k}
    if isinstance(pred, RangePredicate):
        doc["epsilon"] = pred.epsilon
    else:
        doc["nn"] = pred.k
    doc["query"] = _query_json(q)
    doc["probabilities"] = _sorted_probabilities(probs)
    doc["result"] = list(selected.members)
    return doc


def _cmd_rank(args, db) -> dict:
    q = _query_of(args, db)
    if not args.object:
        raise ValidationError("rank requires --object")
    if args.object not in db:
        raise ValidationError(f"object {args.object!r} not in dataset")
    cd = answer_rank(db, q, args.object, args.backend)
    return {"object": args.object, "query": _query_json(q), "ranks": list(cd.mass)}


def _cmd_reps(args, db) -> dict:
    q = _query_of(args, db)
    pred = _spatial_predicate(args)
    pr = sampled_results(db, q, pred, args.samples, args.seed)
    if args.method == "maxcover":
        if args.tau is None:
            raise ValidationError("maxcover requires --tau")
        reps = max_cover_representatives(pr, args.tau, args.n_reps, args.alpha)
    else:
        mode = "complete" if args.cluster_mode == "complete" else "tau_max"
        reps = cluster_representatives(
            pr, args.alpha, mode=mode, tau_max=args.tau_max, k=args.clusters
        )
    return {
        "representatives": [
            {
                "result": list(r.result.members),
                "tau": r.tau,
                "phi": r.phi,
                "alpha": r.alpha,
                "support": r.support,
            }
            for r in reps
        ],
        "samples": args.samples,
        "seed": args.seed,
    }


def _cmd_pcnn(args, dataset) -> dict:
    if args.tau is None:
        raise ValidationError("pcnn requires --tau")
    results = answer_pcnn(
        dataset, args.tau, args.backend, args.samples, args.seed, args.object, args.maximal
    )
    return {
        "tau": args.tau,
        "results": {
            oid: [
                {"timestamps": list(ts.timestamps), "p": ts.probability}
                for ts in sets
            ]
            for oid, sets in results.items()
        },
    }


def _answer(argv: List[str]) -> "tuple[int, Optional[str]]":
    """Run one command; its exit status and, on failure, the error message."""
    try:
        args = _parse(argv)
        load = load_trajectory_dataset if args.command == "pcnn" else load_database
        with open(args.dataset, "rb") as fh:
            dataset = load(fh)
        text = dumps_canonical(args.run(args, dataset))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return 0, None
    except CapExceededError as exc:
        return 2, str(exc)
    except (ValidationError, KeyError, OSError, ValueError, OverflowError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        return 1, str(message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, error = _answer(argv)
    # every call reports its own warnings, whatever ran before it in the process; the
    # error line, if any, stays last
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write(json.dumps({"warning": message}) + "\n")
    if error is not None:
        sys.stderr.write(json.dumps({"error": error}) + "\n")
    return code


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
