"""The search sweep: every axiom and every bundle against every axiom.

Runs ``entails_bounded`` with each registry axiom and each bundle as the
premises and each registry axiom as the target, up to 3 things and 2 worlds,
with canonical pruning and without, and prints five lines:

    searches <number of searches>
    refuted <number of refuted verdicts>
    verdicts <md5 of the verdicts and the serialised counter-models>
    counters <md5 of the search counters>
    wall_s <seconds>

Two versions of the search engine give the same verdicts, counter-models and
counters exactly when the first four lines agree.  ``--out FILE`` also
writes the lines to FILE, so that two checkouts can be diffed:

    python tests/sweep.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ethica.dsl import serialize_model  # noqa: E402
from ethica.registry import BUNDLES, axiom_ids  # noqa: E402
from ethica.search import SearchConfig, entails_bounded  # noqa: E402

MAX_THINGS = 3
MAX_WORLDS = 2


def sweep() -> tuple[int, int, str, str]:
    """(searches, refuted, verdict/model digest, counter digest)."""
    verdicts = hashlib.md5()
    counters = hashlib.md5()
    searches = refuted = 0
    targets = axiom_ids()
    selectors = [[axiom_id] for axiom_id in targets] + list(BUNDLES)
    for pruning in ("canonical", "none"):
        config = SearchConfig(MAX_THINGS, MAX_WORLDS, pruning=pruning)
        for premises in selectors:
            for target in targets:
                verdict = entails_bounded(premises, target, config)
                searches += 1
                line = f"{premises} {target} {pruning} {verdict.describe()}\n"
                if verdict.is_refuted:
                    refuted += 1
                    line += serialize_model(verdict.model)
                verdicts.update(line.encode())
                counters.update(json.dumps(verdict.stats.to_json_dict(),
                                           sort_keys=True).encode() + b"\n")
    return searches, refuted, verdicts.hexdigest(), counters.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the report lines here")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    searches, refuted, verdict_md5, counter_md5 = sweep()
    wall = time.perf_counter() - start
    digest_lines = (f"searches {searches}\nrefuted {refuted}\n"
                    f"verdicts {verdict_md5}\ncounters {counter_md5}\n")
    print(digest_lines + f"wall_s {wall:.2f}", end="\n")
    if args.out:
        # The wall time differs between runs, so it stays out of the file.
        Path(args.out).write_text(digest_lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
