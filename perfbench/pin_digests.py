"""Write digests.json: the sha256 of every corpus_cli report that does not
depend on the CLI seed. Run from the repository root at the commit whose
reports are the reference:

    python3 perfbench/pin_digests.py

The digest covers workloads.seed_free of the report; a successful verify
has no digest, its oracle is completeness. The script refuses to pin a report that changes
with the seed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> None:
    paths = workloads.corpus_paths(ROOT)
    digests = {}
    for command in workloads.COMMANDS:
        for doc in workloads.CORPUS + workloads.MUTANTS:
            seen = set()
            for seed in ("1", "2", "42", "1000", "1001", "5003", "12345"):
                code, text = workloads.run_cli([command, paths[doc], "--seed", seed])
                if code != workloads.expected_exit(command, doc):
                    raise SystemExit(f"{command} {doc}: unexpected exit {code}")
                if command == "verify" and code == 0:
                    break
                seen.add(workloads.sha256(workloads.seed_free(command, code, text)))
            if len(seen) > 1:
                raise SystemExit(f"{command} {doc}: report depends on the seed")
            if seen:
                digests[f"{command} {doc}"] = seen.pop()
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} reports in {workloads.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
