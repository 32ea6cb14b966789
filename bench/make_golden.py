"""Write bench/golden.json: the exact-grid outputs the benchmark checks against.

    python3 bench/make_golden.py

Rationals are stored as "numerator/denominator", floats as JSON numbers.
Regenerate only when a change is meant to alter these values; exact results
are expected to stay the same rationals.
"""

from fractions import Fraction

import json

import run
import workloads


def encode(value):
    value = getattr(value, "value", value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def main() -> None:
    rs = run.import_package()
    golden = {}
    for scale in workloads.SIZES:
        size = workloads.SIZES[scale]["exact-grid"]
        grid = workloads.ExactGrid(rs, size, golden={})
        for key, call, _check in grid.ops:
            if not key.startswith("two_suspect_chain_audit"):
                golden[key] = encode(call())
        delta, d, n = size["audit"]
        golden[f"pc_two_suspects({delta},{d},{n})"] = encode(
            rs.pc_two_suspects(delta, d, n, exact=True))
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
