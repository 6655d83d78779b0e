"""Benchmark for bearlab: the `train`, `evaluate` and `prefix-ref` workloads.

    python3 bench/run.py --workload {train,evaluate,prefix-ref} --seed N \
        --seconds S --trace {0,1} [--data-seed N] [--run-seed N]

Run from the root of a source checkout; the package is imported from `src/`.
Set-up (synthetic data, `prepare_dataset`, and for `evaluate` a fixture
checkpoint) runs in this process at least three times and for at least 5 s
in all, once before the timed part and the rest after it; `setup_s` is the
median. The timed part runs in a child process so that its peak RSS counts
no set-up. The child repeats whole rounds of the same operations, with the
same seeds, until `--seconds` have passed; training workloads always do at
least two rounds so that two same-seed runs can be compared. It then checks
the outputs (see checks.py).

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` the child alternates untraced and traced rounds and
the JSON carries the per-layer metrics of the traced rounds, the set-up
layers, and the tracing overhead. The lines before it print the same numbers
for people, with details (per-objective throughput, evaluation worker count).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "bearlab", "__init__.py")):
        print(f"error: no bearlab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
