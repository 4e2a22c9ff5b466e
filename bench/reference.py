"""Fixed reference loop; prints its own wall time in seconds.

    python -I -S bench/reference.py

The benchmark runs it right before and right after every measured
child, on the same CPU, and scales the child's rate by its mean time,
so that changes in the machine's speed cancel. Its duration is the unit
of `windows_per_ref`: changing the loop makes results before and after
the change incomparable.
"""

import time


def main() -> None:
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
