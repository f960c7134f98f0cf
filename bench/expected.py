"""Reference answers for the ``reproduce`` workload.

The table is written out here, not read from ``fanobalance.database``, so
that an edit to the record data cannot move the yardstick with it.  Each
row is the Picard rank, the verdict of the balanced-line-bundle
classification and the exceptional-set text the classifier assembles.
``rank1-r1-d2`` (index 1, degree 2, not very ample) is deliberately left
unclassified: the decision procedure must refuse it.
"""

UNCLASSIFIED = "rank1-r1-d2"

_LINES = "surface swept out by anticanonical lines"

# name: (Picard rank, verdict, exceptional set)
VERDICTS = {
    "rank1-P3": (1, "balanced", "empty"),
    "rank1-quadric": (1, "balanced", "empty"),
    "rank1-r1-d2": (1, "unclassified", None),
    "rank1-r1-d4": (1, "weakly a-balanced", _LINES),
    "rank1-r1-d6": (1, "weakly a-balanced", _LINES),
    "rank1-r1-d8": (1, "weakly a-balanced", _LINES),
    "rank1-r1-d10": (1, "weakly balanced", _LINES),
    "rank1-r1-d12": (1, "weakly balanced", _LINES),
    "rank1-r1-d14": (1, "weakly balanced", _LINES),
    "rank1-r1-d16": (1, "weakly balanced", _LINES),
    "rank1-r1-d18": (1, "weakly balanced", _LINES),
    "rank1-r1-d22": (1, "weakly balanced", _LINES),
    "rank1-r2-d8": (1, "weakly a-balanced", "empty"),
    "rank1-r2-d16": (1, "weakly balanced", "empty"),
    "rank1-r2-d24": (1, "weakly balanced", "empty"),
    "rank1-r2-d32": (1, "weakly balanced", "empty"),
    "rank1-r2-d40": (1, "weakly balanced", "empty"),
    "rank2-d6": (2, "weakly a-balanced",
                 "union of singular fibers of f1 and f2, and lines in general fibers of f2"),
    "rank2-d12": (2, "balanced", "union of singular fibers of f1 and f2"),
    "rank2-d14": (2, "balanced", "union of singular fibers of f1 and D"),
    "rank2-d24": (2, "weakly balanced", "union of singular fibers of f1"),
    "rank2-d30": (2, "balanced", "union of singular fibers of f1"),
    "rank2-d48": (2, "balanced", "empty"),
    "rank2-d54": (2, "balanced", "empty"),
    "rank2-d56": (2, "balanced", "D"),
    "rank2-d62": (2, "balanced", "D"),
}

# verify_all summary: (matched, mismatched, unclassified)
SUMMARY = (25, 0, 1)
