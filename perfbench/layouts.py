"""Seeded synthetic TSV builders for the two released rater layouts.

Both layouts have 181 documents.  The rotation layout (EN-DE-like) has 7
buckets whose rater triples rotate over raters A-G, 15 systems and 1,315
segments; its rows are score-only.  The disjoint layout (EN-ZH-like) has two
buckets with disjoint rater triples, 13 systems and 2,037 segments, and one
row per Major/Minor error span, so ingest parses spans and the ``error``
normalization has error counts to work with.

Scores follow ``harshness[rater] * (difficulty[doc] + quality[system] +
item noise)`` times per-rating observation noise; on the disjoint layout that
product, scaled, is the Poisson rate of the error counts instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = (
    "lang_pair",
    "bucket_id",
    "doc_id",
    "seg_index",
    "system_id",
    "rater_id",
    "severity",
    "category",
    "span_start",
    "span_end",
    "score",
    "target_text",
)

# (category, Major weight, Minor weight) under the default weight table.
CATEGORIES = (
    ("Accuracy/Mistranslation", 5.0, 1.0),
    ("Accuracy/Omission", 5.0, 1.0),
    ("Fluency/Grammar", 5.0, 1.0),
    ("Fluency/Punctuation", 5.0, 0.1),
    ("Style/Awkward", 5.0, 1.0),
    ("Terminology/Inappropriate", 5.0, 1.0),
)
MAJOR_SHARE = 0.2
# Scales the score model into an error rate of about one error per segment.
ERROR_RATE = 0.4
# With at least this many segments per document and the floor below, a rater
# finding no error in a whole document (which makes the multiplicative
# normalizations undefined) has an expected count of about 3e-6 per dataset.
MIN_SEGMENTS = 3
TRUTH_FLOOR = 0.3


@dataclass(frozen=True)
class Layout:
    name: str
    language_pair: str
    bucket_sizes: tuple[int, ...]
    bucket_raters: tuple[tuple[str, ...], ...]
    n_systems: int
    n_segments: int
    error_spans: bool

    @property
    def n_documents(self) -> int:
        return sum(self.bucket_sizes)


ROTATION = Layout(
    name="rotation",
    language_pair="en-de",
    bucket_sizes=(26, 26, 26, 26, 26, 26, 25),
    bucket_raters=tuple(
        tuple("ABCDEFG"[(b + k) % 7] for k in range(3)) for b in range(7)
    ),
    n_systems=15,
    n_segments=1315,
    error_spans=False,
)

DISJOINT = Layout(
    name="disjoint",
    language_pair="en-zh",
    bucket_sizes=(90, 91),
    bucket_raters=(("H", "I", "J"), ("K", "L", "M")),
    n_systems=13,
    n_segments=2037,
    error_spans=True,
)


def segment_counts(layout: Layout, rng) -> np.ndarray:
    """Segments per document, at least MIN_SEGMENTS each, summing to the released total."""
    n_docs = layout.n_documents
    shares = rng.dirichlet(np.full(n_docs, 4.0))
    return MIN_SEGMENTS + rng.multinomial(layout.n_segments - MIN_SEGMENTS * n_docs, shares)


def build_tsv(layout: Layout, seed: int) -> str:
    """Return the canonical TSV text of one seeded dataset for ``layout``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, layout.n_segments)))
    seg_counts = segment_counts(layout, rng)
    systems = [f"sys{s:02d}" for s in range(layout.n_systems)]
    quality = rng.permutation(np.linspace(0.0, 1.0, layout.n_systems))
    raters = sorted({r for triple in layout.bucket_raters for r in triple})
    harshness = dict(zip(raters, rng.uniform(0.6, 2.0, size=len(raters))))
    rows = ["\t".join(HEADER)]
    doc = 0
    for b, (size, triple) in enumerate(zip(layout.bucket_sizes, layout.bucket_raters)):
        bucket_id = f"b{b}"
        for _ in range(size):
            doc_id = f"doc{doc:03d}"
            n_segs = int(seg_counts[doc])
            doc += 1
            difficulty = rng.uniform(0.5, 1.5)
            lengths = rng.integers(20, 120, size=n_segs)
            for s, system_id in enumerate(systems):
                truth = np.maximum(
                    difficulty + quality[s] + rng.normal(0.0, 0.6, size=n_segs), TRUTH_FLOOR
                )
                for rater_id in triple:
                    rate = harshness[rater_id] * truth
                    prefix = f"{layout.language_pair}\t{bucket_id}\t{doc_id}"
                    for seg in range(n_segs):
                        key = f"{prefix}\t{seg}\t{system_id}\t{rater_id}"
                        if layout.error_spans:
                            rows.extend(
                                _error_rows(
                                    key, int(lengths[seg]), ERROR_RATE * rate[seg], rng
                                )
                            )
                        else:
                            score = rate[seg] * np.exp(rng.normal(0.0, 0.3))
                            rows.append(f"{key}\t\t\t\t\t{float(score)!r}\t")
    return "\n".join(rows) + "\n"


def _error_rows(key: str, length: int, rate: float, rng) -> list[str]:
    n_errors = int(rng.poisson(rate))
    if n_errors == 0:
        return [f"{key}\t\t\t\t\t0.0\t"]
    target = "x" * length
    errors = []
    score = 0.0
    for _ in range(n_errors):
        category, major_w, minor_w = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        major = rng.random() < MAJOR_SHARE
        score += major_w if major else minor_w
        start = int(rng.integers(length))
        end = int(rng.integers(start, length + 1))
        errors.append((("Major" if major else "Minor"), category, start, end))
    return [
        f"{key}\t{sev}\t{cat}\t{start}\t{end}\t{score!r}\t{target}"
        for sev, cat, start, end in errors
    ]
