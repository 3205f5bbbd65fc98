import io
from dataclasses import replace

import pytest

from stabeval import corpus
from stabeval.corpus import ColumnMapping, Severity, bucket_layout, ingest, ingest_lines, stats
from stabeval.errors import (
    IncompleteRatings,
    InconsistentBuckets,
    MissingColumn,
    ParseError,
    ScoreMismatch,
)

from conftest import make_layout_dataset, rating_dict, rating_fields, tiny_tsv_rows


def test_ingest_tiny_fixture(tiny_tsv):
    ds = ingest(tiny_tsv)
    assert len(ds.buckets) == 1
    ratings = rating_dict(ds)
    assert len(ratings) == 12
    assert ds.language_pair == "xx-yy"
    rated = ratings[("doc1", 0, "sysA", "r1")]
    assert rated.score == 5.0  # one Major error at default weight
    assert rated.annotations[0].severity is Severity.MAJOR
    assert rated.annotations[0].span == (0, 4)
    assert ratings[("doc2", 0, "sysB", "r3")].score == 0.0


def test_stats_tiny_fixture(tiny_tsv):
    s = stats(ingest(tiny_tsv))
    assert s.n_documents == 2
    assert s.n_systems == 2
    assert s.n_raters == 3
    assert s.n_segments == 2
    assert s.bucket_doc_counts == {"b1": 2}


def test_bucket_layout_single_bucket(tiny_tsv):
    layout = bucket_layout(ingest(tiny_tsv))
    assert layout == [("b1", ("r1", "r2", "r3"), 2)]


def test_invalid_severity_rejected(tiny_tsv):
    rows = tiny_tsv_rows()
    rows[1] = rows[1].replace("Major", "Critical")
    with pytest.raises(ParseError, match="severity"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_severity_error_carries_line_number():
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", "\tCritical\tFluency\t\t\t\t")
    with pytest.raises(ParseError, match="line 5"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_incomplete_ratings_detected():
    rows = [r for r in tiny_tsv_rows() if "\tdoc2\t0\tsysB\tr3\t" not in r]
    with pytest.raises(IncompleteRatings, match="doc2"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_incomplete_ratings_names_first_hole_in_document_order():
    ds = make_layout_dataset(
        [2, 2], [("r1", "r2", "r3"), ("r4", "r5", "r6")], n_systems=3, segs_per_doc=2
    )
    holes = {("d001", 0, "s01", "r2"), ("d001", 1, "s01", "r1"), ("d001", 0, "s02", "r1"),
             ("d003", 0, "s00", "r4"), ("d003", 1, "s00", "r4")}
    ratings = rating_fields(
        {k: v for k, v in rating_dict(ds).items() if k not in holes},
        ds.systems, ds.documents, ds.raters,
    )
    with pytest.raises(IncompleteRatings) as exc:
        replace(ds, **ratings).validate()
    # documents in insertion order, then system, rater, segment
    assert str(exc.value) == "missing rating for doc=d001 seg=1 system=s01 rater=r1"
    reordered = dict(reversed(list(ds.documents.items())))
    with pytest.raises(IncompleteRatings) as exc:
        replace(ds, documents=reordered, **ratings).validate()
    assert str(exc.value) == "missing rating for doc=d003 seg=0 system=s00 rater=r4"


def test_rating_outside_document_segments_rejected():
    ds = make_layout_dataset([2], [("r1", "r2", "r3")], segs_per_doc=2)
    # d000 keeps the scores of a second segment it no longer has.
    with pytest.raises(InconsistentBuckets) as exc:
        replace(ds, documents={"d000": 1, "d001": 2}).validate()
    assert str(exc.value) == (
        "rating outside its document's segments or bucket: doc=d000 seg=1 system=s00 rater=r1"
    )
    # A segment beyond the arrays' segment axis would have no cell at all.
    with pytest.raises(ValueError, match="do not fit axes"):
        replace(ds, documents={"d000": 3, "d001": 2})


def test_rating_by_rater_outside_bucket_rejected():
    ds = make_layout_dataset([1, 1], [("r1", "r2"), ("r3", "r4")], n_systems=3, segs_per_doc=2)
    scores = ds.scores.copy()
    scores[ds.system_pos["s02"], ds.doc_pos["d001"], 1, ds.rater_pos["r2"]] = 0.5
    with pytest.raises(InconsistentBuckets) as exc:
        replace(ds, scores=scores).validate()
    assert str(exc.value) == (
        "rating outside its document's segments or bucket: doc=d001 seg=1 system=s02 rater=r2"
    )


def test_nan_score_rejected():
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", "\t\t\t\t\tnan\t")
    with pytest.raises(ParseError, match="line 5: invalid score"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_missing_required_column():
    with pytest.raises(MissingColumn, match="rater_id"):
        ingest_lines(io.StringIO("doc_id\tseg_index\tsystem_id\n"))


def test_score_mismatch_detected():
    rows = tiny_tsv_rows()
    # attach a wrong precomputed score to an error row
    rows[1] = rows[1].replace("\t0\t4\t\t", "\t0\t4\t3.0\t")
    with pytest.raises(ScoreMismatch):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_conflicting_explicit_buckets():
    rows = tiny_tsv_rows()
    rows[-1] = rows[-1].replace("\tb1\t", "\tb2\t")
    with pytest.raises(InconsistentBuckets):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_ingest_row_order_invariant(tiny_tsv):
    rows = tiny_tsv_rows()
    shuffled = [rows[0]] + list(reversed(rows[1:]))
    a = ingest(tiny_tsv)
    b = ingest_lines(io.StringIO("\n".join(shuffled)))
    assert corpus.fingerprint(a) == corpus.fingerprint(b)


def test_roundtrip_export_ingest(tiny_tsv):
    ds = ingest(tiny_tsv)
    again = ingest_lines(io.StringIO(corpus.export_tsv(ds)))
    assert corpus.fingerprint(ds) == corpus.fingerprint(again)


def test_bucket_inference_matches_explicit_column(tiny_tsv):
    rows = tiny_tsv_rows()
    header = rows[0].split("\t")
    bucket_col = header.index("bucket_id")
    stripped = [rows[0]]
    for row in rows[1:]:
        cells = row.split("\t")
        cells[bucket_col] = ""
        stripped.append("\t".join(cells))
    explicit = ingest(tiny_tsv)
    inferred = ingest_lines(io.StringIO("\n".join(stripped)))
    assert {b.doc_ids for b in explicit.buckets} == {b.doc_ids for b in inferred.buckets}
    assert {b.rater_ids for b in explicit.buckets} == {b.rater_ids for b in inferred.buckets}


def test_column_mapping_renames(tmp_path):
    rows = tiny_tsv_rows()
    header = rows[0].replace("doc_id", "document").replace("rater_id", "annotator")
    path = tmp_path / "renamed.tsv"
    path.write_text("\n".join([header] + rows[1:]) + "\n")
    mapping_path = tmp_path / "mapping.cfg"
    mapping_path.write_text(
        "[columns]\n"
        "doc_id = document\n"
        "seg_index = seg_index\n"
        "system_id = system_id\n"
        "rater_id = annotator\n"
        "severity = severity\n"
        "category = category\n"
        "bucket_id = bucket_id\n"
        "lang_pair = lang_pair\n"
        "score = score\n"
    )
    ds = ingest(path, mapping=ColumnMapping.from_file(mapping_path))
    assert len(rating_dict(ds)) == 12


def test_span_exceeding_target_rejected():
    rows = tiny_tsv_rows()
    rows[1] = rows[1].replace("\t0\t4\t", "\t0\t400\t")
    with pytest.raises(ParseError, match="span"):
        ingest_lines(io.StringIO("\n".join(rows)))


def test_score_only_ingestion():
    lines = ["doc_id\tseg_index\tsystem_id\trater_id\tscore"]
    for doc in ("d1", "d2"):
        for system in ("a", "b"):
            for rater in ("r1", "r2"):
                lines.append(f"{doc}\t0\t{system}\t{rater}\t1.5")
    ds = ingest_lines(io.StringIO("\n".join(lines)))
    assert all(r.annotations is None for r in rating_dict(ds).values())
    assert all(r.score == 1.5 for r in rating_dict(ds).values())
