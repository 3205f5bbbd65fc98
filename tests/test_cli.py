import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import stabeval
from stabeval.cli import main
from stabeval.corpus import export_tsv

from conftest import ROTATION_LAYOUT, make_layout_dataset, tiny_tsv_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layouts  # noqa: E402

GEN_CFG = """\
[generator]
n_documents = 12
segments_per_doc = 2
n_systems = 4
n_buckets = 2
harshness = 0.5 1.0 2.0
item_noise_sigma = 0.6
quality_range = 0.0 1.0
"""

SWEEP_CFG = """\
[sweep]
doc_counts = 6 12
seed = 3
n_simulations = 10
n_permutations = 50
[study:balanced]
item_grouping = psxs
[study:zscore]
item_grouping = no_grouping
normalization = zscore
"""

STUDY_CFG = """\
[study]
item_grouping = psxs
num_documents = 8
n_permutations = 100
seed = 5
"""


@pytest.fixture
def synth_tsv(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG)
    out = tmp_path / "synth.tsv"
    assert main(["gen", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    return out


def test_gen_bytes_pinned(synth_tsv):
    assert hashlib.sha256(synth_tsv.read_bytes()).hexdigest() == (
        "555ea6759b627e735bf209b328b54878da52b61addcd47ed27164230c88eabe8"
    )


def test_validate_ok(tiny_tsv, capsys):
    assert main(["validate", "--dataset", str(tiny_tsv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert "documents" in out


def test_validate_missing_rating_fails(tmp_path, capsys):
    rows = [r for r in tiny_tsv_rows() if "\tdoc2\t0\tsysB\tr3\t" not in r]
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["validate", "--dataset", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_validate_malformed_severity_reports_line(tmp_path, capsys):
    rows = tiny_tsv_rows()
    rows[4] = rows[4].replace("\t\t\t\t\t\t", "\tCritical\tFluency\t\t\t\t")
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["validate", "--dataset", str(path)]) == 1
    assert "line 5" in capsys.readouterr().err


def test_gen_validate_roundtrip(synth_tsv, capsys):
    assert main(["validate", "--dataset", str(synth_tsv)]) == 0
    out = capsys.readouterr().out
    assert "documents:         12" in out
    assert "systems:           4" in out


def test_stats_command(synth_tsv, capsys):
    assert main(["stats", "--dataset", str(synth_tsv)]) == 0
    out = capsys.readouterr().out
    assert "raters:            6" in out


def test_simulate_prints_ranking(synth_tsv, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CFG)
    code = main(["simulate", "--dataset", str(synth_tsv), "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ranking" in out
    assert "significantly-better matrix" in out
    for i in range(4):
        assert f"sys{i:02d}" in out


def test_sweep_outputs(synth_tsv, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out_dir = tmp_path / "out"
    code = main(
        ["sweep", "--dataset", str(synth_tsv), "--config", str(cfg), "--out", str(out_dir)]
    )
    assert code == 0
    csv_text = (out_dir / "sweep.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("label,")
    assert len(lines) == 1 + 2 * 2  # two studies x two doc counts
    payload = json.loads((out_dir / "sweep.json").read_text())
    assert len(payload["points"]) == 4
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) >= {
        "version", "config_hash", "master_seed", "dataset_fingerprint",
        "started_at", "finished_at",
    }


def test_sweep_thread_count_does_not_change_csv(synth_tsv, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    main(["sweep", "--dataset", str(synth_tsv), "--config", str(cfg),
          "--out", str(out1), "--threads", "1"])
    main(["sweep", "--dataset", str(synth_tsv), "--config", str(cfg),
          "--out", str(out2), "--threads", "2"])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_agreement_outputs(synth_tsv, tmp_path):
    out_dir = tmp_path / "agree"
    assert main(["agreement", "--dataset", str(synth_tsv), "--out", str(out_dir)]) == 0
    tau_lines = (out_dir / "pairwise_tau.csv").read_text().strip().split("\n")
    assert tau_lines[0] == "rater_a,rater_b,single_document_tau,all_shared_tau"
    assert any(line.startswith("GRAND_MEAN") for line in tau_lines)
    hist_lines = (out_dir / "rater_histograms.csv").read_text().strip().split("\n")
    assert hist_lines[0] == "rater,bin_left,bin_right,count,mean,median"
    assert len(hist_lines) > 1


# sha256 of pairwise_tau.csv and rater_histograms.csv from ``agreement`` on
# perfbench's two layouts at seed 1, as written when the taus came from
# scipy.stats.kendalltau.
AGREEMENT_SHA256 = {
    "rotation": ("957c9ffcce9d745ee25ce82f265feb8ae30573c262ecb2286ba956afe1f17703",
                 "55a4f874e0e0ef7670004a2a00b04a1159ed629e09789bb47ee6d6c7192b50c9"),
    "disjoint": ("7f162eec73295ae91f8ecb33db14cee4a50c8754f13a4d30484b05a0c1b7af71",
                 "9937c5d607a90beb1271422ed629fddbee0f8684e892108bfaf25cc03b9bf158"),
}


@pytest.mark.parametrize("bucket_column", [True, False], ids=["buckets", "inferred"])
@pytest.mark.parametrize("layout_name", sorted(AGREEMENT_SHA256))
def test_agreement_bytes_on_perfbench_layouts(layout_name, bucket_column, tmp_path):
    """The agreement files keep their bytes on both benchmark layouts, with
    the bucket column and with buckets inferred from the rater sets."""
    text = layouts.build_tsv(getattr(layouts, layout_name.upper()), 1)
    if not bucket_column:
        assert text.startswith("lang_pair\tbucket_id\t")
        rows = [line.split("\t") for line in text.splitlines(True)]
        text = "".join("\t".join(row[:1] + row[2:]) for row in rows)
    path, out_dir = tmp_path / "layout.tsv", tmp_path / "agree"
    path.write_text(text)
    assert main(["agreement", "--dataset", str(path), "--out", str(out_dir)]) == 0
    digests = tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                    for name in ("pairwise_tau.csv", "rater_histograms.csv"))
    assert digests == AGREEMENT_SHA256[layout_name]


def test_usage_error_exit_code():
    assert main(["sweep", "--dataset", "x.tsv"]) == 2  # missing required args
    assert main(["no-such-command"]) == 2
    sweep = ["sweep", "--dataset", "x.tsv", "--config", "s.cfg", "--out", "o"]
    assert main(sweep + ["--threads", "0"]) == 2
    assert main(sweep + ["--threads", "-3"]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["validate", "--dataset", str(tmp_path / "missing.tsv")]) == 3


@pytest.mark.parametrize(
    "command, prefix",
    [("validate", "INVALID: "), ("stats", "error: "), ("sweep", "error: ")],
)
def test_dataset_not_utf8_exit_code(tmp_path, capsys, command, prefix):
    tsv = tmp_path / "latin1.tsv"
    tsv.write_bytes(b"d\xe9")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    argv = [command, "--dataset", str(tsv)]
    if command == "sweep":
        argv += ["--config", str(cfg), "--out", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(prefix) and "not UTF-8" in err and "0xe9" in err


@pytest.mark.parametrize(
    "study, doc_counts",
    [
        ("load_balancing = entropy_target:1.5\n", "6"),
        ("item_grouping = system_balanced\nload_balancing = entropy_target:0.5\n", "6"),
        ("item_grouping = psxs\n", "6 24"),
        ("n_permutations = 0\n", "6"),
        ("n_permutations = 5\n", "6"),
        ("entropy_tolerance = wide\n", "6"),
        ("item_grouping = psxs\nitem_grouping = psxs\n", "6"),
        ("", "6\ndoc_counts = 12"),
        ("alpha = 5%\n", "6"),
        ("", ""),
        ("n_simulation = 3\n", "6"),
        ("normalisation = zscore\n", "6"),
        ("[studies:x]\nitem_grouping = psxs\n", "6"),
    ],
    ids=[
        "entropy_target_above_one",
        "system_balanced_with_entropy_target",
        "doc_count_above_pool",
        "zero_permutations",
        "permutations_cannot_reach_alpha",
        "entropy_tolerance_not_a_number",
        "duplicate_key_in_study",
        "duplicate_key_in_sweep",
        "percent_in_value",
        "empty_doc_counts",
        "misspelt_n_simulations",
        "misspelt_normalization",
        "unknown_section",
    ],
)
def test_sweep_config_error_exit_code(synth_tsv, tmp_path, capsys, study, doc_counts):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"[sweep]\ndoc_counts = {doc_counts}\nseed = 3\nn_simulations = 4\n"
        f"n_permutations = 50\n[study:bad]\n{study}"
    )
    code = main(
        ["sweep", "--dataset", str(synth_tsv), "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--threads", "2"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "srp=" not in err  # rejected before any sweep point ran


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", SWEEP_CFG.replace("seed = 3", "n_simulation = 3"),
         "unknown key 'n_simulation' in [sweep]"),
        ("sweep", SWEEP_CFG + "normalisation = zscore\n",
         "unknown key 'normalisation' in [study:zscore]"),
        ("sweep", SWEEP_CFG + "[studies:x]\n", "unknown section [studies:x]"),
        ("simulate", STUDY_CFG + "num_document = 4\n", "unknown key 'num_document' in [study]"),
        ("gen", GEN_CFG + "n_document = 4\n", "unknown key 'n_document' in [generator]"),
        ("gen", GEN_CFG + "[generate]\n", "unknown section [generate]"),
        ("sweep", SWEEP_CFG + "[study]\n[study:study]\n",
         "two study sections share the label 'study'"),
        # run_sweep would label the third study config2.
        ("sweep", SWEEP_CFG + "[study:]\n[study:config2]\n", "[study:] has an empty NAME"),
    ],
    ids=["sweep_key", "study_key", "sweep_section", "simulate_key", "generator_key",
         "generator_section", "repeated_label", "empty_label"],
)
def test_unknown_config_key_or_section_exit_code(synth_tsv, tmp_path, capsys, command, config,
                                                 message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg)]
    if command != "gen":
        argv += ["--dataset", str(synth_tsv)]
    if command != "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert "Traceback" not in err and "srp=" not in err
    assert not (tmp_path / "out").exists()


def sweep_small_pool(tmp_path, out):
    """``stabeval sweep`` without doc_counts on an 8-document pool, which the
    default grid (starting at 10 documents) rejects."""
    gen = tmp_path / "gen.cfg"
    gen.write_text("[generator]\nn_documents = 8\nn_buckets = 2\n")
    tsv = tmp_path / "small.tsv"
    assert main(["gen", "--config", str(gen), "--out", str(tsv)]) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[sweep]\nn_simulations = 4\nn_permutations = 50\n[study:a]\n")
    return main(["sweep", "--dataset", str(tsv), "--config", str(cfg), "--out", str(out)])


def test_sweep_default_grid_on_a_small_pool_exit_code(tmp_path, capsys):
    code = sweep_small_pool(tmp_path, tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "has 8 documents" in err and "smallest count 10" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_rejected_sweep_leaves_no_output_directory(tmp_path):
    assert sweep_small_pool(tmp_path, tmp_path / "results" / "out") == 1
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("tolerance", ["-0.1", "nan"])
def test_bad_entropy_tolerance_exit_code(synth_tsv, tmp_path, capsys, tolerance):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[sweep]\ndoc_counts = 6\nn_simulations = 4\nn_permutations = 50\n[study:bad]\n"
        f"load_balancing = entropy_target:0.9\nentropy_tolerance = {tolerance}\n"
    )
    code = main(["sweep", "--dataset", str(synth_tsv), "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and f"entropy_tolerance must be >= 0, got {tolerance}" in err
    assert "Traceback" not in err
    assert "srp=" not in err  # rejected when the config loads, not after 1,000 attempts


@pytest.mark.parametrize(
    "command, config, seed_args, code, message",
    [
        ("sweep", SWEEP_CFG, ["--seed", "-1"], 1, "error: seed must be >= 0, got -1"),
        ("sweep", SWEEP_CFG.replace("seed = 3", "seed = -5"), [], 1,
         "error: seed must be >= 0, got -5"),
        ("simulate", STUDY_CFG, ["--seed", "-1"], 1, "error: seed must be >= 0, got -1"),
        ("gen", GEN_CFG, ["--seed", "-1"], 2, "argument --seed: must be >= 0, got -1"),
    ],
    ids=["sweep_flag", "sweep_config", "simulate_flag", "gen_flag"],
)
def test_negative_seed_exit_code(synth_tsv, tmp_path, capsys, command, config, seed_args,
                                 code, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg), *seed_args]
    if command == "gen":
        argv += ["--out", str(tmp_path / "neg.tsv")]
    else:
        argv += ["--dataset", str(synth_tsv)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("usage: " if code == 2 else "error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "neg.tsv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "option, text",
    [
        ("--weights", "[weights]\nMajor = 5\nMajor = 6\n"),
        ("--weights", "Major = 5\n"),
        ("--mapping", "[columns]\ndoc_id = doc\ndoc_id = document\n"),
        ("--config", "[generator]\nn_documents = 12\nn_documents = 14\n"),
        ("--config", "[generator]\nlanguage_pair = caf\xe9\n".encode("latin-1")),
    ],
    ids=["weights_duplicate_key", "weights_no_section_header", "mapping_duplicate_key",
         "generator_duplicate_key", "generator_not_utf8"],
)
def test_config_file_syntax_error_exit_code(tiny_tsv, tmp_path, capsys, option, text):
    cfg = tmp_path / "file.cfg"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    if option == "--config":
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "synth.tsv")]
    else:
        argv = ["stats", "--dataset", str(tiny_tsv), option, str(cfg)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, text, section",
    [
        ("--mapping", "[column]\ndoc_id = doc_id\n", "[column]: expected [columns]"),
        ("--mapping", "[columns]\ndoc_id = doc_id\n[extra]\n", "[extra]: expected [columns]"),
        ("--weights", "[weight]\nMajor = 5\nMinor = 1\n", "[weight]: expected [weights]"),
    ],
    ids=["mapping_section", "mapping_extra_section", "weights_section"],
)
def test_unknown_mapping_or_weights_section_exit_code(tiny_tsv, tmp_path, capsys, option, text,
                                                      section):
    cfg = tmp_path / "file.cfg"
    cfg.write_text(text)
    assert main(["validate", "--dataset", str(tiny_tsv), option, str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: unknown section {section}\n"


def test_repeated_doc_count_exit_code(synth_tsv, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("doc_counts = 6 12", "doc_counts = 4 8 4"))
    out = tmp_path / "out"
    code = main(["sweep", "--dataset", str(synth_tsv), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: doc_counts lists 4 twice\n"
    assert not out.exists()


def test_simulate_documents_above_pool_exit_code(synth_tsv, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CFG.replace("num_documents = 8", "num_documents = 500"))
    code = main(["simulate", "--dataset", str(synth_tsv), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "the dataset has 12" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_weight_exit_code(tiny_tsv, tmp_path, capsys, value):
    weights = tmp_path / "weights.cfg"
    weights.write_text(f"[weights]\nMajor = {value}\nMinor = 1\n")
    code = main(["validate", "--dataset", str(tiny_tsv), "--weights", str(weights)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: non-finite weight") and "Major:" in err
    assert "Traceback" not in err


INVALID_SPECS = [
    ("n_systems = 1\n", "need at least 2 systems"),
    ("harshness = nan\n", "harshness must be finite, got nan"),
    ("harshness = 1 inf\n", "harshness must be finite, got 1.0 inf"),
    ("quality_range = 0 inf\n", "quality_range must be finite, got 0.0 inf"),
    ("quality_range = nan 2\n", "quality_range must be finite, got nan 2.0"),
    ("base_range = 0.5 nan\n", "base_range must be finite, got 0.5 nan"),
    ("item_noise_sigma = inf\n", "item_noise_sigma must be finite, got inf"),
    ("rater_noise_sigma = nan\n", "rater_noise_sigma must be finite, got nan"),
    ("doc_preference_sigma = -inf\n", "doc_preference_sigma must be finite, got -inf"),
]


def test_gen_invalid_spec_exit_code(tmp_path, capsys, recwarn):
    for i, (spec, message) in enumerate(INVALID_SPECS):
        cfg = tmp_path / f"gen{i}.cfg"
        cfg.write_text(f"[generator]\nn_documents = 4\nn_buckets = 2\n{spec}")
        out = tmp_path / f"synth{i}.tsv"
        code = main(["gen", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, spec
        assert err.startswith(f"error: {message}"), err
        assert "noise sigmas" not in err
        assert not out.exists()
    assert not recwarn.list


def run_python(*argv: str, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh process that imports this stabeval, with
    ``env`` added to the environment."""
    src = str(Path(stabeval.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
        capture_output=True, text=True, timeout=60,
    )


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m stabeval`` in a fresh process, so warnings reach its stderr."""
    return run_python("-m", "stabeval", *argv)


def test_import_loads_no_scipy():
    result = run_python(
        "-c", "import sys, stabeval, stabeval.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# With ``sys.modules["scipy"] = None`` any import of scipy raises ImportError.
NO_SCIPY_COMMANDS = """\
import sys
sys.modules["scipy"] = None
from stabeval.cli import main
tsv, gen_cfg, sweep_cfg, out = sys.argv[1:]
print([main(argv) for argv in (
    ["gen", "--config", gen_cfg, "--out", tsv, "--seed", "7"],
    ["validate", "--dataset", tsv],
    ["agreement", "--dataset", tsv, "--out", out + "/agree"],
    ["sweep", "--dataset", tsv, "--config", sweep_cfg, "--out", out + "/sweep"],
)])
"""


def test_commands_run_without_scipy(tmp_path):
    gen_cfg, sweep_cfg = tmp_path / "gen.cfg", tmp_path / "sweep.cfg"
    gen_cfg.write_text(GEN_CFG)
    sweep_cfg.write_text(SWEEP_CFG)
    result = run_python("-c", NO_SCIPY_COMMANDS, str(tmp_path / "synth.tsv"),
                        str(gen_cfg), str(sweep_cfg), str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
    assert (tmp_path / "sweep" / "sweep.csv").is_file()


# gen with a non-ASCII language pair, then agreement and sweep on its dataset
# with rater00 renamed to a non-ASCII id; prints the exit codes.  The script
# is ASCII, as the C locale decodes it.
NON_ASCII_COMMANDS = """\
import sys
from pathlib import Path
from stabeval.cli import main
gen_cfg, sweep_cfg, study_cfg, out = sys.argv[1:]
gen_tsv, tsv = Path(out, "gen.tsv"), Path(out, "renamed.tsv")
codes = [main(["gen", "--config", gen_cfg, "--out", str(gen_tsv), "--seed", "7"])]
text = gen_tsv.read_text(encoding="utf-8").replace("rater00", "r\\u00e1ter00")
tsv.write_text(text, encoding="utf-8")
codes.append(main(["agreement", "--dataset", str(tsv), "--out", out]))
codes.append(main(["sweep", "--dataset", str(tsv), "--config", sweep_cfg, "--out", out]))
codes += [main([command, "--dataset", str(tsv)]) for command in ("validate", "stats")]
codes.append(main(["simulate", "--dataset", str(tsv), "--config", study_cfg]))
print(codes)
"""


def test_output_files_are_utf8_in_every_locale(tmp_path):
    """Under the C locale without UTF-8 mode, a non-ASCII study label ended a
    sweep in a UnicodeEncodeError after a partial sweep.csv, and a non-ASCII
    id or label printed on stdout ended validate, stats and simulate in one.
    Every output file is UTF-8 whatever the locale; stdout escapes what the
    locale cannot encode."""
    gen_cfg, sweep_cfg = tmp_path / "gen.cfg", tmp_path / "sweep.cfg"
    study_cfg = tmp_path / "study.cfg"
    gen_cfg.write_text(GEN_CFG + "language_pair = en-dë\n", encoding="utf-8")
    sweep_cfg.write_text(SWEEP_CFG.replace("[study:balanced]", "[study:naïve]"),
                         encoding="utf-8")
    study_cfg.write_text(STUDY_CFG.replace("[study]", "[study:naïve]"), encoding="utf-8")
    outputs = {}
    for name, env in (
        ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
        ("utf8", {"PYTHONUTF8": "1"}),
    ):
        out = tmp_path / name
        out.mkdir()
        result = run_python("-c", NON_ASCII_COMMANDS, str(gen_cfg), str(sweep_cfg),
                            str(study_cfg), str(out), env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"
        escaped = name == "c"
        assert ("r\\xe1ter00" if escaped else "ráter00") in result.stdout
        assert ("ranking (na\\xefve," if escaped else "ranking (naïve,") in result.stdout
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert sorted(outputs["c"]) == ["gen.tsv", "pairwise_tau.csv", "rater_histograms.csv",
                                    "renamed.tsv", "sweep.csv", "sweep.json"]
    assert outputs["c"] == outputs["utf8"]
    assert "naïve,psxs".encode() in outputs["c"]["sweep.csv"]
    assert "ráter00".encode() in outputs["c"]["pairwise_tau.csv"]
    assert "en-dë".encode() in outputs["c"]["gen.tsv"]


def test_mean_normalization_of_a_tiny_rater_mean_exit_code(synth_tsv, tmp_path):
    """rater00's scores times 1e-300 and the others' times 1e100 pass validate,
    but the mean scheme's factor, study mean / rater mean, overflows for
    rater00.  The sweep used to warn, print SRP 1 for its first point and exit
    3 blaming the systems' segments; it now names the rater and writes nothing."""
    rows = [line.split("\t") for line in synth_tsv.read_text().splitlines()]
    score, rater = rows[0].index("score"), rows[0].index("rater_id")
    for row in rows[1:]:
        row[score] = repr(float(row[score]) * (1e-300 if row[rater] == "rater00" else 1e100))
    path, cfg, out_dir = tmp_path / "scaled.tsv", tmp_path / "sweep.cfg", tmp_path / "out"
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    cfg.write_text(SWEEP_CFG.split("[study:")[0] + "[study:mean]\nnormalization = mean\n")
    assert main(["validate", "--dataset", str(path)]) == 0
    result = run_cli("sweep", "--dataset", str(path), "--config", str(cfg), "--out", str(out_dir))
    assert result.returncode == 3
    assert result.stderr == (
        "error: normalized ratings are not finite for ['rater00']: their mean score is too "
        "small beside the study mean\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra", ["", "item_noise_sigma = 50\n"], ids=["inf_scores", "nan_scores"]
)
def test_gen_non_finite_scores_exit_code(tmp_path, extra):
    # exp(400 * z) overflows to inf; where the clipped truth is 0, 0 * inf is NaN.
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"[generator]\nn_documents = 4\nn_buckets = 2\nrater_noise_sigma = 400\n{extra}")
    out = tmp_path / "synth.tsv"
    result = run_cli("gen", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("error: generated scores are not finite")
    assert "rater_noise_sigma=400" in result.stderr
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, study, message",
    [
        ("synthetic", "normalization = error\n",
         "error-normalization requires annotation-backed ratings"),
        ("all_scores_zero", "normalization = mean\n", "rater mean score is 0"),
        # Two documents dealt to three raters reach an entropy of 0 or 0.63 only.
        ("tiny", "load_balancing = entropy_target:0.5\nentropy_tolerance = 0\n",
         "no assignment within 0.0 of entropy target 0.5"),
        ("two_rater_bucket", "ratings_per_item = 2\n",
         "double-rating requires buckets of exactly 3 raters"),
        # Four documents over two buckets give each a base quota of 2.
        ("uneven_buckets", "", "bucket b1 has 1 documents, quota is 2"),
        # The entropy of a one-rater pool is normalized by log(1) = 0.
        ("one_rater", "load_balancing = entropy_target:0.5\n", "the pool has 1"),
    ],
    ids=["missing_error_counts", "degenerate_rater", "target_unreachable",
         "bucket_arity_unsupported", "quota_exceeds_bucket", "one_rater_pool"],
)
def test_runtime_error_exit_code(synth_tsv, tmp_path, capsys, rows, study, message):
    tsv = synth_tsv
    if rows != "synthetic":
        tsv = tmp_path / "data.tsv"
        tsv.write_text("\n".join(_tiny_rows_with(rows)) + "\n")
    n_docs = 4 if rows in ("uneven_buckets", "one_rater") else 2
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"[study]\nnum_documents = {n_docs}\nn_permutations = 50\n{study}")
    code = main(["simulate", "--dataset", str(tsv), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_unreachable_entropy_target_fails_fast(tmp_path, capsys):
    # The rotation layout's least workload entropy at 90 documents is ~0.51.
    tsv = tmp_path / "rotation.tsv"
    tsv.write_text(export_tsv(make_layout_dataset(*ROTATION_LAYOUT, n_systems=15)))
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "[study]\nnum_documents = 90\nn_permutations = 50\nitem_grouping = no_grouping\n"
        "load_balancing = entropy_target:0.3\n"
    )
    code = main(["simulate", "--dataset", str(tsv), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    # The early check's message, not the one after all 1,000 attempts.
    assert err.startswith("error: no assignment within 0.03 of entropy target 0.3: ")
    assert "no workload entropy below 0.5" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_single_system_dataset_exit_code(tmp_path, capsys, command):
    tsv = tmp_path / "one_system.tsv"
    tsv.write_text("\n".join(r for r in tiny_tsv_rows() if "\tsysB\t" not in r) + "\n")
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[sweep]\ndoc_counts = 2\n[study]\nnum_documents = 2\nn_simulations = 2\n"
                   "n_permutations = 50\n")
    argv = [command, "--dataset", str(tsv), "--config", str(cfg)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: need at least 2 systems")


def _tiny_rows_with(case):
    rows = tiny_tsv_rows()
    if case == "missing_column":
        rows[0] = rows[0].replace("rater_id", "annotator")
    elif case == "doc_in_two_buckets":
        rows[-1] = rows[-1].replace("\tb1\t", "\tb2\t")
    elif case == "score_mismatch":
        rows[1] = rows[1].replace("\t0\t4\t\t", "\t0\t4\t3.0\t")
    elif case == "non_finite_score":
        rows[4] = rows[4].replace("\t\t\t\t\t\t", "\t\t\t\t\tinf\t")
    elif case == "seg_gap":  # would size the dense arrays by 10**12 segments
        rows[4] = rows[4].replace("\tdoc1\t0\t", f"\tdoc1\t{10**12}\t")
    elif case == "all_scores_zero":
        rows = [r.replace("Major\tAccuracy/Mistranslation\t0\t4", "\t\t\t") for r in rows]
    elif case == "two_rater_bucket":
        rows = [r for r in rows if "\tr3\t" not in r]
    elif case == "uneven_buckets":  # doc1 alone in b1; doc2, doc3 and doc4 in b2
        rows = [r for r in rows if "\tdoc2\t" not in r] + [
            f"xx-yy\tb2\t{doc}\t0\t{system}\t{rater}\t\t\t\t\t\t"
            for doc in ("doc2", "doc3", "doc4")
            for system in ("sysA", "sysB")
            for rater in ("r4", "r5", "r6")
        ]
    elif case == "one_rater":  # doc1 to doc4, all rated by r1 alone
        rows = [r for r in rows if "\tr1\t" in r or r == rows[0]] + [
            f"xx-yy\tb1\t{doc}\t0\t{system}\tr1\t\t\t\t\t\t"
            for doc in ("doc3", "doc4")
            for system in ("sysA", "sysB")
        ]
    return rows


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing_column", "required column 'rater_id' not found"),
        ("doc_in_two_buckets", "document doc2 listed in buckets b1 and b2"),
        ("score_mismatch", "file score 3.0 != recomputed 5.0"),
        ("non_finite_score", "line 5: invalid score: 'inf'"),
        ("seg_gap", "line 5: seg_index 1000000000000 leaves a gap: document doc1 has 2"),
    ],
)
@pytest.mark.parametrize("command, prefix", [("validate", "INVALID: "), ("sweep", "error: ")])
def test_ingest_error_exit_code(tmp_path, capsys, case, message, command, prefix):
    tsv = tmp_path / "bad.tsv"
    tsv.write_text("\n".join(_tiny_rows_with(case)) + "\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    argv = [command, "--dataset", str(tsv)]
    if command == "sweep":
        argv += ["--config", str(cfg), "--out", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(prefix) and message in err
    assert "Traceback" not in err


def test_scores_past_the_range_bound_exit_code(synth_tsv, tmp_path, capsys):
    """Every score of a 12-document gen dataset times 1e306 used to pass
    validate, and a zscore sweep on it then overflowed its squares, exited 0
    and wrote SRP 1.  Both now stop at the first score past the bound."""
    rows = [line.split("\t") for line in synth_tsv.read_text().splitlines()]
    col = rows[0].index("score")
    for row in rows[1:]:
        row[col] = repr(float(row[col]) * 1e306)
    path, cfg, out_dir = tmp_path / "huge.tsv", tmp_path / "sweep.cfg", tmp_path / "out"
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    cfg.write_text(SWEEP_CFG)
    assert main(["validate", "--dataset", str(path)]) == 1
    assert main(["sweep", "--dataset", str(path), "--config", str(cfg), "--out", str(out_dir)]) == 1
    message = ("score 5.94172e+305 for doc=doc000 seg=0 system=sys00 rater=rater00 exceeds "
               "3.95e+152 = sqrt(float max / (4 x 288 rated cells))")
    assert capsys.readouterr().err == f"INVALID: {message}\nerror: {message}\n"
    assert not out_dir.exists()


def test_gen_scores_past_the_range_bound_exit_code(tmp_path, capsys):
    cfg, out = tmp_path / "gen.cfg", tmp_path / "synth.tsv"
    cfg.write_text(GEN_CFG.replace("harshness = 0.5 1.0 2.0", "harshness = 1e300 1.0 2.0"))
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: score ") and "rater=rater00 exceeds" in err
    assert not out.exists()


def test_python_m_stabeval_runs_the_cli():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.strip() == stabeval.__version__


def test_agreement_histogram_bins_bounded_on_a_huge_score(tmp_path, capsys):
    """Above 1,000 unit bins, each rater gets 1,000 equal bins up to the top score."""
    path = tmp_path / "huge.tsv"
    path.write_text(
        "doc_id\tseg_index\tsystem_id\trater_id\tscore\n"
        "d1\t0\tsA\tr1\t1e20\nd1\t0\tsB\tr1\t1\nd1\t0\tsA\tr2\t2\nd1\t0\tsB\tr2\t3\n"
    )
    out_dir = tmp_path / "agree"
    assert main(["agreement", "--dataset", str(path), "--out", str(out_dir)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (out_dir / "rater_histograms.csv").read_text().splitlines()[1:]
    for rater in ("r1", "r2"):
        bins = [row.split(",") for row in rows if row.startswith(f"{rater},")]
        assert len(bins) == 1000
        assert (bins[0][1], bins[-1][2]) == ("0", "1e+20")
        assert [int(b[3]) for b in bins].count(0) == (998 if rater == "r1" else 999)


def test_weights_summing_to_inf_exit_code(tmp_path, capsys):
    rows = tiny_tsv_rows()
    rows.insert(2, rows[1].replace("Accuracy/Mistranslation", "Fluency"))
    path, weights = tmp_path / "two_majors.tsv", tmp_path / "weights.cfg"
    path.write_text("\n".join(rows) + "\n")
    weights.write_text("[weights]\nMajor: = 1e308\nMinor: = 1\n")
    code = main(["validate", "--dataset", str(path), "--weights", str(weights)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (
        "INVALID: line 2: error weights of doc=doc1 seg=0 system=sysA rater=r1 sum to inf\n"
    )
