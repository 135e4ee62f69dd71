import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import centroidsumm.cli
from centroidsumm import (
    PRESETS,
    RerankCapWarning,
    SubsumptionAnnotation,
    UtilityAnnotation,
    build_centroid,
    build_idf,
    build_report,
    cluster_to_dict,
    document_to_dict,
    extract,
    extract_to_dict,
    lead_baseline,
    load_idf,
    parse_cluster,
    redundancy_rerank,
    round_half_up,
    save_idf,
    score_sentences,
)
from centroidsumm.cli import (
    RunConfig,
    format_r_grid,
    main,
    parse_on_off,
    parse_r_grid,
    parse_weights,
)
from centroidsumm.text import write_json
from conftest import JUDGE_UTILITIES, SUBSUMPTION_MARKS
from helpers import background_documents, make_cluster, save_subsumption_annotation, save_utility_annotation


@pytest.fixture
def quad_judges(tmp_path):
    paths = []
    for judge_id, utilities in JUDGE_UTILITIES.items():
        ann = UtilityAnnotation(judge_id, "quad", utilities)
        path = tmp_path / f"{judge_id.lower()}.json"
        save_utility_annotation(ann, path)
        paths.append(str(path))
    return paths


@pytest.fixture
def subsumption_files(tmp_path):
    paths = []
    for judge_id, marks in SUBSUMPTION_MARKS.items():
        subsumers = {pos: frozenset(targets) for pos, targets in marks.items()}
        ann = SubsumptionAnnotation(judge_id, "pair", subsumers)
        path = tmp_path / f"sub_{judge_id.lower()}.json"
        save_subsumption_annotation(ann, path)
        paths.append(str(path))
    return paths


class TestRunConfig:
    """A file that states all eight keys reads back as the config it spells out."""

    def test_round_trip_with_grid(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "weights=1,1,0\nr=0.3\nr_grid=0.1:0.3:0.1\nE=1\ncentroid_threshold=0\nsim_threshold=0.1\n"
            "agreement_threshold=3\nredundancy=on\n"
        )
        config = RunConfig(w_c=1, w_p=1, w_f=0, r=0.3, r_grid=(0.1, 0.2, 0.3), redundancy=True)
        assert RunConfig.from_file(path) == config

    def test_round_trip_without_grid(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "weights=1,0,0\nr=0.25\nr_grid=\nE=1\ncentroid_threshold=0\nsim_threshold=0.4\n"
            "agreement_threshold=3\nredundancy=off\n"
        )
        assert RunConfig.from_file(path) == RunConfig(r=0.25, sim_threshold=0.4)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nr=0.4\nredundancy=on\n")
        config = RunConfig.from_file(path)
        assert config.r == 0.4
        assert config.redundancy is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rate=0.4\n")
        with pytest.raises(ValueError, match="unknown setting"):
            RunConfig.from_file(path)

    def test_removed_setting_exits_2(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "old.cfg"
        cfg.write_text("r=0.2\nseed=0\n")
        code = main(["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"{cfg}:2: unknown setting 'seed'" in capsys.readouterr().err

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(r=0.0)
        with pytest.raises(ValueError):
            RunConfig(E=2.0)
        with pytest.raises(ValueError, match="E must be in"):
            RunConfig(E=1.5)
        with pytest.raises(ValueError, match="agreement_threshold must be >= 1"):
            RunConfig(agreement_threshold=0)
        RunConfig(r=0.5, E=0.5, agreement_threshold=2)


class TestParsers:
    def test_weights(self):
        assert parse_weights("1,0.5,0") == (1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="three"):
            parse_weights("1,2")

    def test_r_grid_nine_steps(self):
        grid = parse_r_grid("0.1:0.9:0.1")
        assert grid == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_r_grid_single_point(self):
        assert parse_r_grid("0.5:0.5:1") == (0.5,)

    def test_r_grid_rejects_bad_forms(self):
        for text in ("0.5", "0:0.9:0.1", "0.9:0.1:0.1", "0.1:1.5:0.1", "0.1:0.9:0"):
            with pytest.raises(ValueError):
                parse_r_grid(text)

    def test_r_grid_counts_rates_before_building_them(self):
        # a rate in (0, 1] has one of the 101 tags r00..r100; a finer grid is
        # rejected from its count alone, without building 800,000,001 rates
        for text in ("0.1:0.9:1e-9", "0.1:0.9:5e-324"):
            with pytest.raises(ValueError, match="more than 101 rates"):
                parse_r_grid(text)
        assert len(parse_r_grid("0.001:1:0.00999")) == 101
        with pytest.raises(ValueError, match="more than 101 rates"):
            parse_r_grid("0.001:1:0.00989")

    def test_grid_format_round_trip(self):
        grid = parse_r_grid("0.2:0.8:0.2")
        assert parse_r_grid(format_r_grid(grid)) == grid

    def test_on_off(self):
        assert parse_on_off("on") is True
        assert parse_on_off("off") is False
        with pytest.raises(ValueError):
            parse_on_off("yes")


class TestIdfCommand:
    def test_builds_model_from_cluster_files(self, tmp_path, news_cluster_path, capsys):
        out = tmp_path / "out"
        code = main(["idf", str(news_cluster_path.parent), "--out", str(out)])
        assert code == 0
        assert "2 documents" in capsys.readouterr().out
        model = load_idf(out / "idf.json")
        assert model.n_docs == 2
        assert model.df["algiers"] == 2
        assert all(1 <= df <= 2 for df in model.df.values())

    def test_reruns_are_byte_identical(self, tmp_path, news_cluster_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["idf", str(news_cluster_path.parent), "--out", str(out1)]) == 0
        assert main(["idf", str(news_cluster_path.parent), "--out", str(out2)]) == 0
        assert (out1 / "idf.json").read_bytes() == (out2 / "idf.json").read_bytes()

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["idf", str(empty), "--out", str(tmp_path / "out")]) == 2
        assert "no documents" in capsys.readouterr().err

    def test_doc_id_in_two_files_exits_2(self, tmp_path, news_cluster_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        data = json.loads(news_cluster_path.read_text())
        write_json(data["documents"][1], corpus / "a.json")
        write_json(data, corpus / "b.json")  # the cluster file holds the same document as its second entry
        assert main(["idf", str(corpus), "--out", str(tmp_path / "out")]) == 2
        doc_id = data["documents"][1]["doc_id"]
        err = capsys.readouterr().err
        assert err == f"error: {corpus / 'b.json'}.documents[1].doc_id: duplicate document id {doc_id!r}, also in {corpus / 'a.json'}\n"
        assert not (tmp_path / "out").exists()

    def test_config_flag_rejected(self, tmp_path, news_cluster_path):
        garbage = tmp_path / "garbage.cfg"
        garbage.write_text("not a setting\n")
        with pytest.raises(SystemExit) as exc:
            main(["idf", str(news_cluster_path.parent), "--config", str(garbage), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "idf.json").exists()


class TestClusterCommand:
    def prepare(self, tmp_path, news_cluster_path):
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir()
        data = json.loads(news_cluster_path.read_text())
        for entry in data["documents"]:
            write_json(entry, docs_dir / f"{entry['doc_id']}.json")
        # IDF from unrelated boilerplate, so the articles' shared topical
        # vocabulary keeps enough weight to drive the similarity
        corpus_dir = tmp_path / "background"
        corpus_dir.mkdir()
        for doc in background_documents():
            write_json(document_to_dict(doc), corpus_dir / f"{doc.doc_id}.json")
        idf_dir = tmp_path / "idf"
        assert main(["idf", str(corpus_dir), "--out", str(idf_dir)]) == 0
        return docs_dir, idf_dir / "idf.json"

    def test_same_event_docs_share_a_cluster(self, tmp_path, news_cluster_path, capsys):
        docs_dir, idf_path = self.prepare(tmp_path, news_cluster_path)
        out = tmp_path / "clusters"
        code = main(
            ["cluster", str(docs_dir), "--idf", str(idf_path), "--sim-threshold", "0.1", "--out", str(out)]
        )
        assert code == 0
        assert "1 clusters" in capsys.readouterr().out
        grouped = parse_cluster(out / "c001.json")
        assert grouped.d == 2
        assert grouped.n == 20

    def test_impossible_threshold_splits_docs(self, tmp_path, news_cluster_path, capsys):
        docs_dir, idf_path = self.prepare(tmp_path, news_cluster_path)
        out = tmp_path / "clusters"
        code = main(
            ["cluster", str(docs_dir), "--idf", str(idf_path), "--sim-threshold", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert "2 clusters" in capsys.readouterr().out
        assert (out / "c001.json").exists() and (out / "c002.json").exists()

    def test_cluster_file_of_an_earlier_run_exits_2(self, tmp_path, news_cluster_path, capsys):
        docs_dir, idf_path = self.prepare(tmp_path, news_cluster_path)
        out = tmp_path / "clusters"
        args = ["cluster", str(docs_dir), "--idf", str(idf_path), "--out", str(out)]
        assert main([*args, "--sim-threshold", "0.99"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["c001.json", "c002.json"]
        capsys.readouterr()
        # one cluster now: c002.json would be left over, holding a document c001.json also holds
        assert main([*args, "--sim-threshold", "0.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'c002.json'}: ") and "does not write" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_doc_id_in_two_files_exits_2(self, tmp_path, news_cluster_path, capsys):
        docs_dir, idf_path = self.prepare(tmp_path, news_cluster_path)
        first = sorted(docs_dir.iterdir())[0]
        copy = docs_dir / f"{first.stem}_copy.json"  # sorts after the original
        other_event = ["Heavy rain caused flooding in parts of the city over the weekend."]
        write_json({**json.loads(first.read_text()), "sentences": other_event}, copy)
        capsys.readouterr()
        out = tmp_path / "clusters"
        # the two texts share no cluster, so without the check each would be written, under one doc_id
        assert main(["cluster", str(docs_dir), "--idf", str(idf_path), "--sim-threshold", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {copy}.doc_id: duplicate document id {first.stem!r}, also in {first}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_empty_dir_exits_2(self, tmp_path, news_cluster_path, capsys):
        _, idf_path = self.prepare(tmp_path, news_cluster_path)
        empty = tmp_path / "none"
        empty.mkdir()
        capsys.readouterr()
        code = main(["cluster", str(empty), "--idf", str(idf_path), "--out", str(tmp_path / "c")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{empty}: no documents found" in captured.err
        assert "clusters" not in captured.out
        assert not (tmp_path / "c").exists()


@pytest.fixture
def news_inputs(tmp_path, news_cluster_path):
    idf_dir = tmp_path / "idf"
    assert main(["idf", str(news_cluster_path.parent), "--out", str(idf_dir)]) == 0
    return str(news_cluster_path), str(idf_dir / "idf.json")


class TestSummarizeCommand:
    def test_default_rate_selects_four_of_twenty(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "sum"
        code = main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.2", "--out", str(out)])
        assert code == 0
        assert "4 of 20 sentences" in capsys.readouterr().out
        payload = json.loads((out / "extract_alg_r20.json").read_text())
        assert payload["k"] == 4
        assert payload["selected"] == sorted(payload["selected"])
        assert all(1 <= p <= 20 for p in payload["selected"])
        summary = (out / "summary_alg_r20.txt").read_text()
        assert len(summary.rstrip("\n").split("\n")) == 4

    def test_summary_lines_are_the_selected_sentences(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "sum"
        main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.2", "--out", str(out)])
        payload = json.loads((out / "extract_alg_r20.json").read_text())
        cluster = parse_cluster(cluster_file)
        expected = [cluster.sentence_at(p).text for p in payload["selected"]]
        assert (out / "summary_alg_r20.txt").read_text().rstrip("\n").split("\n") == expected

    def test_huge_duplicate_doc_id_gives_one_short_line(self, news_inputs, tmp_path, capsys):
        _, idf_path = news_inputs
        doc = {"doc_id": "d" * 1_000_000, "source": "s", "timestamp": "1999-05-20T00:00:00Z", "sentences": ["x"]}
        cluster_file = tmp_path / "dup.json"
        write_json({"cluster_id": "c", "documents": [doc, dict(doc)]}, cluster_file)
        out = tmp_path / "out"
        assert main(["summarize", str(cluster_file), "--idf", idf_path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300
        assert lines[0].startswith(f"error: {cluster_file}: cluster 'c': duplicate document id 'ddd")
        assert not out.exists()

    @pytest.mark.parametrize(
        "cluster_id",
        ["a/b", "/", "a\x00b", "a\nb", "tab\t", "\x7f", "\x85", "\ud800", ".", "..", "x" * 201, "é" * 101],
        ids=["slash-inside", "slash", "nul", "newline", "tab", "del", "c1-control", "lone-surrogate", "dot",
             "dot-dot", "201-bytes", "202-bytes-utf8"],
    )
    def test_cluster_id_that_is_no_file_name_exits_2(self, news_inputs, tmp_path, capsys, cluster_id):
        cluster_file, idf_path = news_inputs
        renamed = tmp_path / "renamed.json"
        write_json({**json.loads(Path(cluster_file).read_text()), "cluster_id": cluster_id}, renamed)
        out = tmp_path / "out"
        assert main(["summarize", str(renamed), "--idf", idf_path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {renamed}.cluster_id: must be a file name of at most 200")
        assert not out.exists()

    @pytest.mark.parametrize(
        "cluster_id", ["...", ".a", "a b", "é€𝄞", "x" * 200, "é" * 100],
        ids=["three-dots", "leading-dot", "space", "non-ascii", "200-bytes", "200-bytes-utf8"],
    )
    def test_cluster_id_names_the_output_files(self, news_inputs, tmp_path, cluster_id):
        cluster_file, idf_path = news_inputs
        renamed = tmp_path / "renamed.json"
        write_json({**json.loads(Path(cluster_file).read_text()), "cluster_id": cluster_id}, renamed)
        out = tmp_path / "out"
        assert main(["summarize", str(renamed), "--idf", idf_path, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [f"extract_{cluster_id}_r20.json",
                                                               f"summary_{cluster_id}_r20.txt"]

    def test_rate_grid_covers_all_sizes(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "grid"
        code = main(
            ["summarize", cluster_file, "--idf", idf_path, "--r-grid", "0.1:0.9:0.1", "--out", str(out)]
        )
        assert code == 0
        sizes = []
        for i in range(1, 10):
            payload = json.loads((out / f"extract_alg_r{i * 10}.json").read_text())
            sizes.append(payload["k"])
        assert sizes == [2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_tiny_rate_keeps_one_sentence(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "tiny"
        assert main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.01", "--out", str(out)]) == 0
        payload = json.loads((out / "extract_alg_r01.json").read_text())
        assert payload["k"] == 1

    def test_lead_centroid_preset_runs(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "preset"
        code = main(
            [
                "summarize",
                cluster_file,
                "--idf",
                idf_path,
                "--preset",
                "lead-centroid",
                "--r",
                "0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "extract_alg_r10.json").read_text())
        assert payload["k"] == 2
        # positional credit is in the base under this preset
        assert all(score["base"] == score["c"] + score["p"] for score in payload["scores"])
        assert all(score["p"] > 0 for score in payload["scores"])

    def test_reruns_are_byte_identical(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            assert main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.3", "--out", str(out)]) == 0
        for name in ("extract_alg_r30.json", "summary_alg_r30.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_redundancy_toggle_is_noop_without_overlap(self, tmp_path):
        cluster = make_cluster(
            "disjoint",
            {
                "x": ["Alpha beta gamma.", "Delta epsilon zeta."],
                "y": ["Eta theta iota.", "Kappa lambda mu."],
            },
        )
        cluster_file = tmp_path / "disjoint.json"
        write_json(cluster_to_dict(cluster), cluster_file)
        idf_path = tmp_path / "idf.json"
        save_idf(build_idf(cluster.documents), idf_path)
        out_on, out_off = tmp_path / "on", tmp_path / "off"
        for out, toggle in ((out_on, "on"), (out_off, "off")):
            code = main(
                [
                    "summarize",
                    str(cluster_file),
                    "--idf",
                    str(idf_path),
                    "--r",
                    "0.5",
                    "--redundancy",
                    toggle,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert (out_on / "extract_disjoint_r50.json").read_bytes() == (
            out_off / "extract_disjoint_r50.json"
        ).read_bytes()

    def test_rerank_cap_is_one_stderr_line(self, tmp_path, monkeypatch, capsys):
        cluster = make_cluster(
            "dup",
            {
                "x": ["Troops entered the city.", "Troops entered the city.", "Aid convoys waited outside."],
                "y": ["Troops entered the city at dawn."],
            },
        )
        cluster_file, idf_path = tmp_path / "dup.json", tmp_path / "idf.json"
        write_json(cluster_to_dict(cluster), cluster_file)
        save_idf(build_idf([*cluster.documents, *background_documents()]), idf_path)
        capped = functools.partial(redundancy_rerank, max_iterations=1)
        monkeypatch.setattr(centroidsumm.cli, "redundancy_rerank", capped)
        out = tmp_path / "out"
        args = ["summarize", str(cluster_file), "--idf", str(idf_path), "--r", "0.5", "--redundancy", "on"]
        assert main([*args, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: cluster 'dup' at r=0.5: the redundancy rerank ran its cap of 1 rounds "
            "without a stable or repeated selection; kept the last one"
        ]
        # the warning reaches no output file
        scores = score_sentences(cluster, build_centroid(cluster, load_idf(idf_path)), PRESETS["pure-centroid"])
        with pytest.warns(RerankCapWarning):
            expected = extract_to_dict(capped(cluster, scores, 0.5))
        assert (out / "extract_dup_r50.json").read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_config_file_sets_rate_and_flag_overrides(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=0.5\n")
        out = tmp_path / "cfg_only"
        assert main(["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "extract_alg_r50.json").exists()
        out2 = tmp_path / "flag_wins"
        code = main(
            [
                "summarize",
                cluster_file,
                "--idf",
                idf_path,
                "--config",
                str(cfg),
                "--r",
                "0.2",
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        assert (out2 / "extract_alg_r20.json").exists()
        assert not (out2 / "extract_alg_r50.json").exists()

    def test_flag_rate_replaces_a_configured_grid(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_grid=0.1:0.3:0.1\n")
        out = tmp_path / "out"
        args = ["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--r", "0.5", "--out", str(out)]
        assert main(args) == 0
        assert sorted(path.name for path in out.iterdir()) == ["extract_alg_r50.json", "summary_alg_r50.txt"]

    def test_grid_with_colliding_tags_exits_2_before_writing(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "fine"
        code = main(["summarize", cluster_file, "--idf", idf_path, "--r-grid", "0.1:0.13:0.005", "--out", str(out)])
        assert code == 2
        assert "0.1:0.13:0.005 gives several rates the output tag r10, r12" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cluster_file_exits_2(self, news_inputs, tmp_path):
        _, idf_path = news_inputs
        assert main(["summarize", str(tmp_path / "nope.json"), "--idf", idf_path]) == 2


class TestEvaluateCommand:
    def test_single_rate_report(self, quad_judges, tmp_path, capsys):
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5", "--out", str(out)]
        )
        assert code == 0
        assert "mean_j=0.841 random=0.732" in capsys.readouterr().out
        payload = json.loads((out / "report.json").read_text())
        assert payload["mean_j"] == 0.841
        assert payload["random"] == 0.732
        assert payload["k"] == 2
        assert payload["systems"]["s14"] == {"s": 0.833, "d": 0.927}

    def test_report_csv_layout(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        out = tmp_path / "eval"
        main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5", "--out", str(out)])
        assert (out / "report.csv").read_text() == (
            "judge,J1,J2,J3,per_judge\n"
            "J1,1.000,1.000,0.765,0.883\n"
            "J2,1.000,1.000,0.765,0.883\n"
            "J3,0.722,0.789,1.000,0.756\n"
            "mean_j,0.841\n"
            "random,0.732\n"
            "system,s,d\n"
            "s14,0.833,0.927\n"
        )

    def test_top_ranked_extract_beats_the_judges(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        out = tmp_path / "eval"
        main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5", "--out", str(out)])
        payload = json.loads((out / "report.json").read_text())
        assert payload["systems"]["s12"]["d"] > 1.0

    def test_subsumption_discount_appears_in_report(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        sub_file = tmp_path / "sub.json"
        ann = SubsumptionAnnotation("S1", "quad", {2: frozenset({1})})
        save_subsumption_annotation(ann, sub_file)
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--annotations",
                *quad_judges,
                "--extract",
                str(extract_file),
                "--subsumption",
                str(sub_file),
                "--agreement-threshold",
                "1",
                "--E",
                "0.0",
                "--r",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["e"] == 0.0
        system = payload["systems"]["s12"]
        assert system["s_csis"] < system["s"]
        assert "d_csis" in system

    def test_cluster_mismatch_exits_3(self, quad_judges, tmp_path, capsys):
        extract_file = tmp_path / "other.json"
        write_json({"cluster_id": "other", "selected": [1, 2]}, extract_file)
        code = main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"])
        assert code == 3
        assert "for cluster 'other'" in capsys.readouterr().err

    def test_chance_level_judges_exit_3(self, tmp_path, capsys):
        paths = []
        for judge_id in ("F1", "F2"):
            path = tmp_path / f"{judge_id}.json"
            save_utility_annotation(UtilityAnnotation(judge_id, "flat", (5, 5, 5, 5)), path)
            paths.append(str(path))
        extract_file = tmp_path / "pick.json"
        write_json({"cluster_id": "flat", "selected": [1, 2]}, extract_file)
        code = main(["evaluate", "--annotations", *paths, "--extract", str(extract_file), "--r", "0.5"])
        assert code == 3
        assert "no better than chance" in capsys.readouterr().err

    def test_unreadable_annotation_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--annotations", str(bad), "--r", "0.5"]) == 2

    def test_wrong_size_extract_exits_3(self, quad_judges, tmp_path, capsys):
        for selected in ([1, 2, 3], [], [2]):
            extract_file = tmp_path / "triple.json"
            write_json({"cluster_id": "quad", "selected": selected}, extract_file)
            assert main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]) == 3
            assert f"{extract_file}: extract selects {len(set(selected))} sentences, expected k=2" in capsys.readouterr().err

    def test_out_of_range_extract_exits_3(self, quad_judges, tmp_path, capsys):
        extract_file = tmp_path / "late.json"
        write_json({"cluster_id": "quad", "selected": [1, 7]}, extract_file)
        assert main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]) == 3
        assert "system 'late' selects position 7, outside 1..4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lead", "--system"])
    @pytest.mark.parametrize("change", ["cluster_id", "n"])
    def test_cluster_not_judged_exits_3(self, news_inputs, tmp_path, capsys, flag, change):
        cluster_file, idf_path = news_inputs
        judges = []
        for judge_id in ("A", "B"):
            path = tmp_path / f"{judge_id}.json"
            n = 21 if change == "n" else 20
            cluster_id = "other" if change == "cluster_id" else "alg"
            save_utility_annotation(UtilityAnnotation(judge_id, cluster_id, tuple(i % 11 for i in range(n))), path)
            judges.append(str(path))
        args = ["evaluate", "--annotations", *judges, flag, cluster_file, "--r", "0.2"]
        args += ["--idf", idf_path] if flag == "--system" else []
        assert main(args + ["--out", str(tmp_path / "eval")]) == 3
        assert f"{cluster_file}: cluster 'alg' has 20 sentences" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--lead", "--system", "--extract", "--subsumption"])
    def test_input_of_another_cluster_exits_3_naming_it_and_both_ids(self, quad_judges, tmp_path, capsys, flag):
        path = tmp_path / "other.json"
        if flag == "--extract":
            write_json({"cluster_id": "other", "selected": [1, 2]}, path)
        elif flag == "--subsumption":
            save_subsumption_annotation(SubsumptionAnnotation("S1", "other", {2: frozenset({1})}), path)
        else:
            write_json(cluster_to_dict(make_cluster("other", {"d1": ["One.", "Two.", "Three.", "Four."]})), path)
        args = ["evaluate", "--annotations", *quad_judges, flag, str(path), "--r", "0.5"]
        args += ["--idf", str(tmp_path / "unread_idf.json")] if flag == "--system" else []  # checked before it is read
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "'other'" in err and "'quad'" in err
        assert not out.exists()

    def test_system_grid_scores_once(self, news_inputs, tmp_path, monkeypatch):
        cluster_file, idf_path = news_inputs
        judges = [
            UtilityAnnotation("A", "alg", tuple(10 - i // 2 for i in range(20))),
            UtilityAnnotation("B", "alg", tuple(max(10 - i, 1) for i in range(20))),
            UtilityAnnotation("C", "alg", tuple(10 - i // 3 for i in range(20))),
        ]
        paths = []
        for ann in judges:
            paths.append(str(tmp_path / f"{ann.judge_id}.json"))
            save_utility_annotation(ann, paths[-1])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].cluster_id)
            return score_sentences(*args, **kwargs)

        monkeypatch.setattr(centroidsumm.cli, "score_sentences", counted)
        out = tmp_path / "grid"
        args = ["evaluate", "--annotations", *paths, "--lead", cluster_file, "--system", cluster_file]
        args += ["--idf", idf_path, "--preset", "lead-centroid", "--r-grid", "0.1:0.9:0.1", "--out", str(out)]
        assert main(args) == 0
        assert calls == ["alg"]

        cluster = parse_cluster(cluster_file)
        scores = score_sentences(cluster, build_centroid(cluster, load_idf(idf_path)), PRESETS["lead-centroid"])
        expected = ["r,system,s,random,mean_j,d"]
        for r in parse_r_grid("0.1:0.9:0.1"):
            systems = {"lead": lead_baseline(cluster, r).selected, "system": extract(cluster, scores, r).selected}
            report = build_report(judges, systems, r)
            for label in ("lead", "system"):
                expected.append(
                    f"{r:.2f},{label},{report.S[label]:.3f},{report.R:.3f},{report.mean_J:.3f},"
                    f"{round_half_up(report.D[label]):.3f}"
                )
        assert (out / "d_grid.csv").read_text() == "\n".join(expected) + "\n"

    def test_lead_and_system_file_is_parsed_once(self, news_inputs, tmp_path, monkeypatch):
        cluster_file, idf_path = news_inputs
        paths = []
        for judge_id, utilities in {
            "A": tuple(10 - i // 2 for i in range(20)),
            "B": tuple(max(10 - i, 1) for i in range(20)),
            "C": tuple(10 - i // 3 for i in range(20)),
        }.items():
            paths.append(str(tmp_path / f"{judge_id}.json"))
            save_utility_annotation(UtilityAnnotation(judge_id, "alg", utilities), paths[-1])
        copy = tmp_path / "copy.json"
        copy.write_bytes(Path(cluster_file).read_bytes())
        parsed = []

        def counted(path):
            parsed.append(path)
            return parse_cluster(path)

        monkeypatch.setattr(centroidsumm.cli, "parse_cluster", counted)
        grids = []
        for i, system in enumerate([cluster_file, str(copy)]):
            parsed.clear()
            out = tmp_path / f"grid{i}"
            args = ["evaluate", "--annotations", *paths, "--lead", cluster_file, "--system", system, "--idf", idf_path]
            assert main([*args, "--preset", "lead-centroid", "--r-grid", "0.1:0.9:0.1", "--out", str(out)]) == 0
            assert parsed == list(dict.fromkeys([cluster_file, system]))
            grids.append((out / "d_grid.csv").read_bytes())
        # one parse for both flags gives the d_grid.csv of two separate parses
        assert grids[0] == grids[1]

    def test_grid_rejects_fixed_extracts(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        code = main(
            ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r-grid", "0.25:0.75:0.25"]
        )
        assert code == 2

    def test_grid_needs_a_system(self, quad_judges):
        assert main(["evaluate", "--annotations", *quad_judges, "--r-grid", "0.25:0.75:0.25"]) == 2

    @pytest.mark.parametrize(
        "flag, value, needs",
        [("--E", "0.5", "--subsumption"), ("--agreement-threshold", "2", "--subsumption"),
         ("--weights", "0,1,0", "--system"), ("--preset", "lead-centroid", "--system"),
         ("--redundancy", "on", "--system"), ("--centroid-threshold", "5", "--system"),
         ("--idf", "no_such_model.json", "--system")],
    )
    def test_setting_without_the_input_that_reads_it_exits_2(self, quad_judges, tmp_path, capsys, flag, value, needs):
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        out = tmp_path / "eval"
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} applies only with {needs}\n"
        assert not out.exists()

    def test_config_lines_for_settings_a_run_does_not_read_are_accepted(self, quad_judges, tmp_path):
        # a settings file is shared by every subcommand, so its lines stay accepted
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("E=0.5\nagreement_threshold=2\nweights=0,1,0\nredundancy=on\ncentroid_threshold=5\n")
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "with")]) == 0
        assert main([*args, "--out", str(tmp_path / "without")]) == 0
        assert (tmp_path / "with" / "report.json").read_bytes() == (tmp_path / "without" / "report.json").read_bytes()

    def test_two_extract_files_with_one_label_exit_2(self, quad_judges, tmp_path, capsys):
        paths = []
        for folder, selected in (("a", [1, 4]), ("b", [1, 2])):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "extract_g00_r20.json")
            write_json({"cluster_id": "quad", "selected": selected}, paths[-1])
        out = tmp_path / "eval"
        args = ["--extract", str(paths[0]), "--extract", str(paths[1]), "--r", "0.5", "--out", str(out)]
        assert main(["evaluate", "--annotations", *quad_judges, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {paths[0]} and {paths[1]} both give the report label 'extract_g00_r20'\n"
        assert not out.exists()

    @pytest.mark.parametrize("label", ["lead", "system"])
    def test_extract_file_named_like_a_baseline_exits_2(self, news_inputs, tmp_path, capsys, label):
        cluster_file, idf_path = news_inputs
        extract_file = tmp_path / f"{label}.json"
        write_json({"cluster_id": "alg", "selected": [1, 2, 3, 4]}, extract_file)
        judges = []
        for judge_id in ("A", "B"):
            judges.append(str(tmp_path / f"{judge_id}.json"))
            save_utility_annotation(UtilityAnnotation(judge_id, "alg", tuple(i % 11 for i in range(20))), judges[-1])
        out = tmp_path / "eval"
        args = ["--extract", str(extract_file), f"--{label}", cluster_file, "--idf", idf_path, "--out", str(out)]
        assert main(["evaluate", "--annotations", *judges, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {extract_file} and --{label} {cluster_file} both give the report label '{label}'\n"
        assert not out.exists()

    def test_lead_baseline_grid(self, tmp_path, news_cluster_path):
        # three judges who rank the sentences identically, so their mutual
        # agreement is exactly 1 at every rate and the grid never degenerates
        vectors = {
            "A": tuple(10 - i // 2 for i in range(20)),
            "B": tuple(max(10 - i, 1) for i in range(20)),
            "C": tuple(10 - i // 2 for i in range(20)),
        }
        paths = []
        for judge_id, utilities in vectors.items():
            path = tmp_path / f"lead_{judge_id}.json"
            save_utility_annotation(UtilityAnnotation(judge_id, "alg", utilities), path)
            paths.append(str(path))
        out = tmp_path / "grid"
        code = main(
            [
                "evaluate",
                "--annotations",
                *paths,
                "--lead",
                str(news_cluster_path),
                "--r-grid",
                "0.1:0.9:0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "d_grid.csv").read_text().rstrip("\n").split("\n")
        assert lines[0] == "r,system,s,random,mean_j,d"
        assert len(lines) == 10
        rates = [line.split(",")[0] for line in lines[1:]]
        assert rates == ["0.10", "0.20", "0.30", "0.40", "0.50", "0.60", "0.70", "0.80", "0.90"]
        for line in lines[1:]:
            _, system, s, random_, mean_j, d = line.split(",")
            assert system == "lead"
            assert 0.0 <= float(s) <= 1.0
            assert float(random_) < float(mean_j)
            float(d)


class TestAgreementCommand:
    def test_cbsu_curve(self, quad_judges, tmp_path):
        out = tmp_path / "agree"
        code = main(["agreement", "--mode", "cbsu", "--annotations", *quad_judges, "--out", str(out)])
        assert code == 0
        lines = (out / "agreement_curve.csv").read_text().rstrip("\n").split("\n")
        assert lines[0] == "r,mean_j"
        assert len(lines) == 10
        assert "0.50,0.841" in lines

    def test_cbsu_custom_grid(self, quad_judges, tmp_path):
        out = tmp_path / "agree"
        code = main(
            ["agreement", "--mode", "cbsu", "--annotations", *quad_judges, "--r-grid", "0.25:0.75:0.25", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "agreement_curve.csv").read_text().rstrip("\n").split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.50", "0.75"]

    def test_cbsu_single_judge_exits_3(self, quad_judges, tmp_path, capsys):
        code = main(["agreement", "--mode", "cbsu", "--annotations", quad_judges[0], "--out", str(tmp_path)])
        assert code == 3
        assert "at least 2 judges" in capsys.readouterr().err

    def test_csis_tally_and_histogram(self, subsumption_files, tmp_path):
        out = tmp_path / "csis"
        code = main(["agreement", "--mode", "csis", "--annotations", *subsumption_files, "--out", str(out)])
        assert code == 0
        assert (out / "csis_tally.csv").read_text() == (
            "position,plus_score,minus_score\n"
            "1,3,\n"
            "2,3,\n"
            "3,,4\n"
            "4,4,\n"
            "5,,2\n"
            "6,,4\n"
            "7,,4\n"
        )
        assert (out / "csis_histogram.csv").read_text() == (
            "agreement,sign,sentences\n"
            "4,+,1\n"
            "4,-,3\n"
            "3,+,2\n"
            "2,-,1\n"
        )

    def test_csis_rejects_a_rate_grid_flag(self, subsumption_files, tmp_path, capsys):
        args = ["agreement", "--mode", "csis", "--annotations", *subsumption_files]
        out = tmp_path / "out"
        assert main([*args, "--r-grid", "0.1:0.9:0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --r-grid ")
        assert not out.exists()
        # a settings file shared with the other commands may still hold a grid
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_grid=0.1:0.9:0.1\n")
        assert main([*args, "--config", str(cfg), "--out", str(out)]) == 0

    def test_reruns_are_byte_identical(self, subsumption_files, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["agreement", "--mode", "csis", "--annotations", *subsumption_files, "--out", str(out)]) == 0
        assert (out1 / "csis_tally.csv").read_bytes() == (out2 / "csis_tally.csv").read_bytes()

    def test_csis_clusters_mixed_exits_3(self, tmp_path, capsys):
        paths = []
        for cluster_id in ("x", "y"):
            paths.append(str(tmp_path / f"sub_{cluster_id}.json"))
            save_subsumption_annotation(SubsumptionAnnotation("J", cluster_id, {2: frozenset({1})}), paths[-1])
        out = tmp_path / "out"
        assert main(["agreement", "--mode", "csis", "--annotations", *paths, "--out", str(out)]) == 3
        assert "annotations mix clusters 'x' and 'y'" in capsys.readouterr().err
        assert not out.exists()


class TestJudgeFiles:
    """A judge set of mixed clusters or sizes exits 3 naming the file that differs; ids are quoted short."""

    @staticmethod
    def judge_args(command, paths, tmp_path):
        if command == "agreement":
            return ["agreement", "--mode", "cbsu", "--annotations", *paths]
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        return ["evaluate", "--annotations", *paths, "--extract", str(extract_file), "--r", "0.5"]

    @pytest.mark.parametrize("command", ["evaluate", "agreement"])
    @pytest.mark.parametrize("change", ["n", "cluster_id"])
    def test_mismatch_names_the_file(self, quad_judges, tmp_path, capsys, command, change):
        odd = tmp_path / "odd.json"
        if change == "n":
            save_utility_annotation(UtilityAnnotation("B", "quad", (5, 3, 1, 0, 2)), odd)
            expected = f"{odd}: judge 'B' annotated 5 sentences, expected 4 as in {quad_judges[0]}"
        else:
            save_utility_annotation(UtilityAnnotation("B", "other", (5, 3, 1, 0)), odd)
            expected = f"{odd}: annotations mix clusters 'quad' and 'other', the first from {quad_judges[0]}"
        out = tmp_path / "out"
        assert main([*self.judge_args(command, [*quad_judges, str(odd)], tmp_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_csis_mismatch_names_the_file(self, subsumption_files, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        save_subsumption_annotation(SubsumptionAnnotation("S", "other", {2: frozenset({1})}), odd)
        out = tmp_path / "out"
        args = ["agreement", "--mode", "csis", "--annotations", *subsumption_files, str(odd)]
        assert main([*args, "--out", str(out)]) == 3
        expected = f"{odd}: annotations mix clusters 'pair' and 'other', the first from {subsumption_files[0]}"
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, code",
        [
            ("agreement", {"judge_id": "B" * 1_000_000, "cluster_id": "quad", "utilities": [5, 3, 1, 0, 2]}, 3),
            ("agreement", {"judge_id": "B", "cluster_id": "q" * 1_000_000, "utilities": [5, 3, 1, 0]}, 3),
            ("agreement", {"judge_id": "B" * 1_000_000, "cluster_id": "quad", "utilities": [5, 3, 1, 11]}, 2),
            ("evaluate", {"judge_id": "B" * 1_000_000, "cluster_id": "quad", "utilities": [5, 3, 1, 0, 2]}, 3),
        ],
        ids=["size", "cluster", "utility-range", "evaluate-size"],
    )
    def test_huge_id_gives_one_short_line(self, quad_judges, tmp_path, capsys, command, payload, code):
        odd = tmp_path / "odd.json"
        write_json(payload, odd)
        args = self.judge_args(command, [*quad_judges, str(odd)], tmp_path)
        assert main([*args, "--out", str(tmp_path / "out")]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300 and f"{odd}: " in lines[0]

    def test_huge_extract_cluster_id_gives_one_short_line(self, quad_judges, tmp_path, capsys):
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "q" * 1_000_000, "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main(args) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300 and str(extract_file) in lines[0]


class TestUndecodableFiles:
    """A file that does not decode exits 2 with one error line naming it, and no --out is left."""

    @pytest.mark.parametrize(
        "command, victim, corruption",
        [
            ("summarize", "idf", "truncated"),
            ("summarize", "cluster", "nested"),
            ("summarize", "cluster", "not utf-8"),
            ("evaluate", "judge", "truncated"),
            ("evaluate", "judge", "nested"),
            ("evaluate", "judge", "not utf-8"),
            ("agreement", "judge", "truncated"),
        ],
    )
    def test_exits_2_naming_the_file(self, news_inputs, quad_judges, tmp_path, capsys, command, victim, corruption):
        cluster_file, idf_path = news_inputs
        files = {"idf": idf_path, "cluster": cluster_file, "judge": quad_judges[-1]}
        valid = Path(files[victim]).read_bytes()
        bad = tmp_path / f"bad_{victim}.json"
        bad.write_bytes({"truncated": valid[:40], "nested": b"[" * 200_000, "not utf-8": b"\xff" + valid}[corruption])
        files[victim] = str(bad)
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        judges = [*quad_judges[:-1], files["judge"]]
        argv = {
            "summarize": ["summarize", files["cluster"], "--idf", files["idf"]],
            "evaluate": ["evaluate", "--annotations", *judges, "--extract", str(extract_file), "--r", "0.5"],
            "agreement": ["agreement", "--mode", "cbsu", "--annotations", *judges],
        }[command]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: ") and err.count("\n") == 1
        assert not out.exists()


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_summarize_requires_idf(self, news_cluster_path):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(news_cluster_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--r-grid", "abc:0.5:0.1"), ("--r-grid", "0.5"), ("--weights", "a,b,c"), ("--weights", "1,2")]
    )
    def test_bad_value_names_the_flag(self, news_inputs, tmp_path, capsys, flag, value):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "out"
        assert main(["summarize", cluster_file, "--idf", idf_path, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["weights=1,x,0", "r_grid=0.1:y:0.1", "r=abc"])
    def test_bad_config_value_names_the_line(self, news_inputs, tmp_path, capsys, line):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# sweep settings\n{line}\n")
        out = tmp_path / "out"
        assert main(["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        key, _, value = line.partition("=")
        assert f"error: {cfg}:2: {key}: " in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, value",
        [("line", "E=2"), ("line", "r=5"), ("line", "agreement_threshold=0"), ("line", "weights=0,0,0"),
         ("--r", "5"), ("--weights", "0,0,0"), ("--centroid-threshold", "nan"), ("--r-grid", "0.1:0.104:0.001")],
    )
    def test_out_of_range_value_names_its_source(self, news_inputs, tmp_path, capsys, source, value):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# sweep settings\n{value}\n")
        setting = ["--config", str(cfg)] if source == "line" else [f"{source}={value}"]
        out = tmp_path / "out"
        assert main(["summarize", cluster_file, "--idf", idf_path, *setting, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        prefix = f"error: {cfg}:2: {value.partition('=')[0]}: " if source == "line" else f"error: {source}: "
        assert len(lines) == 1 and lines[0].startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("weights", "1,x,0"), ("r", "abc"), ("r_grid", "0.1:y:0.1"), ("E", "abc"), ("E", "-1"),
         ("centroid_threshold", "abc"), ("sim_threshold", "inf"), ("agreement_threshold", "2.5"),
         ("redundancy", "yes")],
    )
    def test_flag_and_config_line_give_the_same_error(self, tmp_path, capsys, key, value):
        # the settings are resolved before any input is read, so the inputs need not exist
        command = {
            "sim_threshold": ["cluster", "docs", "--idf", "idf.json"],
            "E": ["evaluate", "--annotations", "a.json"],
            "agreement_threshold": ["evaluate", "--annotations", "a.json"],
        }.get(key, ["summarize", "c.json", "--idf", "idf.json"])
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "out"
        assert main([*command, f"{flag}={value}", "--out", str(out)]) == 2
        from_flag = capsys.readouterr().err
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        from_line = capsys.readouterr().err
        assert from_flag.startswith(f"error: {flag}: ") and from_flag.count("\n") == 1
        assert from_line == from_flag.replace(f"error: {flag}: ", f"error: {cfg}:1: {key}: ", 1)
        assert not out.exists()

    def test_config_not_utf8_names_the_file(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"r=0.2\n\xff\n")
        out = tmp_path / "out"
        assert main(["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: ") and "can't decode byte 0xff" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    def test_rate_and_grid_flags_together_exit_2(self, news_inputs, tmp_path, capsys, command):
        cluster_file, idf_path = news_inputs
        judges = []
        vectors = {"A": [10 - i // 2 for i in range(20)], "B": [max(10 - i, 1) for i in range(20)]}
        for judge_id, utilities in vectors.items():
            judges.append(str(tmp_path / f"{judge_id}.json"))
            save_utility_annotation(UtilityAnnotation(judge_id, "alg", tuple(utilities)), judges[-1])
        inputs = {
            "summarize": ["summarize", cluster_file, "--idf", idf_path],
            "evaluate": ["evaluate", "--annotations", *judges, "--system", cluster_file, "--idf", idf_path],
        }
        out = tmp_path / "out"
        # either flag alone is accepted
        assert main([*inputs[command], "--r", "0.3", "--out", str(tmp_path / "rate")]) == 0
        assert main([*inputs[command], "--r-grid", "0.1:0.2:0.1", "--out", str(tmp_path / "grid")]) == 0
        assert main([*inputs[command], "--r", "0.3", "--r-grid", "0.1:0.2:0.1", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --r and --r-grid cannot be combined")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["x" * 1_000_000, "x" * 1_000_000 + "=1"], ids=["no-equals", "unknown-key"])
    def test_huge_config_line_gives_one_short_error(self, news_inputs, tmp_path, capsys, line):
        cluster_file, idf_path = news_inputs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["summarize", cluster_file, "--idf", idf_path, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300 and f"{cfg}:1: " in lines[0]


class TestStrictNumbers:
    """Numbers in input files must be JSON integers: no crash, no silent coercion."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n_docs": 3, "df": ["a"]}, "df"),
            ({"n_docs": 3.7, "df": {}}, "n_docs"),
            ({"n_docs": "3", "df": {}}, "n_docs"),
            ({"n_docs": True, "df": {}}, "n_docs"),
            ({"n_docs": 3, "df": {"flood": 3.7}}, "df['flood']"),
            ({"n_docs": 3, "df": {"flood": "3"}}, "df['flood']"),
            ({"n_docs": 3, "df": {"flood": True}}, "df['flood']"),
            ({"n_docs": 3, "df": {"flood": 4}}, "df['flood']"),
        ],
    )
    def test_bad_idf_exits_2(self, news_cluster_path, tmp_path, capsys, payload, field):
        idf_path = tmp_path / "idf.json"
        write_json(payload, idf_path)
        code = main(["summarize", str(news_cluster_path), "--idf", str(idf_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(idf_path) in err and field in err

    @pytest.mark.parametrize(
        "utilities, field",
        [
            ("5310", "utilities"),
            ([5.7, 3, 1, 0], "utilities[0]"),
            ([5, "3", 1, 0], "utilities[1]"),
            ([5, 3, True, 0], "utilities[2]"),
            ([5, 3, 1, 11], "position 4"),
        ],
    )
    def test_bad_utilities_exit_2(self, quad_judges, tmp_path, capsys, utilities, field):
        bad = tmp_path / "bad_judge.json"
        write_json({"judge_id": "B", "cluster_id": "quad", "utilities": utilities}, bad)
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        code = main(["evaluate", "--annotations", *quad_judges, str(bad), "--extract", str(extract_file), "--r", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and field in err

    @pytest.mark.parametrize(
        "utilities, field",
        [("7" * 1_000_000, "utilities: must be an array"), ([5, "7" * 1_000_000], "utilities[1]")],
        ids=["array", "element"],
    )
    def test_huge_value_gives_one_short_line(self, quad_judges, tmp_path, capsys, utilities, field):
        bad = tmp_path / "huge_judge.json"
        write_json({"judge_id": "B", "cluster_id": "quad", "utilities": utilities}, bad)
        args = ["agreement", "--mode", "cbsu", "--annotations", *quad_judges, str(bad), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300
        assert f"{bad}: {field}" in lines[0]

    @pytest.mark.parametrize("count", [2.5, 4], ids=["not-an-integer", "out-of-range"])
    def test_huge_idf_term_gives_one_short_line(self, news_cluster_path, tmp_path, capsys, count):
        idf_path = tmp_path / "idf.json"
        write_json({"n_docs": 3, "df": {"t" * 1_000_000: count}}, idf_path)
        assert main(["summarize", str(news_cluster_path), "--idf", str(idf_path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300 and f"{idf_path}: df['ttt" in lines[0]

    @pytest.mark.parametrize(
        "subsumers",
        [{"99": [-4]}, {"0": [1]}, {"2": [0]}, {"-1": [2]}, {"x": [2]}, {"2": ["1"]}, {"2": [1.0]}, {"2": 1}],
    )
    def test_bad_subsumption_exits_2(self, quad_judges, tmp_path, capsys, subsumers):
        bad = tmp_path / "bad_sub.json"
        write_json({"judge_id": "S", "cluster_id": "quad", "subsumers": subsumers}, bad)
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--subsumption", str(bad)]) == 2
        assert f"{bad}: subsumers[" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, payload", [("cbsu", {"utilities": [5, 3, 1, 0]}), ("csis", {"subsumers": {}})])
    @pytest.mark.parametrize("field", ["judge_id", "cluster_id"])
    def test_annotation_ids_must_be_strings(self, tmp_path, capsys, mode, payload, field):
        bad = tmp_path / "bad_ids.json"
        write_json({"judge_id": "J", "cluster_id": "quad", **payload, field: 5}, bad)
        out = tmp_path / "out"
        assert main(["agreement", "--mode", mode, "--annotations", str(bad), str(bad), "--out", str(out)]) == 2
        assert f"{bad}: {field}: must be a string, got 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cluster_id, selected, field",
        [
            ("quad", "12", "selected: must be an array"),
            ("quad", [1.9, 2], "selected[0]"),
            ("quad", [1, True], "selected[1]"),
            (5, [1, 2], "cluster_id: must be a string"),
        ],
    )
    def test_bad_extract_file_exits_2(self, quad_judges, tmp_path, capsys, cluster_id, selected, field):
        bad = tmp_path / "bad_extract.json"
        write_json({"cluster_id": cluster_id, "selected": selected}, bad)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(bad), "--r", "0.5"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert f"{bad}: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_subsumption_for_another_cluster_exits_3(self, quad_judges, tmp_path, capsys):
        other = tmp_path / "other_sub.json"
        save_subsumption_annotation(SubsumptionAnnotation("S1", "other", {2: frozenset({1})}), other)
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        args += ["--subsumption", str(other), "--agreement-threshold", "1", "--out", str(tmp_path / "out")]
        assert main(args) == 3
        assert f"{other}: subsumption marks are for cluster 'other'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subsumers", [{"5": [1]}, {"2": [9]}])
    def test_subsumption_beyond_the_judged_cluster_exits_3(self, quad_judges, tmp_path, capsys, subsumers):
        late = tmp_path / "late_sub.json"
        write_json({"judge_id": "S", "cluster_id": "quad", "subsumers": subsumers}, late)
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--subsumption", str(late), "--out", str(tmp_path / "out")]) == 3
        assert f"{late}: subsumption position" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOneJudgeOneVote:
    """A key, an extract position or a judge given twice is an error, never a silent last-one-wins or double count."""

    def test_duplicate_json_key_exits_2(self, quad_judges, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text('{"judge_id": "D", "cluster_id": "quad", "judge_id": "A", "utilities": [5, 3, 1, 0]}')
        out = tmp_path / "out"
        assert main(["agreement", "--mode", "cbsu", "--annotations", *quad_judges, str(odd), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {odd}: duplicate key 'judge_id'\n"
        assert not out.exists()

    def test_duplicate_key_in_a_nested_object_exits_2(self, news_cluster_path, tmp_path, capsys):
        idf_path = tmp_path / "idf.json"
        idf_path.write_text('{"n_docs": 3, "df": {"flood": 1, "river": 2, "flood": 3}}')
        args = ["summarize", str(news_cluster_path), "--idf", str(idf_path), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {idf_path}: duplicate key 'flood'\n"

    def test_subsumption_key_with_a_leading_zero_exits_2(self, quad_judges, tmp_path, capsys):
        marks = tmp_path / "marks.json"
        write_json({"judge_id": "S", "cluster_id": "quad", "subsumers": {"2": [1], "02": [3]}}, marks)
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        args += ["--subsumption", str(marks), "--agreement-threshold", "1", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert f"error: {marks}: subsumers['02']: " in capsys.readouterr().err

    def test_repeated_extract_position_exits_2(self, quad_judges, tmp_path, capsys):
        extract_file = tmp_path / "twice.json"
        write_json({"cluster_id": "quad", "selected": [1, 1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {extract_file}: selected[1]: position 1 is selected twice\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "agreement"])
    def test_utility_judge_given_twice_exits_3(self, quad_judges, tmp_path, capsys, command):
        again = tmp_path / "again.json"
        save_utility_annotation(UtilityAnnotation("J2", "quad", (1, 2, 3, 4)), again)
        args = TestJudgeFiles.judge_args(command, [*quad_judges, str(again)], tmp_path)
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {again}: judge 'J2' is already the judge of {quad_judges[1]}\n"
        assert not (tmp_path / "out").exists()

    def test_same_utility_file_twice_exits_3(self, quad_judges, tmp_path, capsys):
        args = ["agreement", "--mode", "cbsu", "--annotations", quad_judges[0], quad_judges[0]]
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        expected = f"{quad_judges[0]}: judge 'J1' is already the judge of {quad_judges[0]}"
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_same_subsumption_file_thrice_exits_3(self, quad_judges, tmp_path, capsys):
        marks = tmp_path / "marks.json"
        save_subsumption_annotation(SubsumptionAnnotation("S", "quad", {3: frozenset({1})}), marks)
        extract_file = tmp_path / "s13.json"
        write_json({"cluster_id": "quad", "selected": [1, 3]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        args += ["--subsumption", *[str(marks)] * 3, "--agreement-threshold", "3", "--E", "0"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {marks}: judge 'S' is already the judge of {marks}\n"

    def test_csis_agreement_judge_given_twice_exits_3(self, subsumption_files, tmp_path, capsys):
        args = ["agreement", "--mode", "csis", "--annotations", *subsumption_files, subsumption_files[2]]
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        expected = f"{subsumption_files[2]}: judge 'J3' is already the judge of {subsumption_files[2]}"
        assert capsys.readouterr().err == f"error: {expected}\n"


class TestFailedRunsLeaveNothing:
    """A command that fails after it began writing removes what it created; what was there stays."""

    def test_failed_write_removes_the_files_it_wrote(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "p"
        (out / "summary_alg_r20.txt").mkdir(parents=True)  # the second write cannot replace a directory
        (out / "earlier.txt").write_text("kept")
        assert main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(path.name for path in out.iterdir()) == ["earlier.txt", "summary_alg_r20.txt"]
        assert (out / "earlier.txt").read_text() == "kept"

    def test_failed_write_keeps_the_files_it_would_replace(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "p"
        (out / "summary_alg_r20.txt").mkdir(parents=True)
        (out / "extract_alg_r20.json").write_text("old")
        (out / ".extract_alg_r20.json.tmp").write_text("a file of the same name as a temporary one")
        before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        assert main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out / 'summary_alg_r20.txt'}'\n"
        assert sorted(path.name for path in out.iterdir()) == sorted([*before, "summary_alg_r20.txt"])
        assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before

    def test_written_files_replace_the_old_and_leave_no_temporary_file(self, news_inputs, tmp_path):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "p"
        out.mkdir()
        (out / "extract_alg_r20.json").write_text("old")
        (out / ".summary_alg_r20.txt.tmp").write_text("kept")
        assert main(["summarize", cluster_file, "--idf", idf_path, "--r", "0.2", "--out", str(out)]) == 0
        names = [".summary_alg_r20.txt.tmp", "extract_alg_r20.json", "summary_alg_r20.txt"]
        assert sorted(path.name for path in out.iterdir()) == names
        assert (out / ".summary_alg_r20.txt.tmp").read_text() == "kept"
        assert json.loads((out / "extract_alg_r20.json").read_text())["cluster_id"] == "alg"

    def test_failed_write_removes_a_nested_out(self, quad_judges, tmp_path, capsys, monkeypatch):
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(centroidsumm.cli, "_write_csv", full)  # report.csv, written after report.json
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        out = tmp_path / "a" / "b" / "c"
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert not (tmp_path / "a").exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "field, value",
        [("w_c", math.nan), ("w_p", math.inf), ("w_f", -math.inf), ("E", math.nan), ("E", math.inf),
         ("centroid_threshold", math.nan), ("centroid_threshold", -math.inf),
         ("sim_threshold", math.nan), ("sim_threshold", math.inf)],
    )
    def test_run_config_rejects(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    def test_config_file_rejects_nan_threshold(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sim_threshold=nan\n")
        with pytest.raises(ValueError, match="sim_threshold"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "flags", [["--weights", "nan,0,0"], ["--weights", "1,inf,0"], ["--centroid-threshold", "nan"]]
    )
    def test_summarize_exits_2_before_writing(self, news_inputs, tmp_path, capsys, flags):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "out"
        assert main(["summarize", cluster_file, "--idf", idf_path, *flags, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_exits_2_on_overflowing_scores(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "out"
        args = ["--weights", "1e308,1e308,0", "--redundancy", "on", "--out", str(out)]
        assert main(["summarize", cluster_file, "--idf", idf_path, *args]) == 2
        assert "base score inf is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_exits_2_on_nan_similarity(self, news_inputs, tmp_path, news_cluster_path, capsys):
        _, idf_path = news_inputs
        args = ["--idf", idf_path, "--sim-threshold", "nan", "--out", str(tmp_path / "out")]
        assert main(["cluster", str(news_cluster_path.parent), *args]) == 2
        assert "sim_threshold" in capsys.readouterr().err

    def test_evaluate_exits_2_on_nan_discount(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s12.json"
        write_json({"cluster_id": "quad", "selected": [1, 2]}, extract_file)
        args = ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]
        assert main([*args, "--E", "nan"]) == 2


def test_importing_the_cli_loads_no_introspection_modules():
    """Each CLI process imports the package, so a module it needs nowhere is start-up time wasted."""
    code = "import sys; before = set(sys.modules); import centroidsumm.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(Path(centroidsumm.cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(result.stdout.split())
    assert "centroidsumm.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}, sorted(added)
