import json
import math

import pytest

import centroidsumm.cli
from centroidsumm import (
    PRESETS,
    SubsumptionAnnotation,
    UtilityAnnotation,
    build_centroid,
    build_idf,
    build_report,
    cluster_to_dict,
    document_to_dict,
    extract,
    lead_baseline,
    load_idf,
    parse_cluster,
    round_half_up,
    save_idf,
    save_subsumption_annotation,
    save_utility_annotation,
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
from conftest import JUDGE_UTILITIES, SUBSUMPTION_MARKS
from helpers import background_documents, make_cluster


def write_json(payload, path):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    def test_round_trip_with_grid(self, tmp_path):
        config = RunConfig(w_c=1, w_p=1, w_f=0, r=0.3, r_grid=(0.1, 0.2, 0.3), redundancy=True)
        path = tmp_path / "run.cfg"
        config.to_file(path)
        assert RunConfig.from_file(path) == config

    def test_round_trip_without_grid(self, tmp_path):
        config = RunConfig(r=0.25, sim_threshold=0.4)
        path = tmp_path / "run.cfg"
        config.to_file(path)
        assert RunConfig.from_file(path) == config

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

    def test_empty_dir_is_zero_clusters(self, tmp_path, news_cluster_path, capsys):
        _, idf_path = self.prepare(tmp_path, news_cluster_path)
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["cluster", str(empty), "--idf", str(idf_path), "--out", str(tmp_path / "c")])
        assert code == 0
        assert "0 clusters" in capsys.readouterr().out


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

    def test_grid_with_colliding_tags_exits_2_before_writing(self, news_inputs, tmp_path, capsys):
        cluster_file, idf_path = news_inputs
        out = tmp_path / "fine"
        code = main(["summarize", cluster_file, "--idf", idf_path, "--r-grid", "0.1:0.13:0.005", "--out", str(out)])
        assert code == 2
        assert "0.1:0.13:0.005 gives several rates the output tag r10, r12" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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

    def test_wrong_size_extract_exits_3(self, quad_judges, tmp_path):
        extract_file = tmp_path / "triple.json"
        write_json({"cluster_id": "quad", "selected": [1, 2, 3]}, extract_file)
        assert main(["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r", "0.5"]) == 3

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
        args = ["evaluate", "--annotations", *judges, flag, cluster_file, "--idf", idf_path, "--r", "0.2"]
        assert main(args + ["--out", str(tmp_path / "eval")]) == 3
        assert f"{cluster_file}: cluster 'alg' has 20 sentences" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

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

    def test_grid_rejects_fixed_extracts(self, quad_judges, tmp_path):
        extract_file = tmp_path / "s14.json"
        write_json({"cluster_id": "quad", "selected": [1, 4]}, extract_file)
        code = main(
            ["evaluate", "--annotations", *quad_judges, "--extract", str(extract_file), "--r-grid", "0.25:0.75:0.25"]
        )
        assert code == 2

    def test_grid_needs_a_system(self, quad_judges):
        assert main(["evaluate", "--annotations", *quad_judges, "--r-grid", "0.25:0.75:0.25"]) == 2

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

    def test_reruns_are_byte_identical(self, subsumption_files, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["agreement", "--mode", "csis", "--annotations", *subsumption_files, "--out", str(out)]) == 0
        assert (out1 / "csis_tally.csv").read_bytes() == (out2 / "csis_tally.csv").read_bytes()


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_summarize_requires_idf(self, news_cluster_path):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(news_cluster_path)])
        assert exc.value.code == 2


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
