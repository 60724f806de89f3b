import hashlib
import json

import numpy as np
import pytest

from oncograde.cli import main
from oncograde.core import RngStream, derive_stream
from oncograde.dataset import synth_generate
from oncograde.models.base import Hyperparams, ModelSpec
from oncograde.models import ensemble
from oncograde.models.ensemble import BaggingModel, VotingModel, train_bagging
from oncograde.models.tree import TreeModel, train_tree


def leaf_model(hist):
    """Single-leaf tree with fixed class weights; constant predictions."""
    return TreeModel.from_params(
        {"n_features": 2, "feature": [0], "threshold": [0.0], "left": [0], "right": [0], "hist": [list(hist)]}
    )


class TestBagging:
    def test_single_member_equals_that_member(self):
        member = leaf_model([1.0, 3.0, 0.0])
        bag = BaggingModel(members=[member])
        X = np.zeros((5, 2))
        assert np.array_equal(bag.predict_proba(X), member.predict_proba(X))
        assert np.array_equal(bag.predict(X), member.predict(X))

    def test_constant_members_predict_that_class(self):
        bag = BaggingModel(members=[leaf_model([0, 0, 2.0])] * 3)
        assert (bag.predict(np.zeros((4, 2))) == 2).all()

    def test_single_class_bootstrap_becomes_constant(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        y = np.zeros(6, dtype=int)
        bag = train_bagging(X, y, Hyperparams(max_depth=3, n_estimators=4), RngStream(1))
        assert (bag.predict(X) == 0).all()

    def test_bagging_at_least_single_tree_minus_margin(self):
        d = synth_generate(400, 5)
        test = synth_generate(300, 6)
        bag = train_bagging(d.X, d.y, Hyperparams(max_depth=8, n_estimators=25), RngStream(5))
        tree = train_tree(d.X, d.y, max_depth=8, min_child_weight=1.0)
        bag_acc = (bag.predict(test.X) == test.y).mean()
        tree_acc = (tree.predict(test.X) == test.y).mean()
        assert bag_acc >= tree_acc - 0.02

    def test_deterministic_across_thread_counts(self, monkeypatch):
        d = synth_generate(150, 9)
        results = []
        for threads in ("0", "8"):
            monkeypatch.setenv("ONCOGRADE_THREADS", threads)
            bag = train_bagging(d.X, d.y, Hyperparams(max_depth=4, n_estimators=8), RngStream(3))
            results.append(bag.predict_proba(d.X))
        assert np.array_equal(results[0], results[1])

    def test_bad_estimator_count(self):
        # refused where the spec is built, before train_bagging reads it
        with pytest.raises(ValueError, match="n_estimators"):
            ModelSpec("bagging").with_hyperparams(n_estimators=0)


class TestTreeEnsembleBytes:
    """Artifact bytes of a small bagging run, pinned so CART output cannot drift.

    The digests were recorded with the per-node argsort CART that preceded
    the presorted one; both must grow the same trees bit for bit. The model
    digest was re-recorded when model files stored trees as node arrays, and
    again when the pipeline section kept only the fitted bounds and pairs.
    """

    PINNED = {
        ("train", "model.json"): "05f0d0e4c49dcb4c7422f3573ccf5afe75448d1f0bccb3e7c9e256daff0d6a2c",
        ("train", "metrics.json"): "84f8ed762a9240c60d70351fa4fb00e445733aa2eae9cef2ab7f26a8a411deaf",
        ("cv", "cv.json"): "730831728c96066a867471087ac274b9db37f4d3178328cba9b22ab83682a2c9",
    }

    def test_bagging_train_and_cv_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ONCOGRADE_THREADS", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 33,
                    "data": {"synthetic": {"n": 150}},
                    "model": {"name": "bagging", "hyperparams": {"n_estimators": 5}},
                    "eval": {"k": 3},
                }
            ),
            encoding="utf-8",
        )
        for sub in ("train", "cv"):
            assert main([sub, "--config", str(cfg), "--output-dir", str(tmp_path / sub)]) == 0
        for (sub, name), digest in self.PINNED.items():
            produced = hashlib.sha256((tmp_path / sub / name).read_bytes()).hexdigest()
            assert produced == digest, f"{sub}/{name} bytes moved"


class TestVoting:
    def test_hard_majority(self):
        model = VotingModel(
            members=[leaf_model([1, 0, 0]), leaf_model([1, 0, 0]), leaf_model([0, 1, 0])],
            mode="hard",
        )
        assert model.predict(np.zeros((2, 2))).tolist() == [0, 0]

    def test_hard_three_way_tie_lowest_class(self):
        model = VotingModel(
            members=[leaf_model([1, 0, 0]), leaf_model([0, 1, 0]), leaf_model([0, 0, 1])],
            mode="hard",
        )
        assert model.predict(np.zeros((1, 2))).tolist() == [0]

    def test_soft_mean_probabilities(self):
        model = VotingModel(
            members=[leaf_model([0.6, 0.3, 0.1]), leaf_model([0.1, 0.2, 0.7])],
            mode="soft",
        )
        P = model.predict_proba(np.zeros((1, 2)))
        assert P[0] == pytest.approx([0.35, 0.25, 0.40])
        assert model.predict(np.zeros((1, 2))).tolist() == [2]

    def test_hard_proba_is_vote_fraction(self):
        model = VotingModel(
            members=[leaf_model([1, 0, 0]), leaf_model([0, 1, 0]), leaf_model([0, 1, 0])],
            mode="hard",
        )
        P = model.predict_proba(np.zeros((1, 2)))
        assert P[0] == pytest.approx([1 / 3, 2 / 3, 0.0])

    def test_bad_mode_error(self):
        # refused where the spec is built, before train_voting reads it
        with pytest.raises(ValueError, match="mode"):
            ModelSpec("voting").with_hyperparams(voting_mode="plurality")

    def test_trains_default_members(self, small_prepared):
        prep = small_prepared
        hp = Hyperparams(epochs=15, n_estimators=5, max_depth=4)
        model = ModelSpec("voting", hp).train(
            prep.X_train, prep.y_train, derive_stream(5, 2), prep.X_test, prep.y_test
        )
        assert len(model.members) == 3
        acc = (model.predict(prep.X_test) == prep.y_test).mean()
        assert acc > 0.5

    def test_members_train_in_order_outside_the_pool(self, tmp_path, monkeypatch):
        # the one mapped call is bagging's group map; the members train one after another
        calls = []
        original = ensemble.parallel_map
        monkeypatch.setattr(ensemble, "parallel_map", lambda fn, items: calls.append(len(items)) or original(fn, items))
        cfg = tmp_path / "cfg.json"
        model = {"name": "voting", "hyperparams": {"epochs": 3, "n_estimators": 3, "max_depth": 3}}
        cfg.write_text(json.dumps({"seed": 4, "data": {"synthetic": {"n": 90}}, "model": model}))
        written = []
        for threads in ("0", "2"):
            monkeypatch.setenv("ONCOGRADE_THREADS", threads)
            calls.clear()
            assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / threads)]) == 0
            assert len(calls) == 1
            written.append((tmp_path / threads / "model.json").read_bytes())
        assert written[0] == written[1]
        members = json.loads(written[0])["model"]["params"]["members"]
        assert [m["family"] for m in members] == ["mlp", "svm_ovo", "bagging"]

    def test_voting_deterministic(self, small_prepared):
        prep = small_prepared
        hp = Hyperparams(epochs=10, n_estimators=4, max_depth=4)
        spec = ModelSpec("voting", hp)
        a = spec.train(prep.X_train, prep.y_train, derive_stream(6, 2), prep.X_test, prep.y_test)
        b = spec.train(prep.X_train, prep.y_train, derive_stream(6, 2), prep.X_test, prep.y_test)
        assert np.array_equal(a.predict_proba(prep.X_test), b.predict_proba(prep.X_test))


class TestHyperparams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"min_child_weight": -1.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"hidden_layers": []},
            {"hidden_layers": [8, 0]},
            {"C": 0.0},
            {"gamma": -2.0},
            {"degree": 0},
            {"max_depth": -1},
            {"n_estimators": 0},
            {"voting_mode": "plurality"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_replace_revalidates(self):
        spec = ModelSpec("svm_rbf")
        with pytest.raises(ValueError):
            spec.with_hyperparams(C=-1.0)
        assert spec.with_hyperparams(C=2.0).hyperparams.C == 2.0


class TestModelSpec:
    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError, match="dnn, voting, bagging, svm_rbf"):
            ModelSpec("xgboost")

    def test_all_seven_names_train(self, small_prepared):
        prep = small_prepared
        hp = Hyperparams(epochs=10, n_estimators=4, max_depth=4)
        for name in ("dnn", "voting", "bagging", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid"):
            model = ModelSpec(name, hp).train(
                prep.X_train, prep.y_train, derive_stream(9, 2), prep.X_test, prep.y_test
            )
            P = model.predict_proba(prep.X_test)
            assert P.shape == (len(prep.y_test), 3)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
            assert np.array_equal(model.predict(prep.X_test), np.argmax(P, axis=1))
