import json

import numpy as np
import pytest

from oncograde.core import derive_stream
from oncograde.models.base import Hyperparams, ModelSpec, model_from_doc, model_to_doc, proba_to_labels

ALL_NAMES = ("dnn", "voting", "bagging", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_json_roundtrip_preserves_predictions(name, small_prepared):
    prep = small_prepared
    hp = Hyperparams(epochs=8, n_estimators=3, max_depth=3)
    model = ModelSpec(name, hp).train(
        prep.X_train, prep.y_train, derive_stream(11, 2), prep.X_test, prep.y_test
    )
    text = json.dumps(model_to_doc(model))
    restored = model_from_doc(json.loads(text))
    assert np.array_equal(model.predict_proba(prep.X_test), restored.predict_proba(prep.X_test))
    assert np.array_equal(model.predict(prep.X_test), restored.predict(prep.X_test))
    # a second serialization round produces identical bytes
    assert json.dumps(model_to_doc(restored)) == text
    # the contract: an svm labels by its vote scores, every other model by its probabilities
    for m in (model, restored):
        scores = m.scores(prep.X_test) if name.startswith("svm_") else m.predict_proba(prep.X_test)
        assert np.array_equal(m.predict(prep.X_test), proba_to_labels(scores))


def test_wrong_width_rows_are_refused_with_one_message(small_prepared):
    prep = small_prepared
    hp = Hyperparams(epochs=4, n_estimators=2, max_depth=3)
    args = (prep.X_train, prep.y_train, derive_stream(11, 2), prep.X_test, prep.y_test)
    dnn, bagging = ModelSpec("dnn", hp).train(*args), ModelSpec("bagging", hp).train(*args)
    d = prep.X_test.shape[1]
    for model in (dnn, bagging.members[0]):
        with pytest.raises(ValueError, match=f"^dimension mismatch: model expects {d} features, got {d + 1}$"):
            model.predict_proba(np.hstack([prep.X_test, prep.X_test[:, :1]]))


def test_document_is_tagged_and_carries_no_version(small_prepared):
    """Only the model file is versioned; a model document and its members
    are a family and its params."""
    prep = small_prepared
    model = ModelSpec("bagging", Hyperparams(n_estimators=2, max_depth=2)).train(
        prep.X_train, prep.y_train, derive_stream(1, 2), prep.X_test, prep.y_test
    )
    doc = model_to_doc(model)
    assert doc["family"] == "bagging"
    assert list(doc) == list(doc["params"]["members"][0]) == ["family", "params"]
    assert list(doc["params"]) == ["members"]
    json.dumps(doc)  # must be JSON-serializable as-is


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown model family"):
        model_from_doc({"family": "forest", "params": {}})
