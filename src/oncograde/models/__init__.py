"""The seven classifiers. Nothing is re-exported: import each name from the
module that defines it (``base``, ``mlp``, ``svm``, ``tree`` or ``ensemble``)."""
