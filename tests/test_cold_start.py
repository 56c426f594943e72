"""Importing the package must not load scipy.

scipy is needed only by the L-BFGS solver (``repro.ml.linear``) and the
Beta-Shapley size weights, and each imports it on first use. The check
runs in a fresh interpreter and asserts which modules are loaded, not how
long the import took, so a slow host cannot make it fail.
"""

import os
import subprocess
import sys

SCRIPT = r"""
import importlib
import pkgutil
import sys

import numpy as np

import repro
import repro.importance
import repro.serve


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
assert scipy_modules() == [], scipy_modules()

from repro.serve import AnytimeEstimate

AnytimeEstimate(confidence=0.9)
assert scipy_modules() == [], scipy_modules()

from repro.importance.beta_shapley import beta_size_weights

weights = beta_size_weights(6, 16.0, 1.0)
assert "scipy.special" in sys.modules
assert "scipy.optimize" not in sys.modules
assert abs(weights.sum() - 1.0) < 1e-12

from repro.ml import LogisticRegression

X = np.array([[0.0], [1.0], [2.0], [3.0]])
model = LogisticRegression().fit(X, np.array([0, 0, 1, 1]))
assert "scipy.optimize" in sys.modules
assert list(model.predict(X)) == [0, 0, 1, 1]
print("ok")
"""


def test_import_loads_no_scipy_until_first_use():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
