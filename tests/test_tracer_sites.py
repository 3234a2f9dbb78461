"""Every lookup site the benchmark's tracer patches must exist in the package.

``perfbench/tracer.py`` wraps functions and methods by name, looking each
one up with ``owner.__dict__[attr]``. A rename or a move in ``src/`` would
make a traced benchmark run fail, so this resolves every site the same way
``tracer.install`` does, without patching anything, and runs the measure
hooks that read fields of a return value on real ones.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_every_tracer_site_resolves():
    sites = [site for _, lookups, _ in _load_tracer().SITES for site in lookups]
    assert len(sites) > 40
    missing = []
    for site in sites:
        try:
            if not callable(_resolve(site)):
                missing.append(site)
        except (AttributeError, KeyError, ImportError):
            missing.append(site)
    assert missing == []


def test_every_verify_suite_has_a_traceable_function():
    verify = importlib.import_module("c4td.verify")
    assert verify._SUITE_FNS
    for key in verify._SUITE_FNS:
        assert callable(getattr(verify, f"suite_{key}"))


def test_measure_hooks_read_real_return_values():
    tracer = _load_tracer()
    gmm = importlib.import_module("c4td.gmm")
    y = np.random.default_rng(0).standard_normal((40, 3))
    result = gmm.fit(y, 2, max_iters=5, seed=1)
    assert tracer._fit_counts((y, 2), result) == [result.n_iterations, result.n_reseeds]
    resp = gmm.e_step(result.mixture, y)
    assert tracer._e_step_rows((result.mixture, y), resp) == 40
