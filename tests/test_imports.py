"""The lazy package namespace: what an import loads, and what it binds."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebfkit

ROOT = Path(__file__).resolve().parent.parent

# the public names of the package, by the module that defines them
PUBLIC = {
    "ebfkit.core": ["EVIDENCE_BASE", "BiasValue", "EvidenceReport", "HypothesisRegion",
                    "LogMarginal", "make_report"],
    "ebfkit.normal_ebf": ["bias_normal", "deviance_criterion", "ebf_chi_squared",
                          "ebf_directional", "ebf_interval", "ebf_one_sided",
                          "ebf_two_sided", "normal_posterior_marginal"],
    "ebfkit.t_ebf": ["ebf_t", "t_expected_bias", "t_posterior_marginal"],
    "ebfkit.count_ebf": ["CountData", "binom_expected_bias", "binom_posterior_marginal",
                         "ebf_binom", "ebf_count", "ebf_negbinom", "model_average",
                         "negbinom_expected_bias", "negbinom_posterior_marginal"],
    "ebfkit.f_ebf": ["ebf_anova", "ebf_f", "f_expected_bias", "f_posterior_marginal"],
    "ebfkit.pvalue_ebf": ["ebf_pvalue", "posterior_prob_h0", "pvalue_expected_bias",
                          "pvalue_posterior_marginal"],
    "ebfkit.multitest": ["MultiTestBatch", "cross_marginal", "multi_ebf", "ranked_summary"],
    "ebfkit.calibration": ["brc", "calibration_curve", "calibration_table",
                           "held_ott_bound", "p_for_units", "sellke_bound",
                           "unit_information_bf", "units_of_evidence"],
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}

# engines and scipy subpackages the multiple-testing factor does not need
NOT_FOR_MULTITEST = (
    "ebfkit.t_ebf", "ebfkit.f_ebf", "ebfkit.count_ebf", "ebfkit.pvalue_ebf",
    "ebfkit.calibration", "ebfkit.simharness",
    "scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.stats", "scipy.linalg",
)


def _fresh(*args):
    """Run a fresh interpreter with ebfkit from src/ and return its stdout
    and stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, proc.stderr


def _loaded_after(code, names):
    out, _ = _fresh("-c", f"import json, sys\n{code}\n"
                          f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))")
    return json.loads(out)


def test_multitest_loads_only_what_it_uses():
    assert _loaded_after("import ebfkit.multitest, ebfkit.normal_ebf",
                         NOT_FOR_MULTITEST) == []


def test_bare_package_import_loads_no_numpy():
    assert _loaded_after("import ebfkit", ("numpy", "scipy")) == []


def test_public_names_are_the_engines_objects():
    assert sorted(ebfkit.__all__) == sorted(DEFINED_IN)
    for name, module in DEFINED_IN.items():
        assert getattr(ebfkit, name) is getattr(importlib.import_module(module), name), name
        assert name in vars(ebfkit)  # bound on first use


def test_dir_lists_every_public_name():
    assert set(ebfkit.__all__) <= set(dir(ebfkit))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ebfkit import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 46
    assert namespace == {name: getattr(ebfkit, name) for name in ebfkit.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ebfkit' has no attribute 'no_such_name'$"):
        ebfkit.no_such_name  # noqa: B018


def test_cli_import_loads_every_traced_module():
    """``import ebfkit.cli`` loads every module the benchmark's traced run
    times from its ``-X importtime`` output (``IMPORTED_MODULES`` outside
    ``ISOLATED_IMPORTS``); the traced run fails if one is missing.  This
    follows the benchmark's rule, so it changes when that rule does."""
    spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    _, stderr = _fresh("-X", "importtime", "-c", "import ebfkit.cli")
    seen = layers.parse_importtime(stderr)
    missing = [name for name in layers.IMPORTED_MODULES
               if name not in layers.ISOLATED_IMPORTS and name not in seen]
    assert missing == []


# every module but t_ebf and the CLI loads scipy.special on first use
NO_SCIPY_ON_IMPORT = (
    "ebfkit.core", "ebfkit.normal_ebf", "ebfkit.multitest", "ebfkit._kernels",
    "ebfkit.numerics", "ebfkit.count_ebf", "ebfkit.f_ebf", "ebfkit.pvalue_ebf",
    "ebfkit.calibration", "ebfkit.simharness",
)
_SCIPY_LOADED = "sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))"


def test_engines_load_scipy_on_first_use():
    """Importing the engines loads no scipy; scalar normal factors, the
    P-value factor and point/full batches never load it; a half-line batch
    loads scipy.special and nothing else that scipy offers."""
    out, _ = _fresh("-c", f"""
import json, sys
import numpy as np
import {", ".join(NO_SCIPY_ON_IMPORT)}
from ebfkit.core import HypothesisRegion as H
from ebfkit.multitest import MultiTestBatch, multi_ebf
seen = [{_SCIPY_LOADED}]
ebfkit.normal_ebf.ebf_interval(1.0, 1.0, H.below(0.0), H.above(0.0))
ebfkit.normal_ebf.ebf_two_sided(2.0)
ebfkit.pvalue_ebf.ebf_pvalue(0.03)
x = np.linspace(-3.0, 3.0, 500)
multi_ebf(MultiTestBatch.from_arrays(x, np.ones(500), H.point(0.0), H.full(), pi_h=0.1))
seen.append({_SCIPY_LOADED})
multi_ebf(MultiTestBatch.from_arrays(x, np.ones(500), H.below(0.0), H.above(0.0), pi_h=0.1))
seen.append({_SCIPY_LOADED})
print(json.dumps(seen))
""")
    on_import, after_closed_forms, after_half_lines = json.loads(out)
    assert on_import == [] and after_closed_forms == []
    assert "scipy.special" in after_half_lines
    assert [n for n in NOT_FOR_MULTITEST
            if n.startswith("scipy.") and n in after_half_lines] == []


def test_only_t_ebf_imports_scipy_at_module_level():
    importers = sorted(path.name for path in (ROOT / "src" / "ebfkit").rglob("*.py")
                       if any(line.startswith(("from scipy", "import scipy"))
                              for line in path.read_text().splitlines()))
    assert importers == ["t_ebf.py"]
