import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import ptmatrix as pt


def test_every_exported_name_resolves_and_is_listed_once():
    # a name deleted from the library cannot stay in __all__
    assert len(pt.__all__) == len(set(pt.__all__))
    missing = [name for name in pt.__all__ if not hasattr(pt, name)]
    assert missing == []


def test_one_eigensolver_and_no_second_propagation_path():
    # every general eigensolve goes through linalg.eig_arrays, and evolve
    # propagates with a classification's eigenpairs: the removed second
    # solver and propagator must not come back under their old names, nor
    # the absolute class predicates that classify_matrix replaced, nor the
    # overflow re-summing and the cluster walk that per-matrix units replaced
    package = pathlib.Path(pt.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites += [(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.eig"]
    assert sites == [("linalg.py", "eig_arrays")]
    modules = [importlib.import_module(f"ptmatrix.{info.name}")
               for info in pkgutil.iter_modules([str(package)])]
    for name in ("eig_real", "diagonalize", "mat_exp_times", "pt_norm_signature",
                 "is_symmetric", "is_hermitian", "is_real", "is_orthogonal", "pt_commutes",
                 "_rescaled_norms", "clusters"):
        assert name not in pt.__all__
        assert [m.__name__ for m in (pt, *modules) if hasattr(m, name)] == []


def test_import_does_not_load_numpy_random():
    # construct.block_draws loads numpy.random on first use, so a sweep or an
    # analysis that draws nothing pays neither its import time nor its memory
    res = subprocess.run(
        [sys.executable, "-c", "import sys, ptmatrix; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
