import ast
import importlib
import pathlib
import pkgutil

import ptmatrix as pt


def test_every_exported_name_resolves_and_is_listed_once():
    # a name deleted from the library cannot stay in __all__
    assert len(pt.__all__) == len(set(pt.__all__))
    missing = [name for name in pt.__all__ if not hasattr(pt, name)]
    assert missing == []


def test_one_eigensolver_and_no_second_propagation_path():
    # every general eigensolve goes through linalg.eig_arrays, and evolve
    # propagates with a classification's eigenpairs: the removed second
    # solver and propagator must not come back under their old names
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
    for name in ("eig_real", "diagonalize", "mat_exp_times", "pt_norm_signature"):
        assert name not in pt.__all__
        assert [m.__name__ for m in (pt, *modules) if hasattr(m, name)] == []
