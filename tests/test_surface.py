"""No program code that only tests run.

Every top-level function and class in ``src/cstj_sim`` must be referenced by
name somewhere in the package or in the benchmark harness (``bench/*.py``),
outside its own definition, or else be exported in ``cstj_sim.__all__``.
References are ``Name`` and ``Attribute`` nodes of the parsed sources; the
tests and the harness's own tests do not count.

Every field of a dataclass in ``src/cstj_sim`` must likewise be read: some
``Attribute`` node that loads a name equal to the field's appears in the
package or the harness.

Only ``geometry_rf`` converts between dB and linear power: no other package
module refers to ``log10`` or raises 10 to a power.

Only ``sensing`` computes the measurement function and the range-noise law:
no other package module refers to ``arctan2``, ``atan2``, ``sigma_rho0_m`` or
``beta_rho``.

No package function branches on ``isinstance(..., float)``, or picks
between a ``float(...)`` and an array by a conditional expression on
``ndim``: a float form beside an array form is a second path for one
computation.

No package function maps power twice from one sender geometry: two
``received_power_map`` calls with the same sender positions and aims belong
in one call over both sets of receivers.

Only ``dynamics.norm`` computes a Euclidean length: no other package code
takes the square root of a sum of a value times itself, whose summation
order would then decide logged bits in a second place.

Only ``estimation.Estimate.__post_init__`` (covariances) and
``estimation._information_matrices`` (information matrices) symmetrise a
matrix: no other package code adds a value to its own ``.T`` or
``.transpose(...)``.

Only the records convert input to float arrays: ``asarray`` and
``asanyarray`` appear only in a ``__post_init__`` and in ``_CONVERTERS``;
every other function takes the float arrays its callers give.

No package code factorises a covariance for Gaussian draws: every draw is
diagonal, ``z * sigma`` in axis order, so no package code refers to
``multivariate_normal`` (an SVD on every call) or to ``svd``.

Every range rule on a value goes through ``dynamics.check_range``, whose
comparisons NaN always fails: no package code writes a chained comparison
(``a < b < c``, the hand-written range idiom), and ``config`` refers to no
``isfinite``, since finiteness is a rule of the records, not of the parser.
"""

import ast
from collections import Counter
from pathlib import Path

import cstj_sim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cstj_sim"
HARNESS = ROOT / "bench"


def _names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _parse(package: Path, harness: Path):
    """The package's modules by name, and every parsed tree of package and harness."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    return modules, [*modules.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in harness.glob("*.py"))]


def unreferenced_definitions(package: Path = PACKAGE, harness: Path = HARNESS) -> list[str]:
    """``module.name`` of each top-level definition nothing references."""
    modules, trees = _parse(package, harness)
    references = Counter()
    for tree in trees:
        references.update(_names(tree))
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = references[node.name] - _names(node)[node.name]
            if outside == 0 and node.name not in cstj_sim.__all__:
                unused.append(f"{module}.{node.name}")
    return unused


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(package: Path = PACKAGE, harness: Path = HARNESS) -> list[str]:
    """``module.Class.field`` of each dataclass field no attribute access reads."""
    modules, trees = _parse(package, harness)
    reads = {
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in reads:
                        unread.append(f"{module}.{node.name}.{stmt.target.id}")
    return unread


def _is_ten(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 10


def scale_conversions(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each dB/linear conversion outside ``geometry_rf``.

    A conversion is a reference to ``log10``, or 10 raised to a power by
    ``**``, ``pow`` or ``power``.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "geometry_rf":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                conversion = callee in ("pow", "power") and bool(node.args) and _is_ten(node.args[0])
            elif isinstance(node, ast.BinOp):
                conversion = isinstance(node.op, ast.Pow) and _is_ten(node.left)
            else:
                conversion = getattr(node, "id", getattr(node, "attr", None)) == "log10"
            if conversion:
                found.append(f"{path.stem}:{node.lineno}")
    return found


_MEASUREMENT_MODEL = ("arctan2", "atan2", "sigma_rho0_m", "beta_rho")


def measurement_model_copies(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each reference to a measurement-model name outside ``sensing``.

    A reference is a name or attribute in ``_MEASUREMENT_MODEL``; a keyword
    argument that sets a parameter is none.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "sensing":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "id", getattr(node, "attr", None)) in _MEASUREMENT_MODEL:
                found.append(f"{path.stem}:{node.lineno}")
    return found


_FLOAT_TYPES = ("float", "floating")


def _calls(node, name: str) -> bool:
    return any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name for sub in ast.walk(node))


def float_branches(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each float/array branch in the package.

    A branch is an ``isinstance`` test against a float type (``float`` or
    ``floating``, by name or attribute, alone or in a tuple of types), or a
    conditional expression whose test reads ``ndim`` and one of whose
    branches calls ``float``.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.IfExp):
                if "ndim" in _names(node.test) and (_calls(node.body, "float") or _calls(node.orelse, "float")):
                    found.append(f"{path.stem}:{node.lineno}")
                continue
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            types = node.args[1:]
            if types and isinstance(types[0], ast.Tuple):
                types = types[0].elts
            if any(getattr(t, "id", getattr(t, "attr", None)) in _FLOAT_TYPES for t in types):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def repeated_map_geometry(package: Path = PACKAGE) -> list[str]:
    """``module:function`` of each function with two ``received_power_map`` calls on one sender geometry.

    Two calls share a geometry when their sender positions and aims
    (arguments 2 and 3) parse to the same tree.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            geometries = [
                tuple(ast.dump(arg) for arg in sub.args[1:3])
                for sub in ast.walk(node)
                if isinstance(sub, ast.Call)
                and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == "received_power_map"
            ]
            if len(set(geometries)) < len(geometries):
                found.append(f"{path.stem}:{node.name}")
    return found


def _is_self_product(node) -> bool:
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) and node.right.value == 2


def _is_sum_of_self_product(node) -> bool:
    """``(x * x).sum(...)``, ``np.sum(x * x, ...)``, or either with ``x ** 2``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr == "sum" and _is_self_product(node.func.value):
        return True
    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
    return callee == "sum" and bool(node.args) and _is_self_product(node.args[0])


def hand_written_norms(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each ``sqrt`` of a summed self-product outside ``dynamics.norm``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = set()
        if path.stem == "dynamics":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "norm":
                    owner = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in owner or not isinstance(node, ast.Call) or not node.args:
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "sqrt" and _is_sum_of_self_product(
                node.args[0]
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_guard_sees_an_unused_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Orphan:\n    pass\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions(package, tmp_path / "no_harness") == ["a.recursive", "a.Orphan"]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_guard_sees_an_unread_field(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Record:\n    read: int\n    written: int\n\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'written', 0)\n\n\n"
        "@dataclass\nclass Stored:\n    kept: int\n\n"
        "    def reset(self):\n        self.kept = 0\n\n\n"
        "class Plain:\n    ignored: int\n\n\n"
        "def use(record):\n    return record.read\n",
        encoding="utf-8",
    )
    assert unread_fields(package, tmp_path / "no_harness") == ["a.Record.written", "a.Stored.kept"]


def test_only_geometry_rf_converts_power_scales():
    assert scale_conversions() == []


def test_guard_sees_a_scale_conversion(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "geometry_rf.py").write_text("import numpy as np\n\n\ndef db(x):\n    return 10 * np.log10(x)\n")
    (package / "a.py").write_text(
        "import math\nimport numpy as np\n\n\n"
        "def f(x):\n    return 10.0 ** (x / 10.0), 2 ** x, x ** 10, np.exp(x)\n\n\n"
        "def g(x):\n    return math.log10(x), np.power(10.0, x), pow(10, x), np.power(x, 10)\n",
        encoding="utf-8",
    )
    assert sorted(scale_conversions(package)) == ["a:10", "a:10", "a:10", "a:6"]


def test_only_sensing_computes_the_measurement_model():
    assert measurement_model_copies() == []


def test_guard_sees_a_measurement_model_copy(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sensing.py").write_text("import numpy as np\n\n\ndef h(d, p):\n    return np.arctan2(d[1], d[0]), p.beta_rho\n")
    (package / "a.py").write_text(
        "import math\nfrom numpy import arctan2\n\n\n"
        "def f(p, d, x, y):\n    return p.sigma_rho0_m + p.beta_rho * d, math.atan2(y, x)\n\n\n"
        "def g(params, x, y):\n    return arctan2(y, x), params(sigma_rho0_m=1.0, beta_rho=0.0)\n",
        encoding="utf-8",
    )
    assert sorted(measurement_model_copies(package)) == ["a:10", "a:6", "a:6", "a:6"]


def test_no_float_and_array_twins():
    assert float_branches() == []


def test_guard_sees_a_float_branch(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import numpy as np\n\n\n"
        "def f(x):\n    return x if isinstance(x, float) else np.asarray(x)\n\n\n"
        "def g(x, state):\n"
        "    if isinstance(x, (int, float)) or isinstance(x, np.floating):\n        return x\n"
        "    return isinstance(state, dict), type(x) is float\n\n\n"
        "def h(x):\n"
        "    y = float(x) if np.ndim(x) == 0 else x\n"
        "    z = x if x.ndim else float(x[()])\n"
        "    return y, z, float(x) if x.size == 1 else x, int(x) if np.ndim(x) == 0 else x\n",
        encoding="utf-8",
    )
    assert sorted(float_branches(package)) == ["a:15", "a:16", "a:5", "a:9", "a:9"]


def test_one_power_map_per_sender_geometry():
    assert repeated_map_geometry() == []


def test_guard_sees_a_repeated_map_geometry(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from geometry_rf import received_power_map\nimport geometry_rf\n\n\n"
        "def twice(db, pos, aim, ant, rf, rx, drone):\n"
        "    at_rx = received_power_map(db, pos, aim, ant, rf, rx)\n"
        "    return at_rx, received_power_map(db[:, None], pos, aim, ant, rf, drone)\n\n\n"
        "def by_module(db, pos, aim, ant, rf, rx):\n"
        "    first = geometry_rf.received_power_map(db, pos[:, None], aim, ant, rf, rx)\n"
        "    return first + received_power_map(db, pos[:, None], aim, ant, rf, rx)\n\n\n"
        "def two_geometries(db, pos, aim, ant, rf, rx):\n"
        "    return received_power_map(db, pos, aim, ant, rf, rx), received_power_map(db, aim, pos, ant, rf, rx)\n\n\n"
        "def once(db, pos, aim, ant, rf, rx):\n    return received_power_map(db, pos, aim, ant, rf, rx)\n\n\n"
        "def once_more(db, pos, aim, ant, rf, rx):\n    return received_power_map(db, pos, aim, ant, rf, rx)\n",
        encoding="utf-8",
    )
    assert sorted(repeated_map_geometry(package)) == ["a:by_module", "a:twice"]


def test_one_euclidean_norm():
    assert hand_written_norms() == []


def test_guard_sees_a_hand_written_norm(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "dynamics.py").write_text(
        "import numpy as np\n\n\n"
        "def norm(d):\n    return np.sqrt((d * d).sum(axis=-1))\n\n\n"
        "def spread(d):\n    return np.sqrt((d * d).sum())\n",
        encoding="utf-8",
    )
    (package / "a.py").write_text(
        "import math\nimport numpy as np\nfrom numpy import sqrt\n\n\n"
        "def f(d, e):\n    return np.sqrt((d * d).sum(axis=-1)), math.sqrt(np.sum(d ** 2)), sqrt((d[0] * d[0]).sum())\n\n\n"
        "def g(d, e):\n    return np.sqrt((d * e).sum()), np.sqrt(d), np.sqrt(d * d), np.hypot(d, e), (d * d).sum()\n",
        encoding="utf-8",
    )
    assert sorted(hand_written_norms(package)) == ["a:7", "a:7", "a:7", "dynamics:9"]


# (module, function or Class.method) of the package's two symmetrisations
_SYMMETRISERS = {("estimation", "Estimate.__post_init__"), ("estimation", "_information_matrices")}


def _functions(tree):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body if isinstance(sub, ast.FunctionDef))


def _is_transpose_of(node, base) -> bool:
    """``base.T`` or ``base.transpose(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
        if not (isinstance(node, ast.Attribute) and node.attr == "transpose"):
            return False
    elif not (isinstance(node, ast.Attribute) and node.attr == "T"):
        return False
    return ast.dump(node.value) == ast.dump(base)


def _owned(tree, allowed) -> set:
    """``id`` of every node inside a function or method whose qualified name ``allowed`` accepts."""
    return {id(sub) for name, node in _functions(tree) if allowed(name) for sub in ast.walk(node)}


def symmetrisations(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each ``x + x.T`` or ``x + x.transpose(...)``, either way round, outside ``_SYMMETRISERS``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = _owned(tree, lambda name: (path.stem, name) in _SYMMETRISERS)
        for node in ast.walk(tree):
            if id(node) in owned or not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            if _is_transpose_of(node.right, node.left) or _is_transpose_of(node.left, node.right):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_one_place_symmetrises_each_kind_of_matrix():
    assert symmetrisations() == []


def test_guard_sees_a_symmetrisation(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "estimation.py").write_text(
        "class Estimate:\n"
        "    def __post_init__(self):\n        self.covariance = 0.5 * (self.covariance + self.covariance.T)\n\n\n"
        "def _information_matrices(infos):\n    return 0.5 * (infos + infos.transpose(0, 2, 1))\n\n\n"
        "def init_particles(cov):\n    return 0.5 * (cov + cov.T)\n",
        encoding="utf-8",
    )
    (package / "a.py").write_text(
        "def _information_matrices(x, y):\n"
        "    return x.T + x, 0.5 * (x + x.transpose(0, 2, 1)), x + y.T, x @ x.T, x.transpose(2, 0, 1)\n",
        encoding="utf-8",
    )
    assert sorted(symmetrisations(package)) == ["a:2", "a:2", "estimation:11"]


# (module, function or Class.method) that convert input, beside every record's ``__post_init__``
_CONVERTERS = {
    ("dynamics", "vector3"),
    ("dynamics", "float_tuple"),
    ("dynamics", "TargetState.from_vector"),
    ("geometry_rf", "db_to_linear"),
}


def conversions(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each ``asarray`` or ``asanyarray`` reference outside the records' converters."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = _owned(tree, lambda name: (path.stem, name) in _CONVERTERS or name.endswith(".__post_init__"))
        for node in ast.walk(tree):
            if id(node) not in owned and getattr(node, "id", getattr(node, "attr", None)) in ("asarray", "asanyarray"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_the_records_convert_input():
    assert conversions() == []


def test_guard_sees_a_conversion(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "dynamics.py").write_text(
        "import numpy as np\n\n\n"
        "def vector3(v):\n    return np.asarray(v, dtype=float)\n\n\n"
        "class TargetState:\n"
        "    def __post_init__(self):\n        self.position = np.asarray(self.position)\n\n"
        "    def as_vector(self):\n        return np.asarray(self.position)\n",
        encoding="utf-8",
    )
    (package / "a.py").write_text(
        "import numpy as np\nfrom numpy import asarray\n\n\n"
        "def vector3(v):\n    return np.asarray(v, dtype=float)\n\n\n"
        "def f(x, y):\n    return asarray(x) - np.asanyarray(y), np.array(x), np.ascontiguousarray(y)\n\n\n"
        "ORIGIN = np.asarray([0.0, 0.0, 0.0])\n",
        encoding="utf-8",
    )
    assert sorted(conversions(package)) == ["a:10", "a:10", "a:13", "a:6", "dynamics:13"]


def gaussian_factorisations(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each ``multivariate_normal`` or ``svd`` reference."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "id", getattr(node, "attr", None)) in ("multivariate_normal", "svd"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_gaussian_draw_factorises_a_covariance():
    assert gaussian_factorisations() == []


def test_guard_sees_a_gaussian_factorisation(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "dynamics.py").write_text(
        "import numpy as np\n\n\n"
        "def gaussian_factor(v):\n    return np.linalg.svd(np.diag(v))\n\n\n"
        "def init(rng, v):\n    return rng.multivariate_normal(np.zeros(3), np.diag(v))\n",
        encoding="utf-8",
    )
    (package / "a.py").write_text(
        "from numpy.linalg import svd\n\n\n"
        "def gaussian_factor(v):\n    return svd(v)\n",
        encoding="utf-8",
    )
    assert sorted(gaussian_factorisations(package)) == ["a:5", "dynamics:5", "dynamics:9"]


def hand_written_ranges(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each chained comparison in the package, and of each ``isfinite`` reference in ``config``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chained = isinstance(node, ast.Compare) and len(node.ops) > 1
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))  # an import's alias too
            finite = path.stem == "config" and name == "isfinite"
            if chained or finite:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_range_rule_is_check_range():
    assert hand_written_ranges() == []


def test_guard_sees_a_hand_written_range(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "config.py").write_text(
        "import math\nfrom math import isfinite\n\n\n"
        "def parse(text):\n    value = float(text)\n    return value if math.isfinite(value) else None\n",
        encoding="utf-8",
    )
    (package / "sensing.py").write_text(
        "import math\n\n\n"
        "def check(p, r):\n    if not 0.0 <= p <= 1.0 or r < 0:\n        raise ValueError(p)\n"
        "    return math.isfinite(r) and 0 < r < math.inf > 1\n",
        encoding="utf-8",
    )
    assert sorted(hand_written_ranges(package)) == ["config:2", "config:7", "sensing:5", "sensing:7"]
