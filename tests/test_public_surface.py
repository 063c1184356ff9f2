"""The package's public surface: each module's own __all__, re-exported."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import priarta


def submodules():
    return [importlib.import_module(f"priarta.{info.name}")
            for info in pkgutil.iter_modules(priarta.__path__)]


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(priarta.__all__) == len(set(priarta.__all__))
    for name in priarta.__all__:
        assert hasattr(priarta, name), name


def test_each_exported_name_is_listed_by_exactly_one_module():
    listed = [name for module in submodules() for name in getattr(module, "__all__", ())]
    assert len(listed) == len(set(listed))
    assert sorted(listed + ["__version__"]) == sorted(priarta.__all__)


def test_classes_and_functions_are_defined_where_listed():
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            assert getattr(priarta, name) is obj
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_internal_numerics_are_not_exported():
    for name in ("sqrtm_psd", "sym_eig"):
        assert name not in priarta.__all__
        assert not hasattr(priarta, name)


def linalg_uses(path):
    """(line, code) of each use of a linalg module in a source file: each
    import of one, and each expression that reads one (np.linalg.eigh(a),
    scipy.linalg.sqrtm(a), la = np.linalg), bar the vector norm np.linalg.norm."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in m.split(".") for m in modules):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            member = parents[node]
            if not (isinstance(member, ast.Attribute) and member.attr == "norm"
                    and ast.unparse(node) in ("np.linalg", "numpy.linalg")):
                yield node.lineno, ast.unparse(member)


def test_only_gaussian_geometry_decomposes_matrices():
    package = Path(priarta.__file__).parent
    found = [f"{path.name}:{line} {code}"
             for path in sorted(package.glob("*.py")) if path.stem != "gaussian_geometry"
             for line, code in linalg_uses(path)]
    assert found == []
    owner = [code for _, code in linalg_uses(package / "gaussian_geometry.py")]
    assert [code for code in owner if code.startswith("np.linalg.eigh")] == ["np.linalg.eigh"]


def test_the_linalg_scan_sees_imports_aliases_and_scipy(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "from scipy import linalg\n"
        "import scipy.linalg\n"
        "la = np.linalg\n"
        "w = scipy.linalg.eigh(a)\n"
        "v = np.linalg.svd(a)\n"
        "n = np.linalg.norm(a, axis=1)\n"
    )
    assert sorted(line for line, _ in linalg_uses(source)) == [2, 3, 4, 5, 6, 7]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def node_readers(path, wanted):
    """In a source file: the function around each node for which wanted(node)
    holds (None at module level)."""
    readers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                readers.append(owner)
            visit(child, child.name if isinstance(child, FUNCTIONS) else owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return readers


def attribute_readers(path, wanted):
    """In a source file: the function around each attribute read for which
    wanted(node) holds (None at module level)."""
    return node_readers(path, lambda node: isinstance(node, ast.Attribute) and wanted(node))


def trusted_construction(path):
    """In a source file: the function around each read of object.__new__
    (None at module level), and each function whose name starts with _trusted."""
    trusted = [node.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, FUNCTIONS) and node.name.startswith("_trusted")]
    readers = attribute_readers(path, lambda node: ast.unparse(node) == "object.__new__")
    return readers, trusted


def test_one_trusted_constructor_skips_the_checks():
    # errors._trusted is the one way to build a frozen object without its
    # constructor; per-type wrappers around it would hide what each caller
    # guarantees.
    package = Path(priarta.__file__).parent
    readers, trusted = [], []
    for path in sorted(package.glob("*.py")):
        found = trusted_construction(path)
        readers += [f"{path.stem}.{owner}" for owner in found[0]]
        trusted += [f"{path.stem}.{name}" for name in found[1]]
    assert readers == ["errors._trusted"]
    assert trusted == ["errors._trusted"]


def test_the_trusted_construction_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "new = object.__new__\n"
        "def _trusted_thing(cls):\n"
        "    return object.__new__(cls)\n"
        "class A:\n"
        "    def make(self):\n"
        "        def inner():\n"
        "            return object.__new__(A)\n"
        "        return inner\n"
        "    async def _trusted_later(self):\n"
        "        pass\n"
    )
    assert trusted_construction(source) == ([None, "_trusted_thing", "inner"],
                                            ["_trusted_thing", "_trusted_later"])


def header_readers(path):
    """In a source file: the function around each read of a _HEADER method
    that unpacks (unpack, unpack_from, iter_unpack; None at module level)."""
    return attribute_readers(path, lambda node: "unpack" in node.attr
                             and ast.unparse(node.value) == "_HEADER")


def test_one_splitter_reads_the_frame_header():
    # protocol._frame_end is the one reader of a frame's length header: the
    # buyer's reads, the seller's buffers and decode_frame split with it.
    package = Path(priarta.__file__).parent
    readers = [f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
               for owner in header_readers(path)]
    assert readers == ["protocol._frame_end"]


def test_the_header_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "read = _HEADER.unpack\n"
        "def split(buffer):\n"
        "    return _HEADER.unpack_from(buffer, 0)\n"
        "class Reader:\n"
        "    def each(self, data):\n"
        "        def inner():\n"
        "            return list(_HEADER.iter_unpack(data)), _HEADER.unpack(data)\n"
        "        return inner\n"
        "    def pack(self, n):\n"
        "        return _HEADER.pack(n), _HEADER.size, OTHER.unpack(b'')\n"
    )
    assert header_readers(source) == [None, "split", "inner", "inner"]


def name_readers(path, name):
    """In a source file: the function around each read of name, by its bare
    name or as an attribute (None at module level)."""
    return node_readers(path, lambda node: name in (getattr(node, "id", None),
                                                    getattr(node, "attr", None)))


def band_readers(path):
    """The function around each read of _in_rounding_band."""
    return name_readers(path, "_in_rounding_band")


def test_one_rule_keeps_or_rebuilds_every_covariance():
    # gaussian_geometry._settled is the one reader of the rounding band:
    # psd_clamp, a reply's check and the buyer's factor all decide by it.
    package = Path(priarta.__file__).parent
    readers = {f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
               for owner in band_readers(path)}
    assert readers == {"gaussian_geometry._settled"}


def test_the_band_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "test = _in_rounding_band\n"
        "def _in_rounding_band(w):\n"
        "    return w\n"
        "def keep(w):\n"
        "    return _in_rounding_band(w) and _in_rounding_band(w)\n"
        "class Rule:\n"
        "    def rebuild(self, w):\n"
        "        def inner():\n"
        "            return gaussian_geometry._in_rounding_band(w)\n"
        "        return inner, _in_rounding_bands(w), in_rounding_band(w)\n"
    )
    assert band_readers(source) == [None, "keep", "keep", "inner"]


def factor_makers(path):
    """In a source file: the function around each square root of a clamp at
    zero, sqrt(maximum(...)) under any module prefix, the one way to make a
    factor from eigenvalues (None at module level)."""
    def called(node, name):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name

    return node_readers(path, lambda node: called(node, "sqrt") and len(node.args) == 1
                        and called(node.args[0], "maximum"))


def test_one_step_settles_every_covariance():
    # gaussian_geometry._settled is the one step that settles a covariance:
    # Cholesky, else the keep-or-rebuild rule. psd_clamp, the public
    # constructor (the buyer's summary among its callers), a window's check
    # of each reply and the lazy W2 factor each call it once, and it alone makes a W2
    # factor from eigh's eigenpairs.
    package = Path(priarta.__file__).parent

    def readers(scan):
        return sorted(f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
                      for owner in scan(path))

    assert readers(lambda path: attribute_readers(path, lambda node: node.attr == "cholesky")
                   ) == ["gaussian_geometry._settled"]
    assert readers(lambda path: name_readers(path, "_settled")) == [
        "gaussian_geometry.__post_init__", "gaussian_geometry._checked_window",
        "gaussian_geometry._covariance_factor", "gaussian_geometry.psd_clamp"]
    assert readers(factor_makers) == ["gaussian_geometry._settled"]


def test_the_factor_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "f = q * np.sqrt(np.maximum(w, 0.0))\n"
        "def factor(w, q):\n"
        "    return q * sqrt(maximum(w, 0)), np.sqrt(w), np.maximum(np.sqrt(w), 0)\n"
        "class Summary:\n"
        "    def factor(self, w, q):\n"
        "        def inner():\n"
        "            return q * numpy.sqrt(numpy.maximum(w, 0.0))\n"
        "        return inner, math.sqrt(max(w, 0)), np.sqrt(clamped(w))\n"
    )
    assert factor_makers(source) == [None, "factor", "inner"]


CROSS_TERM = "cross-covariance term"


def cross_term_solvers(path):
    """In a source file: the function around each call of _eigh, under any
    module prefix, that names its matrix CROSS_TERM, by position or keyword
    (None at module level)."""
    def solves(node):
        return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_eigh"
                and any(isinstance(arg, ast.Constant) and arg.value == CROSS_TERM
                        for arg in node.args + [kw.value for kw in node.keywords]))

    return node_readers(path, solves)


def reply_loop_decompositions(path):
    """In a source file: the last name of each call to _eigh, _settled or a
    linalg function made in a for loop over replies inside _checked_window,
    sorted."""
    calls = []
    for function in ast.walk(ast.parse(path.read_text())):
        if isinstance(function, FUNCTIONS) and function.name == "_checked_window":
            for loop in ast.walk(function):
                if isinstance(loop, ast.For) and "replies" in ast.unparse(loop.iter):
                    calls += [ast.unparse(node.func) for node in ast.walk(loop)
                              if isinstance(node, ast.Call)]
    return sorted(call.split(".")[-1] for call in calls
                  if call.split(".")[-1] in ("_eigh", "_settled") or "linalg." in call)


def test_one_solver_for_each_kind_of_cross_term():
    # A received reply's cross term is solved in its window's stack
    # (_checked_window, a window of one included), every other pair's by W2
    # itself. The check of each reply reads the stack's eigenvalues and
    # decomposes nothing but by the one step, _settled, when they do not
    # certify it.
    package = Path(priarta.__file__).parent
    solvers = {f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
               for owner in cross_term_solvers(path)}
    assert solvers == {"gaussian_geometry._checked_window",
                       "gaussian_geometry.wasserstein2_gaussian"}
    assert reply_loop_decompositions(package / "gaussian_geometry.py") == ["_settled"]


def test_the_cross_term_scans_see_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "w = _eigh(m, 'cross-covariance term')\n"
        "def solve(f, c):\n"
        "    return gaussian_geometry._eigh(f.T @ c @ f, 'cross-covariance term', False)\n"
        "def other(c):\n"
        "    return _eigh(c, 'covariance'), _eigh(c, name='cross-covariance term')\n"
        "class Window:\n"
        "    def check(self, c):\n"
        "        def inner():\n"
        "            return _eigh(c, 'x'), np.linalg.eigvalsh(c, 'cross-covariance term')\n"
        "        return inner, _eigh(c, psd=False, name='cross-covariance term')\n"
        "def _checked_window(buyer, replies, stack):\n"
        "    _eigh(stack), np.linalg.cholesky(stack)\n"
        "    for i, reply in enumerate(replies):\n"
        "        _settled(reply), numpy.linalg.eigh(reply), solve(reply, reply)\n"
        "        for row in reply:\n"
        "            gaussian_geometry._eigh(row)\n"
        "    for row in stack:\n"
        "        _settled(row)\n"
    )
    assert cross_term_solvers(source) == [None, "solve", "other", "check"]
    assert reply_loop_decompositions(source) == ["_eigh", "_settled", "eigh"]


def trace_takers(path):
    """In a source file: the function around each call of trace, under any
    module prefix or as a method (None at module level)."""
    return node_readers(path, lambda node: isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == "trace")


def test_one_evaluator_writes_the_w2_closed_form():
    # gaussian_geometry._closed_form is the one place the W2 formula is
    # written, the one taker of a trace: W2 calls it on a stack of one, and
    # a window of replies on its stack.
    package = Path(priarta.__file__).parent

    def readers(scan):
        return {f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
                for owner in scan(path)}

    assert readers(trace_takers) == {"gaussian_geometry._closed_form"}
    assert readers(lambda path: name_readers(path, "_closed_form")) == {
        "gaussian_geometry._checked_window", "gaussian_geometry.wasserstein2_gaussian"}


def test_the_trace_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "t = np.trace(c)\n"
        "def w2(a, b):\n"
        "    return numpy.trace(a) + b.trace() + trace(a, axis1=1, axis2=2)\n"
        "class Window:\n"
        "    def score(self, c):\n"
        "        def inner():\n"
        "            return np.linalg.trace(c)\n"
        "        return inner, np.traces(c), np.trace, c.diagonal().sum()\n"
    )
    assert trace_takers(source) == [None, "w2", "w2", "w2", "inner"]


FACTOR_CACHE = ("_covariance_factor", "_cholesky_norm2")


def factor_setters(path):
    """In a source file: the function around each place that sets a
    summary's W2 factor or its ||F||_F^2 by name (None at module level): a
    setattr or object.__setattr__ naming it, and an assignment to or deletion
    of the attribute; then each function of its name (a cached property), as
    itself. Second, the function around each keyword argument of its name,
    as to errors._trusted."""
    def names_it(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                "setattr", "__setattr__"):
            return any(isinstance(arg, ast.Constant) and arg.value in FACTOR_CACHE
                       for arg in node.args)
        return (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                and node.attr in FACTOR_CACHE)

    made = [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, FUNCTIONS) and node.name in FACTOR_CACHE]
    keywords = node_readers(path, lambda node: isinstance(node, ast.keyword)
                            and node.arg in FACTOR_CACHE)
    return node_readers(path, names_it) + made, keywords


def test_only_the_constructor_and_the_lazy_property_set_a_w2_factor():
    # The public constructor keeps the factor its one step made, and ||F||_F^2
    # beside a Cholesky factor; a trusted summary makes its factor lazily.
    # No trusted construction passes either, so no second maker can hand the
    # buyer a factor the constructor would not have made.
    package = Path(priarta.__file__).parent
    setters, keywords = [], []
    for path in sorted(package.glob("*.py")):
        found = factor_setters(path)
        setters += [f"{path.stem}.{owner}" for owner in found[0]]
        keywords += [f"{path.stem}.{owner}" for owner in found[1]]
    assert sorted(setters) == ["gaussian_geometry.__post_init__"] * 2 + [
        "gaussian_geometry._covariance_factor"]
    assert keywords == []


def test_the_factor_setter_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "object.__setattr__(s, '_covariance_factor', f)\n"
        "def make(s, f):\n"
        "    object.__setattr__(s, '_cholesky_norm2', 1.0)\n"
        "    setattr(s, '_covariance_factor', f)\n"
        "    s._cholesky_norm2 = 2.0\n"
        "    return _trusted(GaussianSummary, mean=m, _covariance_factor=f)\n"
        "class Summary:\n"
        "    _cholesky_norm2 = None\n"
        "    @cached_property\n"
        "    def _covariance_factor(self):\n"
        "        def inner():\n"
        "            del self._covariance_factor\n"
        "            return self._covariance_factor, getattr(self, '_cholesky_norm2')\n"
        "        return inner, object.__setattr__(self, '_cross', 1), Summary(_cross=2)\n"
    )
    assert factor_setters(source) == ([None, "make", "make", "make", "inner",
                                       "_covariance_factor"], ["make"])


def test_one_codec_reads_and_writes_both_dataset_formats():
    # fileio._read_rows is the one caller of the C-reader fast path, and
    # fileio._write_table the one writer of rows: the .raw and .emb readers
    # and writers each go through them.
    package = Path(priarta.__file__).parent

    def readers(name):
        return sorted(f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
                      for owner in name_readers(path, name))

    assert readers("_load_rows") == ["fileio._read_rows"]
    assert readers("_read_rows") == ["fileio.read_embeddings", "fileio.read_raw_dataset"]
    assert readers("_write_table") == ["fileio.write_embeddings", "fileio.write_raw_dataset"]
    assert readers("_write_text") == ["fileio._write_table", "fileio.save_json"]


def test_the_codec_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "fast = _load_rows\n"
        "def _load_rows(rows):\n"
        "    return rows\n"
        "def read(rows):\n"
        "    return _load_rows(rows) or _load_rows(rows[1:])\n"
        "class Reader:\n"
        "    def each(self, rows):\n"
        "        def inner():\n"
        "            return fileio._load_rows(rows)\n"
        "        return inner, _load_rows_twice(rows), load_rows(rows)\n"
    )
    assert name_readers(source, "_load_rows") == [None, "read", "read", "inner"]


def test_one_scorer_measures_every_w2_distance():
    # valuation._score is the one reader of wasserstein2_gaussian: a report's
    # scores and its robustness entries both come from run_valuation's round.
    package = Path(priarta.__file__).parent
    readers = sorted(f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
                     for owner in name_readers(path, "wasserstein2_gaussian"))
    assert readers == ["valuation._score"]


def test_the_scorer_scan_sees_every_place(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from .gaussian_geometry import wasserstein2_gaussian\n"
        "distance = wasserstein2_gaussian\n"
        "def _score(a, b):\n"
        "    return wasserstein2_gaussian(a, b) - wasserstein2_gaussian(b, a)\n"
        "class Report:\n"
        "    def robustness(self, a, b):\n"
        "        def inner():\n"
        "            return gaussian_geometry.wasserstein2_gaussian(a, b)\n"
        "        return inner, wasserstein2_gaussians(a), wasserstein2(a, b)\n"
    )
    assert name_readers(source, "wasserstein2_gaussian") == [None, "_score", "_score", "inner"]


def array_dataclasses():
    """(name, make) per frozen dataclass with array fields: make(k) builds a
    fresh object from fresh arrays, equal for equal k."""
    import numpy as np

    from priarta import EmbeddingSet, GaussianSummary, RawDataset
    from priarta.protocol import StatsResponse

    return {
        "RawDataset": lambda k: RawDataset(np.full((2, 2), float(k)), [0, 1], [0.5, 0.5]),
        "EmbeddingSet": lambda k: EmbeddingSet(np.full((3, 2), k / 10), 1.0, clipped=False),
        "GaussianSummary": lambda k: GaussianSummary(np.full(2, float(k)), np.eye(2), 3),
        "StatsResponse": lambda k: StatsResponse([float(k), 0.0], [1.0, 0.0, 1.0], 3,
                                                 "sess-1", 0.5, "f" * 64),
    }


@pytest.mark.parametrize("name", ["RawDataset", "EmbeddingSet", "GaussianSummary",
                                  "StatsResponse"])
def test_array_dataclasses_compare_by_value_and_refuse_hash(name):
    make = array_dataclasses()[name]
    a, same, other = make(1), make(1), make(2)
    assert a is not same and a.__dict__.keys() == same.__dict__.keys()
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != "not a dataclass"
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(a)
