"""Static guards.

No module of the package calls into threaded BLAS: artifacts are
byte-identical across BLAS thread counts only while every inner product
is a plain numpy reduction; the subprocess byte tests see a violation
only when a thread count happens to change the bits.

verify.py and solvers.py call none of the one-function energy entry
points: they evaluate row blocks and derivative images they already hold,
and a caller that falls back to one wrapped sample at a time still passes
every report and artifact test, only slower.

mountain_pass takes no block product in its loop, which walks rays, not
a path, and _ray_max takes no product at all: it scales the D image of
the point it is given, as D(t w) = t (D w), and a ray search that took
D(t w) afresh at each trial t would still pass every test, only slower.
Likewise the sine rays of the endpoint march and the multiplicity starts
combine the table of mode images that _Workspace.unit_sines takes with
its one block product, so mountain_pass and multiplicity_search take
none, and _rim_value, a bound read off the I^alpha weights, takes none
either; where that bound proves nothing it calls _Workspace.eigen_bound,
whose metric solves take their products.

The secant memory of the descents takes no product: its two-loop
recursion applies the metric solve by linearity, from the plain step and
the stored differences of plain steps, so a descent iteration costs one
metric solve at every p, and a recursion that solved afresh would pass
every convergence test, only with more products.

mountain_pass, _rim_value and minimize_direct draw no random numbers:
the rim is a proven lower bound on a whole sphere, not a sampled minimum,
and the direct descent starts from the caller's point, so either solve is
a function of its config alone, and a sampler brought back would still
pass every test of the rim's bounds.

The proven SUP_EMBED, POINCARE and EMBED_LQ records
(verify._check_embedding) and the constants they read
(fracops.embedding_constants, and verify._lq_constant for the continuum)
take no product and draw no random number: the bound is read off the
I^alpha weights for the whole pinned space, and an ensemble drawn beside
the bound would still pass every margin test, only slower.

The proven TRANSLATION_COMPACT record (verify._check_translation) takes
no product and draws nothing either: its constants K_m come from the
partial sums of the I^alpha weights and hold for every pinned u, and the
ensemble it replaced, shifted and normed beside the bound, would still
pass every margin test, only slower.

The SEMIGROUP and LEFT_INVERSE records (verify._check_column) take one
product, that of the first column, and draw nothing: both sides of each
identity are lower-triangular Toeplitz, so Young's inequality bounds the
gap for every u by the difference column, and a sampled ensemble beside
it would still pass every margin test, only slower.  RL_CAPUTO
(verify._check_rl_caputo) likewise takes the one product D 1, and
IBP_EXACT and IBP_INTEGRAL (verify._check_ibp) the one product of the
right-sided operator with e_n; IBP_INTEGRAL reads its trapezoid boundary
form off the I^alpha weights, at 2n off gl_weights, and builds no
operator.

EVEN_ENERGY (verify._check_even_energy) takes no product and draws
nothing: it reads F, f and phi_p pointwise on a fixed lattice of nodes
and dyadic amplitudes, as the FFT product is odd bit for bit, and a
record that drew functions and took D of them would pass every test,
only slower.

solvers.py builds its SolveReport in _report alone and runs its Armijo
search in _descend alone: a second copy of either would pass every test
while it drifts from the guarded one (the slope and energy checks, the
trivial flag).

fracops.gl_weights runs no Python loop: every operator build pays for
the weights, and a per-coefficient loop would pass every accuracy test,
only slower.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import fracplap

BLAS_NAMES = {"dot", "inner", "vdot", "matmul", "tensordot", "einsum", "linalg"}
SOURCES = sorted(Path(fracplap.__file__).parent.glob("*.py"))


def blas_calls(source: str) -> list[str]:
    """np.<BLAS name> uses, numpy imports of those names, and .dot( calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in BLAS_NAMES
        ):
            found.append(f"line {node.lineno}: np.{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dot"
        ):
            found.append(f"line {node.lineno}: .dot(")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {a.name for a in node.names} | set(node.module.split("."))
            found += [f"line {node.lineno}: from {node.module} import {x}" for x in names & BLAS_NAMES]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_call_in_package(path):
    assert blas_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "np.dot(a, b)",
        "numpy.inner(a, b)",
        "np.vdot(a, b)",
        "np.matmul(a, b)",
        "np.tensordot(a, b, 1)",
        "np.einsum('i,i', a, b)",
        "np.linalg.norm(a)",
        "f = np.linalg.solve",
        "a.dot(b)",
        "from numpy.linalg import solve",
        "from numpy import einsum",
    ],
)
def test_guard_flags_blas_call(snippet):
    assert blas_calls(snippet)


def test_guard_sees_every_module():
    assert {p.name for p in SOURCES} >= {"fracops.py", "solvers.py", "verify.py"}


PER_SAMPLE_NAMES = {"energy", "gradient", "monotonicity_gap", "alpha_norm"}
ROW_LAYER_SOURCES = [Path(fracplap.__file__).parent / name for name in ("verify.py", "solvers.py")]


def per_sample_calls(source: str) -> list[str]:
    """Calls of the per-sample energy functions, by name or attribute, and
    imports of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in PER_SAMPLE_NAMES:
                found.append(f"line {node.lineno}: {name}(")
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names} & PER_SAMPLE_NAMES
            found += [f"line {node.lineno}: import {x}" for x in sorted(names)]
    return found


@pytest.mark.parametrize("path", ROW_LAYER_SOURCES, ids=lambda p: p.name)
def test_module_calls_no_per_sample_energy_function(path):
    assert per_sample_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "energy(st, u)",
        "gradient(st, u).values",
        "monotonicity_gap(st, u, v)",
        "alpha_norm(ops, u, p) ** p",
        "en.energy(st, GridFunction(u, dirichlet=True))",
        "from .energy import ProblemState, gradient",
        "from .fracops import alpha_norm",
    ],
)
def test_per_sample_guard_flags_call(snippet):
    assert per_sample_calls(snippet)


def test_per_sample_guard_passes_row_bodies():
    assert per_sample_calls("E = _energy_rows(st, U, _rows(ops.left_deriv, U))") == []


def sweep_block_products(source: str):
    """_rows( calls inside a loop of mountain_pass; None if there is no
    mountain_pass."""
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == "mountain_pass":
            return sorted(
                {
                    f"line {node.lineno}: _rows("
                    for loop in ast.walk(fn)
                    if isinstance(loop, (ast.For, ast.While))
                    for node in ast.walk(loop)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_rows"
                }
            )
    return None


def test_mountain_pass_sweeps_take_no_block_product():
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert sweep_block_products(source) == []


def test_sweep_guard_flags_block_product():
    snippet = """
def mountain_pass(st):
    for sweeps in range(3):
        DP = _rows(st.ops.left_deriv, P)
    return _rows(st.ops.left_deriv, P)
"""
    assert sweep_block_products(snippet) == ["line 4: _rows("]
    assert sweep_block_products("def other():\n    _rows(op, P)\n") is None


def products_in(source: str, name: str):
    """Toeplitz products (@, @=) and _rows( calls in the function or
    method name; None if there is no such function."""
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == name:
            found = []
            for node in ast.walk(fn):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.append(f"line {node.lineno}: @")
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_rows"
                ):
                    found.append(f"line {node.lineno}: _rows(")
            return sorted(found)
    return None


def test_ray_max_takes_no_product():
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert products_in(source, "_ray_max") == []


def test_ray_guard_flags_product():
    snippet = """
def _ray_max(st, w, dw):
    dv = st.ops.left_deriv @ w
    dv @= 2.0
    return _rows(st.ops.left_deriv, w)
"""
    assert products_in(snippet, "_ray_max") == ["line 3: @", "line 4: @", "line 5: _rows("]
    assert products_in("def other(op, w):\n    return op @ w\n", "_ray_max") is None


@pytest.mark.parametrize("name", ["_rim_value", "mountain_pass", "multiplicity_search"])
def test_sine_rays_take_no_product(name):
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert products_in(source, name) == []


def test_secant_recursion_takes_no_product():
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert products_in(source, "direction") == []


def test_unit_sines_takes_one_table_product():
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert [site.split(": ")[1] for site in products_in(source, "unit_sines")] == ["_rows("]


def test_sine_guard_flags_product():
    snippet = """
class _Workspace:
    def unit_sines(self, coeffs):
        S = _rows(self.st.ops.left_deriv, self.modes)
        return S, _rows(self.st.ops.left_deriv, coeffs)

def _rim_value(ws, rng):
    return ws.st.ops.left_deriv @ rng
"""
    assert products_in(snippet, "unit_sines") == ["line 4: _rows(", "line 5: _rows("]
    assert products_in(snippet, "_rim_value") == ["line 8: @"]


def call_sites(source: str, name: str, bare: bool = True) -> list:
    """(function, line) of each call of name, as an attribute or, if bare,
    also bare, by the outermost function or method it sits in; None
    outside any."""
    sites = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                called = f.id if bare and isinstance(f, ast.Name) else getattr(f, "attr", None)
                if called == name:
                    sites.append((fn, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, fn or (child.name if is_def else None))

    visit(ast.parse(source), None)
    return sites


@pytest.mark.parametrize(
    "callee, owner",
    [("SolveReport", "_report"), ("_armijo_step", "_descend"), ("descent_weights", "_descend")],
)
def test_solver_seam_has_one_call_site(callee, owner):
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert [fn for fn, _ in call_sites(source, callee)] == [owner]


def test_seam_guard_flags_second_copy():
    snippet = """
def _descend(ws):
    return _armijo_step(ws.st)

def minimize_direct(st):
    un = _armijo_step(st)
    return solvers.SolveReport(solution=un)

class _Workspace:
    def step(self):
        return _armijo_step(self.st)
"""
    assert call_sites(snippet, "_armijo_step") == [
        ("_descend", 3), ("minimize_direct", 6), ("step", 11)
    ]
    assert call_sites(snippet, "SolveReport") == [("minimize_direct", 7)]
    assert call_sites("x = SolveReport()\n", "SolveReport") == [(None, 1)]


def python_loops(source: str, name: str):
    """Lines of the for and while loops, comprehensions included, in the
    function name; None if there is no such function."""
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == name:
            return [
                node.lineno
                for node in ast.walk(fn)
                if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                     ast.DictComp, ast.GeneratorExp))
            ]
    return None


def test_gl_weights_runs_no_python_loop():
    # the weights are one numpy running product; a per-coefficient loop
    # gives the same numbers to within 3e-14, only about 20 times slower
    source = (Path(fracplap.__file__).parent / "fracops.py").read_text(encoding="utf-8")
    assert python_loops(source, "gl_weights") == []


def test_loop_guard_flags_loops():
    snippet = """
def gl_weights(order, m):
    for k in range(m):
        pass
    while m:
        m -= 1
    return [k for k in range(m)]
"""
    assert python_loops(snippet, "gl_weights") == [3, 5, 7]
    assert python_loops("def other():\n    pass\n", "gl_weights") is None


# every public Generator method, each a draw; a bare call of one of these
# names is another function, such as gamma, which is math.gamma
GENERATOR_METHODS = {m for m in dir(np.random.Generator) if not m.startswith("_")}


def rng_calls(source: str, owners=("mountain_pass", "_rim_value")) -> list:
    """(function, line) of each call in the owners of default_rng, bare or
    as an attribute, a new stream, or of a GENERATOR_METHODS name as an
    attribute, a draw."""
    sites = call_sites(source, "default_rng") + [
        site for name in GENERATOR_METHODS for site in call_sites(source, name, bare=False)
    ]
    return sorted(site for site in sites if site[0] in owners)


def test_mountain_pass_draws_nothing():
    source = (Path(fracplap.__file__).parent / "solvers.py").read_text(encoding="utf-8")
    assert rng_calls(source, owners=("mountain_pass", "_rim_value", "minimize_direct")) == []


def test_draw_guard_flags_rng():
    snippet = """
def _rim_value(ws, rng):
    scale = gamma(1.5) * normal(0.0)
    rng = default_rng(0)
    return scale * rng.standard_normal((40, 6))

def mountain_pass(st, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(3) + rng.gamma(2.0)

def multiplicity_search(st, seed=0):
    return np.random.default_rng(seed).normal()
"""
    # a bare gamma( or normal( is no Generator method
    assert rng_calls(snippet) == [
        ("_rim_value", 4),
        ("_rim_value", 5),
        ("mountain_pass", 8),
        ("mountain_pass", 9),
        ("mountain_pass", 9),
    ]


# verify's sampling layer: a call of any of these is an ensemble
ENSEMBLE_CALLS = ("_ensemble", "_draw", "_alpha_rows")


def ensemble_calls(source: str, name: str) -> list:
    """(function, line) of each ENSEMBLE_CALLS call in the function name."""
    return sorted(
        site for callee in ENSEMBLE_CALLS for site in call_sites(source, callee) if site[0] == name
    )


@pytest.mark.parametrize(
    "module, name",
    [
        ("verify.py", "_check_embedding"),
        ("fracops.py", "embedding_constants"),
        ("verify.py", "_check_translation"),
        ("verify.py", "_lq_constant"),
    ],
)
def test_proven_embedding_takes_no_product_and_draws_nothing(module, name):
    source = (Path(fracplap.__file__).parent / module).read_text(encoding="utf-8")
    assert products_in(source, name) == []
    assert rng_calls(source, owners=(name,)) == []
    assert ensemble_calls(source, name) == []


def test_embedding_guard_flags_ensemble():
    snippet = """
def _check_embedding(params, ops, samples, rng, sup):
    for block in _ensemble(ops.grid, rng, samples, dirichlet=True):
        norms = _alpha_rows(ops, block, params.p)
    noise = rng.standard_normal(4)
    return _rows(ops.left_deriv, noise)
"""
    assert products_in(snippet, "_check_embedding") == ["line 6: _rows("]
    assert rng_calls(snippet, owners=("_check_embedding",)) == [("_check_embedding", 5)]
    assert ensemble_calls(snippet, "_check_embedding") == [
        ("_check_embedding", 3),
        ("_check_embedding", 4),
    ]


def test_column_identity_records_take_one_product_and_draw_nothing():
    source = (Path(fracplap.__file__).parent / "verify.py").read_text(encoding="utf-8")
    assert [site.split(": ")[1] for site in products_in(source, "_check_column")] == ["@"]
    assert rng_calls(source, owners=("_check_column",)) == []
    assert ensemble_calls(source, "_check_column") == []


def test_ibp_records_take_one_product_and_draw_nothing():
    source = (Path(fracplap.__file__).parent / "verify.py").read_text(encoding="utf-8")
    assert [site.split(": ")[1] for site in products_in(source, "_check_ibp")] == ["@"]
    assert rng_calls(source, owners=("_check_ibp", "_boundary_form")) == []
    assert ensemble_calls(source, "_check_ibp") == []
    assert "_check_ibp" not in [fn for fn, _ in call_sites(source, "build_operators")]


def test_rl_caputo_takes_one_product_and_draws_nothing():
    source = (Path(fracplap.__file__).parent / "verify.py").read_text(encoding="utf-8")
    assert [site.split(": ")[1] for site in products_in(source, "_check_rl_caputo")] == ["@"]
    assert rng_calls(source, owners=("_check_rl_caputo",)) == []
    assert ensemble_calls(source, "_check_rl_caputo") == []


def test_even_energy_takes_no_product():
    source = (Path(fracplap.__file__).parent / "verify.py").read_text(encoding="utf-8")
    assert products_in(source, "_check_even_energy") == []
    assert rng_calls(source, owners=("_check_even_energy",)) == []
    assert ensemble_calls(source, "_check_even_energy") == []


def test_column_guard_flags_sampled_identity():
    snippet = """
def _check_column(params, ops, samples, rng, semigroup):
    for block in _ensemble(ops.grid, rng, samples, dirichlet=False):
        lhs = _rows(ops.left_int, _rows(ops.left_int, block))
    noise = rng.standard_normal(ops.grid.n + 1)
    return ops.left_int @ ops.left_int.col
"""
    assert products_in(snippet, "_check_column") == [
        "line 4: _rows(",
        "line 4: _rows(",
        "line 6: @",
    ]
    assert rng_calls(snippet, owners=("_check_column",)) == [("_check_column", 5)]
    assert ensemble_calls(snippet, "_check_column") == [("_check_column", 3)]
