"""A stack of problems solved in one map loop gives each problem's lone solve.

``sinkhorn._solve_stack`` runs the maps of several same-sized problems
together; a problem's pair is taken at the map where it meets tol, and
the problem keeps its place until the stack is done. Its row of the stack's
record, read as ``solve`` returns it (``sinkhorn._row_result``), must be the
pair and report, or the ``NotConverged``, of a lone ``solve``, bit for bit,
on every half-step path.
"""

import tracemalloc

import numpy as np
import pytest

from entot import harness as hz
from entot import measures as ms
from entot import sinkhorn as sk
from entot.errors import NotConverged
from entot.sinkhorn import SolverConfig

from _util import SUITE_SEED, as_block, block_measures


def _problems(count, n=40, m=30, seed=71):
    """Seeded Gaussian pairs of one shape, d = 2; Q is shifted by 1."""
    stream = ms.SeedSpec(SUITE_SEED, seed).stream()
    return ([ms.sample_gaussian(np.zeros(2), 1.0, n, stream) for _ in range(count)],
            [ms.sample_gaussian(np.ones(2), 1.0, m, stream) for _ in range(count)])


def _lone(P, Q, cfg):
    try:
        return sk.solve(P, Q, cfg)
    except NotConverged as exc:
        return exc


def _row(solved, r, cfg):
    """Row r of a stack's record, as ``solve`` returns or raises it."""
    try:
        return sk._row_result(solved, r, cfg)
    except NotConverged as exc:
        return exc


def _solved(Ps, Qs, cfg):
    """The record of one stacked solve of the problems (Ps[r], Qs[r])."""
    return sk._solve_stack(*as_block(Ps), *as_block(Qs), cfg)


def _stack(Ps, Qs, cfg):
    """Each problem's row of one stacked solve, as ``solve`` returns or raises it."""
    solved = _solved(Ps, Qs, cfg)
    return [_row(solved, r, cfg) for r in range(len(Ps))]


def _parts(result):
    if isinstance(result, NotConverged):
        return result.pair, result.report
    return result


def _assert_same(stacked, lone):
    """f and g bytes and every report field, or the same NotConverged."""
    assert isinstance(stacked, NotConverged) == isinstance(lone, NotConverged)
    if isinstance(lone, NotConverged):
        assert str(stacked) == str(lone)
    (a, ra), (b, rb) = _parts(stacked), _parts(lone)
    assert a.f.tobytes() == b.f.tobytes() and a.g.tobytes() == b.g.tobytes()
    assert a.normalization is b.normalization
    for field in ("iterations", "final_residual", "dual_value", "converged",
                  "optimality_residual", "path"):
        assert getattr(ra, field) == getattr(rb, field), field


def _check_stack(Ps, Qs, cfg):
    stacked = _stack(Ps, Qs, cfg)
    lone = [_lone(P, Q, cfg) for P, Q in zip(Ps, Qs)]
    assert len(stacked) == len(Ps)
    for s, lo in zip(stacked, lone):
        _assert_same(s, lo)
    return [_parts(lo)[1] for lo in lone]


def _stalling_problems(count, seed):
    """Same-sized problems in the pattern of ``test_sinkhorn._stalling_problem``:
    3 atoms against 7 in [-2, 2]^3, about 30% zero weights."""
    rng = np.random.default_rng(seed)
    Ps, Qs = [], []
    for _ in range(count):
        X, Y = (4 * rng.random((k, 3)) - 2 for k in (3, 7))
        a, b = (np.where(rng.random(k) < 0.3, 0.0, rng.random(k) + 0.1) for k in (3, 7))
        a[0] = b[-1] = 1.0
        Ps.append(ms.DiscreteMeasure(X, a / a.sum()))
        Qs.append(ms.DiscreteMeasure(Y, b / b.sum()))
    return Ps, Qs


# eps = 0.5: problems leave at different maps; eps = 2: few maps; eps = 0.2:
# more maps. The stalling pattern at eps = 0.06 takes 26 to 268 maps, and
# every problem rejects mixed points and restarts its history, 5 to 84
# times, at maps of its own (first at map 3 or 5).
@pytest.mark.parametrize("draw, seed, eps", [(_problems, 71, 0.5), (_problems, 72, 2.0),
                                             (_problems, 123, 0.2),
                                             (_stalling_problems, 79, 0.06)],
                         ids=["71-0.5", "72-2.0", "123-0.2", "stalling-79-0.06"])
def test_kernel_stack_matches_lone_solves(draw, seed, eps):
    reports = _check_stack(*draw(6, seed=seed), SolverConfig(eps=eps))
    assert len({r.iterations for r in reports}) > 1
    assert {r.path for r in reports} == {"kernel"}


# spread 1: the underflowing problem would leave last (13 maps, against 9,
# 10 and 11); spread 6 widens the other Ps, which then take 36, 37 and 39
# maps, so it would leave first; either way the stack is solved again one
# problem at a time
@pytest.mark.parametrize("spread, first", [(1.0, False), (6.0, True)],
                         ids=["leaves-last", "leaves-first"])
def test_stack_with_one_underflowing_problem_matches_lone_solves(spread, first, monkeypatch):
    # one atom of the third P sits 31 away from every atom of its Q: its kernel
    # row sum is below _KERNEL_FLOOR (0.5 * 31**2 = 480.5 > 460.5) at eps = 1
    Ps, Qs = _problems(4, seed=73)
    far = Ps[2].points.copy()
    far[0] += 31.0
    Ps = [ms.DiscreteMeasure(P.points * spread, P.weights) for P in Ps]
    Ps[2] = ms.DiscreteMeasure(far, Ps[2].weights)
    cfg = SolverConfig(eps=1.0)
    reports = _check_stack(Ps, Qs, cfg)
    assert [r.path for r in reports] == ["kernel", "kernel", "kernel+log", "kernel"]
    others = [r.iterations for k, r in enumerate(reports) if k != 2]
    if first:
        assert reports[2].iterations < min(others)
    else:
        assert reports[2].iterations > max(others)
    # cost builds, kernels included (half_sq_cost looks _cost_slabs up in
    # the module): the stack builds its kernels, then at most what its
    # problems' lone solves build
    builds = []
    build = sk._cost_slabs
    monkeypatch.setattr(sk, "_cost_slabs", lambda *args: builds.append(1) or build(*args))
    _solved(Ps, Qs, cfg)
    stacked = len(builds)
    for P, Q in zip(Ps, Qs):
        _lone(P, Q, cfg)
    assert stacked <= len(Ps) + len(builds) - stacked


def test_blocked_stack_matches_lone_solves(monkeypatch):
    Ps, Qs = _problems(3, n=20, m=15, seed=74)
    monkeypatch.setattr(sk, "DENSE_ENTRY_LIMIT", 100)
    reports = _check_stack(Ps, Qs, SolverConfig(eps=0.5))
    assert {r.path for r in reports} == {"blocked"}


def test_budget_run_out_inside_a_stack_matches_lone_solves():
    Ps, Qs = _problems(6, seed=75)
    maps = [r.iterations for r in _check_stack(Ps, Qs, SolverConfig(eps=0.5))]
    # a budget some problems meet and some do not: the fastest problem's maps
    cfg = SolverConfig(eps=0.5, max_iter=min(maps))
    stacked = _stack(Ps, Qs, cfg)
    failed = [isinstance(s, NotConverged) for s in stacked]
    assert any(failed) and not all(failed)
    for s, (P, Q) in zip(stacked, zip(Ps, Qs)):
        _assert_same(s, _lone(P, Q, cfg))


# 13 is the chunk the harness stacks at 100 x 100; a copy of the live kernels
# when the first problem leaves would hold about 2 * count kernels there
@pytest.mark.parametrize("count, n", [(13, 100), (2, 250)])
def test_stack_memory_is_one_kernel_stack_and_one_build(count, n):
    """The traced peak is the kernel stack, each kernel built in its slot,
    and one cost slab, plus numpy's two ufunc buffers (``_cost_slabs``'s
    broadcast subtract takes them) and 64 KiB for the stack's rows."""
    Ps, Qs = _problems(count, n=n, m=n, seed=78)
    blocks = as_block(Ps) + as_block(Qs)
    tracemalloc.start()
    try:
        stacked = sk._solve_stack(*blocks, SolverConfig(eps=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(stacked.iterations.tolist())) > 1  # leaves at different maps
    slack = 2 * 8 * np.getbufsize() + (64 << 10)
    assert peak <= count * n * n * 8 + 8 * sk._COST_SLAB_ENTRIES + slack


def test_stack_of_one_is_solve():
    Ps, Qs = _problems(1, seed=76)
    cfg = SolverConfig(eps=0.5)
    (stacked,) = _stack(Ps, Qs, cfg)
    _assert_same(stacked, sk.solve(Ps[0], Qs[0], cfg))


@pytest.mark.parametrize("eps", [0.5, 2.0])
def test_stacked_solved_costs_match_lone_ones(eps):
    Ps, Qs = _problems(4, seed=77)
    cfg = SolverConfig(eps=eps)
    solved = _solved(Ps, Qs, cfg)
    for r, (P, Q) in enumerate(zip(Ps, Qs)):
        stacked = (*sk._row_result(solved, r, cfg), solved.cost[r])
        pair, report, value = sk._solved_cost(P, Q, cfg)
        assert stacked[2] == value
        _assert_same(stacked[:2], (pair, report))



def _draws(P, n, count, seed):
    """The block of ``count`` count-weighted empirical measures of n draws on
    P's atoms."""
    return hz._empirical(P, n, [ms.SplitMix64(ms.derived_seed(SUITE_SEED, seed, r))
                                for r in range(count)])


@pytest.mark.parametrize("floor, path", [(sk._KERNEL_FLOOR, "kernel"), (np.inf, "kernel+log")],
                         ids=["kernel", "floor-inf"])
def test_stack_on_shared_supports_builds_one_kernel(floor, path, monkeypatch):
    # replicates on one population's atoms share both supports: the stack
    # builds one Gibbs kernel, and each problem's result is its lone solve's,
    # also in the self terms, where never-drawn atoms weigh 0 on both sides;
    # a stack that leaves its kernel is solved again one problem at a time
    stream = ms.SeedSpec(SUITE_SEED, 90).stream()
    P, Q = (ms.uniform_on(stream.uniforms(20).reshape(10, 2)) for _ in range(2))
    Ps, P2s = _draws(P, 12, 6, seed=91), _draws(P, 12, 6, seed=92)
    assert all(np.any(w == 0) for w in [*Ps[1], *P2s[1]])
    kernels = []
    build = sk._gibbs_kernel
    monkeypatch.setattr(sk, "_gibbs_kernel",
                        lambda X, Y, eps: kernels.append(1) or build(X, Y, eps))
    monkeypatch.setattr(sk, "_KERNEL_FLOOR", floor)
    spreads = set()
    Q_all, P_all = (Q.points, Q.weights), (P.points, P.weights)  # one vector for all rows
    for Xs, Ys in [(Ps, Q_all), (Ps, P_all), (Ps, Ps), (P2s, P2s), (Ps, P2s)]:
        for eps in (0.05, 1.0):  # 8 to 17 maps at 0.05, leaving at different maps
            cfg = SolverConfig(eps=eps)
            kernels.clear()
            solved = sk._solve_stack(*Xs, *Ys, cfg)
            stacked = [_row(solved, r, cfg) for r in range(6)]
            assert len(kernels) == (1 if path == "kernel" else 1 + 6)
            lone_Ys = block_measures(Ys) if Ys[1].ndim == 2 else [ms.DiscreteMeasure(*Ys)] * 6
            for s, X, Y in zip(stacked, block_measures(Xs), lone_Ys):
                _assert_same(s, _lone(X, Y, cfg))
                assert _parts(s)[1].path == path
            spreads.add(len({_parts(s)[1].iterations for s in stacked}))
    assert max(spreads) > 2


def test_stack_on_supports_of_their_own_builds_a_kernel_each(monkeypatch):
    Ps, Qs = _problems(4, seed=93)
    Qs = [Qs[0]] * 4  # one shared support is not enough
    kernels = []
    build = sk._gibbs_kernel
    monkeypatch.setattr(sk, "_gibbs_kernel", lambda *args: kernels.append(1) or build(*args))
    _check_stack(Ps, Qs, SolverConfig(eps=0.5))
    assert len(kernels) == 4 + 4  # the stack's, then the lone solves'
