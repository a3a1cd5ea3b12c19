"""Ten end-to-end acceptance checks, one test and one verdict line each.

Criteria 6a-c check that the relaxed twin is the sharp twin plus a boundary
layer localized at the interface.  The displacement of the relaxed chain
from its preoptimized sharp twin has two parts:

- the interface layer, which falls off like exp(-2.29 |i|), about tenfold
  per atom, and reaches rounding level near |i| = 13;
- an affine far field.  The relaxed interface carries an excess translation
  of about 0.2 lattice spacings, and the clamps at +-n hold the exact twin,
  so each half absorbs it as a uniform strain.  Its size in lattice units
  does not depend on n, so it is O(lambda) and vanishes in the continuum
  limit.

6b and 6c measure the layer, i.e. the displacement minus a per-side affine
fit of the far field; 6c also checks that the removed far field is
O(lambda).  6a checks that the preoptimized middle atom is reproduced as
closely as a one-atom preoptimization can: a tenth of its neighbours'
deviation, shrinking like lambda.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import brentq

from chaingen import blocks_to_dense, random_chain
from twinchain.analysis import classify, fit_exponential, interface_positions
from twinchain.cli import main as cli_main
from twinchain.energy import chain_energy, density, lattice_energy
from twinchain.gamma import LayerSpec, average_down, estimate_EK, estimate_layer
from twinchain.lattice import check_admissible, load_chain, reconstruct
from twinchain.minimize import (ChainProblem, newton_minimize,
                                preoptimize_middle, twin_chain)
from twinchain.wells import boundary_gradient, build_wells, dist_to_well, rotation


def verdict(ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def matrix_density(M, wells):
    """Density of a homogeneous deformation via its four neighbor differences."""
    M = np.asarray(M, dtype=float)
    v = np.stack([M[..., :, 1], -M[..., :, 1]], axis=-2)
    h = np.stack([M[..., :, 0], -M[..., :, 0]], axis=-2)
    return density(v, h, wells)


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


@pytest.fixture(scope="module")
def relaxed(wells, minimizer100):
    """Preoptimized reference and converged minimizer for the scaling sizes."""
    out = {}
    for n in (25, 50, 100, 200):
        warm = preoptimize_middle(twin_chain(n, wells))
        report = newton_minimize(warm)
        assert report.converged, f"n={n} failed to converge"
        out[n] = (warm, report.final_chain)
    # minimizer100 was relaxed from the raw sharp twin; 6a compares it with
    # the preoptimized twin, which needs both starts to reach one state.
    warm, final = out[100]
    gap = max(np.abs(final.u - minimizer100.u).max(),
              np.abs(final.theta - minimizer100.theta).max())
    assert gap <= 1e-12, f"n=100 relaxed state depends on the start ({gap:.3g})"
    out[100] = (warm, minimizer100)
    return out


def test_criterion_01_dual_route_totals(wells, rng):
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(4, 17))
        chain = random_chain(rng, n=n, du=0.03, dtheta=0.02, wells=wells)
        field = reconstruct(chain)
        if check_admissible(field):
            continue
        total = chain_energy(chain).total
        gap = abs(total - lattice_energy(field).total)
        worst = max(worst, gap / (1e-12 * (1.0 + abs(total))))
        count += 1
    dt = time.monotonic() - t0
    verdict(worst <= 1.0 and dt < 5.0, "criterion 1",
            f"chain and reconstructed-field totals agree on 100 random chains, "
            f"worst gap {worst:.3g}x tolerance, {dt:.2f}s")


def test_criterion_02_zero_set_and_positivity(wells, rng):
    t0 = time.monotonic()
    theta = rng.uniform(-np.pi, np.pi, size=1000)
    rots = np.stack([rotation(t) for t in theta])
    on_wells = np.where((np.arange(1000) % 2 == 0)[:, None, None],
                        rots @ wells.U0, rots @ wells.U1)
    on_vals = matrix_density(on_wells, wells)

    off = np.empty((0, 2, 2))
    while off.shape[0] < 1000:
        M = rng.uniform(-2.0, 2.0, size=(4000, 2, 2))
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        d0, _ = dist_to_well(M, wells.U0)
        d1, _ = dist_to_well(M, wells.U1)
        # orientation-preserving: reflected frames also zero the density
        keep = (det > 0.0) & (d0 >= 0.1) & (d1 >= 0.1)
        off = np.concatenate([off, M[keep]])
    off_vals = matrix_density(off[:1000], wells)
    dt = time.monotonic() - t0
    ok = float(on_vals.max()) <= 1e-20 and float(off_vals.min()) > 0.0 and dt < 1.0
    verdict(ok, "criterion 2",
            f"1000 rotated wells give density <= {on_vals.max():.2g}; 1000 "
            f"matrices at distance >= 0.1 give density >= {off_vals.min():.3g}; "
            f"{dt:.2f}s")


def test_criterion_03_rank_one_geometry(wells):
    a, b = wells.a, wells.b
    kappa = wells.Q[1, 0]
    d1 = abs(np.linalg.det(wells.U0 - wells.Q @ wells.U1))
    d2 = abs(np.linalg.det(wells.U0 - wells.Qtilde @ wells.U1))
    f1 = np.abs(wells.U0 - wells.Q @ wells.U1
                - kappa * np.outer([a, -b], [1.0, 1.0])).max()
    f2 = np.abs(wells.U0 - wells.Qtilde @ wells.U1
                - kappa * np.outer([a, b], [1.0, -1.0])).max()
    root = brentq(lambda t: np.linalg.det(wells.U0 - rotation(t) @ wells.U1),
                  0.0, np.pi / 2, xtol=1e-15)
    sin_err = abs(np.sin(root) - 0.6)
    ok = d1 <= 1e-12 and d2 <= 1e-12 and f1 <= 1e-12 and f2 <= 1e-12 \
        and sin_err <= 1e-9
    verdict(ok, "criterion 3",
            f"dets {d1:.2g}, {d2:.2g}; factorization gaps {f1:.2g}, {f2:.2g}; "
            f"angle-scan sin gamma off by {sin_err:.2g}")


def test_criterion_04_derivative_checks(wells, rng):
    worst_g = 0.0
    worst_h = 0.0
    step = 1e-6
    for k in range(20):
        chain = random_chain(rng, n=8, du=0.02, dtheta=0.01, wells=wells)
        problem = ChainProblem(chain, variable_tau=bool(k % 2))
        x = problem.pack(chain)
        grad = problem.gradient(x)
        hess = blocks_to_dense(*problem.hessian_banded(x), x.size)
        num_g = np.empty_like(grad)
        num_h = np.empty_like(hess)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = step
            num_g[j] = (problem.energy(x + e) - problem.energy(x - e)) / (2 * step)
            num_h[:, j] = (problem.gradient(x + e)
                           - problem.gradient(x - e)) / (2 * step)
        worst_g = max(worst_g, np.abs(num_g - grad).max() / (1 + np.abs(grad).max()))
        worst_h = max(worst_h, np.abs(num_h - hess).max() / (1 + np.abs(hess).max()))
    verdict(worst_g <= 1e-5 and worst_h <= 1e-4, "criterion 4",
            f"20 chains: gradient off by {worst_g:.2g} (tol 1e-5), "
            f"Hessian off by {worst_h:.2g} (tol 1e-4)")


def test_criterion_05_minimize_reproduction(tmp_path, wells):
    t0 = time.monotonic()
    code = cli_main(["minimize", "--n", "40", "--n", "100", "--out", str(tmp_path)])
    dt = time.monotonic() - t0
    checks = [code == 0, dt < 120.0]
    details = [f"exit {code} in {dt:.1f}s"]
    for n in (40, 100):
        text = (tmp_path / f"report-n{n}.txt").read_text()
        fields = dict(line.split("=", 1) for line in text.splitlines()
                      if "=" in line and not line.startswith("#"))
        chain = load_chain(tmp_path / f"chain-n{n}.txt")
        records = interface_positions(classify(chain, wells), tol=0.2)
        two_regions = len(records) == 1 and records[0].left_well != records[0].right_well
        checks += [fields["converged"] == "1",
                   float(fields["final_gradient_norm"]) <= 1e-10,
                   fields["admissibility_violations"] == "0",
                   two_regions]
        details.append(f"n={n} grad {float(fields['final_gradient_norm']):.1e}, "
                       f"{len(records)} interface(s)")
    verdict(all(checks), "criterion 5", "; ".join(details))


class DeviationSplit(NamedTuple):
    """Displacement of a relaxed chain from its preoptimized twin, split apart.

    Profiles are (i, value) rows in lattice units (distances divided by
    lambda).  raw is |d_i| for the displacement d_i itself.  layer is
    |d_i - a - b i| after removing the affine far field a + b i fitted on
    each side; it leaves out i = 0, where the two sides' far fields jump by
    the interface's excess translation.  far maps side (-1, +1) to |a|, the
    far field extrapolated to the interface.
    """

    raw: np.ndarray
    layer: np.ndarray
    far: dict

    def raw_at(self, i):
        return float(self.raw[self.raw[:, 0] == i, 1][0])

    def layer_at(self, i):
        return float(self.layer[self.layer[:, 0] == i, 1][0])


def _split_deviation(relaxed, n):
    """Split the relaxed n-chain's deviation into far field and layer.

    The far field on each side is a least-squares affine fit in i over
    n/4 <= +-i <= 3n/4, well clear of the interface layer and the clamps.
    """
    warm, final = relaxed[n]
    ids = final.geometry.atom_ids()
    d = (final.u - warm.u) / final.lam
    layer, far = [], {}
    for side in (-1, 1):
        s = side * ids
        fit = (s >= n / 4) & (s <= 3 * n / 4)
        basis = np.stack([np.ones(fit.sum()), ids[fit]], axis=1)
        (a, b), *_ = np.linalg.lstsq(basis, d[fit], rcond=None)
        keep = s > 0
        rest = d[keep] - a - np.outer(ids[keep], b)
        layer.append(np.stack([ids[keep], np.linalg.norm(rest, axis=1)], axis=1))
        far[side] = float(np.linalg.norm(a))
    raw = np.stack([ids, np.linalg.norm(d, axis=1)], axis=1)
    return DeviationSplit(raw=raw, layer=np.concatenate(layer), far=far)


def test_criterion_06a_middle_atom_pinned(relaxed):
    # The middle atom cannot keep its preoptimized position exactly: the
    # preoptimization froze its neighbours at the sharp twin, and they move
    # ~0.15 lattice spacings on relaxation.
    splits = {n: _split_deviation(relaxed, n) for n in (100, 200)}
    mid = {n: sp.raw_at(0) for n, sp in splits.items()}
    near = {n: min(sp.raw_at(-1), sp.raw_at(1)) for n, sp in splits.items()}
    shrink = (mid[200] / 200) / (mid[100] / 100)
    ok = all(mid[n] <= 0.1 * near[n] for n in splits) and 0.45 <= shrink <= 0.55
    verdict(ok, "criterion 6a",
            f"n*dev(0) from the preoptimized twin: n=100 {mid[100]:.4f} vs "
            f"n*dev(+-1) {near[100]:.4f}, n=200 {mid[200]:.4f} vs "
            f"{near[200]:.4f} (tolerance a tenth); dev(0) n=200 / n=100 "
            f"{shrink:.3f} (tolerance [0.45, 0.55], i.e. O(lambda))")


def test_criterion_06b_exponential_fit(relaxed):
    fits = {}
    for n in (100, 200):
        layer = _split_deviation(relaxed, n).layer
        fits[(n, "right")] = fit_exponential(layer, window=(2, 10))
        fits[(n, "left")] = fit_exponential(layer, window=(-10, -2))
    ok = all(f.r_squared >= 0.9 and (f.rate < 0) == (side == "right")
             for (_, side), f in fits.items())
    listing = ", ".join(f"n={n} {side} r2 {f.r_squared:.4f} rate {f.rate:+.3f}"
                        for (n, side), f in sorted(fits.items()))
    verdict(ok, "criterion 6b",
            f"exponential fits of the interface layer over 2 <= +-i <= 10: "
            f"{listing} (tolerance r2 0.9, decaying away from the interface)")


def test_criterion_06c_localization(relaxed):
    splits = {n: _split_deviation(relaxed, n) for n in (100, 200)}
    ratios = {(n, side): sp.layer_at(side * (n // 2)) / sp.layer_at(side * 2)
              for n, sp in splits.items() for side in (-1, 1)}
    far_gap = max(abs(splits[200].far[side] / splits[100].far[side] - 1.0)
                  for side in (-1, 1))
    ok = all(r <= 0.1 for r in ratios.values()) and far_gap <= 0.05
    listing = ", ".join(f"n={n} {'right' if side > 0 else 'left'} {r:.2g}"
                        for (n, side), r in sorted(ratios.items()))
    verdict(ok, "criterion 6c",
            f"layer(n/2) / layer(2): {listing} (tolerance 0.1); far field "
            f"at the interface n*|a| = {splits[100].far[1]:.4f} (n=100), "
            f"{splits[200].far[1]:.4f} (n=200), the sizes agree to "
            f"{100 * far_gap:.2f}% (tolerance 5%, i.e. O(lambda))")


def test_criterion_07_energy_scaling(relaxed):
    h1 = {}
    h = {}
    for n, (_, final) in relaxed.items():
        bd = chain_energy(final)
        h1[n], h[n] = bd.rescaled, bd.total
    pairs = [(25, 50), (50, 100), (100, 200)]
    var = max(abs(h1[b] - h1[a]) / h1[a] for a, b in pairs)
    ratios = [h[b] / h[a] for a, b in pairs]
    prop = max(abs(r / 0.5 - 1.0) for r in ratios)
    ok = var < 0.10 and prop <= 0.15
    verdict(ok, "criterion 7",
            f"H1 = {h1[25]:.4f}, {h1[50]:.4f}, {h1[100]:.4f}, {h1[200]:.4f} "
            f"(max step {100 * var:.1f}%); doubling ratios "
            f"{', '.join(f'{r:.4f}' for r in ratios)} vs 0.5 "
            f"(max off {100 * prop:.1f}%)")


def test_criterion_08_averaging_contract(wells, rng):
    count = 0
    worst_margin = np.inf
    failures = []
    while count < 50:
        m = int(rng.integers(2, 4))
        n = int(rng.integers(4 * m, 2 * m * m + m + 1))
        chain = random_chain(rng, n=n, du=0.01, dtheta=0.002, wells=wells)
        average = chain_energy(chain).rescaled
        eps = 1.05 * m * average / (n - m) + 1e-9
        if n <= m * (1.0 + average / eps):
            continue
        try:
            res = average_down(chain, m, eps)
        except RuntimeError as exc:
            failures.append(f"n={n} m={m}: {exc}")
            count += 1
            continue
        margin = res.input_energy + eps - res.strip_energy
        worst_margin = min(worst_margin, margin)
        if res.strip_energy > res.input_energy + eps:
            failures.append(f"n={n} m={m}: bound missed by {-margin:.3g}")
        count += 1
    verdict(not failures, "criterion 8",
            f"50 precondition-satisfying inputs: strip average stayed within "
            f"epsilon of the full average every time, slackest margin "
            f"{worst_margin:.3g}" if not failures else
            f"{len(failures)} of 50 violated the bound, first: {failures[0]}")


def test_criterion_09_layer_consistency(wells, minimizer100):
    h1 = chain_energy(minimizer100).rescaled
    est = estimate_layer(LayerSpec("C", wells.U0, wells.QU1, (0.0, 0.0), 480, 40),
                         wells, n_sequence=(10, 20, 40))
    rel = abs(est.value - h1) / h1
    zero = estimate_layer(LayerSpec("C", wells.U0, wells.U0, (0.0, 0.0), 18, 6),
                          wells, n_sequence=(4, 6))
    F = boundary_gradient(wells, 0.5)
    total, parts = estimate_EK([F, wells.U0, wells.QU1, F], wells, n=6,
                               n_sequence=(4, 6))
    kinds = [spec.kind for spec, _ in parts]
    b_vals = [part.value for spec, part in parts if spec.kind != "C"]
    c_vals = [part.value for spec, part in parts if spec.kind == "C"]
    records = interface_positions(classify(minimizer100, wells),
                                  tol=0.2)
    ok = (rel <= 0.10 and est.converged
          and abs(zero.value) <= 1e-10
          and kinds == ["B_plus", "C", "B_minus"]
          and all(abs(v) <= 1e-10 for v in b_vals)
          and len(c_vals) == 1 and c_vals[0] > 0.0
          and len(records) == 1)
    verdict(ok, "criterion 9",
            f"internal layer {est.value:.6f} vs minimizer H1 {h1:.6f} "
            f"({100 * rel:.2f}%, stabilized={est.converged}); trivial layer "
            f"{zero.value:.2g}; three-layer split carries everything in C "
            f"(boundary parts {max(abs(v) for v in b_vals):.2g}) and the "
            f"minimizer has exactly {len(records)} internal interface")


def test_criterion_10_determinism(tmp_path):
    dirs = [tmp_path / "one", tmp_path / "two"]
    codes = [cli_main(["minimize", "--n", "8", "--out", str(d)]) for d in dirs]
    names = sorted(p.name for p in dirs[0].iterdir())
    same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
               for f in names)
    verdict(codes == [0, 0] and same and len(names) >= 7, "criterion 10",
            f"two runs with identical config wrote {len(names)} byte-identical "
            f"files each")
