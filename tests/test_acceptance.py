"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line so a verbose run reads as a checklist.
The shared setup is the N = 400 ring with defects at cells 50 and 150 and
20-cell intervals (the rank-one sub-check of criterion 5 widens its interval
to 24 cells so the zero mode's edge tails sit below the 1e-6 tolerance).
"""

import math

import numpy as np

from sshent import aklt
from sshent import asymptotics as asym
from sshent import cli
from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent import statmech as sm
from sshent import specialfn as sf

from conftest import DEFECT_WINDOW, ELL, TOP_WINDOW, TRIV_WINDOW, sea_of, two_defect_chain
from oracles import brute_force_sector_data

LOG2 = math.log(2.0)
CASE_WINDOWS = {
    "topological": TOP_WINDOW,
    "trivial": TRIV_WINDOW,
    "defect": DEFECT_WINDOW,
}


def report(num, name, detail=""):
    print(f"[acceptance] criterion {num} ({name}): PASS {detail}")


def lattice_lambdas(sea, spec, window, policy=None):
    policy = policy or gs.OccupationPolicy.below_half()
    return gs.correlation_matrix(sea, spec, policy, window).eigenvalues()


def test_criterion_1_dimerized_exactness(sea_dimerized, chain_dimerized):
    tol = 1e-12
    totals = {"trivial": 0.0, "topological": 2 * LOG2, "defect": LOG2}
    srpf_rows = {
        "trivial": lambda n: {ELL: 1.0},
        "topological": lambda n: {
            ELL - 1: 4.0**-n, ELL: 2.0 * 4.0**-n, ELL + 1: 4.0**-n
        },
        "defect": lambda n: {ELL - 1: 2.0**-n, ELL: 2.0**-n},
    }
    split = {
        "trivial": (0.0, 0.0),
        "topological": (0.5 * LOG2, 1.5 * LOG2),
        "defect": (0.0, LOG2),
    }
    worst = 0.0
    for case, window in CASE_WINDOWS.items():
        lam = lattice_lambdas(sea_dimerized, chain_dimerized, window)
        table1 = ent.charge_resolved_table(lam, 1.0)
        for n in (1.0, 2.0, 3.0):
            s_n = ent.total_vn(lam) if n == 1.0 else ent.total_renyi(lam, n)
            worst = max(worst, abs(s_n - totals[case]))
            zq = ent.srpf(lam, n)
            want = srpf_rows[case](n)
            for q in range(2 * ELL + 1):
                worst = max(worst, abs(zq[q] - want.get(q, 0.0)))
        s_c, s_f = split[case]
        worst = max(worst, abs(table1.config_entropy - s_c))
        worst = max(worst, abs(table1.fluct_entropy - s_f))
    assert worst <= tol
    report(1, "dimerized exactness", f"max dev {worst:.2e} <= {tol:g}")


def test_criterion_2_correlation_spectra():
    tol = 1e-10
    spec = two_defect_chain(1.0, kinds=("one_site", "three_site"))
    sea = sea_of(spec)
    want = {
        TRIV_WINDOW: np.sort([0.0] * ELL + [1.0] * ELL),
        TOP_WINDOW: np.sort([0.0] * (ELL - 1) + [0.5, 0.5] + [1.0] * (ELL - 1)),
        DEFECT_WINDOW: np.sort([0.0] * ELL + [0.5] + [1.0] * (ELL - 1)),
    }
    worst = 0.0
    for window, target in want.items():
        lam = np.sort(lattice_lambdas(sea, spec, window))
        worst = max(worst, float(np.max(np.abs(lam - target))))
    lam_1s = np.sort(lattice_lambdas(sea, spec, (41, ELL)))
    lam_3s = np.sort(lattice_lambdas(sea, spec, (141, ELL)))
    worst = max(worst, float(np.max(np.abs(lam_1s - lam_3s))))
    assert worst <= tol
    report(2, "correlation spectra", f"max dev {worst:.2e} <= {tol:g}")


def test_criterion_3_lattice_asymptotics_agreement(sea03, chain03, params03):
    tol = 1e-3
    worst = 0.0
    for case, window in CASE_WINDOWS.items():
        lam = lattice_lambdas(sea03, chain03, window)
        for n in (1.0, 2.0, 3.0):
            table = ent.charge_resolved_table(lam, n)
            zq = ent.srpf(lam, n)
            for dq in range(-2, 3):
                q = ELL + dq
                worst = max(
                    worst, abs(zq[q] - asym.srpf_asymptotic(case, n, dq, params03))
                )
                if n == 1.0:
                    ana = asym.sre_vn_asymptotic(case, dq, params03)
                    worst = max(worst, abs(table.sre_v(q) - ana))
                else:
                    ana = asym.sre_asymptotic(case, n, dq, params03)
                    worst = max(worst, abs(table.sre(q) - ana))
    assert worst <= tol
    report(3, "lattice vs asymptotics", f"max dev {worst:.2e} <= {tol:g}")


def test_criterion_4_equipartition_structure(sea03, chain03):
    tol = 1e-3
    lam_def = lattice_lambdas(sea03, chain03, DEFECT_WINDOW)
    table = ent.charge_resolved_table(lam_def, 1.0)
    defect_vals = [
        s for s, p in zip(table.sre_vn, table.probabilities) if p > 1e-3
    ]
    spread_def = max(defect_vals) - min(defect_vals)
    assert len(defect_vals) >= 3
    assert spread_def <= tol

    phases = {}
    for case in ("topological", "trivial"):
        lam = lattice_lambdas(sea03, chain03, CASE_WINDOWS[case])
        t = ent.charge_resolved_table(lam, 1.0)
        vals = {
            int(q) - ELL: s
            for q, s, p in zip(t.charges, t.sre_vn, t.probabilities)
            if p > 1e-6
        }
        phases[case] = vals
    spread_parity = 0.0
    for vals in phases.values():
        for parity in (0, 1):
            cls = [s for dq, s in vals.items() if abs(dq) % 2 == parity]
            spread_parity = max(spread_parity, max(cls) - min(cls))
    assert spread_parity <= tol
    swap = max(
        abs(phases["topological"][0] - phases["trivial"][1]),
        abs(phases["topological"][1] - phases["trivial"][0]),
        abs(phases["topological"][2] - phases["trivial"][-1]),
    )
    assert swap <= tol
    report(
        4,
        "equipartition structure",
        f"defect spread {spread_def:.2e}, parity spread {spread_parity:.2e}, "
        f"swap dev {swap:.2e} <= {tol:g}",
    )


def test_criterion_5_zero_mode_physics(sea03, chain03, params03, zero_pair03):
    # rank-one update on the 24-cell centered interval
    window = (39, 24)
    wide = sea_of(chain03, window[1])
    base = np.sort(
        gs.correlation_matrix(
            wide, chain03, gs.OccupationPolicy.below_half(), window
        ).eigenvalues()
    )
    base_rest = np.delete(base, int(np.argmin(np.abs(base))))
    worst_update = 0.0
    for p in (0.0, 0.25, 0.75, 1.0):
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(p))
        lam = np.sort(
            gs.correlation_matrix(wide, chain03, policy, window).eigenvalues()
        )
        i = int(np.argmin(np.abs(lam - (1.0 - p))))
        worst_update = max(worst_update, abs(lam[i] - (1.0 - p)))
        worst_update = max(
            worst_update, float(np.max(np.abs(np.sort(np.delete(lam, i)) - base_rest)))
        )
    assert worst_update <= 1e-6

    # crossing locations and maximal excess on the 20-cell interval
    step = 1e-3
    worst_loc, worst_excess = 0.0, 0.0
    for dq in (-1, 0, 1):
        p_star = asym.crossing_weight(dq, params03)
        lo = max(step, p_star - 0.03)
        hi = min(1.0 - step, p_star + 0.03)
        grid = np.arange(lo, hi + step / 2, step)
        values = []
        for p in grid:
            policy = gs.OccupationPolicy.half(zero_pair03.with_weight(float(p)))
            lam = gs.correlation_matrix(
                sea03, chain03, policy, DEFECT_WINDOW
            ).eigenvalues()
            values.append(ent.charge_resolved_table(lam, 1.0).sre_v(ELL + dq))
        best = grid[int(np.argmax(values))]
        worst_loc = max(worst_loc, abs(best - p_star))
        excess = max(values) - asym.sre_vn_asymptotic("defect", dq, params03)
        worst_excess = max(worst_excess, abs(excess - LOG2))
    assert worst_loc <= 1.5 * step
    assert worst_excess <= 1e-3

    # total/config/fluctuation entropies agree between the two near-localized
    # extremes (each deviates from the exact p = 0, 1 limits by the binary
    # entropy of the residual weight, which is ~8e-3 at p = 1e-3)
    extreme = {}
    for p in (0.001, 0.999):
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(p))
        lam = gs.correlation_matrix(
            sea03, chain03, policy, DEFECT_WINDOW
        ).eigenvalues()
        t = ent.charge_resolved_table(lam, 1.0)
        extreme[p] = (t.total_vn, t.config_entropy, t.fluct_entropy)
    worst_extreme = max(
        abs(a - b) for a, b in zip(extreme[0.001], extreme[0.999])
    )
    assert worst_extreme <= 1e-3
    report(
        5,
        "zero-mode physics",
        f"update dev {worst_update:.2e}, crossing dev {worst_loc:.2e}, "
        f"excess dev {worst_excess:.2e}, extremes dev {worst_extreme:.2e}",
    )


def test_criterion_6_statmech_correspondence(params03):
    half = asym.half_cut_spectrum(params03, 10, "weak")
    doubled = np.sort(np.concatenate([half, half]))  # 40 levels
    ell = doubled.size // 2
    dev_mu = max(
        abs(sm.solve_mu(doubled, ell)),
        abs(sm.solve_mu(doubled, ell + 1) - params03.spacing),
    )
    assert dev_mu <= 1e-10

    dev_close = 0.0
    for mu in (0.0, params03.spacing, 1.3, -0.7):
        table = sm.charge_table_at_mu(doubled, mu)
        recon = table.config_entropy + table.fluct_entropy
        dev_close = max(dev_close, abs(sm.constrained_entropy(doubled, mu) - recon))
    assert dev_close <= 1e-8

    base = sm.charge_table_at_mu(doubled, 0.0)
    dev_inv = 0.0
    for mu in (params03.spacing, 0.9):
        table = sm.charge_table_at_mu(doubled, mu)
        for q, s, p in zip(table.charges, table.sre_vn, table.probabilities):
            if p < 1e-8:
                continue
            try:
                i = base.sector(int(q))
            except KeyError:
                continue
            if base.probabilities[i] < 1e-8:
                continue
            dev_inv = max(dev_inv, abs(s - base.sre_vn[i]))
    assert dev_inv <= 1e-10
    report(
        6,
        "statmech correspondence",
        f"mu dev {dev_mu:.2e}, closure {dev_close:.2e}, invariance {dev_inv:.2e}",
    )


def test_criterion_7_special_functions(params03):
    dev_theta = 0.0
    for omega in (0.0, 0.3, 1.0, math.pi / 2):
        for nome in (0.05, 0.21, 0.4):
            dev_theta = max(
                dev_theta, abs(sf.theta2(omega, nome) - sf.theta2_product(omega, nome))
            )
            dev_theta = max(
                dev_theta, abs(sf.theta3(omega, nome) - sf.theta3_product(omega, nome))
            )
    assert dev_theta <= 1e-12

    dev_euler = max(
        sf.euler_product_residual(sf.EllipticParams.from_dimerization(d).nome_at(1.0))
        for d in (0.3, 0.7)
    )
    assert dev_euler <= 1e-10

    dev_round = 0.0
    for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
        k = (1.0 - delta) / (1.0 + delta)
        k_back, _ = sf.modulus_from_spacing(sf.level_spacing(k))
        dev_round = max(dev_round, abs(k_back - k))
    assert dev_round <= 1e-10

    dev_ident = 0.0
    for n in (1.0, 2.0, 3.0):
        kn, _ = params03.modulus_at(n)
        z = params03.nome_at(n)
        dev_ident = max(dev_ident, abs(kn - (sf.theta2(0.0, z) / sf.theta3(0.0, z)) ** 2))
    assert dev_ident <= 1e-10
    report(
        7,
        "special functions",
        f"theta {dev_theta:.2e}, product identity {dev_euler:.2e}, "
        f"round trip {dev_round:.2e}, modulus identity {dev_ident:.2e}",
    )


def test_criterion_8_brute_force_oracle(rng):
    tol = 1e-12
    worst = 0.0
    samples = [
        np.array([0.5, 1.0, 0.0, 0.5]),          # 2-cell dimerized-style window
        rng.uniform(0.0, 1.0, size=4),
        rng.uniform(0.0, 1.0, size=6),           # 3-cell window
        np.array([0.03, 0.5, 0.97, 0.2, 0.8, 1.0]),
    ]
    for lam in samples:
        for n in (1.0, 2.0, 3.0):
            z_brute, z1_brute, s_brute = brute_force_sector_data(lam, n)
            worst = max(worst, float(np.max(np.abs(ent.srpf(lam, n) - z_brute))))
            table = ent.charge_resolved_table(lam, n)
            for q, s_ren, s_vn, pq in zip(
                table.charges, table.sre_renyi, table.sre_vn, table.probabilities
            ):
                if pq < 1e-9:
                    continue
                worst = max(worst, abs(s_vn - s_brute[q]))
                if n != 1.0:
                    want = math.log(z_brute[q] / z1_brute[q] ** n) / (1.0 - n)
                    worst = max(worst, abs(s_ren - want))
    assert worst <= tol
    report(8, "brute-force oracle", f"max dev {worst:.2e} <= {tol:g}")


def test_criterion_9_aklt():
    tol = 1e-12
    worst = 0.0
    for eta in np.arange(0.1, 0.95, 0.1):
        p = 0.5 * (1.0 - math.sqrt(1.0 - eta * eta))
        rho = aklt.hybrid_interface_rdm(p)
        lam = np.linalg.eigvalsh(rho)
        for n in (2.0, 3.0):
            direct = math.log(float(np.sum(lam**n))) / (1.0 - n)
            closed = LOG2 + aklt.hybrid_sector_entropy(eta, n)
            worst = max(worst, abs(direct - closed))
        direct_vn = float(-np.sum(lam * np.log(lam)))
        closed_vn = LOG2 + aklt.hybrid_sector_entropy(eta, 1.0)
        worst = max(worst, abs(direct_vn - closed_vn))
        # correspondence with the fermionic zero-mode excess
        pair = (1.0 + eta) / 2.0
        worst = max(
            worst,
            abs(aklt.hybrid_sector_entropy(eta, 1.0) - asym.zero_mode_excess_vn(pair)),
        )
        worst = max(
            worst,
            abs(
                aklt.hybrid_sector_entropy(eta, 2.0)
                - asym.zero_mode_excess_renyi(pair, 2.0)
            ),
        )
    assert worst <= tol
    report(9, "aklt closed forms", f"max dev {worst:.2e} <= {tol:g}")


def test_criterion_10_determinism(tmp_path):
    import json

    cfg = {
        "chain": {
            "n_sites": 200,
            "t": 1.0,
            "delta": 0.3,
            "boundary": "periodic",
            "defects": [
                {"cell": 25, "kind": "one_site"},
                {"cell": 75, "kind": "one_site"},
            ],
        },
        "window_length": 12,
        "m_range": [30, 40],
        "n_list": [1, 2],
        "mode": "both",
        "outputs": {"csv_path": str(tmp_path / "a.csv")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["scan-interval", "--config", str(path)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli.main(["scan-interval", "--config", str(path)]) == 0
    second = (tmp_path / "a.csv").read_bytes()
    assert first == second
    report(10, "determinism", f"{len(first)} bytes identical across runs")
