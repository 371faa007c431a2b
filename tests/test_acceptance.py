"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo criteria
use 10^7-pulse runs and finish within about a minute total; everything else is
closed-form and immediate.
"""

import math

import numpy as np
import pytest

from siqrng import (
    AfterpulseSpec,
    PulseTrainConfig,
    poisson_distribution,
    prior_autocorrelation,
    simulate,
    theta_random_sampling,
    total_afterpulse_finite,
)
from siqrng.entropy_engine import (
    autocorrelation_stderr,
    empirical_autocorrelation,
    entropy_report_from_taus,
    measurement_taus,
    stationary_click_prob,
    x_basis_error,
)
from siqrng.finite_size import (
    _bracket,
    hmin_with_tau_uncertainty,
    scenario_from_params,
)
from siqrng.simulator import z_window_bits

from conftest import brute_force_composition_total, make_detectors
from references import (empirical_click_stats, random_sampling_epsilon,
                        total_afterpulse_infinite)

ETA = 0.1
DARK = 6e-7
MISALIGN = 0.02
OMEGA = 0.001


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def hmin_point(nu: float, spec: AfterpulseSpec, eta_1: float = ETA) -> float:
    dets = make_detectors(eta=ETA, e_d=DARK, spec=spec, eta_1=eta_1)
    taus = measurement_taus(poisson_distribution(nu), dets, misalignment=MISALIGN)
    return entropy_report_from_taus(dets, taus).hmin_a


def ap_spec(p_hat: float, windows=None) -> AfterpulseSpec:
    if p_hat == 0.0:
        return AfterpulseSpec.none()
    return AfterpulseSpec.exponential_from_rate(p_hat, OMEGA, windows)


def test_c01_afterpulse_entropy_drop():
    h0 = hmin_point(10.0, ap_spec(0.0))
    h1 = hmin_point(10.0, ap_spec(0.1))
    drop = (h0 - h1) / h0
    report(1, "afterpulse entropy drop", 0.15 <= drop <= 0.25,
           f"H(0)={h0:.6f} H(0.1)={h1:.6f} drop={drop:.2%}")


def test_c02_finite_window_ordering():
    ok = True
    for p_hat in np.linspace(0.0, 0.1, 11):
        h_np = hmin_point(10.0, ap_spec(0.0))
        h_ip = hmin_point(10.0, ap_spec(float(p_hat)))
        h_fp = hmin_point(10.0, ap_spec(float(p_hat), windows=1000))
        if p_hat == 0.0:
            ok &= h_ip == h_fp == h_np
        else:
            ok &= h_ip < h_fp < h_np
    report(2, "finite-window ordering Ip < Fp < Np", ok)


def test_c03_autocorrelation_oracle_equivalence():
    source = poisson_distribution(1.0)
    taus = measurement_taus(source, make_detectors(eta=ETA, e_d=DARK))
    tau = taus.tau_0
    details = []
    ok = True
    for idx, p_hat_i in enumerate((0.01, 0.03, 0.05)):
        spec = AfterpulseSpec.explicit([p_hat_i, 0.05 - p_hat_i])
        det0, det1, detp, detm = make_detectors(eta=ETA, e_d=DARK, spec=spec)
        analytic = prior_autocorrelation(det0, tau, det1, tau, 1)
        # identical detectors: the general formula degenerates to the linear
        # coefficient tau*(1-e_d)*p_hat_i (the prior response ratio cancels)
        closed = tau * (1.0 - DARK) * p_hat_i
        ok &= analytic == pytest.approx(closed, rel=1e-12)
        cfg = PulseTrainConfig(pulses=10**7, source=source, dets=(det0, det1, detp, detm),
                               x_fraction=0.0, seed=100 + idx)
        bits, mask = z_window_bits(simulate(cfg).clicks)
        a_mc = empirical_autocorrelation(bits, 1, mask=mask)
        stderr = autocorrelation_stderr(mask, 1)
        pull = (a_mc - analytic) / stderr
        ok &= abs(pull) <= 3.0
        details.append(f"p_i={p_hat_i}: mc={a_mc:.5f} th={analytic:.5f} "
                       f"pull={pull:+.2f}")
    report(3, "autocorrelation analytic vs Monte Carlo", ok, "; ".join(details))


def test_c04_quadratic_linear_degeneration():
    source = poisson_distribution(1.0)
    grid = np.linspace(0.005, 0.045, 5)

    def curve(eta_1):
        taus = measurement_taus(source, make_detectors(eta=ETA, e_d=DARK, eta_1=eta_1))
        values = []
        for p_i in grid:
            spec = AfterpulseSpec.explicit([float(p_i), 0.05 - float(p_i)])
            det0, det1, _, _ = make_detectors(eta=ETA, e_d=DARK, spec=spec,
                                              eta_1=eta_1)
            values.append(prior_autocorrelation(det0, taus.tau_0,
                                                det1, taus.tau_1, 1))
        return np.polyfit(grid, values, 2)

    c2_same = abs(curve(ETA)[0])
    c2_diff = abs(curve(2.0 * ETA)[0])
    ok = c2_same < 1e-12 and c2_diff > 0.0
    report(4, "quadratic coefficient vanishes only for identical detectors",
           ok, f"|c2|_same={c2_same:.2e} |c2|_2x={c2_diff:.2e}")


def test_c05_closed_form_vs_enumeration():
    amp = 0.05 * math.expm1(OMEGA)
    ok = True
    for m in range(1, 7):
        coeffs = [amp * math.exp(-j * OMEGA) for j in range(1, m + 1)]
        closed = total_afterpulse_finite(amp, OMEGA, m)
        brute = brute_force_composition_total(coeffs, m)
        ok &= closed == pytest.approx(brute, rel=1e-12)
    fin = total_afterpulse_finite(0.001, 0.01, 10**6)
    inf = total_afterpulse_infinite(0.001, 0.01)
    ok &= fin == pytest.approx(inf, rel=1e-9)
    report(5, "closed form equals composition enumeration and its limit", ok,
           f"P(1e6)={fin:.9e} P(inf)={inf:.9e}")


def test_c06_theta_round_trip():
    eps_e = 2.0**-50
    checked = 0
    worst = 0.0
    for eq in (1e-4, 5e-4, 1e-3, 1e-2, 0.1):
        for n_total in (1e8, 1e9, 1e10, 1e11, 1e12):
            for q_x in (0.02, 0.05, 0.1, 0.25):
                theta = theta_random_sampling(eq, q_x, n_total, eps_e)
                eps = random_sampling_epsilon(eq, q_x, n_total, theta)
                worst = max(worst, abs(eps - eps_e) / eps_e)
                checked += 1
    ok = checked == 100 and worst <= 1e-6
    report(6, "deviation bound round-trip on a 100-point grid", ok,
           f"max relative error {worst:.2e}")


def _six_rate_curves(losses):
    plain = scenario_from_params({})
    withap = scenario_from_params({"p_hat": 0.05})
    curves = {("rs", 0.0): [], ("ei", 0.0): [], ("il", 0.0): [],
              ("rs", 0.05): [], ("ei", 0.05): [], ("il", 0.05): []}
    for loss in losses:
        for p_hat, scenario in ((0.0, plain), (0.05, withap)):
            rates = scenario.rates(scenario.entropy(scenario.taus(float(loss))))
            curves[("rs", p_hat)].append(rates["random_sampling"])
            curves[("ei", p_hat)].append(rates["entropy_inequality"])
            curves[("il", p_hat)].append(rates["infinite_length"])
    return {k: np.asarray(v) for k, v in curves.items()}


def test_c07_rate_curve_shape():
    losses = np.linspace(0.0, 2.5, 200)
    curves = _six_rate_curves(losses)
    ok = True
    peaks = {}
    for key, values in curves.items():
        idx = int(values.argmax())
        peaks[key] = losses[idx]
        ok &= 0 < idx < losses.size - 1          # interior maximum
        ok &= 1.0 <= losses[idx] <= 2.0
    for p_hat in (0.0, 0.05):
        ok &= bool(np.all(curves[("il", p_hat)] >= curves[("ei", p_hat)] - 1e-9))
        ok &= bool(np.all(curves[("ei", p_hat)] >= curves[("rs", p_hat)] - 1e-9))
    for method in ("rs", "ei", "il"):
        ok &= bool(np.all(curves[(method, 0.0)] >= curves[(method, 0.05)] - 1e-9))
    detail = " ".join(f"{m}{'+ap' if p else ''}@{peaks[(m, p)]:.2f}dB"
                      for m, p in peaks)
    report(7, "rate peaks in [1,2] dB with IL>=EI>=RS and ap below", ok, detail)


def test_c08_afterpulse_vs_fluctuation_crossover():
    plain = scenario_from_params({})
    withap = scenario_from_params({"p_hat": 0.05})
    sec = plain.security
    found = None
    for loss in np.linspace(0.25, 5.0, 20):
        rep_plain = plain.entropy(plain.taus(float(loss)))
        rep_ap = withap.entropy(withap.taus(float(loss)))
        theta = theta_random_sampling(rep_ap.eq, sec.x_fraction,
                                      sec.total_pulses, sec.eps_e)
        ap_penalty = sec.n_z * (_bracket(rep_plain, theta) - _bracket(rep_ap, theta))
        fluct_penalty = sec.n_z * (_bracket(rep_ap, 0.0) - _bracket(rep_ap, theta))
        if ap_penalty > fluct_penalty:
            found = (float(loss), ap_penalty, fluct_penalty)
            break
    ok = found is not None and found[0] <= 5.0
    detail = (f"loss={found[0]:.2f}dB ap={found[1]:.3e} fluct={found[2]:.3e}"
              if found else "no crossover below 5 dB")
    report(8, "afterpulse penalty exceeds fluctuation penalty by 5 dB", ok, detail)


def test_c09_efficiency_mismatch_monotonicity():
    ratios = np.linspace(0.5, 1.0, 26)
    ok = True
    for p_hat in (0.0, 0.05):
        values = [hmin_point(10.0, ap_spec(p_hat), eta_1=float(r) * ETA)
                  for r in ratios]
        ok &= all(b > a for a, b in zip(values, values[1:]))   # strictly rising
        ok &= values[-1] == max(values)
    report(9, "min-entropy maximal at matched efficiencies, strictly falling "
              "with mismatch", ok)


def test_c10_finite_sampling_gap_shrinks():
    eps_d = 2.0**-50
    source = poisson_distribution(10.0)
    details = []
    ok = True
    for p_hat in (0.0, 0.05):
        spec = ap_spec(p_hat)
        dets = make_detectors(eta=ETA, e_d=DARK, spec=spec)
        taus = measurement_taus(source, dets, misalignment=MISALIGN)
        h_il = entropy_report_from_taus(dets, taus).hmin_a
        gaps = {}
        for n_s in (10**3, 10**5):
            delta = math.sqrt(math.log(2.0 / eps_d) / (2.0 * n_s))
            h_fs = hmin_with_tau_uncertainty(dets, taus, delta)
            gaps[n_s] = h_il - h_fs
        ratio = gaps[10**5] / gaps[10**3]
        ok &= ratio < 0.20
        details.append(f"p={p_hat}: gap(1e5)/gap(1e3)={ratio:.2%}")
    report(10, "monitored-entropy gap shrinks by sampling length 1e5", ok,
           "; ".join(details))


def test_c11_simulator_statistical_agreement():
    source = poisson_distribution(1.0)
    det0, det1, detp, detm = make_detectors(eta=ETA, e_d=DARK)
    cfg = PulseTrainConfig(pulses=10**7, source=source, dets=(det0, det1, detp, detm),
                           x_fraction=0.5, misalignment=MISALIGN, seed=2024)
    result = simulate(cfg)
    taus = measurement_taus(source, cfg.dets, misalignment=MISALIGN)
    p = stationary_click_prob(det0, taus.tau_0)
    q_single = 2.0 * p * (1.0 - p)
    q_double = p * p
    p_plus = stationary_click_prob(detp, taus.tau_plus)
    p_minus = stationary_click_prob(detm, taus.tau_minus)
    eq = x_basis_error(p_plus=p_plus, p_minus=p_minus)

    qs_hat, qd_hat, n_z = empirical_click_stats(result.clicks)
    n_x = result.bits.x_windows
    # EQ estimator takes values {0, 1/2, 1}: exact variance per pulse
    var_eq = (p_minus * (1.0 - p_plus) + 0.25 * p_minus * p_plus) - eq**2
    pulls = (
        (qs_hat - q_single) / math.sqrt(q_single * (1 - q_single) / n_z),
        (qd_hat - q_double) / math.sqrt(q_double * (1 - q_double) / n_z),
        (result.eq_empirical - eq) / math.sqrt(var_eq / n_x),
    )
    ok = all(abs(pull) <= 3.0 for pull in pulls)
    report(11, "afterpulse-free click statistics within 3 standard errors", ok,
           f"pulls: Qs={pulls[0]:+.2f} Qd={pulls[1]:+.2f} EQ={pulls[2]:+.2f}")


def test_c12_determinism(tmp_path):
    spec = AfterpulseSpec.explicit([0.03, 0.02])
    det0, det1, detp, detm = make_detectors(eta=ETA, e_d=DARK, spec=spec)
    cfg = PulseTrainConfig(pulses=200_000, source=poisson_distribution(1.0),
                           dets=(det0, det1, detp, detm), x_fraction=0.02,
                           misalignment=MISALIGN, seed=77, chunk_size=2**14)
    outputs = []
    for threads in (1, 1, 4):
        result = simulate(cfg, threads=threads)
        csv = tmp_path / f"clicks_{len(outputs)}.csv"
        result.clicks.to_csv(csv)
        outputs.append((csv.read_bytes(), result.bits.packed(),
                        result.eq_empirical))
    ok = outputs[0] == outputs[1] == outputs[2]
    report(12, "byte-identical outputs across reruns and thread counts", ok)
