"""Acceptance gate: ten frozen criteria, exact arithmetic, zero tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s/-rA
or in the failure report) and then asserts.  Universal claims are
checked by exhaustive enumeration on the stated finite universes, with
wall-clock ceilings enforced where the criterion states one.
"""

import time

from rigidity_sieve import bounds, sieve, verify
from rigidity_sieve.sieve import Ineq, SieveCase
from rigidity_sieve.surfaces import DivisorClass
from rigidity_sieve import surfaces


def _criterion(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


REAL_PROFILE = bounds.castelnuovo_profile


def pi1_off_by_one(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi1=prof.pi1 + 1)


def drop_mu2_case(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    if prof.mu2 == 0:
        return prof._replace(mu2=1, pi2=prof.pi2 + 1)
    return prof


def test_criterion_01_spot_values():
    started = time.perf_counter()
    rep = verify.verify_spot_values()
    elapsed = time.perf_counter() - started
    _criterion(1, rep.ok and elapsed < 1.0, f"{rep.checked} spots in {elapsed:.2f}s")


def test_criterion_02_identity_suite():
    started = time.perf_counter()
    mismatches = 0

    for d in range(1, 201):
        for g in range(0, 201):
            rho = bounds.brill_noether(d, g, 3)
            if 3 * g - 3 + rho != 4 * d - 15:
                mismatches += 1

    # The four derived expansions against their substitution forms,
    # enumerating every consistent (eps, mu) for denominators m <= 12.
    for r in range(4, 21):
        for alpha in range(8, 41):
            for m in range(1, 13):
                for eps in range(0, alpha):
                    mu = 1 if eps == alpha - 1 else 0
                    d = m * alpha + eps + 1
                    if d < alpha + 2:
                        continue
                    prof = bounds.castelnuovo_profile(d, alpha)
                    if sieve.derived_slack(Ineq.INEQ7, r, alpha, m, eps, mu) != 2 * (
                        (r - 3) * prof.pi1 - (r + 1) * (d - alpha) + 3
                    ):
                        mismatches += 1
                    if sieve.derived_slack(Ineq.INEQ9, r, alpha, m, eps, mu) != 2 * (
                        (r - 3) * prof.pi1 - r * d + (r - 2) * alpha + 4
                    ):
                        mismatches += 1
                for eps in range(0, alpha + 1):
                    mu = 2 if eps == alpha else (1 if eps >= alpha - 2 else 0)
                    d = m * (alpha + 1) + eps + 1
                    prof = bounds.castelnuovo_profile(d, alpha)
                    if sieve.derived_slack(Ineq.INEQ8, r, alpha, m, eps, mu) != 2 * (
                        (r - 3) * prof.pi2 - (r + 1) * (d - alpha) + 3
                    ):
                        mismatches += 1
                    if sieve.derived_slack(Ineq.INEQ10, r, alpha, m, eps, mu) != 2 * (
                        (r - 3) * prof.pi2 - r * d + (r - 2) * alpha + 4
                    ):
                        mismatches += 1

    # Adjunction and parity across the surfaces grid.
    for e in range(0, 5):
        for a in range(1, 13):
            for b in range(0, 41):
                dv = DivisorClass(a, b, e)
                self_int = -e * a * a + 2 * a * b
                canon_int = a * e - 2 * a - 2 * b
                if 2 * surfaces.arith_genus(dv) - 2 != self_int + canon_int:
                    mismatches += 1
                if ((a - 1) * (2 * b - a * e - 2)) % 2 != 0:
                    mismatches += 1

    elapsed = time.perf_counter() - started
    _criterion(
        2, mismatches == 0 and elapsed < 30.0, f"{mismatches} mismatches in {elapsed:.1f}s"
    )


def test_criterion_03_low_ambient_reproduction():
    started = time.perf_counter()
    rep = verify.verify_thm_r3(200)
    elapsed = time.perf_counter() - started
    allowed = {(8, 8), (8, 9), (9, 9), (9, 10), (9, 11), (9, 12)}
    survivors = set(rep.audit["survivors"])
    ok = (
        rep.ok
        and survivors <= allowed
        and all(d <= 9 for d, _ in survivors)
        and elapsed < 10.0
    )
    _criterion(3, ok, f"survivors={sorted(survivors)} in {elapsed:.1f}s")


def test_criterion_04_range_sweep_excludes_everything():
    started = time.perf_counter()
    bad = [r for r in range(4, 21) if not verify.verify_thm41(r, 500).ok]
    elapsed = time.perf_counter() - started
    _criterion(4, not bad and elapsed < 300.0, f"violating r={bad} in {elapsed:.1f}s")


def test_criterion_05_exception_fidelity():
    rep = verify.verify_thm41(9, 40, honor_exception=False)
    only_expected_violation = [(v["d"], v["g"]) for v in rep.violations] == [(30, 34)]
    wit = rep.violations[0]["witnesses"] if rep.violations else []
    unique_witness = len(wit) == 1 and (
        wit[0]["alpha"],
        wit[0]["case"],
        wit[0]["slack"],
    ) == (9, "case2", 1)
    neighbour = sieve.scan(30, 33, 9)
    neighbour_excluded = neighbour.outcome == sieve.EXCLUDED
    neighbour_slack = sieve.case_slack(SieveCase.CASE2, 30, 33, 9, 9)
    # Genus enters the case-2 slack only through lambda, so one unit of g moves it by r - 3.
    witness_slack = wit[0]["slack"] if wit else None
    expected_neighbour = None if witness_slack is None else witness_slack - (9 - 3)
    stepped_slack = neighbour_slack == expected_neighbour and neighbour_slack < 0
    checks = [
        ("violations", only_expected_violation,
         [(30, 34)], [(v["d"], v["g"]) for v in rep.violations]),
        ("(30,34) witness", unique_witness,
         [(9, "case2", 1)], [(w["alpha"], w["case"], w["slack"]) for w in wit]),
        ("(30,33) outcome", neighbour_excluded, sieve.EXCLUDED, neighbour.outcome),
        ("(30,33) case2 slack", stepped_slack,
         f"witness slack - 6 = {expected_neighbour} < 0", neighbour_slack),
    ]
    failed = [f"{name}: expected {want}, got {got}" for name, ok, want, got in checks if not ok]
    _criterion(
        5,
        not failed,
        "; ".join(failed)
        or f"violations=[(30, 34)], (30,33) slack={neighbour_slack}",
    )


def test_criterion_06_window_audit():
    rep = verify.verify_r5_window()
    audited = rep.audit.get("survivors")
    ok = (
        rep.ok
        and isinstance(audited, list)
        and all(3 * row["d"] <= row["g"] + 22 for row in audited)
    )
    _criterion(6, ok, f"{len(audited or [])} audited survivors")


def test_criterion_07_high_degree_cases_never_fire():
    rep = verify.verify_case34_never(4, 10, 400)
    floor_ok = True
    for r in range(4, 13):
        for d in range(1, 151):
            for g in range(2, 2 * d + 1):
                if d > 2 * g - 2:
                    continue
                for w in sieve.scan(d, g, r).witnesses:
                    if d < 2 * w.alpha + 3:
                        floor_ok = False
    _criterion(7, rep.ok and floor_ok, f"checked={rep.checked}, degree floor={floor_ok}")


def test_criterion_08_derived_claims():
    bad = [r for r in range(4, 11) if not verify.verify_derived_claims(r, 60).ok]

    # Minimality of the first satisfying tuple at the r=4 boundary alpha.
    alpha = 8
    satisfying = []
    for m in range(1, 13):
        for eps in range(0, alpha):
            mu = 1 if eps == alpha - 1 else 0
            if sieve.derived_satisfied(
                Ineq.INEQ7, sieve.derived_slack(Ineq.INEQ7, 4, alpha, m, eps, mu)
            ):
                satisfying.append((m, eps, mu))
    minimal_ok = satisfying and satisfying[0] == (9, 7, 1) and all(
        m >= 9 for m, _, _ in satisfying
    )
    _criterion(8, not bad and bool(minimal_ok), f"violating r={bad}, first={satisfying[:1]}")


def test_criterion_09_split_certificates():
    rep = verify.verify_splits(12, 60, 4)
    _criterion(9, rep.ok, f"checked={rep.checked}")


def test_criterion_10_falsifiability(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(bounds, "castelnuovo_profile", pi1_off_by_one)
        spots_tripped = not verify.verify_spot_values().ok
        sweep_tripped_pi1 = not verify.verify_thm41(7, 40).ok
    with monkeypatch.context() as m:
        m.setattr(bounds, "castelnuovo_profile", drop_mu2_case)
        sweep_tripped_mu2 = not verify.verify_thm41(5, 50).ok
    clean_again = (
        verify.verify_spot_values().ok
        and verify.verify_thm41(7, 40).ok
        and verify.verify_thm41(5, 50).ok
    )
    _criterion(
        10,
        spots_tripped and sweep_tripped_pi1 and sweep_tripped_mu2 and clean_again,
        f"spot={spots_tripped}, sweep(pi1)={sweep_tripped_pi1}, sweep(mu2)={sweep_tripped_mu2}",
    )
