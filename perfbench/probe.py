"""Direct-call probes for the traced benchmark run, in a fresh process.

Prints one JSON object: the import time of ``hydrolimit.cli``, the time of one
``shmhd.nonlinear_tendency`` call on the seeded state (median of several), and
the relative difference between that tendency and the benchmark's own
divergence-form evaluation.  A probe whose public function no longer exists
reports ``null`` and the run goes on.

Usage (with src/ on PYTHONPATH): python perfbench/probe.py CONFIG
"""

import json
import statistics
import sys
import time

t0 = time.perf_counter()
import hydrolimit.cli  # noqa: E402,F401  (timed: this is what `hydrolimit` pays)
IMPORT_S = time.perf_counter() - t0

from checks import CheckFailed, check_tendency, divergence_form_tendency  # noqa: E402

CALLS = 9


def main(config: str) -> int:
    out = {"cli.import_s": IMPORT_S, "shmhd.nonlinear_tendency_ms": None,
           "tendency_rel_diff": None, "absent": [], "failed": None}
    try:
        from hydrolimit.shmhd import nonlinear_tendency
        from hydrolimit.sweep import initial_states, load_config
    except ImportError as e:
        out["absent"].append(f"shmhd.nonlinear_tendency ({e})")
        print(json.dumps(out))
        return 0
    cfg = load_config(config)
    s_eps, _ = initial_states(cfg)
    nonlinear_tendency(s_eps)
    times = []
    for _ in range(CALLS):
        t = time.perf_counter()
        ta, tb = nonlinear_tendency(s_eps)
        times.append(time.perf_counter() - t)
    out["shmhd.nonlinear_tendency_ms"] = 1e3 * statistics.median(times)
    try:
        a = [f.coeffs for f in s_eps.a.components()]
        b = [f.coeffs for f in s_eps.b.components()]
        got_a = [f.coeffs for f in ta.components()]
        got_b = [f.coeffs for f in tb.components()]
    except AttributeError as e:
        out["absent"].append(f"tendency check: state layout changed ({e})")
    else:
        ref_a, ref_b = divergence_form_tendency(a, b, cfg.l1, cfg.l2)
        try:
            out["tendency_rel_diff"] = check_tendency(got_a, got_b, ref_a, ref_b)
        except CheckFailed as e:
            out["failed"] = str(e)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
