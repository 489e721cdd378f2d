"""The paper's central comparison, pinned at desk scale.

Starting the reverse integration at the mixing ratio estimated for each
mixture must beat the fixed start at tau = 0, which integrates every
mixture over all of [0, 1]. On criterion 6's trained system and its 50 eval
items, at every `max_nfe` of the NFE sweep, the estimated start's mean
SI-SDR gain over the mixture must exceed the fixed start's by at least
1 dB. The test prints one PASS/FAIL line, as the acceptance tests do:
    pytest tests/test_paper_claims.py -v -s
"""

import numpy as np

from adflow import cli, metrics
from adflow.mrnet import mr_predict
from adflow.sampler import NetField, NfePolicy, extract_budgets
from adflow.signal import DatasetConfig, make_dataset

MIN_MARGIN_DB = 1.0


def test_estimated_start_beats_fixed_start(trained_system):
    net, reg, _ = trained_system
    items = make_dataset(50, "uniform", DatasetConfig(duration_s=0.5), seed=1)
    policies = [NfePolicy(max_nfe=n) for n in cli.NFE_SWEEP_VALUES]
    # per start: one row per item of (SI-SDR gain, steps) per budget
    runs = {"estimated": [], "tau0": []}
    for item in items:
        x, field = item.x, NetField(net, item.e)
        mixture_db = metrics.si_sdr(x, item.s1)
        for start, tau in (("estimated", mr_predict(reg, x, item.e)),
                           ("tau0", 0.0)):
            runs[start].append([
                (metrics.si_sdr(est, item.s1) - mixture_db, nfe) for est, nfe
                in extract_budgets(x, item.e, tau, field, policies)])
    (est_db, est_nfe), (fixed_db, fixed_nfe) = (
        np.mean(runs[start], axis=0).T for start in ("estimated", "tau0"))
    ok = bool(np.all(est_db >= fixed_db + MIN_MARGIN_DB))
    detail = "; ".join(
        f"max_nfe {n}: estimated {e:+.2f} dB at {k:.2f} NFE, tau0 "
        f"{f:+.2f} dB at {j:.2f} NFE" for n, e, k, f, j in
        zip(cli.NFE_SWEEP_VALUES, est_db, est_nfe, fixed_db, fixed_nfe))
    print(f"\nPAPER CLAIM [estimated start beats the fixed start by "
          f"{MIN_MARGIN_DB} dB]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail
