"""Boundary contract: finite data that ``Dataset`` accepts either fits or fails
with a ``LingamError``, at any scale the float range holds, and without a warning."""

import numpy as np
import pytest

from lingamkit import CausalOrder, Dataset, bootstrap_cis, fit, ica_lingam_fit
from lingamkit.errors import LingamError


def boundary_cases(count, seed):
    """Cubed-normal ``p x n`` matrices, p from 2 to 6 and n from 3 to 59. A third have
    a row that is a multiple of the first, a third a last row that is the sum of the
    rest; then each row, or the whole matrix, is scaled by 10**U(-300, 300)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, n = int(rng.integers(2, 7)), int(rng.integers(3, 60))
        x = rng.standard_normal((p, n)) ** 3
        shape = rng.integers(3)
        if shape == 1:
            x[rng.integers(1, p)] = rng.uniform(-2.0, 2.0) * x[0]
        elif shape == 2:
            x[-1] = x[:-1].sum(axis=0)
        x *= 10.0 ** rng.uniform(-300.0, 300.0, (p, 1) if rng.random() < 0.5 else ())
        yield x


@pytest.mark.filterwarnings("error")
def test_every_stage_returns_or_raises_a_lingam_error():
    # Stages: Dataset, fit, bootstrap_cis under the fitted order (the identity order
    # when the fit failed) and the ICA baseline. Any other exception, a numpy warning
    # included, is a defect; the list names each case and stage that showed one.
    defects = []

    def stage(case, name, call):
        try:
            return call()
        except LingamError:
            return None
        except Exception as exc:
            defects.append((case, name, f"{type(exc).__name__}: {exc}"))
            return None

    for case, x in enumerate(boundary_cases(1000, 12345)):
        data = stage(case, "Dataset", lambda: Dataset(x))
        if data is None:
            continue
        model = stage(case, "fit", lambda: fit(data))
        order = CausalOrder.identity(data.p) if model is None else model.order
        stage(case, "bootstrap_cis", lambda: bootstrap_cis(data, order, np.random.default_rng(case), resamples=100))
        stage(case, "ica_lingam_fit", lambda: ica_lingam_fit(data, np.random.default_rng(case)))
    assert defects == []
