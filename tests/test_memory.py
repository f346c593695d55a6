"""Bounds on the memory that reading a dataset and fitting Cox allocate.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every array it holds at once. The bounds are bytes per dataset row at
a moderate n, where the per-row arrays outweigh everything of fixed size.
"""

import tracemalloc

import pytest

from survmix import CensoringSpec, TrialConfig, cox_fit, simulate
from survmix.cli import read_dataset_csv, write_dataset
from survmix.config import default_config
from survmix.trial import covariate_matrix

N_PER_ARM = 20_000


def traced_peak(fn):
    """Peak bytes allocated while fn runs, beyond those live when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    """The benchmark's kind of file: every column, censored at 8 and by rate 0.05."""
    config = TrialConfig(truth=default_config().truth, n_per_arm=N_PER_ARM,
                         censoring=CensoringSpec("both", admin_time=8.0, rate=0.05),
                         seed=11)
    out = tmp_path_factory.mktemp("dataset")
    return write_dataset(simulate(config), str(out), reveal_latent=True)


def test_read_holds_records_and_columns_only(dataset_path):
    # 7 columns of 8 bytes: the records and their column copies are 112 bytes
    # a row; the file's 43 bytes a row are gone before the copies are made
    peak = traced_peak(lambda: read_dataset_csv(dataset_path))
    assert peak / (2 * N_PER_ARM) < 130


def test_cox_fit_working_set(dataset_path):
    # 116 bytes a row measured: the sorted covariates, one (n, 4) buffer, the
    # sort and the per-event-time arrays
    columns = read_dataset_csv(dataset_path)
    x = covariate_matrix(columns, ("arm", "stratum"))
    peak = traced_peak(lambda: cox_fit(columns["observed_time"], columns["event"], x))
    assert peak / (2 * N_PER_ARM) < 135
