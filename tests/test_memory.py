"""Bounds on the memory that writing and reading a dataset, fitting Cox and
fitting the sensitivity replicates allocate.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every array it holds at once. The bounds are bytes per dataset row at
a moderate n, plus the fixed size of the chunk a read parses at a time; a
write holds one block of rows, whatever their number.
"""

import os
import tracemalloc

import pytest

from survmix import CensoringSpec, TrialConfig, cli, cox_fit, estimands, simulate
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
def dataset():
    """The benchmark's kind of trial: censored at 8 and by rate 0.05."""
    config = TrialConfig(truth=default_config().truth, n_per_arm=N_PER_ARM,
                         censoring=CensoringSpec(admin_time=8.0, rate=0.05),
                         seed=11)
    return simulate(config)


@pytest.fixture(scope="module")
def dataset_path(dataset, tmp_path_factory):
    """The benchmark's kind of file: every column."""
    out = tmp_path_factory.mktemp("dataset")
    return write_dataset(dataset, str(out), reveal_latent=True)


def test_read_holds_records_and_columns_only(dataset_path):
    # 7 columns of 8 bytes are 56 bytes a row; beyond them the read holds
    # one chunk's lines and records, about 5.3 chunks measured
    peak = traced_peak(lambda: read_dataset_csv(dataset_path))
    assert peak < 60 * (2 * N_PER_ARM) + 6 * cli._CHUNK_BYTES


def test_crlf_read_holds_chunks_not_the_file(dataset_path, tmp_path):
    # numpy reads a CRLF file a chunk at a time too, each \r\n a line end:
    # beyond the columns, one chunk's lines and records, about 5.2 chunks
    # measured, as for the LF file
    crlf = tmp_path / "crlf.csv"
    with open(dataset_path, "rb") as fh:
        crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
    peak = traced_peak(lambda: read_dataset_csv(str(crlf)))
    assert peak < 60 * (2 * N_PER_ARM) + 9 * cli._CHUNK_BYTES


def test_cox_fit_working_set(dataset_path):
    # 106 bytes a row measured: the sorted covariates, one column-major
    # (4, n) buffer and the per-event-time arrays, with the gathers of one
    # evaluation
    columns = read_dataset_csv(dataset_path)
    x = covariate_matrix(columns, ("arm", "stratum"))
    peak = traced_peak(lambda: cox_fit(columns["observed_time"], columns["event"], x))
    assert peak / (2 * N_PER_ARM) < 110


def test_write_holds_one_block(dataset, tmp_path):
    # the text and Python objects of one block of rows: about 4.4 MB for a
    # 7-column block of 2^14 rows, whatever the number of rows written
    peak = traced_peak(lambda: write_dataset(dataset, str(tmp_path), reveal_latent=True))
    assert peak < 5.5e6


@pytest.mark.parametrize("cpus", [1, 2])
def test_sensitivity_holds_one_block_per_thread(monkeypatch, cpus):
    # one block of replicates: its potential and censored times, the sorted
    # risk-set counts and the Newton work buffer, about 79 bytes a block row
    # measured; with two usable CPUs each of the pool's two threads holds one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    config = TrialConfig(truth=default_config().truth, n_per_arm=500, seed=12)
    specs = [CensoringSpec(), CensoringSpec(admin_time=8.0, rate=0.05)]
    peak = traced_peak(lambda: estimands._replicate_log_hrs(config, specs, 128))
    assert peak / estimands._BLOCK_ROWS < cpus * 85
