"""Bench TH: Section III equations (1)-(3) and the n-core extension."""

from repro.experiments import section3_theory


def test_theory(benchmark, emit):
    result = benchmark(section3_theory.run)
    emit("theory", result.render())
    assert result.chain_ok == len(result.rows)
    assert result.n_core_ok == section3_theory.N_CORE_VECTORS
