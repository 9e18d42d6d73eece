"""Measurement harness: TTS, histograms, frequencies, experiment runners."""

from repro.harness.experiments import (
    FULL,
    SMOKE,
    ExperimentScale,
    establish_reference,
    make_abs,
    make_dabs,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table2,
    run_table3,
    run_table4,
    run_tables5_and_6,
)
from repro.harness.frequency import (
    FrequencyAggregator,
    executed_frequencies,
    first_found_frequencies,
)
from repro.harness.histogram import Histogram
from repro.harness.reporting import ExperimentReport, format_gap, markdown_table
from repro.harness.tts import TrialRecord, TTSResult, measure_tts

__all__ = [
    "ExperimentReport",
    "ExperimentScale",
    "FULL",
    "FrequencyAggregator",
    "Histogram",
    "SMOKE",
    "TTSResult",
    "TrialRecord",
    "establish_reference",
    "executed_frequencies",
    "first_found_frequencies",
    "format_gap",
    "make_abs",
    "make_dabs",
    "markdown_table",
    "measure_tts",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_tables5_and_6",
]
