"""Test-side sample helpers: a seeded dataset, and the CSV text that ``fit`` reads."""

from monotone_wfi.model import Sample, Scenario, draw_sample
from monotone_wfi.streams import stream


def sample_dataset(scn: Scenario, n: int, seed: int) -> Sample:
    """Deterministic dataset of size ``n`` for the given seed."""
    return draw_sample(scn, n, stream(seed))


def sample_to_csv_text(s: Sample) -> str:
    """Two-column ``x,y`` text with one row per draw (weights expanded)."""
    lines = ["x,y"]
    for x, ones, w in zip(s.xs, s.ones, s.weights):
        lines.extend(f"{format(float(x), '.17g')},1" for _ in range(int(ones)))
        lines.extend(f"{format(float(x), '.17g')},0" for _ in range(int(w - ones)))
    return "\n".join(lines) + "\n"
