from pathlib import Path

import hypothesis
import pytest

from pargal.config import build_action, parse_config

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=60,
    deadline=None, print_blob=False,
)
hypothesis.settings.load_profile("ci")

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.fixture(scope="session")
def stress_action():
    """Build a stress config of perfbench/configs (f4c4, f8c3, ...) as an
    action, once per session, by name."""
    built = {}

    def get(name):
        if name not in built:
            text = (CONFIGS / f"{name}.ini").read_text()
            built[name] = build_action(parse_config(text))
        return built[name]
    return get
