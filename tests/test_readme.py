"""The README's examples run as written against the library."""

import re
from pathlib import Path

import numpy as np
import yaml

from rrfilt import StepResult
from rrfilt.harness import config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks of the README section ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, flags=re.DOTALL)


def _stream(n_pairs=20, num_taps=40):
    """``(r, d)`` pairs: random complex windows and random QPSK targets."""
    rng = np.random.default_rng(2024)
    return [
        (
            rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps),
            complex(*rng.choice([-1.0, 1.0], size=2)) / np.sqrt(2.0),
        )
        for _ in range(n_pairs)
    ]


def test_both_library_examples_run():
    examples = _blocks("Library use", "python")
    assert len(examples) == 2
    stream = _stream()
    namespaces = []
    for code in examples:
        namespace = {"stream": stream}
        exec(compile(code, str(README), "exec"), namespace)
        res = namespace["res"]
        assert isinstance(res, StepResult)
        assert np.isfinite(res.y) and np.isfinite(res.e)
        namespaces.append(namespace)
    # the first example's closing claim: vdot(w_eq, r) == scheme.predict(r)
    scheme, w_eq = namespaces[0]["scheme"], namespaces[0]["w_eq"]
    assert (namespaces[0]["adds"], namespaces[0]["mults"]) == (379, 450)
    for r, _ in stream:
        y = scheme.predict(r)
        assert abs(np.vdot(w_eq, r) - y) <= 1e-10 * (1 + abs(y))


def test_configuration_example_loads():
    (block,) = _blocks("Configuration files", "yaml")
    cfg = config_from_dict(yaml.safe_load(block))
    assert cfg.scheme == "scheme_b" and cfg.cdma.window_len == 40
