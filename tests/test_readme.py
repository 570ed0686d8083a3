"""README's library quick start and pulse-chain example, run as written."""

import contextlib
import io

import pytest

from conftest import readme_pulse_chain, readme_quick_start
from springkick import coupling_g2, photon_integral


@pytest.fixture(scope="module")
def quick_start():
    """The quick start's namespace and what it printed."""
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_quick_start(), "README.md", "exec"), namespace)
    return namespace, out.getvalue()


def test_quick_start_runs(quick_start):
    namespace, out = quick_start
    # the same run as acceptance criterion 04
    assert namespace["onset"] == 308386
    assert out.strip()


def test_pulse_chain_runs(quick_start):
    # the example takes params from the quick start
    namespace = dict(quick_start[0])
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(readme_pulse_chain(), "README.md", "exec"), namespace)
    cav, mem, pulse = namespace["cav"], namespace["mem"], namespace["pulse"]
    g2 = coupling_g2(cav, mem, omega_m=5e5)
    assert namespace["theta"] == 2 * g2 * photon_integral(pulse, cav)[0]
    assert namespace["report"].hard_pass
