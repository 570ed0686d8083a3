"""Shared strategies: physical moment vectors and underdamped parameter sets.

Also the README's INI example, as documented and in its physical kick form,
its library quick start and its pulse-chain example.
"""

import math
import re
from pathlib import Path

from hypothesis import strategies as st

from springkick import MechanicalParams, MomentVector


@st.composite
def moment_vectors(draw) -> MomentVector:
    """Random physical states, uncertainty bound enforced by construction.

    sigma_q log-uniform, then sigma_p chosen so sigma_q*sigma_p = det0 >= 1/4,
    then the covariance eats a bounded fraction of the slack above the floor:
    det = 1/4 + (1 - frac^2) * (det0 - 1/4) >= 1/4 always.
    """
    lg_q = draw(st.floats(-1.0, 1.3))
    lg_det = draw(st.floats(0.0, 1.3))
    frac = draw(st.floats(-0.999, 0.999))
    sigma_q = 10.0**lg_q
    sigma_p = (0.25 / sigma_q) * 10.0**lg_det
    # rounding in sigma_q * (0.25/sigma_q) can leave the product a few ulp
    # under 1/4 at lg_det = 0; never hand sqrt a negative slack
    slack = max(0.0, sigma_q * sigma_p - 0.25)
    sigma_qp = frac * math.sqrt(slack)
    return MomentVector(sigma_q, sigma_qp, sigma_p)


@st.composite
def mech_params(draw) -> MechanicalParams:
    """Underdamped mechanical parameter sets across several decades."""
    omega_m = 10.0 ** draw(st.floats(3.0, 7.0))
    gamma_m = omega_m * 10.0 ** draw(st.floats(-6.0, -1.0))
    n_bar = draw(st.floats(0.0, 300.0))
    return MechanicalParams(omega_m=omega_m, gamma_m=gamma_m, n_bar=n_bar)


@st.composite
def params_and_tau(draw) -> tuple[MechanicalParams, float]:
    """Parameter set plus an evolution time of order its mechanical period."""
    params = draw(mech_params())
    tau = (2.0 * math.pi / params.omega_m) * 10.0 ** draw(st.floats(-2.0, 0.5))
    return params, tau


thetas = st.floats(-30.0, 30.0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines in one block at the end of the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(RESULTS):
        terminalreporter.write_line(line)


def _readme_blocks(language: str) -> list[str]:
    """The ```language blocks of README.md, verbatim, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in text.split(f"```{language}\n")[1:]]


def _readme_block(language: str) -> str:
    """The first ```language block of README.md, verbatim."""
    return _readme_blocks(language)[0]


def readme_ini_example() -> str:
    """The ```ini block of README.md, verbatim."""
    return _readme_block("ini")


def readme_quick_start() -> str:
    """The first ```python block of README.md, the library quick start."""
    return _readme_block("python")


def readme_pulse_chain() -> str:
    """The ```python block of README.md that runs the physical pulse chain."""
    (block,) = [b for b in _readme_blocks("python") if "theta_from_physical(" in b]
    return block


def readme_physical_example() -> str:
    """The README example with the commented physical [kick] keys and [bath] active."""
    text = re.sub(r"^; (?=\w+ = |\[)", "", readme_ini_example(), flags=re.M)
    return re.sub(r"^theta = .*\n", "", text, flags=re.M)
