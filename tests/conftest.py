import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from cmospath import (
    GateTemplate,
    ProcessParams,
    load_process_file,
    parse_path_text_file,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

REF_PROC = str(FIXTURES / "ref.proc")
CHAIN11 = str(FIXTURES / "chain11.path")
CHAIN13 = str(FIXTURES / "chain13.path")
HEAVY = str(FIXTURES / "heavy.path")

# Environment for a fresh interpreter that imports the package from src/.
PACKAGE_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="session")
def ref_config():
    return load_process_file(REF_PROC)


@pytest.fixture(scope="session")
def ref_params(ref_config):
    return ref_config[0]


@pytest.fixture(scope="session")
def ref_library(ref_config):
    return ref_config[1]


@pytest.fixture(scope="session")
def symmetric_params():
    # k = R makes both transitions equally strong, so inverter chains
    # have one stage coefficient and the textbook closed forms apply.
    return ProcessParams(tau=10.0, vtn=1e-9, vtp=1e-9, r_ratio=2.0,
                         k_ratio=2.0, cref=1.0, cap_per_width=2.0)


@pytest.fixture(scope="session")
def ideal_library():
    # no parasitics, no coupling: the bare fanout model
    inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                       par_coeff=0.0, cm_override=0.0)
    nand2 = GateTemplate(name="nand2", n_inputs=2, dw_hl=2.0, dw_lh=1.0,
                         par_coeff=0.0, cm_override=0.0)
    return {"inv": inv, "nand2": nand2}


@pytest.fixture(scope="session")
def chain11():
    return parse_path_text_file(CHAIN11)


@pytest.fixture(scope="session")
def chain13():
    return parse_path_text_file(CHAIN13)


@pytest.fixture(scope="session")
def heavy_path():
    return parse_path_text_file(HEAVY)
