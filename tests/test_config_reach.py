"""Every network key of a config file reaches the runs that read it, or has a reason not to.

Each key of the file format is changed in turn, from one small base file,
and `equi sweep` and `stab trials` are run on the base and on the changed
file.  Only what the network produces is compared, so an echo of the key
cannot pass for its effect: the sweep's error column (a row-count change
moves it too), counted as moved only beyond 1e-9 relative, and the JSON's
`trials`.  The JSON's `config` echo is checked on its own: it must name
every key the trials read, so two files for different networks differ.
"""

import json

import pytest

from rstcnn.cli import main
from rstcnn.config import DEFAULTS

# L_alpha = 3 in the base: its joint layer reads scale channel s + 1, whose
# log2-scale N_s and T set; at L_alpha = 1 the sweep's compared slice reads only
# the channels at alpha = 0 and -beta, which no scale grid on the lattice moves
BASE = {"layers": 2, "channels": 1, "K": 3, "L_alpha": 3, "seed": 0}

# key -> a changed value that keeps the config valid: eta = -pi/2 stays a
# multiple of 2 pi / N_r, and beta = -0.5 a multiple of the scale step 2T / (N_s - 1)
CHANGED = {
    "layers": 3,
    "channels": 2,
    "K": 4,
    "N_r": 4,
    "N_s": 5,
    "T": 2.0,
    "L": 11,
    "L_theta": 2,
    "L_alpha": 1,
    "j": 1.3,
    "seed": 1,
}

# (command, key) -> why the key leaves that command's output where it is
ALLOWED = {
    ("stab trials", "seed"): "--trials sets the seeds, over the file's seed key",
    ("equi sweep", "N_r"): "the compared slice reads the rotation channels at multiples of 2 pi / L_theta "
    "and at eta, whose filters are the same on every rotation grid that holds them",
    ("equi sweep", "j"): "the bank only rescales by 2^(-2(j - j0)) and the network is positively "
    "homogeneous, so the relative errors move by rounding only (ROADMAP item 1)",
}

RUNS = {
    "equi sweep": ["equi", "sweep", "--height", "28", "--width", "28"],
    "stab trials": ["stab", "trials", "--trials", "2"],
}


def _sweep_errors(text):
    return [float(line.rsplit(",", 1)[1]) for line in text.splitlines() if line and not line.startswith(("#", "K,"))]


def _moved(command, base, changed):
    if command == "stab trials":
        return json.loads(base)["trials"] != json.loads(changed)["trials"]
    a, b = _sweep_errors(base), _sweep_errors(changed)
    if len(a) != len(b):
        return True
    return any(not (x == y or abs(x - y) <= 1e-9 * max(abs(x), abs(y))) for x, y in zip(a, b))


def _run(tmp_path, command, values, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    out = tmp_path / f"{name}.out"
    assert main(RUNS[command] + ["--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text()


def test_changed_values_cover_every_key_and_the_allow_list_names_them():
    assert set(CHANGED) == set(DEFAULTS)
    assert {key for _, key in ALLOWED} <= set(CHANGED) and {command for command, _ in ALLOWED} <= set(RUNS)
    assert all(CHANGED[key] != BASE.get(key, DEFAULTS[key]) for key in CHANGED)
    assert all(reason.strip() for reason in ALLOWED.values())


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_config_key_reaches_the_run_or_has_a_reason(tmp_path, command):
    base = _run(tmp_path, command, BASE, "base")
    changed = {key: _run(tmp_path, command, BASE | {key: value}, key) for key, value in CHANGED.items()}
    moved = {key for key, text in changed.items() if _moved(command, base, text)}
    allowed = {key for cmd, key in ALLOWED if cmd == command}
    assert set(CHANGED) - moved - allowed == set(), "a config key leaves the output unchanged; make the run read it or give a reason"
    assert moved & allowed == set(), "an allow-list entry moves the output now; drop it"
    if command == "stab trials":
        echoed = {key for key, text in changed.items() if json.loads(text)["config"] != json.loads(base)["config"]}
        assert echoed == moved, "a key the trials read is missing from the JSON's config echo"
