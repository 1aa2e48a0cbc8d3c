"""Every network the suite's fixtures build synthesizes joint filters that are not all zero.

A joint layer at L_alpha = 2 samples its scale profiles at the taps alpha =
-1 and 1, where every Dirichlet profile is 0, so each of its filters is zero
and a test on that layer checks nothing there.  The cone tests of test_net
run _cone_net at L_alpha = 4 for an even tap count: its taps +-1/3 are live.
"""

import numpy as np
import pytest

from rstcnn import build_network, fig3_config, init_coeffs, layer_bank, synthesize_filters

from conftest import small_net
from test_analysis import bounds_net, stability_setup
from test_experiments import tiny_sweep_config
from test_net import _cone_net, joint_net

FIXTURE_NETWORKS = {
    "conftest.small_net": small_net,
    "test_net.joint_net": joint_net,
    "three-layer small_net": lambda: small_net(layers=3, channels=2, L_alpha=3, max_angular=2),
    "test_net._cone_net-La1": lambda: _cone_net(5, 4, 1),
    "test_net._cone_net-La3": lambda: _cone_net(5, 4, 3),
    "test_net._cone_net-La4": lambda: _cone_net(5, 4, 4),
    "test_analysis.stability_setup": lambda: stability_setup()[0],
    "test_analysis.bounds_net-fb": lambda: bounds_net("fb"),
    "test_analysis.bounds_net-sl": lambda: bounds_net("sl"),
    "test_tracer_targets bounds net": lambda: small_net(layers=2, channels=2, K=5, L_alpha=3),
    "test_experiments wiring net": lambda: build_network(tiny_sweep_config(layers=3, channels=2), K=3, L_alpha=3, seed=9),
    "fig3 cell K=5 L_alpha=3": lambda: build_network(fig3_config(), 5, 3),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_NETWORKS))
def test_fixture_network_synthesizes_nonzero_joint_filters(name):
    net = FIXTURE_NETWORKS[name]()
    coeffs = init_coeffs(net, seed=0)
    peaks = [np.abs(synthesize_filters(coeffs[i], layer_bank(net, i), spec)).max() for i, spec in enumerate(net.layers)]
    # the lifting layer's peak sets the scale each joint layer's is compared with
    assert all(peak > 1e-3 * peaks[0] for peak in peaks[1:]), peaks


def test_l_alpha_two_synthesizes_zero_joint_filters():
    # the reason no network above has a joint layer at L_alpha = 2
    net = small_net(layers=2, channels=2, L_alpha=2, max_angular=2)
    joint = synthesize_filters(init_coeffs(net, seed=0)[1], layer_bank(net, 1), net.layers[1])
    assert joint.size > 0 and not joint.any()
