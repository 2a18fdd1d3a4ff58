import pytest

from gatesim import harness
from gatesim.fitting import build_dataset, default_training_depths
from gatesim.motor import default_energy_model


@pytest.fixture(scope="session")
def coeffs():
    return default_energy_model()[0]


@pytest.fixture(scope="session")
def flight():
    return default_energy_model()[1]


@pytest.fixture(scope="session")
def dataset(coeffs, flight):
    return build_dataset(default_training_depths(), coeffs, flight)


@pytest.fixture(scope="session")
def quick_models():
    # Reduced epochs keep unit tests fast; the acceptance suite trains fully.
    return harness.build_default_models(epochs=300)


# Worlds for the sparse-versus-dense oracles: rings cut by each image border,
# a ring fully off-screen, a static one, and spurious events: a few far from
# the ring, or enough to cover the frame.
ORACLE_WORLDS = {
    "clipped-top-bottom": dict(drone_x=0.0, gate_y0=0.0, gate_speed=1.5),
    "clipped-all-sides": dict(drone_x=-0.5, gate_y0=0.5, gate_speed=-2.0),
    "clipped-left": dict(drone_x=1.0, drone_y=1.5, gate_y0=0.0, gate_speed=-1.0),
    "clipped-right": dict(drone_x=1.0, drone_y=-1.5, gate_y0=0.0, gate_speed=1.0),
    "crossing-right-border": dict(drone_x=1.0, drone_y=-0.8, gate_y0=0.2, gate_speed=3.0),
    "off-screen": dict(drone_x=0.0, drone_y=4.0, gate_y0=-2.0, gate_speed=0.5),
    "off-screen-spurious": dict(drone_x=0.0, drone_y=4.0, gate_y0=-2.0, spurious_rate=2e4, seed=5),
    "static": dict(drone_x=2.0, gate_y0=0.3, gate_speed=0.0),
    "few-spurious": dict(drone_x=2.0, drone_y=1.0, gate_y0=-0.5, gate_speed=0.8,
                         spurious_rate=100.0, seed=7),
    "spurious": dict(drone_x=2.0, gate_y0=-1.0, gate_speed=1.0, spurious_rate=5e4, seed=3),
    "noisy": dict(drone_x=3.0, drone_y=1.0, gate_y0=1.5, gate_speed=-0.6, spurious_rate=1e5, seed=11),
}


@pytest.fixture(params=list(ORACLE_WORLDS.values()), ids=list(ORACLE_WORLDS))
def oracle_world(request):
    from gatesim.scene import WorldConfig

    return WorldConfig(**request.param)
