import numpy as np
import pytest

from opial import Distribution, Piece, QuantizedModel


def random_atomic_model(rng, m_max=50, m_min=1) -> QuantizedModel:
    """Random atomic distribution: sorted support, Dirichlet masses."""
    m = int(rng.integers(m_min, m_max + 1))
    support = np.cumsum(rng.uniform(0.1, 1.0, m)) + rng.uniform(-3.0, 3.0)
    mass = rng.dirichlet(np.ones(m))
    mass = np.maximum(mass, 1e-9)
    mass /= mass.sum()
    return QuantizedModel(support=support, mass=mass, is_exact=True)


def random_atomic_distribution(rng, m_max=50, m_min=1) -> Distribution:
    model = random_atomic_model(rng, m_max=m_max, m_min=m_min)
    return Distribution(atoms=tuple(zip(model.support, model.mass)))


def random_mixed_distribution(rng, max_parts=4) -> Distribution:
    """Random mixture of atoms and disjoint uniform pieces."""
    n_parts = int(rng.integers(1, max_parts + 1))
    weights = rng.dirichlet(np.ones(n_parts))
    weights = np.maximum(weights, 1e-6)
    weights /= weights.sum()
    cursor = float(rng.uniform(-3.0, 0.0))
    atoms = []
    pieces = []
    for w in weights:
        cursor += float(rng.uniform(0.05, 0.5))
        if rng.random() < 0.5:
            atoms.append((cursor, float(w)))
        else:
            width = float(rng.uniform(0.1, 1.0))
            pieces.append((cursor, cursor + width, float(w)))
            cursor += width
    return Distribution(
        atoms=tuple(atoms), pieces=tuple(Piece(*pc) for pc in pieces)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
