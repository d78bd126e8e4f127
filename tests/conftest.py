"""Shared fixtures: small deterministic synthetic graphs and partitions."""

import numpy as np
import pytest

from splitgnn import graph as G
from splitgnn.models import EncoderConfig
from splitgnn.protocol import SessionConfig


def make_bundle(seed=0, n_u=24, n_v=16, feature_dim=6, num_classes=2,
                homophily=0.8, edge_dim=2, avg_degree=2.5):
    spec = G.SyntheticSpec(
        node_counts={"u": n_u, "v": n_v},
        relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=edge_dim,
                           avg_degree=avg_degree, symmetric=True),
            G.RelationSpec("uv", "u", "v", edge_dim=1, avg_degree=1.5),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=1.5),
        ],
        feature_dim=feature_dim,
        num_classes=num_classes,
        homophily=homophily,
    )
    return G.generate_synthetic(spec, seed=seed)


def make_views(bundle, ratio, seed=0, label_holder=0):
    spec = G.PartitionSpec.from_ratio(ratio, bundle.graph.feature_dim,
                                      bundle.graph.relation_names(),
                                      label_holder=label_holder)
    return G.vertical_partition(bundle, spec, seed=seed)


def single_view(bundle, seed=0):
    return make_views(bundle, [1.0], seed=seed)[0]


def session_config(**overrides):
    enc = overrides.pop("encoder", None) or EncoderConfig(
        kind="hat", layers=2, hidden=4, heads=2, fusion="concat", dropout=0.0)
    kwargs = dict(encoder=enc, strategy="concat", batch_size=8, epochs=2,
                  learning_rate=0.05, seed=0, server_dropout=0.0)
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


def add_at_segment_sum(values, seg, n):
    """The ``np.add.at`` scatter the segment ops were first written with:
    the bit-level oracle for their bincount kernel."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, seg, values)
    return out


@pytest.fixture
def tiny_bundle():
    return make_bundle(seed=1)
