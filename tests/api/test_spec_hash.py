"""Spec-hash identity: the pinned hashes of every registered campaign,
the config serialization behind them, and the per-instance memo."""

import hashlib
import json
import pickle
from dataclasses import asdict, replace

from repro.analysis.report import campaign_markdown
from repro.api import Experiment, Runner, get_campaign, run_campaign
from repro.api.sweep import campaign_names
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig, TraceConfig, config_to_dict

#: sha256 of the sorted ``(campaign, point name, spec hash)`` triples of
#: every registered campaign.  Store keys are
#: ``sha256(spec_hash:fingerprint)``, so a serialization change that
#: moves a spec hash orphans every stored result: it must be deliberate,
#: re-pinned here and recorded in the change log.
SPEC_HASH_PIN = \
    "70377e55166bbf7fe658ce207cb5f0f353bb793ee0c7d27d14a8a04ca1ecbe4c"


def _registered_points():
    for name in campaign_names():
        for point in get_campaign(name).points():
            yield name, point


def test_registered_campaign_spec_hashes_are_pinned():
    triples = sorted((name, point.name, point.experiment.spec_hash())
                     for name, point in _registered_points())
    digest = hashlib.sha256(json.dumps(triples).encode("utf-8")).hexdigest()
    assert digest == SPEC_HASH_PIN


# --------------------------------------------------------------------- #
# config serialization
# --------------------------------------------------------------------- #


def reference_config_to_dict(config: SystemConfig):
    """The ``dataclasses.asdict`` serialization spec hashes were pinned
    with; :func:`config_to_dict` must reproduce it exactly."""
    data = asdict(config)
    data["model"] = config.model.value
    if config.trace == TraceConfig():
        del data["trace"]
    return data


def _assert_same_tree(got, want, where="config"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same_tree(got[key], want[key], f"{where}.{key}")
    else:
        assert got == want, where


def test_config_to_dict_matches_the_asdict_reference():
    scaled = SystemConfig.scaled_default()
    configs = {
        SystemConfig(),
        scaled,
        scaled.with_trace(enabled=True, ring_size=0, flight=True),
        scaled.with_pim(buffer_capacity=None, zero_logic=True),
        scaled.with_traffic(arrival="poisson", offered_load=2.5),
    }
    configs.update(point.experiment.config
                   for _name, point in _registered_points())
    for config in configs:
        _assert_same_tree(config_to_dict(config),
                          reference_config_to_dict(config))


# --------------------------------------------------------------------- #
# the per-instance memo
# --------------------------------------------------------------------- #


def _exp(**overrides) -> Experiment:
    spec = dict(workload="ycsb",
                config=SystemConfig.scaled_default(num_scopes=4),
                params={"num_records": 8000, "num_ops": 10})
    spec.update(overrides)
    return Experiment(**spec)


def _unhashed(experiment: Experiment) -> Experiment:
    """An equal experiment that has never been hashed."""
    return Experiment.from_dict(experiment.to_dict())


def test_warm_replay_serializes_each_spec_once(tmp_path, monkeypatch):
    """One warm replay pass -- partition, digest, report -- serializes
    each point's spec once (three times before the memo)."""
    campaign = get_campaign("smoke")
    store = str(tmp_path / "store")
    cold = run_campaign(campaign, store=store)
    assert not cold.failed_points
    cold_digest = cold.digest()

    serialized = []
    to_dict = Experiment.to_dict

    def counting_to_dict(self):
        serialized.append(self)
        return to_dict(self)

    monkeypatch.setattr(Experiment, "to_dict", counting_to_dict)
    runner = Runner(store=store)
    warm = run_campaign(campaign, runner=runner)
    assert runner.dispatch_count == 0
    assert warm.digest() == cold_digest
    campaign_markdown(warm)
    assert len(serialized) <= len(warm.points)


def test_derived_specs_hash_afresh():
    exp = _exp()
    exp.spec_hash()
    derived = (exp.with_model(ConsistencyModel.NAIVE),
               replace(exp, variant="other"),
               replace(exp, params={"num_records": 8000, "num_ops": 11}))
    for other in derived:
        assert other.spec_hash() == _unhashed(other).spec_hash()
        assert other.spec_hash() != exp.spec_hash()


def test_pickle_round_trip_keeps_identity():
    for hashed in (False, True):
        exp = _exp()
        if hashed:
            exp.spec_hash()
        clone = pickle.loads(pickle.dumps(exp))
        assert clone == exp
        assert hash(clone) == hash(exp)
        assert clone.spec_hash() == exp.spec_hash() == _exp().spec_hash()


def test_memo_stays_out_of_equality_hash_and_repr():
    hashed, fresh = _exp(), _exp()
    hashed.spec_hash()
    assert hashed == fresh and fresh == hashed
    assert hash(hashed) == hash(fresh)
    assert repr(hashed) == repr(fresh)
    assert {fresh: "hit"}[hashed] == "hit"
