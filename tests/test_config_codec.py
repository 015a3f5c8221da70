"""The config codec: pinned digests, a round trip over generated specs, and refused keys."""
import copy
import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from longtail_lab import (ConfigError, ExperimentConfig, LossSpec, MixupSpec, OptimizerSpec,
                          SamplerSpec, Stage2Spec, jsonio, parse_config)
from longtail_lab.cli import main
from longtail_lab.harness import DatasetConfig
from longtail_lab.losses import LOSS_KINDS
from longtail_lab.model import CLASSIFIER_KINDS
from longtail_lab.optim import OPTIMIZER_KINDS
from longtail_lab.samplers import SAMPLER_KINDS
from longtail_lab.training import STAGE2_KINDS

SYNTH = {"num_classes": 5, "feature_dim": 8, "n0": 120, "ratio": 40.0,
         "val_per_class": 20, "test_per_class": 20}


def golden(dataset=None, **train) -> dict:
    return {"seed": 7, "dataset": dataset or {"synth": SYNTH},
            "train": {"epochs": 3, "batch_size": 32, **train}}


# every loss kind with each of its hyperparameters off its default
LOSSES = {
    "ce": {},
    "focal": {"alpha": 0.5, "gamma": 1.5},
    "cb_ce": {"beta": 0.99},
    "cb_focal": {"beta": 0.999, "alpha": 0.25, "gamma": 0.5},
    "ldam": {"m_max": 0.3, "scale": 10.0},
    "prior_ce": {},
    "weighted_softmax": {},
    "balanced_softmax": {},
    "logit_adjust": {"tau": 1.5},
    "vs": {"gamma_vs": 0.2, "tau_vs": 1.25},
    "seql": {"seql_threshold": 0.1, "seql_q": 0.5},
    "gcl": {"gcl_amplitude": 0.75},
    "label_smooth_lt": {"eps_head": 0.2, "eps_tail": 0.05},
    "bce_ml": {},
    "focal_bce_ml": {"gamma": 3},
}
GOLDEN_CONFIGS = {
    **{f"loss-{kind}": golden(loss={"kind": kind, **hypers}) for kind, hypers in LOSSES.items()},
    "loss-focal-defaults": golden(loss={"kind": "focal"}),
    "sgd": golden(optimizer={"kind": "sgd", "lr": 0.05, "momentum": 0.5}),
    "sgd-sam": golden(optimizer={"kind": "sgd", "lr": 0.05, "sam": True, "sam_rho": 0.1}),
    "adam": golden(optimizer={"kind": "adam", "beta1": 0.8, "beta2": 0.99, "eps": 1e-6}),
    "adam-sam": golden(optimizer={"kind": "adam", "lr": 0.01, "sam": True}),
    "adam-sam-false": golden(optimizer={"kind": "adam", "sam": False}),
    "sampler-original": golden(sampler={"kind": "original", "epoch_length": 300}),
    "sampler-class_balanced": golden(sampler={"kind": "class_balanced"}),
    "sampler-difficulty": golden(sampler={"kind": "difficulty", "difficulty_floor": 0.05}),
    "mixup": golden(mixup={"enabled": True, "alpha": 0.4}),
    "stage2-none": golden(stage2={"kind": "none"}),
    "stage2-crt": golden(stage2={"kind": "crt", "epochs": 2}),
    "stage2-crt-default-epochs": golden(stage2={"kind": "crt"}),
    "stage2-tau_norm": golden(stage2={"kind": "tau_norm", "tau": 0.5}),
    "stage2-lws": golden(stage2={"kind": "lws", "epochs": 0}),
    "stage2-ncm": golden(stage2={"kind": "ncm"}),
    "stage2-disalign": golden(stage2={"kind": "disalign", "epochs": 4}),
    "stage2-cosine_retrain": golden(stage2={"kind": "cosine_retrain", "epochs": 1,
                                            "temperature": 8.0}),
    "encoder-cosine": golden(hidden_dim=16, classifier_kind="cosine", temperature=10.0,
                             eval_every=2),
    "synth-defaults": golden({"synth": {}}),
    "synth-groups": golden({"synth": SYNTH, "group_boundaries": [1, 3]}),
    "manifest": golden({"manifest": "data.jsonl"}),
    "manifest-pareto-groups": golden({"manifest": "data.jsonl", "pareto": {"n0": 50, "ratio": 20},
                                      "group_boundaries": [2, 4]}),
    "named": {**golden(), "name": "erm", "report_path": "out.json"},
    "train-defaults": {"seed": 0, "dataset": {"synth": {}}},
}
# config_digest of each config above, recorded before the codec read and wrote every
# section from its fields' metadata; a change here changes every report's config_digest
GOLDEN_DIGESTS = {
    "loss-ce": "0a175a88bbef296b8894861345dc99421d9edcf9502b3be9c61a77ff431427a9",
    "loss-focal": "24f309339919f6bc25095407242ad0a7057b319ae56b3220d80bfefaa8bf5948",
    "loss-cb_ce": "3e679678a0ba20177df02aa217ebfe2cc987d12f9a1c5983906f9528757424df",
    "loss-cb_focal": "2be89dfbb574acc7c3f062e1dcd0fe59c7f113e72abb2a5b24933351e2be5e20",
    "loss-ldam": "677fb3440a7326c6a0aef74ca00de66a120567351d37aba6f432f33870b5ef65",
    "loss-prior_ce": "1e71c0b8d68711c4d2520e266f962864d4e782d0ff78e10a474399f00a32bcaa",
    "loss-weighted_softmax": "88854c06adb5c8bbeb5776d229ecb0ebd5f3af768d7da16c5e2ef77e2270c3b7",
    "loss-balanced_softmax": "4b686e57c7c5168beed263c64bed53b2106ee2edf305abf4f99d771a878dac3c",
    "loss-logit_adjust": "3926a3b4e6dc96125e04eb9efd7109b8aba5d33b70e1270fef28181215a05cec",
    "loss-vs": "6a57b3116b860dae0a57b595bf37e4556f3dcabb00ea496fdec882d4057849d9",
    "loss-seql": "bb990cc77236c877e3b26ff915d0d1b2cb53c1f363b7a72528344403393015dc",
    "loss-gcl": "d58f9e34b6a080a34b02b9b92b078ab5e573f87485e84b804e2d67df824e12bc",
    "loss-label_smooth_lt": "bb1efba16386ea7891ce78f55b09d1296db5903a4929813a5b14b0752c8c51e7",
    "loss-bce_ml": "ba1c979b9c400bf5fbf907cd5a4726044d7aba4cb91b493f012e05588e948578",
    "loss-focal_bce_ml": "2cf65770b573ff7f10a3b8300055efe14f4c9f2b9202cc98a97cb954ed9aa48b",
    "loss-focal-defaults": "c30982d2ac0262867712c18ebbfc178d96b956df26ab5a69fb3d45ac49efd983",
    "sgd": "e2ed80a191792ad08a8d1750d851b4b77200913e3d053c6fa5601c758390cff4",
    "sgd-sam": "5a591cb6a7858f7213879f0178c388edd2fa8995e6c27e004d109c7bf8e11196",
    "adam": "db49e5cbfb1193551dea61ec7ba35accf6fc6442cae1fb1edf0b4a1574550d64",
    "adam-sam": "c4dc8d40712402542274d8c19b699ec5ceab222910cd09e4a4a5ee2aba6730b2",
    "adam-sam-false": "0a175a88bbef296b8894861345dc99421d9edcf9502b3be9c61a77ff431427a9",
    "sampler-original": "eae57afa79bccf21c4bdf889f87daf8cae32fa508f971a6e4af09f78291888a2",
    "sampler-class_balanced": "afa416b0f4e65f02f9ca4fa5ed7b37fd15e18b173cbb33ef54a21b22ea183847",
    "sampler-difficulty": "af4ea31f9ae6d3bafdeaacf411a0399e1fe80f1fe6d8bb17918aa37c2dcef07d",
    "mixup": "096cbcea104711e67c9daebb2d24511c43656ee82c8309d438d0796cc60acf94",
    "stage2-none": "0a175a88bbef296b8894861345dc99421d9edcf9502b3be9c61a77ff431427a9",
    "stage2-crt": "d8fc160a2e0690aa933b053e3ec5e617a238ab409050a6835a7ce045d12eb072",
    "stage2-crt-default-epochs": "51cfd8006ebb7642eccee68adaefad8169b08e093e08ee39f0cd4fb90b593dd9",
    "stage2-tau_norm": "f6e11845206ceb2584860f25777dfa21c0f52d4b7bbaa4ac94d47e735d624f81",
    "stage2-lws": "603b93c2b9a216ea43cf5c9090c222f705dd92e328ee9188eafa1303a903e903",
    "stage2-ncm": "81983f59eaba26126c139bd78e5dced4b8d36b73c940706b15f06b37de024e04",
    "stage2-disalign": "07881aef9e229e59eabefb9471a4eb4f47540042df5a0287368c444b0da32259",
    "stage2-cosine_retrain": "86a32faa5b2a4d9c8f3364bad497d66cec3dd6add60109880ce882aaa2de4a0c",
    "encoder-cosine": "2dcdaf73400f1e77703bab88829f717501dd45dfdf50565378be745f822e3551",
    "synth-defaults": "584a20f28184d1aa5bca878ce13d0086cdb2edbc19fc48db48ad761442f6637c",
    "synth-groups": "f7491581f07622dc1e80b2e0c9add15637f1c740543d2e51b77ee6cc3a2a9d6f",
    "manifest": "7c7890e92ad7dcaa9944039c5d8f7b9e256462c768011e75ae6e30b66f8bece9",
    "manifest-pareto-groups": "f3a71195aeef0e96b152cc55800103a2e6acbcfd235e9246a85d2771ca889dec",
    "named": "0a175a88bbef296b8894861345dc99421d9edcf9502b3be9c61a77ff431427a9",
    "train-defaults": "b6f9cba17da94f9eefa669cd0632643884ea0a52047d6322faff36749cd766c0",
}


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_golden_digest(name):
    assert parse_config(GOLDEN_CONFIGS[name]).digest == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------- generated specs

KINDS = {"loss": LOSS_KINDS, "sampler": SAMPLER_KINDS, "optimizer": OPTIMIZER_KINDS,
         "stage2": STAGE2_KINDS}
# values a field of this name accepts where its annotation's type alone does not give one
VALUES = {
    "seed": st.integers(0, 2 ** 32), "classifier_kind": st.sampled_from(CLASSIFIER_KINDS),
    "num_classes": st.integers(2, 12), "feature_dim": st.integers(2, 32),
    "ratio": st.floats(1.0, 200.0),
    "group_boundaries": st.integers(1, 5).flatmap(
        lambda h: st.tuples(st.just(h), st.integers(h + 1, h + 5))),
}
# a value of each annotated type that every field of that type accepts
BY_TYPE = {int: st.integers(1, 50), float: st.floats(0.01, 0.9), bool: st.booleans(),
           str: st.text(max_size=8)}


def takes(spec, name: str) -> bool:
    """Whether a config takes the field ``name`` from ``spec``, by the field's metadata."""
    predicate = next(f for f in fields(spec) if f.name == name).metadata.get("takes")
    return predicate is None or predicate(spec)


type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


@functools.cache  # one strategy object per field: hypothesis validates each on first use
def value_pairs(hint, name: str, section: str, nullable: bool = True):
    """(config value, spec value) pairs for the field ``name`` annotated ``hint``; a null
    value only where the field is ``nullable``."""
    if typing.get_origin(hint) is typing.Annotated:
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
        pairs = value_pairs(inner, name, section)
        return st.just((None, None)) | pairs if nullable else pairs
    if is_dataclass(hint):
        return spec_sections(hint, name)
    if typing.get_origin(hint) is tuple:
        return VALUES[name].map(lambda v: (list(v), v))
    if name == "kind":
        return st.sampled_from(KINDS[section]).map(lambda v: (v, v))
    return VALUES.get(name, BY_TYPE.get(hint)).map(lambda v: (v, v))


def nullable(hint) -> bool:
    """Whether a field annotated ``hint`` may be null: ``X | None``, also inside ``Annotated``."""
    if typing.get_origin(hint) is typing.Annotated:
        hint = typing.get_args(hint)[0]
    return type(None) in typing.get_args(hint)


# a section's one source, drawn first so that every draw keeps the rules across its
# fields: each source and the fields it leaves out
SOURCES = {DatasetConfig: {"synth": ("manifest", "pareto"), "manifest": ("synth",)}}


@st.composite
def spec_sections(draw, cls, section: str):
    """(raw section, spec): each config field of ``cls`` drawn from its annotation, or left
    out where it has a default; then only the fields the spec built from them takes. A
    section with ``SOURCES`` sets one source, and leaves out the fields it rules out or,
    where they may be null, sets them null."""
    hints = type_hints(cls)
    source = draw(st.sampled_from(sorted(SOURCES[cls]))) if cls in SOURCES else None
    ruled_out = SOURCES[cls][source] if cls in SOURCES else ()
    raw, values = {}, {}
    for f in fields(cls):
        if f.name in ruled_out:  # left out, or null where the field may be null
            if nullable(hints[f.name]) and draw(st.booleans()):
                raw[f.name] = values[f.name] = None
            continue
        optional = f.name != source and (f.default is not MISSING
                                         or f.default_factory is not MISSING)
        if optional and draw(st.booleans()):
            continue
        raw[f.name], values[f.name] = draw(value_pairs(hints[f.name], f.name, section,
                                                       f.name != source))
    spec = cls(**values)
    raw = {key: value for key, value in raw.items() if takes(spec, key)}
    return raw, cls(**{key: values[key] for key in raw})


def untaken(spec, path=()):
    """(section path, key, value) of each config field that a spec in ``spec`` does not take."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            yield from untaken(value, path + (f.name,))
        elif not takes(spec, f.name):
            yield path, f.name, value


configs = spec_sections(ExperimentConfig, "config")


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(configs)
    def test_round_trip(self, drawn):
        raw, spec = drawn
        config = parse_config(raw)
        assert config == spec
        for again in (parse_config(config.to_config()),
                      parse_config(json.loads(jsonio.dumps(config.to_config())))):
            assert again == config
            assert again.digest == config.digest

    @settings(max_examples=50, deadline=None)
    @given(configs, st.integers(0, 2 ** 32))
    def test_a_config_given_another_seed_round_trips(self, drawn, seed):
        # the experiment seed is the config's one seed: no section keeps a copy of the old one
        config = parse_config(drawn[0])
        assume(seed != config.seed)
        config = replace(config, seed=seed)
        assert parse_config(config.to_config()) == config

    @settings(max_examples=150, deadline=None)
    @given(configs, st.data())
    def test_untaken_key_refused(self, drawn, data):
        raw, spec = copy.deepcopy(drawn)
        path, key, value = data.draw(st.sampled_from(list(untaken(spec))))
        section, node = raw, spec
        for name in path:  # a section left out is written out as its spec's config
            node = getattr(node, name)
            section = section.setdefault(name, jsonio.fields_to_config(node))
        section[key] = value
        with pytest.raises(ConfigError, match=f"{path[-1]} does not take \\['{key}'\\]"):
            parse_config(raw)


# the keys a run ignored, and a config accepted, before each field said which specs take it
IGNORED_KEYS = {
    "sam_rho without sam": ("optimizer", {"kind": "adam", "sam_rho": 0.1}),
    "momentum under adam": ("optimizer", {"kind": "adam", "momentum": 0.5}),
    "difficulty_floor under original": ("sampler", {"kind": "original", "difficulty_floor": 0.1}),
    "epochs under ncm": ("stage2", {"kind": "ncm", "epochs": 2}),
    "tau under crt": ("stage2", {"kind": "crt", "tau": 0.5}),
}


@pytest.mark.parametrize("name", IGNORED_KEYS)
def test_ignored_key_exits_2(tmp_path, capsys, name):
    section, value = IGNORED_KEYS[name]
    raw = golden(**{section: value})
    with pytest.raises(ConfigError, match="does not take"):
        parse_config(raw)
    config_path, report = tmp_path / "c.json", tmp_path / "r.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path), "--out", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section} does not take")
    assert not report.exists()


# (spec, the other arguments, a float field): each float a library caller can set
SPEC_FLOATS = [
    (OptimizerSpec, {}, "lr"), (OptimizerSpec, {"kind": "sgd"}, "momentum"),
    (OptimizerSpec, {}, "eps"), (OptimizerSpec, {"sam": True}, "sam_rho"),
    *[(LossSpec, {"kind": "focal"}, f.name) for f in fields(LossSpec) if f.name != "kind"],
    (SamplerSpec, {"kind": "difficulty"}, "difficulty_floor"),
    (MixupSpec, {"enabled": True}, "alpha"), (Stage2Spec, {"kind": "tau_norm"}, "tau"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("spec, others, name", SPEC_FLOATS,
                         ids=[f"{spec.__name__}-{name}" for spec, _, name in SPEC_FLOATS])
def test_spec_refuses_non_finite_float(spec, others, name, value):
    spec(**others)  # the other arguments alone are valid
    with pytest.raises(ValueError):
        spec(**others, **{name: value})

