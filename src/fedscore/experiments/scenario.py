"""Scenario files: declarative experiment configs in INI form.

A scenario bundles a federation setup with a scoring protocol (which
methods, which round, which reference) plus optional ablation and
downstream blocks.  The format is plain configparser INI so files stay
hand-editable and diffable:

    [scenario]
    name = default
    repeats = 10
    master_seed = 2
    methods = LOO, FP, EE, COS
    reference = MR-SV
    reference_rounds = all
    eval_round = 5

    [federation]
    n_clients = 9
    rounds = 10
    ...

    [data]
    n_classes = 4
    ...

    [ablation]
    axis = round
    values = 5, 10

    [downstream.weighted]
    weight_mode = cumulative

Unknown sections or keys are rejected, and every validation error names
the offending section.field so a typo is a one-line fix.
"""

import configparser
import dataclasses
from dataclasses import dataclass, field

from ..fedsim import FederationConfig, SyntheticSpec, UTILITY_KINDS
from ..games import METHOD_LABELS
from ..scoring import MR_SV_MAX_CLIENTS

# Each reference kind and the method label that computes it.
REFERENCE_METHODS = {"MR-SV": "MR-SV", "true-SV": "SV"}
REFERENCE_KINDS = tuple(REFERENCE_METHODS)
REFERENCE_ROUNDS = ("eval", "all")
ABLATION_AXES = ("round", "n_clients", "mu")
# The federation field each ablation axis but round varies.
ABLATION_FIELDS = {"n_clients": "n_clients", "mu": "dirichlet_mu"}
WEIGHT_MODES = ("perround", "cumulative")
# Every score label is a method a scenario may ask for.
SCORER_LABELS = METHOD_LABELS

# True SV retrains a federation for each of the 2^N coalitions.
TRUE_SV_MAX_CLIENTS = 9
_CLIENT_CAPS = {"MR-SV": MR_SV_MAX_CLIENTS, "SV": TRUE_SV_MAX_CLIENTS}


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names section.field."""


def _check_round(field, rnd, rounds):
    if rnd is not None and not 1 <= rnd <= rounds:
        raise ScenarioError(
            f"{field}: {rnd} outside 1..{rounds} (federation.rounds)"
        )


@dataclass(frozen=True)
class AblationBlock:
    axis: str
    values: tuple


@dataclass(frozen=True)
class WeightedBlock:
    """Score-weighted aggregation settings.

    weight_mode "cumulative" uses the running mean of the per-round
    normalized scores as the current weight basis; "perround" uses only
    the latest round's scores.  rates "linear" means client i flips
    labels at rate i/(N-1); an explicit comma list overrides it.
    """

    weight_mode: str = "cumulative"
    rates: tuple | None = None  # None -> linear i/(N-1)

    def validate(self, federation):
        n = federation.n_clients
        if self.rates is None:
            if n < 2:
                raise ScenarioError(
                    "downstream.weighted.rates: linear schedule needs >= 2 "
                    "clients"
                )
            return
        if len(self.rates) != n:
            raise ScenarioError(
                f"downstream.weighted.rates: {len(self.rates)} values for {n} "
                f"clients (federation.n_clients)"
            )
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ScenarioError(
                    f"downstream.weighted.rates: {rate} outside [0, 1]"
                )


@dataclass(frozen=True)
class MisbehaviorBlock:
    attacker: int = 0
    rate: float = 1.0
    eval_round: int | None = None  # None -> scenario eval_round

    def validate(self, federation):
        if not 0 <= self.attacker < federation.n_clients:
            raise ScenarioError(
                f"downstream.misbehavior.attacker: {self.attacker} outside "
                f"0..{federation.n_clients - 1}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ScenarioError(
                f"downstream.misbehavior.rate: {self.rate} outside [0, 1]"
            )
        _check_round("downstream.misbehavior.eval_round", self.eval_round,
                     federation.rounds)


@dataclass(frozen=True)
class InfluenceBlock:
    round: int | None = None  # None -> scenario eval_round

    def validate(self, federation):
        _check_round("downstream.influence.round", self.round,
                     federation.rounds)


@dataclass(frozen=True)
class ManipulationBlock:
    def validate(self, federation):
        pass


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description.

    Every block field is checked here, so copies made with
    dataclasses.replace are checked too.
    """

    name: str
    federation: FederationConfig
    repeats: int = 1
    master_seed: int = 0
    methods: tuple = ("LOO", "FP", "EE", "COS")
    reference: str = "MR-SV"
    reference_rounds: str = "eval"
    eval_round: int = 10
    ablation: AblationBlock | None = None
    downstream: tuple = ()

    def __post_init__(self):
        if self.repeats < 1:
            raise ScenarioError("scenario.repeats: must be >= 1")
        _check_round("scenario.eval_round", self.eval_round,
                     self.federation.rounds)
        if self.reference not in REFERENCE_KINDS:
            raise ScenarioError(
                f"scenario.reference: {self.reference!r} not one of "
                f"{REFERENCE_KINDS}"
            )
        if self.reference_rounds not in REFERENCE_ROUNDS:
            raise ScenarioError(
                f"scenario.reference_rounds: {self.reference_rounds!r} "
                f"not one of {REFERENCE_ROUNDS}"
            )
        for m in self.methods:
            if m not in SCORER_LABELS:
                raise ScenarioError(
                    f"scenario.methods: unknown method {m!r}, expected "
                    f"{SCORER_LABELS}"
                )
        if not self.methods:
            raise ScenarioError("scenario.methods: at least one method")
        self._check_caps(self.federation.n_clients, "federation.n_clients")
        if self.ablation is not None:
            self._check_ablation()
        for block in self.downstream:
            block.validate(self.federation)

    def _check_ablation(self):
        axis = self.ablation.axis
        if axis not in ABLATION_AXES:
            raise ScenarioError(
                f"ablation.axis: {axis!r} not one of {ABLATION_AXES}"
            )
        if not self.ablation.values:
            raise ScenarioError("ablation.values: empty list")
        for v in self.ablation.values:
            if axis == "round":
                _check_round("ablation.values", v, self.federation.rounds)
                continue
            try:
                dataclasses.replace(self.federation,
                                    **{ABLATION_FIELDS[axis]: v})
            except ValueError as exc:
                raise ScenarioError(f"ablation.values: {exc}") from None
            if axis == "n_clients":
                self._check_caps(v, "ablation.values")

    def _check_caps(self, n_clients, field):
        labels = set(self.methods) | {REFERENCE_METHODS[self.reference]}
        for label, cap in _CLIENT_CAPS.items():
            if label in labels and n_clients > cap:
                raise ScenarioError(
                    f"{field}: {label} enumerates 2^N coalitions and is "
                    f"capped at {cap} clients, got {n_clients}"
                )


_SCENARIO_KEYS = {
    "name", "repeats", "master_seed", "methods", "reference",
    "reference_rounds", "eval_round",
}
_FEDERATION_KEYS = {
    "n_clients", "rounds", "dirichlet_mu", "iid", "local_epochs", "lr",
    "batch_size", "utility", "noise_rates", "flip_target",
}
_DATA_KEYS = {
    "n_classes", "dim", "samples_per_client", "test_samples_per_class",
    "separation",
}
_BLOCK_KEYS = {
    "ablation": {"axis", "values"},
    "downstream.weighted": {"weight_mode", "rates"},
    "downstream.misbehavior": {"attacker", "rate", "eval_round"},
    "downstream.influence": {"round"},
    "downstream.manipulation": set(),
}


def _check_keys(section, present, allowed):
    for key in present:
        if key not in allowed:
            raise ScenarioError(
                f"{section}.{key}: unknown key (allowed: "
                f"{', '.join(sorted(allowed)) or 'none'})"
            )


def _conv(section, key, raw, kind):
    """Convert one raw string value, naming the field on failure."""
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ScenarioError(f"{section}.{key}: {exc}") from None


def _float_list(section, key, raw):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ScenarioError(f"{section}.{key}: empty list")
    return tuple(_conv(section, key, s, float) for s in items)


def _parse_noise(section, raw, n_clients):
    if raw.strip().lower() == "linear":
        if n_clients < 2:
            raise ScenarioError(
                f"{section}.noise_rates: linear schedule needs >= 2 clients"
            )
        return tuple(i / (n_clients - 1) for i in range(n_clients))
    return _float_list(section, "noise_rates", raw)


def parse_scenario(source, name=None):
    """Parse and validate a scenario from a path or file-like object.

    Returns a Scenario.  Raises ScenarioError with a section.field
    diagnostic on any problem.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    known = {"scenario", "federation", "data"} | set(_BLOCK_KEYS)
    for section in parser.sections():
        if section not in known:
            raise ScenarioError(
                f"{section}: unknown section (allowed: "
                f"{', '.join(sorted(known))})"
            )

    if not parser.has_section("federation"):
        raise ScenarioError("federation: required section is missing")
    fed_raw = dict(parser.items("federation"))
    _check_keys("federation", fed_raw, _FEDERATION_KEYS)
    for required in ("n_clients", "rounds"):
        if required not in fed_raw:
            raise ScenarioError(
                f"federation.{required}: required field is missing"
            )

    n_clients = _conv("federation", "n_clients", fed_raw["n_clients"], int)
    fed_kwargs = {"n_clients": n_clients}
    for key, kind in (("rounds", int), ("dirichlet_mu", float),
                      ("iid", bool), ("local_epochs", int), ("lr", float),
                      ("batch_size", int), ("flip_target", int)):
        if key in fed_raw:
            fed_kwargs[key] = _conv("federation", key, fed_raw[key], kind)
    if "utility" in fed_raw:
        utility = fed_raw["utility"].strip()
        if utility not in UTILITY_KINDS:
            raise ScenarioError(
                f"federation.utility: {utility!r} not one of {UTILITY_KINDS}"
            )
        fed_kwargs["utility_kind"] = utility
    if "noise_rates" in fed_raw:
        fed_kwargs["noise_rates"] = _parse_noise(
            "federation", fed_raw["noise_rates"], n_clients
        )

    if parser.has_section("data"):
        data_raw = dict(parser.items("data"))
        _check_keys("data", data_raw, _DATA_KEYS)
        data_kwargs = {}
        for key, kind in (("n_classes", int), ("dim", int),
                          ("samples_per_client", int),
                          ("test_samples_per_class", int),
                          ("separation", float)):
            if key in data_raw:
                data_kwargs[key] = _conv("data", key, data_raw[key], kind)
        fed_kwargs["dataset"] = SyntheticSpec(**data_kwargs)

    try:
        federation = FederationConfig(**fed_kwargs)
    except ValueError as exc:
        raise ScenarioError(f"federation: {exc}") from exc

    scen_kwargs = {}
    if parser.has_section("scenario"):
        scen_raw = dict(parser.items("scenario"))
        _check_keys("scenario", scen_raw, _SCENARIO_KEYS)
        if "name" in scen_raw:
            scen_kwargs["name"] = scen_raw["name"].strip()
        for key, kind in (("repeats", int), ("master_seed", int),
                          ("eval_round", int)):
            if key in scen_raw:
                scen_kwargs[key] = _conv("scenario", key, scen_raw[key], kind)
        if "methods" in scen_raw:
            scen_kwargs["methods"] = tuple(
                s.strip() for s in scen_raw["methods"].split(",") if s.strip()
            )
        for key in ("reference", "reference_rounds"):
            if key in scen_raw:
                scen_kwargs[key] = scen_raw[key].strip()
    if "name" not in scen_kwargs:
        scen_kwargs["name"] = name if name is not None else "scenario"

    ablation = None
    if parser.has_section("ablation"):
        raw = dict(parser.items("ablation"))
        _check_keys("ablation", raw, _BLOCK_KEYS["ablation"])
        if "axis" not in raw:
            raise ScenarioError("ablation.axis: required field is missing")
        axis = raw["axis"].strip()
        if "values" not in raw:
            raise ScenarioError("ablation.values: required field is missing")
        # Scenario names an unknown axis; its values stay strings.
        kind = {"round": int, "n_clients": int, "mu": float}.get(axis, str)
        values = tuple(
            _conv("ablation", "values", s.strip(), kind)
            for s in raw["values"].split(",") if s.strip()
        )
        ablation = AblationBlock(axis=axis, values=values)

    downstream = []
    if parser.has_section("downstream.weighted"):
        raw = dict(parser.items("downstream.weighted"))
        _check_keys("downstream.weighted", raw,
                    _BLOCK_KEYS["downstream.weighted"])
        mode = raw.get("weight_mode", "cumulative").strip()
        if mode not in WEIGHT_MODES:
            raise ScenarioError(
                f"downstream.weighted.weight_mode: {mode!r} not one of "
                f"{WEIGHT_MODES}"
            )
        rates = None
        if "rates" in raw and raw["rates"].strip().lower() != "linear":
            rates = _float_list("downstream.weighted", "rates", raw["rates"])
        downstream.append(WeightedBlock(weight_mode=mode, rates=rates))
    if parser.has_section("downstream.misbehavior"):
        raw = dict(parser.items("downstream.misbehavior"))
        _check_keys("downstream.misbehavior", raw,
                    _BLOCK_KEYS["downstream.misbehavior"])
        downstream.append(MisbehaviorBlock(
            attacker=_conv("downstream.misbehavior", "attacker",
                           raw.get("attacker", "0"), int),
            rate=_conv("downstream.misbehavior", "rate",
                       raw.get("rate", "1.0"), float),
            eval_round=(
                _conv("downstream.misbehavior", "eval_round",
                      raw["eval_round"], int)
                if "eval_round" in raw else None
            ),
        ))
    if parser.has_section("downstream.influence"):
        raw = dict(parser.items("downstream.influence"))
        _check_keys("downstream.influence", raw,
                    _BLOCK_KEYS["downstream.influence"])
        downstream.append(InfluenceBlock(
            round=_conv("downstream.influence", "round", raw["round"], int)
            if "round" in raw else None
        ))
    if parser.has_section("downstream.manipulation"):
        raw = dict(parser.items("downstream.manipulation"))
        _check_keys("downstream.manipulation", raw, set())
        downstream.append(ManipulationBlock())

    try:
        return Scenario(
            federation=federation,
            ablation=ablation,
            downstream=tuple(downstream),
            **scen_kwargs,
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_with(scenario, **federation_overrides):
    """Copy of the scenario with some federation fields replaced."""
    fed = dataclasses.replace(scenario.federation, **federation_overrides)
    return dataclasses.replace(scenario, federation=fed)
