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

The _SECTIONS table is where a key is added: it lists each section, the
class the section fills and a converter per key.  The classes check the
values.  Unknown sections or keys are rejected, and every error names
the offending section.key (or the section, for a check across fields)
so a typo is a one-line fix.
"""

import configparser
import dataclasses
from dataclasses import dataclass, field

from ..fedsim import FederationConfig, SyntheticSpec
from ..games import METHOD_LABELS, SHAPLEY_MAX_CLIENTS

# Each reference kind and the method label that computes it.
REFERENCE_METHODS = {"MR-SV": "MR-SV", "true-SV": "SV"}
REFERENCE_KINDS = tuple(REFERENCE_METHODS)
REFERENCE_ROUNDS = ("eval", "all")
# Each ablation axis and the type of its values.
_AXIS_KINDS = {"round": int, "n_clients": int, "mu": float}
ABLATION_AXES = tuple(_AXIS_KINDS)
# The federation field each ablation axis but round varies.
ABLATION_FIELDS = {"n_clients": "n_clients", "mu": "dirichlet_mu"}
WEIGHT_MODES = ("perround", "cumulative")

# The method labels whose computation is capped at SHAPLEY_MAX_CLIENTS.
_CAPPED_LABELS = ("MR-SV", "SV")


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names section.field."""


def linear_rates(n_clients):
    """The 'linear' schedule: client i's rate is i/(N-1)."""
    if n_clients < 2:
        raise ValueError("linear schedule needs >= 2 clients")
    return tuple(i / (n_clients - 1) for i in range(n_clients))


def _convert(field, convert, *args, **kwargs):
    """Call convert, re-raising a ValueError as a ScenarioError naming field."""
    try:
        return convert(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None


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
        if self.weight_mode not in WEIGHT_MODES:
            raise ScenarioError(
                f"downstream.weighted.weight_mode: {self.weight_mode!r} not "
                f"one of {WEIGHT_MODES}"
            )
        n = federation.n_clients
        if self.rates is None:
            _convert("downstream.weighted.rates", linear_rates, n)
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
        if self.master_seed < 0:
            raise ScenarioError(
                f"scenario.master_seed: must be nonnegative, got {self.master_seed}"
            )
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
        for i, m in enumerate(self.methods):
            if m not in METHOD_LABELS:
                raise ScenarioError(
                    f"scenario.methods: unknown method {m!r}, expected "
                    f"{METHOD_LABELS}"
                )
            if m in self.methods[:i]:
                raise ScenarioError(f"scenario.methods: {m} listed twice")
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
        for label in _CAPPED_LABELS:
            if label in labels and n_clients > SHAPLEY_MAX_CLIENTS:
                raise ScenarioError(
                    f"{field}: {label} enumerates 2^N coalitions and is "
                    f"capped at {SHAPLEY_MAX_CLIENTS} clients, got {n_clients}"
                )


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _items(kind):
    """Converter for a comma list; blank items are dropped."""
    return lambda raw: tuple(
        kind(s.strip()) for s in raw.split(",") if s.strip()
    )


def _rates(raw):
    """One rate per client, or None for the 'linear' schedule."""
    if raw.strip().lower() == "linear":
        return None
    rates = _items(float)(raw)
    if not rates:
        raise ValueError("empty list")
    return rates


# Every section of a scenario file: the class it fills and, for each key,
# the converter from text.  A key is added here and to its class; the
# class checks the converted values.
_SECTIONS = {
    "scenario": (Scenario, {
        "name": str.strip, "repeats": int, "master_seed": int,
        "methods": _items(str), "reference": str.strip,
        "reference_rounds": str.strip, "eval_round": int,
    }),
    "federation": (FederationConfig, {
        "n_clients": int, "rounds": int, "dirichlet_mu": float,
        "iid": _bool, "local_epochs": int, "lr": float, "batch_size": int,
        "utility": str.strip, "noise_rates": _rates, "flip_target": int,
    }),
    "data": (SyntheticSpec, {
        "n_classes": int, "dim": int, "samples_per_client": int,
        "test_samples_per_class": int, "separation": float,
    }),
    # values are converted once the axis is known.
    "ablation": (AblationBlock, {"axis": str.strip, "values": str}),
    "downstream.weighted": (WeightedBlock, {
        "weight_mode": str.strip, "rates": _rates,
    }),
    "downstream.misbehavior": (MisbehaviorBlock, {
        "attacker": int, "rate": float, "eval_round": int,
    }),
    "downstream.influence": (InfluenceBlock, {"round": int}),
    "downstream.manipulation": (ManipulationBlock, {}),
}


def _read(parser, section, **given):
    """Keyword arguments for a section's class: given, then its keys.

    An absent section reads as empty.  Unknown keys, fields of the class
    that have no default and are not supplied, and values that do not
    convert are each rejected naming section.key.
    """
    cls, converters = _SECTIONS[section]
    raw = dict(parser.items(section)) if parser.has_section(section) else {}
    for key in raw:
        if key not in converters:
            raise ScenarioError(
                f"{section}.{key}: unknown key (allowed: "
                f"{', '.join(sorted(converters)) or 'none'})"
            )
    for f in dataclasses.fields(cls):
        if (f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
                and f.name not in raw and f.name not in given):
            raise ScenarioError(f"{section}.{f.name}: required field is missing")
    kwargs = dict(given)
    for key, value in raw.items():
        kwargs[key] = _convert(f"{section}.{key}", converters[key], value)
    return kwargs


def parse_scenario(source, name=None):
    """Parse and validate a scenario from a path or file-like object.

    Returns a Scenario.  Raises ScenarioError with a section.field
    diagnostic on any problem.
    """
    # A section header is never empty, so no header names the default
    # section, and [DEFAULT] is an unknown section like any other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"{section}: unknown section (allowed: "
                f"{', '.join(sorted(_SECTIONS))})"
            )
    if not parser.has_section("federation"):
        raise ScenarioError("federation: required section is missing")

    # The text format's own spellings: the utility key, the linear
    # noise schedule, and ablation values typed by their axis.
    fed = _read(parser, "federation", dataset=_convert(
        "data", SyntheticSpec, **_read(parser, "data")))
    if "utility" in fed:
        fed["utility_kind"] = fed.pop("utility")
    if "noise_rates" in fed and fed["noise_rates"] is None:
        fed["noise_rates"] = _convert("federation.noise_rates", linear_rates,
                                      fed["n_clients"])

    ablation = None
    if parser.has_section("ablation"):
        block = _read(parser, "ablation")
        # Scenario names an unknown axis; its values stay strings.
        kind = _AXIS_KINDS.get(block["axis"], str)
        ablation = AblationBlock(block["axis"], _convert(
            "ablation.values", _items(kind), block["values"]))

    # Downstream blocks keep table order, whatever their file order.
    downstream = tuple(
        cls(**_read(parser, section))
        for section, (cls, _) in _SECTIONS.items()
        if section.startswith("downstream.") and parser.has_section(section)
    )
    return Scenario(**_read(
        parser, "scenario",
        name=name if name is not None else "scenario",
        federation=_convert("federation", FederationConfig, **fed),
        ablation=ablation,
        downstream=downstream,
    ))


def scenario_with(scenario, **federation_overrides):
    """Copy of the scenario with some federation fields replaced."""
    fed = dataclasses.replace(scenario.federation, **federation_overrides)
    return dataclasses.replace(scenario, federation=fed)
