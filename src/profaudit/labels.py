"""The labels that cross a stage boundary. One stage assigns each and
writes its value to an artifact; a later stage reads the value back as the
label. Keeping them here lets the later stage compare and group by them
without loading the module that assigns them."""

from __future__ import annotations

from enum import Enum


class BiasGroup(str, Enum):
    """A profession's redirect-bias group (``redirect_bias.classify``)."""
    MALE_BIAS = "male_bias"
    FEMALE_BIAS = "female_bias"
    NEUTRAL = "neutral"
    NO_EVIDENCE = "no_evidence"


class BiasClass(str, Enum):
    """An article's class by its mentioned persons
    (``mentions.male_ratio_and_class``)."""
    MALE_BIASED = "male_biased"
    FEMALE_BIASED = "female_biased"
    EQUAL = "equal"


class MajorityGroup(str, Enum):
    """A profession's labor-market majority (``labor.join``)."""
    FEMALE = "female_majority"
    MALE = "male_majority"
    NONE = "unassigned"


class DominatedGroup(str, Enum):
    """Whether one gender dominates a profession's labor market
    (``labor.join``)."""
    FEMALE = "female_dominated"
    MALE = "male_dominated"
    NONE = "not_dominated"
