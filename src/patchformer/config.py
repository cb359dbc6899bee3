"""Architecture configuration and the standard scalp-region channel grouping."""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .errors import ConfigurationError

# 28-channel montage in recording order, grouped into 11 scalp regions
# (prefrontal through temporal). Group sizes: 2,3,2,4,3,4,5,1,2,1,1.
STANDARD_28_CHANNELS = [
    "Fp1", "Fp2",
    "AFF5", "AFz", "AFF6",
    "F1", "F2",
    "FC5", "FC1", "FC2", "FC6",
    "C3", "Cz", "C4",
    "CP5", "CP1", "CP2", "CP6",
    "P7", "P3", "Pz", "P4", "P8",
    "POz",
    "O1", "O2",
    "T7",
    "T8",
]

STANDARD_28_GROUPS = [
    ["Fp1", "Fp2"],
    ["AFF5", "AFz", "AFF6"],
    ["F1", "F2"],
    ["FC5", "FC1", "FC2", "FC6"],
    ["C3", "Cz", "C4"],
    ["CP5", "CP1", "CP2", "CP6"],
    ["P7", "P3", "Pz", "P4", "P8"],
    ["POz"],
    ["O1", "O2"],
    ["T7"],
    ["T8"],
]

ABLATIONS = ("full", "no_fem", "no_spm", "no_overlap")


def standard_local_graph_indices() -> list[list[int]]:
    """The 11-region grouping as channel indices into STANDARD_28_CHANNELS."""
    pos = {name: i for i, name in enumerate(STANDARD_28_CHANNELS)}
    return [[pos[name] for name in group] for group in STANDARD_28_GROUPS]


def default_local_graphs(c: int) -> list[list[int]]:
    """Default grouping: the standard montage for c=28, else singleton regions."""
    if c == 28:
        return standard_local_graph_indices()
    return [[i] for i in range(c)]


@dataclass
class ModelConfig:
    """Every architecture hyperparameter; shapes are a pure function of this."""

    c: int
    l: int
    f_s: float
    k: int = 32
    temporal_kernel_len: int | None = None  # default: round(0.5 * f_s)
    local_graphs: list | None = None        # default: default_local_graphs(c)
    l_t: int = 20
    l_step: int = 5
    l_token: int = 32
    n_head: int = 32
    n_layers: int = 4
    ffn_mult: int = 4
    dropout_p: float = 0.5
    n_classes: int = 2
    positional_embedding: bool = True
    ablation: str = "full"
    leaky_slope: float = 0.01

    # -- derived quantities -------------------------------------------------

    @property
    def kernel_len(self) -> int:
        if self.temporal_kernel_len is not None:
            return self.temporal_kernel_len
        return int(round(0.5 * self.f_s))

    @property
    def graphs(self) -> list:
        if self.local_graphs is not None:
            return [list(g) for g in self.local_graphs]
        return default_local_graphs(self.c)

    @property
    def has_fem(self) -> bool:
        return self.ablation != "no_fem"

    @property
    def has_spm(self) -> bool:
        return self.ablation != "no_spm"

    @property
    def t_spatial(self) -> int:
        """Time length entering the spatial stage (halved again by the FEM)."""
        return self.l // 4 if not self.has_fem else self.l // 8

    @property
    def n_regions(self) -> int:
        return len(self.graphs)

    @property
    def n_patches(self) -> int:
        """Spatial patch count p: regions + 1 global, or raw channels when bypassed."""
        return self.n_regions + 1 if self.has_spm else self.c

    @property
    def step_effective(self) -> int:
        """Window step; the no-overlap variant forces step = window length."""
        return self.l_t if self.ablation == "no_overlap" else self.l_step

    @property
    def n_windows(self) -> int:
        return (self.t_spatial - self.l_t) // self.step_effective + 1

    @property
    def n_tokens(self) -> int:
        """Token count q: one per (spatial patch, temporal window) pair."""
        return self.n_patches * self.n_windows

    @property
    def token_in_dim(self) -> int:
        return self.k * self.l_t

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Raise ConfigurationError naming the first violated constraint."""
        def bad(msg):
            raise ConfigurationError(msg)

        if self.c < 1:
            bad(f"channel count c must be >= 1, got {self.c}")
        if self.l < 8 or self.l % 8 != 0:
            bad(f"segment length l must be a positive multiple of 8, got {self.l}")
        if not 0 < self.f_s < float("inf"):
            bad(f"sampling rate f_s must be finite and positive, got {self.f_s}")
        if self.k < 1:
            bad(f"kernel count k must be >= 1, got {self.k}")
        if self.kernel_len < 1:
            bad(f"temporal kernel length must be >= 1, got {self.kernel_len}")
        if self.n_classes < 2:
            bad(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_layers < 1:
            bad(f"n_layers must be >= 1, got {self.n_layers}")
        if self.ffn_mult < 1:
            bad(f"ffn_mult must be >= 1, got {self.ffn_mult}")
        if not 0.0 <= self.dropout_p < 1.0:
            bad(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not 0.0 < self.leaky_slope < 1.0:
            bad(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if self.n_head < 1:
            bad(f"n_head must be >= 1, got {self.n_head}")
        if self.l_token % self.n_head != 0:
            bad(f"l_token {self.l_token} is not divisible by n_head {self.n_head}")
        if self.ablation not in ABLATIONS:
            bad(f"unknown ablation {self.ablation!r}; expected one of {ABLATIONS}")

        seen = set()
        for gi, group in enumerate(self.graphs):
            if len(group) == 0:
                bad(f"local graph {gi} is empty")
            for ch in group:
                if not 0 <= int(ch) < self.c:
                    bad(f"local graph {gi} references channel {ch}, valid range is [0, {self.c})")
                if int(ch) in seen:
                    bad(f"channel {ch} appears in more than one local graph")
                seen.add(int(ch))

        if self.l_step < 1:
            bad(f"l_step must be >= 1, got {self.l_step}")
        if self.l_t < 1:
            bad(f"l_t must be >= 1, got {self.l_t}")
        if self.l_t > self.t_spatial:
            bad(
                f"patch length l_t={self.l_t} exceeds the post-CNN time length "
                f"{self.t_spatial} (l={self.l}, ablation={self.ablation})"
            )
        return self

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["local_graphs"] = self.graphs  # resolve the default for reproducibility
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def reference_config(**overrides) -> ModelConfig:
    """The reference recipe: 28 channels at 250 Hz, 4 s segments, kernel 125."""
    base = dict(c=28, l=1000, f_s=250.0, temporal_kernel_len=125)
    base.update(overrides)
    return ModelConfig(**base)

