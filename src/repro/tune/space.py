"""The tuner's candidate space: fingerprinted mapper configurations.

A :class:`TuneCandidate` is one complete, canonical assignment of the
mapper's free knobs — state-encoding strategy, Moore output placement,
column compaction, clock control, and (optionally) a pinned block
aspect ratio.  Candidates are hashable frozen dataclasses whose
:meth:`~TuneCandidate.fingerprint` commits to every knob through the
artifact fingerprint walker, so the same configuration names the same
cache entries and frontier points across runs, processes, and machines.

:class:`TuneSpace` describes the grid; :meth:`TuneSpace.enumerate`
yields it in one canonical nested-loop order.  The enumeration order is
part of the determinism contract (see ``docs/architecture.md`` §15):
ties everywhere downstream break toward the earlier candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.memblock import VIRTEX2_BRAM
from repro.fsm.machine import FSM
from repro.pipeline.artifact import fingerprint as artifact_fingerprint

__all__ = [
    "TuneCandidate",
    "TuneSpace",
    "baseline_candidate",
    "default_space",
]

_MOORE_MODES = ("auto", "internal", "external")


@dataclass(frozen=True)
class TuneCandidate:
    """One point of the mapper-configuration grid.

    ``encoding`` names a ROM-legal state-assignment strategy from
    :data:`repro.fsm.assign.ENCODING_STRATEGIES` (``"annealed@<seed>"``
    selects a seeded anneal).  ``aspect`` pins one of the Virtex-II
    block aspect ratios by name (``None`` keeps the paper's widest-first
    heuristic).  ``lut_k`` sizes the glue-logic LUTs.
    """

    encoding: str = "binary"
    moore_outputs: str = "auto"
    force_compaction: bool = False
    clock_control: bool = False
    aspect: Optional[str] = None
    lut_k: int = 4

    def __post_init__(self) -> None:
        if self.moore_outputs not in _MOORE_MODES:
            raise ValueError(
                f"bad moore_outputs {self.moore_outputs!r}; "
                f"choose from {_MOORE_MODES}"
            )

    @property
    def fingerprint(self) -> str:
        """Canonical content hash of the full configuration."""
        return artifact_fingerprint(self)

    def mapper_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :func:`repro.romfsm.mapper.map_fsm_to_rom`."""
        return {
            "encoding": self.encoding,
            "moore_outputs": self.moore_outputs,
            "force_compaction": self.force_compaction,
            "clock_control": self.clock_control,
            "aspect": self.aspect,
            "k": self.lut_k,
        }

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe form used in frontier artifacts."""
        return {
            "encoding": self.encoding,
            "moore_outputs": self.moore_outputs,
            "force_compaction": self.force_compaction,
            "clock_control": self.clock_control,
            "aspect": self.aspect,
            "lut_k": self.lut_k,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneCandidate":
        return cls(
            encoding=str(data.get("encoding", "binary")),
            moore_outputs=str(data.get("moore_outputs", "auto")),
            force_compaction=bool(data.get("force_compaction", False)),
            clock_control=bool(data.get("clock_control", False)),
            aspect=data.get("aspect"),
            lut_k=int(data.get("lut_k", 4)),
        )


def baseline_candidate() -> TuneCandidate:
    """The paper's fixed heuristic: binary encoding, auto placement,
    heuristic compaction, widest-first aspect selection, no clock
    control — exactly what ``romfsm eval`` maps by default."""
    return TuneCandidate()


@dataclass(frozen=True)
class TuneSpace:
    """A grid over the mapper's free knobs (cartesian product)."""

    encodings: Tuple[str, ...] = ("binary", "gray", "annealed")
    moore_modes: Tuple[str, ...] = ("auto",)
    compaction: Tuple[bool, ...] = (False, True)
    clock_control: Tuple[bool, ...] = (False, True)
    aspects: Tuple[Optional[str], ...] = (None,)
    lut_ks: Tuple[int, ...] = (4,)

    @property
    def size(self) -> int:
        return (
            len(self.encodings) * len(self.moore_modes)
            * len(self.compaction) * len(self.clock_control)
            * len(self.aspects) * len(self.lut_ks)
        )

    def enumerate(self) -> List[TuneCandidate]:
        """The grid in canonical nested-loop order (outermost first:
        encoding, moore mode, aspect, compaction, clock control, k)."""
        out: List[TuneCandidate] = []
        for encoding in self.encodings:
            for mode in self.moore_modes:
                for aspect in self.aspects:
                    for compact in self.compaction:
                        for cc in self.clock_control:
                            for k in self.lut_ks:
                                out.append(TuneCandidate(
                                    encoding=encoding,
                                    moore_outputs=mode,
                                    force_compaction=compact,
                                    clock_control=cc,
                                    aspect=aspect,
                                    lut_k=k,
                                ))
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "encodings": list(self.encodings),
            "moore_modes": list(self.moore_modes),
            "compaction": list(self.compaction),
            "clock_control": list(self.clock_control),
            "aspects": list(self.aspects),
            "lut_ks": list(self.lut_ks),
            "size": self.size,
        }


def default_space(
    fsm: FSM,
    anneal_seeds: Sequence[int] = (0,),
) -> TuneSpace:
    """The default grid for one machine.

    Encodings cover the registered strategies plus one seeded anneal per
    entry of ``anneal_seeds``; Moore machines with complete next-state
    functions additionally explore external output placement; every
    aspect ratio the block offers joins the widest-first heuristic.
    """
    encodings: List[str] = ["binary", "gray"]
    encodings += [f"annealed@{seed}" for seed in anneal_seeds]
    moore_modes: List[str] = ["auto", "internal"]
    if fsm.is_moore():
        moore_modes.append("external")
    aspects: List[Optional[str]] = [None]
    aspects += [config.name for config in VIRTEX2_BRAM.configs]
    return TuneSpace(
        encodings=tuple(encodings),
        moore_modes=tuple(moore_modes),
        aspects=tuple(aspects),
    )
