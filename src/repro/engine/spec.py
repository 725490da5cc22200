"""Trial specifications and structured trial failures.

A :class:`TrialSpec` is the unit of work the engine schedules: an index
into the sweep, a picklable ``params`` dict, and a private
:class:`numpy.random.SeedSequence`.  Seeds are assigned by
:func:`make_specs` via ``SeedSequence.spawn`` **in sweep order**, so a
trial's random stream depends only on the root seed and its index —
never on which executor ran it, which worker picked it up, or what ran
before it.  That is the engine's determinism contract: serial and
parallel runs are bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.utils.rng import named_rng

__all__ = ["TrialSpec", "TrialError", "make_specs"]

SeedLike = Union[int, np.random.SeedSequence, None]


@dataclass(frozen=True)
class TrialSpec:
    """One trial of a sweep: index, parameters, and a private seed.

    ``params`` must be picklable (it crosses process boundaries under the
    process-pool executor).  Random state must come from :meth:`rng` /
    :meth:`child_rng` — a trial function that seeds from anything else
    (global state, wall clock, its worker id) breaks the serial/parallel
    equivalence guarantee.
    """

    index: int
    params: Dict[str, Any] = field(default_factory=dict)
    seed_seq: Optional[np.random.SeedSequence] = None

    def __getitem__(self, key: str) -> Any:
        return self.params[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def rng(self) -> np.random.Generator:
        """The trial's main random stream (deterministic per index)."""
        return np.random.default_rng(self._seq())

    def child_rng(self, child: int) -> np.random.Generator:
        """An independent named sub-stream of this trial's seed.

        Pure in ``(root seed, index, child)`` — unlike ``spawn`` it does
        not mutate the :class:`~numpy.random.SeedSequence`, so a trial
        may request children in any order, any number of times.
        """
        return named_rng(self._seq(), child)

    @property
    def seed_entropy(self) -> Any:
        """Root entropy + spawn key (for error reports / reproduction)."""
        if self.seed_seq is None:
            return None
        return {"entropy": self.seed_seq.entropy,
                "spawn_key": tuple(self.seed_seq.spawn_key)}

    def _seq(self) -> np.random.SeedSequence:
        if self.seed_seq is None:
            raise ValueError(
                f"trial {self.index} has no seed; build specs with make_specs()"
            )
        return self.seed_seq


def make_specs(
    params: Sequence[Mapping[str, Any]],
    seed: SeedLike = 0,
) -> List[TrialSpec]:
    """Build one :class:`TrialSpec` per params mapping, seeding by spawn.

    The root :class:`~numpy.random.SeedSequence` spawns exactly
    ``len(params)`` children in order, so spec ``i`` always receives the
    same stream for a given root seed, regardless of executor.
    """
    params = list(params)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(params)) if params else []
    return [
        TrialSpec(index=i, params=dict(p), seed_seq=child)
        for i, (p, child) in enumerate(zip(params, children))
    ]


class TrialError(RuntimeError):
    """A trial failed; carries enough context to replay it in isolation.

    The engine fails fast: the first failing trial aborts the run and
    surfaces here with the trial's index, params, seed entropy, and the
    worker-side traceback text (exceptions themselves may not pickle, so
    the traceback travels as a string).
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        params: Optional[Dict[str, Any]] = None,
        seed_entropy: Any = None,
        traceback_text: str = "",
    ) -> None:
        detail = f"trial {index} failed: {message}"
        if params is not None:
            detail += f"\n  params: {_short_repr(params)}"
        if seed_entropy is not None:
            detail += f"\n  seed: {seed_entropy}"
        if traceback_text:
            detail += "\n--- worker traceback ---\n" + traceback_text.rstrip()
        super().__init__(detail)
        self.index = index
        self.params = params
        self.seed_entropy = seed_entropy
        self.traceback_text = traceback_text


def _short_repr(params: Mapping[str, Any], limit: int = 400) -> str:
    text = repr(dict(params))
    return text if len(text) <= limit else text[: limit - 3] + "..."
