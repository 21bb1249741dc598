"""The solved-input library.

Every input the solver produces is stored here (Figure 2's "input library");
when no (state, branch) pair is solvable, Algorithm 2 draws random sequences
from it to expand the state space.  Duplicates are dropped so the random
draw is uniform over *distinct* solved behaviours.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple


class InputLibrary:
    """Deduplicated store of solver-produced one-step inputs."""

    def __init__(self):
        self._inputs: List[Dict[str, object]] = []
        self._seen: set = set()

    def add(self, input_data: Dict[str, object]) -> bool:
        """Store an input; returns False when it was already known."""
        key = _freeze(input_data)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._inputs.append(dict(input_data))
        return True

    def __len__(self) -> int:
        return len(self._inputs)

    @property
    def is_empty(self) -> bool:
        return not self._inputs

    def random_input(self, rng: random.Random) -> Dict[str, object]:
        if not self._inputs:
            raise IndexError("input library is empty")
        return dict(rng.choice(self._inputs))

    def random_sequence(self, rng: random.Random, length: int) -> List[Dict[str, object]]:
        return [self.random_input(rng) for _ in range(length)]


def _freeze(input_data: Dict[str, object]) -> Tuple:
    return tuple(sorted(input_data.items()))
