"""The packaged separations: the named cases that counterexample.run_case
reproduces and the searches that run_search runs.

Each builds its stencil from the stencil module alone, so that the CLI can
offer the case names without importing counterexample and mpmath with it.
A build looks its builders up on the stencil module when it runs, so that a
builder patched there (to count or trace its calls) is the one it calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stencil


@dataclass(frozen=True)
class NamedCase:
    build: object  # () -> Stencil
    generators: tuple
    character: tuple
    interval: tuple
    lower_order: int
    flip_sign: bool  # presentation-only: phi as conventionally printed


NAMED_CASES = {
    "prop25": NamedCase(
        build=lambda: stencil.vandermonde_solve((1, 2, 3), 2),
        generators=(2, 3),
        character=(1, 1),
        interval=(1, 3),
        lower_order=1,
        flip_sign=False,
    ),
    "thm32a": NamedCase(
        build=lambda: stencil.riemann_classic(7),
        generators=(2, 3, 5, 7),
        character=(0, 1, 1, 0),
        interval=(6, 7),
        lower_order=6,
        flip_sign=False,
    ),
    "thm32-n5": NamedCase(
        build=lambda: stencil.scale(stencil.riemann_symmetric(5), 2),
        generators=(3, 5),
        character=(1, 1),
        interval=(3, 4),
        lower_order=3,
        flip_sign=True,
    ),
    "thm32-n6": NamedCase(
        build=lambda: stencil.riemann_symmetric(6),
        generators=(2, 3),
        character=(1, 1),
        interval=(4, 5),
        lower_order=4,
        flip_sign=True,
    ),
    "thm32-n7": NamedCase(
        build=lambda: stencil.scale(stencil.riemann_symmetric(7), 2),
        generators=(3, 5, 7),
        character=(0, 1, 1),
        interval=(5, 7),
        lower_order=5,
        flip_sign=True,
    ),
    "thm32-n8": NamedCase(
        build=lambda: stencil.riemann_symmetric(8),
        generators=(2, 3),
        character=(1, 0),
        interval=(7, 8),
        lower_order=7,
        flip_sign=False,
    ),
}

SEARCH_CASES = {
    "search-n9": {
        "build": lambda: stencil.scale(stencil.riemann_symmetric(9), 2),
        "generators": (3, 5, 7),
        "interval": (7, 9),
    },
}
