"""Scene files: a named collection of product states plus the Dirac operator,
grid, and the seed of the ``verify`` suites, serialized as JSON.

Angles are radians and complex numbers are [re, im] pairs. States are stored
as a list of named entries so duplicate names can be rejected at parse time
(JSON object keys would be silently deduplicated). Files written before the
seed moved to the top level keep it in an ``optimizer`` block; its seed is
read and its other keys are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import SceneError, UnknownState
from .finite_geometry import FiniteDirac, make_state, state_on_parallel
from .product_causality import ProductState
from .spacetime import Event, Grid


@dataclass
class Scene:
    dirac: FiniteDirac
    states: dict[str, ProductState] = field(default_factory=dict)
    grid: Grid = field(default_factory=lambda: Grid(-1.0, 4.0, -3.0, 3.0, 41, 41))
    seed: int = 42

    def state(self, name: str) -> ProductState:
        try:
            return self.states[name]
        except KeyError:
            raise UnknownState(
                f"scene has no state named {name!r}; available: {sorted(self.states)}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "dirac": {"d1": self.dirac.d1, "d2": self.dirac.d2},
            "states": [
                {
                    "name": name,
                    "event": {"t": st.event.t, "x": st.event.x},
                    "internal": [
                        [st.internal.xi1.real, st.internal.xi1.imag],
                        [st.internal.xi2.real, st.internal.xi2.imag],
                    ],
                }
                for name, st in self.states.items()
            ],
            "grid": {
                "t_min": self.grid.t_min,
                "t_max": self.grid.t_max,
                "x_min": self.grid.x_min,
                "x_max": self.grid.x_max,
                "n_t": self.grid.n_t,
                "n_x": self.grid.n_x,
            },
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        try:
            dirac_raw = data["dirac"]
            dirac = FiniteDirac(float(dirac_raw["d1"]), float(dirac_raw["d2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"invalid dirac block: {exc}") from exc

        states: dict[str, ProductState] = {}
        for entry in data.get("states", []):
            try:
                name = str(entry["name"])
                ev = entry["event"]
                event = Event(float(ev["t"]), float(ev["x"]))
                (re1, im1), (re2, im2) = entry["internal"]
                internal = make_state([complex(re1, im1), complex(re2, im2)])
            except (KeyError, TypeError, ValueError) as exc:
                raise SceneError(f"invalid state entry {entry!r}: {exc}") from exc
            if name in states:
                raise SceneError(f"duplicate state name {name!r}")
            states[name] = ProductState(event, internal)

        grid_raw = data.get("grid")
        if grid_raw is None:
            grid = Grid(-1.0, 4.0, -3.0, 3.0, 41, 41)
        else:
            try:
                grid = Grid(
                    float(grid_raw["t_min"]),
                    float(grid_raw["t_max"]),
                    float(grid_raw["x_min"]),
                    float(grid_raw["x_max"]),
                    int(grid_raw.get("n_t", 101)),
                    int(grid_raw.get("n_x", 101)),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SceneError(f"invalid grid block: {exc}") from exc

        legacy = data.get("optimizer", {})
        try:
            seed = int(data["seed"] if "seed" in data else legacy.get("seed", 42))
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SceneError(f"invalid seed: {exc}") from exc

        return cls(dirac=dirac, states=states, grid=grid, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "Scene":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneError(f"scene is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SceneError("scene JSON must be an object")
        return cls.from_dict(data)


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path!r}: {exc}") from exc
    return Scene.from_json(text)


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scene.to_json())


def default_scene() -> Scene:
    """Reference scene: Dirac gap 1, a handful of states covering the
    related/unrelated cases, and the default seed."""
    dirac = FiniteDirac(0.0, 1.0)
    equator = lambda theta: state_on_parallel(0.0, theta)  # noqa: E731
    states = {
        "origin": ProductState(Event(0.0, 0.0), equator(0.0)),
        "timelike": ProductState(Event(2.0, 0.0), equator(1.5)),
        "fast_rotation": ProductState(Event(2.0, 0.0), equator(3.0)),
        "lightlike": ProductState(Event(1.0, 1.0), equator(0.0)),
        "spacelike": ProductState(Event(0.0, 1.5), equator(0.0)),
        "tilted": ProductState(Event(3.0, 1.0), state_on_parallel(0.5, 0.4)),
        "north_pole": ProductState(Event(0.0, 0.0), make_state([1.0, 0.0])),
        "north_pole_later": ProductState(Event(1.0, 0.0), make_state([1.0, 0.0])),
        "south_pole": ProductState(Event(0.5, 0.0), make_state([0.0, 1.0])),
    }
    return Scene(dirac=dirac, states=states)
