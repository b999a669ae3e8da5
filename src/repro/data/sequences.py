"""Temporal sequences of scenes for the across-frames attack extension.

Section IV-B of the paper notes that a single filter mask can be optimised
to stay effective across a *sequence* of images (temporally stable attack).
:func:`generate_sequence` produces such a sequence by moving the objects of
a base scene along per-object velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.data.renderer import render_scene
from repro.data.scene import ObjectSpec, SceneSpec, random_scene
from repro.data.templates import KittiClass
from repro.detection.prediction import Prediction


@dataclass
class SceneSequence:
    """A temporally ordered list of rendered frames with ground truth."""

    scenes: list[SceneSpec] = field(default_factory=list)
    images: list[np.ndarray] = field(default_factory=list)
    seed: int = 0
    _ground_truths: Optional[list[Prediction]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.images)

    def __getitem__(self, index: "int | slice") -> "np.ndarray | SceneSequence":
        """``seq[i]`` is frame ``i`` (like iteration); ``seq[a:b]`` is a
        sub-sequence carrying the matching scenes and the same seed."""
        if isinstance(index, slice):
            return SceneSequence(
                scenes=self.scenes[index],
                images=self.images[index],
                seed=self.seed,
            )
        return self.images[index]

    def frame(self, index: int) -> np.ndarray:
        return self.images[index]

    def ground_truth(self, index: int) -> Prediction:
        return self.ground_truths[index]

    @property
    def ground_truths(self) -> list[Prediction]:
        """Per-frame ground truths, computed once and cached.

        Scenes are immutable in practice (generated once, never edited), so
        the per-access recompute the property used to do was pure waste —
        track-level objectives read the ground truth of every frame for
        every population.
        """
        if self._ground_truths is None:
            self._ground_truths = [scene.ground_truth() for scene in self.scenes]
        return self._ground_truths


def generate_sequence(
    num_frames: int = 5,
    seed: int = 0,
    image_length: int = 96,
    image_width: int = 320,
    num_objects: tuple[int, int] = (2, 3),
    classes: Sequence[KittiClass] = (KittiClass.CAR, KittiClass.CYCLIST),
    half: Optional[str] = None,
    max_speed: float = 4.0,
) -> SceneSequence:
    """Generate a short sequence where objects move with constant velocity.

    Objects drift by at most ``max_speed`` pixels per frame; objects that
    would leave the image are clamped to stay fully visible.
    """
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    rng = np.random.default_rng(seed)
    base = random_scene(
        rng,
        image_length=image_length,
        image_width=image_width,
        num_objects=num_objects,
        classes=classes,
        half=half,
    )
    velocities = [
        (float(rng.uniform(-max_speed / 2, max_speed / 2)), float(rng.uniform(-max_speed, max_speed)))
        for _ in base.objects
    ]

    scenes: list[SceneSpec] = []
    images: list[np.ndarray] = []
    for frame_index in range(num_frames):
        moved: list[ObjectSpec] = []
        for obj, (vx, vy) in zip(base.objects, velocities):
            new_x = obj.x + vx * frame_index
            new_y = obj.y + vy * frame_index
            half_l, half_w = obj.length / 2.0, obj.width / 2.0
            new_x = float(np.clip(new_x, half_l, image_length - half_l - 1))
            new_y = float(np.clip(new_y, half_w, image_width - half_w - 1))
            moved.append(ObjectSpec(obj.class_id, new_x, new_y, obj.scale, obj.template))
        scene = base.with_objects(moved)
        scenes.append(scene)
        images.append(render_scene(scene))
    return SceneSequence(scenes=scenes, images=images, seed=seed)
