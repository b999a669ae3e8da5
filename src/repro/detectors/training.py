"""Fitting ("training") the simulated detectors on synthetic scenes.

The paper trains 25 YOLOv5 and 25 DETR models with random seeds 1..25 and
assumes each trained model predicts correctly on the clean evaluation
images.  Here, "training" means fitting the prototype classification head on
the backbone features the detector itself produces for a set of seeded
synthetic training scenes:

1. render training scenes containing objects of every class,
2. run the (untrained) detector backbone on each scene,
3. label every grid cell by ground-truth coverage,
4. average the backbone features per class into class prototypes and
   cluster the background features (k-means) into background prototypes,
5. calibrate the softmax temperature from the intra-class feature spread.

Because the prototypes are fit on the *same* backbone that is used at
inference time, clean-image predictions are correct by construction — which
is exactly the paper's starting assumption — while the susceptibility to
perturbations is entirely determined by the backbone's connectivity
(local for the single-stage model, global attention for the transformer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.renderer import render_scene
from repro.data.scene import SceneSpec, random_scene
from repro.data.templates import KittiClass
from repro.detection.boxes import BoundingBox
from repro.detectors.base import Detector
from repro.detectors.prototypes import PrototypeBank, squared_distances


@dataclass(frozen=True)
class TrainingConfig:
    """Configuration of the prototype-fitting procedure.

    Attributes
    ----------
    scenes_per_class:
        Number of dedicated training scenes rendered per object class.
    objects_per_scene:
        (min, max) number of objects placed in each training scene.
    image_length, image_width:
        Resolution of the training scenes; should match the evaluation
        resolution so cell statistics transfer.
    coverage_threshold:
        Minimum fraction of a cell covered by a ground-truth box for the
        cell to be labelled with that class.
    background_clusters:
        Number of k-means clusters used to model the background (sky, road,
        lane markings, horizon and object-boundary cells).
    classes:
        The classes the detector is trained to recognise.
    """

    scenes_per_class: int = 5
    objects_per_scene: tuple[int, int] = (2, 3)
    image_length: int = 96
    image_width: int = 320
    coverage_threshold: float = 0.75
    background_clusters: int = 40
    classes: tuple[KittiClass, ...] = (
        KittiClass.CAR,
        KittiClass.PEDESTRIAN,
        KittiClass.CYCLIST,
        KittiClass.VAN,
        KittiClass.TRUCK,
    )

    def __post_init__(self) -> None:
        for name in ("scenes_per_class", "background_clusters"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


def _cell_coverage(box: BoundingBox, row: int, col: int, cell: int) -> float:
    """Fraction of the cell at grid position (row, col) covered by ``box``."""
    cell_x_min, cell_x_max = row * cell, (row + 1) * cell
    cell_y_min, cell_y_max = col * cell, (col + 1) * cell
    dx = min(cell_x_max, box.x_max) - max(cell_x_min, box.x_min)
    dy = min(cell_y_max, box.y_max) - max(cell_y_min, box.y_min)
    if dx <= 0 or dy <= 0:
        return 0.0
    return (dx * dy) / float(cell * cell)


def label_cells(
    scene: SceneSpec, grid_shape: tuple[int, int], cell: int, coverage_threshold: float
) -> np.ndarray:
    """Assign a class label (or -1 for background) to every grid cell."""
    rows, cols = grid_shape
    labels = np.full((rows, cols), -1, dtype=np.int64)
    for obj in scene.objects:
        box = obj.to_box()
        row_lo = max(0, int(box.x_min // cell))
        row_hi = min(rows, int(box.x_max // cell) + 1)
        col_lo = max(0, int(box.y_min // cell))
        col_hi = min(cols, int(box.y_max // cell) + 1)
        for row in range(row_lo, row_hi):
            for col in range(col_lo, col_hi):
                if _cell_coverage(box, row, col, cell) >= coverage_threshold:
                    labels[row, col] = box.cl
    return labels


def kmeans(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator, iterations: int = 25
) -> np.ndarray:
    """Plain Lloyd's k-means; returns the cluster centroids.

    Deterministic given the generator.  Empty clusters are re-seeded from
    the point farthest from its assigned centroid.  Each iteration takes its
    point-to-centroid distances from the streaming
    :func:`~repro.detectors.prototypes.squared_distances` kernel, which is
    bit-identical to the broadcast ``(points, clusters, dim)`` sum for the
    7-dim cell features, so trained banks do not depend on the kernel.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (n, dim)")
    num_points = points.shape[0]
    if num_points == 0:
        raise ValueError("cannot cluster an empty point set")
    num_clusters = min(num_clusters, num_points)
    initial = rng.choice(num_points, size=num_clusters, replace=False)
    centroids = points[initial].copy()
    for _ in range(iterations):
        distances = squared_distances(points, centroids)
        assignment = np.argmin(distances, axis=1)
        for cluster in range(num_clusters):
            mask = assignment == cluster
            if mask.any():
                centroids[cluster] = points[mask].mean(axis=0)
            else:
                farthest = int(np.argmax(np.min(distances, axis=1)))
                centroids[cluster] = points[farthest]
    return centroids


def _training_scenes(training: TrainingConfig, seed: int) -> list[SceneSpec]:
    """Generate the training scenes: dedicated scenes for every class."""
    rng = np.random.default_rng(seed * 7919 + 13)
    scenes: list[SceneSpec] = []
    for class_id in training.classes:
        for _ in range(training.scenes_per_class):
            scenes.append(
                random_scene(
                    rng,
                    image_length=training.image_length,
                    image_width=training.image_width,
                    num_objects=training.objects_per_scene,
                    classes=(class_id,),
                )
            )
    return scenes


def fit_prototypes(
    detector: Detector,
    training: TrainingConfig,
    seed: int,
) -> PrototypeBank:
    """Fit a :class:`PrototypeBank` for a detector backbone."""
    scenes = _training_scenes(training, seed)
    num_classes = len(training.classes)
    cell = detector.config.cell
    rng = np.random.default_rng(seed * 104729 + 7)

    class_features: dict[int, list[np.ndarray]] = {int(c): [] for c in training.classes}
    background_features: list[np.ndarray] = []
    per_scene: list[tuple[np.ndarray, np.ndarray]] = []

    for scene in scenes:
        image = render_scene(scene)
        features = detector.backbone_features(image)
        labels = label_cells(scene, features.shape[:2], cell, training.coverage_threshold)
        per_scene.append((features, labels))
        for class_id in training.classes:
            mask = labels == int(class_id)
            if mask.any():
                class_features[int(class_id)].append(features[mask])
        background_features.append(features[labels == -1])

    feature_dim = per_scene[0][0].shape[-1]

    class_prototypes = np.zeros((num_classes, feature_dim))
    for index, class_id in enumerate(training.classes):
        samples = class_features[int(class_id)]
        if samples:
            class_prototypes[index] = np.concatenate(samples, axis=0).mean(axis=0)
        else:
            # A class without any labelled training cells gets a far-away
            # prototype so it can never be predicted.
            class_prototypes[index] = np.full(feature_dim, 1e3)

    background_matrix = np.concatenate(background_features, axis=0)
    background_prototypes = kmeans(
        background_matrix, training.background_clusters, rng
    )

    # Temperature calibration: mean squared distance of foreground training
    # cells to their own class prototype, so that the correct class has a
    # logit of roughly -1 and misclassifications are strongly penalised.
    squared_dists: list[float] = []
    for index, class_id in enumerate(training.classes):
        for sample in class_features[int(class_id)]:
            diffs = sample - class_prototypes[index]
            squared_dists.extend(np.sum(diffs**2, axis=-1).tolist())
    temperature = float(np.mean(squared_dists)) if squared_dists else 0.05
    temperature = max(temperature, 1e-4)

    return PrototypeBank(
        class_prototypes=class_prototypes,
        background_prototypes=background_prototypes,
        temperature=temperature,
        background_bias=detector.config.background_bias,
    )


def train_detector(
    detector: Detector,
    training: TrainingConfig | None = None,
    seed: int | None = None,
) -> Detector:
    """Fit the detector's prototype head in place and return the detector."""
    training = training if training is not None else TrainingConfig()
    seed = seed if seed is not None else detector.seed
    detector.prototypes = fit_prototypes(detector, training, seed)  # type: ignore[attr-defined]
    return detector
