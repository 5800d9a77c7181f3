"""Reference synthetic-image render: one image at a time (test-only).

This is ``SyntheticImageClassification._render_split`` as it was written
before the render was batched: a template copy, an ``np.roll`` and three
generator calls per image.  It defines the bits — every pixel, every
label and where the generator stream ends — that the batched render must
reproduce, and is compared against it by
``tests/property/test_property_data.py`` and the render counts / floor in
``tests/test_hotpath_perf.py``.
"""

from typing import Tuple

import numpy as np

from repro.data.synthetic import SyntheticImageClassification


def render_split_reference(
    generator: SyntheticImageClassification, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(features, labels)`` of one split, rendered image by image."""
    labels = rng.integers(0, generator.num_classes, size=count)
    size = generator.image_size
    images = np.empty((count, generator.channels, size, size), dtype=np.float64)
    for i, label in enumerate(labels):
        image = generator.templates[label].copy()
        if generator.max_shift:
            shift = generator.max_shift
            dy, dx = rng.integers(-shift, shift + 1, size=2)
            image = np.roll(image, (int(dy), int(dx)), axis=(1, 2))
        brightness = 1.0 + 0.1 * rng.normal()
        image = brightness * image + generator.noise * rng.normal(size=image.shape)
        images[i] = image
    return images, labels.astype(np.int64)
