"""Record constructors reject non-finite numbers, whoever builds them."""

import math

import numpy as np
import pytest

from radiofusion.errors import InvalidInputError
from radiofusion.fusion import Detection
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate
from radiofusion.sim_regions import Annotation

NAN, INF = math.nan, math.inf
GEO = ArrayGeometry(num_antennas=2, element_spacing=0.0258, num_subcarriers=2,
                    base_frequency=5.8e9, frequency_interval=312.5e3)
SAMPLES = np.ones((2, 2), dtype=complex)


@pytest.mark.parametrize("build", [
    lambda: Detection(image_id="a", bbox=(0, 0, NAN, 1), score=0.5),
    lambda: Detection(image_id="a", bbox=(-INF, 0, 1, 1), score=0.5),
    lambda: Detection(image_id="a", bbox=(0, 0, 1, 1), score=NAN),
    lambda: Detection(image_id="a", bbox=(0, 0, 1, 1), score=0.5, cell=(0, 0, INF, 1)),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, INF)),
    lambda: Annotation(image_id="a", bbox=(NAN, 0, 1, 1)),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, 1), height_px=NAN),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, 1), occlusion_fraction=INF),
    lambda: RadioRegion(center_x=NAN, center_y=0.0, edge=1.0, identifier="r"),
    lambda: RadioRegion(center_x=0.0, center_y=0.0, edge=INF, identifier="r"),
    lambda: RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=INF, magnitude=1.0, identifier="e"),
    lambda: RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=1e-8, magnitude=NAN, identifier="e"),
    lambda: CsiFrame(np.full((2, 2), complex(1.0, NAN)), GEO),
    lambda: CsiFrame(np.full((2, 2), complex(INF, 0.0)), GEO),
    lambda: CsiFrame(SAMPLES, GEO, timestamp=NAN),
])
def test_non_finite_values_are_rejected(build):
    with pytest.raises(InvalidInputError):
        build()
