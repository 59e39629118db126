"""Shared test helpers."""

from radiofusion.world import Detections


def one_image(regions, image="i"):
    """``region_images`` for a world of one image that holds every region."""
    return [image] * len(regions)


def on_records(function):
    """``function`` taking a list of ``Detection`` records first and giving
    records back where it gives ``Detections``: the library edge around a
    stage or metric."""
    def call(detections, *args, **kwargs):
        result = function(Detections.from_records(detections), *args, **kwargs)
        return result.records() if isinstance(result, Detections) else result
    return call
