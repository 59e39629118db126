"""Shared test helpers."""

from radiofusion.world import Annotations, Detections, Regions


def group_by_image(items):
    """Records (anything with an ``image_id``) per image, in input order."""
    grouped = {}
    for item in items:
        grouped.setdefault(item.image_id, []).append(item)
    return grouped


def regions_in(regions, image="i"):
    """``Regions`` columns of a world of one image that holds every
    ``RadioRegion`` record of ``regions``."""
    return Regions.from_records({image: regions})


def on_records(function):
    """``function`` on records: a list of ``Detection`` records first, then a
    list of a metric's ``Annotation`` or a stage's ``RadioRegion`` records
    (all in image ``"i"``), giving records back where it gives
    ``Detections``: the library edge around a stage or metric."""
    columns = (Annotations.from_records if function.__module__ == "radiofusion.metrics"
               else regions_in)

    def call(detections, *args, **kwargs):
        if args and isinstance(args[0], list):
            args = (columns(args[0]), *args[1:])
        result = function(Detections.from_records(detections), *args, **kwargs)
        return result.records() if isinstance(result, Detections) else result
    return call
