"""Shared test helpers."""


def one_image(regions, image="i"):
    """``region_images`` for a world of one image that holds every region."""
    return [image] * len(regions)
