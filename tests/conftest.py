import numpy as np

from gstrands import clebsch


def fit_order(residuals):
    """Least-squares slope of log2(residual) against refinement level."""
    residuals = np.asarray(residuals, dtype=float)
    levels = np.arange(len(residuals))
    slope = np.polyfit(levels, np.log2(residuals), 1)[0]
    return -slope


# stacked rotations about e3 by the given angles
rotation_field_z = clebsch.rotation_about_e3
