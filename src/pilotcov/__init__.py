"""Covariance estimation for massive MIMO uplink training under pilot
contamination, with time-varying pilot schedules.

Each module lists its public names in `__all__`, the one list of them;
the package exports every one."""

from .channel import *
from .errors import *
from .estimators import *
from .experiment import *
from .linklevel import *
from .scenario import *
from .schedule import *

__version__ = "0.1.0"
