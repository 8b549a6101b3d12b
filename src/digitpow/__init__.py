"""digitpow: exact verification of digit-sum growth for powers of two."""

from .bignum import (
    LIMB_BASE,
    LIMB_DIGITS,
    DecimalNat,
    digit_count,
    digit_scan,
    digit_sum,
    digit_tally,
    double_in_place,
    from_decimal_string,
    from_small,
    mul_small,
    to_decimal_string,
    zero,
)
from .intlog import (
    bound_table,
    digit_sum_exceeds_log4,
    floor_log2_pow10,
)
from .oeis import BFileFormatError, parse_bfile
from .power import (
    CheckpointError,
    PowerState,
    load_checkpoint,
    save_checkpoint,
    validate_multiplier,
)
from .sweep import SweepConfig, SweepSummary, run_sweep

__version__ = "0.1.0"
