"""P001 fixture (bad): misses the ``candidate_receivers`` override and the
``channel.temporal_sigma_db`` read (``channel.gain_db`` and
``channel.mean_gain_db`` are allowlisted).

Expected findings (2): one method-parity, one surface-parity.
"""

from repro.sim.medium import RadioMedium


class FastRadioMedium(RadioMedium):
    def finalize(self):
        return 0.0
