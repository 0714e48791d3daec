"""P001 fixture (good): overrides every public method except the
allowlisted inherited ones; consumes every surface except the
allowlisted-divergent ``channel.gain_db`` and ``channel.mean_gain_db``."""

from repro.sim.medium import RadioMedium


class FastRadioMedium(RadioMedium):
    def finalize(self):
        return self.white_bit_policy.threshold

    def channel_clear(self, node):
        return self.config.noise_floor_dbm
