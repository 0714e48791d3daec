"""P001 fixture (good): the exact backend the fast one must pair with."""


class RadioMedium:
    def attach(self, node):
        return self.channel.path_loss_db(node)

    def finalize(self):
        return self.channel.gain_db + self.channel.mean_gain_db + self.white_bit_policy.threshold

    def channel_clear(self, node):
        return self.config.noise_floor_dbm

    def enable_faults(self, schedule):
        return schedule

    def is_transmitting(self, node):
        return False

    def start_transmission(self, frame):
        return frame

    def add_interferer(self, source):
        return source

    def interferer_started(self, source):
        return source

    def advance_interferers(self):
        return None

    @property
    def transmissions(self):
        return 0
