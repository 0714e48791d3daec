"""P001 fixture (bad): adds a public method and a channel read the fast
backend does not mirror."""


class RadioMedium:
    def attach(self, node):
        return self.channel.path_loss_db(node)

    def finalize(self):
        return self.channel.gain_db + self.channel.mean_gain_db + self.channel.temporal_sigma_db

    def candidate_receivers(self, tx):
        return []

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
