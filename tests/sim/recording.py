"""A mechanism that records what each of the simulator's market epochs saw."""

from repro.core import EqualBudget


class RecordingEqualBudget(EqualBudget):
    """EqualBudget that records, for every market epoch it ran, the
    problem and the warm state the solve started from."""

    def __init__(self):
        super().__init__()
        self.problems = []
        self.warm_states = []

    def allocate(self, problem):
        self.problems.append(problem)
        self.warm_states.append(self.warm_state)
        return super().allocate(problem)
