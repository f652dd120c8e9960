"""RPR012 negative: fan-out routed through the execution layer."""
from repro.exec import Supervisor, SupervisorConfig


def fan_out_supervised(tasks, fn):
    supervisor = Supervisor(SupervisorConfig(workers=4))
    return supervisor.run(tasks, fn)
