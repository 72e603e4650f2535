"""One-time-pad register protection for mobile-agent data areas.

The package splits into the cipher core (rotation digest, protect/check, key
generation), the data-area codec (wire-exact serialization and key–register
matching), the protocol roles (peer host, agent server, route server), a
deterministic scenario simulator with an adversary suite, and a CLI. Each
name is imported from its own module, as in
``from agentpad.simulator import run_scenario``; the package root exports
nothing else.
"""

__version__ = "0.1.0"
