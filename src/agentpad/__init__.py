"""One-time-pad register protection for mobile-agent data areas.

The package splits into the cipher core (rotation digest, protect/check, key
generation), the data-area codec (wire-exact serialization and own-register
lookup), the protocol roles (peer host, agent server, route server), a
deterministic scenario simulator with an adversary suite, and a CLI.
"""

from .cipher import (
    CheckReason,
    CheckResult,
    CipherParams,
    DEFAULT_PARAMS,
    OneTimeKey,
    ProtectionMode,
    Register,
    check_register,
    default_rng,
    enumerate_valid_signature_keys,
    gen_key,
    key_for_ciphertext,
    protect_register,
    split_into_blocks,
)
from .codec import (
    AgentDataArea,
    decode_area,
    decode_register,
    encode_area,
    encode_register,
    find_own_registers,
)
from .protocol import (
    AgentServerState,
    DiscardReason,
    PeerHostState,
    RouteServerState,
    Verdict,
    VerificationReport,
    host_handle_agent,
    host_send_keys,
    route_get,
    route_log_visit,
    server_dispatch,
    server_reconcile,
)
from .simulator import (
    BehaviorProfile,
    HostConfig,
    Scenario,
    SimReport,
    enforce_channel_policy,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"
