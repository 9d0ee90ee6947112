"""Bounded verification of dynamic, intransitive information-flow policies.

The toolkit models finite systems whose security policy changes as the
system runs, and answers whether observers can ever learn more than the
policy at each moment allows.  Two readings of a changing policy are kept
side by side: a permissive one, where an action is transmitted whenever the
edge holds at that instant, and a prohibitive one, where it takes shared
knowledge of the permission to transmit.  On top sit comparison semantics
from earlier definitions, a state-level certification that needs no trace
bound, reference-monitor conditions for object-structured systems, and an
executable capability system whose induced policy exercises everything.
"""

__version__ = "0.1.0"

from .access import (
    ALL_CONDITIONS,
    BASE_CONDITIONS,
    STRONG_FIVE,
    ConditionResult,
    DrmReport,
    StructuredSystem,
    ac_complete_construct,
    check_drm,
    derive_security_from_drm,
    dynacrel,
)
from .capability import (
    ACTION_KINDS,
    CapabilityConfig,
    CapabilityState,
    CapAction,
    ProcessState,
    TagUniverse,
    add_cap_action,
    add_tag_action,
    apply_script,
    associated_policy,
    build_pes,
    cap_step,
    cap_text,
    capability_drm_interpretation,
    data_action,
    default_actions,
    drop_cap_action,
    parse_cap,
    parse_tag,
    remove_tag_action,
    script_action,
    send_cap_action,
    send_message_action,
    set_message_action,
    standard_config,
    tag_text,
    validate_candidate_initial,
)
from .checkers import (
    check_globally_known,
    check_i_security,
    check_locality,
    check_lpurge_security,
    check_static,
    check_ta_may_security,
    check_ta_must_security,
    check_ta_static_security,
    check_unwinding_security,
    dipurge,
    dsrc,
    lpurge,
    policy_leq,
    restrict_to_local,
    state_unwinding_check,
    strip_inactive_edges,
    ta_may_partitions,
)
from .cli import Report, main, run_checks
from .formats import (
    ParseError,
    SystemDocument,
    parse_cap_config,
    parse_document,
    parse_system,
    parse_trace,
    print_system,
)
from .model import (
    DenseTransitions,
    DynamicPolicyAutomaton,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    System,
    encode,
    lex_key,
    permits,
    reachable_states,
    run,
    shortlex_key,
    step,
    traces_upto,
    unfold,
)
from .trees import (
    SHARED_ARENA,
    TracePartition,
    TreeArena,
    check_f_security,
    partition_by,
    select_violation,
    ta_may,
    ta_static,
    view,
)
from .unwinding import (
    AgreementReport,
    UnwindingResult,
    check_theorem_mustunwind,
    holds_distributed,
    ta_must,
    ta_must_labels,
    unwinding_partition,
)
from .verdicts import (
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    INSECURE,
    OUTCOMES,
    Verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
