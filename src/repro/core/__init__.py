"""The CCAL compositional semantic model and layer calculus.

Public surface of the core: events/logs/replay (the game-semantic world),
layer interfaces and machines, the strategy-simulation checker, the layer
calculus of Fig. 9, and the contextual-refinement soundness checker.
"""

from .errors import (
    CCALError,
    ComposeError,
    GuaranteeViolation,
    OutOfFuel,
    RelyViolation,
    ReplayDivergence,
    Stuck,
    VerificationError,
)
from .machint import IntWidth, MachInt, UINT8, UINT16, UINT32, UINT64, uint32
from .events import Event, format_log, freeze, hw_sched, thaw
from .log import EMPTY_LOG, Log, LogBuffer
from .replay import FREE, Ownership, ReplayFn, SharedCell, VUNDEF, own, replay_owner, replay_shared
from .context import ExecutionContext, Player, QUERY, Query, run_player
from .rely_guarantee import (
    FALSE_INV,
    Guarantee,
    LogInvariant,
    Rely,
    TRUE_INV,
    check_compat,
)
from .relation import (
    ComposedRel,
    ErasureRel,
    EventMapRel,
    ID_REL,
    IdRel,
    SimRel,
    relate_with_rets,
)
from .interface import (
    ATOMIC,
    LayerInterface,
    PRIVATE,
    Prim,
    SHARED,
    atomic_prim,
    ghost_prim,
    private_prim,
    shared_prim,
    simple_event_prim,
)
from .environment import (
    Batch,
    ChoiceEnv,
    EnvContext,
    NullEnv,
    RecordingEnv,
    ScriptedEnv,
    StrategyEnv,
    round_robin_schedule,
)
from .machine import (
    GameResult,
    GameScheduler,
    LocalRun,
    NeedChoice,
    RoundRobinScheduler,
    ScriptScheduler,
    behavior_logs,
    call_player,
    enumerate_game_logs,
    run_game,
    run_local,
    sample_game_logs,
    seq_player,
)
from .module import FuncImpl, Module, link
from .certificate import Certificate, CertifiedLayer, InterfaceSim, Obligation
from .simulation import (
    RunRecord,
    Scenario,
    SimConfig,
    check_scenarios,
    check_sim,
    enumerate_local_runs,
    env_events_valid,
    prim_player,
    scenario_impl_player,
    scenario_spec_player,
)
from .calculus import (
    check_compat_interfaces,
    empty_rule,
    interface_sim_rule,
    module_rule,
    fun_rule,
    hcomp,
    pcomp,
    pcomp_all,
    vcomp,
    weaken,
)
from .contextual import (
    ClientProgram,
    behaviors_of,
    check_refinement,
    check_soundness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
