//! The event-driven fleet simulator: arrivals → scheduler → bounded node
//! queues → containers → completions, on one simulated clock.
//!
//! # Determinism
//!
//! The simulation is byte-deterministic by construction:
//!
//! - The clock is simulated cycles; nothing reads wall time.
//! - The event queue is a flat `(time, seq)`-ordered binary heap
//!   ([`crate::event_heap::EventHeap`]) stamping every push with a
//!   monotonically increasing sequence number, so ties have one total
//!   order.
//! - All keyed state is index-based: containers live in a slab (`Vec` +
//!   free list, generation-tagged handles), per-node warm pools are dense
//!   arrays over mix indices, and per-(workload, config) service costs
//!   are resolved to a mix-indexed array before the first event fires.
//!   Iteration order is array order — defined everywhere.
//! - The arrival sequence is a pure function of its seed and is shared by
//!   every fleet configuration under comparison.
//!
//! The flat layout replaced `BTreeMap`-keyed event/node/container state
//! (see DESIGN.md §10): per event, the engine now does O(1) array
//! indexing where it used to chase tree nodes and compare workload-name
//! strings. The workspace analyzer (`tools/analyzer`) bans `BTreeMap`
//! from this file's hot paths so the flattening cannot regress silently.
//!
//! # Accounting
//!
//! The scheduler tracks the fleet memory footprint *incrementally*: each
//! container carries a `contrib` (frames currently charged to the fleet),
//! bumped to its serving-window peak while active, dropped to its parked
//! idle level when warm, and zeroed at retirement. Footprint means
//! *unreclaimable* frames — mapped data plus page tables; the hardware
//! pool's free reserve is shed back to the OS when a container parks
//! ([`WarmContainer::park`]) and excluded while serving, because free
//! staging is reclaimable at any instant exactly like the OS free list.
//! The running total drives the footprint timeline and peak; the peak is
//! taken over *timestamp-settled* footprints (all events at one simulated
//! instant apply before the maximum is sampled), so it does not depend on
//! how same-instant events across nodes interleave: a transient level
//! between two events at one instant is never a peak. At drain, a
//! [`FleetAuditor`] recounts frames node by node from the engine's ground
//! truth and re-checks invocation conservation — any drift surfaces as a
//! sanitizer violation in [`ClusterResult::audit`].

use std::collections::BTreeMap; // lint:allow(btreemap-in-hot-path): result-surface type only — built once at drain, never touched per event
use std::collections::VecDeque;

use memento_obs::metrics::{Log2Hist, MetricsRegistry};
use memento_obs::selfprof;
use memento_sanitizer::fleet::{FleetAuditor, InvocationCounts};
use memento_sanitizer::SanitizerReport;
use memento_system::{SystemConfig, WarmContainer};

use crate::arrival::{Arrival, WorkloadMix};
use crate::error::ClusterError;
use crate::event_heap::EventHeap;
use crate::policy::{Autoscaler, ColdStart, KeepAlive, Placement, Reclamation, RejectReason};
use crate::profile::ProfileTable;

/// How the simulator obtains service times and frame footprints.
pub enum Engine {
    /// Every container wraps a live [`WarmContainer`] machine: exact
    /// per-invocation simulation of the full memory hierarchy. Use for
    /// tests and small fleets (boxed: a `SystemConfig` is much larger
    /// than a profile-table handle).
    Measured(Box<SystemConfig>),
    /// Containers replay calibrated [`crate::profile::ServiceProfile`]
    /// costs. Use to scale the same scheduler/keep-alive dynamics to
    /// millions of invocations.
    Profiled(ProfileTable),
}

impl Engine {
    /// Shapes Measured container machines to the fleet's per-node core
    /// count, so a container's memory hierarchy matches the node hardware
    /// it runs on. A no-op at one core (and for Profiled engines), which
    /// keeps the single-lane fleet bit-identical to the pre-multicore
    /// engine.
    fn with_node_cores(self, cores: usize) -> Engine {
        match self {
            Engine::Measured(cfg) if cores > 1 => Engine::Measured(Box::new(cfg.with_cores(cores))),
            other => other,
        }
    }
}

/// Fleet shape and policy knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes; each node serves up to [`Self::cores_per_node`]
    /// containers at once.
    pub nodes: usize,
    /// Bounded per-node queue depth (0 = no queueing: a node with every
    /// core busy rejects).
    pub queue_capacity: usize,
    /// Serving lanes per node: how many containers one node runs
    /// concurrently. Measured-engine container machines are shaped to
    /// this core count ([`memento_system::SystemConfig::with_cores`]),
    /// so their memory hierarchy matches the node hardware. 1 reproduces
    /// the original single-container-at-a-time fleet exactly.
    pub cores_per_node: usize,
    /// Placement policy.
    pub placement: Placement,
    /// Keep-alive policy.
    pub keep_alive: KeepAlive,
    /// How a cold container comes up: full boot or REAP-style snapshot
    /// restore.
    pub cold_start: ColdStart,
    /// Pressure-driven reclamation of idle-warm containers.
    pub reclamation: Reclamation,
    /// Node autoscaling. With [`Autoscaler::None`], every configured node
    /// is active for the whole run (the fixed-fleet engine, bit-identical
    /// to the pre-region simulator). With a target-utilization
    /// controller, [`Self::nodes`] is the *initial* active fleet inside
    /// the controller's `[min_nodes, max_nodes]` range.
    pub autoscaler: Autoscaler,
    /// Record the full footprint timeline (disable for very large runs;
    /// peak tracking is unaffected).
    pub record_timeline: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            queue_capacity: 16,
            cores_per_node: 1,
            placement: Placement::LeastLoaded,
            keep_alive: KeepAlive::Fixed(100_000_000),
            cold_start: ColdStart::Boot,
            reclamation: Reclamation::None,
            autoscaler: Autoscaler::None,
            record_timeline: true,
        }
    }
}

/// Everything a cluster run produced.
pub struct ClusterResult {
    /// Arrivals offered to the scheduler.
    pub submitted: u64,
    /// Invocations served to completion.
    pub completed: u64,
    /// Arrivals turned away at admission.
    pub rejected: u64,
    /// Rejections broken down by typed reason.
    // lint:allow(btreemap-in-hot-path): result surface, written once at drain
    pub rejected_by: BTreeMap<RejectReason, u64>,
    /// Invocations that paid a container cold start.
    pub cold_starts: u64,
    /// Invocations served by an idle-warm container.
    pub warm_starts: u64,
    /// Containers torn down by keep-alive expiry.
    pub expired: u64,
    /// Containers torn down for any reason (expiry included).
    pub retired: u64,
    /// Containers still idle-warm at drain.
    pub live_containers: u64,
    /// Cold-path starts served by snapshot restore (a subset of
    /// `cold_starts`; 0 under [`ColdStart::Boot`]).
    pub restores: u64,
    /// Idle-warm containers squeezed by pressure-driven reclamation
    /// (0 under [`Reclamation::None`]).
    pub squeezed: u64,
    /// Containers parked to persistent memory after completing
    /// (0 unless [`KeepAlive::ParkToPM`]).
    pub pm_parks: u64,
    /// Warm hits that paid a PM restore to revive a parked container
    /// (a subset of `warm_starts`; 0 unless [`KeepAlive::ParkToPM`]).
    pub pm_restores: u64,
    /// Peak simultaneously active-or-booting nodes (the configured fleet
    /// size when autoscaling is off).
    pub peak_active_nodes: u64,
    /// Simulated cycle of the last processed event.
    pub makespan_cycles: u64,
    /// Highest timestamp-settled fleet footprint, in frames.
    pub peak_fleet_frames: u64,
    /// Fleet footprint at drain (idle-warm containers), in frames.
    pub final_fleet_frames: u64,
    /// Footprint timeline as (cycle, frames) change points (empty when
    /// `record_timeline` is off).
    pub timeline: Vec<(u64, u64)>,
    /// End-to-end latencies (queue wait + service) of completed
    /// invocations, in cycles, sorted ascending.
    pub latencies: Vec<u64>,
    /// Per-node counters plus latency/queue-wait histograms.
    pub metrics: MetricsRegistry,
    /// Fleet conservation audits (invocations and frames) run at drain.
    pub audit: SanitizerReport,
}

impl ClusterResult {
    /// Exact latency quantile (nearest-rank over the full sorted latency
    /// vector; 0 when nothing completed). Delegates to the workspace's
    /// single shared rank convention so the cluster tables and the
    /// [`memento_obs::metrics::Log2Hist`] approximation can never drift
    /// apart again.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        memento_obs::percentile::nearest_rank_sorted(&self.latencies, q)
    }

    /// (p50, p95, p99) end-to-end latency in cycles.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        (
            self.latency_quantile(0.50),
            self.latency_quantile(0.95),
            self.latency_quantile(0.99),
        )
    }

    /// True when the drain-time conservation audits found no violation.
    pub fn is_clean(&self) -> bool {
        self.audit.is_clean()
    }
}

/// Validates a run's inputs: a non-empty fleet and mix, and (for the
/// Profiled engine) a calibrated profile for every workload in the mix.
fn validate(engine: &Engine, cfg: &ClusterConfig, mix: &WorkloadMix) -> Result<(), ClusterError> {
    if cfg.nodes == 0 || cfg.cores_per_node == 0 {
        return Err(ClusterError::NoNodes);
    }
    if cfg.nodes > 1 << 16 || cfg.queue_capacity >= 1 << 40 || cfg.cores_per_node > 1 << 8 {
        return Err(ClusterError::FleetTooLarge);
    }
    if mix.is_empty() {
        return Err(ClusterError::EmptyMix);
    }
    if let Autoscaler::TargetUtilization(ac) = cfg.autoscaler {
        if ac.interval_cycles == 0 {
            return Err(ClusterError::InvalidAutoscaler(
                "controller interval must be positive".into(),
            ));
        }
        if ac.target_load_pct == 0 {
            return Err(ClusterError::InvalidAutoscaler(
                "target load percentage must be positive".into(),
            ));
        }
        if ac.min_nodes == 0 || ac.min_nodes > ac.max_nodes {
            return Err(ClusterError::InvalidAutoscaler(format!(
                "node range [{}, {}] is empty",
                ac.min_nodes, ac.max_nodes
            )));
        }
        if cfg.nodes < ac.min_nodes || cfg.nodes > ac.max_nodes {
            return Err(ClusterError::InvalidAutoscaler(format!(
                "initial fleet of {} nodes is outside [{}, {}]",
                cfg.nodes, ac.min_nodes, ac.max_nodes
            )));
        }
        if ac.max_nodes > 1 << 16 {
            return Err(ClusterError::FleetTooLarge);
        }
    }
    if let KeepAlive::SizeAware {
        budget_frame_cycles,
        min_cycles,
        max_cycles,
    } = cfg.keep_alive
    {
        if budget_frame_cycles == 0 {
            return Err(ClusterError::InvalidKeepAlive(
                "size-aware frame-cycle budget must be positive".into(),
            ));
        }
        if min_cycles == 0 || min_cycles > max_cycles {
            return Err(ClusterError::InvalidKeepAlive(format!(
                "TTL clamp range [{min_cycles}, {max_cycles}] is empty"
            )));
        }
    }
    if let KeepAlive::ParkToPM { ttl_cycles } = cfg.keep_alive {
        if ttl_cycles == 0 {
            return Err(ClusterError::InvalidKeepAlive(
                "park-to-pm retention TTL must be positive".into(),
            ));
        }
    }
    if let Engine::Profiled(table) = engine {
        for spec in mix.specs() {
            if table.get(&spec.name).is_none() {
                return Err(ClusterError::MissingProfile(spec.name.clone()));
            }
        }
    }
    Ok(())
}

/// Runs the fleet simulation over a pre-drawn arrival sequence and drains
/// it to quiescence, serially on the calling thread. The arrival slice
/// must be time-sorted (as [`crate::arrival::generate_arrivals`]
/// produces).
pub fn simulate(
    engine: Engine,
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
) -> Result<ClusterResult, ClusterError> {
    validate(&engine, cfg, mix)?;
    let costs = Costs::resolve(engine.with_node_cores(cfg.cores_per_node), mix);
    let mut sim = Sim::new(costs, cfg, mix);
    sim.run(arrivals);
    Ok(sim.finish())
}

/// Mix-indexed service costs, resolved once before the first event so the
/// per-invocation hot path never touches a string-keyed table.
#[derive(Clone, Copy, Debug)]
struct ProfileCosts {
    cold_cycles: u64,
    warm_cycles: u64,
    active_frames: u64,
    idle_frames: u64,
    restore_cycles: u64,
    squeeze_floor_frames: u64,
    squeeze_refault_cycles: u64,
    pm_restore_cycles: u64,
    pm_persist_cycles: u64,
    pm_idle_frames: u64,
}

/// Resolves a validated profile table into mix-index order.
fn resolve_profiles(table: &ProfileTable, mix: &WorkloadMix) -> Vec<ProfileCosts> {
    mix.specs()
        .iter()
        .map(|spec| {
            let p = table
                .get(&spec.name)
                .expect("profiles validated before simulate");
            ProfileCosts {
                cold_cycles: p.cold_cycles,
                warm_cycles: p.warm_cycles,
                active_frames: p.active_frames,
                idle_frames: p.idle_frames,
                restore_cycles: p.restore_cycles,
                squeeze_floor_frames: p.squeeze_floor_frames,
                squeeze_refault_cycles: p.squeeze_refault_cycles,
                pm_restore_cycles: p.pm_restore_cycles,
                pm_persist_cycles: p.pm_persist_cycles,
                pm_idle_frames: p.pm_idle_frames,
            }
        })
        .collect()
}

/// The engine with lookups pre-resolved for the hot path.
enum Costs {
    Measured(Box<SystemConfig>),
    Profiled(Vec<ProfileCosts>),
}

impl Costs {
    fn resolve(engine: Engine, mix: &WorkloadMix) -> Costs {
        match engine {
            Engine::Measured(cfg) => Costs::Measured(cfg),
            Engine::Profiled(table) => Costs::Profiled(resolve_profiles(&table, mix)),
        }
    }
}

/// Sentinel for "no warm container" in a node's dense warm array.
const NO_WARM: u32 = u32::MAX;

/// Sentinel for "no live machine" in a slot's machine-arena index —
/// every Profiled-engine slot, and Measured slots between tenants.
const NO_MACHINE: u32 = u32::MAX;

/// A scheduled keep-alive expiry — the only event kind that still needs
/// its own queue. Arrivals are a cursor over the (sorted) arrival slice
/// and completions live in per-lane slots (at most one in flight per
/// serving lane; `cores_per_node` lanes per node).
#[derive(Clone, Copy, Debug)]
struct ExpiryEv {
    slot: u32,
    gen: u32,
    token: u32,
}

/// The pending-expiry queue. `KeepAlive::Fixed(d)` schedules every expiry
/// at `now + d` with constant `d`, so push times are monotone and a FIFO
/// deque pops them in `(time, seq)` order for free. Any out-of-order push
/// (no current policy produces one) spills to the flat
/// [`EventHeap`], so the queue stays correct for arbitrary schedules and
/// O(1) for the ones that exist.
struct ExpiryQueue {
    fifo: VecDeque<(u64, u64, ExpiryEv)>,
    spill: EventHeap<ExpiryEv>,
}

impl ExpiryQueue {
    fn new() -> Self {
        ExpiryQueue {
            fifo: VecDeque::new(),
            spill: EventHeap::new(),
        }
    }

    #[inline]
    fn push_at(&mut self, time: u64, seq: u64, ev: ExpiryEv) {
        match self.fifo.back() {
            Some(&(t, _, _)) if time < t => self.spill.push_at(time, seq, ev),
            _ => self.fifo.push_back((time, seq, ev)),
        }
    }

    #[inline]
    fn peek(&self) -> Option<(u64, u64, ExpiryEv)> {
        match (self.fifo.front().copied(), self.spill.peek()) {
            (Some(a), Some(b)) if (b.0, b.1) < (a.0, a.1) => Some(b),
            (Some(a), _) => Some(a),
            (None, b) => b,
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, u64, ExpiryEv)> {
        let front = self.fifo.front().map(|&(t, s, _)| (t, s));
        match (front, self.spill.peek_key()) {
            (Some(a), Some(b)) if b < a => self.spill.pop(),
            (Some(_), _) => self.fifo.pop_front(),
            (None, Some(_)) => self.spill.pop(),
            (None, None) => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Queued {
    time: u64,
    workload: u32,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    arrive_time: u64,
    slot: u32,
    workload: u32,
}

/// Sentinel completion key for an idle node (never selected: real event
/// times are finite).
const IDLE: (u64, u64) = (u64::MAX, u64::MAX);

/// Sentinel for an empty expiry queue (same never-selected reasoning).
const NO_EXPIRY: (u64, u64) = (u64::MAX, u64::MAX);

/// Sentinel for "no pending autoscaler tick" (same reasoning).
const NO_EVENT: (u64, u64) = (u64::MAX, u64::MAX);

struct Node {
    queue: VecDeque<Queued>,
}

/// Autoscaler lifecycle of one node. Without an autoscaler every node is
/// `Active` for the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeState {
    /// Accepting placements and serving.
    Active,
    /// Scale-up decided; becomes `Active` when its boot event fires
    /// (spin-up delay elapsed). Accepts no placements meanwhile.
    Booting,
    /// Scale-down decided; accepts no new placements but finishes its
    /// queued/in-flight work, then turns `Off` (retiring its warm pool).
    Draining,
    /// Powered down: no load, no warm containers, no footprint.
    Off,
}

/// One container slab slot. Retirement bumps `gen`, so a stale expiry
/// event whose slot was recycled can never act on the new tenant.
struct Slot {
    gen: u32,
    live: bool,
    workload: u32,
    node: u32,
    /// Bumped on every warm reuse; invalidates scheduled expiries.
    token: u32,
    /// Frames currently charged to the fleet footprint.
    contrib: u64,
    /// True while pressure reclamation holds this idle-warm container at
    /// its squeeze floor; cleared by the next warm start (which pays the
    /// re-fault bill) and at retirement.
    squeezed: bool,
    /// Unreclaimable floor charged while squeezed (audit ground truth).
    squeeze_floor: u64,
    /// Re-fault cycles the next warm start owes for the squeezed frames.
    squeeze_refault: u64,
    /// True while the idle container sits parked in persistent memory
    /// (its DRAM contribution is the profile's `pm_idle_frames`); cleared
    /// by the next warm start, which pays the PM restore premium.
    pm_parked: bool,
    /// Index of the live machine in the sim's machine arena
    /// ([`NO_MACHINE`] on Profiled slots). Keeping the multi-KB
    /// [`WarmContainer`] out of line leaves the slot a compact POD, so
    /// the Profiled engine's slab walks stay cache-dense.
    machine: u32,
}

struct Sim<'a> {
    costs: Costs,
    cfg: &'a ClusterConfig,
    mix: &'a WorkloadMix,
    record_timeline: bool,
    expiries: ExpiryQueue,
    /// One seq counter shared by all three event sources (arrival cursor,
    /// completion slots, expiry queue), allocated in exactly the order a
    /// single-heap engine would push events — the total `(time, seq)`
    /// order is therefore identical.
    next_seq: u64,
    now: u64,
    nodes: Vec<Node>,
    /// Per-lane completion key `(done_time, seq)`, [`IDLE`] when the lane
    /// (node serving slot; `cores_per_node` lanes per node, lane index
    /// `node * cores_per_node + core`) is not serving. Kept as a compact
    /// parallel array so the event loop's min-scan stays cache-dense.
    done: Vec<(u64, u64)>,
    /// The in-flight request per lane when `done[lane] != IDLE`; stale
    /// garbage otherwise (the `done` sentinel is the single source of
    /// truth for whether the lane is serving, so no `Option` tag is paid
    /// here).
    serving: Vec<InFlight>,
    /// Cached minimum of `done` (the next completion), [`IDLE`] when no
    /// lane is serving. `start_service` can only lower it, and the event
    /// loop always fires the completion holding the minimum, so one
    /// rescan per completion keeps it exact — the loop itself never
    /// scans.
    done_min: (u64, u64),
    /// Lane holding `done_min` (meaningless while `done_min == IDLE`).
    done_min_lane: u32,
    /// Cached key of the front of `expiries` ([`NO_EXPIRY`] when empty),
    /// so the event loop compares three integers instead of peeking the
    /// queue. Pushes can only lower it; pops re-derive it (skimming
    /// entries that went stale while queued — see the dispatch arm).
    next_expiry: (u64, u64),
    /// `queue length + serving` per node; admission is `load <= capacity`
    /// (a node with an empty system has load 0). Compact so the placement
    /// scan reads one cache line.
    load: Vec<u32>,
    /// Idle-warm container slot per (workload, node), workload-major so a
    /// placement scan for one workload reads contiguous memory. `NO_WARM`
    /// when none. The flat replacement for the old per-node
    /// `BTreeMap<usize, u64>`.
    warm: Vec<u32>,
    node_invocations: Vec<u64>,
    /// Autoscaler lifecycle per node (all `Active` without one).
    node_state: Vec<NodeState>,
    /// Pending node-boot events `(time, seq, node)`. Spin-up delay is
    /// constant, so push times are monotone and a FIFO pops them in
    /// `(time, seq)` order — same reasoning as the expiry fast path.
    boots: VecDeque<(u64, u64, u32)>,
    /// Next autoscaler controller tick (`NO_EVENT` when disabled or when
    /// the controller stopped re-arming at drain).
    next_tick: (u64, u64),
    /// Nodes currently `Active` or `Booting` — the capacity the
    /// controller has committed to.
    active_committed: usize,
    peak_active_nodes: u64,
    scale_ups: u64,
    scale_downs: u64,
    restores: u64,
    squeezed: u64,
    pm_parks: u64,
    pm_restores: u64,
    /// Background PM write cycles parks generated (off the latency path).
    pm_persist_cycles: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slab arena of live Measured machines, indexed by [`Slot::machine`]
    /// and recycled through `machine_free` — the big per-container state
    /// lives here, not inline in the slot slab. Empty on Profiled runs.
    machines: Vec<Option<WarmContainer>>,
    machine_free: Vec<u32>,
    /// Sanitizer findings absorbed from retired Measured machines (plus
    /// the ones still live at drain), merged into the fleet audit — a
    /// machine-level violation (e.g. a failed PM recovery audit) must
    /// fail `ClusterResult::is_clean`, not vanish with the container.
    machine_audit: SanitizerReport,
    live_count: u64,
    rr: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
    rejected_by: [u64; 2],
    in_flight: u64,
    cold_starts: u64,
    warm_starts: u64,
    expired: u64,
    retired: u64,
    fleet_now: u64,
    fleet_peak: u64,
    peak_dirty: bool,
    timeline: Vec<(u64, u64)>,
    latencies: Vec<u64>,
    latency_hist: Log2Hist,
    queue_wait_hist: Log2Hist,
}

/// LSD radix sort (8-bit digits, skipping passes above the maximum
/// value's top byte). The drain-time latency sort is ~15% of a large
/// run's wall time under a comparison sort; latencies span ~4 meaningful
/// bytes, so four counting passes beat `sort_unstable`'s ~19 comparison
/// levels severalfold. Output is the canonical ascending order, identical
/// to any correct sort.
fn radix_sort_u64(v: &mut Vec<u64>) {
    let Some(&max) = v.iter().max() else { return };
    let mut buf = vec![0u64; v.len()];
    let mut shift = 0u32;
    loop {
        let mut counts = [0usize; 256];
        for &x in v.iter() {
            counts[((x >> shift) & 0xff) as usize] += 1;
        }
        let mut offset = 0;
        for c in counts.iter_mut() {
            let n = *c;
            *c = offset;
            offset += n;
        }
        for &x in v.iter() {
            let d = ((x >> shift) & 0xff) as usize;
            buf[counts[d]] = x;
            counts[d] += 1;
        }
        std::mem::swap(v, &mut buf);
        shift += 8;
        if shift >= 64 || (max >> shift) == 0 {
            return;
        }
    }
}

const REJECT_REASONS: [RejectReason; 2] = [RejectReason::QueueFull, RejectReason::ClusterSaturated];

fn reject_index(reason: RejectReason) -> usize {
    match reason {
        RejectReason::QueueFull => 0,
        RejectReason::ClusterSaturated => 1,
    }
}

impl<'a> Sim<'a> {
    fn new(costs: Costs, cfg: &'a ClusterConfig, mix: &'a WorkloadMix) -> Self {
        // With an autoscaler, every array is sized for the controller's
        // hardware bound; nodes beyond the initial fleet start `Off`.
        let total_nodes = match cfg.autoscaler {
            Autoscaler::TargetUtilization(ac) => ac.max_nodes,
            Autoscaler::None => cfg.nodes,
        };
        let nodes: Vec<Node> = (0..total_nodes)
            .map(|_| Node {
                queue: VecDeque::new(),
            })
            .collect();
        let node_state = (0..total_nodes)
            .map(|i| {
                if i < cfg.nodes {
                    NodeState::Active
                } else {
                    NodeState::Off
                }
            })
            .collect();
        let lanes = total_nodes * cfg.cores_per_node;
        Sim {
            costs,
            cfg,
            mix,
            record_timeline: cfg.record_timeline,
            expiries: ExpiryQueue::new(),
            next_seq: 0,
            now: 0,
            nodes,
            done: vec![IDLE; lanes],
            serving: vec![
                InFlight {
                    arrive_time: 0,
                    slot: 0,
                    workload: 0,
                };
                lanes
            ],
            done_min: IDLE,
            done_min_lane: 0,
            next_expiry: NO_EXPIRY,
            load: vec![0; total_nodes],
            warm: vec![NO_WARM; total_nodes * mix.len()],
            node_invocations: vec![0; total_nodes],
            node_state,
            boots: VecDeque::new(),
            next_tick: NO_EVENT,
            active_committed: cfg.nodes,
            peak_active_nodes: cfg.nodes as u64,
            scale_ups: 0,
            scale_downs: 0,
            restores: 0,
            squeezed: 0,
            pm_parks: 0,
            pm_restores: 0,
            pm_persist_cycles: 0,
            slots: Vec::new(),
            free: Vec::new(),
            machines: Vec::new(),
            machine_free: Vec::new(),
            machine_audit: SanitizerReport::default(),
            live_count: 0,
            rr: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            rejected_by: [0; 2],
            in_flight: 0,
            cold_starts: 0,
            warm_starts: 0,
            expired: 0,
            retired: 0,
            fleet_now: 0,
            fleet_peak: 0,
            peak_dirty: false,
            timeline: Vec::new(),
            latencies: Vec::new(),
            latency_hist: Log2Hist::new(),
            queue_wait_hist: Log2Hist::new(),
        }
    }

    #[inline]
    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn run(&mut self, arrivals: &[Arrival]) {
        let _prof = selfprof::span("cluster.sim.run");
        self.latencies.reserve(arrivals.len());
        // The pending arrival: `(time, seq, index)`. Stamped when its
        // predecessor is processed — exactly when the single-heap engine
        // pushed it — so the shared seq order is unchanged.
        let mut next_arrival: Option<(u64, u64, usize)> = None;
        if let Some(first) = arrivals.first() {
            next_arrival = Some((first.time, self.alloc_seq(), 0));
        }
        // The first controller tick is stamped *after* the first-arrival
        // seq, and only when the autoscaler is on — a disabled feature
        // allocates no seq, so the default path's (time, seq) stream is
        // bit-identical to the fixed-fleet engine.
        if let Autoscaler::TargetUtilization(ac) = self.cfg.autoscaler {
            self.next_tick = (ac.interval_cycles, self.alloc_seq());
        }
        #[derive(Clone, Copy)]
        enum Src {
            Arrival,
            Completion(u32),
            Expiry,
            Boot,
            Tick,
        }
        loop {
            // Pick the earliest (time, seq) across the five sources: the
            // arrival cursor, the per-lane completion slots, the expiry
            // queue, pending node boots, and the autoscaler tick. Seqs
            // are unique, so the winner is unique.
            let mut best: Option<((u64, u64), Src)> = None;
            if let Some((t, s, _)) = next_arrival {
                best = Some(((t, s), Src::Arrival));
            }
            if self.done_min != IDLE && best.is_none_or(|(bk, _)| self.done_min < bk) {
                best = Some((self.done_min, Src::Completion(self.done_min_lane)));
            }
            if self.next_expiry != NO_EXPIRY && best.is_none_or(|(bk, _)| self.next_expiry < bk) {
                best = Some((self.next_expiry, Src::Expiry));
            }
            if let Some(&(t, s, _)) = self.boots.front() {
                if best.is_none_or(|(bk, _)| (t, s) < bk) {
                    best = Some(((t, s), Src::Boot));
                }
            }
            if self.next_tick != NO_EVENT && best.is_none_or(|(bk, _)| self.next_tick < bk) {
                best = Some((self.next_tick, Src::Tick));
            }
            let Some(((time, _), src)) = best else { break };
            debug_assert!(time >= self.now, "simulated time must not run backwards");
            if time > self.now {
                // All events at the previous instant have applied: sample
                // the settled footprint into the peak before advancing.
                self.settle_peak();
                self.now = time;
            }
            match src {
                Src::Arrival => {
                    let (_, _, index) = next_arrival.take().expect("arrival source chosen");
                    if index + 1 < arrivals.len() {
                        next_arrival =
                            Some((arrivals[index + 1].time, self.alloc_seq(), index + 1));
                    }
                    self.on_arrival(&arrivals[index]);
                }
                Src::Completion(lane) => self.on_completion(lane as usize),
                Src::Expiry => {
                    let (_, _, ev) = self.expiries.pop().expect("cached key exists");
                    self.advance_next_expiry();
                    self.on_expiry(ev.slot, ev.gen, ev.token);
                }
                Src::Boot => {
                    let (_, _, node) = self.boots.pop_front().expect("boot source chosen");
                    self.on_boot(node as usize);
                }
                Src::Tick => {
                    // Re-arm only while work remains (pending arrivals or
                    // accepted invocations); otherwise the controller
                    // stops and the run drains through expiries alone.
                    let more = next_arrival.is_some() || self.in_flight > 0;
                    self.on_tick(more);
                }
            }
        }
    }

    fn on_arrival(&mut self, a: &Arrival) {
        self.submitted += 1;
        // lint:allow(narrowing-cast-in-hot-path): workload ids index the mix table, far below 2^32
        let workload = a.workload as u32;
        match self.place(a.workload) {
            Ok(node) => {
                self.in_flight += 1;
                self.load[node] += 1;
                if let Some(lane) = self.idle_lane(node) {
                    self.start_service(lane, a.time, workload);
                } else {
                    self.nodes[node].queue.push_back(Queued {
                        time: a.time,
                        workload,
                    });
                }
            }
            Err(reason) => {
                self.rejected += 1;
                self.rejected_by[reject_index(reason)] += 1;
            }
        }
    }

    /// Admission check: the per-node system (queue + serving lanes) has
    /// room. A node admits while its queued backlog (`load` minus the
    /// lanes it can serve on) stays below capacity — `load < capacity +
    /// cores_per_node`, which at one lane is the original `load <=
    /// capacity`.
    #[inline]
    fn has_space(&self, node: usize) -> bool {
        (self.load[node] as usize) < self.cfg.queue_capacity + self.cfg.cores_per_node
    }

    /// First idle serving lane of `node` (`None` when every core is
    /// busy). Index order makes lane choice deterministic.
    #[inline]
    fn idle_lane(&self, node: usize) -> Option<usize> {
        let lanes = self.cfg.cores_per_node;
        (node * lanes..(node + 1) * lanes).find(|&l| self.done[l] == IDLE)
    }

    /// Index into the workload-major warm matrix (row width is the
    /// *total* node count — the autoscaler's hardware bound).
    #[inline]
    fn warm_idx(&self, workload: u32, node: usize) -> usize {
        workload as usize * self.nodes.len() + node
    }

    fn place(&mut self, workload: usize) -> Result<usize, RejectReason> {
        match self.cfg.placement {
            Placement::RoundRobin => {
                if matches!(self.cfg.autoscaler, Autoscaler::None) {
                    // The fixed-fleet fast path: one rotation step per
                    // arrival, bit-identical to the pre-region engine.
                    let node = self.rr % self.nodes.len();
                    self.rr += 1;
                    return if self.has_space(node) {
                        Ok(node)
                    } else {
                        Err(RejectReason::QueueFull)
                    };
                }
                // Autoscaled round-robin rotates to the next *active*
                // node; booting, draining, and off nodes take no new
                // placements. Local admission semantics are unchanged.
                let n = self.nodes.len();
                for _ in 0..n {
                    let node = self.rr % n;
                    self.rr += 1;
                    if self.node_state[node] == NodeState::Active {
                        return if self.has_space(node) {
                            Ok(node)
                        } else {
                            Err(RejectReason::QueueFull)
                        };
                    }
                }
                Err(RejectReason::ClusterSaturated)
            }
            Placement::LeastLoaded => {
                // Warm-affinity least-loaded over two compact arrays: the
                // per-node load vector and this workload's row of the warm
                // matrix (contiguous by construction). The scan data is
                // unpredictable, so fold the whole preference order
                // (admissible, then warm, then load, then index) into one
                // u64 key and take a branchless argmin — eight data-
                // dependent branch misses per arrival cost more than the
                // scan itself. Inactive nodes fold into the inadmissible
                // bit (all nodes are active without an autoscaler).
                let full = self.cfg.queue_capacity + self.cfg.cores_per_node;
                let n = self.nodes.len();
                let warm_row = &self.warm[workload * n..][..n];
                let mut best = u64::MAX;
                for (i, (&load, &warm)) in self.load.iter().zip(warm_row).enumerate() {
                    let inadmissible =
                        load as usize >= full || self.node_state[i] != NodeState::Active;
                    let key = (inadmissible as u64) << 63
                        | ((warm == NO_WARM) as u64) << 62
                        | (load as u64) << 16
                        | i as u64;
                    best = best.min(key);
                }
                if best >> 63 == 0 {
                    Ok((best & 0xffff) as usize)
                } else {
                    Err(RejectReason::ClusterSaturated)
                }
            }
        }
    }

    /// Starts one invocation on an idle serving lane (global lane index:
    /// `node * cores_per_node + core`).
    fn start_service(&mut self, lane: usize, arrive_time: u64, workload: u32) {
        debug_assert_eq!(self.done[lane], IDLE, "start_service targets an idle lane");
        let node = lane / self.cfg.cores_per_node;
        let widx = self.warm_idx(workload, node);
        let warm_slot = self.warm[widx];
        let (slot, service) = if warm_slot != NO_WARM {
            self.warm[widx] = NO_WARM;
            self.warm_starts += 1;
            let (cycles, active) = self.invoke_warm(warm_slot);
            self.set_contrib(warm_slot, active);
            (warm_slot, cycles)
        } else {
            self.cold_starts += 1;
            let (slot, cycles, active) = match self.cfg.cold_start {
                ColdStart::Boot => self.cold_start(node, workload),
                ColdStart::Snapshot => {
                    self.restores += 1;
                    self.restore_start(node, workload)
                }
            };
            self.set_contrib(slot, active);
            (slot, cycles)
        };
        if !matches!(self.cfg.reclamation, Reclamation::None) {
            self.squeeze_pass();
        }
        self.node_invocations[node] += 1;
        let done_time = self.now + service.max(1);
        let seq = self.alloc_seq();
        self.done[lane] = (done_time, seq);
        if (done_time, seq) < self.done_min {
            self.done_min = (done_time, seq);
            // lint:allow(narrowing-cast-in-hot-path): lane indexes nodes * cores_per_node, far below 2^32
            self.done_min_lane = lane as u32;
        }
        self.serving[lane] = InFlight {
            arrive_time,
            slot,
            workload,
        };
    }

    /// Parks a fresh Measured machine in the machine arena (recycling
    /// freed entries) and returns its index.
    fn attach_machine(&mut self, m: WarmContainer) -> u32 {
        if let Some(i) = self.machine_free.pop() {
            debug_assert!(self.machines[i as usize].is_none(), "free entry is empty");
            self.machines[i as usize] = Some(m);
            i
        } else {
            self.machines.push(Some(m));
            // lint:allow(narrowing-cast-in-hot-path): machine count is bounded by live containers < 2^32
            (self.machines.len() - 1) as u32
        }
    }

    fn machine(&self, idx: u32) -> &WarmContainer {
        self.machines[idx as usize]
            .as_ref()
            .expect("measured containers carry machines")
    }

    fn machine_mut(&mut self, idx: u32) -> &mut WarmContainer {
        self.machines[idx as usize]
            .as_mut()
            .expect("measured containers carry machines")
    }

    /// Allocates a slab slot for a fresh container (recycling retired
    /// slots; `gen` survives recycling so stale expiries miss).
    fn alloc_slot(&mut self, workload: u32, node: usize, measured: Option<WarmContainer>) -> u32 {
        self.live_count += 1;
        let machine = match measured {
            Some(m) => self.attach_machine(m),
            None => NO_MACHINE,
        };
        if let Some(slot) = self.free.pop() {
            let c = &mut self.slots[slot as usize];
            debug_assert!(!c.live, "free list must only hold retired slots");
            c.live = true;
            c.workload = workload;
            // lint:allow(narrowing-cast-in-hot-path): node indexes cfg.nodes, far below 2^32
            c.node = node as u32;
            c.token = 0;
            c.contrib = 0;
            c.squeezed = false;
            c.squeeze_floor = 0;
            c.squeeze_refault = 0;
            c.pm_parked = false;
            c.machine = machine;
            slot
        } else {
            self.slots.push(Slot {
                gen: 0,
                live: true,
                workload,
                // lint:allow(narrowing-cast-in-hot-path): node indexes cfg.nodes, far below 2^32
                node: node as u32,
                token: 0,
                contrib: 0,
                squeezed: false,
                squeeze_floor: 0,
                squeeze_refault: 0,
                pm_parked: false,
                machine,
            });
            // lint:allow(narrowing-cast-in-hot-path): slot count is bounded by live containers < 2^32
            (self.slots.len() - 1) as u32
        }
    }

    fn cold_start(&mut self, node: usize, workload: u32) -> (u32, u64, u64) {
        let (measured, cycles, active) = match &self.costs {
            Costs::Measured(cfg) => {
                let spec = self.mix.spec(workload as usize);
                let (c, stats) = WarmContainer::cold_start(cfg.as_ref().clone(), spec);
                let active = c.serving_peak_pages();
                (Some(c), stats.total_cycles().raw(), active)
            }
            Costs::Profiled(costs) => {
                let p = &costs[workload as usize];
                (None, p.cold_cycles, p.active_frames)
            }
        };
        let slot = self.alloc_slot(workload, node, measured);
        (slot, cycles, active)
    }

    /// REAP-style snapshot restore of a fresh container: the stable
    /// working set is prefetched instead of rebuilt, so the charged
    /// service time lands strictly between a warm hit and a cold boot.
    fn restore_start(&mut self, node: usize, workload: u32) -> (u32, u64, u64) {
        let (measured, cycles, active) = match &self.costs {
            Costs::Measured(cfg) => {
                let spec = self.mix.spec(workload as usize);
                let (c, restore) = WarmContainer::restore_start(cfg.as_ref().clone(), spec);
                let active = c.serving_peak_pages();
                (Some(c), restore, active)
            }
            Costs::Profiled(costs) => {
                let p = &costs[workload as usize];
                (None, p.restore_cycles, p.active_frames)
            }
        };
        let slot = self.alloc_slot(workload, node, measured);
        (slot, cycles, active)
    }

    fn invoke_warm(&mut self, slot: u32) -> (u64, u64) {
        let c = &mut self.slots[slot as usize];
        debug_assert!(c.live, "warm slot is live");
        c.token += 1; // cancels any scheduled keep-alive expiry
                      // A squeezed container pays its re-fault bill here: the frames
                      // pressure reclamation took must page back in before serving.
        let refault = if c.squeezed {
            c.squeezed = false;
            c.squeeze_refault
        } else {
            0
        };
        // A PM-parked container pays the restore premium: recovery plus
        // sealed-image replay (or demand refault on baselines) on top of
        // the warm service time.
        let pm_parked = std::mem::take(&mut c.pm_parked);
        let (workload, machine) = (c.workload, c.machine);
        if pm_parked {
            self.pm_restores += 1;
        }
        match &self.costs {
            Costs::Measured(_) => {
                let m = self.machines[machine as usize]
                    .as_mut()
                    .expect("measured containers carry machines");
                let pm_extra = if pm_parked { m.restore_from_pm() } else { 0 };
                let stats = m.invoke();
                (
                    stats.total_cycles().raw() + refault + pm_extra,
                    m.serving_peak_pages(),
                )
            }
            Costs::Profiled(costs) => {
                let p = &costs[workload as usize];
                let base = if pm_parked {
                    p.pm_restore_cycles
                } else {
                    p.warm_cycles
                };
                (base + refault, p.active_frames)
            }
        }
    }

    /// Parks the container (sheds the pool's free reserve on Measured
    /// machines) and returns its idle-warm unreclaimable footprint.
    fn park_idle(&mut self, slot: u32) -> u64 {
        let (workload, machine) = {
            let c = &self.slots[slot as usize];
            (c.workload, c.machine)
        };
        match &self.costs {
            Costs::Measured(_) => {
                let m = self.machine_mut(machine);
                m.park();
                m.unreclaimable_pages()
            }
            Costs::Profiled(costs) => costs[workload as usize].idle_frames,
        }
    }

    /// Non-mutating ground-truth recount for the drain audit. Idle
    /// containers were parked when they went warm, so on Measured machines
    /// this reads the same unreclaimable count `park_idle` charged. A
    /// squeezed container is held at its squeeze floor — that *is* the
    /// ground truth while pressure reclamation has its data pages.
    fn idle_frames(&self, slot: u32) -> u64 {
        let c = &self.slots[slot as usize];
        if c.squeezed {
            return c.squeeze_floor;
        }
        // A PM-parked container's image and working set live in PM, not
        // DRAM — that *is* the ground truth while it sits parked.
        if c.pm_parked {
            return match &self.costs {
                Costs::Measured(_) => 0,
                Costs::Profiled(costs) => costs[c.workload as usize].pm_idle_frames,
            };
        }
        match &self.costs {
            Costs::Measured(_) => self.machine(c.machine).unreclaimable_pages(),
            Costs::Profiled(costs) => costs[c.workload as usize].idle_frames,
        }
    }

    /// Parks an idle container to persistent memory: checkpoints its
    /// Memento state (Measured machines run the real crash-consistent
    /// protocol, audit included when the sanitizer is on; Profiled replays
    /// the calibrated costs) and drops its DRAM contribution to the PM
    /// idle footprint. The persist cycles are background PM write traffic,
    /// accumulated off the latency path.
    fn park_to_pm_slot(&mut self, slot: u32) {
        let (persist, pm_idle) = match &self.costs {
            Costs::Measured(_) => {
                let machine = self.slots[slot as usize].machine;
                let m = self.machine_mut(machine);
                // Seed the crash-injection audit from the container's own
                // checkpoint history — deterministic and independent of other containers.
                let seed = m.pm_sealed_epoch().map(|e| e.raw()).unwrap_or(0);
                (m.park_to_pm(seed), 0)
            }
            Costs::Profiled(costs) => {
                let p = &costs[self.slots[slot as usize].workload as usize];
                (p.pm_persist_cycles, p.pm_idle_frames)
            }
        };
        self.pm_persist_cycles += persist;
        self.pm_parks += 1;
        self.slots[slot as usize].pm_parked = true;
        self.set_contrib(slot, pm_idle);
    }

    /// Squeezy-style pressure pass: while the fleet footprint sits above
    /// the watermark, squeeze idle-warm containers (warm-matrix index
    /// order — deterministic) down to their unreclaimable floor. The
    /// squeezed container stays warm; its next warm start repays the
    /// evicted frames through [`Self::invoke_warm`]'s re-fault bill.
    fn squeeze_pass(&mut self) {
        let Reclamation::Squeeze { watermark_frames } = self.cfg.reclamation else {
            return;
        };
        if self.fleet_now <= watermark_frames {
            return;
        }
        for widx in 0..self.warm.len() {
            let slot = self.warm[widx];
            if slot == NO_WARM || self.slots[slot as usize].squeezed {
                continue;
            }
            self.squeeze(slot);
            if self.fleet_now <= watermark_frames {
                return;
            }
        }
    }

    fn squeeze(&mut self, slot: u32) {
        let (floor, refault) = match &self.costs {
            Costs::Profiled(costs) => {
                let c = &self.slots[slot as usize];
                let p = &costs[c.workload as usize];
                (
                    p.squeeze_floor_frames.min(c.contrib),
                    p.squeeze_refault_cycles,
                )
            }
            Costs::Measured(_) => {
                let c = &self.slots[slot as usize];
                let m = self.machine(c.machine);
                let idle = c.contrib;
                let floor = m.squeeze_floor_pages().min(idle);
                (floor, (idle - floor) * m.squeeze_refault_unit_cycles())
            }
        };
        let c = &mut self.slots[slot as usize];
        c.squeezed = true;
        c.squeeze_floor = floor;
        c.squeeze_refault = refault;
        self.squeezed += 1;
        self.set_contrib(slot, floor);
    }

    fn set_contrib(&mut self, slot: u32, new: u64) {
        let c = &mut self.slots[slot as usize];
        if new == c.contrib {
            return;
        }
        self.fleet_now = self.fleet_now - c.contrib + new;
        c.contrib = new;
        self.peak_dirty = true;
        if self.record_timeline {
            match self.timeline.last_mut() {
                Some((t, v)) if *t == self.now => *v = self.fleet_now,
                _ => self.timeline.push((self.now, self.fleet_now)),
            }
        }
    }

    /// One autoscaler controller tick: size the committed fleet so
    /// in-flight work tracks the target utilization of active serving
    /// capacity, then re-arm while work remains.
    fn on_tick(&mut self, more: bool) {
        let Autoscaler::TargetUtilization(ac) = self.cfg.autoscaler else {
            debug_assert!(false, "tick fired without an autoscaler");
            return;
        };
        // want = ceil(in_flight / (cores_per_node × target%)) nodes,
        // clamped to the controller's range. Integer arithmetic only.
        let capacity_unit = (self.cfg.cores_per_node as u64 * ac.target_load_pct).max(1);
        let want = (self.in_flight * 100)
            .div_ceil(capacity_unit)
            .clamp(ac.min_nodes as u64, ac.max_nodes as u64) as usize;
        while self.active_committed < want && self.scale_up_one() {}
        while self.active_committed > want && self.scale_down_one() {}
        self.next_tick = if more {
            (self.now + ac.interval_cycles, self.alloc_seq())
        } else {
            NO_EVENT
        };
    }

    /// Commits one more node: reactivate a draining node (still warm, no
    /// delay) if one exists, else boot the lowest-numbered off node after
    /// the spin-up delay. Returns false when no node is available.
    fn scale_up_one(&mut self) -> bool {
        let Autoscaler::TargetUtilization(ac) = self.cfg.autoscaler else {
            return false;
        };
        if let Some(node) =
            (0..self.nodes.len()).find(|&n| self.node_state[n] == NodeState::Draining)
        {
            self.node_state[node] = NodeState::Active;
        } else if let Some(node) =
            (0..self.nodes.len()).find(|&n| self.node_state[n] == NodeState::Off)
        {
            self.node_state[node] = NodeState::Booting;
            let seq = self.alloc_seq();
            // lint:allow(narrowing-cast-in-hot-path): node indexes max_nodes <= 2^16
            let node = node as u32;
            self.boots
                .push_back((self.now + ac.spinup_cycles, seq, node));
        } else {
            return false;
        }
        self.scale_ups += 1;
        self.active_committed += 1;
        self.peak_active_nodes = self.peak_active_nodes.max(self.active_committed as u64);
        true
    }

    /// Uncommits one node: the highest-numbered active node drains (no
    /// new placements; it finishes queued/in-flight work, then turns
    /// off). Returns false when only booting nodes remain to uncommit —
    /// a boot in flight is left to land rather than cancelled.
    fn scale_down_one(&mut self) -> bool {
        let Some(node) = (0..self.nodes.len())
            .rev()
            .find(|&n| self.node_state[n] == NodeState::Active)
        else {
            return false;
        };
        self.node_state[node] = NodeState::Draining;
        self.scale_downs += 1;
        self.active_committed -= 1;
        if self.load[node] == 0 {
            self.node_off(node);
        }
        true
    }

    /// A booted node joins the active set.
    fn on_boot(&mut self, node: usize) {
        debug_assert_eq!(
            self.node_state[node],
            NodeState::Booting,
            "boot events only land on booting nodes"
        );
        self.node_state[node] = NodeState::Active;
    }

    /// Powers a drained node off, retiring its idle-warm containers. The
    /// retirements bump each slot's generation, so any keep-alive expiry
    /// still queued for those containers lands stale and no-ops — the
    /// slab machinery, not the event queue, keeps scale-down safe.
    fn node_off(&mut self, node: usize) {
        debug_assert_eq!(self.load[node], 0, "node_off requires a drained node");
        for workload in 0..self.mix.len() {
            // lint:allow(narrowing-cast-in-hot-path): workload ids index the mix table, far below 2^32
            let widx = self.warm_idx(workload as u32, node);
            let slot = self.warm[widx];
            if slot != NO_WARM {
                self.warm[widx] = NO_WARM;
                self.retire(slot);
            }
        }
        self.node_state[node] = NodeState::Off;
    }

    /// Folds the settled footprint at the just-finished instant into the
    /// peak. Sampling at instant boundaries (instead of after every
    /// individual contribution change) makes the peak independent of how
    /// same-instant events interleave, and equal to the highest level the
    /// timeline records.
    fn settle_peak(&mut self) {
        if self.peak_dirty {
            if self.fleet_now > self.fleet_peak {
                self.fleet_peak = self.fleet_now;
            }
            self.peak_dirty = false;
        }
    }

    /// True when a scheduled expiry still refers to the container state it
    /// was scheduled against (same tenancy, not reused since).
    #[inline]
    fn expiry_live(&self, ev: ExpiryEv) -> bool {
        match self.slots.get(ev.slot as usize) {
            Some(c) => c.live && c.gen == ev.gen && c.token == ev.token,
            None => false,
        }
    }

    /// Re-derives `next_expiry` after a pop, skimming entries that went
    /// stale while queued instead of paying an event dispatch each. Safe
    /// because staleness is permanent (`gen`/`token` only move forward)
    /// and a stale expiry's handler observes nothing and mutates nothing.
    /// Skimmed entries never advance the clock either: under constant
    /// TTLs push times are monotone, so the last-fired expiry is always
    /// live; under size-aware TTLs a skimmed trailing entry simply never
    /// becomes part of the run — the defined (and still deterministic)
    /// semantics of that policy. Each entry is checked at most once here;
    /// one that goes stale *after* being cached is dispatched normally
    /// and no-ops in [`Self::on_expiry`].
    fn advance_next_expiry(&mut self) {
        loop {
            match self.expiries.peek() {
                Some((t, s, ev)) => {
                    if self.expiry_live(ev) {
                        self.next_expiry = (t, s);
                        return;
                    }
                    self.expiries.pop();
                }
                None => {
                    self.next_expiry = NO_EXPIRY;
                    return;
                }
            }
        }
    }

    /// Recomputes `done_min` by scanning the per-lane completion keys.
    /// Called once per completion (after clearing that lane); the `IDLE`
    /// sentinel is `(u64::MAX, u64::MAX)`, so an all-idle fleet settles
    /// back to `done_min == IDLE` with no special case.
    fn rescan_done_min(&mut self) {
        // Branchless select: completion times are unpredictable, so a
        // conditional move beats a data-dependent branch per lane.
        let mut min = IDLE;
        let mut min_lane = 0u32;
        for (i, &key) in self.done.iter().enumerate() {
            let better = key < min;
            min = if better { key } else { min };
            // lint:allow(narrowing-cast-in-hot-path): i indexes nodes * cores_per_node, far below 2^32
            min_lane = if better { i as u32 } else { min_lane };
        }
        self.done_min = min;
        self.done_min_lane = min_lane;
    }

    fn on_completion(&mut self, lane: usize) {
        debug_assert_ne!(self.done[lane], IDLE, "completion fired on an idle lane");
        let node = lane / self.cfg.cores_per_node;
        let inflight = self.serving[lane];
        let slot = inflight.slot;
        debug_assert_eq!(self.done[lane].0, self.now, "completion fired off-time");
        debug_assert_eq!(
            self.done_min_lane as usize, lane,
            "completions fire on the cached minimum"
        );
        self.done[lane] = IDLE;
        self.rescan_done_min();
        self.load[node] -= 1;
        self.completed += 1;
        self.in_flight -= 1;
        let latency = self.now - inflight.arrive_time;
        self.latencies.push(latency);
        self.latency_hist.record(latency);

        // The container goes idle-warm: park it (shed the pool's free
        // reserve back to the OS) and charge only what stays
        // unreclaimable, then let the keep-alive policy decide its fate.
        let idle = self.park_idle(slot);
        self.set_contrib(slot, idle);
        let widx = self.warm_idx(inflight.workload, node);
        match self.cfg.keep_alive {
            KeepAlive::None => self.retire(slot),
            KeepAlive::Fixed(d) => {
                let c = &self.slots[slot as usize];
                let (gen, token) = (c.gen, c.token);
                let old = std::mem::replace(&mut self.warm[widx], slot);
                if old != NO_WARM {
                    self.retire(old);
                }
                let seq = self.alloc_seq();
                let at = self.now + d;
                self.expiries
                    .push_at(at, seq, ExpiryEv { slot, gen, token });
                if (at, seq) < self.next_expiry {
                    self.next_expiry = (at, seq);
                }
            }
            KeepAlive::Infinite => {
                let old = std::mem::replace(&mut self.warm[widx], slot);
                if old != NO_WARM {
                    self.retire(old);
                }
            }
            KeepAlive::ParkToPM { ttl_cycles } => {
                // Park the idle container's state into persistent memory:
                // near-zero DRAM while idle, a calibrated PM restore on
                // the next hit, eviction when the retention TTL lapses.
                // Constant TTL keeps the expiry FIFO fast path.
                self.park_to_pm_slot(slot);
                let c = &self.slots[slot as usize];
                let (gen, token) = (c.gen, c.token);
                let old = std::mem::replace(&mut self.warm[widx], slot);
                if old != NO_WARM {
                    self.retire(old);
                }
                let seq = self.alloc_seq();
                let at = self.now + ttl_cycles;
                self.expiries
                    .push_at(at, seq, ExpiryEv { slot, gen, token });
                if (at, seq) < self.next_expiry {
                    self.next_expiry = (at, seq);
                }
            }
            KeepAlive::SizeAware {
                budget_frame_cycles,
                min_cycles,
                max_cycles,
            } => {
                // KiSS-style: TTL inversely proportional to the parked
                // footprint — big containers make way first. Variable
                // TTLs push out of FIFO order; the expiry queue's heap
                // spill absorbs them.
                let c = &self.slots[slot as usize];
                let (gen, token) = (c.gen, c.token);
                let old = std::mem::replace(&mut self.warm[widx], slot);
                if old != NO_WARM {
                    self.retire(old);
                }
                let ttl = (budget_frame_cycles / idle.max(1)).clamp(min_cycles, max_cycles);
                let seq = self.alloc_seq();
                let at = self.now + ttl;
                self.expiries
                    .push_at(at, seq, ExpiryEv { slot, gen, token });
                if (at, seq) < self.next_expiry {
                    self.next_expiry = (at, seq);
                }
            }
        }

        // Pull the next queued request onto the lane that just freed,
        // warm-starting on the container we just parked if the workload
        // matches. A draining node that just went empty powers off
        // instead.
        if let Some(q) = self.nodes[node].queue.pop_front() {
            self.queue_wait_hist.record(self.now - q.time);
            self.start_service(lane, q.time, q.workload);
        } else if self.node_state[node] == NodeState::Draining && self.load[node] == 0 {
            self.node_off(node);
        }
    }

    fn on_expiry(&mut self, slot: u32, gen: u32, token: u32) {
        let Some(c) = self.slots.get(slot as usize) else {
            return;
        };
        if !c.live || c.gen != gen {
            return; // retired (and possibly recycled) since scheduling
        }
        if c.token != token {
            return; // reused since this expiry was scheduled
        }
        let widx = self.warm_idx(c.workload, c.node as usize);
        debug_assert_eq!(
            self.warm[widx], slot,
            "token-valid expiry must find the container idle-warm"
        );
        self.warm[widx] = NO_WARM;
        self.expired += 1;
        self.retire(slot);
    }

    /// Folds a machine's sanitizer report into the fleet-level audit
    /// accumulator (no-op when the sanitizer is off).
    fn absorb_machine_report(&mut self, report: Option<memento_sanitizer::SanitizerReport>) {
        let Some(r) = report else { return };
        self.machine_audit.violations.extend(r.violations);
        self.machine_audit.events += r.events;
        self.machine_audit.ops += r.ops;
        self.machine_audit.audits += r.audits;
        self.machine_audit.oracle_ops += r.oracle_ops;
    }

    fn retire(&mut self, slot: u32) {
        self.set_contrib(slot, 0);
        let c = &mut self.slots[slot as usize];
        debug_assert!(c.live, "retire targets a live container");
        c.live = false;
        c.squeezed = false;
        c.pm_parked = false;
        c.gen = c.gen.wrapping_add(1);
        let machine = std::mem::replace(&mut c.machine, NO_MACHINE);
        if machine != NO_MACHINE {
            let m = self.machines[machine as usize]
                .take()
                .expect("measured containers carry machines");
            let (_, report) = m.finish_with_report();
            self.absorb_machine_report(report);
            self.machine_free.push(machine);
        }
        self.free.push(slot);
        self.live_count -= 1;
        self.retired += 1;
    }

    fn finish(mut self) -> ClusterResult {
        let _prof = selfprof::span("cluster.sim.finish");
        self.settle_peak();
        debug_assert!(
            self.done.iter().all(|&d| d == IDLE) && self.nodes.iter().all(|n| n.queue.is_empty()),
            "drained fleet must be quiescent"
        );
        let mut auditor = FleetAuditor::new();
        auditor.audit_invocations(
            self.next_seq,
            InvocationCounts {
                submitted: self.submitted,
                completed: self.completed,
                rejected: self.rejected,
                in_flight: self.in_flight,
            },
            true,
        );
        // Recount from the engine's ground truth, not from `contrib` —
        // this is what catches incremental-accounting drift.
        // lint:allow(narrowing-cast-in-hot-path): slot count is bounded by live containers < 2^32
        let live: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|s| self.slots[*s as usize].live)
            .collect();
        let per_node: Vec<(usize, u64)> = live
            .into_iter()
            .map(|slot| {
                (
                    self.slots[slot as usize].node as usize,
                    self.idle_frames(slot),
                )
            })
            .collect();
        auditor.audit_fleet_frames(self.next_seq, self.fleet_now, per_node);
        if !matches!(self.cfg.autoscaler, Autoscaler::None) {
            // Scale-up/down hygiene: a node outside the active set must
            // hold nothing (scale-down retired its warm pool; the slab's
            // generation tags kept stale expiries inert).
            let mut warm_counts = vec![0u64; self.nodes.len()];
            for &slot in &self.warm {
                if slot != NO_WARM {
                    warm_counts[self.slots[slot as usize].node as usize] += 1;
                }
            }
            auditor.audit_node_lifecycle(
                self.next_seq,
                (0..self.nodes.len()).map(|n| {
                    (
                        n,
                        self.node_state[n] == NodeState::Active,
                        self.load[n] as u64,
                        warm_counts[n],
                    )
                }),
            );
        }

        // Machines still live at drain keep their sanitizer findings too:
        // fold them in so fleet cleanliness covers every container, not
        // just the retired ones.
        for slot in 0..self.slots.len() {
            let (live, machine) = (self.slots[slot].live, self.slots[slot].machine);
            if live && machine != NO_MACHINE {
                let report = self.machine(machine).machine().sanitizer_report().cloned();
                self.absorb_machine_report(report);
            }
        }

        let mut metrics = MetricsRegistry::new();
        metrics.add("cluster.submitted", self.submitted);
        metrics.add("cluster.completed", self.completed);
        metrics.add("cluster.rejected", self.rejected);
        metrics.add("cluster.cold_starts", self.cold_starts);
        metrics.add("cluster.warm_starts", self.warm_starts);
        metrics.add("cluster.expired", self.expired);
        // Region-layer metrics are emitted only when their feature is on,
        // so the default fixed-fleet render stays byte-identical.
        if self.cfg.cold_start == ColdStart::Snapshot {
            metrics.add("cluster.restores", self.restores);
        }
        if !matches!(self.cfg.reclamation, Reclamation::None) {
            metrics.add("cluster.squeezed", self.squeezed);
        }
        if matches!(self.cfg.keep_alive, KeepAlive::ParkToPM { .. }) {
            metrics.add("cluster.pm_parks", self.pm_parks);
            metrics.add("cluster.pm_restores", self.pm_restores);
            metrics.add("cluster.pm_persist_cycles", self.pm_persist_cycles);
        }
        if !matches!(self.cfg.autoscaler, Autoscaler::None) {
            metrics.add("cluster.scale_ups", self.scale_ups);
            metrics.add("cluster.scale_downs", self.scale_downs);
            metrics.set("cluster.peak_active_nodes", self.peak_active_nodes);
        }
        metrics.set("cluster.peak_fleet_frames", self.fleet_peak);
        metrics.set("cluster.final_fleet_frames", self.fleet_now);
        metrics.set("cluster.makespan_cycles", self.now);
        for (node, count) in self.node_invocations.iter().enumerate() {
            metrics.set(&format!("cluster.node{node:03}.invocations"), *count);
        }
        metrics.set_hist("cluster.latency_cycles", self.latency_hist.clone());
        metrics.set_hist("cluster.queue_wait_cycles", self.queue_wait_hist.clone());

        radix_sort_u64(&mut self.latencies);
        // lint:allow(btreemap-in-hot-path): drain-time fold of a 2-entry array
        let mut rejected_by = BTreeMap::new();
        for (i, reason) in REJECT_REASONS.iter().enumerate() {
            if self.rejected_by[i] > 0 {
                rejected_by.insert(*reason, self.rejected_by[i]);
            }
        }
        let mut audit = auditor.into_report();
        audit.violations.extend(self.machine_audit.violations);
        audit.events += self.machine_audit.events;
        audit.ops += self.machine_audit.ops;
        audit.audits += self.machine_audit.audits;
        audit.oracle_ops += self.machine_audit.oracle_ops;

        ClusterResult {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            rejected_by,
            cold_starts: self.cold_starts,
            warm_starts: self.warm_starts,
            expired: self.expired,
            retired: self.retired,
            live_containers: self.live_count,
            restores: self.restores,
            squeezed: self.squeezed,
            pm_parks: self.pm_parks,
            pm_restores: self.pm_restores,
            peak_active_nodes: self.peak_active_nodes,
            makespan_cycles: self.now,
            peak_fleet_frames: self.fleet_peak,
            final_fleet_frames: self.fleet_now,
            timeline: self.timeline,
            latencies: self.latencies,
            metrics,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{generate_arrivals, ArrivalConfig};
    use crate::policy::AutoscalerConfig;
    use crate::profile::ServiceProfile;
    use memento_workloads::suite;

    fn small_spec(name: &str) -> memento_workloads::spec::WorkloadSpec {
        let mut s = suite::by_name(name).expect("known workload");
        s.total_instructions = 200_000;
        s
    }

    fn synthetic_table(mix: &WorkloadMix) -> ProfileTable {
        // Hand-built profiles keep unit tests fast and make the expected
        // dynamics easy to reason about.
        let mut t = ProfileTable::new();
        for (i, spec) in mix.specs().iter().enumerate() {
            t.insert(ServiceProfile {
                workload: spec.name.clone(),
                cold_cycles: 100_000 + 10_000 * i as u64,
                warm_cycles: 10_000 + 1_000 * i as u64,
                active_frames: 200 + 10 * i as u64,
                idle_frames: 40 + 2 * i as u64,
                restore_cycles: 30_000 + 3_000 * i as u64,
                squeeze_floor_frames: 10 + i as u64,
                squeeze_refault_cycles: 5_000 + 500 * i as u64,
                pm_restore_cycles: 20_000 + 2_000 * i as u64,
                pm_persist_cycles: 8_000 + 800 * i as u64,
                pm_idle_frames: 0,
            });
        }
        t
    }

    fn two_mix() -> WorkloadMix {
        WorkloadMix::uniform(vec![small_spec("aes"), small_spec("html")]).expect("non-empty")
    }

    fn run_profiled(
        cfg: &ClusterConfig,
        arrival: &ArrivalConfig,
        mix: &WorkloadMix,
    ) -> ClusterResult {
        let arrivals = generate_arrivals(arrival, mix).expect("valid arrivals");
        simulate(Engine::Profiled(synthetic_table(mix)), cfg, mix, &arrivals)
            .expect("valid cluster run")
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            vec![0, 0, 0],
            vec![u64::MAX, 0, u64::MAX - 1, 1],
            vec![256, 1, 65536, 255, 257, 65535, 1 << 40, (1 << 40) - 1],
            (0..10_000u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
                .collect(),
        ];
        for mut v in cases {
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_u64(&mut v);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn drains_conserves_and_audits_clean() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 4,
            queue_capacity: 8,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 11,
            count: 2_000,
            mean_interarrival_cycles: 4_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.submitted, 2_000);
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "fleet audits must pass: {}", r.audit);
        assert_eq!(r.latencies.len() as u64, r.completed);
        assert_eq!(r.cold_starts + r.warm_starts, r.completed);
        assert!(r.peak_fleet_frames >= r.final_fleet_frames);
        assert!(r.metrics.counter("cluster.completed") == r.completed);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let mix = two_mix();
        let cfg = ClusterConfig::default();
        let arrival = ArrivalConfig {
            seed: 5,
            count: 1_500,
            mean_interarrival_cycles: 3_000.0,
        };
        let a = run_profiled(&cfg, &arrival, &mix);
        let b = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.peak_fleet_frames, b.peak_fleet_frames);
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.metrics.render(), b.metrics.render());
    }

    #[test]
    fn keep_alive_none_always_cold_starts() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 9,
            count: 400,
            mean_interarrival_cycles: 50_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.warm_starts, 0, "no warm pool, no warm starts");
        assert_eq!(r.cold_starts, r.completed);
        assert_eq!(r.final_fleet_frames, 0, "every container torn down");
        assert_eq!(r.live_containers, 0);
        assert!(r.is_clean());
    }

    #[test]
    fn infinite_keep_alive_maximises_warm_starts_and_footprint() {
        let mix = two_mix();
        let sparse = ArrivalConfig {
            seed: 9,
            count: 400,
            mean_interarrival_cycles: 50_000.0,
        };
        let infinite = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                ..ClusterConfig::default()
            },
            &sparse,
            &mix,
        );
        let short = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Fixed(10_000),
                ..ClusterConfig::default()
            },
            &sparse,
            &mix,
        );
        assert!(
            infinite.warm_starts > short.warm_starts,
            "infinite keep-alive must reuse more: {} vs {}",
            infinite.warm_starts,
            short.warm_starts
        );
        assert!(infinite.final_fleet_frames >= short.final_fleet_frames);
        assert_eq!(
            short.expired, short.retired,
            "short keep-alive retires only via expiry"
        );
        assert!(infinite.is_clean() && short.is_clean());
    }

    #[test]
    fn bounded_queues_reject_under_overload() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 2,
            ..ClusterConfig::default()
        };
        // Offered load far beyond 2 nodes' service capacity.
        let arrival = ArrivalConfig {
            seed: 3,
            count: 3_000,
            mean_interarrival_cycles: 100.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.rejected > 0, "overload must produce rejections");
        assert_eq!(
            r.rejected,
            r.rejected_by.values().sum::<u64>(),
            "every rejection carries a typed reason"
        );
        assert!(r.rejected_by.contains_key(&RejectReason::ClusterSaturated));
        assert!(r.is_clean());
    }

    #[test]
    fn round_robin_rejects_locally_and_spreads_load() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 3,
            queue_capacity: 1,
            placement: Placement::RoundRobin,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 21,
            count: 2_000,
            mean_interarrival_cycles: 200.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        if r.rejected > 0 {
            assert!(r.rejected_by.contains_key(&RejectReason::QueueFull));
        }
        let counts: Vec<u64> = (0..3)
            .map(|i| {
                r.metrics
                    .counter(&format!("cluster.node{i:03}.invocations"))
            })
            .collect();
        assert!(counts.iter().all(|c| *c > 0), "round robin uses every node");
        assert!(r.is_clean());
    }

    #[test]
    fn measured_engine_small_fleet_is_exact_and_clean() {
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 17,
            count: 12,
            mean_interarrival_cycles: 200_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 12);
        assert!(
            r.warm_starts > 0,
            "infinite keep-alive on a tiny fleet must reuse"
        );
        assert!(
            r.final_fleet_frames > 0,
            "warm containers keep frames resident"
        );
        assert!(
            r.is_clean(),
            "measured-engine audits must pass: {}",
            r.audit
        );
    }

    #[test]
    fn missing_profile_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 10,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let err = simulate(
            Engine::Profiled(ProfileTable::new()),
            &ClusterConfig::default(),
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert!(matches!(err, ClusterError::MissingProfile(_)));
        let err = simulate(
            Engine::Profiled(ProfileTable::new()),
            &ClusterConfig {
                nodes: 0,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::NoNodes);
    }

    #[test]
    fn peak_is_the_highest_settled_timeline_level() {
        // The timeline records one settled level per instant, so the peak
        // must be its maximum and the drain footprint its last entry, for
        // single- and multi-lane round-robin nodes and for least-loaded
        // placement alike.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 41,
            count: 4_000,
            mean_interarrival_cycles: 1_200.0,
        };
        let base = ClusterConfig {
            nodes: 5,
            queue_capacity: 2,
            placement: Placement::RoundRobin,
            keep_alive: KeepAlive::Fixed(30_000),
            ..ClusterConfig::default()
        };
        let configs = [
            base.clone(),
            ClusterConfig {
                cores_per_node: 3,
                ..base.clone()
            },
            ClusterConfig {
                placement: Placement::LeastLoaded,
                ..base
            },
        ];
        for cfg in &configs {
            let r = run_profiled(cfg, &arrival, &mix);
            let label = format!("{:?} x{} cores", cfg.placement, cfg.cores_per_node);
            assert!(
                r.timeline.windows(2).all(|w| w[0].0 < w[1].0),
                "{label}: timeline instants must strictly increase"
            );
            let highest = r.timeline.iter().map(|&(_, f)| f).max();
            assert_eq!(Some(r.peak_fleet_frames), highest, "{label}");
            let last = r.timeline.last().map(|&(_, f)| f);
            assert_eq!(Some(r.final_fleet_frames), last, "{label}");
            assert!(r.is_clean(), "{label}: {}", r.audit);
        }
    }

    #[test]
    fn slab_recycles_slots_without_resurrecting_expiries() {
        // KeepAlive::None churns containers hard: every completion
        // retires its slot, so the free list recycles constantly. The
        // drain audit plus conservation checks catch any slot aliasing.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 13,
            count: 1_000,
            mean_interarrival_cycles: 2_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.retired, r.completed, "every served container retires");
        assert_eq!(r.live_containers, 0);
        assert!(r.is_clean(), "slab churn must stay conservation-clean");
    }

    #[test]
    fn multi_core_nodes_absorb_overload() {
        // Same saturating arrival stream over the same two nodes: four
        // serving lanes per node must complete more, reject less, and
        // finish no later than one lane per node.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 3,
            count: 3_000,
            mean_interarrival_cycles: 100.0,
        };
        let narrow = ClusterConfig {
            nodes: 2,
            queue_capacity: 2,
            ..ClusterConfig::default()
        };
        let wide = ClusterConfig {
            cores_per_node: 4,
            ..narrow.clone()
        };
        let one = run_profiled(&narrow, &arrival, &mix);
        let four = run_profiled(&wide, &arrival, &mix);
        assert!(
            four.completed > one.completed,
            "4 lanes/node must serve more: {} vs {}",
            four.completed,
            one.completed
        );
        assert!(four.rejected < one.rejected);
        assert_eq!(four.submitted, four.completed + four.rejected);
        assert!(
            four.peak_fleet_frames >= one.peak_fleet_frames,
            "more concurrently-serving containers cannot shrink the peak"
        );
        assert!(
            four.is_clean(),
            "multi-lane audits must pass: {}",
            four.audit
        );
    }

    #[test]
    fn measured_multi_core_nodes_run_exact_and_clean() {
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 1,
            queue_capacity: 8,
            cores_per_node: 2,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        // A burst denser than one container's service time forces both
        // lanes of the single node to serve concurrently.
        let arrival = ArrivalConfig {
            seed: 17,
            count: 8,
            mean_interarrival_cycles: 20_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 8);
        assert!(
            r.peak_fleet_frames > 0,
            "serving containers charge the fleet footprint"
        );
        assert!(r.is_clean(), "measured multi-core audits: {}", r.audit);
    }

    #[test]
    fn zero_cores_per_node_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 4,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let err = simulate(
            Engine::Profiled(synthetic_table(&mix)),
            &ClusterConfig {
                cores_per_node: 0,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::NoNodes);
        let err = simulate(
            Engine::Profiled(synthetic_table(&mix)),
            &ClusterConfig {
                cores_per_node: 1 << 9,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::FleetTooLarge);
    }

    #[test]
    fn short_expiry_reuse_races_stay_clean() {
        // A keep-alive barely longer than the warm service time maximises
        // the token/generation races between scheduled expiries, warm
        // reuse, and slot recycling.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::Fixed(15_000),
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 29,
            count: 3_000,
            mean_interarrival_cycles: 9_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.warm_starts > 0, "some reuse must happen");
        assert!(r.expired > 0, "some expiries must land");
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "expiry races must stay clean: {}", r.audit);
    }

    #[test]
    fn snapshot_restores_land_between_warm_and_cold() {
        // KeepAlive::None forces every start down the cold path; with
        // sparse arrivals there is no queueing, so each latency equals the
        // start cost exactly: restore_cycles under Snapshot, cold_cycles
        // under Boot, both bracketed by the profile's warm/cold costs.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 7,
            count: 300,
            mean_interarrival_cycles: 500_000.0,
        };
        let base = ClusterConfig {
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let boot = run_profiled(&base, &arrival, &mix);
        let snap = run_profiled(
            &ClusterConfig {
                cold_start: ColdStart::Snapshot,
                ..base
            },
            &arrival,
            &mix,
        );
        assert_eq!(snap.restores, snap.completed, "every start restored");
        assert_eq!(boot.restores, 0, "boot path never restores");
        let table = synthetic_table(&mix);
        let (warm_max, cold_min) = mix.specs().iter().fold((0u64, u64::MAX), |(w, c), s| {
            let p = table.get(&s.name).unwrap();
            (w.max(p.warm_cycles), c.min(p.cold_cycles))
        });
        for &lat in &snap.latencies {
            assert!(
                lat > warm_max && lat < cold_min,
                "restore latency {lat} must land strictly between warm ({warm_max}) and cold ({cold_min})"
            );
        }
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        assert!(
            sum(&snap.latencies) < sum(&boot.latencies),
            "snapshot restores must beat cold boots in aggregate"
        );
        assert_eq!(
            snap.metrics.counter("cluster.restores"),
            snap.restores,
            "restore counter must be surfaced"
        );
        assert!(snap.is_clean() && boot.is_clean());
    }

    #[test]
    fn park_to_pm_trades_restore_latency_for_idle_footprint() {
        // Against an infinite warm pool, park-to-PM must (a) hold a far
        // smaller resident fleet while idle and (b) pay for it with PM
        // restore premiums on warm hits — never with lost work.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 29,
            count: 800,
            mean_interarrival_cycles: 40_000.0,
        };
        let base = ClusterConfig {
            nodes: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let warm_pool = run_profiled(&base, &arrival, &mix);
        let pm = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::ParkToPM {
                    ttl_cycles: 1 << 40,
                },
                ..base
            },
            &arrival,
            &mix,
        );
        assert_eq!(pm.completed, warm_pool.completed, "no work lost");
        assert_eq!(pm.pm_parks, pm.completed, "every completion parks");
        assert_eq!(pm.pm_restores, pm.warm_starts, "every warm hit restores");
        assert!(pm.pm_restores > 0, "the parked pool must get hits");
        assert!(
            pm.final_fleet_frames < warm_pool.final_fleet_frames / 4,
            "parked images must shed the DRAM warm pool: {} vs {}",
            pm.final_fleet_frames,
            warm_pool.final_fleet_frames
        );
        assert!(
            pm.latencies.iter().sum::<u64>() > warm_pool.latencies.iter().sum::<u64>(),
            "PM restores cost more than staying warm"
        );
        assert_eq!(pm.metrics.counter("cluster.pm_parks"), pm.pm_parks);
        assert_eq!(pm.metrics.counter("cluster.pm_restores"), pm.pm_restores);
        assert!(
            pm.metrics.counter("cluster.pm_persist_cycles") > 0,
            "background persist traffic is surfaced"
        );
        assert_eq!(
            warm_pool.metrics.counter("cluster.pm_parks"),
            0,
            "PM metrics stay inert without the policy"
        );
        assert!(pm.is_clean(), "park-to-pm audits: {}", pm.audit);
    }

    #[test]
    fn park_to_pm_retention_ttl_expires_parked_images() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::ParkToPM { ttl_cycles: 30_000 },
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 31,
            count: 400,
            mean_interarrival_cycles: 150_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.expired > 0, "sparse arrivals must outlive the TTL");
        assert!(r.pm_parks > 0);
        assert_eq!(r.live_containers as usize, 0, "short TTL drains the pool");
        assert!(r.is_clean(), "{}", r.audit);
    }

    #[test]
    fn measured_engine_park_to_pm_runs_real_checkpoints() {
        // The Measured engine drives the actual crash-consistent protocol
        // (with the sanitizer's injection audit) on every park.
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::ParkToPM {
                ttl_cycles: 1 << 40,
            },
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 37,
            count: 10,
            mean_interarrival_cycles: 200_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento_sanitized())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 10);
        assert_eq!(r.pm_parks, r.completed);
        assert!(r.pm_restores > 0, "warm hits revive parked machines");
        assert!(
            r.audit.audits > r.pm_parks,
            "machine-level audits (crash injections included) must surface \
             in the fleet report: {} audits",
            r.audit.audits
        );
        assert!(r.is_clean(), "measured park-to-pm audits: {}", r.audit);
    }

    #[test]
    fn zero_park_to_pm_ttl_is_a_typed_error() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            keep_alive: KeepAlive::ParkToPM { ttl_cycles: 0 },
            ..ClusterConfig::default()
        };
        let r = simulate(Engine::Profiled(synthetic_table(&mix)), &cfg, &mix, &[]);
        assert!(
            matches!(r, Err(ClusterError::InvalidKeepAlive(_))),
            "zero TTL must be rejected"
        );
    }

    #[test]
    fn squeeze_reclaims_idle_footprint_under_pressure() {
        // Infinite keep-alive builds a warm pool whose idle footprint
        // exceeds a tight watermark; the squeeze pass must trim idle-warm
        // containers toward their unreclaimable floor and the next warm
        // start must still be served (paying the refault, not a cold
        // boot).
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 19,
            count: 800,
            mean_interarrival_cycles: 40_000.0,
        };
        let base = ClusterConfig {
            nodes: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let lax = run_profiled(&base, &arrival, &mix);
        assert!(lax.final_fleet_frames > 100, "warm pool must build up");
        let squeezed = run_profiled(
            &ClusterConfig {
                reclamation: Reclamation::Squeeze {
                    watermark_frames: 100,
                },
                ..base
            },
            &arrival,
            &mix,
        );
        assert!(squeezed.squeezed > 0, "pressure must squeeze containers");
        assert!(
            squeezed.final_fleet_frames < lax.final_fleet_frames,
            "squeeze must shrink the resident footprint: {} vs {}",
            squeezed.final_fleet_frames,
            lax.final_fleet_frames
        );
        assert_eq!(
            squeezed.completed, lax.completed,
            "reclamation must not drop work"
        );
        assert!(
            squeezed.warm_starts > 0,
            "squeezed containers still serve warm starts"
        );
        assert!(
            squeezed.latencies.iter().sum::<u64>() > lax.latencies.iter().sum::<u64>(),
            "refaulting squeezed frames costs cycles"
        );
        assert!(squeezed.is_clean(), "squeeze audits: {}", squeezed.audit);
    }

    #[test]
    fn autoscaler_tracks_load_up_and_down() {
        // A dense arrival burst against a 1-node floor must spin nodes up
        // (bounded by max_nodes) and drain them back once the burst
        // passes; generation tags keep retired warm pools inert.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 1,
            queue_capacity: 8,
            keep_alive: KeepAlive::Fixed(50_000),
            autoscaler: Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: 20_000,
                target_load_pct: 70,
                min_nodes: 1,
                max_nodes: 6,
                spinup_cycles: 40_000,
            }),
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 31,
            count: 2_000,
            mean_interarrival_cycles: 2_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(
            r.peak_active_nodes > 1,
            "sustained overload must scale the fleet up"
        );
        assert!(r.peak_active_nodes <= 6, "never beyond max_nodes");
        let ups = r.metrics.counter("cluster.scale_ups");
        let downs = r.metrics.counter("cluster.scale_downs");
        assert!(ups > 0, "scale-ups must be recorded");
        assert!(downs > 0, "the drained fleet must scale back down");
        assert!(downs <= ups, "cannot drain more commitments than made");
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "autoscaler audits: {}", r.audit);

        let fixed = run_profiled(
            &ClusterConfig {
                autoscaler: Autoscaler::None,
                ..cfg.clone()
            },
            &arrival,
            &mix,
        );
        assert!(
            r.completed > fixed.completed,
            "extra nodes must absorb load a 1-node fleet rejects: {} vs {}",
            r.completed,
            fixed.completed
        );
    }

    #[test]
    fn size_aware_keep_alive_evicts_large_footprints_sooner() {
        // KiSS-style TTLs are inversely proportional to idle footprint, so
        // against the same trace the size-aware fleet must hold no more
        // resident frames than an infinite pool, while still serving warm
        // starts — and the per-container TTL stays inside [min, max].
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 9,
            count: 600,
            mean_interarrival_cycles: 30_000.0,
        };
        let size_aware = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::SizeAware {
                    budget_frame_cycles: 2_000_000,
                    min_cycles: 10_000,
                    max_cycles: 80_000,
                },
                ..ClusterConfig::default()
            },
            &arrival,
            &mix,
        );
        let infinite = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                ..ClusterConfig::default()
            },
            &arrival,
            &mix,
        );
        assert!(size_aware.warm_starts > 0, "budget must allow some reuse");
        assert!(size_aware.expired > 0, "budget must expire some pools");
        assert!(
            size_aware.final_fleet_frames < infinite.final_fleet_frames,
            "size-aware TTLs must bound the resident footprint: {} vs {}",
            size_aware.final_fleet_frames,
            infinite.final_fleet_frames
        );
        assert!(size_aware.is_clean(), "audits: {}", size_aware.audit);
    }

    #[test]
    fn region_features_combined_conserve_and_stay_deterministic() {
        // Everything at once — autoscaling, snapshot restores, pressure
        // squeezes, and size-aware keep-alive — under a bursty trace:
        // conservation and the fleet audits must hold, and the run must
        // stay byte-identical when repeated.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::SizeAware {
                budget_frame_cycles: 4_000_000,
                min_cycles: 5_000,
                max_cycles: 200_000,
            },
            cold_start: ColdStart::Snapshot,
            reclamation: Reclamation::Squeeze {
                watermark_frames: 150,
            },
            autoscaler: Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: 15_000,
                target_load_pct: 60,
                min_nodes: 1,
                max_nodes: 8,
                spinup_cycles: 30_000,
            }),
            record_timeline: true,
            ..ClusterConfig::default()
        };
        let trace = crate::trace::FlashCrowd {
            base: crate::trace::DiurnalTrace {
                day_cycles: 4_000_000,
                trough_ppm: 100,
                peak_ppm: 900,
            },
            period_cycles: 1_000_000,
            burst_cycles: 120_000,
            multiplier: 4,
        };
        let arrivals = crate::trace::generate_trace(
            &ArrivalConfig {
                seed: 33,
                count: 3_000,
                mean_interarrival_cycles: 6_000.0,
            },
            &mix,
            &trace,
        )
        .expect("valid trace");
        let table = synthetic_table(&mix);
        let a =
            simulate(Engine::Profiled(table.clone()), &cfg, &mix, &arrivals).expect("combined run");
        assert_eq!(a.submitted, a.completed + a.rejected, "conservation");
        assert_eq!(a.completed, a.cold_starts + a.warm_starts);
        assert_eq!(a.cold_starts, a.restores, "snapshot path serves all colds");
        assert!(a.squeezed > 0, "bursty warm pool must hit the watermark");
        assert!(a.peak_active_nodes > 1, "bursts must scale the fleet");
        assert!(a.is_clean(), "combined audits must pass: {}", a.audit);
        let b = simulate(Engine::Profiled(table), &cfg, &mix, &arrivals).expect("repeat run");
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.metrics.render(), b.metrics.render());
    }

    #[test]
    fn invalid_autoscaler_and_keep_alive_are_typed_errors() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 4,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let run = |cfg: ClusterConfig| {
            simulate(
                Engine::Profiled(synthetic_table(&mix)),
                &cfg,
                &mix,
                &arrivals,
            )
            .err()
            .expect("must fail")
        };
        let scaler = |ac: AutoscalerConfig| ClusterConfig {
            autoscaler: Autoscaler::TargetUtilization(ac),
            ..ClusterConfig::default()
        };
        let ok = AutoscalerConfig {
            interval_cycles: 10_000,
            target_load_pct: 70,
            min_nodes: 1,
            max_nodes: 4,
            spinup_cycles: 1_000,
        };
        for bad in [
            AutoscalerConfig {
                interval_cycles: 0,
                ..ok
            },
            AutoscalerConfig {
                target_load_pct: 0,
                ..ok
            },
            AutoscalerConfig { min_nodes: 0, ..ok },
            AutoscalerConfig {
                min_nodes: 5,
                max_nodes: 4,
                ..ok
            },
        ] {
            assert!(
                matches!(run(scaler(bad)), ClusterError::InvalidAutoscaler(_)),
                "{bad:?} must be rejected"
            );
        }
        // A fixed fleet outside the autoscaler's [min, max] band.
        assert!(matches!(
            run(ClusterConfig {
                nodes: 8,
                ..scaler(ok)
            }),
            ClusterError::InvalidAutoscaler(_)
        ));
        for bad in [
            KeepAlive::SizeAware {
                budget_frame_cycles: 0,
                min_cycles: 1,
                max_cycles: 2,
            },
            KeepAlive::SizeAware {
                budget_frame_cycles: 1_000,
                min_cycles: 0,
                max_cycles: 2,
            },
            KeepAlive::SizeAware {
                budget_frame_cycles: 1_000,
                min_cycles: 9,
                max_cycles: 3,
            },
        ] {
            assert!(
                matches!(
                    run(ClusterConfig {
                        keep_alive: bad,
                        ..ClusterConfig::default()
                    }),
                    ClusterError::InvalidKeepAlive(_)
                ),
                "{bad:?} must be rejected"
            );
        }
    }
}
