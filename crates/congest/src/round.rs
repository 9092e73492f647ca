//! The round core: synchronous CONGEST round semantics, defined once.
//!
//! Every bound the paper proves is counted in synchronous rounds, and two
//! executors count them: the in-process [`RoundEngine`](crate::engine)
//! (automata sharded over threads) and the socket coordinator of
//! [`crate::transport`] (automata sharded over processes). Both drive this
//! [`RoundCore`], which owns everything that decides *what a round is*:
//!
//! - the CSR offsets and the flattened reverse-port table;
//! - the double-buffered message arena (one [`Slot`] per edge direction),
//!   the receiver list and its epoch marks;
//! - the wake-driven schedule: the ticking list, the [`TimerHeap`], the
//!   done flags and the O(1) quiescence counter;
//! - the crash schedule, the fault injector and the trace sink;
//! - the [`RunReport`] accounting, peak memory and fast-forward included.
//!
//! The core is generic over the slot payload: the engine queues decoded
//! `P::Msg` values, the coordinator opaque wire frames. Each executor supplies
//! only the compute phase — who runs the automata and how their sends come
//! back — through [`Rounds::execute_round`]: it opens the round with
//! [`RoundCore::begin_round`], hands every staged send before the
//! violation cut to [`RoundCore::deliver`] in ascending `(sender, port)`
//! order and closes the delivery with [`RoundCore::end_delivery`], folds
//! the stepped nodes' [`NodeOutcome`]s in with
//! [`RoundCore::apply_outcomes`], and closes with [`RoundCore::end_round`].
//! [`Rounds::run_to`] is the one run loop.

use kdom_graph::graph::{Graph, NodeId};

use crate::engine::{merge_sorted_dedup, EngineConfig};
use crate::events::TimerHeap;
use crate::faults::FaultInjector;
use crate::report::RunReport;
use crate::sim::{Port, Protocol, SimError, StallReport, Wake};
use crate::trace::{TraceEvent, TraceSink};

/// One arena slot: the message queued on an edge direction plus the
/// number of identical copies the fault injector delivered — duplicates
/// are refcounted here, not deep-cloned.
pub(crate) type Slot<M> = Option<(M, u32)>;

/// What a stepped node needs next: recorded by whoever ran the automaton
/// (an engine worker shard, or a socket worker process) and folded into
/// the schedule by the round core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOutcome {
    /// `is_done()` held after the round: unscheduled until a message
    /// arrives.
    Done,
    /// Not done and ticking: step it next round.
    Tick,
    /// Not done, acts only on messages.
    Sleep,
    /// Not done, timer-armed for the given future round (> now + 1).
    Park(u64),
    /// Crashed: never scheduled by timer again (arrivals still reach it,
    /// and are lost there).
    Crashed,
}

impl NodeOutcome {
    /// The outcome of a node that just executed `round`, from its
    /// [`Protocol::is_done`] and [`Protocol::next_wake`].
    pub(crate) fn of<P: Protocol>(node: &P, round: u64) -> Self {
        if node.is_done() {
            return NodeOutcome::Done;
        }
        match node.next_wake(round) {
            Wake::EveryRound => NodeOutcome::Tick,
            Wake::OnMessage => NodeOutcome::Sleep,
            Wake::At(r) if r > round + 1 => NodeOutcome::Park(r),
            Wake::At(_) => NodeOutcome::Tick,
        }
    }
}

/// The memory model of a run of protocol `P` on `graph`:
/// `(fixed_mem, staged_bytes)`. `fixed_mem` is the run's fixed footprint,
/// from logical lengths and type sizes (not allocator capacities, which
/// scheduling could perturb): the graph CSR, the ids, the offset and
/// reverse-port tables, both message arenas, the per-node schedule state
/// (wake_at 8 + recv_mark 8 + done_flag 1 bytes), and the automata.
/// `staged_bytes` is what one staged send occupies: a packed metadata
/// word plus its message slab slot. Socket workers ship both in their
/// handshake, so the coordinator's `peak_memory_bytes` matches the
/// in-process engine's bit for bit.
pub(crate) fn memory_model<P: Protocol>(graph: &Graph) -> (u64, u64) {
    let n = graph.node_count() as u64;
    let arcs: u64 = graph.nodes().map(|v| graph.degree(v) as u64).sum();
    let usize_b = std::mem::size_of::<usize>() as u64;
    let fixed_mem = graph.memory_bytes()
        + n * 8
        + (n + 1 + arcs) * usize_b
        + 2 * arcs * std::mem::size_of::<Slot<P::Msg>>() as u64
        + n * 17
        + n * std::mem::size_of::<P>() as u64;
    (fixed_mem, 8 + std::mem::size_of::<P::Msg>() as u64)
}

/// The shared round state of one run; see the module docs.
pub(crate) struct RoundCore<'g, M> {
    pub(crate) graph: &'g Graph,
    pub(crate) config: EngineConfig,
    /// CSR offsets: node `v`'s arena slots are `off[v]..off[v + 1]`.
    pub(crate) off: Vec<usize>,
    /// `rev_port[off[v] + p]`: the port of the edge `(v, p)` at its
    /// other endpoint, flattened so delivery is O(1) per message.
    /// `usize::MAX` marks a corrupted, asymmetric topology.
    pub(crate) rev_port: Vec<usize>,
    /// Arena being consumed this round (last round's deliveries).
    pub(crate) inbox: Vec<Slot<M>>,
    /// Arena receiving this round's sends (next round's inbox).
    pub(crate) pending: Vec<Slot<M>>,
    /// Message copies queued in `pending`.
    pending_count: u64,
    /// Epoch stamps marking nodes already in `receivers` this round.
    pub(crate) recv_mark: Vec<u64>,
    /// Nodes with queued messages in `pending`, in delivery order
    /// (sorted on demand when the active list is merged).
    pub(crate) receivers: Vec<u32>,
    /// Not-done nodes that asked to tick next round, sorted.
    ticking: Vec<u32>,
    /// Per-node one-shot timers (see [`crate::events`]).
    timers: TimerHeap,
    /// Scratch: valid timers due this round.
    due: Vec<u32>,
    /// Scratch for the three-way active-list merge.
    merged: Vec<u32>,
    /// The current round's active list, ascending.
    pub(crate) active: Vec<u32>,
    /// `is_done()` per node, as of its last execution.
    done_flag: Vec<bool>,
    /// Count of not-done nodes not yet excused by a crash.
    live_undone: usize,
    /// The fault plan's crash schedule, sorted by `(round, node)`, with
    /// a cursor over the events already applied to `live_undone`.
    crash_events: Vec<(u64, u32)>,
    crash_cursor: usize,
    /// The first round visits every node regardless of schedule.
    first_step: bool,
    pub(crate) round: u64,
    pub(crate) report: RunReport,
    pub(crate) injector: Option<FaultInjector>,
    last_activity: u64,
    /// Messages lost in the inboxes of crashed nodes (counted separately
    /// from the injector's link-level drops).
    crash_lost: u64,
    /// Evidence stream; `None` makes every emission a never-taken branch.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    ff_jumps: u64,
    ff_skipped: u64,
    fixed_mem: u64,
    staged_bytes: u64,
    /// Sends staged in the current round, for the peak-memory mark.
    round_staged: u64,
    /// Messages accounted in the current round.
    round_msgs: u64,
}

impl<'g, M> RoundCore<'g, M> {
    /// Builds the tables and arenas for `graph`. `done_flag` is every
    /// node's initial `is_done()`; `memory` is the run's
    /// [`memory_model`].
    ///
    /// # Panics
    ///
    /// If the graph exceeds the packed-staging capacity
    /// ([`MAX_ENGINE_NODES`](crate::engine::MAX_ENGINE_NODES) nodes,
    /// 2^20 ports per node), or a node starts beyond a scheduled crash.
    pub(crate) fn new(
        graph: &'g Graph,
        config: EngineConfig,
        done_flag: Vec<bool>,
        injector: Option<FaultInjector>,
        (fixed_mem, staged_bytes): (u64, u64),
    ) -> Self {
        let n = graph.node_count();
        assert!(
            n <= crate::engine::MAX_ENGINE_NODES,
            "packed staging supports up to 2^24 nodes"
        );
        debug_assert_eq!(done_flag.len(), n);
        let mut off = Vec::with_capacity(n + 1);
        off.push(0usize);
        for v in 0..n {
            let deg = graph.degree(NodeId(v));
            assert!(deg < 1 << 20, "packed staging supports degrees below 2^20");
            off.push(off[v] + deg);
        }
        let arcs = off[n];
        let mut rev_port = vec![usize::MAX; arcs];
        for v in 0..n {
            for (p, arc) in graph.neighbors(NodeId(v)).iter().enumerate() {
                if let Some(rp) = graph
                    .neighbors(arc.to)
                    .iter()
                    .position(|a| a.edge == arc.edge)
                {
                    rev_port[off[v] + p] = rp;
                }
            }
        }
        let live_undone = done_flag.iter().filter(|&&d| !d).count();
        let crash_events = injector
            .as_ref()
            .map(FaultInjector::crash_schedule)
            .unwrap_or_default();
        let mut core = RoundCore {
            graph,
            config,
            off,
            rev_port,
            inbox: (0..arcs).map(|_| None).collect(),
            pending: (0..arcs).map(|_| None).collect(),
            pending_count: 0,
            recv_mark: vec![0; n],
            receivers: Vec::new(),
            ticking: Vec::new(),
            timers: TimerHeap::new(n),
            due: Vec::new(),
            merged: Vec::new(),
            active: Vec::new(),
            done_flag,
            live_undone,
            crash_events,
            crash_cursor: 0,
            first_step: true,
            round: 0,
            report: RunReport {
                peak_memory_bytes: fixed_mem,
                ..RunReport::default()
            },
            injector,
            last_activity: 0,
            crash_lost: 0,
            trace: None,
            ff_jumps: 0,
            ff_skipped: 0,
            fixed_mem,
            staged_bytes,
            round_staged: 0,
            round_msgs: 0,
        };
        core.advance_crash_epoch();
        core
    }

    /// Attaches an evidence sink and announces the run to it; `None` is
    /// a no-op.
    pub(crate) fn attach_trace(&mut self, sink: Option<Box<dyn TraceSink>>) {
        if let Some(mut t) = sink {
            t.event(&TraceEvent::RunStart {
                mode: "sync",
                nodes: self.graph.node_count(),
                edges: self.graph.edge_count(),
                bit_budget: self.config.bit_budget,
                fixed_mem: Some(self.fixed_mem),
            });
            self.trace = Some(t);
        }
    }

    /// Emits the final report to the trace stream and flushes it.
    pub(crate) fn trace_run_end(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::RunEnd {
                report: &self.report,
            });
            t.flush();
        }
    }

    /// `(jumps, skipped_rounds)` taken by quiescence fast-forward so far.
    pub(crate) fn fast_forward_stats(&self) -> (u64, u64) {
        (self.ff_jumps, self.ff_skipped)
    }

    /// Whether every surviving node is done and no messages are queued.
    /// Crash excuses are evaluated at the *current* round, so a node
    /// scheduled to crash later still counts as unfinished now.
    pub(crate) fn quiescent(&self) -> bool {
        self.pending_count == 0 && self.live_undone == 0
    }

    /// Applies every crash event scheduled at or before the current
    /// round: an unfinished node that crashes stops counting toward
    /// quiescence, and its timer (if any) is cancelled.
    fn advance_crash_epoch(&mut self) {
        while let Some(&(at, v)) = self.crash_events.get(self.crash_cursor) {
            if at > self.round {
                break;
            }
            self.crash_cursor += 1;
            if !self.done_flag[v as usize] {
                self.live_undone -= 1;
            }
            self.timers.cancel(v);
        }
    }

    /// Skips ahead over provably-empty rounds: when nothing is queued and
    /// no node ticks, every round before the next due timer, the next
    /// scheduled crash, or `limit` executes nothing — advance the round
    /// counter (and nothing else) straight there. A skipped round is
    /// byte-identical to stepping it: an empty step only increments the
    /// counter, so every report field, the fault-injector RNG, and all
    /// node states are untouched either way.
    ///
    /// No-ops before the first step or when disabled via the config.
    pub(crate) fn fast_forward(&mut self, limit: u64) {
        if !self.config.fast_forward
            || self.first_step
            || self.pending_count != 0
            || !self.ticking.is_empty()
        {
            return;
        }
        let mut target = limit;
        if let Some(wake) = self.timers.next_valid() {
            if wake <= self.round {
                return; // a timer is due: the next step is a real one
            }
            target = target.min(wake);
        }
        if let Some(&(at, _)) = self.crash_events.get(self.crash_cursor) {
            target = target.min(at);
        }
        if target <= self.round {
            return;
        }
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::FastForward {
                from: self.round,
                to: target,
            });
        }
        self.ff_jumps += 1;
        self.ff_skipped += target - self.round;
        self.round = target;
        self.report.rounds = target;
        self.advance_crash_epoch();
    }

    fn is_crashed(&self, v: usize) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.is_crashed(NodeId(v), self.round))
    }

    /// Snapshot of who is stuck: unfinished survivors, per-node queued
    /// message counts (copies included, read straight from the arena),
    /// and crash context.
    pub(crate) fn stall_report(&self) -> StallReport {
        let n = self.done_flag.len();
        let queued_at = |v: usize| -> usize {
            self.pending[self.off[v]..self.off[v + 1]]
                .iter()
                .filter_map(|s| s.as_ref().map(|&(_, copies)| copies as usize))
                .sum()
        };
        let mut pending: Vec<(NodeId, usize)> = self
            .receivers
            .iter()
            .map(|&v| (NodeId(v as usize), queued_at(v as usize)))
            .filter(|&(_, depth)| depth > 0)
            .collect();
        pending.sort_unstable_by_key(|&(v, _)| v.0);
        StallReport {
            not_done: (0..n)
                .filter(|&v| !self.done_flag[v] && !self.is_crashed(v))
                .map(NodeId)
                .collect(),
            pending,
            last_activity: self.last_activity,
            crashed: (0..n).filter(|&v| self.is_crashed(v)).map(NodeId).collect(),
            live: (0..n)
                .filter(|&v| !self.is_crashed(v))
                .map(NodeId)
                .collect(),
            stopped_at: self.round,
        }
    }

    /// Opens a round: traces it, swaps the arenas (the drained inbox
    /// becomes the next pending buffer — no allocation per round), pops
    /// the timers due now, and builds the ascending active list: the
    /// merge of the ticking, due and receiving nodes, or a dense `0..n`
    /// scan when the active fraction reaches [`EngineConfig::dense_pct`]
    /// (and on the first round, which visits every node).
    pub(crate) fn begin_round(&mut self) {
        let n = self.done_flag.len();
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::Round { round: self.round });
        }
        std::mem::swap(&mut self.inbox, &mut self.pending);
        self.pending_count = 0;
        self.round_msgs = 0;
        // the event core discards stale entries and returns the valid
        // ones sorted and deduplicated — see `TimerHeap::pop_due` for why
        // the dedup is load-bearing
        self.timers.pop_due(self.round, &mut self.due);
        self.active.clear();
        let estimate = self.ticking.len() + self.due.len() + self.receivers.len();
        if self.first_step || estimate * 100 >= n.saturating_mul(self.config.dense_pct) {
            self.active.extend(0..n as u32);
        } else {
            self.receivers.sort_unstable();
            self.merged.clear();
            merge_sorted_dedup(&self.ticking, &self.due, &mut self.merged);
            merge_sorted_dedup(&self.merged, &self.receivers, &mut self.active);
        }
        self.first_step = false;
        self.receivers.clear();
        // consumed: the outcomes of this round rebuild it
        self.ticking.clear();
    }

    /// The port of the edge `(v, p)` at its other endpoint; `None` on a
    /// corrupted, asymmetric topology.
    #[inline]
    fn reverse_port(&self, v: u32, p: u32) -> Option<usize> {
        let rp = self.rev_port[self.off[v as usize] + p as usize];
        (rp != usize::MAX).then_some(rp)
    }

    #[cold]
    fn broken(v: u32, p: u32) -> SimError {
        SimError::BrokenTopology {
            node: NodeId(v as usize),
            port: Port(p as usize),
        }
    }

    /// Delivers one send of this round — node `v`'s message of `bits`
    /// bits on port `p`: reverse-port check, accounting, the fault
    /// injector's transmission (the only place its RNG advances, so
    /// callers must deliver in ascending `(sender, port)` order), the
    /// `send` trace event, and the slot write with its receiver mark.
    ///
    /// # Errors
    ///
    /// [`SimError::BrokenTopology`] on an asymmetric adjacency list.
    #[inline]
    pub(crate) fn deliver(&mut self, v: u32, p: u32, bits: u64, msg: M) -> Result<(), SimError> {
        let Some(rp) = self.reverse_port(v, p) else {
            return Err(Self::broken(v, p));
        };
        let arc = self.graph.neighbors(NodeId(v as usize))[p as usize];
        self.report.messages += 1;
        self.report.total_bits += bits;
        self.report.max_message_bits = self.report.max_message_bits.max(bits);
        self.round_msgs += 1;
        let (copies, down) = match self.injector.as_mut() {
            None => (1, false),
            Some(inj) => {
                let tx = inj.transmit(arc.edge, self.round);
                (tx.copies.len() as u32, tx.down)
            }
        };
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::Send {
                round: self.round,
                sender: v,
                port: p,
                bits,
                copies,
                link_down: down,
            });
        }
        if copies == 0 {
            return Ok(()); // dropped on the wire
        }
        let to = arc.to.0;
        let slot = &mut self.pending[self.off[to] + rp];
        match slot {
            // only fault duplication can target an occupied slot: one
            // sender per edge direction per round
            Some((_, existing)) => *existing += copies,
            None => *slot = Some((msg, copies)),
        }
        self.pending_count += u64::from(copies);
        let epoch = self.round + 1;
        if self.recv_mark[to] != epoch {
            self.recv_mark[to] = epoch;
            self.receivers.push(to as u32);
        }
        Ok(())
    }

    /// The error of node `v`'s send on port `p` whose wire round trip
    /// failed with `detail`. An asymmetric topology at the same send
    /// takes precedence, as in [`RoundCore::deliver`].
    pub(crate) fn wire_mismatch(&self, v: u32, p: u32, detail: String) -> SimError {
        match self.reverse_port(v, p) {
            None => Self::broken(v, p),
            Some(_) => SimError::WireMismatch {
                node: NodeId(v as usize),
                port: Port(p as usize),
                round: self.round,
                detail,
            },
        }
    }

    /// Ends the delivery of a round's staged sends. On a double send the
    /// sequential semantics abort at the violating node: its sends and
    /// every later node's never happen, so executors skip every send from
    /// the `cut` node on, and the violation is reported here.
    ///
    /// # Errors
    ///
    /// The cut's [`SimError::CongestViolation`], if any.
    pub(crate) fn end_delivery(&self, cut: Option<(u32, u32)>) -> Result<(), SimError> {
        match cut {
            None => Ok(()),
            Some((v, port)) => Err(SimError::CongestViolation {
                node: NodeId(v as usize),
                port: Port(port as usize),
                round: self.round,
            }),
        }
    }

    /// Records the round's staging: `staged` sends held at once (the
    /// peak-memory input) and `lost` queued copies consumed by crashed
    /// nodes, with one trace event each per round — aggregated over all
    /// shards, so the stream is identical whatever the shard count.
    pub(crate) fn flush_staged(&mut self, staged: u64, lost: u64) {
        self.round_staged = staged;
        if let Some(t) = self.trace.as_mut() {
            t.event(&TraceEvent::ShardFlush {
                round: self.round,
                staged,
                bytes: staged * self.staged_bytes,
            });
            if lost > 0 {
                t.event(&TraceEvent::CrashLost {
                    round: self.round,
                    copies: lost,
                });
            }
        }
        self.crash_lost += lost;
    }

    /// Books a round whose sends were delivered straight into the arena
    /// by parallel workers (fault-free and untraced only): `sent`
    /// messages of `bits` total bits, the widest `max_bits`, `delivered`
    /// copies queued. The workers' receivers go into `receivers`.
    pub(crate) fn account_parallel(&mut self, sent: u64, bits: u64, max_bits: u64, delivered: u64) {
        self.report.messages += sent;
        self.report.total_bits += bits;
        self.report.max_message_bits = self.report.max_message_bits.max(max_bits);
        self.round_msgs += sent;
        self.pending_count += delivered;
        self.flush_staged(sent, 0);
    }

    /// Folds the outcomes of the nodes stepped this round into next
    /// round's schedule: the ticking list, the timer heap and the
    /// quiescence counter. Outcomes come in ascending node order, so
    /// `ticking` stays sorted.
    pub(crate) fn apply_outcomes(
        &mut self,
        outcomes: impl IntoIterator<Item = (u32, NodeOutcome)>,
    ) {
        let next = self.round + 1;
        let RoundCore {
            ticking,
            timers,
            done_flag,
            live_undone,
            ..
        } = self;
        for (v32, outcome) in outcomes {
            let v = v32 as usize;
            match outcome {
                NodeOutcome::Crashed => timers.cancel(v32),
                NodeOutcome::Done => {
                    if !done_flag[v] {
                        done_flag[v] = true;
                        *live_undone -= 1;
                    }
                    timers.cancel(v32);
                }
                NodeOutcome::Tick | NodeOutcome::Sleep | NodeOutcome::Park(_) => {
                    if done_flag[v] {
                        // un-done: a message re-activated the node
                        done_flag[v] = false;
                        *live_undone += 1;
                    }
                    match outcome {
                        NodeOutcome::Tick => {
                            // the ticking list schedules the node; `note`
                            // only invalidates parked entries
                            timers.note(v32, next);
                            ticking.push(v32);
                        }
                        NodeOutcome::Sleep => timers.cancel(v32),
                        // `park` skips the push when the heap already
                        // holds this exact wake
                        NodeOutcome::Park(r) => timers.park(v32, r),
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    /// Closes a round: the peak-memory high-water, the fault counters,
    /// the per-round message peak and last activity, then advances the
    /// clock (and the crash schedule with it).
    pub(crate) fn end_round(&mut self) {
        self.report.peak_memory_bytes = self
            .report
            .peak_memory_bytes
            .max(self.fixed_mem + self.round_staged * self.staged_bytes);
        if let Some(inj) = &self.injector {
            self.report.dropped_messages = inj.dropped() + self.crash_lost;
            self.report.duplicated_messages = inj.duplicated();
        }
        self.report.peak_messages_per_round =
            self.report.peak_messages_per_round.max(self.round_msgs);
        if self.round_msgs > 0 {
            self.last_activity = self.round;
        }
        self.round += 1;
        self.report.rounds = self.round;
        self.advance_crash_epoch();
    }
}

impl<M: Clone> RoundCore<'_, M> {
    /// Rebuilds the per-node pending queues in the
    /// `Vec<Vec<(Port, Msg)>>` shape (sorted by port, duplicates
    /// adjacent) for invariant checks. Allocates; only called when
    /// invariants are registered.
    pub(crate) fn materialize_pending(&self) -> Vec<Vec<(Port, M)>> {
        (0..self.done_flag.len())
            .map(|v| {
                let mut queue = Vec::new();
                for (p, slot) in self.pending[self.off[v]..self.off[v + 1]]
                    .iter()
                    .enumerate()
                {
                    if let Some((msg, copies)) = slot {
                        for _ in 0..*copies {
                            queue.push((Port(p), msg.clone()));
                        }
                    }
                }
                queue
            })
            .collect()
    }
}

/// An executor over the round core: owns one, and executes a round on it.
pub(crate) trait Rounds<'g> {
    /// The arena's slot payload.
    type Payload;

    /// The driven core.
    fn core(&mut self) -> &mut RoundCore<'g, Self::Payload>;

    /// Executes one round (see the module docs for the protocol).
    fn execute_round(&mut self) -> Result<(), SimError>;

    /// The run loop: steps until quiescence or until the round counter
    /// reaches `boundary`, whichever comes first, fast-forwarding over
    /// provably-empty rounds when `skip` is set (never past `boundary`
    /// or `limit`). On success emits the final report to the trace and
    /// returns whether the run quiesced.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if `limit` rounds elapse before
    /// either, and every error of [`Rounds::execute_round`].
    fn run_to(&mut self, boundary: u64, limit: u64, skip: bool) -> Result<bool, SimError> {
        let quiesced = loop {
            let core = self.core();
            if core.quiescent() {
                break true;
            }
            if skip {
                core.fast_forward(boundary.min(limit));
                // the jump may have landed on a crash that excuses the
                // last unfinished nodes
                if core.quiescent() {
                    break true;
                }
            }
            if core.round >= boundary {
                break false;
            }
            if core.round >= limit {
                return Err(SimError::RoundLimitExceeded {
                    limit,
                    stall: core.stall_report(),
                });
            }
            self.execute_round()?;
        };
        self.core().trace_run_end();
        Ok(quiesced)
    }
}
