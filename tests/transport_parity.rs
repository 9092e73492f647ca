//! Socket-transport parity: a Fast-MST fragment stage executed across
//! separate OS processes must be **byte-identical** to the in-process
//! engine — same [`RunReport`], same per-send JSONL trace, same
//! harvested outputs — for both 2-worker and 4-worker fleets, and for a
//! 2-worker fleet under coordinator-side drops and duplicates. Killing a
//! worker mid-run must surface as a typed [`SimError::PeerLost`] within
//! the heartbeat deadline, and a worker whose graph disagrees must be
//! rejected in the handshake.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kdom::congest::transport::{coordinate, CoordListener, CoordOpts, Endpoint};
use kdom::congest::{trace, EngineConfig, FaultPlan, MemorySink, RunReport, SimError, Simulator};
use kdom::core::dist::fragments::{schedule_end, FragmentNode};
use kdom::graph::generators::Family;
use kdom::graph::Graph;
use kdom::mst::fastmst::default_k;

const GRAPH_SPEC: &str = "grid:2500:42";
const SMALL_SPEC: &str = "grid:100:7";

fn graph_of(spec: &str) -> Graph {
    let mut parts = spec.split(':');
    let family = match parts.next().unwrap() {
        "grid" => Family::Grid,
        other => panic!("unexpected family {other}"),
    };
    let n: usize = parts.next().unwrap().parse().unwrap();
    let seed: u64 = parts.next().unwrap().parse().unwrap();
    family.generate(n, seed)
}

fn harvest(node: &FragmentNode) -> u64 {
    node.parent.map_or(0, |p| p.0 as u64 + 1)
}

/// The in-process reference: `Simulator` with a memory trace, exactly
/// the engine configuration [`coordinate`] replicates.
fn reference_run(g: &Graph, k: usize, max_rounds: u64) -> (RunReport, Vec<u64>, String) {
    let nodes: Vec<FragmentNode> = (0..g.node_count())
        .map(|v| FragmentNode::new(k, g.id_of(kdom::graph::NodeId(v))))
        .collect();
    let mut sim = Simulator::with_config(g, nodes, EngineConfig::default());
    let sink = MemorySink::new();
    sim.set_trace(Box::new(sink.clone()));
    let report = sim.run(max_rounds).expect("in-process run");
    let rows: Vec<u64> = sim.nodes().iter().map(harvest).collect();
    (report, rows, sink.to_jsonl())
}

fn spawn_worker(ep: &Endpoint, shard: usize, shards: usize, spec: &str, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kdom-shard"));
    cmd.args([
        "worker",
        "--connect",
        &ep.to_string(),
        "--shard",
        &shard.to_string(),
        "--shards",
        &shards.to_string(),
        "--graph",
        spec,
        "--proto",
    ])
    .arg(format!(
        "simple-mst:{}",
        default_k(graph_of(spec).node_count())
    ))
    .args(extra)
    .stdin(Stdio::null())
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    cmd.spawn().expect("spawn kdom-shard worker")
}

fn reap(mut children: Vec<Child>) {
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Runs a distributed fleet and returns its outcome plus the trace.
fn distributed_run(
    spec: &str,
    shards: usize,
    max_rounds: u64,
    timeout: Duration,
    extra_for_shard0: &[&str],
) -> (
    Result<kdom::congest::transport::DistOutcome, SimError>,
    String,
) {
    distributed_run_with(spec, shards, max_rounds, timeout, extra_for_shard0, None)
}

/// [`distributed_run`] with a fault plan on the coordinator.
fn distributed_run_with(
    spec: &str,
    shards: usize,
    max_rounds: u64,
    timeout: Duration,
    extra_for_shard0: &[&str],
    plan: Option<FaultPlan>,
) -> (
    Result<kdom::congest::transport::DistOutcome, SimError>,
    String,
) {
    let g = graph_of(spec);
    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let ep = listener.local_endpoint().expect("local endpoint");
    let children: Vec<Child> = (0..shards)
        .map(|s| {
            let extra = if s == 0 { extra_for_shard0 } else { &[] };
            spawn_worker(&ep, s, shards, spec, extra)
        })
        .collect();
    let sink = MemorySink::new();
    let opts = CoordOpts {
        shards,
        config: EngineConfig::default(),
        plan,
        max_rounds,
        timeout,
    };
    let result = coordinate(listener, &g, &opts, Some(Box::new(sink.clone())));
    reap(children);
    (result, sink.to_jsonl())
}

fn assert_parity(shards: usize) {
    let g = graph_of(GRAPH_SPEC);
    let k = default_k(g.node_count());
    let max_rounds = schedule_end(k) + 8;
    let (want_report, want_rows, want_trace) = reference_run(&g, k, max_rounds);
    let (result, got_trace) =
        distributed_run(GRAPH_SPEC, shards, max_rounds, Duration::from_secs(60), &[]);
    let outcome = result.unwrap_or_else(|e| panic!("{shards}-worker run failed: {e}"));
    assert_eq!(
        outcome.report, want_report,
        "{shards}-worker RunReport diverged from the in-process engine"
    );
    assert_eq!(
        outcome.outputs, want_rows,
        "{shards}-worker harvested parents diverged"
    );
    if got_trace != want_trace {
        // keep both traces on disk for the CI artifact upload before
        // failing — a byte diff of two full event streams is unreadable
        // in a panic message
        let dir = std::path::Path::new("target/transport-parity");
        std::fs::create_dir_all(dir).expect("create trace dump dir");
        std::fs::write(
            dir.join(format!("{shards}proc-inprocess.jsonl")),
            &want_trace,
        )
        .expect("dump in-process trace");
        std::fs::write(dir.join(format!("{shards}proc-socket.jsonl")), &got_trace)
            .expect("dump socket trace");
        let line = want_trace
            .lines()
            .zip(got_trace.lines())
            .position(|(a, b)| a != b)
            .map_or("the tail".to_string(), |l| format!("line {}", l + 1));
        panic!(
            "{shards}-worker JSONL trace diverged from the in-process engine at {line}; \
             both traces written to {}",
            dir.display()
        );
    }
    let summary = trace::validate_str(&got_trace, None)
        .unwrap_or_else(|e| panic!("{shards}-worker trace failed validation: {e}"));
    assert_eq!(summary.runs.len(), 1);
    assert_eq!(summary.runs[0].recorded, want_report);
    assert_eq!(summary.runs[0].derived, want_report);
}

#[test]
fn two_process_run_is_byte_identical_to_in_process() {
    assert_parity(2);
}

#[test]
fn four_process_run_is_byte_identical_to_in_process() {
    assert_parity(4);
}

/// The coordinator's fault injector draws in the same sequential
/// `(sender, port)` order as the in-process engine's merge, so a lossy,
/// duplicating run ends the same way on both — the same report and
/// outputs, or the same typed error with the same stall report — and
/// leaves the same trace, `send` events with their copy counts included.
#[test]
fn two_process_run_under_drops_and_duplicates_matches_in_process() {
    let g = graph_of(SMALL_SPEC);
    let k = default_k(g.node_count());
    let max_rounds = schedule_end(k) + 8;
    let plan = FaultPlan::new(11).drop_prob(0.05).dup_prob(0.05);
    let nodes: Vec<FragmentNode> = (0..g.node_count())
        .map(|v| FragmentNode::new(k, g.id_of(kdom::graph::NodeId(v))))
        .collect();
    let mut sim = Simulator::with_faults_config(&g, nodes, &plan, EngineConfig::default());
    let sink = MemorySink::new();
    sim.set_trace(Box::new(sink.clone()));
    let want = sim
        .run(max_rounds)
        .map(|report| (report, sim.nodes().iter().map(harvest).collect::<Vec<_>>()));
    let want_trace = sink.to_jsonl();
    assert!(
        want_trace.contains("\"copies\":0") && want_trace.contains("\"copies\":2"),
        "the plan must both drop and duplicate"
    );

    let (got, got_trace) = distributed_run_with(
        SMALL_SPEC,
        2,
        max_rounds,
        Duration::from_secs(60),
        &[],
        Some(plan),
    );
    let got = got.map(|outcome| (outcome.report, outcome.outputs));
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "the faulted 2-worker run ended differently from the in-process engine"
    );
    assert!(
        got_trace == want_trace,
        "the faulted 2-worker trace diverged"
    );
}

#[test]
fn killing_a_worker_mid_run_is_a_typed_peer_lost() {
    let timeout = Duration::from_millis(2000);
    let started = Instant::now();
    let (result, _) = distributed_run(SMALL_SPEC, 2, 10_000, timeout, &["--die-at-round", "5"]);
    let err = result.expect_err("a dead worker must fail the run");
    let SimError::PeerLost { peer, round, .. } = &err else {
        panic!("expected PeerLost, got {err}");
    };
    assert_eq!(*peer, 0, "the killed shard should be named");
    assert!(*round >= 5, "death was scheduled at round 5, got {round}");
    // detected within the read deadline (plus slack for process startup)
    assert!(
        started.elapsed() < timeout + Duration::from_secs(20),
        "PeerLost took {:?}",
        started.elapsed()
    );
}

#[test]
fn graph_fingerprint_mismatch_is_rejected_in_the_handshake() {
    let g = graph_of(SMALL_SPEC);
    let listener = CoordListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let ep = listener.local_endpoint().expect("local endpoint");
    // worker built from a different seed: same node count, different weights
    let children = vec![
        spawn_worker(&ep, 0, 2, "grid:100:8", &[]),
        spawn_worker(&ep, 1, 2, SMALL_SPEC, &[]),
    ];
    let opts = CoordOpts {
        shards: 2,
        config: EngineConfig::default(),
        plan: None,
        max_rounds: 10_000,
        timeout: Duration::from_secs(10),
    };
    let result = coordinate(listener, &g, &opts, None);
    reap(children);
    let err = result.expect_err("a mismatched graph must be rejected");
    let SimError::PeerLost { round, detail, .. } = &err else {
        panic!("expected PeerLost, got {err}");
    };
    assert_eq!(*round, 0, "rejection happens in the handshake");
    assert!(
        detail.contains("fingerprint"),
        "detail should name the fingerprint check: {detail}"
    );
}
