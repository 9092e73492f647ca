//! The Fast-MST workloads (`mst_gnm`, `mst_path`).
//!
//! The timed loop repeats the single call `fast_mst_from_root` plus its
//! `is_mst` certificate until the run's time is spent. One stage
//! composition follows: `run_simple_mst`, `dom_partition` per fragment,
//! `run_pipeline`, assembled exactly as `fast_mst_from_root` assembles
//! them. It yields the encoded bits and largest message the single call
//! does not expose, the per-layer spans when tracing is on, and an
//! equivalence check against the single call.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use kdom::congest::RunReport;
use kdom::core::cluster::Charge;
use kdom::core::dist::fragments::run_simple_mst;
use kdom::core::partition::dom_partition;
use kdom::graph::generators::{gnm_connected, path, GenConfig};
use kdom::graph::mst_ref::is_mst;
use kdom::graph::{EdgeId, Graph, NodeId};
use kdom::mst::fastmst::{default_k, fast_mst_from_root, FastMstRun};
use kdom::mst::pipeline::run_pipeline;

use crate::report::{Ledger, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::spans::{self_time_of, self_times, Span, Tracer};
use crate::stats::{median, peak_rss_bytes, quantile, secs};
use crate::SETUP_BATCH;

/// Largest share of the traced solve span its layer spans may leave
/// uncovered. The benchmark's own work between layer calls (fragment
/// member lists, the weight-to-edge map) takes 0.2–0.3%; the smallest
/// layer that must not go missing, DOMPartition on the path, takes ~2%.
const MAX_UNATTRIBUTED: f64 = 0.01;

/// Which input family a Fast-MST workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `gnm_connected` with n = 10^5, m = 2·10^5: low diameter, many
    /// edges; SimpleMST and DOMPartition dominate.
    Gnm,
    /// A path with n = 6·10^4: diameter n; BFS + Pipeline dominate.
    Path,
}

impl Shape {
    fn generate(self, seed: u64) -> Graph {
        match self {
            Shape::Gnm => gnm_connected(&GenConfig::with_seed(100_000, seed), 200_000),
            Shape::Path => path(&GenConfig::with_seed(60_000, seed)),
        }
    }
}

/// The stage composition's results.
struct Composition {
    mst_edges: Vec<EdgeId>,
    cluster_count: usize,
    fragments: RunReport,
    partition_calls: usize,
    partition_charge: Charge,
    bfs: RunReport,
    pipeline: RunReport,
    stalls: u64,
    mst_ok: bool,
}

impl Composition {
    fn total_rounds(&self) -> u64 {
        self.fragments.rounds
            + self.partition_charge.rounds
            + self.bfs.rounds
            + self.pipeline.rounds
    }

    fn measured(&self) -> [&RunReport; 3] {
        [&self.fragments, &self.bfs, &self.pipeline]
    }
}

/// Fast-MST rebuilt from its public stage calls, with a span around
/// each call. Mirrors `fast_mst_from_root` line for line.
fn compose(
    g: &Graph,
    k: usize,
    root: NodeId,
    tracer: &Tracer,
    solve: Option<usize>,
) -> Composition {
    let (fragments, _) = tracer.time("fragments", solve, 0, || run_simple_mst(g, k));

    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); fragments.roots.len()];
    for v in g.nodes() {
        members[fragments.fragment_of[v.0]].push(v);
    }
    let mut frag_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); fragments.roots.len()];
    for &e in &fragments.tree_edges {
        let er = g.edge(e);
        frag_edges[fragments.fragment_of[er.u.0]].push((er.u, er.v));
    }
    let mut cluster_of = vec![0u64; g.node_count()];
    let mut cluster_count = 0usize;
    let mut partition_charge = Charge::default();
    let partition_calls = members.len();
    for (f, mem) in members.into_iter().enumerate() {
        let (res, _) = tracer.time("partition", solve, f as u64, || {
            dom_partition(g, mem, &frag_edges[f], k)
        });
        if res.charge.rounds > partition_charge.rounds {
            partition_charge = res.charge;
        }
        for (center, cmembers) in &res.clusters {
            cluster_count += 1;
            let cid = g.id_of(*center);
            for &v in cmembers {
                cluster_of[v.0] = cid;
            }
        }
    }
    kdom::congest::trace::emit_phase("DOMPartition");
    kdom::congest::trace::emit_charge(partition_charge.rounds);

    let (run, _) = tracer.time("pipeline", solve, 0, || {
        run_pipeline(g, root, &cluster_of, true, false)
    });

    let weight_to_edge: HashMap<u64, EdgeId> = g.edges().iter().map(|e| (e.weight, e.id)).collect();
    let mut mst_edges: Vec<EdgeId> = fragments.tree_edges.clone();
    let selected: HashSet<EdgeId> = mst_edges.iter().copied().collect();
    for w in &run.mst_weights {
        let e = weight_to_edge[w];
        if !selected.contains(&e) {
            mst_edges.push(e);
        }
    }
    let (mst_ok, _) = tracer.time("oracle", solve, 0, || is_mst(g, &mst_edges));

    Composition {
        mst_edges,
        cluster_count,
        fragments: fragments.report,
        partition_calls,
        partition_charge,
        bfs: run.bfs_report,
        pipeline: run.report,
        stalls: run.stalls,
        mst_ok,
    }
}

/// Runs one Fast-MST workload for `seconds` of timed solves.
pub fn run(shape: Shape, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut ledger = Ledger::default();

    // Set-up: graph generation and CSR build. The first copy is the
    // input; further copies are timed in batches, one before the first
    // solve and one after each, so the median `setup_s` samples the host
    // over the whole run. Every copy must be the same graph.
    let workload = tracer.open("workload", None, seed);
    let (g, d) = tracer.time("generators", workload, 0, || shape.generate(seed));
    let mut gen_times = vec![secs(d)];
    let fingerprint = g.fingerprint();
    let setup_batch = |gen_times: &mut Vec<f64>, ledger: &mut Ledger| {
        for _ in 0..SETUP_BATCH {
            let i = gen_times.len();
            let (copy, d) = tracer.time("generators", workload, i as u64, || shape.generate(seed));
            gen_times.push(secs(d));
            ledger.check(copy.fingerprint() == fingerprint, || {
                format!("set-up {i}: generator output differs for seed {seed}")
            });
        }
    };
    setup_batch(&mut gen_times, &mut ledger);
    let k = default_k(g.node_count());
    let root = NodeId(0);
    println!(
        "graph: n={} m={} k={k} bytes={}",
        g.node_count(),
        g.edge_count(),
        g.memory_bytes()
    );

    // Timed loop: the single call and its certificate, untraced.
    let mut solve_times = Vec::new();
    let mut oracle_failed = 0u64;
    let mut reference: Option<FastMstRun> = None;
    let loop_start = Instant::now();
    while solve_times.is_empty() || secs(loop_start.elapsed()) < seconds {
        let t = Instant::now();
        let run = fast_mst_from_root(&g, k, root);
        let ok = is_mst(&g, &run.mst_edges);
        solve_times.push(secs(t.elapsed()));
        let i = solve_times.len();
        let mut problems = Vec::new();
        if !ok {
            oracle_failed += 1;
            problems.push(format!("solve {i}: is_mst rejected the edge set"));
        }
        if run.stalls != 0 {
            problems.push(format!(
                "solve {i}: {} pipeline stalls (must be 0)",
                run.stalls
            ));
        }
        match &reference {
            None => reference = Some(run),
            Some(r) if r.mst_edges != run.mst_edges || r.total_rounds() != run.total_rounds() => {
                problems.push(format!("solve {i}: differs from solve 1 on the same input"));
            }
            Some(_) => {}
        }
        ledger.op(problems);
        setup_batch(&mut gen_times, &mut ledger);
    }
    let single = reference.expect("at least one solve");
    let solve_s = median(&solve_times);
    let setup_s = median(&gen_times);
    println!(
        "solves: {} in {:.2} s, times {solve_times:?}",
        solve_times.len(),
        secs(loop_start.elapsed())
    );
    println!(
        "set-up: median {setup_s:.4} s of {} in {:?}",
        gen_times.len(),
        gen_times
            .iter()
            .map(|t| (t * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // The stage composition, traced when the tracer is on.
    let solve_span = tracer.open("solve", workload, seed);
    let comp_start = Instant::now();
    let comp = compose(&g, k, root, tracer, solve_span);
    let comp_s = secs(comp_start.elapsed());
    tracer.close(solve_span);
    tracer.close(workload);
    let mut problems = Vec::new();
    if !comp.mst_ok {
        oracle_failed += 1;
        problems.push("composition: is_mst rejected the edge set".to_string());
    }
    if comp.stalls != 0 {
        problems.push(format!("composition: {} pipeline stalls", comp.stalls));
    }
    if comp.mst_edges != single.mst_edges
        || comp.total_rounds() != single.total_rounds()
        || comp.cluster_count != single.cluster_count
        || comp.pipeline != single.pipeline_report
    {
        problems.push(format!(
            "composition differs from the single call: rounds {} vs {}, {} vs {} edges",
            comp.total_rounds(),
            single.total_rounds(),
            comp.mst_edges.len(),
            single.mst_edges.len()
        ));
    }
    ledger.op(problems);
    let bits: u64 = comp.measured().iter().map(|r| r.total_bits).sum();
    let max_msg_bits = comp
        .measured()
        .iter()
        .map(|r| r.max_message_bits)
        .max()
        .unwrap_or(0);
    let accounted_peak = comp
        .measured()
        .iter()
        .map(|r| r.peak_memory_bytes)
        .max()
        .unwrap_or(0);
    let rss = peak_rss_bytes();
    println!(
        "rounds: fragments {} + partition (charged) {} + bfs {} + pipeline {} = {}; \
         clusters {}; bits {bits}; max message {max_msg_bits} bits",
        comp.fragments.rounds,
        comp.partition_charge.rounds,
        comp.bfs.rounds,
        comp.pipeline.rounds,
        single.total_rounds(),
        comp.cluster_count
    );

    let total_solve: f64 = solve_times.iter().sum();
    let mut e2e = Metrics::new(END_TO_END);
    e2e.put("setup_s", setup_s);
    e2e.put("solve_s", solve_s);
    e2e.put("rounds", single.total_rounds() as f64);
    e2e.put("bits", bits as f64);
    e2e.put("max_msg_bits", max_msg_bits as f64);
    e2e.put("jobs_per_s", solve_times.len() as f64 / total_solve);
    e2e.put("job_p50_ms", solve_s * 1e3);
    e2e.put("job_p90_ms", quantile(&solve_times, 0.9) * 1e3);
    e2e.put("peak_rss_bytes", rss as f64);

    let mut layers = Metrics::new(PER_LAYER);
    layers.put("generators.s", setup_s);
    layers.put("generators.graph_bytes", g.memory_bytes() as f64);
    layers.put("fragments.rounds", comp.fragments.rounds as f64);
    layers.put("fragments.bits", comp.fragments.total_bits as f64);
    layers.put("partition.calls", comp.partition_calls as f64);
    layers.put(
        "partition.charged_rounds",
        comp.partition_charge.rounds as f64,
    );
    layers.put("pipeline.bfs_rounds", comp.bfs.rounds as f64);
    layers.put("pipeline.rounds", comp.pipeline.rounds as f64);
    layers.put(
        "pipeline.bits",
        (comp.bfs.total_bits + comp.pipeline.total_bits) as f64,
    );
    layers.put("pipeline.stalls", comp.stalls as f64);
    layers.put("engine.accounted_peak_bytes", accounted_peak as f64);
    layers.put(
        "engine.accounted_over_rss",
        accounted_peak as f64 / rss as f64,
    );
    layers.put("oracle.checks", (solve_times.len() + 1) as f64);
    layers.put("oracle.failed", oracle_failed as f64);
    if let Some(solve_id) = solve_span {
        let spans = tracer.snapshot();
        let selfs = self_times(&spans);
        let span_s = |name| secs(self_time_of(&spans, &selfs, name));
        let fragments_s = span_s("fragments");
        let pipeline_s = span_s("pipeline");
        layers.put("fragments.s", fragments_s);
        layers.put("partition.s", span_s("partition"));
        layers.put(
            "partition.max_call_s",
            spans
                .iter()
                .filter(|s| s.name == "partition")
                .map(|s| secs(s.duration()))
                .fold(0.0, f64::max),
        );
        layers.put("pipeline.s", pipeline_s);
        layers.put("oracle.s", span_s("oracle"));
        layers.put(
            "fragments.rounds_per_s",
            comp.fragments.rounds as f64 / fragments_s,
        );
        layers.put(
            "pipeline.rounds_per_s",
            (comp.bfs.rounds + comp.pipeline.rounds) as f64 / pipeline_s,
        );
        layers.put("trace.overhead_s", tracer.overhead_s());
        // The layer spans under the solve span must be disjoint, so their
        // durations plus the solve span's self time add up to it exactly,
        // and must cover all but a small share of it: an overlapping span
        // breaks the first, a layer call left without a span the second.
        let solve = spans[solve_id].duration();
        let unattributed = selfs[solve_id];
        let children: Duration = spans
            .iter()
            .filter(|s| s.parent == Some(solve_id))
            .map(Span::duration)
            .sum();
        let share = secs(unattributed) / secs(solve);
        ledger.check(
            children + unattributed == solve && share < MAX_UNATTRIBUTED,
            || {
                format!(
                    "layer spans: {children:?} in the layers + {unattributed:?} outside \
                     them vs a solve span of {solve:?} (unattributed share {share:.4}, \
                     at most {MAX_UNATTRIBUTED})"
                )
            },
        );
        println!(
            "spans: {} recorded; layer spans cover {:.4} of the {:.4} s solve span; \
             composition {comp_s:.4} s vs single-call median {solve_s:.4} s",
            spans.len(),
            1.0 - share,
            secs(solve)
        );
    }
    Outcome {
        e2e,
        layers,
        ledger,
    }
}
