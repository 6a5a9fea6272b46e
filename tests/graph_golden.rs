//! Golden digests of recorded provenance: every vertex of every replayed
//! graph, rendered in id order with its children, and the provenance
//! stream digest of each log.
//!
//! The digests were recorded on the graph layout that kept one heap
//! record per vertex; any change to how the graph stores vertices,
//! episodes or located tuples must leave them untouched. The inputs are
//! the nine repro scenarios (good and bad execution each), a campus
//! network with update churn (closed episodes, DELETE/UNDERIVE chains)
//! and MR1-style jobs built straight from `build_job`, including the
//! combiner pipeline, whose logs interleave several due times.
//!
//! Those generators append their events in due order, so reading a log
//! borrows it instead of sorting a copy; the stream digests pin that the
//! order within each due is the one the stable sort produced.

use diffprov::mapreduce::{build_job, generate, CorpusConfig, JobConfig, Pipeline};
use diffprov::replay::{Execution, ProvBackend};
use diffprov::types::Fnv64;
use diffprov::{mapreduce, sdn};

/// Every execution the digests cover, labelled.
fn executions() -> Vec<(String, Execution)> {
    let mut out = Vec::new();
    let mut scenarios = sdn::all_sdn_scenarios();
    scenarios.extend(mapreduce::all_mr_scenarios());
    scenarios.push(sdn::campus(&sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in scenarios {
        out.push((format!("{} good", s.name), s.good_exec));
        out.push((format!("{} bad", s.name), s.bad_exec));
    }
    let churn = sdn::campus(&sdn::CampusConfig {
        seed: 5,
        bulk_entries_per_router: 3,
        background_packets: 40,
        update_churn_rounds: 3,
        ..Default::default()
    });
    out.push(("campus churn".to_string(), churn.scenario.bad_exec));
    let files = generate(&CorpusConfig {
        seed: 3,
        files: 3,
        lines_per_file: 12,
        ..Default::default()
    });
    for (label, cfg) in [
        (
            "MR1 job",
            JobConfig {
                reducers: 5,
                ..Default::default()
            },
        ),
        (
            "MR1 combiner job",
            JobConfig {
                reducers: 4,
                pipeline: Pipeline::Imperative,
                combiner: true,
                ..Default::default()
            },
        ),
    ] {
        out.push((label.to_string(), build_job(&cfg, &files)));
    }
    for (_, exec) in &mut out {
        exec.provenance_backend = ProvBackend::Graph;
    }
    out
}

#[test]
fn recorded_graphs_and_streams_match_the_golden_digests() {
    let mut graphs = Fnv64::new();
    let mut streams = Fnv64::new();
    let mut vertices = 0usize;
    for (label, exec) in executions() {
        let r = exec.replay().unwrap_or_else(|e| panic!("{label}: {e}"));
        let g = r.graph();
        graphs.update(label.as_bytes());
        for v in g.vertices() {
            graphs.update(format!("{} {v} <- {:?}\n", v.id(), v.children()).as_bytes());
        }
        vertices += g.len();
        let (digest, count) = exec.stream_digest().unwrap();
        streams.update(format!("{label} {digest:#018x} {count}\n").as_bytes());
    }
    let (graphs, streams) = (graphs.digest(), streams.digest());
    assert_eq!(vertices, 136_423, "vertex count moved");
    assert_eq!(graphs, 0x4c2f_98e6_15e3_3155, "graph digest {graphs:#018x}");
    assert_eq!(
        streams, 0xffb8_eede_3d04_6434,
        "stream digest {streams:#018x}"
    );
}

/// Every generated log reads back without a sort: two reads return the
/// same buffer.
#[test]
fn generated_logs_are_built_in_replay_order() {
    for (label, exec) in executions() {
        let (a, b) = (exec.log.events(), exec.log.events());
        assert!(
            std::ptr::eq(a.as_ptr(), b.as_ptr()),
            "{label}: reading the log sorted a copy"
        );
    }
}
