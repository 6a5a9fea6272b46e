//! The three diagnosis workloads: how each is generated from a seed, and
//! how each answer is checked.

use diffprov_core::{QueryEvent, Report};
use dp_mapreduce::{build_job, expected_counts, generate, reducer_of, CorpusConfig, JobConfig};
use dp_ndlog::TupleChange;
use dp_provenance::ProvTree;
use dp_replay::Execution;
use dp_sdn::{campus, CampusConfig, DROP_PORT};
use dp_types::{tuple, NodeId, TupleRef, Value};

/// Which diagnosis the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The §6.7 campus forwarding error: insert-only, base-tuple heavy.
    Campus,
    /// The same network with route and traffic churn: deletes beside inserts.
    CampusChurn,
    /// MR1-D: derivation- and aggregate-heavy, two separate executions.
    MapReduce,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Campus, Workload::CampusChurn, Workload::MapReduce];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campus => "campus",
            Workload::CampusChurn => "campus_churn",
            Workload::MapReduce => "mapreduce",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Campus => {
                "campus forwarding error, 10k entries: insert-only and base-tuple heavy; \
                 replay is nearly all of it and the whole log precedes the bad packet"
            }
            Workload::CampusChurn => {
                "same network at 2.5k entries and 5 churn rounds: deletes and re-inserts \
                 beside reads, so delete paths and closed episodes show"
            }
            Workload::MapReduce => {
                "MR1-D WordCount, 400 lines, reducers 4 to 5: derivation and aggregate heavy, \
                 12k-vertex trees, two separate executions"
            }
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Tiny` exists so the package's tests finish in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A smoke-test size with the same shape.
    Tiny,
}

/// Configuration entries per campus router and zone: 16 routers × 15 zones.
const ENTRIES_PER_BULK: usize = 16 * 15;

/// A generated workload: two executions and the two events to compare.
pub struct Built {
    /// The execution holding the reference event.
    pub good: Execution,
    /// The reference event.
    pub good_event: QueryEvent,
    /// The execution holding the event under diagnosis.
    pub bad: Execution,
    /// The event under diagnosis.
    pub bad_event: QueryEvent,
}

/// Generates `workload` from `seed`: the generator, both executions, and
/// the query events. This is what `setup_s` times.
pub fn build(workload: Workload, scale: Scale, seed: u64) -> Built {
    match workload {
        // Sizes give about half a second per diagnosis on a 2-CPU machine,
        // so one run holds 20 to 40 of them and its median is steady.
        Workload::Campus | Workload::CampusChurn => {
            let (entries, packets, churn) = match (workload, scale) {
                (Workload::Campus, Scale::Full) => (10_000, 400, 0),
                (Workload::Campus, Scale::Tiny) => (500, 40, 0),
                (_, Scale::Full) => (2_500, 400, 5),
                (_, Scale::Tiny) => (500, 40, 2),
            };
            let c = campus(&CampusConfig {
                seed,
                bulk_entries_per_router: entries / ENTRIES_PER_BULK + 1,
                background_packets: packets,
                update_churn_rounds: churn,
                ..Default::default()
            });
            let s = c.scenario;
            Built {
                good: s.good_exec,
                good_event: s.good_event,
                bad: s.bad_exec,
                bad_event: s.bad_event,
            }
        }
        Workload::MapReduce => {
            let lines_per_file = match scale {
                Scale::Full => 100,
                Scale::Tiny => 10,
            };
            let files = generate(&CorpusConfig {
                seed,
                files: 4,
                lines_per_file,
                ..Default::default()
            });
            let (word, count) = moving_word(&files, GOOD_REDUCERS, BAD_REDUCERS);
            let good_cfg = JobConfig {
                reducers: GOOD_REDUCERS,
                ..Default::default()
            };
            let bad_cfg = JobConfig {
                reducers: BAD_REDUCERS,
                ..good_cfg.clone()
            };
            Built {
                good: build_job(&good_cfg, &files),
                good_event: word_count_event(&word, count, GOOD_REDUCERS),
                bad: build_job(&bad_cfg, &files),
                bad_event: word_count_event(&word, count, BAD_REDUCERS),
            }
        }
    }
}

/// `mapreduce.job.reduces` in the reference run and in the faulty run.
const GOOD_REDUCERS: i64 = 4;
const BAD_REDUCERS: i64 = 5;

/// The most frequent word of this corpus that lands on another reducer
/// when the pool grows from `a` to `b` — the MR1 symptom. Ties go to the
/// alphabetically first word, so the choice depends on the seed alone.
fn moving_word(files: &[dp_mapreduce::InputFile], a: i64, b: i64) -> (String, i64) {
    let mut best: Option<(String, i64)> = None;
    for (w, c) in expected_counts(files, false) {
        if reducer_of(&w, a) != reducer_of(&w, b) && best.as_ref().is_none_or(|(_, bc)| c > *bc) {
            best = Some((w, c));
        }
    }
    best.expect("some word moves between reducer pools")
}

fn word_count_event(word: &str, count: i64, reducers: i64) -> QueryEvent {
    let node = NodeId::new(format!("r{}", reducer_of(word, reducers)));
    QueryEvent::new(
        TupleRef::new(node, tuple!("wordCount", word, count)),
        u64::MAX,
    )
}

/// Campus provenance tree sizes (good, bad): the probe path is fixed, so
/// neither the seed nor the table size changes them.
const CAMPUS_TREES: (usize, usize) = (69, 48);

/// Checks a diagnosis. `Err` names what is wrong.
pub fn check_report(workload: Workload, report: &Report) -> Result<(), String> {
    if !report.succeeded() || !report.verified {
        return Err(format!("diagnosis did not succeed and verify: {report}"));
    }
    match workload {
        Workload::Campus | Workload::CampusChurn => {
            let names_fault = report.delta.iter().any(|c| {
                c.before.as_ref().is_some_and(|t| {
                    t.table.as_str() == "cfgEntry"
                        && t.args.first() == Some(&Value::Int(2))
                        && t.args.get(1) == Some(&Value::str("oz4"))
                        && t.args.get(5) == Some(&Value::Int(DROP_PORT))
                })
            });
            if !names_fault {
                return Err(format!(
                    "delta does not name oz4's rid-2 drop entry: {report}"
                ));
            }
            let trees = (report.good_tree_size, report.bad_tree_size);
            if trees != CAMPUS_TREES {
                return Err(format!("tree sizes {trees:?}, expected {CAMPUS_TREES:?}"));
            }
        }
        Workload::MapReduce => {
            let expected = TupleChange {
                node: NodeId::new(dp_mapreduce::DRIVER),
                before: Some(tuple!("mrConfig", "mapreduce.job.reduces", BAD_REDUCERS)),
                after: Some(tuple!("mrConfig", "mapreduce.job.reduces", GOOD_REDUCERS)),
            };
            if report.delta != [expected] {
                return Err(format!("delta is not reduces 5 -> 4: {report}"));
            }
        }
    }
    Ok(())
}

/// Checks a classical provenance query: it must return the bad event's
/// tree, of the size the diagnosis extracted for the same event.
pub fn check_tree(
    workload: Workload,
    bad_event: &QueryEvent,
    tree: Option<&ProvTree>,
    bad_tree_size: Option<usize>,
) -> Result<(), String> {
    let tree = tree.ok_or("the provenance query returned no tree")?;
    let root = tree.root();
    if root.node != bad_event.tref.node || *root.tuple != bad_event.tref.tuple {
        return Err(format!(
            "tree root {}@{} is not the bad event",
            root.tuple, root.node
        ));
    }
    let expected = match workload {
        Workload::Campus | Workload::CampusChurn => Some(CAMPUS_TREES.1),
        Workload::MapReduce => bad_tree_size,
    };
    match expected {
        Some(n) if n != tree.len() => Err(format!(
            "bad tree has {} vertices, expected {n}",
            tree.len()
        )),
        _ => Ok(()),
    }
}
