//! Every metric the benchmark prints, and the `BENCHMARK.json` built from
//! them. The committed `BENCHMARK.json` must equal [`benchmark_json`]; the
//! package's tests check that.

use crate::workload::Workload;

/// The command that runs one benchmark run, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// A metric a user of the system sees, with its regression bound (the
/// share of the parent's median by which it may worsen).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// All end-to-end metrics are better when lower, and the times are CPU
/// seconds (see `measure`). `diagnoses_failed` is not among them: it is 0
/// on a correct run, so it is reported as the result's `failed` /
/// `attempted` counts and fails the run instead.
pub const END_TO_END: [EndToEnd; 4] = [
    // The paper's query turnaround (Fig 7).
    EndToEnd {
        name: "diagnosis_cpu_s",
        unit: "s",
        bound: 0.25,
    },
    // The classical Y!-style query (Fig 7 baseline): replay + query_at.
    EndToEnd {
        name: "provenance_query_cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// A metric of one layer, and the end-to-end metric it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const BOTH_QUERIES_CAMPUS: &str =
    "diagnosis_cpu_s, provenance_query_cpu_s; mostly campus, campus_churn";
const REPEATS: &str = "a count: must repeat exactly for a seed";

pub const PER_LAYER: [PerLayer; 33] = [
    // ndlog: the engine alone (`replay_null`).
    layer("ndlog.replay_s", "s", "lower", BOTH_QUERIES_CAMPUS),
    layer("ndlog.us_per_event", "us", "lower", BOTH_QUERIES_CAMPUS),
    layer("ndlog.events", "count", "lower", REPEATS),
    layer("ndlog.derivations", "count", "lower", REPEATS),
    layer("ndlog.underivations", "count", "lower", REPEATS),
    layer("ndlog.base_deletes", "count", "lower", REPEATS),
    layer("ndlog.peak_interned", "count", "lower", REPEATS),
    layer("ndlog.rss_mb", "MB", "lower", "peak_rss_mb on campus"),
    layer(
        "ndlog.bytes_per_tuple",
        "B",
        "lower",
        "peak_rss_mb on campus",
    ),
    layer(
        "ndlog.index_hit_rate",
        "ratio",
        "higher",
        "predicts ndlog.replay_s",
    ),
    layer(
        "ndlog.candidates_per_match",
        "ratio",
        "lower",
        "predicts ndlog.replay_s",
    ),
    // provenance: recording and tree extraction.
    layer(
        "provenance.record_s",
        "s",
        "lower",
        "diagnosis_cpu_s; mostly mapreduce, campus_churn",
    ),
    layer(
        "provenance.vertices",
        "count",
        "lower",
        "peak_rss_mb; mostly mapreduce, campus_churn",
    ),
    layer(
        "provenance.rss_mb",
        "MB",
        "lower",
        "peak_rss_mb; mostly mapreduce, campus_churn",
    ),
    layer(
        "provenance.bytes_per_vertex",
        "B",
        "lower",
        "peak_rss_mb; mostly mapreduce, campus_churn",
    ),
    layer(
        "provenance.extract_s",
        "s",
        "lower",
        "diagnosis_cpu_s on mapreduce only; no change on campus",
    ),
    layer("provenance.tree_vertices", "count", "lower", REPEATS),
    // replay: the initial replays and UPDATETREE inside `diagnose`.
    layer(
        "replay.replay_s",
        "s",
        "lower",
        "diagnosis_cpu_s and provenance_query_cpu_s on every workload",
    ),
    layer("replay.log_events", "count", "lower", REPEATS),
    layer(
        "replay.update_tree_s",
        "s",
        "lower",
        "diagnosis_cpu_s only, never provenance_query_cpu_s",
    ),
    layer("replay.update_tree_rounds", "count", "lower", REPEATS),
    layer(
        "replay.suffix_share",
        "ratio",
        "higher",
        "bound on what a suffix replay saves; ~0 on campus",
    ),
    // core: DiffProv reasoning (Fig 8) and time under no stage.
    layer(
        "core.find_seeds_s",
        "s",
        "lower",
        "diagnosis_cpu_s on mapreduce",
    ),
    layer(
        "core.detect_divergence_s",
        "s",
        "lower",
        "diagnosis_cpu_s on mapreduce",
    ),
    layer(
        "core.make_appear_s",
        "s",
        "lower",
        "diagnosis_cpu_s on mapreduce",
    ),
    layer(
        "core.reasoning_s",
        "s",
        "lower",
        "diagnosis_cpu_s on mapreduce",
    ),
    layer("core.delta_len", "count", "lower", REPEATS),
    layer(
        "core.other_s",
        "s",
        "lower",
        "diagnosis_cpu_s on every workload",
    ),
    // The traced run itself.
    layer(
        "trace.diagnosis_s",
        "s",
        "lower",
        "replay.replay_s + core.reasoning_s + core.other_s",
    ),
    layer("trace.setup_s", "s", "lower", "setup_s"),
    layer("trace.spans", "count", "lower", REPEATS),
    layer(
        "trace.overhead_s",
        "s",
        "lower",
        "tracing cost per iteration",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        "lower",
        "tracing cost against the iteration",
    ),
];

/// The unit of a metric named in either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or_else(
            || panic!("metric {name} is not in the manifest"),
            |(_, u)| u,
        )
}

fn joined(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(",")
}

/// The `BENCHMARK.json` this benchmark defines.
pub fn benchmark_json() -> String {
    let command = COMMAND.map(|s| format!("\"{s}\"")).join(", ");
    let workloads = joined(Workload::ALL.iter().map(|w| {
        format!(
            "\n    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        )
    }));
    let end_to_end = joined(END_TO_END.iter().map(|m| {
        format!(
            "\n    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
            m.name, m.unit, m.bound
        )
    }));
    let per_layer = joined(PER_LAYER.iter().map(|m| {
        format!(
            "\n    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    }));
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [{workloads}\n  ],\n  \
         \"end_to_end\": [{end_to_end}\n  ],\n  \"per_layer\": [{per_layer}\n  ]\n}}\n"
    )
}
