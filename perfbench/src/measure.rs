//! The two kinds of run. The end-to-end run times whole queries with no
//! instrumentation. The traced run wraps every public call into a layer in
//! a span, derives the per-layer metrics from the spans, and writes the
//! spans out when it ends.
//!
//! Both are closed loops: one operator issues one query at a time and
//! waits for the answer, until the run's time is up.
//!
//! End-to-end times are process CPU seconds, over all threads. Wall time
//! is printed beside them but not bounded: on a shared virtual machine the
//! hypervisor deschedules the process for up to half of a run, which moves
//! the median wall time of a run by 2x while its CPU time moves by 10%.

use std::time::{Duration, Instant};

use diffprov_core::{DiffProv, Report};
use dp_replay::Execution;

use crate::workload::{self, Built, Scale, Workload};

/// How often a run builds the workload; `setup_s` is the median.
const SETUP_REPS: usize = 15;

/// A run measures at least this many iterations, even past its deadline.
const MIN_ITERATIONS: usize = 3;

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Queries issued: diagnoses plus classical provenance queries.
    pub attempted: u64,
    /// Queries that erred or returned a wrong answer.
    pub failed: u64,
    /// What went wrong, one line per failure (at most a few).
    pub errors: Vec<String>,
    /// The effective engine configuration every query ran with.
    pub config: String,
    /// Iterations of the closed loop.
    pub iterations: usize,
    /// Metric name and value, in print order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures printed beside the metrics but not part of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one query and its verdict.
    fn tally(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// CPU seconds this process has used, over all its threads, including
/// threads that have exited.
fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux), and clock_gettime writes through the pointer only.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The wall and CPU time of one call.
#[derive(Clone, Copy)]
struct Cost {
    wall_s: f64,
    cpu_s: f64,
}

fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let out = f();
    let cpu_s = process_cpu_s() - c0;
    let wall_s = t0.elapsed().as_secs_f64();
    (out, Cost { wall_s, cpu_s })
}

/// The medians of the CPU and of the wall times.
fn medians(costs: &[Cost]) -> (f64, f64) {
    (
        median(costs.iter().map(|c| c.cpu_s).collect()),
        median(costs.iter().map(|c| c.wall_s).collect()),
    )
}

/// A field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads memory from /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"));
    kb / 1024.0
}

/// Resets VmHWM to the current VmRSS, so the peak that follows belongs to
/// the queries and not to the setup repetitions before them.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("the benchmark resets VmHWM through /proc/self/clear_refs (Linux only)");
}

/// Builds the workload `SETUP_REPS` times, dropping each copy before the
/// next is built, and keeps the last. Returns it with every build's cost.
fn setup(
    w: Workload,
    scale: Scale,
    seed: u64,
    mut trace: Option<&mut Trace>,
) -> (Built, Vec<Cost>) {
    let mut built = None;
    let mut costs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let span = trace.as_deref_mut().map(|t| t.open(rep, None, "setup"));
        let (b, cost) = measured(|| workload::build(w, scale, seed));
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
            t.close(id);
        }
        costs.push(cost);
        built = Some(b);
    }
    (built.expect("SETUP_REPS > 0"), costs)
}

/// The VmRSS growth while the engine alone is held, and the further
/// growth, less the engine's share, while a recorded replay is held too.
/// Measured once, in a process that has freed nothing large yet, with the
/// engine still held during the recorded replay: otherwise the allocator
/// hands freed memory back out and the growth reads as zero.
fn layer_memory(b: &Built) -> Result<(f64, f64), String> {
    let rss0 = proc_status_mb("VmRSS");
    let engine = b
        .bad
        .replay_null()
        .map_err(|e| format!("replay_null: {e}"))?;
    let rss1 = proc_status_mb("VmRSS");
    let replayed = b.bad.replay().map_err(|e| format!("replay: {e}"))?;
    let rss2 = proc_status_mb("VmRSS");
    drop((engine, replayed));
    let ndlog = rss1 - rss0;
    Ok((ndlog, rss2 - rss1 - ndlog))
}

/// The configuration a default-built engine runs with, read back from an
/// engine built the way every replay builds one.
fn effective_config(exec: &Execution) -> String {
    let probe = Execution::new(std::sync::Arc::clone(&exec.program));
    let engine = probe.replay_null().expect("an empty log replays");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "threads={} shards={} batching={} trie={} join={} backend={:?} store={:?} \
         trace={} metrics={} available_parallelism={cpus}",
        engine.threads(),
        engine.shard_count(),
        on_off(!engine.unbatched()),
        on_off(!engine.no_trie()),
        if engine.naive_join() {
            "naive"
        } else {
            "indexed"
        },
        probe.provenance_backend,
        probe.store_mode,
        on_off(engine.tracer().is_enabled()),
        on_off(engine.metrics().is_enabled()),
    )
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

fn diagnose(b: &Built) -> Result<Report, String> {
    DiffProv::default()
        .diagnose(&b.good, &b.good_event, &b.bad, &b.bad_event)
        .map_err(|e| format!("diagnose: {e}"))
}

/// The end-to-end run: query turnaround, set-up time and peak memory.
pub fn end_to_end(w: Workload, scale: Scale, seed: u64, seconds: u64) -> Outcome {
    let (built, setup_costs) = setup(w, scale, seed, None);
    let mut out = Outcome {
        config: effective_config(&built.bad),
        ..Outcome::default()
    };
    reset_peak_rss();
    let (mut diagnosis, mut query) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while diagnosis.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let (report, cost) = measured(|| diagnose(&built));
        diagnosis.push(cost);
        let bad_tree_size = report.as_ref().ok().map(|r| r.bad_tree_size);
        out.tally(report.and_then(|r| workload::check_report(w, &r)));

        // The classical query: replay the bad execution, extract one tree.
        // Dropping the replay is not part of the answer's latency.
        let ((replayed, tree), cost) = measured(|| {
            let replayed = built.bad.replay();
            let tree = replayed
                .as_ref()
                .ok()
                .and_then(|r| r.query_at(&built.bad_event.tref, built.bad_event.at));
            (replayed, tree)
        });
        query.push(cost);
        // The peak of the first diagnosis and query. Later iterations add
        // the allocator's fragmentation, which varies from run to run.
        peak_rss_mb.get_or_insert_with(|| proc_status_mb("VmHWM"));
        out.tally(
            replayed.map_err(|e| format!("replay: {e}")).and_then(|_| {
                workload::check_tree(w, &built.bad_event, tree.as_ref(), bad_tree_size)
            }),
        );
    }
    out.iterations = diagnosis.len();
    let ((diagnosis_cpu, diagnosis_wall), (query_cpu, query_wall)) =
        (medians(&diagnosis), medians(&query));
    let (setup_cpu, setup_wall) = medians(&setup_costs);
    out.push("diagnosis_cpu_s", diagnosis_cpu);
    out.push("provenance_query_cpu_s", query_cpu);
    out.push("peak_rss_mb", peak_rss_mb.expect("MIN_ITERATIONS > 0"));
    out.push("setup_s", setup_cpu);
    out.notes = vec![
        format!("diagnosis wall median = {diagnosis_wall} s"),
        format!("provenance query wall median = {query_wall} s"),
        format!("setup wall median = {setup_wall} s"),
    ];
    out
}

/// One span: a call into a layer, or a `diagnose` stage taken from
/// `Report::metrics` (which the caller cannot time from outside).
struct Span {
    iteration: usize,
    parent: Option<usize>,
    name: &'static str,
    start_s: f64,
    dur_s: f64,
    from_report: bool,
}

/// Spans kept in memory for the run and written out when it ends. The
/// time spent in its own bookkeeping is its overhead.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    fn open(&mut self, iteration: usize, parent: Option<usize>, name: &'static str) -> usize {
        let t0 = Instant::now();
        self.spans.push(Span {
            iteration,
            parent,
            name,
            start_s: (t0 - self.origin).as_secs_f64(),
            dur_s: 0.0,
            from_report: false,
        });
        self.overhead += t0.elapsed();
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let t0 = Instant::now();
        let span = &mut self.spans[id];
        span.dur_s = (t0 - self.origin).as_secs_f64() - span.start_s;
        let dur = span.dur_s;
        self.overhead += t0.elapsed();
        dur
    }

    /// Adds the `diagnose` stages of `report` under span `parent`, laid
    /// end to end from its start: the stages interleave, so only their
    /// totals are known.
    fn report_stages(&mut self, parent: usize, report: &Report) {
        let t0 = Instant::now();
        let m = &report.metrics;
        let stages = [
            ("replay.initial", m.replay.saturating_sub(m.update_tree)),
            ("replay.update_tree", m.update_tree),
            ("core.find_seeds", m.find_seeds),
            ("core.detect_divergence", m.detect_divergence),
            ("core.make_appear", m.make_appear),
        ];
        let (iteration, mut at) = (self.spans[parent].iteration, self.spans[parent].start_s);
        for (name, d) in stages {
            self.spans.push(Span {
                iteration,
                parent: Some(parent),
                name,
                start_s: at,
                dur_s: d.as_secs_f64(),
                from_report: true,
            });
            at += d.as_secs_f64();
        }
        self.overhead += t0.elapsed();
    }

    /// Duration minus the part of it the span's children cover.
    fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum();
        self.spans[id].dur_s - children
    }

    fn dur_of(&self, iteration: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.iteration == iteration && s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"parent\":{parent},\"iteration\":{},\"name\":\"{}\",\
                 \"start_s\":{},\"dur_s\":{},\"self_s\":{},\"from_report\":{}}}",
                s.iteration,
                s.name,
                s.start_s,
                s.dur_s,
                self.self_s(id),
                s.from_report
            )?;
        }
        f.flush()
    }
}

/// Counts one traced iteration produced; they must repeat exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Counts {
    events: u64,
    derivations: u64,
    underivations: u64,
    base_deletes: u64,
    peak_interned: u64,
    index_hit_rate: f64,
    candidates_per_match: f64,
    vertices: u64,
    tree_vertices: u64,
    update_tree_rounds: u64,
    delta_len: u64,
    spans: u64,
}

/// Per-iteration measurements that are medians across iterations.
#[derive(Default)]
struct Samples {
    ndlog_replay: Vec<f64>,
    record: Vec<f64>,
    extract: Vec<f64>,
    diagnose_span: Vec<(f64, usize)>,
}

/// The traced run: per-layer times, counts and memory, from spans
/// around each public call into a layer.
pub fn per_layer(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: u64,
    trace_path: &std::path::Path,
) -> Outcome {
    let mut out = Outcome::default();
    let (ndlog_rss, prov_rss) = match layer_memory(&workload::build(w, scale, seed)) {
        Ok(m) => m,
        Err(e) => {
            out.tally(Err(e));
            return out;
        }
    };
    let mut tr = Trace::new();
    let (built, _) = setup(w, scale, seed, Some(&mut tr));
    out.config = effective_config(&built.bad);
    let b = &built;
    // One replay serves both trees when both events come from one log,
    // as it does inside `diagnose`.
    let shared = std::sync::Arc::ptr_eq(&b.good.program, &b.bad.program)
        && b.good.log.events() == b.bad.log.events();

    let mut counts: Option<Counts> = None;
    let mut s = Samples::default();
    let mut suffix_share = 0.0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0;
    while i < MIN_ITERATIONS || Instant::now() < deadline {
        let spans_before = tr.spans.len();

        // ndlog: the engine alone.
        let id = tr.open(i, None, "ndlog.replay_null");
        let engine = b.bad.replay_null();
        let null_s = tr.close(id);
        let stats = match engine {
            Ok(e) => e.stats(),
            Err(e) => {
                out.tally(Err(format!("replay_null: {e}")));
                break;
            }
        };
        s.ndlog_replay.push(null_s);

        // The classical provenance query, and the reference tree.
        let root = tr.open(i, None, "provenance_query");
        let id = tr.open(i, Some(root), "provenance.replay");
        let replayed = b.bad.replay();
        let replay_s = tr.close(id);
        let id = tr.open(i, Some(root), "provenance.extract");
        let bad_tree = replayed
            .as_ref()
            .ok()
            .and_then(|r| r.query_at(&b.bad_event.tref, b.bad_event.at));
        let mut extract_s = tr.close(id);
        tr.close(root);
        let replayed = match replayed {
            Ok(r) => r,
            Err(e) => {
                out.tally(Err(format!("replay: {e}")));
                break;
            }
        };
        let vertices = replayed.graph().len() as u64;
        let root = tr.open(i, None, "reference_tree");
        let good_tree = if shared {
            let id = tr.open(i, Some(root), "provenance.extract");
            let t = replayed.query_at(&b.good_event.tref, b.good_event.at);
            extract_s += tr.close(id);
            t
        } else {
            let id = tr.open(i, Some(root), "provenance.replay");
            let good = b.good.replay();
            tr.close(id);
            let id = tr.open(i, Some(root), "provenance.extract");
            let t = good
                .as_ref()
                .ok()
                .and_then(|r| r.query_at(&b.good_event.tref, b.good_event.at));
            extract_s += tr.close(id);
            t
        };
        tr.close(root);
        drop(replayed);
        s.record.push(replay_s - null_s);
        s.extract.push(extract_s);

        // The diagnosis, with its stages from `Report::metrics`.
        let id = tr.open(i, None, "diagnose");
        let report = diagnose(b);
        tr.close(id);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.tally(Err(e));
                break;
            }
        };
        tr.report_stages(id, &report);
        s.diagnose_span.push((tr.spans[id].dur_s, id));
        out.tally(workload::check_report(w, &report));
        out.tally(workload::check_tree(
            w,
            &b.bad_event,
            bad_tree.as_ref(),
            Some(report.bad_tree_size),
        ));
        if i == 0 {
            // `diagnose` injects changes just before the bad seed's event.
            let events = b.bad.log.events();
            let inject_at = report
                .bad_seed
                .as_ref()
                .and_then(|seed| {
                    events
                        .iter()
                        .find(|e| e.node == seed.node && e.tuple == seed.tuple)
                })
                .map_or(0, |e| e.due)
                .saturating_sub(1);
            let suffix = events.iter().filter(|e| e.due >= inject_at).count();
            suffix_share = suffix as f64 / b.bad.log.len() as f64;
        }

        let these = Counts {
            events: stats.events,
            derivations: stats.derivations,
            underivations: stats.underivations,
            base_deletes: stats.base_deletes,
            peak_interned: stats.peak_interned,
            index_hit_rate: stats.index_hit_rate(),
            candidates_per_match: stats.join_candidates as f64 / stats.join_matches.max(1) as f64,
            vertices,
            tree_vertices: (good_tree.map_or(0, |t| t.len()) + bad_tree.map_or(0, |t| t.len()))
                as u64,
            update_tree_rounds: report.rounds.len() as u64,
            delta_len: report.delta.len() as u64,
            spans: (tr.spans.len() - spans_before) as u64,
        };
        match counts {
            None => counts = Some(these),
            Some(c) if c != these => {
                out.tally(Err(format!(
                    "counts changed between iterations: {c:?} then {these:?}"
                )));
            }
            Some(_) => {}
        }
        i += 1;
    }
    out.iterations = i;
    let Some(c) = counts else {
        return out;
    };
    if let Err(e) = tr.write_jsonl(trace_path) {
        out.tally(Err(format!("writing {}: {e}", trace_path.display())));
    }

    // The diagnose breakdown comes from one iteration, the one with the
    // median diagnose time, so its parts add up to its total exactly.
    s.diagnose_span.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (diag_s, diag_id) = s.diagnose_span[(s.diagnose_span.len() - 1) / 2];
    let at = tr.spans[diag_id].iteration;
    let stage = |name| tr.dur_of(at, name);
    let replay_s = stage("replay.initial") + stage("replay.update_tree");
    let reasoning_s =
        stage("core.find_seeds") + stage("core.detect_divergence") + stage("core.make_appear");
    let other_s = tr.self_s(diag_id);
    let setup_s = median(
        tr.spans
            .iter()
            .filter(|s| s.name == "setup")
            .map(|s| s.dur_s)
            .collect(),
    );
    let iteration_s: f64 = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name != "setup")
        .map(|s| s.dur_s)
        .sum();
    let overhead_s = tr.overhead.as_secs_f64() / i as f64;

    let ndlog_replay = median(s.ndlog_replay);
    const MB: f64 = 1024.0 * 1024.0;
    out.push("ndlog.replay_s", ndlog_replay);
    out.push(
        "ndlog.us_per_event",
        ndlog_replay * 1e6 / c.events.max(1) as f64,
    );
    out.push("ndlog.events", c.events as f64);
    out.push("ndlog.derivations", c.derivations as f64);
    out.push("ndlog.underivations", c.underivations as f64);
    out.push("ndlog.base_deletes", c.base_deletes as f64);
    out.push("ndlog.peak_interned", c.peak_interned as f64);
    out.push("ndlog.rss_mb", ndlog_rss);
    out.push(
        "ndlog.bytes_per_tuple",
        ndlog_rss * MB / c.peak_interned.max(1) as f64,
    );
    out.push("ndlog.index_hit_rate", c.index_hit_rate);
    out.push("ndlog.candidates_per_match", c.candidates_per_match);
    out.push("provenance.record_s", median(s.record));
    out.push("provenance.vertices", c.vertices as f64);
    out.push("provenance.rss_mb", prov_rss);
    out.push(
        "provenance.bytes_per_vertex",
        prov_rss * MB / c.vertices.max(1) as f64,
    );
    out.push("provenance.extract_s", median(s.extract));
    out.push("provenance.tree_vertices", c.tree_vertices as f64);
    out.push("replay.replay_s", replay_s);
    out.push("replay.log_events", b.bad.log.len() as f64);
    out.push("replay.update_tree_s", stage("replay.update_tree"));
    out.push("replay.update_tree_rounds", c.update_tree_rounds as f64);
    out.push("replay.suffix_share", suffix_share);
    out.push("core.find_seeds_s", stage("core.find_seeds"));
    out.push("core.detect_divergence_s", stage("core.detect_divergence"));
    out.push("core.make_appear_s", stage("core.make_appear"));
    out.push("core.reasoning_s", reasoning_s);
    out.push("core.delta_len", c.delta_len as f64);
    out.push("core.other_s", other_s);
    out.push("trace.diagnosis_s", diag_s);
    out.push("trace.setup_s", setup_s);
    out.push("trace.spans", c.spans as f64);
    out.push("trace.overhead_s", overhead_s);
    out.push("trace.overhead_share", overhead_s * i as f64 / iteration_s);
    out
}
