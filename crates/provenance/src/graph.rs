//! The temporal provenance graph (Section 3.2 of the paper).
//!
//! The graph is built incrementally from the engine's event stream: the
//! [`GraphRecorder`] implements [`ProvenanceSink`] and appends vertices as
//! events arrive. It uses the seven vertex types of the DTaP-style graph
//! the paper adopts: INSERT/DELETE, EXIST, DERIVE/UNDERIVE, and
//! APPEAR/DISAPPEAR. The temporal dimension — EXIST intervals and per-event
//! timestamps — is what lets a *past* event serve as the reference
//! (scenario SDN3).
//!
//! # Layout
//!
//! A paper-scale replay records millions of vertices, so the graph is a
//! set of flat arenas keyed by small integer ids rather than a heap object
//! per vertex:
//!
//! * every located tuple (`τ @ n`) is interned once into a *located id*;
//!   the map from tuple to id is the only structure hashed per event;
//! * a vertex is a fixed-size record (kind, located id, time, rule label,
//!   offset of its first child) in one `Vec`; its children are the run of
//!   the flat child array up to the next vertex's offset, so recording a
//!   vertex allocates nothing and bumps no reference count;
//! * the episodes of one located tuple are a contiguous run of one flat
//!   episode store. A run that must grow while it is not at the end of the
//!   store moves to the end with doubled capacity, so appends stay
//!   amortized O(1) and a tuple that appears once costs one slot;
//! * an EXIST vertex's interval end lives in its episode only.
//!
//! [`ProvGraph::vertex`] returns a [`Vertex`] view that reads the records
//! back as the paper's vocabulary.

use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use dp_ndlog::{ProvEvent, ProvenanceSink};
use dp_types::{FxHashMap, LogicalTime, NodeId, Sym, Tuple, TupleRef};

/// Index of a vertex within a [`ProvGraph`].
pub type VertexId = u32;

/// The seven vertex types of the temporal provenance graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// Base tuple inserted.
    Insert,
    /// Base tuple deleted.
    Delete,
    /// Tuple existed over an interval (`end == None` means "still exists").
    Exist {
        /// Interval end, exclusive; `None` while the tuple is alive.
        end: Option<LogicalTime>,
    },
    /// Tuple derived via a rule.
    Derive {
        /// The rule that fired.
        rule: Sym,
        /// Index of the triggering body tuple within the derive children.
        trigger: usize,
    },
    /// A derivation was invalidated.
    Underive {
        /// The rule whose derivation was invalidated.
        rule: Sym,
    },
    /// Tuple's support became positive.
    Appear,
    /// Tuple's support returned to zero.
    Disappear,
}

impl VertexKind {
    /// A stable short tag, used by the plain-diff baseline's signatures.
    pub fn tag(&self) -> &'static str {
        match self {
            VertexKind::Insert => "INSERT",
            VertexKind::Delete => "DELETE",
            VertexKind::Exist { .. } => "EXIST",
            VertexKind::Derive { .. } => "DERIVE",
            VertexKind::Underive { .. } => "UNDERIVE",
            VertexKind::Appear => "APPEAR",
            VertexKind::Disappear => "DISAPPEAR",
        }
    }
}

/// The kind of a vertex record, without payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Insert,
    Delete,
    Exist,
    Derive,
    Underive,
    Appear,
    Disappear,
}

/// One vertex, as stored: 24 bytes, no heap.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Event time (for EXIST: interval start).
    time: LogicalTime,
    /// The located tuple.
    loc: u32,
    /// Offset of the first child in [`ProvGraph::children`].
    first_child: u32,
    /// DERIVE/UNDERIVE: index into [`ProvGraph::labels`]; 0 otherwise.
    label: u32,
    tag: Tag,
}

// The layout the module docs promise.
const _: () = assert!(size_of::<Rec>() == 24);

/// A located tuple and the run of the episode store holding its episodes.
#[derive(Clone, Debug)]
struct Located {
    tref: TupleRef,
    /// First slot of the run.
    first: u32,
    /// Episodes in the run.
    len: u32,
    /// Slots reserved for the run (`len <= cap`).
    cap: u32,
}

/// A vertex of a [`ProvGraph`], borrowed from it.
#[derive(Clone, Copy)]
pub struct Vertex<'g> {
    graph: &'g ProvGraph,
    id: VertexId,
}

impl<'g> Vertex<'g> {
    fn rec(&self) -> &'g Rec {
        &self.graph.recs[self.id as usize]
    }

    /// The vertex id.
    pub fn id(&self) -> VertexId {
        self.id
    }

    /// Vertex type (and type-specific payload).
    pub fn kind(&self) -> VertexKind {
        let rec = self.rec();
        match rec.tag {
            Tag::Insert => VertexKind::Insert,
            Tag::Delete => VertexKind::Delete,
            Tag::Exist => VertexKind::Exist {
                end: self.graph.exist_end(rec.loc, self.id),
            },
            Tag::Derive => {
                let (rule, trigger) = &self.graph.labels[rec.label as usize];
                VertexKind::Derive {
                    rule: rule.clone(),
                    trigger: *trigger,
                }
            }
            Tag::Underive => VertexKind::Underive {
                rule: self.graph.labels[rec.label as usize].0.clone(),
            },
            Tag::Appear => VertexKind::Appear,
            Tag::Disappear => VertexKind::Disappear,
        }
    }

    /// The located tuple the vertex describes (its tuple is shared with
    /// the engine's interner).
    pub fn tref(&self) -> &'g TupleRef {
        &self.graph.locs[self.rec().loc as usize].tref
    }

    /// The node the tuple lives on.
    pub fn node(&self) -> &'g NodeId {
        &self.tref().node
    }

    /// The tuple the vertex describes.
    pub fn tuple(&self) -> &'g Arc<Tuple> {
        &self.tref().tuple
    }

    /// Event time (for EXIST: interval start).
    pub fn time(&self) -> LogicalTime {
        self.rec().time
    }

    /// Direct causes of this vertex.
    pub fn children(&self) -> &'g [VertexId] {
        let g = self.graph;
        let i = self.id as usize;
        let end = g
            .recs
            .get(i + 1)
            .map_or(g.children.len(), |next| next.first_child as usize);
        &g.children[g.recs[i].first_child as usize..end]
    }
}

impl fmt::Display for Vertex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (node, tuple, time) = (self.node(), self.tuple(), self.time());
        match self.kind() {
            VertexKind::Exist { end } => write!(
                f,
                "EXIST({node}, {tuple}, [{time}, {}))",
                end.map_or("∞".to_string(), |t| t.to_string())
            ),
            VertexKind::Derive { rule, .. } => {
                write!(f, "DERIVE({node}, {tuple}, {rule}, t={time})")
            }
            VertexKind::Underive { rule } => {
                write!(f, "UNDERIVE({node}, {tuple}, {rule}, t={time})")
            }
            other => write!(f, "{}({node}, {tuple}, t={time})", other.tag()),
        }
    }
}

impl fmt::Debug for Vertex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vertex")
            .field("id", &self.id)
            .field("kind", &self.kind())
            .field("node", self.node())
            .field("tuple", self.tuple())
            .field("time", &self.time())
            .field("children", &self.children())
            .finish()
    }
}

/// One contiguous lifetime of a tuple: from an APPEAR to the matching
/// DISAPPEAR (or to "now").
#[derive(Clone, Copy, Debug)]
pub struct Episode {
    /// The APPEAR vertex.
    pub appear: VertexId,
    /// The EXIST vertex spanning the episode.
    pub exist: VertexId,
    /// The INSERT or DERIVE vertex that caused the appearance.
    pub cause: VertexId,
    /// The DISAPPEAR vertex, once closed.
    pub disappear: Option<VertexId>,
    /// Episode start.
    pub start: LogicalTime,
    /// Episode end (exclusive), if the tuple disappeared.
    pub end: Option<LogicalTime>,
}

impl Episode {
    /// True if the episode covers time `t`.
    pub fn covers(&self, t: LogicalTime) -> bool {
        self.start <= t && self.end.is_none_or(|e| t < e)
    }
}

/// The append-only temporal provenance graph.
///
/// # Pending causes
///
/// The engine emits every APPEAR immediately after the INSERT or DERIVE
/// that causes it, and every DISAPPEAR immediately after the DELETE or
/// UNDERIVE that ends it (`do_insert_base`, `do_insert_derived`,
/// `do_delete_base` and `cascade` emit each pair back to back). So one
/// slot per direction carries a cause to its effect. A cause with no
/// effect after it (a DELETE or UNDERIVE that leaves the tuple other
/// support; an INSERT of a tuple that was alive before a checkpoint the
/// recording resumed from) leaves a stale slot, which the next cause of
/// that direction overwrites. Debug builds assert at every APPEAR and
/// DISAPPEAR that the slot holds that tuple's cause.
#[derive(Clone, Debug, Default)]
pub struct ProvGraph {
    recs: Vec<Rec>,
    /// Children of every vertex, in vertex order.
    children: Vec<VertexId>,
    /// Located tuples by located id.
    locs: Vec<Located>,
    /// Located tuple -> located id. Only probed, never iterated, so its
    /// hash order never reaches a vertex id or a tree.
    loc_ids: FxHashMap<TupleRef, u32>,
    /// Episode runs of every located tuple (see the module docs).
    episodes: Vec<Episode>,
    /// The (rule, trigger) payloads of DERIVE and UNDERIVE vertices (an
    /// UNDERIVE has no trigger and uses 0).
    labels: Vec<(Sym, usize)>,
    label_ids: FxHashMap<(Sym, usize), u32>,
    /// Supports gained while a tuple already existed (redundant DERIVEs
    /// and base re-insertions); not part of any extracted tree.
    extra_supports: u64,
    /// The INSERT/DERIVE awaiting its APPEAR: (located id, vertex).
    pending_cause: Option<(u32, VertexId)>,
    /// The latest DELETE/UNDERIVE, awaiting a DISAPPEAR.
    pending_negative: Option<(u32, VertexId)>,
    /// Reused buffer for a DERIVE's children.
    child_buf: Vec<VertexId>,
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// All vertices, in id order.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = Vertex<'_>> + '_ {
        // `push` keeps every index below 2^32.
        (0..self.recs.len()).map(move |i| Vertex {
            graph: self,
            id: i as VertexId,
        })
    }

    /// A vertex by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a vertex of this graph.
    pub fn vertex(&self, id: VertexId) -> Vertex<'_> {
        assert!(
            (id as usize) < self.recs.len(),
            "no vertex {id} in a graph of {}",
            self.len()
        );
        Vertex { graph: self, id }
    }

    /// Total vertex count.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Every located tuple the graph has a vertex for, in order of first
    /// appearance in the stream.
    pub fn located(&self) -> impl ExactSizeIterator<Item = &TupleRef> + '_ {
        self.locs.iter().map(|l| &l.tref)
    }

    /// The episodes of a located tuple, in chronological order.
    pub fn episodes(&self, tref: &TupleRef) -> &[Episode] {
        self.loc_ids.get(tref).map_or(&[], |&loc| self.run(loc))
    }

    /// The episode of `tref` covering time `t`, if any.
    pub fn episode_at(&self, tref: &TupleRef, t: LogicalTime) -> Option<&Episode> {
        self.episodes(tref).iter().rev().find(|e| e.covers(t))
    }

    /// The most recent episode of `tref` that started no later than `t`
    /// (used to locate reference events in the past).
    pub fn last_episode_starting_by(&self, tref: &TupleRef, t: LogicalTime) -> Option<&Episode> {
        self.episodes(tref).iter().rev().find(|e| e.start <= t)
    }

    /// Supports gained while the tuple already existed: redundant DERIVEs
    /// and base re-insertions. They are vertices of the graph but belong
    /// to no episode's tree.
    pub fn extra_supports(&self) -> u64 {
        self.extra_supports
    }

    /// Per-kind vertex counts — a quick profile of what the recorder
    /// captured (useful for sizing and for the CLI).
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats::default();
        for r in &self.recs {
            match r.tag {
                Tag::Insert => s.inserts += 1,
                Tag::Delete => s.deletes += 1,
                Tag::Exist => s.exists += 1,
                Tag::Derive => s.derives += 1,
                Tag::Underive => s.underives += 1,
                Tag::Appear => s.appears += 1,
                Tag::Disappear => s.disappears += 1,
            }
        }
        s
    }

    /// Heap bytes the graph has reserved, from the capacities of its
    /// arenas and maps (a hash map is counted at one control byte plus
    /// one entry per slot of its capacity). The tuples themselves are
    /// shared with the engine's interner and not counted.
    pub fn heap_bytes(&self) -> usize {
        fn map<K, V>(m: &FxHashMap<K, V>) -> usize {
            m.capacity() * (size_of::<(K, V)>() + 1)
        }
        self.recs.capacity() * size_of::<Rec>()
            + self.children.capacity() * size_of::<VertexId>()
            + self.locs.capacity() * size_of::<Located>()
            + map(&self.loc_ids)
            + self.episodes.capacity() * size_of::<Episode>()
            + self.labels.capacity() * size_of::<(Sym, usize)>()
            + map(&self.label_ids)
            + self.child_buf.capacity() * size_of::<VertexId>()
    }

    /// The episode run of located tuple `loc`.
    fn run(&self, loc: u32) -> &[Episode] {
        let l = &self.locs[loc as usize];
        let first = l.first as usize;
        &self.episodes[first..first + l.len as usize]
    }

    /// The latest episode of `loc`, if any.
    fn last_episode_mut(&mut self, loc: u32) -> Option<&mut Episode> {
        let l = &self.locs[loc as usize];
        if l.len == 0 {
            return None;
        }
        Some(&mut self.episodes[l.first as usize + l.len as usize - 1])
    }

    /// The EXIST vertex of `loc`'s open episode, if it has one.
    fn open_exist(&self, loc: u32) -> Option<VertexId> {
        self.run(loc)
            .last()
            .filter(|e| e.end.is_none())
            .map(|e| e.exist)
    }

    /// The interval end of EXIST vertex `exist` of located tuple `loc`.
    fn exist_end(&self, loc: u32, exist: VertexId) -> Option<LogicalTime> {
        let run = self.run(loc);
        let i = run.partition_point(|e| e.exist < exist);
        run.get(i).filter(|e| e.exist == exist).and_then(|e| e.end)
    }

    /// The located id of `tref`, interning it on first sight.
    fn intern(&mut self, tref: TupleRef) -> u32 {
        let next = u32::try_from(self.locs.len()).expect("fewer than 2^32 located tuples");
        let locs = &mut self.locs;
        *self.loc_ids.entry(tref).or_insert_with_key(|k| {
            locs.push(Located {
                tref: k.clone(),
                first: 0,
                len: 0,
                cap: 0,
            });
            next
        })
    }

    /// The label id of a DERIVE/UNDERIVE payload.
    fn label(&mut self, rule: Sym, trigger: usize) -> u32 {
        let next = u32::try_from(self.labels.len()).expect("fewer than 2^32 rule labels");
        let labels = &mut self.labels;
        *self
            .label_ids
            .entry((rule, trigger))
            .or_insert_with_key(|k| {
                labels.push(k.clone());
                next
            })
    }

    fn push(
        &mut self,
        tag: Tag,
        loc: u32,
        time: LogicalTime,
        label: u32,
        children: &[VertexId],
    ) -> VertexId {
        let id = VertexId::try_from(self.recs.len()).expect("fewer than 2^32 vertices");
        let first_child = u32::try_from(self.children.len()).expect("fewer than 2^32 child edges");
        self.children.extend_from_slice(children);
        self.recs.push(Rec {
            time,
            loc,
            first_child,
            label,
            tag,
        });
        id
    }

    /// Appends `ep` to `loc`'s run, moving the run to the end of the
    /// store with doubled capacity when it is full and not already last.
    fn push_episode(&mut self, loc: u32, ep: Episode) {
        let l = &mut self.locs[loc as usize];
        let (first, len, cap) = (l.first as usize, l.len as usize, l.cap as usize);
        if len < cap {
            self.episodes[first + len] = ep;
        } else if len > 0 && first + len == self.episodes.len() {
            self.episodes.push(ep);
            l.cap += 1;
        } else {
            let moved = self.episodes.len();
            let cap = (2 * len).max(1);
            self.episodes.extend_from_within(first..first + len);
            self.episodes.push(ep);
            self.episodes.resize(moved + cap, ep);
            l.first = u32::try_from(moved).expect("fewer than 2^32 episode slots");
            l.cap = u32::try_from(cap).expect("fewer than 2^32 episodes per tuple");
        }
        l.len += 1;
    }

    /// Creates an INSERT → APPEAR → EXIST chain for a tuple that predates
    /// the start of recording (checkpoint resume). The episode is opened at
    /// time 0 to reflect "existed since before we started watching".
    fn synthesize_boundary_episode(&mut self, tref: &TupleRef) -> VertexId {
        let loc = self.intern(tref.clone());
        let insert = self.push(Tag::Insert, loc, 0, 0, &[]);
        let appear = self.push(Tag::Appear, loc, 0, 0, &[insert]);
        let exist = self.push(Tag::Exist, loc, 0, 0, &[appear]);
        self.push_episode(
            loc,
            Episode {
                appear,
                exist,
                cause: insert,
                disappear: None,
                start: 0,
                end: None,
            },
        );
        exist
    }

    fn record_event(&mut self, event: ProvEvent) {
        match event {
            ProvEvent::InsertBase { time, node, tuple } => {
                let loc = self.intern(TupleRef { node, tuple });
                let id = self.push(Tag::Insert, loc, time, 0, &[]);
                if self.open_exist(loc).is_some() {
                    // Base re-inserted while alive: extra support.
                    self.extra_supports += 1;
                } else {
                    self.pending_cause = Some((loc, id));
                }
            }
            ProvEvent::Derive {
                time,
                node,
                tuple,
                rule,
                fired_at: _,
                body,
                trigger,
                redundant,
            } => {
                let loc = self.intern(TupleRef { node, tuple });
                // Children: the EXIST vertices of the body tuples' episodes
                // open at derivation time. A body tuple without an open
                // episode means recording started mid-stream (checkpoint
                // resume); synthesize a boundary episode for it so the
                // graph remains well-formed.
                let mut children = std::mem::take(&mut self.child_buf);
                children.clear();
                for b in &body {
                    let open = self.loc_ids.get(b).and_then(|&l| self.open_exist(l));
                    children.push(match open {
                        Some(exist) => exist,
                        None => self.synthesize_boundary_episode(b),
                    });
                }
                let label = self.label(rule, trigger);
                let id = self.push(Tag::Derive, loc, time, label, &children);
                self.child_buf = children;
                if !redundant {
                    self.pending_cause = Some((loc, id));
                } else if self.locs[loc as usize].len > 0 {
                    self.extra_supports += 1;
                }
            }
            ProvEvent::Appear { time, node, tuple } => {
                let loc = self.intern(TupleRef { node, tuple });
                let cause = match self.pending_cause.take() {
                    Some((l, c)) if l == loc => c,
                    other => {
                        // The engine never emits an APPEAR without its
                        // cause right before it; tolerate a stream that
                        // does by synthesizing an INSERT.
                        debug_assert!(false, "APPEAR of {loc} after the cause of {other:?}");
                        self.push(Tag::Insert, loc, time, 0, &[])
                    }
                };
                let appear = self.push(Tag::Appear, loc, time, 0, &[cause]);
                let exist = self.push(Tag::Exist, loc, time, 0, &[appear]);
                self.push_episode(
                    loc,
                    Episode {
                        appear,
                        exist,
                        cause,
                        disappear: None,
                        start: time,
                        end: None,
                    },
                );
            }
            ProvEvent::DeleteBase { time, node, tuple } => {
                let loc = self.intern(TupleRef { node, tuple });
                let id = self.push(Tag::Delete, loc, time, 0, &[]);
                self.pending_negative = Some((loc, id));
            }
            ProvEvent::Underive {
                time,
                node,
                tuple,
                rule,
            } => {
                let loc = self.intern(TupleRef { node, tuple });
                let label = self.label(rule, 0);
                let id = self.push(Tag::Underive, loc, time, label, &[]);
                self.pending_negative = Some((loc, id));
            }
            ProvEvent::Disappear { time, node, tuple } => {
                let loc = self.intern(TupleRef { node, tuple });
                let cause = match self.pending_negative.take() {
                    Some((l, c)) if l == loc => Some(c),
                    other => {
                        debug_assert!(false, "DISAPPEAR of {loc} after the cause of {other:?}");
                        None
                    }
                };
                let id = self.push(Tag::Disappear, loc, time, 0, cause.as_slice());
                if let Some(ep) = self.last_episode_mut(loc) {
                    if ep.end.is_none() {
                        ep.end = Some(time);
                        ep.disappear = Some(id);
                    }
                }
            }
        }
    }
}

/// Per-kind vertex counts of a [`ProvGraph`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// INSERT vertices.
    pub inserts: u64,
    /// DELETE vertices.
    pub deletes: u64,
    /// EXIST vertices.
    pub exists: u64,
    /// DERIVE vertices.
    pub derives: u64,
    /// UNDERIVE vertices.
    pub underives: u64,
    /// APPEAR vertices.
    pub appears: u64,
    /// DISAPPEAR vertices.
    pub disappears: u64,
}

impl GraphStats {
    /// Total vertices.
    pub fn total(&self) -> u64 {
        self.inserts
            + self.deletes
            + self.exists
            + self.derives
            + self.underives
            + self.appears
            + self.disappears
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vertices (INSERT {}, DELETE {}, EXIST {}, DERIVE {}, UNDERIVE {}, \
             APPEAR {}, DISAPPEAR {})",
            self.total(),
            self.inserts,
            self.deletes,
            self.exists,
            self.derives,
            self.underives,
            self.appears,
            self.disappears
        )
    }
}

/// A [`ProvenanceSink`] building a [`ProvGraph`].
///
/// This is the paper's *provenance recorder* in "infer" mode (Section 5):
/// dependencies are read off the engine's derivation stream directly.
#[derive(Clone, Debug, Default)]
pub struct GraphRecorder {
    /// The graph under construction.
    pub graph: ProvGraph,
    tracer: dp_trace::Tracer,
    meters: Option<RecorderMeters>,
}

/// Pre-resolved handles into the process-wide metrics registry, `None`
/// when `DP_METRICS` is off (the disabled path then costs one branch per
/// batch). Labeled `backend="graph"` so graph and annotation recording
/// stay comparable on one scrape.
#[derive(Clone, Debug)]
pub(crate) struct RecorderMeters {
    events: dp_metrics::Counter,
    live: dp_metrics::Gauge,
}

impl RecorderMeters {
    /// Resolves the per-backend handles when the global registry is live.
    pub(crate) fn register(backend: &'static str) -> Option<RecorderMeters> {
        let m = dp_metrics::Metrics::global();
        m.is_enabled().then(|| RecorderMeters {
            events: m.counter_with(
                "dp_prov_events_total",
                "Provenance events folded into a recorder by backend.",
                &[("backend", backend)],
            ),
            live: m.gauge_with(
                "dp_prov_live_records",
                "Records held by the most recent recorder by backend \
                 (graph: vertices; annot: annotated tuple slots).",
                &[("backend", backend)],
            ),
        })
    }

    /// Folds one delivery of `n` events and the recorder's current size.
    pub(crate) fn observe(&self, n: u64, live: u64) {
        self.events.add(n);
        self.live.set(live as i64);
    }
}

impl GraphRecorder {
    /// A recorder with an empty graph.
    pub fn new() -> Self {
        GraphRecorder {
            graph: ProvGraph::default(),
            tracer: dp_trace::Tracer::default(),
            meters: RecorderMeters::register("graph"),
        }
    }

    /// A recorder that times its batched folds into `tracer` (as
    /// `Class::Effort` `prov.record_batch` spans — batch structure is a
    /// property of the engine configuration, not of the program).
    pub fn with_tracer(tracer: dp_trace::Tracer) -> Self {
        GraphRecorder {
            graph: ProvGraph::default(),
            tracer,
            meters: RecorderMeters::register("graph"),
        }
    }

    /// Finishes recording, returning the graph.
    pub fn finish(self) -> ProvGraph {
        self.graph
    }
}

impl ProvenanceSink for GraphRecorder {
    fn record(&mut self, event: ProvEvent) {
        self.graph.record_event(event);
        if let Some(m) = &self.meters {
            m.observe(1, self.graph.len() as u64);
        }
    }

    /// Batched delivery from the engine's delta flush. The batch arrives
    /// in stream order and is folded into the graph one event at a time,
    /// in order — the resulting graph is identical to the one built by
    /// per-event delivery.
    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        let span = self.tracer.is_enabled().then(|| {
            (
                self.tracer
                    .span("prov.record_batch", dp_trace::Class::Effort, None),
                events.len() as u64,
            )
        });
        let n = events.len() as u64;
        for event in events.drain(..) {
            self.graph.record_event(event);
        }
        if let Some(m) = &self.meters {
            m.observe(n, self.graph.len() as u64);
        }
        if let Some((span, n)) = span {
            span.end(None, &[("events", n)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_ndlog::{Engine, Program};
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};
    use std::sync::Arc;

    fn fig4_program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "a",
            TableKind::ImmutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "b",
            TableKind::MutableBase,
            [
                ("x", FieldType::Int),
                ("y", FieldType::Int),
                ("z", FieldType::Int),
            ],
        ));
        reg.declare(Schema::new(
            "c",
            TableKind::Derived,
            [
                ("x", FieldType::Int),
                ("y2", FieldType::Int),
                ("z1", FieldType::Int),
            ],
        ));
        Program::builder(reg)
            .rules_text(
                "rc c(@N, X, Y2, Z1) :- a(@N, X, Y), b(@N, X, Y, Z), Y2 := Y * Y, Z1 := Z + 1.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn run_fig4() -> (ProvGraph, NodeId) {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2))
            .unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        (eng.into_sink().finish(), n)
    }

    #[test]
    fn derivation_builds_insert_appear_exist_chain() {
        let (g, n) = run_fig4();
        let c = TupleRef::new(n.clone(), tuple!("c", 1, 4, 4));
        let eps = g.episodes(&c);
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert!(matches!(
            g.vertex(ep.exist).kind(),
            VertexKind::Exist { end: None }
        ));
        assert!(matches!(g.vertex(ep.appear).kind(), VertexKind::Appear));
        match g.vertex(ep.cause).kind() {
            VertexKind::Derive { rule, trigger } => {
                assert_eq!(rule, dp_types::Sym::new("rc"));
                assert_eq!(trigger, 1);
            }
            other => panic!("expected DERIVE, got {other:?}"),
        }
        // The derive's children are the EXIST vertices of a and b.
        let derive = g.vertex(ep.cause);
        assert_eq!(derive.children().len(), 2);
        let tables: Vec<_> = derive
            .children()
            .iter()
            .map(|&id| g.vertex(id).tuple().table.as_str().to_string())
            .collect();
        assert_eq!(tables, ["a", "b"]);
    }

    #[test]
    fn deletion_closes_episode_with_interval() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2))
            .unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n.clone(), tuple!("b", 1, 2, 3));
        let ep = &g.episodes(&b)[0];
        assert!(ep.end.is_some());
        assert!(matches!(
            g.vertex(ep.exist).kind(),
            VertexKind::Exist { end: Some(_) }
        ));
        // The derived c also disappeared, via an UNDERIVE.
        let c = TupleRef::new(n, tuple!("c", 1, 4, 4));
        let cep = &g.episodes(&c)[0];
        let dis = cep.disappear.expect("c disappeared");
        let dis_v = g.vertex(dis);
        assert_eq!(dis_v.children().len(), 1);
        assert!(matches!(
            g.vertex(dis_v.children()[0]).kind(),
            VertexKind::Underive { .. }
        ));
    }

    #[test]
    fn episode_at_respects_time() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        let t_alive = eng.now();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        let t_dead = eng.now() + 1;
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
        assert!(g.episode_at(&b, t_alive).is_some());
        assert!(g.episode_at(&b, t_dead).is_none());
        assert!(g.last_episode_starting_by(&b, t_dead).is_some());
    }

    #[test]
    fn stats_count_every_vertex_kind() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2))
            .unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let s = g.stats();
        assert_eq!(s.total() as usize, g.len());
        assert_eq!(s.inserts, 2);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.derives, 1);
        assert_eq!(s.underives, 1);
        assert_eq!(s.appears, 3);
        assert_eq!(s.disappears, 2); // b and the cascaded c
        assert!(s.to_string().contains("DERIVE 1"));
    }

    /// Two tuples flapping in turn: each new episode finds its tuple's
    /// run away from the end of the episode store and moves it there.
    /// Every episode must come back in order with its own EXIST end.
    #[test]
    fn interleaved_episodes_stay_contiguous_per_tuple() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        let (p, q) = (tuple!("b", 1, 2, 3), tuple!("b", 4, 5, 6));
        for round in 0..6u64 {
            for t in [&p, &q] {
                eng.schedule_insert(round * 100, n.clone(), t.clone())
                    .unwrap();
                eng.schedule_delete(round * 100 + 50, n.clone(), t.clone())
                    .unwrap();
            }
            eng.run().unwrap();
        }
        let g = eng.into_sink().finish();
        assert!(crate::well_formedness_violations(&g).is_empty());
        for t in [&p, &q] {
            let eps = g.episodes(&TupleRef::new(n.clone(), t.clone()));
            assert_eq!(eps.len(), 6);
            for (w, ep) in eps.iter().enumerate() {
                assert!(eps[..w].iter().all(|e| e.start < ep.start));
                assert_eq!(g.vertex(ep.exist).kind(), VertexKind::Exist { end: ep.end });
                assert!(ep.end.is_some());
                assert_eq!(g.vertex(ep.appear).tuple().as_ref(), t);
            }
        }
        assert_eq!(g.located().count(), 2);
        assert!(g.heap_bytes() >= g.len() * size_of::<Rec>());
    }

    #[test]
    fn reappearance_creates_second_episode() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        eng.schedule_delete(10, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        eng.schedule_insert(20, n.clone(), tuple!("b", 1, 2, 3))
            .unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
        let eps = g.episodes(&b);
        assert_eq!(eps.len(), 2);
        assert!(eps[0].end.is_some());
        assert!(eps[1].end.is_none());
    }
}
