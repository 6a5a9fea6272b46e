//! Binary serialization for [`EngineSnapshot`] — the payload of durable
//! checkpoint files (Section 4.8's "checkpoints" made actual bytes).
//!
//! The encoding walks the snapshot in its deterministic `BTreeMap` orders,
//! so equal snapshots encode to byte-identical buffers on every platform —
//! which is what lets the recovery proof compare digests rather than
//! structures. Only durable state is written: secondary indexes and tries
//! are *derived* data that [`Engine::restore`] re-derives against the
//! resuming program's plans (`reindex`), so they never touch disk. The one
//! subtlety is `Table::last_appear`: `reindex` rebuilds indexes but keeps
//! that clock, so it must be encoded or a restored engine's `as_of`-horizon
//! fast path could diverge from the uncut run.
//!
//! Decoding interns tuples through a local set so the `Arc<Tuple>` sharing
//! between table keys and derivation bodies survives the round trip;
//! decoded tables carry empty index vectors pending `restore`'s `reindex`.

use std::collections::HashSet;
use std::sync::Arc;

use dp_types::codec::{Dec, Enc};
use dp_types::{NodeId, Result, Tuple, TupleRef};

use super::{DerivRecord, EngineSnapshot, NodeState, Table, TupleState};

fn intern(set: &mut HashSet<Arc<Tuple>>, t: Tuple) -> Arc<Tuple> {
    if let Some(a) = set.get(&t) {
        return Arc::clone(a);
    }
    let a = Arc::new(t);
    set.insert(Arc::clone(&a));
    a
}

fn enc_tuple_ref(e: &mut Enc, r: &TupleRef) {
    e.str(r.node.as_str());
    e.tuple(&r.tuple);
}

fn dec_tuple_ref(d: &mut Dec<'_>, tuples: &mut HashSet<Arc<Tuple>>) -> Result<TupleRef> {
    let node = NodeId::new(d.str("tuple-ref node")?);
    let tuple = intern(tuples, d.tuple()?);
    Ok(TupleRef { node, tuple })
}

impl EngineSnapshot {
    /// Appends the snapshot's durable state to `e`.
    pub fn encode_into(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.u64(self.seq);
        e.u32(self.nodes.len() as u32);
        for (node, state) in &self.nodes {
            e.str(node.as_str());
            e.u32(state.tables.len() as u32);
            for (name, table) in &state.tables {
                e.str(name.as_str());
                e.u64(table.last_appear);
                e.u32(table.tuples.len() as u32);
                for (tuple, ts) in &table.tuples {
                    e.tuple(tuple);
                    e.u8(u8::from(ts.base));
                    e.u64(ts.appeared_at);
                    e.u32(ts.derivations.len() as u32);
                    for d in &ts.derivations {
                        e.str(d.rule.as_str());
                        e.u32(d.trigger as u32);
                        e.u64(d.time);
                        e.u32(d.body.len() as u32);
                        for b in &d.body {
                            enc_tuple_ref(e, b);
                        }
                    }
                }
            }
        }
        e.u32(self.dependents.len() as u32);
        for (key, deps) in &self.dependents {
            enc_tuple_ref(e, key);
            e.u32(deps.len() as u32);
            for dep in deps {
                enc_tuple_ref(e, dep);
            }
        }
    }

    /// The snapshot's durable state as a standalone byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    /// Decodes a snapshot previously written by [`EngineSnapshot::encode_into`].
    ///
    /// Secondary indexes and tries come back empty — [`Engine::restore`]
    /// re-derives them for the resuming program, exactly as it does for an
    /// in-memory snapshot taken under a different program.
    ///
    /// [`Engine::restore`]: super::Engine::restore
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        let mut tuples: HashSet<Arc<Tuple>> = HashSet::new();
        let clock = d.u64("snapshot clock")?;
        let seq = d.u64("snapshot seq")?;
        let nnodes = d.u32("snapshot node count")?;
        let mut nodes = std::collections::BTreeMap::new();
        for _ in 0..nnodes {
            let node = NodeId::new(d.str("snapshot node name")?);
            let ntables = d.u32("node table count")?;
            let mut state = NodeState::default();
            for _ in 0..ntables {
                let name = d.sym("table name")?;
                let mut table = Table {
                    last_appear: d.u64("table last-appear clock")?,
                    ..Default::default()
                };
                let ntuples = d.u32("table tuple count")?;
                for _ in 0..ntuples {
                    let tuple = intern(&mut tuples, d.tuple()?);
                    let base = d.u8("tuple base flag")? != 0;
                    let appeared_at = d.u64("tuple appeared-at clock")?;
                    let nderivs = d.u32("tuple derivation count")?;
                    let mut derivations = Vec::with_capacity(nderivs as usize);
                    for _ in 0..nderivs {
                        let rule = d.sym("derivation rule")?;
                        let trigger = d.u32("derivation trigger")? as usize;
                        let time = d.u64("derivation time")?;
                        let nbody = d.u32("derivation body length")?;
                        let mut body = Vec::with_capacity(nbody as usize);
                        for _ in 0..nbody {
                            body.push(dec_tuple_ref(d, &mut tuples)?);
                        }
                        derivations.push(DerivRecord {
                            rule,
                            body,
                            trigger,
                            time,
                        });
                    }
                    table.tuples.insert(
                        tuple,
                        TupleState {
                            base,
                            derivations,
                            appeared_at,
                            ..Default::default()
                        },
                    );
                }
                state.tables.insert(name, table);
            }
            nodes.insert(node, state);
        }
        let ndeps = d.u32("dependents count")?;
        let mut dependents = std::collections::BTreeMap::new();
        for _ in 0..ndeps {
            let key = dec_tuple_ref(d, &mut tuples)?;
            let nlist = d.u32("dependents list length")?;
            let mut list = Vec::with_capacity(nlist as usize);
            for _ in 0..nlist {
                list.push(dec_tuple_ref(d, &mut tuples)?);
            }
            dependents.insert(key, list);
        }
        Ok(EngineSnapshot {
            nodes,
            dependents,
            clock,
            seq,
        })
    }

    /// Decodes a snapshot from a complete buffer, requiring every byte to
    /// be consumed.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let snap = Self::decode_from(&mut d)?;
        if !d.is_exhausted() {
            return Err(dp_types::Error::Codec {
                context: "snapshot",
                detail: format!("{} trailing byte(s) after the snapshot", d.remaining()),
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{tuple, Error, Sym};
    use std::collections::BTreeMap;

    /// A hand-built two-node snapshot exercising every encoded field:
    /// base and derived tuples, multi-derivation support, dependents.
    fn sample() -> EngineSnapshot {
        let flow = Arc::new(tuple!("flowEntry", "S1", 5));
        let pkt = Arc::new(tuple!("packet", "S1", 7, true));
        let derived = Arc::new(tuple!("reach", "S2"));
        let mut t1 = Table {
            last_appear: 12,
            ..Default::default()
        };
        t1.tuples.insert(
            Arc::clone(&flow),
            TupleState {
                base: true,
                derivations: vec![],
                appeared_at: 3,
                ..Default::default()
            },
        );
        t1.tuples.insert(
            Arc::clone(&pkt),
            TupleState {
                base: false,
                derivations: vec![
                    DerivRecord {
                        rule: Sym::new("r1"),
                        body: vec![TupleRef::new(NodeId::new("S1"), Arc::clone(&flow))],
                        trigger: 0,
                        time: 12,
                    },
                    DerivRecord {
                        rule: Sym::new("r2"),
                        body: vec![],
                        trigger: 0,
                        time: 9,
                    },
                ],
                appeared_at: 9,
                ..Default::default()
            },
        );
        let mut s1 = NodeState::default();
        s1.tables.insert(Sym::new("flowEntry"), t1);
        let mut t2 = Table {
            last_appear: 14,
            ..Default::default()
        };
        t2.tuples.insert(
            Arc::clone(&derived),
            TupleState {
                base: false,
                derivations: vec![],
                appeared_at: 14,
                ..Default::default()
            },
        );
        let mut s2 = NodeState::default();
        s2.tables.insert(Sym::new("reach"), t2);
        let mut nodes = BTreeMap::new();
        nodes.insert(NodeId::new("S1"), s1);
        nodes.insert(NodeId::new("S2"), s2);
        let mut dependents = BTreeMap::new();
        dependents.insert(
            TupleRef::new(NodeId::new("S1"), Arc::clone(&flow)),
            vec![TupleRef::new(NodeId::new("S2"), Arc::clone(&derived))],
        );
        EngineSnapshot {
            nodes,
            dependents,
            clock: 17,
            seq: 42,
        }
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let snap = sample();
        let bytes = snap.encode();
        let back = EngineSnapshot::decode(&bytes).unwrap();
        // NodeState/Table don't implement PartialEq, so equality is proven
        // the way the recovery path proves it: re-encode and compare bytes.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.time(), 17);
    }

    #[test]
    fn decoded_sharing_survives() {
        let snap = sample();
        let back = EngineSnapshot::decode(&snap.encode()).unwrap();
        // The flowEntry tuple appears as a table key, a derivation body
        // member, and a dependents key; interning must collapse them.
        let table = &back.nodes[&NodeId::new("S1")].tables[&Sym::new("flowEntry")];
        let key = table
            .tuples
            .keys()
            .find(|t| t.table.as_str() == "flowEntry")
            .unwrap();
        let dep_key = back.dependents.keys().next().unwrap();
        assert!(Arc::ptr_eq(key, &dep_key.tuple));
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match EngineSnapshot::decode(&bytes[..cut]) {
                Err(Error::Codec { .. }) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    /// A dependents list keyed by a tuple the snapshot does not hold
    /// could never be cascaded from; restoring it is a typed error, from
    /// memory and from bytes alike.
    #[test]
    fn restore_rejects_dependents_of_a_tuple_it_does_not_hold() {
        use crate::engine::Engine;
        use crate::program::Program;
        use crate::sink::NullSink;
        use dp_types::SchemaRegistry;

        let program = Program::builder(SchemaRegistry::new()).build().unwrap();
        assert!(Engine::restore(Arc::clone(&program), sample(), NullSink).is_ok());
        let mut snap = sample();
        snap.dependents.insert(
            TupleRef::new(NodeId::new("S3"), tuple!("flowEntry", "S3", 1)),
            vec![TupleRef::new(NodeId::new("S2"), tuple!("reach", "S2"))],
        );
        let bytes = snap.encode();
        for snap in [snap, EngineSnapshot::decode(&bytes).unwrap()] {
            match Engine::restore(Arc::clone(&program), snap, NullSink) {
                Err(Error::Engine(msg)) => assert!(msg.contains("does not hold"), "{msg}"),
                Err(other) => panic!("wrong error: {other:?}"),
                Ok(_) => panic!("restored dependents of a tuple the snapshot lacks"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            EngineSnapshot::decode(&bytes),
            Err(Error::Codec { context: "snapshot", .. })
        ));
    }

    /// The encoded snapshot of a replayed multi-node engine, pinned by
    /// digest. `reach` floods four hops across a ring of twelve nodes with
    /// chords, so the dependents map holds hundreds of keys; a change to
    /// the order the encoder walks them, or to any other encoded field,
    /// moves the digest. Both firing disciplines must reach the same bytes.
    #[test]
    fn replayed_snapshot_bytes_are_pinned() {
        use crate::engine::Engine;
        use crate::program::Program;
        use crate::sink::NullSink;
        use dp_types::{fnv64, FieldType, Schema, SchemaRegistry, TableKind};

        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "origin",
            TableKind::ImmutableBase,
            [("src", FieldType::Str), ("hops", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "rev",
            TableKind::MutableBase,
            [("prev", FieldType::Str)],
        ));
        reg.declare(Schema::new(
            "reach",
            TableKind::Derived,
            [("src", FieldType::Str), ("hops", FieldType::Int)],
        ));
        let program = Program::builder(reg)
            .rules_text(
                "r0 reach(@N, X, C) :- origin(@N, X, C).\n\
                 r1 reach(@M, X, C1) :- reach(@N, X, C), rev(@N, M), C1 := C + 1, C < 4.",
            )
            .unwrap()
            .build()
            .unwrap();
        let name = |i: usize| Sym::new(format!("n{}", i % 12));
        let digest = |unbatched: bool| {
            let mut eng = Engine::new(Arc::clone(&program), NullSink);
            eng.set_unbatched(unbatched);
            for i in 0..12 {
                let node = NodeId::new(name(i));
                for step in [1, 4, 5] {
                    eng.schedule_insert(0, node.clone(), tuple!("rev", name(i + step)))
                        .unwrap();
                }
                eng.schedule_insert(1, node, tuple!("origin", name(i), 0))
                    .unwrap();
            }
            eng.run().unwrap();
            for i in [2, 5] {
                let node = NodeId::new(name(i));
                eng.schedule_delete(10, node, tuple!("rev", name(i + 4)))
                    .unwrap();
            }
            eng.run().unwrap();
            let snap = eng.snapshot().unwrap();
            let keys = snap.dependents.len();
            assert!(keys > 200, "{keys} dependents keys");
            fnv64(&snap.encode())
        };
        let want = digest(false);
        assert_eq!(want, digest(true), "firing disciplines encode differently");
        assert_eq!(want, 0xddd9_fbc8_4d99_465d, "digest {want:#018x}");
    }
}
