//! Checkpoint codec for the ASAP protocol ([`CheckpointProtocol`]).
//!
//! Static configuration ([`crate::AsapConfig`]) and the keyword hash table
//! (derived from the content model) are never serialized — the resume caller
//! reconstructs the protocol with the same configuration the original run
//! used. Everything dynamic rides the checkpoint: per-node counting filters,
//! versions, ad repositories, fetch pacers and re-advertisement watchdogs,
//! the pending-search table, the flood dedup window, claimed (spam) topics,
//! the delivery-id counter and the aggregate stats.
//!
//! Each type's field order is its [`Codec`] impl below (DESIGN.md §6d):
//! messages, ads and search state are `codec_struct!`/`codec_enum!` field
//! lists; per-node state is hand-written, because it rebuilds the filter
//! snapshot and validates repository capacity on decode. Maps serialize in
//! ascending key order and sets in ascending element order (the only
//! exceptions are `PendingSearch::in_flight` / `backlog`, whose *insertion*
//! order is behaviorally meaningful and serialized verbatim), so encode →
//! decode → re-encode is byte-identical.
//!
//! Bloom filters carry their [`BloomParams`] inline (`bits`, `hashes`, then
//! the words or counts), making every filter self-describing: message decode
//! is an associated function without access to the protocol config. The
//! asap-bloom types are foreign to both this crate and the `Codec` trait, so
//! their codecs hang off the local [`Bloom`] marker ([`CodecAs`]).
//!
//! `Rc` aliasing is *not* preserved: a filter shared by fifty caches
//! serializes fifty times and decodes into fifty allocations. Behavior only
//! depends on filter values, so digests are unaffected; only resumed-run
//! memory footprints differ.
//!
//! The hierarchical [`crate::SuperAsap`] variant is deliberately *not*
//! checkpointable: it is a demonstration deployment outside the pinned
//! golden matrix, and growing it a codec would double this module for no
//! replay coverage.

use crate::ad::{AdPayload, AdSnapshot, AsapMsg, Forwarding};
use crate::protocol::{Asap, AsapStats, NodeState, ReAdvert};
use crate::repository::{AdRepository, CachedAd};
use crate::search::{PendingSearch, Phase};
use asap_bloom::{BloomFilter, BloomParams, CountingBloom, FilterPatch};
use asap_overlay::PeerId;
use asap_sim::checkpoint::{CheckpointProtocol, Codec, CodecAs, CodecError, Decoder, Encoder};
use asap_sim::collections::DetHashMap;
use asap_sim::{codec_enum, codec_struct, NodeTable};
use asap_workload::InterestSet;
use std::rc::Rc;

/// Codec marker for the asap-bloom types.
pub(crate) struct Bloom;

fn decode_params(dec: &mut Decoder<'_>) -> Result<BloomParams, CodecError> {
    let (bits, hashes) = dec.get()?;
    if bits == 0 || hashes == 0 {
        return Err(CodecError::Invalid("degenerate bloom params"));
    }
    Ok(BloomParams { bits, hashes })
}

/// `bits`, `hashes`, then the backing words.
impl CodecAs<BloomFilter> for Bloom {
    fn encode(filter: &BloomFilter, enc: &mut Encoder) {
        let params = filter.params();
        (params.bits, params.hashes).encode(enc);
        enc.put_slice(filter.words());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<BloomFilter, CodecError> {
        let params = decode_params(dec)?;
        BloomFilter::from_words(params, dec.get()?).ok_or(CodecError::Invalid("bloom filter words"))
    }
}

impl CodecAs<Rc<BloomFilter>> for Bloom {
    fn encode(filter: &Rc<BloomFilter>, enc: &mut Encoder) {
        <Bloom as CodecAs<BloomFilter>>::encode(filter, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Rc<BloomFilter>, CodecError> {
        Ok(Rc::new(<Bloom as CodecAs<BloomFilter>>::decode(dec)?))
    }
}

/// `bits`, `hashes`, then the per-bit counts.
impl CodecAs<CountingBloom> for Bloom {
    fn encode(filter: &CountingBloom, enc: &mut Encoder) {
        let params = filter.params();
        (params.bits, params.hashes).encode(enc);
        enc.put_slice(filter.counts());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<CountingBloom, CodecError> {
        let params = decode_params(dec)?;
        CountingBloom::from_counts(params, dec.get()?)
            .ok_or(CodecError::Invalid("counting bloom counts"))
    }
}

/// Set bits, then cleared bits.
impl CodecAs<Rc<FilterPatch>> for Bloom {
    fn encode(patch: &Rc<FilterPatch>, enc: &mut Encoder) {
        patch.set.encode(enc);
        patch.cleared.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Rc<FilterPatch>, CodecError> {
        Ok(Rc::new(FilterPatch {
            set: dec.get()?,
            cleared: dec.get()?,
        }))
    }
}

// --- messages -------------------------------------------------------------

codec_struct!(AdSnapshot { source, topics, version, filter as Bloom });

codec_enum!(Forwarding {
    0 => Direct,
    1 => Flood { ttl },
    2 => Walk { budget },
    3 => Gsa { budget },
});

codec_enum!(AdPayload {
    0 => Full(snapshot),
    1 => Patch { source, topics, version, patch as Bloom, result as Bloom },
    2 => Refresh { source, topics, version },
});

codec_enum!(AsapMsg {
    0 => Ad { payload, fwd, delivery },
    1 => FullAdFetch,
    2 => AdsRequest { requester, interests, hops, query, terms },
    3 => AdsReply { ads, query },
    4 => Confirm { query, requester, terms },
    5 => ConfirmReply { query, results },
});

// --- per-node and search state --------------------------------------------

codec_struct!(CachedAd { topics, version, filter as Bloom, last_used_us, last_refreshed_us, stale });

codec_struct!(ReAdvert { baseline_fetches, backoff });

codec_enum!(Phase {
    0 => Confirming,
    1 => Fallback,
});

// `term_hashes` are a pure function of `terms`: recomputed by
// `decode_state`, which knows the keyword hash table.
codec_struct!(PendingSearch {
    requester,
    terms,
    term_hashes = Vec::new(),
    answered,
    phase,
    in_flight,
    confirmed,
    backlog,
    backoff,
});

codec_struct!(AsapStats {
    local_lookup_hits,
    fallback_rounds,
    confirms_sent,
    confirms_positive,
    confirms_negative,
    repair_fetches,
    full_deliveries,
    patch_deliveries,
    refresh_deliveries,
});

/// `snapshot` is not serialized: it is invariantly the filter's current
/// snapshot (audit_invariants checks exactly this) and is rebuilt on decode
/// via `CountingBloom::snapshot_rc`. The ad repository is its entry list in
/// source order, and may not exceed the cache capacity.
fn encode_node(st: &NodeState, enc: &mut Encoder) {
    <Bloom as CodecAs<CountingBloom>>::encode(&st.filter, enc);
    st.version.encode(enc);
    enc.put_len(st.repo.len());
    for (source, ad) in st.repo.iter() {
        source.encode(enc);
        ad.encode(enc);
    }
    st.fetching.encode(enc);
    st.fetch_backoff.encode(enc);
    st.fetches_served.encode(enc);
    st.readvert.encode(enc);
}

fn decode_node(dec: &mut Decoder<'_>, cache_capacity: usize) -> Result<NodeState, CodecError> {
    let filter: CountingBloom = <Bloom as CodecAs<CountingBloom>>::decode(dec)?;
    let version = dec.get()?;
    let snapshot = filter.snapshot_rc();
    let repo = AdRepository::from_entries(cache_capacity, dec.get()?)
        .ok_or(CodecError::Invalid("ad repository entries"))?;
    Ok(NodeState {
        filter,
        version,
        snapshot,
        repo,
        fetching: dec.get()?,
        fetch_backoff: dec.get()?,
        fetches_served: dec.get()?,
        readvert: dec.get()?,
    })
}

// ---------------------------------------------------------------------------
// The protocol impl
// ---------------------------------------------------------------------------

impl CheckpointProtocol for Asap {
    fn encode_msg(msg: &AsapMsg, enc: &mut Encoder) {
        msg.encode(enc);
    }

    fn decode_msg(dec: &mut Decoder<'_>) -> Result<AsapMsg, CodecError> {
        dec.get()
    }

    /// Nodes, pending searches by id, the seen window, claimed topics (only
    /// non-empty claims, by peer; spam claims always union ≥1 class), the
    /// delivery counter and the stats.
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put_len(self.nodes.len());
        for st in self.nodes.iter() {
            encode_node(st, enc);
        }
        self.pending.encode(enc);
        self.seen.encode(enc);
        let claimed: Vec<(PeerId, InterestSet)> = self
            .claimed_topics
            .iter()
            .enumerate()
            .filter(|(_, topics)| !topics.is_empty())
            .map(|(p, &topics)| (PeerId(p as u32), topics))
            .collect();
        claimed.encode(enc);
        self.next_delivery.encode(enc);
        self.stats.encode(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let num_peers = self.nodes.len();
        if dec.get_len()? != num_peers {
            return Err(CodecError::Invalid("node count mismatch"));
        }
        let nodes = (0..num_peers)
            .map(|_| decode_node(dec, self.config.cache_capacity))
            .collect::<Result<Vec<_>, _>>()?;
        let mut pending: DetHashMap<u32, PendingSearch> = dec.get()?;
        for p in pending.values_mut() {
            if p.terms.iter().any(|t| t.index() >= self.kw_hashes.len()) {
                return Err(CodecError::Invalid("pending term out of range"));
            }
            p.term_hashes = p.terms.iter().map(|&k| self.hash_of(k)).collect();
        }
        let seen = dec.get()?;
        let mut claimed_topics = NodeTable::from_vec(vec![InterestSet::EMPTY; num_peers]);
        for (p, topics) in dec.get::<Vec<(PeerId, InterestSet)>>()? {
            if let Some(slot) = claimed_topics.get_mut(p) {
                *slot = topics;
            }
        }
        let next_delivery = dec.get()?;
        let stats = dec.get()?;
        self.nodes = NodeTable::from_vec(nodes);
        self.pending = pending;
        self.seen = seen;
        self.claimed_topics = claimed_topics;
        self.next_delivery = next_delivery;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::KeywordId;
    use crate::config::{AsapConfig, DeliveryKind};
    use crate::retry::RobustnessConfig;
    use asap_overlay::{OverlayConfig, OverlayKind};
    use asap_sim::checkpoint::Checkpoint;
    use asap_sim::{AdversaryPlan, AuditConfig, FaultPlan, Simulation};
    use asap_topology::{PhysicalNetwork, TransitStubConfig};
    use asap_workload::{Workload, WorkloadConfig};

    fn world(peers: usize, queries: usize, seed: u64) -> (PhysicalNetwork, Workload, asap_overlay::Overlay) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
        let workload = asap_workload::generate(&WorkloadConfig::reduced(peers, queries, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
        (phys, workload, overlay)
    }

    fn msg_roundtrip(msg: &AsapMsg) {
        let mut enc = Encoder::new();
        msg.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back: AsapMsg = dec.get().unwrap();
        dec.finish().unwrap();
        let mut enc2 = Encoder::new();
        back.encode(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "re-encode differs for {msg:?}");
    }

    fn sample_snapshot() -> AdSnapshot {
        AdSnapshot {
            source: PeerId(7),
            topics: InterestSet(0b101),
            version: 3,
            filter: Rc::new(BloomFilter::from_keys(
                BloomParams::for_capacity(64, 4),
                ["rock", "jazz"],
            )),
        }
    }

    #[test]
    fn asap_msg_codec_roundtrips() {
        let terms: Rc<[KeywordId]> = vec![KeywordId(1), KeywordId(44)].into();
        let snap = sample_snapshot();
        let old = BloomFilter::from_keys(BloomParams::for_capacity(64, 4), ["rock"]);
        let patch = FilterPatch::diff(&old, &snap.filter);
        msg_roundtrip(&AsapMsg::Ad {
            payload: AdPayload::Full(snap.clone()),
            fwd: Forwarding::Flood { ttl: 6 },
            delivery: 42,
        });
        msg_roundtrip(&AsapMsg::Ad {
            payload: AdPayload::Patch {
                source: PeerId(7),
                topics: InterestSet(0b101),
                version: 4,
                patch: Rc::new(patch),
                result: Rc::clone(&snap.filter),
            },
            fwd: Forwarding::Walk { budget: 900 },
            delivery: 43,
        });
        msg_roundtrip(&AsapMsg::Ad {
            payload: AdPayload::Refresh {
                source: PeerId(9),
                topics: InterestSet(0b1),
                version: 0,
            },
            fwd: Forwarding::Gsa { budget: 12 },
            delivery: 44,
        });
        msg_roundtrip(&AsapMsg::FullAdFetch);
        msg_roundtrip(&AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(0b11),
            hops: 1,
            query: Some(17),
            terms: Some(Rc::clone(&terms)),
        });
        msg_roundtrip(&AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(0b11),
            hops: 2,
            query: None,
            terms: None,
        });
        msg_roundtrip(&AsapMsg::AdsReply {
            ads: vec![snap.clone(), sample_snapshot()],
            query: Some(17),
        });
        msg_roundtrip(&AsapMsg::AdsReply {
            ads: Vec::new(),
            query: None,
        });
        msg_roundtrip(&AsapMsg::Confirm {
            query: 17,
            requester: PeerId(3),
            terms,
        });
        msg_roundtrip(&AsapMsg::ConfirmReply {
            query: 17,
            results: 2,
        });
    }

    #[test]
    fn asap_msg_decode_rejects_bad_tags() {
        for bytes in [[200u8].as_slice(), &[0, 9], &[0]] {
            let mut dec = Decoder::new(bytes);
            assert!(dec.get::<AsapMsg>().is_err(), "accepted {bytes:?}");
        }
    }

    #[test]
    fn filter_decode_rejects_degenerate_params() {
        let mut enc = Encoder::new();
        enc.put_u32(0); // bits = 0
        enc.put_u32(8);
        enc.put_len(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            <Bloom as CodecAs<BloomFilter>>::decode(&mut dec),
            Err(CodecError::Invalid(_))
        ));
    }

    /// Run `make()` twice over the same world: once uninterrupted, once
    /// split at `frac` of the trace through a byte-roundtripped checkpoint.
    /// Digests must match bit-for-bit.
    fn assert_split_run_identical<F>(
        make: F,
        seed: u64,
        faults: Option<FaultPlan>,
        adversary: Option<AdversaryPlan>,
    ) where
        F: Fn(&asap_workload::ContentModel, &[asap_sim::AdversaryRole]) -> Asap,
    {
        let (phys, workload, overlay) = world(120, 150, seed);
        let roles = adversary
            .as_ref()
            .map(|plan| asap_sim::assign_roles(plan, workload.model.num_peers(), seed))
            .unwrap_or_else(|| vec![asap_sim::AdversaryRole::Honest; workload.model.num_peers()]);
        let build = |protocol: Asap, ov: asap_overlay::Overlay| {
            let mut b = Simulation::builder(&phys, &workload, ov, OverlayKind::Random, protocol, seed)
                .audit(AuditConfig::default());
            if let Some(f) = faults.clone() {
                b = b.faults(f);
            }
            if let Some(a) = adversary.clone() {
                b = b.adversary(a);
            }
            b
        };
        let cold = build(make(&workload.model, &roles), overlay.clone()).run();
        let cold_audit = cold.audit.expect("audited run");
        assert!(cold_audit.is_clean(), "{:?}", cold_audit.violations);

        let t_mid = workload.trace.duration_us() / 2;
        let mut first = build(make(&workload.model, &roles), overlay.clone()).build();
        first.run_until(t_mid);
        let ckpt = first.checkpoint();
        drop(first);

        let ckpt = Checkpoint::from_bytes(ckpt.into_bytes()).expect("self-produced bytes");
        // Resume from a plain builder: the checkpoint carries the audit,
        // fault, and adversary layers itself.
        let warm = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            make(&workload.model, &roles),
            seed,
        )
        .from_checkpoint(&ckpt)
        .expect("resume")
        .run();
        let warm_audit = warm.audit.expect("audited resume");

        assert_eq!(
            cold_audit.digest, warm_audit.digest,
            "split run digest diverged"
        );
        assert_eq!(cold.messages_sent, warm.messages_sent);
        assert_eq!(cold.end_time_us, warm.end_time_us);
        assert_eq!(cold.ledger.num_succeeded(), warm.ledger.num_succeeded());
        assert_eq!(cold.profile, warm.profile);
    }

    fn scaled(delivery: DeliveryKind) -> AsapConfig {
        AsapConfig::paper_default(delivery).scaled_to(120)
    }

    #[test]
    fn asap_fld_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::Flooding { ttl: 6 }), model),
            61,
            None,
            None,
        );
    }

    #[test]
    fn asap_rw_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::RandomWalk { walkers: 5 }), model),
            62,
            None,
            None,
        );
    }

    #[test]
    fn asap_gsa_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| Asap::new(scaled(DeliveryKind::Gsa { branch: 4 }), model),
            63,
            None,
            None,
        );
    }

    #[test]
    fn asap_lossy_split_run_is_bit_identical() {
        assert_split_run_identical(
            |model, _| {
                Asap::new(
                    scaled(DeliveryKind::RandomWalk { walkers: 5 })
                        .with_robustness(RobustnessConfig::lossy()),
                    model,
                )
            },
            64,
            Some(FaultPlan {
                loss_ppm: 20_000,
                jitter_max_us: 50_000,
                ..FaultPlan::none()
            }),
            None,
        );
    }

    #[test]
    fn asap_spam_adversary_split_run_is_bit_identical() {
        let seed = 65;
        assert_split_run_identical(
            move |model, roles| {
                Asap::new_with_adversaries(
                    scaled(DeliveryKind::RandomWalk { walkers: 5 }),
                    model,
                    roles,
                    seed,
                )
            },
            seed,
            None,
            Some(AdversaryPlan {
                spam_ppm: 100_000,
                ..AdversaryPlan::none()
            }),
        );
    }

    #[test]
    fn asap_state_reencode_is_byte_identical() {
        let seed = 66;
        let (phys, workload, overlay) = world(100, 120, seed);
        let make = || Asap::new(scaled(DeliveryKind::Flooding { ttl: 6 }), &workload.model);
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            make(),
            seed,
        )
        .build();
        sim.run_until(workload.trace.duration_us() / 2);
        let ckpt1 = sim.checkpoint();
        let resumed = Simulation::resume(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            make(),
            &ckpt1,
        )
        .expect("resume");
        let ckpt2 = resumed.checkpoint();
        assert_eq!(
            ckpt1.as_bytes(),
            ckpt2.as_bytes(),
            "checkpoint re-encode differs"
        );
    }

    /// Byte-format pin: an audited ASAP(RW) cell under a lossy fault plan
    /// (with a partition cut) and the spam10 adversary plus an eclipse
    /// target, checkpointed mid-run. Length and FNV-1a hash were measured
    /// before the codec moved to `Codec` impls; every section this crate
    /// and asap-sim write is in these bytes.
    #[test]
    fn audited_lossy_spam_checkpoint_bytes_are_pinned() {
        let seed = 67;
        let (phys, workload, overlay) = world(120, 150, seed);
        let adversary = AdversaryPlan {
            spam_ppm: 100_000,
            eclipse: vec![asap_sim::EclipseTarget {
                victim: PeerId(5),
                captured_links: 2,
            }],
            ..AdversaryPlan::none()
        };
        let roles = asap_sim::assign_roles(&adversary, workload.model.num_peers(), seed);
        let protocol = Asap::new_with_adversaries(
            scaled(DeliveryKind::RandomWalk { walkers: 5 })
                .with_robustness(RobustnessConfig::lossy()),
            &workload.model,
            &roles,
            seed,
        );
        let half = workload.trace.duration_us() / 2;
        let faults = FaultPlan {
            loss_ppm: 20_000,
            jitter_max_us: 50_000,
            duplicate_ppm: 10_000,
            partitions: vec![asap_sim::PartitionWindow {
                start_us: half / 2,
                end_us: half + 1_000_000,
                cut_index: 40,
            }],
        };
        let mut sim = Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, protocol, seed)
            .audit(AuditConfig::default())
            .faults(faults)
            .adversary(adversary)
            .build();
        sim.run_until(half);
        let bytes = sim.checkpoint().into_bytes();
        let mut h = asap_sim::Fnv64::new();
        h.write_bytes(&bytes);
        assert_eq!((bytes.len(), h.finish()), (3_067_057, 0xe6a8_e348_a38f_30de), "checkpoint bytes moved");
    }

    use proptest::prelude::*;

    proptest! {
        /// Counting filters reached through arbitrary insert/remove
        /// interleavings (including removes of absent keys) decode to the
        /// exact same counts and re-encode byte-identically. Deletes are
        /// what distinguish a counting filter from a plain one — a state
        /// the whole-sim tests above only reach via content churn.
        #[test]
        fn counting_bloom_roundtrips_after_deletes(
            ops in proptest::collection::vec((0u32..48, 0u32..3), 0..160),
        ) {
            let mut filter = CountingBloom::new(BloomParams::for_capacity(64, 4));
            for (key, action) in ops {
                let key = format!("key-{key}");
                if action == 2 {
                    filter.remove(&key);
                } else {
                    filter.insert(&key);
                }
            }
            let mut enc = Encoder::new();
            <Bloom as CodecAs<CountingBloom>>::encode(&filter, &mut enc);
            let bytes = enc.into_bytes();

            let mut dec = Decoder::new(&bytes);
            let back = <Bloom as CodecAs<CountingBloom>>::decode(&mut dec).unwrap();
            dec.finish().unwrap();
            prop_assert_eq!(back.counts(), filter.counts());

            let mut enc2 = Encoder::new();
            <Bloom as CodecAs<CountingBloom>>::encode(&back, &mut enc2);
            prop_assert_eq!(bytes, enc2.into_bytes());
        }

        /// A corrupted count vector length is a typed error, not a panic:
        /// `from_counts` demands exactly `bits` slots.
        #[test]
        fn counting_bloom_decode_rejects_wrong_slot_count(extra in 1u32..32) {
            let params = BloomParams::for_capacity(64, 4);
            let mut enc = Encoder::new();
            enc.put_u32(params.bits);
            enc.put_u32(params.hashes);
            let n = params.bits + extra;
            enc.put_len(n as usize);
            for _ in 0..n {
                enc.put_u16(0);
            }
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            prop_assert!(matches!(
                <Bloom as CodecAs<CountingBloom>>::decode(&mut dec),
                Err(CodecError::Invalid(_))
            ));
        }
    }
}
