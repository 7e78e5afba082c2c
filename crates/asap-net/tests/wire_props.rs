//! Property tests for the wire framing codec, mirroring the checkpoint-codec
//! tier (`asap-sim/tests/checkpoint_roundtrip.rs`): every frame that encodes
//! must decode back to a byte-identical re-encode, and every corrupted or
//! truncated buffer must map to a typed [`WireError`] — never a panic (the
//! decode path sits under lint rule R4 panic-reachability).
//!
//! Messages are built deterministically from proptest-generated integers
//! rather than via `Arbitrary` impls: the vendored shim has no shrinking, so
//! small seed tuples keep failing cases readable. The same construction
//! covers all four `BaselineMsg` variants and seven `AsapMsg` shapes
//! (full/refresh ads, fetches, warm-up and query-driven ads requests,
//! replies with Bloom-backed snapshots, confirm round trips).

use std::rc::Rc;

use asap_bloom::{BloomFilter, BloomParams};
use asap_core::{AdPayload, AdSnapshot, Asap, AsapMsg, Forwarding};
use asap_metrics::MsgClass;
use asap_net::wire::{
    decode_frame, decode_frame_exact, encode_frame, Frame, WireError, ENVELOPE, MAX_FRAME,
};
use asap_overlay::PeerId;
use asap_search::{BaselineMsg, Flooding};
use asap_sim::{CheckpointProtocol, Fnv64};
use asap_workload::{InterestSet, KeywordId};
use proptest::prelude::*;

/// Deterministic keyword list: distinct ids derived from a seed.
fn keywords(seed: u32, n: usize) -> Rc<[KeywordId]> {
    (0..n as u32)
        .map(|i| KeywordId(seed.wrapping_mul(2_654_435_761).wrapping_add(i * 7919) % 50_000))
        .collect::<Vec<_>>()
        .into()
}

/// Bloom-backed snapshot from a seed, as ASAP ads replies carry them.
fn snapshot(seed: u32) -> AdSnapshot {
    let keys: Vec<String> = (0..(seed % 5) + 1).map(|i| format!("k{seed}-{i}")).collect();
    AdSnapshot {
        source: PeerId(seed % 10_000),
        topics: InterestSet((seed % 0xFFFF) as u16),
        version: (seed % 900) as u16,
        filter: Rc::new(BloomFilter::from_keys(
            BloomParams::paper_default(),
            keys.iter().map(String::as_str),
        )),
    }
}

/// One of the four baseline wire messages, selected by `kind`.
fn baseline_msg(kind: u8, query: u32, peer: u32, ttl: u16, nterms: usize) -> BaselineMsg {
    let requester = PeerId(peer % 100_000);
    let terms = keywords(query, nterms);
    match kind % 4 {
        0 => BaselineMsg::Flood {
            query,
            requester,
            terms,
            ttl: (ttl % 32) as u8,
        },
        1 => BaselineMsg::Walk {
            query,
            requester,
            terms,
            ttl,
        },
        2 => BaselineMsg::Gsa {
            query,
            requester,
            terms,
            budget: u32::from(ttl) * 7 + 1,
        },
        _ => BaselineMsg::Hit {
            query,
            results: u32::from(ttl),
        },
    }
}

/// One of seven ASAP wire message shapes, selected by `kind`.
fn asap_msg(kind: u8, query: u32, peer: u32, ttl: u16, nterms: usize) -> AsapMsg {
    let requester = PeerId(peer % 10_000);
    match kind % 7 {
        0 => AsapMsg::Ad {
            payload: AdPayload::Full(snapshot(query)),
            fwd: Forwarding::Flood { ttl: (ttl % 32) as u8 },
            delivery: u64::from(query) << 16 | u64::from(ttl),
        },
        1 => AsapMsg::Ad {
            payload: AdPayload::Refresh {
                source: requester,
                topics: InterestSet((query % 0xFFFF) as u16),
                version: ttl % 900,
            },
            fwd: Forwarding::Walk {
                budget: u32::from(ttl) + 1,
            },
            delivery: u64::from(query),
        },
        2 => AsapMsg::FullAdFetch,
        3 => AsapMsg::AdsRequest {
            requester,
            interests: InterestSet((query % 0xFFFF) as u16),
            hops: (ttl % 8) as u8,
            query: Some(query),
            terms: Some(keywords(query, nterms)),
        },
        // Join-time warm-up shape: no live query attached.
        4 => AsapMsg::AdsRequest {
            requester,
            interests: InterestSet((query % 0xFFFF) as u16),
            hops: (ttl % 8) as u8,
            query: None,
            terms: None,
        },
        5 => AsapMsg::AdsReply {
            ads: (0..nterms % 4).map(|i| snapshot(query.wrapping_add(i as u32))).collect(),
            query: if ttl.is_multiple_of(2) { Some(query) } else { None },
        },
        6 => AsapMsg::Confirm {
            query,
            requester,
            terms: keywords(query, nterms.max(1)),
        },
        _ => AsapMsg::ConfirmReply {
            query,
            results: u32::from(ttl),
        },
    }
}

fn frame<M>(msg: M, peer: u32, class_idx: usize, billed: u32) -> Frame<M> {
    Frame {
        from: PeerId(peer % 100_000),
        to: PeerId(peer / 7 % 100_000),
        class: MsgClass::ALL[class_idx % MsgClass::ALL.len()],
        billed,
        msg,
    }
}

/// Decode → re-encode must be byte-identical: the message codecs are
/// canonical, so byte identity proves every field survived.
fn assert_roundtrip<P: CheckpointProtocol>(bytes: &[u8]) {
    let back = decode_frame_exact::<P>(bytes).expect("clean frame decodes");
    assert_eq!(encode_frame::<P>(&back), bytes, "re-encode is not byte-identical");
    // The streaming decoder must agree with the exact one and consume all.
    let (stream, consumed) = decode_frame::<P>(bytes)
        .expect("streaming decode of a clean frame")
        .expect("frame is complete");
    assert_eq!(consumed, bytes.len());
    assert_eq!(encode_frame::<P>(&stream), bytes);
}

/// Every proper prefix is either "keep reading" (streaming) or a typed
/// `Truncated` (exact) — never a panic, never a bogus frame.
fn assert_prefixes_truncate<P: CheckpointProtocol>(bytes: &[u8], cut: usize)
where
    P::Msg: std::fmt::Debug,
{
    let prefix = &bytes[..cut];
    match decode_frame::<P>(prefix) {
        Ok(None) => {}
        Ok(Some((_, consumed))) => panic!("prefix of {cut} bytes decoded, consuming {consumed}"),
        Err(e) => panic!("prefix of {cut} bytes is a hard error: {e}"),
    }
    assert_eq!(
        decode_frame_exact::<P>(prefix).expect_err("prefix cannot be a whole frame"),
        WireError::Truncated
    );
}

/// Fixed frame corpus: every `BaselineMsg` and `AsapMsg` variant, every
/// `AdPayload` and `Forwarding` shape, and the `None`/empty cases (no query,
/// no terms, empty term lists, empty replies, an empty patch).
fn corpus() -> (Vec<Frame<BaselineMsg>>, Vec<Frame<AsapMsg>>) {
    let terms = keywords(17, 3);
    let none: Rc<[KeywordId]> = Vec::new().into();
    let baseline = vec![
        BaselineMsg::Flood { query: 1, requester: PeerId(2), terms: Rc::clone(&terms), ttl: 6 },
        BaselineMsg::Flood { query: 2, requester: PeerId(0), terms: Rc::clone(&none), ttl: 0 },
        BaselineMsg::Walk { query: 3, requester: PeerId(9), terms: Rc::clone(&terms), ttl: 1024 },
        BaselineMsg::Gsa { query: 4, requester: PeerId(77), terms: Rc::clone(&terms), budget: 8000 },
        BaselineMsg::Hit { query: 5, results: 0 },
        BaselineMsg::Hit { query: u32::MAX, results: 3 },
    ];
    let old = BloomFilter::from_keys(BloomParams::paper_default(), ["a", "b"]);
    let new = BloomFilter::from_keys(BloomParams::paper_default(), ["b", "c", "d"]);
    let patch = asap_bloom::FilterPatch::diff(&old, &new);
    let payloads = [
        AdPayload::Full(snapshot(3)),
        AdPayload::Patch {
            source: PeerId(4),
            topics: InterestSet(0b110),
            version: 9,
            patch: Rc::new(patch),
            result: Rc::new(new.clone()),
        },
        AdPayload::Patch {
            source: PeerId(4),
            topics: InterestSet(0),
            version: 10,
            patch: Rc::new(asap_bloom::FilterPatch::default()),
            result: Rc::new(new),
        },
        AdPayload::Refresh { source: PeerId(8), topics: InterestSet(1), version: 0 },
    ];
    let fwds = [
        Forwarding::Direct,
        Forwarding::Flood { ttl: 6 },
        Forwarding::Walk { budget: 900 },
        Forwarding::Gsa { budget: 12 },
    ];
    let mut asap: Vec<AsapMsg> = payloads
        .iter()
        .zip(fwds)
        .enumerate()
        .map(|(i, (payload, fwd))| AsapMsg::Ad { payload: payload.clone(), fwd, delivery: 40 + i as u64 })
        .collect();
    asap.extend([
        AsapMsg::FullAdFetch,
        AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(0b11),
            hops: 1,
            query: Some(17),
            terms: Some(Rc::clone(&terms)),
        },
        AsapMsg::AdsRequest { requester: PeerId(3), interests: InterestSet(0), hops: 2, query: None, terms: None },
        AsapMsg::AdsRequest {
            requester: PeerId(3),
            interests: InterestSet(1),
            hops: 0,
            query: Some(0),
            terms: Some(Rc::clone(&none)),
        },
        AsapMsg::AdsReply { ads: vec![snapshot(5), snapshot(6)], query: Some(17) },
        AsapMsg::AdsReply { ads: Vec::new(), query: None },
        AsapMsg::Confirm { query: 17, requester: PeerId(3), terms },
        AsapMsg::Confirm { query: 18, requester: PeerId(0), terms: none },
        AsapMsg::ConfirmReply { query: 17, results: 2 },
    ]);
    let wrap = |i: usize| (i as u32 * 31, i, i as u32 * 13 + 60);
    (
        baseline
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let (peer, class, billed) = wrap(i);
                frame(m, peer, class, billed)
            })
            .collect(),
        asap.into_iter()
            .enumerate()
            .map(|(i, m)| {
                let (peer, class, billed) = wrap(i);
                frame(m, peer, class, billed)
            })
            .collect(),
    )
}

/// Byte-format pin of the frame corpus: total length and FNV-1a hash of the
/// concatenated frames, per protocol family. Measured before the codec moved
/// to `Codec` impls; frames must also round-trip byte-identically.
#[test]
fn frame_corpus_bytes_are_pinned() {
    let (baseline, asap) = corpus();
    let mut bytes = Vec::new();
    for f in &baseline {
        let one = encode_frame::<Flooding>(f);
        assert_roundtrip::<Flooding>(&one);
        bytes.extend_from_slice(&one);
    }
    let split = bytes.len();
    for f in &asap {
        let one = encode_frame::<Asap>(f);
        assert_roundtrip::<Asap>(&one);
        bytes.extend_from_slice(&one);
    }
    let hash = |b: &[u8]| {
        let mut h = Fnv64::new();
        h.write_bytes(b);
        h.finish()
    };
    assert_eq!(
        (split, hash(&bytes[..split]), bytes.len() - split, hash(&bytes[split..])),
        (280, 0x6f61_35c8_d087_97c4, 8_020, 0x769e_eb72_88de_7a61),
        "frame bytes moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn baseline_frames_roundtrip_byte_identically(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        shape in (0u16..2_000, 0usize..8, 0usize..16, 0u32..1_000_000),
    ) {
        let (kind, query, peer) = ids;
        let (ttl, nterms, class_idx, billed) = shape;
        let f = frame(baseline_msg(kind, query, peer, ttl, nterms), peer, class_idx, billed);
        assert_roundtrip::<Flooding>(&encode_frame::<Flooding>(&f));
    }

    #[test]
    fn asap_frames_roundtrip_byte_identically(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000),
        shape in (0u16..2_000, 0usize..8, 0usize..16, 0u32..1_000_000),
    ) {
        let (kind, query, peer) = ids;
        let (ttl, nterms, class_idx, billed) = shape;
        let f = frame(asap_msg(kind, query, peer, ttl, nterms), peer, class_idx, billed);
        assert_roundtrip::<Asap>(&encode_frame::<Asap>(&f));
    }

    #[test]
    fn truncation_is_incomplete_or_typed_never_panics(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000, 0u16..2_000),
        cut_ppm in 0u32..1_000_000,
    ) {
        let (kind, query, peer, ttl) = ids;
        let f = frame(asap_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let bytes = encode_frame::<Asap>(&f);
        // ppm-scaled cut point so every length of prefix gets exercised
        // across cases regardless of how large the frame came out.
        let cut = (cut_ppm as usize * bytes.len() / 1_000_000).min(bytes.len() - 1);
        assert_prefixes_truncate::<Asap>(&bytes, cut);
    }

    #[test]
    fn bit_flips_yield_typed_errors_never_panics(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000, 0u16..2_000),
        flip in (0u32..1_000_000, 0u8..8),
    ) {
        let (kind, query, peer, ttl) = ids;
        let (pos_ppm, bit) = flip;
        let f = frame(asap_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let bytes = encode_frame::<Asap>(&f);
        let mut bad = bytes.clone();
        let pos = (pos_ppm as usize * bad.len() / 1_000_000).min(bad.len() - 1);
        bad[pos] ^= 1 << bit;
        // A flip in the body fails the checksum; a flip in the length prefix
        // or trailing checksum surfaces as whatever typed error the shifted
        // interpretation hits (Truncated / Oversized / TrailingPayload /
        // BadChecksum). Exhaustive per-variant assertions live in the wire
        // unit tests; the property here is "typed error, never Ok, never
        // panic" for a whole-buffer decode.
        prop_assert!(
            decode_frame_exact::<Asap>(&bad).is_err(),
            "single-bit flip at byte {pos} bit {bit} decoded cleanly"
        );
    }

    #[test]
    fn bad_length_prefixes_are_typed_errors(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        lens in (0u32..1_000_000, 0u32..(ENVELOPE as u32)),
    ) {
        let (kind, query, peer) = ids;
        let (over, under) = lens;
        let f = frame(baseline_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Flooding>(&f);
        let oversized = MAX_FRAME as u32 + 1 + over;
        bytes[..4].copy_from_slice(&oversized.to_le_bytes());
        prop_assert_eq!(
            decode_frame::<Flooding>(&bytes).unwrap_err(),
            WireError::OversizedFrame(oversized)
        );
        bytes[..4].copy_from_slice(&under.to_le_bytes());
        prop_assert_eq!(
            decode_frame::<Flooding>(&bytes).unwrap_err(),
            WireError::UndersizedFrame(under)
        );
    }

    #[test]
    fn unknown_class_tags_are_typed_errors(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        tag in 0u8..200,
    ) {
        let (kind, query, peer) = ids;
        let bad_tag = (MsgClass::ALL.len() as u8).saturating_add(tag % 100);
        let f = frame(baseline_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Flooding>(&f);
        // Patch the class byte (after len+from+to) and re-stamp the checksum
        // so the corruption reaches the tag check instead of BadChecksum.
        bytes[12] = bad_tag;
        let body_end = bytes.len() - 8;
        let mut sum = Fnv64::new();
        sum.write_bytes(&bytes[4..body_end]);
        let end = bytes.len();
        bytes[body_end..end].copy_from_slice(&sum.finish().to_le_bytes());
        prop_assert_eq!(
            decode_frame_exact::<Flooding>(&bytes).unwrap_err(),
            WireError::BadClassTag(bad_tag)
        );
    }

    #[test]
    fn trailing_bytes_after_a_frame_are_typed(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000),
        extra in 1usize..32,
    ) {
        let (kind, query, peer) = ids;
        let f = frame(asap_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Asap>(&f);
        let clean_len = bytes.len();
        bytes.extend(std::iter::repeat_n(0xAB, extra));
        // Streaming decode stops exactly at the frame boundary — the extra
        // bytes belong to the next frame. The exact decoder (one datagram =
        // one frame) must reject them.
        let (_, consumed) = decode_frame::<Asap>(&bytes).unwrap().expect("frame is complete");
        prop_assert_eq!(consumed, clean_len);
        prop_assert_eq!(
            decode_frame_exact::<Asap>(&bytes).unwrap_err(),
            WireError::TrailingPayload
        );
    }
}
