//! Robustness of the frame and message decoders against adversarial
//! byte streams: arbitrary garbage, truncations, corrupt length
//! prefixes, and every possible chunking of a valid stream. Decoding
//! must return an error or a valid frame — never panic, never diverge
//! between incremental and one-shot decoding.

use rand::check::check;
use rand::Rng;

use subsum_transport::frame::{decode_all, encode_frame, FrameDecoder, MAX_PAYLOAD};
use subsum_transport::Msg;

/// A stream of 1–6 valid frames with generated kinds/payloads.
fn valid_stream(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (kind, payload) in frames {
        out.extend_from_slice(&encode_frame(*kind, payload).expect("payload within bound"));
    }
    out
}

/// Arbitrary bytes never panic the one-shot decoder.
#[test]
fn random_garbage_never_panics() {
    check("random_garbage_never_panics", 256, |g| {
        let bytes = g.vec(0..2048, |g| g.gen::<u8>());
        let _ = decode_all(&bytes);
    });
}

/// Arbitrary bytes fed in arbitrary chunks never panic the
/// incremental decoder, and it reports exactly what the one-shot
/// decoder reports.
#[test]
fn random_chunked_matches_one_shot() {
    check("random_chunked_matches_one_shot", 256, |g| {
        let bytes = g.vec(0..1024, |g| g.gen::<u8>());
        let cuts = g.vec(0..8, |g| g.gen_range(0usize..1025));
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        offsets.push(0);
        offsets.push(bytes.len());
        offsets.sort_unstable();

        let mut dec = FrameDecoder::new();
        let mut inc_frames = Vec::new();
        let mut inc_err = None;
        'outer: for w in offsets.windows(2) {
            dec.feed(&bytes[w[0]..w[1]]);
            loop {
                match dec.next_frame() {
                    Ok(Some(f)) => inc_frames.push(f),
                    Ok(None) => break,
                    Err(e) => {
                        inc_err = Some(e);
                        break 'outer;
                    }
                }
            }
        }

        match decode_all(&bytes) {
            Ok((frames, rest)) => {
                assert_eq!(inc_err, None);
                assert_eq!(inc_frames, frames);
                assert_eq!(dec.buffered(), rest);
            }
            Err(e) => {
                assert_eq!(inc_err, Some(e));
            }
        }
    });
}

/// A valid multi-frame stream split at EVERY boundary decodes to
/// the same frames as one-shot decoding, regardless of where the
/// split lands (mid-header, mid-payload, between frames).
#[test]
fn every_split_of_valid_stream_is_equivalent() {
    check("every_split_of_valid_stream_is_equivalent", 256, |g| {
        let frames = g.vec(1..5, |g| (g.gen::<u8>(), g.vec(0..64, |g| g.gen::<u8>())));
        let stream = valid_stream(&frames);
        let (expect, rest) = decode_all(&stream).expect("valid stream");
        assert_eq!(rest, 0);
        assert_eq!(expect.len(), frames.len());

        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&stream[..split], &stream[split..]] {
                dec.feed(chunk);
                while let Some(f) = dec.next_frame().expect("valid stream") {
                    got.push(f);
                }
            }
            assert_eq!(&got, &expect, "split at {}", split);
        }
    });
}

/// Every truncation of a valid stream yields a frame prefix and a
/// leftover count — never an error, never a panic, never a frame
/// invented from incomplete bytes.
#[test]
fn truncations_yield_clean_prefixes() {
    check("truncations_yield_clean_prefixes", 256, |g| {
        let frames = g.vec(1..4, |g| (g.gen::<u8>(), g.vec(0..48, |g| g.gen::<u8>())));
        let cut_frac = g.gen_range(0.0f64..1.0);
        let stream = valid_stream(&frames);
        let (all, _) = decode_all(&stream).expect("valid stream");
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        let (prefix, rest) = decode_all(&stream[..cut]).expect("truncation is not corruption");
        assert!(prefix.len() <= all.len());
        assert_eq!(&all[..prefix.len()], &prefix[..]);
        // Every byte is accounted for: consumed by frames or leftover.
        let consumed: usize = prefix.iter().map(|f| 8 + f.payload.len()).sum();
        assert_eq!(consumed + rest, cut);
    });
}

/// A corrupted length prefix errors (or shortens the stream) but
/// never panics and never yields an oversized frame.
#[test]
fn corrupt_length_never_panics() {
    check("corrupt_length_never_panics", 256, |g| {
        let payload = g.vec(0..32, |g| g.gen::<u8>());
        let corrupt_len = g.gen::<u32>();
        let mut bytes = encode_frame(9, &payload).expect("payload within bound");
        bytes[4..8].copy_from_slice(&corrupt_len.to_be_bytes());
        if let Ok((frames, _)) = decode_all(&bytes) {
            for f in frames {
                assert!(f.payload.len() <= MAX_PAYLOAD);
            }
        }
    });
}

/// Message parsing survives arbitrary (kind, payload) pairs.
#[test]
fn msg_decode_never_panics() {
    check("msg_decode_never_panics", 256, |g| {
        let kind = g.gen::<u8>();
        let payload = g.vec(0..512, |g| g.gen::<u8>());
        let _ = Msg::decode(kind, &payload);
    });
}

/// Truncating a valid message payload errors without panicking.
#[test]
fn msg_truncation_never_panics() {
    check("msg_truncation_never_panics", 256, |g| {
        let kind = g.gen_range(1u8..22);
        let cut_frac = g.gen_range(0.0f64..1.0);
        // Hand-build a deliberately generous payload and cut it; decode
        // must reject or succeed, never panic, for every message kind.
        let payload = [0x00u8, 0x01, 0x00, 0x02, 0x00, 0x03, 0x41, 0x42, 0x43, 0x44].repeat(8);
        let cut = ((payload.len() as f64) * cut_frac) as usize;
        let _ = Msg::decode(kind, &payload[..cut]);
    });
}
