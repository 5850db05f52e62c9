//! Property-based tests on the checksummed wire frame and its payloads:
//! for arbitrary classic id+value payloads a faultless seal → open
//! round-trip is bit-identical to the pre-checksum payload and *any*
//! single-bit corruption anywhere in the frame is detected; for the
//! delta mode's compact form, expansion against the receiver's shadow
//! is bit-exact and every malformed payload is a typed error.

use bytes::Bytes;
use gw2v_gluon::wire::{
    delta_bytes, entry_bytes, mask_bytes, open_frame, seal_frame, Channel, DeltaForm, DeltaShadow,
    RowDecoder, RowEncoder, WireError, FRAME_HEADER_BYTES,
};
use proptest::prelude::*;

/// Raw `f32` bits for one row of up to 5 dims, biased towards the
/// values a lossless codec most easily breaks: NaN payloads (quiet,
/// signalling, negative) and negative zero.
fn row_bits() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u32>(),
            Just(0x8000_0000u32),
            Just(0x7fc0_0001u32),
            Just(0x7f80_0001u32),
            Just(0xffc0_0000u32),
        ],
        5,
    )
}

fn floats(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Stages `ids` with their `dim`-wide rows in `vals` into an encoder.
fn stage(ids: &[u32], vals: &[f32], dim: usize) -> RowEncoder {
    let mut enc = RowEncoder::new(dim);
    for (i, &node) in ids.iter().enumerate() {
        enc.push(node, &vals[i * dim..(i + 1) * dim]);
    }
    enc
}

/// Builds a payload from arbitrary entries, exercising denormals, NaN
/// payload bits and negative zero through the raw-bits generator.
fn encode(dim: usize, entries: &[(u32, Vec<u32>)]) -> Bytes {
    let mut enc = RowEncoder::new(dim);
    for (node, bits) in entries {
        let row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        enc.push(*node, &row);
    }
    enc.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Faultless round-trip: the opened payload is byte-identical to the
    /// sealed one, and it still decodes to bit-identical rows.
    #[test]
    fn seal_open_is_identity_on_payload(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..12),
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let payload = encode(dim, &entries);
        let opened = open_frame(&seal_frame(&payload)).expect("faultless frame must open");
        prop_assert_eq!(opened.as_slice(), payload.as_slice());
        let mut dec = RowDecoder::new(opened, dim).expect("whole number of entries");
        for (node, bits) in &entries {
            let (got_node, got_row) = dec.next_entry().expect("entry present");
            prop_assert_eq!(got_node, *node);
            let got_bits: Vec<u32> = got_row.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got_bits, bits, "row bits must survive unchanged");
        }
        prop_assert!(dec.next_entry().is_none());
    }

    /// Adversarial single-bit corruption: flipping any one bit of the
    /// sealed frame — header or payload, position chosen arbitrarily —
    /// must make open_frame reject it.
    #[test]
    fn any_single_bit_flip_is_detected(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..12),
        flip_pick in any::<u64>(),
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let frame = seal_frame(&encode(dim, &entries));
        let bit = (flip_pick % (frame.len() as u64 * 8)) as usize;
        let mut corrupted = frame.as_slice().to_vec();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&Bytes::from(corrupted)).is_err(),
            "flip of bit {} (frame of {} bytes, header {}) went undetected",
            bit, frame.len(), FRAME_HEADER_BYTES
        );
    }

    /// Delta round-trip: after one full exchange, the mask + changed-
    /// rows payload of a second batch (sealed, opened, then expanded
    /// against the receiver's shadow) reproduces every row bit for bit —
    /// NaN payloads and negative zero included — and the sender's and
    /// receiver's shadows stay in lockstep.
    #[test]
    fn delta_round_trip_is_bit_exact(
        dim in 1usize..6,
        rows in proptest::collection::vec(
            (0u32..1000, row_bits(), row_bits(), any::<bool>()), 0..12),
    ) {
        let ids: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let first: Vec<u32> = rows.iter().flat_map(|r| r.1[..dim].to_vec()).collect();
        // Rows flagged `true` take fresh bits in the second batch; the
        // rest repeat (and must cost only their mask bit).
        let second: Vec<u32> = rows
            .iter()
            .flat_map(|r| if r.3 { r.2[..dim].to_vec() } else { r.1[..dim].to_vec() })
            .collect();
        let (v1, v2) = (floats(&first), floats(&second));
        let mut sender = DeltaShadow::new();
        let mut receiver = DeltaShadow::new();
        let form = sender.submit(0, 1, 0, Channel::Broadcast, &ids, &v1, dim);
        prop_assert_eq!(form, DeltaForm::Full);
        receiver.store(0, 1, 0, Channel::Broadcast, ids.clone(), v1);

        let form = sender.submit(0, 1, 0, Channel::Broadcast, &ids, &v2, dim);
        let DeltaForm::Delta { mask, changed } = form else {
            return Err(TestCaseError::Fail("repeat id list must take the delta form".into()));
        };
        let payload = stage(&ids, &v2, dim).finish_delta(&mask);
        prop_assert_eq!(payload.len(), delta_bytes(dim, ids.len(), changed));
        prop_assert!(payload.len() <= ids.len() * entry_bytes(dim));
        let opened = open_frame(&seal_frame(&payload)).expect("faultless frame must open");
        let (got_ids, got_vals) = receiver
            .apply_delta(0, 1, 0, Channel::Broadcast, &opened, dim)
            .expect("well-formed delta payload");
        prop_assert_eq!(got_ids, ids.as_slice());
        let got_bits: Vec<u32> = got_vals.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got_bits, second, "row bits must survive unchanged");
    }

    /// A CRC-valid delta payload that was truncated, extended, or had
    /// one mask bit flipped is rejected with a typed error — never a
    /// panic, never a silent mis-decode — and leaves the receiver's
    /// shadow untouched, so the pristine payload still expands.
    #[test]
    fn tampered_delta_payload_is_rejected(
        dim in 1usize..6,
        rows in proptest::collection::vec((0u32..1000, row_bits(), any::<bool>()), 1..12),
        tamper in 0u8..3,
        pick in any::<u64>(),
    ) {
        let ids: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let bits: Vec<u32> = rows.iter().flat_map(|r| r.1[..dim].to_vec()).collect();
        let vals = floats(&bits);
        let mut mask = vec![0u8; mask_bytes(ids.len())];
        for (r, row) in rows.iter().enumerate() {
            if row.2 {
                mask[r / 8] |= 1 << (r % 8);
            }
        }
        let pristine = stage(&ids, &vals, dim).finish_delta(&mask).as_slice().to_vec();
        let mut bad = pristine.clone();
        match tamper {
            0 => bad.truncate((pick % pristine.len() as u64) as usize),
            1 => bad.extend(std::iter::repeat_n(0xA5, 1 + (pick % 16) as usize)),
            _ => {
                let bit = (pick % (mask.len() as u64 * 8)) as usize;
                bad[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let mut receiver = DeltaShadow::new();
        receiver.store(0, 1, 0, Channel::Reduce, ids.clone(), vec![0.0; vals.len()]);
        let opened = open_frame(&seal_frame(&Bytes::from(bad))).expect("CRC-valid frame");
        let err = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &opened, dim)
            .expect_err("tampered delta payload must be rejected");
        prop_assert!(matches!(err, WireError::BadLength { .. }), "got {:?}", err);
        let (_, got) = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &Bytes::from(pristine), dim)
            .expect("shadow untouched by the rejected payload");
        prop_assert_eq!(got.len(), vals.len());
    }

    /// A compact payload on a key with no shadow entry — arbitrary
    /// bytes, with or without shadows on other keys — is a typed error,
    /// not a panic.
    #[test]
    fn compact_payload_without_shadow_is_an_error(
        dim in 0usize..6,
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        from in 0usize..4,
        layer in 0usize..2,
        other_key in any::<bool>(),
    ) {
        let mut receiver = DeltaShadow::new();
        if other_key {
            receiver.store(from, 9, layer, Channel::Reduce, vec![1], vec![0.0; dim]);
        }
        let err = receiver
            .apply_delta(from, 4, layer, Channel::Reduce, &Bytes::from(bytes), dim)
            .expect_err("no shadow entry for this key");
        prop_assert_eq!(err, WireError::NoShadow);
    }
}
