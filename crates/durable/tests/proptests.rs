//! Property battery for WAL record framing: round-trips, truncation at
//! every byte (with and without the zeros a reserved log leaves past its
//! end), and corruption fuzzing. The framing contract under test: every
//! byte sequence decodes to **an exact prefix of the original records
//! plus a typed error** — never to garbage, never to a record that was
//! not written.

use durable::record::{self, Record, RecordError};
use proptest::prelude::*;

type Batch = Vec<(u64, Vec<(u64, u64)>)>;

fn encode_batch(batch: &Batch) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut boundaries = vec![0];
    for (version, writes) in batch {
        record::encode_into(&mut buf, *version, writes);
        boundaries.push(buf.len());
    }
    (buf, boundaries)
}

fn as_records(batch: &Batch) -> Vec<Record> {
    batch
        .iter()
        .map(|(version, writes)| Record {
            version: *version,
            writes: writes.clone(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encoding then stream-decoding any batch is the identity.
    #[test]
    fn record_stream_round_trips(
        batch in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..10)),
            1..10,
        )
    ) {
        let (buf, _) = encode_batch(&batch);
        let (records, clean, err) = record::decode_stream(&buf);
        prop_assert!(err.is_none());
        prop_assert_eq!(clean, buf.len());
        prop_assert_eq!(records, as_records(&batch));
    }

    /// Cutting the stream at every byte yields exactly the records whose
    /// final byte survived, plus a *truncation* verdict (never a
    /// corruption verdict, never a phantom record) off record
    /// boundaries.
    #[test]
    fn truncation_at_every_byte_is_prefix_plus_typed_tear(
        batch in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..8)),
            1..8,
        )
    ) {
        let (buf, boundaries) = encode_batch(&batch);
        let originals = as_records(&batch);
        for cut in 0..=buf.len() {
            let (records, clean, err) = record::decode_stream(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(records.len(), whole, "cut {}", cut);
            prop_assert_eq!(&records[..], &originals[..whole], "cut {}", cut);
            prop_assert_eq!(clean, boundaries[whole], "cut {}", cut);
            if boundaries.contains(&cut) {
                prop_assert!(err.is_none(), "cut {}: {:?}", cut, err);
            } else {
                let err = err.expect("off-boundary cut must error");
                prop_assert!(err.is_truncation(), "cut {}: {:?}", cut, err);
            }
        }
    }

    /// A clean prefix followed by any run of zeros — what a crash leaves
    /// of a log that reserved space ahead of its writes — decodes to
    /// exactly that prefix, with an unwritten-tail verdict.
    #[test]
    fn a_clean_prefix_followed_by_zeros_decodes_to_that_prefix(
        batch in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..8)),
            1..8,
        ),
        keep_seed in any::<u64>(),
        zeros in 1usize..600,
    ) {
        let (buf, boundaries) = encode_batch(&batch);
        let whole = (keep_seed % boundaries.len() as u64) as usize;
        let mut bytes = buf[..boundaries[whole]].to_vec();
        bytes.resize(bytes.len() + zeros, 0);
        let (records, clean, err) = record::decode_stream(&bytes);
        prop_assert_eq!(&records[..], &as_records(&batch)[..whole]);
        prop_assert_eq!(clean, boundaries[whole]);
        prop_assert_eq!(err, Some(RecordError::Unwritten { len: zeros }));
    }

    /// Cutting the stream at every byte and padding it with zeros past
    /// any record's end: the records whose bytes survived — plus the one
    /// the cut fell inside when everything it lost was zeros anyway —
    /// and a tear verdict, or an unwritten tail once a boundary is
    /// reached. Never corruption, never a phantom record.
    #[test]
    fn a_cut_into_reserved_zeros_is_a_prefix_plus_a_tear(
        batch in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u8>(), any::<u8>()), 0..8)),
            1..8,
        )
    ) {
        let batch: Batch = batch
            .into_iter()
            .map(|(v, w)| (v, w.into_iter().map(|(k, x)| (u64::from(k), u64::from(x))).collect()))
            .collect();
        let (buf, boundaries) = encode_batch(&batch);
        let originals = as_records(&batch);
        for cut in 0..=buf.len() {
            let mut whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            if boundaries.get(whole + 1).is_some_and(|&next| buf[cut..next].iter().all(|&b| b == 0)) {
                whole += 1;
            }
            let bytes = [&buf[..cut], &[0u8; 256][..]].concat();
            let (records, clean, err) = record::decode_stream(&bytes);
            prop_assert_eq!(&records[..], &originals[..whole], "cut {}", cut);
            prop_assert_eq!(clean, boundaries[whole], "cut {}", cut);
            let err = err.expect("zeros follow");
            if clean >= cut {
                prop_assert!(err.is_unwritten(), "cut {}: {:?}", cut, err);
            } else {
                prop_assert!(err.is_truncation(), "cut {}: {:?}", cut, err);
            }
        }
    }

    /// Any single corrupted byte produces an exact original-record
    /// prefix plus an error — the altered record never decodes, silently
    /// changed, into the stream.
    #[test]
    fn single_byte_corruption_never_decodes_to_garbage(
        batch in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..8)),
            1..8,
        ),
        pos_seed in any::<u64>(),
        xor in 1u64..256,
    ) {
        let (mut buf, _) = encode_batch(&batch);
        let originals = as_records(&batch);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= u8::try_from(xor).expect("xor in 1..256");
        let (records, clean, err) = record::decode_stream(&buf);
        prop_assert!(err.is_some(), "flip at {} went undetected", pos);
        prop_assert!(records.len() < originals.len());
        prop_assert_eq!(&records[..], &originals[..records.len()], "flip at {}", pos);
        prop_assert!(clean <= pos, "clean prefix {} reaches past the flip at {}", clean, pos);
    }
}
