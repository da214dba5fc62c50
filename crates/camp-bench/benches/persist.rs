//! Persistence-log benchmarks: the CRC32C kernel every log record passes
//! through, encoding one 1 KiB `set` record (the per-`set` append cost),
//! and scanning a 4 MiB segment (the per-segment boot-replay cost).
//!
//! The `crc32c` cases all checksum 4 MiB per iteration, so their
//! Melem/s column reads directly as MB/s across the three buffer sizes.

use std::hint::black_box;

use camp_bench::micro::Group;
use camp_core::rng::Rng64;
use camp_kvs::persist::record::{crc32c, encode_into, scan, Record};

const CRC_BYTES: usize = 4 << 20;
const ENCODES: u64 = 10_000;
const SEGMENT_BYTES: usize = 4 << 20;

fn main() {
    let mut rng = Rng64::seed_from_u64(0xC2C3_2C00);
    let data: Vec<u8> = (0..256 * 1024).map(|_| rng.next_u64() as u8).collect();

    let group = Group::new("crc32c", CRC_BYTES as u64, 20);
    for (label, len) in [("64B", 64), ("1KiB", 1024), ("256KiB", 256 * 1024)] {
        group.case(label, || {
            let mut acc = 0u32;
            for chunk in data.chunks_exact(len).cycle().take(CRC_BYTES / len) {
                acc ^= crc32c(black_box(chunk));
            }
            acc
        });
    }

    let value = &data[..1024];
    let set = Record::Set {
        key: b"key-00001234",
        value,
        flags: 0,
        cost: 1,
        expires_at: 0,
    };
    let group = Group::new("encode_into", ENCODES, 20);
    group.case("set_1KiB", || {
        let mut buf = Vec::with_capacity(2048);
        let mut bytes = 0u64;
        for _ in 0..ENCODES {
            buf.clear();
            encode_into(black_box(&set), &mut buf);
            bytes += buf.len() as u64;
        }
        bytes
    });

    let mut segment = Vec::with_capacity(SEGMENT_BYTES + 2048);
    while segment.len() < SEGMENT_BYTES {
        encode_into(&set, &mut segment);
    }
    let records = scan(&segment, |_| {}).applied;
    let group = Group::new("scan", records, 10);
    group.case("segment_4MiB", || {
        let mut value_bytes = 0u64;
        let summary = scan(black_box(&segment), |record| {
            if let Record::Set { value, .. } = record {
                value_bytes += value.len() as u64;
            }
        });
        assert_eq!(summary.applied, records);
        value_bytes
    });
}
