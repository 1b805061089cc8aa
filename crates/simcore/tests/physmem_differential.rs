//! Differential test of `PhysMem` against a plain reference model: a
//! `BTreeMap` from frame number to a 4 KB byte array that materializes a
//! frame on first write, keeps it on `zero_frame` and drops it on
//! `release_frame`. Random operation sequences must produce the same reads,
//! the same `frame_is_zero` answers and the same `touched_frames()`.

use memento_simcore::addr::{PhysAddr, PAGE_SIZE};
use memento_simcore::physmem::{Frame, PhysMem};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Few frames, so operations keep hitting the same pages.
const FRAMES: u64 = 6;
const WORDS: u64 = (PAGE_SIZE / 8) as u64;

#[derive(Clone, Debug)]
enum Op {
    WriteU64 { frame: u64, word: u64, value: u64 },
    WriteU8 { frame: u64, byte: u64, value: u8 },
    ReadU64 { frame: u64, word: u64 },
    ReadU8 { frame: u64, byte: u64 },
    ZeroFrame(u64),
    ReleaseFrame(u64),
    FrameIsZero(u64),
}

/// Reference model: touched frames and their bytes.
#[derive(Default)]
struct Reference {
    pages: BTreeMap<u64, [u8; PAGE_SIZE]>,
}

impl Reference {
    fn page_mut(&mut self, frame: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(frame).or_insert([0; PAGE_SIZE])
    }

    fn read_u8(&self, frame: u64, byte: u64) -> u8 {
        self.pages.get(&frame).map_or(0, |p| p[byte as usize])
    }

    fn read_u64(&self, frame: u64, word: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(frame, word * 8 + i as u64);
        }
        u64::from_le_bytes(bytes)
    }

    fn frame_is_zero(&self, frame: u64) -> bool {
        self.pages
            .get(&frame)
            .is_none_or(|p| p.iter().all(|&b| b == 0))
    }
}

fn addr(frame: u64, byte: u64) -> PhysAddr {
    Frame::from_number(frame).base_addr().add(byte)
}

/// Word indices biased toward both ends of the frame.
fn word() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(WORDS - 1), 0..WORDS]
}

/// Byte offsets biased toward both ends of the frame.
fn byte() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(PAGE_SIZE as u64 - 1), 0..PAGE_SIZE as u64]
}

/// Values biased toward zero, so frames also return to all-zero by writes.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..FRAMES, word(), value()).prop_map(|(frame, word, value)| Op::WriteU64 {
                frame,
                word,
                value
            }),
            (0..FRAMES, byte(), value()).prop_map(|(frame, byte, value)| Op::WriteU8 {
                frame,
                byte,
                value: value as u8
            }),
            (0..FRAMES, word()).prop_map(|(frame, word)| Op::ReadU64 { frame, word }),
            (0..FRAMES, byte()).prop_map(|(frame, byte)| Op::ReadU8 { frame, byte }),
            (0..FRAMES).prop_map(Op::ZeroFrame),
            (0..FRAMES).prop_map(Op::ReleaseFrame),
            (0..FRAMES).prop_map(Op::FrameIsZero),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn physmem_matches_btreemap_reference(ops in ops()) {
        let mut mem = PhysMem::new(FRAMES * PAGE_SIZE as u64);
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::WriteU64 { frame, word, value } => {
                    mem.write_u64(addr(frame, word * 8), value);
                    let page = reference.page_mut(frame);
                    let at = (word * 8) as usize;
                    page[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
                Op::WriteU8 { frame, byte, value } => {
                    mem.write_u8(addr(frame, byte), value);
                    reference.page_mut(frame)[byte as usize] = value;
                }
                Op::ReadU64 { frame, word } => {
                    prop_assert_eq!(
                        mem.read_u64(addr(frame, word * 8)),
                        reference.read_u64(frame, word)
                    );
                }
                Op::ReadU8 { frame, byte } => {
                    prop_assert_eq!(mem.read_u8(addr(frame, byte)), reference.read_u8(frame, byte));
                }
                Op::ZeroFrame(frame) => {
                    mem.zero_frame(Frame::from_number(frame));
                    if let Some(page) = reference.pages.get_mut(&frame) {
                        page.fill(0);
                    }
                }
                Op::ReleaseFrame(frame) => {
                    mem.release_frame(Frame::from_number(frame));
                    reference.pages.remove(&frame);
                }
                Op::FrameIsZero(frame) => {
                    prop_assert_eq!(
                        mem.frame_is_zero(Frame::from_number(frame)),
                        reference.frame_is_zero(frame),
                        "frame {}", frame
                    );
                }
            }
        }
        prop_assert_eq!(mem.touched_frames(), reference.pages.len());
        for frame in 0..FRAMES {
            prop_assert_eq!(
                mem.frame_is_zero(Frame::from_number(frame)),
                reference.frame_is_zero(frame)
            );
            for word in 0..WORDS {
                prop_assert_eq!(
                    mem.read_u64(addr(frame, word * 8)),
                    reference.read_u64(frame, word),
                    "frame {} word {}", frame, word
                );
            }
        }
    }
}
