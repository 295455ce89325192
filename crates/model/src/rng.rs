//! The per-vertex random streams of a RandLOCAL run.
//!
//! Every vertex of a randomized run draws from its own ChaCha8 stream,
//! `ChaCha8Rng::seed_from_u64(s)` for a per-vertex `s` split from the run's
//! master seed. The engine keeps one stream per vertex in a column, so the
//! stream's size is a per-vertex cost of every large run. [`VertexRng`]
//! produces the same keystream word for word in 80 bytes instead of 112: it
//! stores the 8-byte `s` in place of the 32-byte key it expands to, and
//! re-derives the key, through the same `seed_from_u64` expansion, on each
//! refill. A refill costs a 64-byte ChaCha8 block already, which the key
//! expansion adds little to.

use rand::{RngCore, SeedableRng};
use rand_chacha::{Key, BLOCK_WORDS};

/// `ChaCha8Rng::seed_from_u64(seed)` as a compact stream: the seed, the
/// keystream position and the current block.
#[derive(Debug, Clone)]
pub(crate) struct VertexRng {
    seed: u64,
    /// Index of the next keystream word: block `pos / 16`, word `pos % 16`.
    /// When `pos % 16` is not 0, `buf` holds block `pos / 16`; when it is,
    /// the next draw refills first.
    pos: u64,
    buf: [u32; BLOCK_WORDS],
}

impl VertexRng {
    /// The stream `ChaCha8Rng::seed_from_u64(seed)` draws.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        VertexRng {
            seed,
            pos: 0,
            buf: [0; BLOCK_WORDS],
        }
    }

    /// Fill `buf` with block `pos / 16`. Out of line, so that the buffered
    /// draws inline at their call sites.
    #[inline(never)]
    fn refill(&mut self) {
        let key = Key::seed_from_u64(self.seed);
        self.buf = rand_chacha::block(&key, self.pos / BLOCK_WORDS as u64);
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        let i = (self.pos % BLOCK_WORDS as u64) as usize;
        if i == 0 {
            self.refill();
        }
        self.pos += 1;
        self.buf[i]
    }
}

impl RngCore for VertexRng {
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    /// The next two words, low word first: both from the buffer under one
    /// check when both are there, else one at a time with a refill between.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = (self.pos % BLOCK_WORDS as u64) as usize;
        let (lo, hi) = if i != 0 && i + 2 <= BLOCK_WORDS {
            self.pos += 2;
            (self.buf[i], self.buf[i + 1])
        } else {
            (self.next_word(), self.next_word())
        };
        (u64::from(hi) << 32) | u64::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn the_stream_is_80_bytes() {
        assert_eq!(std::mem::size_of::<VertexRng>(), 80);
    }

    proptest! {
        /// A random mix of 32- and 64-bit draws, from every offset within a
        /// block and over six to nine blocks, reads the `ChaCha8Rng`
        /// keystream. A 64-bit draw at a block's last word straddles two
        /// blocks, which most cases do several times.
        #[test]
        fn draws_match_chacha8_word_for_word(
            seed in 0u64..=u64::MAX,
            lead in 0usize..=BLOCK_WORDS,
            draws in proptest::collection::vec(0u8..2, 96),
        ) {
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            let mut rng = VertexRng::seed_from_u64(seed);
            for _ in 0..lead {
                prop_assert_eq!(rng.next_u32(), reference.next_u32());
            }
            for wide in draws {
                if wide == 1 {
                    prop_assert_eq!(rng.next_u64(), reference.next_u64());
                } else {
                    prop_assert_eq!(rng.next_u32(), reference.next_u32());
                }
            }
        }
    }
}
