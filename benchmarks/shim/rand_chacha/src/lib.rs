//! Stand-in for `rand_chacha` 0.3: a scalar ChaCha with the published
//! crate's keying (256-bit key from the seed, 64-bit block counter in
//! words 12–13, 64-bit stream id in words 14–15, both starting at zero),
//! its four-block output buffer and `rand_core::block::BlockRng`'s word
//! consumption order, so a seed yields the same stream.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const BUF_WORDS: usize = 4 * BLOCK_WORDS;

/// ChaCha with `ROUNDS` rounds as a random number generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    /// Counter of the next block to generate.
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` when exhausted.
    index: usize,
}

pub type ChaCha8Rng = ChaChaRng<8>;
pub type ChaCha12Rng = ChaChaRng<12>;

#[inline(always)]
fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut init = [0u32; BLOCK_WORDS];
        // "expand 32-byte k"
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for ((o, w), i) in out.iter_mut().zip(s).zip(init) {
            *o = w.wrapping_add(i);
        }
    }

    /// Refill the buffer with the next four blocks; reading resumes at
    /// word `index`.
    fn refill(&mut self, index: usize) {
        let mut buf = [0u32; BUF_WORDS];
        for (i, out) in buf.chunks_mut(BLOCK_WORDS).enumerate() {
            self.block(self.counter.wrapping_add(i as u64), out);
        }
        self.buf = buf;
        self.counter = self.counter.wrapping_add(4);
        self.index = index;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(bytes.try_into().expect("chunk of four bytes"));
        }
        Self { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let value = self.buf[self.index];
        self.index += 1;
        value
    }

    /// Two consecutive words, low first; a value that straddles a
    /// refill takes its low word from the old buffer.
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[index + 1]) << 32 | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.refill(2);
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let low = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            u64::from(self.buf[0]) << 32 | low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_words<const ROUNDS: usize>(n: usize) -> Vec<u32> {
        let mut rng = ChaChaRng::<ROUNDS>::from_seed([0; 32]);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    /// Zero key and nonce, block 0: the RFC 7539 ChaCha20 keystream,
    /// which `rand_chacha` pins in `test_chacha_true_values_a`.
    #[test]
    fn chacha20_zero_key_keystream() {
        assert_eq!(first_words::<20>(4), [0xade0_b876, 0x903d_f1a0, 0xe56a_5d40, 0x28bd_8653]);
    }

    /// Zero key and nonce, ChaCha8 (eSTREAM-style test vector
    /// `3e00ef2f895f40d6…`).
    #[test]
    fn chacha8_zero_key_keystream() {
        assert_eq!(first_words::<8>(2), [0x2fef_003e, 0xd640_5f89]);
    }

    /// A 64-bit read that straddles a refill joins the old buffer's last
    /// word (low) with the new buffer's first (high).
    #[test]
    fn next_u64_straddles_refills_like_block_rng() {
        let mut words = ChaCha8Rng::from_seed([7; 32]);
        let w: Vec<u32> = (0..130).map(|_| words.next_u32()).collect();
        let mut rng = ChaCha8Rng::from_seed([7; 32]);
        rng.next_u32();
        for i in (1..63).step_by(2) {
            assert_eq!(rng.next_u64(), u64::from(w[i + 1]) << 32 | u64::from(w[i]));
        }
        assert_eq!(rng.next_u64(), u64::from(w[64]) << 32 | u64::from(w[63]));
        assert_eq!(rng.next_u32(), w[65]);
    }
}
