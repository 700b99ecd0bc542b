//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! The S-box is derived at construction time from its mathematical
//! definition (multiplicative inverse in GF(2⁸) followed by the affine
//! transform) rather than hand-typed, and the whole cipher is validated
//! against the FIPS-197 appendix vectors in the tests.

/// Number of rounds for a 128-bit key.
const ROUNDS: usize = 10;

/// Multiplication by x in GF(2^8) modulo the AES polynomial x⁸+x⁴+x³+x+1.
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1B)
}

/// Full multiplication in GF(2^8).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut out = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            out ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    out
}

/// Multiplicative inverse in GF(2^8); 0 maps to 0.
/// Uses Fermat: a^(2^8 - 2) = a^254.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u16;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// Computes the AES S-box and its inverse from first principles.
fn build_sboxes() -> ([u8; 256], [u8; 256]) {
    let mut sbox = [0u8; 256];
    let mut inv = [0u8; 256];
    for x in 0..256u16 {
        let b = gf_inv(x as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let s =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        sbox[x as usize] = s;
        inv[s as usize] = x as u8;
    }
    (sbox, inv)
}

/// An expanded AES-128 key schedule ready for encryption and decryption.
///
/// # Examples
///
/// ```
/// use doram_crypto::aes::Aes128;
/// let aes = Aes128::new([0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: [u8; 16]) -> Aes128 {
        let (sbox, inv_sbox) = build_sboxes();
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 {
            round_keys,
            sbox,
            inv_sbox,
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.sbox[*b as usize];
        }
    }

    fn inv_sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.inv_sbox[*b as usize];
        }
    }

    /// State is column-major: state[4*c + r] = row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
            for c in 0..4 {
                state[4 * c + r] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
            for c in 0..4 {
                state[4 * c + r] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let a = [col[0], col[1], col[2], col[3]];
            col[0] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3];
            col[1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3];
            col[2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3);
            col[3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let a = [col[0], col[1], col[2], col[3]];
            col[0] = gf_mul(a[0], 14) ^ gf_mul(a[1], 11) ^ gf_mul(a[2], 13) ^ gf_mul(a[3], 9);
            col[1] = gf_mul(a[0], 9) ^ gf_mul(a[1], 14) ^ gf_mul(a[2], 11) ^ gf_mul(a[3], 13);
            col[2] = gf_mul(a[0], 13) ^ gf_mul(a[1], 9) ^ gf_mul(a[2], 14) ^ gf_mul(a[3], 11);
            col[3] = gf_mul(a[0], 11) ^ gf_mul(a[1], 13) ^ gf_mul(a[2], 9) ^ gf_mul(a[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..ROUNDS {
            self.sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        self.sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        Self::add_round_key(&mut state, &self.round_keys[ROUNDS]);
        for round in (1..ROUNDS).rev() {
            Self::inv_shift_rows(&mut state);
            self.inv_sub_bytes(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        self.inv_sub_bytes(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            out[i] = u8::from_str_radix(std::str::from_utf8(chunk).unwrap(), 16).unwrap();
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        let (sbox, inv) = build_sboxes();
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7C);
        assert_eq!(sbox[0x53], 0xED);
        assert_eq!(inv[0x63], 0x00);
        // The S-box is a permutation.
        let mut seen = [false; 256];
        for &s in sbox.iter() {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn gf_arithmetic() {
        // FIPS-197 §4.2: {57} · {83} = {c1}.
        assert_eq!(gf_mul(0x57, 0x83), 0xC1);
        assert_eq!(gf_mul(0x57, 0x13), 0xFE);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse failed for {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn fips197_vector() {
        // FIPS-197 Appendix C.1.
        let aes = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        assert_eq!(
            aes.encrypt_block(pt),
            hex16("3925841d02dc09fbdc118597196a0b32")
        );
    }

    #[test]
    fn round_trip_random_blocks() {
        let aes = Aes128::new([7u8; 16]);
        let mut block = [0u8; 16];
        for trial in 0..64u8 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = trial.wrapping_mul(31).wrapping_add(i as u8 * 17);
            }
            assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new([0u8; 16]);
        let b = Aes128::new([1u8; 16]);
        assert_ne!(a.encrypt_block([0u8; 16]), b.encrypt_block([0u8; 16]));
    }

    #[test]
    fn debug_hides_key() {
        let s = format!("{:?}", Aes128::new([0x42; 16]));
        assert!(!s.contains("42"));
    }
}
