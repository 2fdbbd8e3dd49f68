//! MurmurHash3, implemented from scratch.
//!
//! RAMCloud — the paper's storage tier — hashes keys with MurmurHash3 to
//! pick the owning storage server, and gRouting's hash partitioning uses
//! "RAMCloud's default and inexpensive hash partitioning scheme,
//! MurmurHash3 over graph nodes" (§4.1). This is the 32-bit x86 variant,
//! matching Austin Appleby's reference output (verified against published
//! test vectors in the tests below).

/// MurmurHash3 x86 32-bit.
pub fn murmur3_x86_32(data: &[u8], seed: u32) -> u32 {
    const C1: u32 = 0xcc9e_2d51;
    const C2: u32 = 0x1b87_3593;

    let mut h1 = seed;
    let chunks = data.chunks_exact(4);
    let tail = chunks.remainder();

    for chunk in chunks {
        let mut k1 = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(13);
        h1 = h1.wrapping_mul(5).wrapping_add(0xe654_6b64);
    }

    let mut k1 = 0u32;
    if !tail.is_empty() {
        for (i, &b) in tail.iter().enumerate() {
            k1 ^= (b as u32) << (8 * i);
        }
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u32;
    fmix32(h1)
}

/// Hashes a `u32` node id (little-endian bytes) with the 32-bit variant.
#[inline]
pub fn hash_node(id: u32, seed: u32) -> u32 {
    murmur3_x86_32(&id.to_le_bytes(), seed)
}

fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from Appleby's SMHasher / widely published values.
    #[test]
    fn x86_32_reference_vectors() {
        assert_eq!(murmur3_x86_32(b"", 0), 0);
        assert_eq!(murmur3_x86_32(b"", 1), 0x514E28B7);
        assert_eq!(murmur3_x86_32(b"", 0xffffffff), 0x81F16F39);
        assert_eq!(murmur3_x86_32(b"test", 0), 0xba6bd213);
        assert_eq!(murmur3_x86_32(b"Hello, world!", 0), 0xc0363e43);
        assert_eq!(
            murmur3_x86_32(b"The quick brown fox jumps over the lazy dog", 0),
            0x2e4ff723
        );
        assert_eq!(murmur3_x86_32(&[0xff, 0xff, 0xff, 0xff], 0), 0x76293B50);
        assert_eq!(murmur3_x86_32(&[0x21, 0x43, 0x65, 0x87], 0), 0xF55B516B);
        assert_eq!(murmur3_x86_32(&[0x21, 0x43, 0x65], 0), 0x7E4A8634);
        assert_eq!(murmur3_x86_32(&[0x21, 0x43], 0), 0xA0F7B07A);
        assert_eq!(murmur3_x86_32(&[0x21], 0), 0x72661CF4);
    }

    #[test]
    fn hash_node_spreads() {
        // Consecutive ids should land far apart — that is the point of
        // hashing before modulo.
        let h0 = hash_node(0, 0);
        let h1 = hash_node(1, 0);
        let h2 = hash_node(2, 0);
        assert_ne!(h0 % 7, h1 % 7);
        assert_ne!(h0, h2);
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let trials = 256;
        for i in 0..trials {
            let a = hash_node(i, 7);
            let b = hash_node(i ^ 1, 7);
            total += (a ^ b).count_ones();
        }
        let mean = total as f64 / trials as f64;
        assert!((10.0..22.0).contains(&mean), "mean flipped bits {mean}");
    }

    proptest::proptest! {
        #[test]
        fn prop_deterministic(data in proptest::collection::vec(proptest::num::u8::ANY, 0..64), seed: u32) {
            proptest::prop_assert_eq!(
                murmur3_x86_32(&data, seed),
                murmur3_x86_32(&data, seed)
            );
        }
    }
}
