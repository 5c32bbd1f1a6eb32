//! # sf-arith — finite-field arithmetic substrate
//!
//! The McKay–Miller–Širáň (MMS) graphs underlying the Slim Fly topology
//! (Besta & Hoefler, SC'14, §II-B) are Cayley-like graphs over the finite
//! field GF(q) where `q = 4w + δ`, `δ ∈ {−1, 0, 1}`, and `q` is a *prime
//! power*. This crate provides:
//!
//! * primality / prime-power decomposition ([`prime`]),
//! * dense polynomial arithmetic over prime fields ([`poly`]),
//! * table-driven finite fields GF(p^n) with primitive-element search
//!   ([`field::FiniteField`]).
//!
//! Fields are small (the largest Slim Fly instances in the paper use
//! q ≤ ~100), so all operations are backed by precomputed `q × q` tables,
//! giving O(1) field ops during graph construction.
//!
//! ## Example
//!
//! ```
//! use sf_arith::FiniteField;
//!
//! // GF(5): the field used for the Hoffman–Singleton Slim Fly example.
//! let f = FiniteField::new(5).unwrap();
//! let xi = f.primitive_element();
//! // ξ generates all non-zero elements (the paper's example uses ξ = 2).
//! let mut seen = std::collections::BTreeSet::new();
//! for i in 0..4 {
//!     seen.insert(f.pow(xi, i));
//! }
//! assert_eq!(seen.len(), 4);
//!
//! // GF(9) = GF(3^2) works transparently (q = 9 = 4·2 + 1).
//! let f9 = FiniteField::new(9).unwrap();
//! assert_eq!(f9.characteristic(), 3);
//! assert_eq!(f9.order(), 9);
//! ```

pub mod field;
pub mod poly;
pub mod prime;

pub use field::FiniteField;
pub use prime::{factorize, is_prime, is_prime_power, prime_power_decompose, primes_up_to};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_gf5() {
        let f = FiniteField::new(5).unwrap();
        // 2 is a primitive element of GF(5): 2,4,3,1.
        assert_eq!(f.pow(2, 1), 2);
        assert_eq!(f.pow(2, 2), 4);
        assert_eq!(f.pow(2, 3), 3);
        assert_eq!(f.pow(2, 4), 1);
    }
}
