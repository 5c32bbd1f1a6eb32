//! Table-driven finite fields GF(p^n).
//!
//! Elements are represented by their canonical index in `0..q`: the base-p
//! encoding of the polynomial representative (for n = 1 this coincides with
//! the integer residue). All binary operations are O(1) lookups into
//! precomputed `q × q` tables; exp/log tables provide discrete logarithms
//! with respect to a fixed primitive element.

use crate::poly::{find_irreducible, Poly};
use crate::prime::prime_power_decompose;

/// A finite field GF(q) with q = p^n, backed by full operation tables.
///
/// Construction cost is O(q² n²) time and O(q²) memory, negligible for the
/// field sizes used by Slim Fly constructions (q ≤ a few hundred).
#[derive(Clone, Debug)]
pub struct FiniteField {
    p: u32,
    n: u32,
    q: u32,
    add: Vec<u32>,
    mul: Vec<u32>,
    neg: Vec<u32>,
    inv: Vec<u32>, // inv[0] unused (set to 0)
    exp: Vec<u32>, // exp[i] = ξ^i for i in 0..q-1
    log: Vec<u32>, // log[x] for x in 1..q, log[0] unused
    primitive: u32,
    modulus: Poly,
}

impl FiniteField {
    /// Constructs GF(q). Returns `None` if `q` is not a prime power ≥ 2.
    pub fn new(q: u32) -> Option<Self> {
        let (p64, n) = prime_power_decompose(q as u64)?;
        let p = p64 as u32;
        let modulus = if n == 1 {
            // Unused for prime fields, keep x so degree bookkeeping works.
            Poly::new(vec![0, 1], p)
        } else {
            find_irreducible(p, n)
        };

        let qi = q as usize;
        let mut add = vec![0u32; qi * qi];
        let mut mul = vec![0u32; qi * qi];
        let mut neg = vec![0u32; qi];
        let mut inv = vec![0u32; qi];

        if n == 1 {
            for a in 0..q {
                neg[a as usize] = (q - a) % q;
                for b in 0..q {
                    add[(a * q + b) as usize] = (a + b) % q;
                    mul[(a * q + b) as usize] = (a as u64 * b as u64 % q as u64) as u32;
                }
            }
        } else {
            let polys: Vec<Poly> = (0..q as u64).map(|v| Poly::decode(v, p)).collect();
            for (a, pa) in polys.iter().enumerate() {
                let negp = Poly::zero().sub(pa, p);
                neg[a] = negp.encode(p) as u32;
                for (b, pb) in polys.iter().enumerate() {
                    add[a * qi + b] = pa.add(pb, p).encode(p) as u32;
                    let prod = pa.mul(pb, p).rem(&modulus, p);
                    mul[a * qi + b] = prod.encode(p) as u32;
                }
            }
        }

        // Multiplicative inverses by scanning the mul table (q is tiny).
        for a in 1..qi {
            for b in 1..qi {
                if mul[a * qi + b] == 1 {
                    inv[a] = b as u32;
                    break;
                }
            }
            debug_assert_ne!(inv[a], 0, "every non-zero element must be invertible");
        }

        // Primitive element: smallest element of multiplicative order q-1.
        let ord_target = q - 1;
        let mut primitive = 0;
        'outer: for g in 2..q {
            let mut acc = g;
            let mut ord = 1;
            while acc != 1 {
                acc = mul[(acc * q + g) as usize];
                ord += 1;
                if ord > ord_target {
                    continue 'outer;
                }
            }
            if ord == ord_target {
                primitive = g;
                break;
            }
        }
        if q == 2 {
            primitive = 1; // GF(2)*: the only element, order 1 = q-1.
        }
        assert_ne!(primitive, 0, "finite field must have a primitive element");

        // exp/log tables.
        let mut exp = vec![0u32; ord_target.max(1) as usize];
        let mut log = vec![0u32; qi];
        let mut acc = 1u32;
        for (i, e) in exp.iter_mut().enumerate() {
            *e = acc;
            log[acc as usize] = i as u32;
            acc = mul[(acc * q + primitive) as usize];
        }

        Some(FiniteField {
            p,
            n,
            q,
            add,
            mul,
            neg,
            inv,
            exp,
            log,
            primitive,
            modulus,
        })
    }

    /// Field order q = p^n.
    #[inline]
    pub fn order(&self) -> u32 {
        self.q
    }

    /// Field characteristic p.
    #[inline]
    pub fn characteristic(&self) -> u32 {
        self.p
    }

    /// Extension degree n (q = p^n).
    #[inline]
    pub fn extension_degree(&self) -> u32 {
        self.n
    }

    /// The irreducible modulus polynomial (meaningful for n ≥ 2).
    pub fn modulus(&self) -> &Poly {
        &self.modulus
    }

    /// A fixed primitive element ξ (generator of the multiplicative group).
    #[inline]
    pub fn primitive_element(&self) -> u32 {
        self.primitive
    }

    /// a + b.
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        self.add[(a * self.q + b) as usize]
    }

    /// a − b.
    #[inline]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        self.add(a, self.neg[b as usize])
    }

    /// −a.
    #[inline]
    pub fn neg(&self, a: u32) -> u32 {
        self.neg[a as usize]
    }

    /// a · b.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        self.mul[(a * self.q + b) as usize]
    }

    /// a⁻¹ for a ≠ 0. Panics on a = 0.
    #[inline]
    pub fn inv(&self, a: u32) -> u32 {
        assert_ne!(a, 0, "zero has no multiplicative inverse");
        self.inv[a as usize]
    }

    /// a^e (e ≥ 0), with `a^0 = 1` including `0^0 = 1` by convention.
    pub fn pow(&self, a: u32, e: u32) -> u32 {
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        // Use discrete log: a^e = ξ^(log(a)·e mod (q-1)).
        let l = self.log[a as usize] as u64;
        let idx = (l * e as u64) % (self.q as u64 - 1);
        self.exp[idx as usize]
    }

    /// ξ^i (i taken mod q−1).
    #[inline]
    pub fn xi_pow(&self, i: u32) -> u32 {
        self.exp[(i as u64 % (self.q as u64 - 1)) as usize]
    }

    /// Discrete logarithm base ξ of `a ≠ 0`.
    #[inline]
    pub fn log(&self, a: u32) -> u32 {
        assert_ne!(a, 0, "log of zero is undefined");
        self.log[a as usize]
    }

    /// Iterator over all field elements `0..q`.
    pub fn elements(&self) -> impl Iterator<Item = u32> {
        0..self.q
    }

    /// True iff `a` is a non-zero quadratic residue (an even power of ξ).
    pub fn is_quadratic_residue(&self, a: u32) -> bool {
        a != 0 && self.log[a as usize].is_multiple_of(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIELD_ORDERS: &[u32] = &[2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 32, 49];

    #[test]
    fn rejects_non_prime_powers() {
        for q in [0u32, 1, 6, 10, 12, 15, 18, 20, 100] {
            assert!(FiniteField::new(q).is_none(), "q={q}");
        }
    }

    #[test]
    fn accepts_prime_powers() {
        for &q in FIELD_ORDERS {
            let f = FiniteField::new(q).expect("prime power");
            assert_eq!(f.order(), q);
            let (p, n) = prime_power_decompose(q as u64).unwrap();
            assert_eq!(f.characteristic(), p as u32);
            assert_eq!(f.extension_degree(), n);
        }
    }

    #[test]
    fn field_axioms_exhaustive_small() {
        // Exhaustively check the field axioms for a few small fields,
        // including extensions (GF(4), GF(8), GF(9)).
        for &q in &[2u32, 3, 4, 5, 7, 8, 9] {
            let f = FiniteField::new(q).unwrap();
            for a in 0..q {
                assert_eq!(f.add(a, 0), a);
                assert_eq!(f.mul(a, 1), a);
                assert_eq!(f.add(a, f.neg(a)), 0);
                if a != 0 {
                    assert_eq!(f.mul(a, f.inv(a)), 1, "q={q} a={a}");
                }
                for b in 0..q {
                    assert_eq!(f.add(a, b), f.add(b, a));
                    assert_eq!(f.mul(a, b), f.mul(b, a));
                    for c in 0..q {
                        assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                        assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                        assert_eq!(
                            f.mul(a, f.add(b, c)),
                            f.add(f.mul(a, b), f.mul(a, c)),
                            "distributivity failed q={q} a={a} b={b} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn primitive_element_generates_group() {
        for &q in FIELD_ORDERS {
            let f = FiniteField::new(q).unwrap();
            let xi = f.primitive_element();
            let mut seen = std::collections::BTreeSet::new();
            let mut acc = 1u32;
            for _ in 0..q - 1 {
                seen.insert(acc);
                acc = f.mul(acc, xi);
            }
            assert_eq!(acc, 1, "ξ^(q-1) = 1, q={q}");
            assert_eq!(seen.len(), (q - 1) as usize, "ξ generates GF({q})*");
        }
    }

    #[test]
    fn exp_log_inverse_bijections() {
        for &q in FIELD_ORDERS {
            let f = FiniteField::new(q).unwrap();
            for a in 1..q {
                assert_eq!(f.xi_pow(f.log(a)), a, "q={q} a={a}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for &q in &[5u32, 8, 9, 13] {
            let f = FiniteField::new(q).unwrap();
            for a in 0..q {
                let mut acc = 1u32;
                for e in 0..2 * q {
                    assert_eq!(f.pow(a, e), acc, "q={q} a={a} e={e}");
                    acc = f.mul(acc, a);
                }
            }
        }
    }

    #[test]
    fn characteristic_2_self_negation() {
        for &q in &[2u32, 4, 8, 16, 32] {
            let f = FiniteField::new(q).unwrap();
            for a in 0..q {
                assert_eq!(f.neg(a), a, "x = -x in characteristic 2");
                assert_eq!(f.add(a, a), 0);
            }
        }
    }

    #[test]
    fn quadratic_residues_split_evenly_odd_char() {
        for &q in &[5u32, 7, 9, 11, 13, 25, 27, 49] {
            let f = FiniteField::new(q).unwrap();
            let qr = (1..q).filter(|&a| f.is_quadratic_residue(a)).count();
            assert_eq!(qr as u32, (q - 1) / 2, "q={q}");
        }
    }

    #[test]
    fn gf5_matches_paper_example() {
        // Paper §II-B1d: Z_5 with ξ = 2: 2^4=1, 2^1=2, 2^3=3, 2^2=4.
        let f = FiniteField::new(5).unwrap();
        assert_eq!(f.primitive_element(), 2);
        assert_eq!(f.pow(2, 4), 1);
        assert_eq!(f.pow(2, 1), 2);
        assert_eq!(f.pow(2, 3), 3);
        assert_eq!(f.pow(2, 2), 4);
    }
}
