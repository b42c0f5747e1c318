//! Roaring-style compressed bitmaps over item ids, plus the dense
//! [`IdMask`] the masked arena kernels test against.
//!
//! The bitmap-prefiltered search path (EarthQube's "similar patches, but
//! only those matching this metadata filter") needs three things from a
//! set-of-ids representation:
//!
//! 1. **Compact posting lists** — one bitmap per distinct attribute value /
//!    label code / geohash cell, cheap enough to keep thousands of them
//!    resident next to the secondary indexes,
//! 2. **Fast algebra** — `AND`/`OR` to compile a filter's
//!    indexable prefix into a single candidate set,
//! 3. **O(1) membership** at scan time, so the arena kernel can skip the
//!    XOR/popcount for rows outside the candidate set.
//!
//! [`Bitmap`] covers the first two with the classic two-level roaring
//! layout (Chambi et al.): ids are split into a 48-bit *key* (`id >> 16`)
//! and a 16-bit *low* part; each key owns one container holding the low
//! parts, stored either as a sorted `u16` array (sparse) or a 65 536-bit
//! bitset (dense).  Containers switch representation at 4 096 elements —
//! exactly the cardinality where the array (2 bytes/element) and the
//! bitset (8 KiB flat) break even — so the representation is *canonical*:
//! equal sets compare equal structurally, which lets `#[derive(PartialEq)]`
//! be set equality.
//!
//! [`IdMask`] covers the third: a flat, uncompressed bitset built from a
//! `Bitmap` once per query, sized to the largest candidate id, giving the
//! scan kernel a two-instruction membership test with no branching on
//! container type.
//!
//! The algebra is `and` and `or` only: the filters EarthQube compiles are
//! conjunctions of atomic predicates, so nothing takes a complement or a
//! difference (ids are unbounded `u64`s, so a complement would also need
//! a concrete universe).

use crate::ItemId;

/// Ids with the same `id >> KEY_SHIFT` share one container.
const KEY_SHIFT: u32 = 16;
/// Mask extracting the in-container (low) part of an id.
const LOW_MASK: u64 = (1 << KEY_SHIFT) - 1;
/// Maximum cardinality of an array container; above this the container is
/// a bitset (4 096 × 2-byte entries = the 8 KiB the bitset always costs).
const ARRAY_MAX: usize = 4096;
/// `u64` words in a bitset container (65 536 bits).
const CONTAINER_WORDS: usize = 1 << (KEY_SHIFT - 6);

/// One container: the set of 16-bit low parts stored under a single key.
///
/// Canonical representation invariant: `Array` iff cardinality ≤
/// [`ARRAY_MAX`], never empty (empty containers are dropped from the
/// parent's list).  All constructors below re-establish the invariant.
#[derive(Debug, Clone, PartialEq)]
enum Container {
    /// Sorted, duplicate-free low parts.
    Array(Vec<u16>),
    /// Flat bitset with its cardinality cached.
    Words {
        /// 65 536 bits; bit `v` set iff low part `v` is present.
        words: Box<[u64; CONTAINER_WORDS]>,
        /// Number of set bits (kept in sync by every mutation).
        len: u32,
    },
}

impl Container {
    /// Cardinality.
    fn len(&self) -> usize {
        match self {
            Container::Array(a) => a.len(),
            Container::Words { len, .. } => *len as usize,
        }
    }

    /// Membership test (the inner step of [`Bitmap::contains`]).
    #[inline]
    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&low).is_ok(),
            Container::Words { words, .. } => (words[(low >> 6) as usize] >> (low & 63)) & 1 == 1,
        }
    }

    /// Inserts a low part; returns whether it was newly added.
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    a.insert(pos, low);
                    if a.len() > ARRAY_MAX {
                        *self = promote(a);
                    }
                    true
                }
            },
            Container::Words { words, len } => {
                let (w, bit) = ((low >> 6) as usize, 1u64 << (low & 63));
                if words[w] & bit == 0 {
                    words[w] |= bit;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes a low part; returns whether it was present.  May leave the
    /// container empty — the caller drops empty containers.
    fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(pos) => {
                    a.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Words { words, len } => {
                let (w, bit) = ((low >> 6) as usize, 1u64 << (low & 63));
                if words[w] & bit != 0 {
                    words[w] &= !bit;
                    *len -= 1;
                    if (*len as usize) <= ARRAY_MAX {
                        *self = demote(words);
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Largest low part present (containers are never empty).
    fn max(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.last().copied(),
            Container::Words { words, .. } => {
                for (w, &word) in words.iter().enumerate().rev() {
                    if word != 0 {
                        let top = 63 - word.leading_zeros();
                        return Some((w as u32 * 64 + top) as u16);
                    }
                }
                None
            }
        }
    }

    /// Iterates the low parts in ascending order.
    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(a) => ContainerIter::Array(a.iter()),
            Container::Words { words, .. } => {
                ContainerIter::Words { words: &words[..], word_idx: 0, current: words[0] }
            }
        }
    }
}

/// Converts an array container's elements to a bitset container.
fn promote(array: &[u16]) -> Container {
    let mut words = Box::new([0u64; CONTAINER_WORDS]);
    for &v in array {
        words[(v >> 6) as usize] |= 1u64 << (v & 63);
    }
    Container::Words { words, len: array.len() as u32 }
}

/// Converts a bitset's set bits to a sorted array container.
fn demote(words: &[u64; CONTAINER_WORDS]) -> Container {
    let mut out = Vec::new();
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            out.push((w as u32 * 64 + b) as u16);
            bits &= bits - 1;
        }
    }
    Container::Array(out)
}

/// Canonicalises a freshly built array: `None` if empty, bitset if over
/// the threshold.
fn normalize_array(v: Vec<u16>) -> Option<Container> {
    if v.is_empty() {
        None
    } else if v.len() > ARRAY_MAX {
        Some(promote(&v))
    } else {
        Some(Container::Array(v))
    }
}

/// Canonicalises a freshly built bitset with `len` set bits.
fn normalize_words(words: Box<[u64; CONTAINER_WORDS]>, len: u32) -> Option<Container> {
    if len == 0 {
        None
    } else if (len as usize) <= ARRAY_MAX {
        Some(demote(&words))
    } else {
        Some(Container::Words { words, len })
    }
}

/// Container intersection; `None` when empty.
fn container_and(a: &Container, b: &Container) -> Option<Container> {
    match (a, b) {
        (Container::Array(x), Container::Array(y)) => {
            let mut out = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < x.len() && j < y.len() {
                match x[i].cmp(&y[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(x[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            normalize_array(out)
        }
        (Container::Array(x), w @ Container::Words { .. })
        | (w @ Container::Words { .. }, Container::Array(x)) => {
            let out: Vec<u16> = x.iter().copied().filter(|&v| w.contains(v)).collect();
            normalize_array(out)
        }
        (Container::Words { words: wa, .. }, Container::Words { words: wb, .. }) => {
            let mut words = Box::new([0u64; CONTAINER_WORDS]);
            let mut len = 0u32;
            for i in 0..CONTAINER_WORDS {
                words[i] = wa[i] & wb[i];
                len += words[i].count_ones();
            }
            normalize_words(words, len)
        }
    }
}

/// Container union (inputs are non-empty, so the result is too).
fn container_or(a: &Container, b: &Container) -> Container {
    match (a, b) {
        (Container::Array(x), Container::Array(y)) => {
            let mut out = Vec::with_capacity(x.len() + y.len());
            let (mut i, mut j) = (0, 0);
            while i < x.len() || j < y.len() {
                if j >= y.len() || (i < x.len() && x[i] < y[j]) {
                    out.push(x[i]);
                    i += 1;
                } else if i >= x.len() || y[j] < x[i] {
                    out.push(y[j]);
                    j += 1;
                } else {
                    out.push(x[i]);
                    i += 1;
                    j += 1;
                }
            }
            match normalize_array(out) {
                Some(c) => c,
                // Unreachable in practice (both inputs are non-empty), but
                // an empty array is a safe identity rather than a panic.
                None => Container::Array(Vec::new()),
            }
        }
        (Container::Array(x), Container::Words { words, len })
        | (Container::Words { words, len }, Container::Array(x)) => {
            let mut merged = words.clone();
            let mut new_len = *len;
            for &v in x {
                let (w, bit) = ((v >> 6) as usize, 1u64 << (v & 63));
                if merged[w] & bit == 0 {
                    merged[w] |= bit;
                    new_len += 1;
                }
            }
            Container::Words { words: merged, len: new_len }
        }
        (Container::Words { words: wa, .. }, Container::Words { words: wb, .. }) => {
            let mut words = Box::new([0u64; CONTAINER_WORDS]);
            let mut len = 0u32;
            for i in 0..CONTAINER_WORDS {
                words[i] = wa[i] | wb[i];
                len += words[i].count_ones();
            }
            Container::Words { words, len }
        }
    }
}

/// Ascending iterator over one container's low parts.
enum ContainerIter<'a> {
    /// Walking a sorted array.
    Array(std::slice::Iter<'a, u16>),
    /// Walking a bitset word by word.
    Words {
        /// The container's words.
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word_idx: usize,
        /// Remaining (unyielded) bits of the current word.
        current: u64,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Words { words, word_idx, current } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= words.len() {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros();
                *current &= *current - 1;
                Some((*word_idx as u32 * 64 + bit) as u16)
            }
        }
    }
}

/// A compressed set of [`ItemId`]s with roaring-style two-level layout:
/// sorted `(key, container)` pairs where `key = id >> 16` and each
/// container holds the 16-bit low parts as either a sorted array (≤ 4 096
/// elements) or a flat 65 536-bit bitset.
///
/// Representation is canonical (array iff sparse, no empty containers), so
/// the derived `PartialEq` is set equality.  All operations are panic-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    /// Sorted by key; no empty containers.
    containers: Vec<(u64, Container)>,
    /// Total cardinality across containers.
    len: u64,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test: two binary searches (container key, then the array
    /// container) or one search plus a bit probe (bitset container).
    #[inline]
    pub fn contains(&self, id: ItemId) -> bool {
        let key = id >> KEY_SHIFT;
        match self.containers.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => self.containers[pos].1.contains((id & LOW_MASK) as u16),
            Err(_) => false,
        }
    }

    /// Inserts an id; returns whether it was newly added.
    pub fn insert(&mut self, id: ItemId) -> bool {
        let key = id >> KEY_SHIFT;
        let low = (id & LOW_MASK) as u16;
        match self.containers.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => {
                let added = self.containers[pos].1.insert(low);
                if added {
                    self.len += 1;
                }
                added
            }
            Err(pos) => {
                self.containers.insert(pos, (key, Container::Array(vec![low])));
                self.len += 1;
                true
            }
        }
    }

    /// Removes an id; returns whether it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let key = id >> KEY_SHIFT;
        let low = (id & LOW_MASK) as u16;
        if let Ok(pos) = self.containers.binary_search_by_key(&key, |(k, _)| *k) {
            let removed = self.containers[pos].1.remove(low);
            if removed {
                self.len -= 1;
                if self.containers[pos].1.len() == 0 {
                    self.containers.remove(pos);
                }
            }
            removed
        } else {
            false
        }
    }

    /// The largest id in the set ([`IdMask`] sizes itself with this).
    pub fn max(&self) -> Option<ItemId> {
        let (key, c) = self.containers.last()?;
        c.max().map(|low| (key << KEY_SHIFT) | low as u64)
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.containers.iter().flat_map(|(key, c)| {
            let base = key << KEY_SHIFT;
            c.iter().map(move |low| base | low as u64)
        })
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(c) = container_and(ca, cb) {
                        out.len += c.len() as u64;
                        out.containers.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.containers.len() || j < other.containers.len() {
            let next = if j >= other.containers.len()
                || (i < self.containers.len() && self.containers[i].0 < other.containers[j].0)
            {
                let (k, c) = &self.containers[i];
                i += 1;
                (*k, c.clone())
            } else if i >= self.containers.len() || other.containers[j].0 < self.containers[i].0 {
                let (k, c) = &other.containers[j];
                j += 1;
                (*k, c.clone())
            } else {
                let (k, ca) = &self.containers[i];
                let merged = container_or(ca, &other.containers[j].1);
                i += 1;
                j += 1;
                (*k, merged)
            };
            out.len += next.1.len() as u64;
            out.containers.push(next);
        }
        out
    }
}

impl FromIterator<ItemId> for Bitmap {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for id in iter {
            bm.insert(id);
        }
        bm
    }
}

impl Extend<ItemId> for Bitmap {
    fn extend<T: IntoIterator<Item = ItemId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// A flat, uncompressed bitset over item ids — the scan-time form of a
/// [`Bitmap`].
///
/// Built once per query from the compiled prefilter bitmap and sized to
/// its largest id, it gives the masked arena kernels an O(1), branch-free
/// membership probe (`word >> bit & 1`) with no per-row container
/// dispatch.  Ids beyond the sized range are simply absent.
#[derive(Debug, Clone, Default)]
pub struct IdMask {
    /// Bit `id` set iff `id` is in the mask.
    words: Vec<u64>,
    /// Cardinality (copied from the source bitmap).
    len: u64,
}

impl IdMask {
    /// Materialises the dense mask of a bitmap.
    pub fn from_bitmap(bitmap: &Bitmap) -> Self {
        let bits = bitmap.max().map_or(0, |m| m as usize + 1);
        let mut words = vec![0u64; bits.div_ceil(64)];
        for id in bitmap.iter() {
            words[(id >> 6) as usize] |= 1u64 << (id & 63);
        }
        Self { words, len: bitmap.len() }
    }

    /// Membership test (the per-row probe of the portable scan kernel).
    #[inline]
    pub fn contains(&self, id: ItemId) -> bool {
        self.words.get((id >> 6) as usize).is_some_and(|w| (w >> (id & 63)) & 1 == 1)
    }

    /// The bitset: bit `id % 64` of word `id / 64` is `contains(id)`, and
    /// ids past the last word are absent.  The AVX-512 kernel probes eight
    /// ids at once against it, and a dense arena's scan walks it by
    /// position.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of ids in the mask.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids in the mask, ascending: each word gives up its set bits
    /// lowest first, so an empty word costs one comparison.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            let base = (index as u64) << 6;
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| base + u64::from(rest.trailing_zeros()))
        })
    }

    /// Heap bytes the mask holds (what a cache of masks budgets by).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

impl From<&Bitmap> for IdMask {
    fn from(bitmap: &Bitmap) -> Self {
        IdMask::from_bitmap(bitmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deterministic xorshift stream (no external RNG dependency).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xabcd);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut bm = Bitmap::new();
        assert!(bm.is_empty());
        assert!(bm.insert(42));
        assert!(!bm.insert(42), "double insert is a no-op");
        assert!(bm.insert(1 << 40));
        assert_eq!(bm.len(), 2);
        assert!(bm.contains(42));
        assert!(bm.contains(1 << 40));
        assert!(!bm.contains(43));
        assert_eq!(bm.max(), Some(1 << 40));
        assert!(bm.remove(42));
        assert!(!bm.remove(42), "double remove is a no-op");
        assert_eq!(bm.len(), 1);
        assert!(!bm.contains(42));
        // Removing the last element of a container drops the container.
        assert!(bm.remove(1 << 40));
        assert!(bm.is_empty());
        assert_eq!(bm.max(), None);
        assert_eq!(bm, Bitmap::new(), "empty bitmaps are structurally equal");
    }

    #[test]
    fn containers_promote_and_demote_across_the_threshold() {
        let mut bm = Bitmap::new();
        // Fill one container (key 0) past the array threshold: evens first
        // so the array stays sorted under random-ish insertion order too.
        for v in 0..(ARRAY_MAX as u64 + 500) {
            bm.insert(v * 2);
        }
        assert_eq!(bm.len(), ARRAY_MAX as u64 + 500);
        assert!(matches!(bm.containers[0].1, Container::Words { .. }), "should have promoted");
        for v in 0..(ARRAY_MAX as u64 + 500) {
            assert!(bm.contains(v * 2));
            assert!(!bm.contains(v * 2 + 1));
        }
        // Drop back below the threshold: must demote and stay correct.
        for v in 0..1000u64 {
            assert!(bm.remove(v * 2));
        }
        assert!(matches!(bm.containers[0].1, Container::Array(_)), "should have demoted");
        assert!(!bm.contains(0));
        assert!(bm.contains(2000));
        assert_eq!(bm.len(), ARRAY_MAX as u64 - 500);
        // Canonical representation: rebuilding the same set fresh compares
        // equal even though it never saw the dense phase.
        let rebuilt: Bitmap = (1000..(ARRAY_MAX as u64 + 500)).map(|v| v * 2).collect();
        assert_eq!(bm, rebuilt);
    }

    #[test]
    fn iter_is_ascending_across_containers_and_shapes() {
        let mut next = rng(7);
        let mut bm = Bitmap::new();
        let mut model = BTreeSet::new();
        // Dense cluster (forces a bitset container) + sparse spray.
        for v in 0..6000u64 {
            bm.insert(v);
            model.insert(v);
        }
        for _ in 0..2000 {
            let v = next() % (1 << 34);
            bm.insert(v);
            model.insert(v);
        }
        let got: Vec<u64> = bm.iter().collect();
        let want: Vec<u64> = model.iter().copied().collect();
        assert_eq!(got, want);
        assert_eq!(bm.len(), want.len() as u64);
    }

    #[test]
    fn algebra_matches_the_set_model() {
        let mut next = rng(42);
        // Three regimes per side: a dense block (bitset containers), a
        // sparse spray (array containers), and overlap between the sides.
        for (da, db) in [(6000u64, 100u64), (100, 6000), (5000, 5000), (50, 70)] {
            let mut a = Bitmap::new();
            let mut b = Bitmap::new();
            let mut ma = BTreeSet::new();
            let mut mb = BTreeSet::new();
            for _ in 0..da {
                let v = next() % 10_000;
                a.insert(v);
                ma.insert(v);
            }
            for _ in 0..db {
                let v = next() % 10_000 + 5_000;
                b.insert(v);
                mb.insert(v);
            }
            let and: Vec<u64> = a.and(&b).iter().collect();
            let or: Vec<u64> = a.or(&b).iter().collect();
            assert_eq!(and, ma.intersection(&mb).copied().collect::<Vec<_>>());
            assert_eq!(or, ma.union(&mb).copied().collect::<Vec<_>>());
            // Cached cardinalities agree with the iterators.
            assert_eq!(a.and(&b).len(), and.len() as u64);
            assert_eq!(a.or(&b).len(), or.len() as u64);
        }
    }

    #[test]
    fn algebra_with_empty_and_disjoint_operands() {
        let a: Bitmap = [1u64, 2, 3].into_iter().collect();
        let empty = Bitmap::new();
        assert_eq!(a.and(&empty), empty);
        assert_eq!(a.or(&empty), a);
        assert_eq!(empty.or(&a), a);
        // Disjoint containers (different keys).
        let far: Bitmap = [1u64 << 30].into_iter().collect();
        assert_eq!(a.and(&far), empty);
        assert_eq!(a.or(&far).len(), 4);
    }

    #[test]
    fn id_mask_agrees_with_its_bitmap() {
        let mut next = rng(99);
        let bm: Bitmap = (0..3000).map(|_| next() % 100_000).collect();
        let mask = IdMask::from_bitmap(&bm);
        assert_eq!(mask.len(), bm.len());
        assert!(!mask.is_empty());
        for id in 0..100_000u64 {
            assert_eq!(mask.contains(id), bm.contains(id), "id {id}");
        }
        // The set bits come back ascending, exactly the bitmap's ids —
        // word boundaries (63, 64) and sparse stretches included.
        assert!(mask.iter().eq(bm.iter()));
        let edges: Bitmap = [0u64, 63, 64, 127, 128, 70_000].into_iter().collect();
        let edge_mask = IdMask::from_bitmap(&edges);
        assert_eq!(edge_mask.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 70_000]);
        assert_eq!(edge_mask.size_bytes(), (70_000usize + 1).div_ceil(64) * 8);
        // Probes beyond the sized range are false, not a panic.
        assert!(!mask.contains(u64::MAX));
        let empty = IdMask::from_bitmap(&Bitmap::new());
        assert!(empty.is_empty());
        assert!(!empty.contains(0));
        assert_eq!(empty.iter().next(), None);
        // The From impl is the same construction.
        assert!(IdMask::from(&bm).contains(bm.max().unwrap_or(0)));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut bm: Bitmap = [3u64, 1, 2, 3].into_iter().collect();
        assert_eq!(bm.len(), 3);
        bm.extend([4u64, 1]);
        assert_eq!(bm.len(), 4);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }
}
