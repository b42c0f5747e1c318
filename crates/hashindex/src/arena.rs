//! The cache-resident code arena: a flat, structure-of-arrays store for
//! binary codes that turns the Hamming hot path into a contiguous memory
//! scan.
//!
//! Before the arena, every [`BinaryCode`] in a bucket table was its own
//! heap-allocated `Vec<u64>` reached through a `HashMap` — a pointer chase
//! per candidate, which stalls the scan on a cache miss for almost every
//! code it touches.  The arena stores all code words **word-striped and
//! contiguous** (`row * words_per_code .. (row + 1) * words_per_code`
//! inside one `Vec<u64>`) with a parallel `Vec<ItemId>`, so a scan is a
//! linear walk the prefetcher can stream at memory bandwidth.
//!
//! Every scan — bounded top-k, radius, all distances, masked or not — is
//! one call of the block kernel [`CodeArena::scan`], run at the best
//! [`KernelTier`] the CPU offers, detected once per process:
//!
//! * **`Avx512`** (`avx512f` + `avx512vpopcntdq`): eight rows per step —
//!   XOR, `vpopcntq`, a pairwise add of each 128-bit row's two words (other
//!   widths gather each word at the row stride), one unsigned compare of
//!   all eight distances against the bound, with the block's keep bits
//!   ANDed in.  Unmasked 1- and 2-word codes decide **32 rows per
//!   branch**: four blocks' distances folded by a lane-wise `min` and
//!   compared once with a hoisted bound vector; only a group with a row
//!   inside the bound is decided block by block.  The last `len % 8` rows
//!   run portable.
//! * **`Popcnt`**: the portable loop compiled with the `popcnt` instruction.
//! * **`Portable`**: `u64::count_ones` (a SWAR sequence on x86_64 without
//!   `popcnt`) in 1/2/4-word arms that keep the query in registers.  The
//!   fallback, the only tier off x86_64, and the tests' reference.
//!
//! A masked scan reads the mask one of two ways:
//!
//! * **By position**, on a *dense* arena — one whose every row's id is its
//!   row, as the serving arena is by construction (row *r* = dense id *r*;
//!   [`is_dense`](CodeArena::is_dense), kept by one compare per
//!   [`push`](CodeArena::push)).  Bit *r* of the mask is then row *r*'s
//!   keep bit, so the scan walks the mask's words, not the rows: a zero
//!   word skips 64 rows without touching them.  At `Avx512` each nonzero
//!   byte is one 8-row block and the byte is that block's keep bits (no id
//!   is loaded, no mask word gathered); the portable tiers visit the set
//!   bits one by one.  A filtered query whose mask holds a fraction of a
//!   percent of the rows pays for those rows and the mask's words only.
//! * **By id**, on any other arena (a [`HashTableIndex`] or a
//!   [`ShardedHashIndex`] shard, whose ids are not rows): every row's id
//!   is probed in the mask — at `Avx512` eight at once, in one gather of
//!   the mask's words — and a block with none of its rows in the mask
//!   loads no code words.
//!
//! Both ways show the visitor the same rows in ascending row order.
//!
//! The tiers are `#[target_feature]` functions, not a crate-wide
//! `-C target-feature`, which would recompile every crate of the build and
//! make a binary that faults on a CPU without the feature.
//!
//! [`HashTableIndex`]: crate::HashTableIndex
//! [`ShardedHashIndex`]: crate::ShardedHashIndex
//!
//! Layout invariants (relied on by the scan kernel and the property
//! tests):
//!
//! * `data.len() == ids.len() * words_per_code` at all times,
//! * row `i` of the arena is the code of `ids[i]`, in **insertion order**
//!   (the arena is append-only and never persisted: a restored index
//!   re-inserts its codes),
//! * bits past the logical width of the last word are zero — guaranteed by
//!   [`BinaryCode`]'s own invariant, which the arena copies verbatim.

use std::sync::OnceLock;

use crate::bitmap::IdMask;
use crate::code::BinaryCode;
use crate::{ItemId, Neighbor};

/// A flat, append-only, structure-of-arrays store of `(id, code)` rows with
/// one runtime-dispatched Hamming-distance scan kernel.
#[derive(Debug, Clone, Default)]
pub struct CodeArena {
    bits: u32,
    words_per_code: usize,
    /// Row-major code words: row `i` occupies
    /// `data[i * words_per_code .. (i + 1) * words_per_code]`.
    data: Vec<u64>,
    /// `ids[i]` is the item stored in row `i`.
    ids: Vec<ItemId>,
    /// Whether some row's id differs from its row number.  While it is
    /// false the arena is dense and a masked scan reads the mask by
    /// position.
    scattered: bool,
}

/// An instruction-set tier of the scan kernel ([`CodeArena::scan`]), slowest
/// first; every tier returns exactly what `Portable` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Plain Rust for the compile target: the fallback, the only tier off
    /// x86_64, and the tests' reference.
    Portable,
    /// The portable loop compiled with the `popcnt` instruction.
    Popcnt,
    /// `avx512f` + `avx512vpopcntdq`: eight rows per step, their distances
    /// compared with the bound in one instruction; unmasked 1- and 2-word
    /// codes 32 rows per compare.
    Avx512,
}

impl KernelTier {
    /// Whether this CPU can run the tier (`is_x86_feature_detected!`).
    pub(crate) fn is_supported(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Popcnt => is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tiers this CPU can run, slowest first (`Portable` always).
    pub(crate) fn supported() -> impl Iterator<Item = KernelTier> {
        [Self::Portable, Self::Popcnt, Self::Avx512].into_iter().filter(|t| t.is_supported())
    }

    /// The best tier this CPU can run: detected on first use, then fixed
    /// for the life of the process.  [`CodeArena::scan`] runs at it.
    pub fn detected() -> KernelTier {
        static DETECTED: OnceLock<KernelTier> = OnceLock::new();
        *DETECTED.get_or_init(|| Self::supported().last().unwrap_or(KernelTier::Portable))
    }
}

impl CodeArena {
    /// Creates an empty arena for codes of the given width.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0, "code width must be positive");
        Self {
            bits,
            words_per_code: bits.div_ceil(64) as usize,
            data: Vec::new(),
            ids: Vec::new(),
            scattered: false,
        }
    }

    /// Creates an empty arena with row capacity pre-reserved.
    pub fn with_capacity(bits: u32, rows: usize) -> Self {
        let mut arena = Self::new(bits);
        arena.data.reserve(rows * arena.words_per_code);
        arena.ids.reserve(rows);
        arena
    }

    /// Code width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of `u64` words per stored code.
    #[inline]
    pub fn words_per_code(&self) -> usize {
        self.words_per_code
    }

    /// Number of stored rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The stored item ids, in row (insertion) order.
    #[inline]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// Whether every row's id is its row number (`ids()[r] == r`), as in
    /// the serving arena.  A masked scan of a dense arena walks the mask's
    /// words instead of every row.
    #[inline]
    pub fn is_dense(&self) -> bool {
        !self.scattered
    }

    /// The id stored in a row.
    ///
    /// # Panics
    /// Panics if `row >= len()`.
    #[inline]
    pub fn id(&self, row: usize) -> ItemId {
        self.ids[row]
    }

    /// The code words of a row.
    ///
    /// # Panics
    /// Panics if `row >= len()`.
    #[inline]
    pub fn code_words(&self, row: usize) -> &[u64] {
        &self.data[row * self.words_per_code..(row + 1) * self.words_per_code]
    }

    /// Reconstructs the [`BinaryCode`] stored in a row (allocates — for
    /// tests and snapshot tooling, not the hot path).
    pub fn code(&self, row: usize) -> BinaryCode {
        BinaryCode::from_words(self.bits, self.code_words(row).to_vec())
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the code width does not match the arena.
    pub fn push(&mut self, id: ItemId, code: &BinaryCode) {
        assert_eq!(code.bits(), self.bits, "code width does not match the arena");
        self.data.extend_from_slice(code.words());
        self.scattered |= id != self.ids.len() as ItemId;
        self.ids.push(id);
    }

    /// Hamming distance between row `row` and `query`.
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()` or `row >= len()`.
    #[inline]
    pub fn distance(&self, row: usize, query: &[u64]) -> u32 {
        assert_eq!(query.len(), self.words_per_code, "query width does not match the arena");
        hamming_words(self.code_words(row), query)
    }

    /// Writes the Hamming distance of every row to `query` into `out`
    /// (cleared and refilled; the caller owns the scratch buffer so
    /// steady-state serving never allocates).
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()`.
    pub fn distances_into(&self, query: &[u64], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.ids.len());
        self.scan(query, None, u32::MAX, |_, d| {
            // lint:allow(hot-path) the reserve() above makes every push land in capacity; the buffer is reused across queries
            out.push(d);
            u32::MAX
        });
    }

    /// Appends every row within Hamming distance `radius` of `query` to
    /// `out` as [`Neighbor`]s, in row order (the caller sorts — exactly
    /// like the per-bucket scan it replaces, whose emission order was the
    /// `HashMap`'s).  `out` is *not* cleared, so fan-out callers can merge
    /// several arenas into one buffer.
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()`.
    pub fn scan_radius_into(&self, query: &[u64], radius: u32, out: &mut Vec<Neighbor>) {
        self.radius_into(query, radius, None, out);
    }

    /// Masked radius scan: like [`scan_radius_into`](Self::scan_radius_into)
    /// but only rows whose id is in `mask` are considered (and only those
    /// pay for a distance computation).  `out` is *not* cleared.
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()`.
    pub fn scan_radius_masked_into(
        &self,
        query: &[u64],
        radius: u32,
        mask: &IdMask,
        out: &mut Vec<Neighbor>,
    ) {
        self.radius_into(query, radius, Some(mask), out);
    }

    fn radius_into(
        &self,
        query: &[u64],
        radius: u32,
        mask: Option<&IdMask>,
        out: &mut Vec<Neighbor>,
    ) {
        self.scan(query, mask, radius, |row, d| {
            // lint:allow(hot-path) the caller owns and reuses the buffer across queries; amortised like the bucket scan this replaced
            out.push(Neighbor::new(self.ids[row], d));
            radius
        });
    }
}

/// The eight distances of one AVX-512 block, `$block` (8 rows of `$w`
/// words each), to the query lanes.  1- and 2-word rows are
/// loaded whole (a 2-word block's two popcounted halves are summed by a
/// permute-add); wider rows gather each word at the row stride.  A macro,
/// like the step that uses it: `$w` is a literal in the grouped loop of
/// [`CodeArena::scan_avx512`], so its `match` folds away there.
#[cfg(target_arch = "x86_64")]
macro_rules! distances_avx512 {
    ($block:ident, $w:expr, $query:ident, $pairs:ident, $evens:ident, $odds:ident, $stride:ident) => {
        match $w {
            1 => {
                // SAFETY: avx512f is on; the load reads `block[0..8]`, and
                // `block.len() == 8`.
                let words = unsafe { _mm512_loadu_epi64($block.as_ptr().cast()) };
                _mm512_popcnt_epi64(_mm512_xor_si512(words, $pairs))
            }
            2 => {
                // SAFETY: avx512f is on; the loads read `block[0..8]` and
                // `block[8..16]`, and `block.len() == 16`.
                let (lo, hi) = unsafe {
                    (
                        _mm512_loadu_epi64($block.as_ptr().cast()),
                        _mm512_loadu_epi64($block[8..].as_ptr().cast()),
                    )
                };
                let lo = _mm512_popcnt_epi64(_mm512_xor_si512(lo, $pairs));
                let hi = _mm512_popcnt_epi64(_mm512_xor_si512(hi, $pairs));
                _mm512_add_epi64(
                    _mm512_permutex2var_epi64(lo, $evens, hi),
                    _mm512_permutex2var_epi64(lo, $odds, hi),
                )
            }
            _ => {
                let mut sum = _mm512_setzero_si512();
                for (j, &q) in $query.iter().enumerate() {
                    let column = $block[j..].as_ptr().cast();
                    // SAFETY: avx512f is on; lane `r` reads `block[j + r * w]`,
                    // at most `w - 1 + 7 * w < 8 * w == block.len()`.
                    let words = unsafe { _mm512_i64gather_epi64::<8>($stride, column) };
                    let q = _mm512_set1_epi64(q as i64);
                    sum = _mm512_add_epi64(sum, _mm512_popcnt_epi64(_mm512_xor_si512(words, q)));
                }
                sum
            }
        }
    };
}

/// Shows `$visit` the rows `$base + lane` of the set bits of `$hits`, in
/// lane order, each re-checked against `$bound` first: an earlier row may
/// have lowered it since the compare that set the bit.  `$bound` becomes
/// what each visit returns.
#[cfg(target_arch = "x86_64")]
macro_rules! visit_avx512 {
    ($distances:ident, $hits:ident, $base:expr, $bound:ident, $visit:ident) => {
        // SAFETY: `__m512i` and `[u64; 8]` are both 64 bytes and every
        // bit pattern is a valid `u64`.
        let lanes: [u64; 8] = unsafe { std::mem::transmute($distances) };
        while $hits != 0 {
            let lane = $hits.trailing_zeros() as usize;
            $hits &= $hits - 1;
            let d = lanes[lane] as u32;
            if d <= $bound {
                $bound = $visit($base + lane, d);
            }
        }
    };
}

/// One AVX-512 step of [`CodeArena::scan_avx512`] and
/// [`CodeArena::walk_avx512`], inside the caller's loop: the distances of
/// rows `$base..$base + 8` (`$base + 8 <= len`), compared with `$bound`;
/// the rows of `$keep` that pass are shown to `$visit` in row order, and
/// `$bound` becomes what it returns.  `continue`s the loop when none pass.
/// A macro, not a function: each loop then keeps the query lanes in
/// registers, where an `#[inline(always)]` step shared by both made LLVM
/// reload them every block.  Its `unsafe` compiles only where it expands,
/// in the scan kernel's `#[allow(unsafe_code)]` impl (the crate denies
/// `unsafe_code` everywhere else).
#[cfg(target_arch = "x86_64")]
macro_rules! block_avx512 {
    (
        $arena:ident, $query:ident, $w:ident, $pairs:ident, $evens:ident, $odds:ident,
        $stride:ident, $base:ident, $keep:ident, $bound:ident, $visit:ident
    ) => {
        // Rows `base..base + 8` (`base + 8 <= blocked <= len`): the loads
        // below stay inside this bounds-checked slice of `8 * w` words.
        let block = &$arena.data[$base * $w..($base + 8) * $w];
        let distances = distances_avx512!(block, $w, $query, $pairs, $evens, $odds, $stride);
        let mut hits =
            _mm512_cmple_epu64_mask(distances, _mm512_set1_epi64(i64::from($bound))) & $keep;
        if hits == 0 {
            continue;
        }
        visit_avx512!(distances, hits, $base, $bound, $visit);
    };
}

/// The unmasked AVX-512 loop of [`CodeArena::scan_avx512`] for `$w`-word
/// rows (`$w` a literal, 1 or 2) over rows `0..$grouped` (a multiple of
/// 32): **32 rows per branch**.  Each group of four 8-row blocks is
/// measured whole, its distances folded lane-wise by `min`, and that one
/// vector compared with `below`, the bound broadcast once and re-broadcast
/// only after a group with a row inside it.  Such a group is then decided
/// block by block against the running bound, in row order, with every row
/// re-checked as in [`block_avx512`] — so exactly the rows the per-block
/// loop would visit are visited, in the same order with the same bounds.
#[cfg(target_arch = "x86_64")]
macro_rules! groups_avx512 {
    (
        $arena:ident, $query:ident, $w:literal, $pairs:ident, $evens:ident, $odds:ident,
        $stride:ident, $grouped:ident, $bound:ident, $visit:ident
    ) => {
        let mut below = _mm512_set1_epi64(i64::from($bound));
        // Rows `32 g..32 g + 32` as one array (`grouped <= len`), so every
        // block's slice below is in bounds by its type.
        let (groups, _) = $arena.data[..$grouped * $w].as_chunks::<{ 32 * $w }>();
        for (base, group) in (0..).step_by(32).zip(groups) {
            let (b0, b1, b2, b3) = (
                &group[..8 * $w],
                &group[8 * $w..16 * $w],
                &group[16 * $w..24 * $w],
                &group[24 * $w..],
            );
            let d0 = distances_avx512!(b0, $w, $query, $pairs, $evens, $odds, $stride);
            let d1 = distances_avx512!(b1, $w, $query, $pairs, $evens, $odds, $stride);
            let d2 = distances_avx512!(b2, $w, $query, $pairs, $evens, $odds, $stride);
            let d3 = distances_avx512!(b3, $w, $query, $pairs, $evens, $odds, $stride);
            let least = _mm512_min_epu64(_mm512_min_epu64(d0, d1), _mm512_min_epu64(d2, d3));
            if _mm512_cmple_epu64_mask(least, below) == 0 {
                continue;
            }
            for (at, distances) in [d0, d1, d2, d3].into_iter().enumerate() {
                let mut hits =
                    _mm512_cmple_epu64_mask(distances, _mm512_set1_epi64(i64::from($bound)));
                if hits != 0 {
                    visit_avx512!(distances, hits, base + 8 * at, $bound, $visit);
                }
            }
            below = _mm512_set1_epi64(i64::from($bound));
        }
    };
}

/// The scan kernel: the one place in the crate allowed `unsafe`, for the
/// calls into the `#[target_feature]` tiers and the AVX-512 loads.
#[allow(unsafe_code)]
impl CodeArena {
    /// **The scan kernel**, at [`KernelTier::detected`]: streams every row
    /// within Hamming distance `bound` of `query` — and, given a `mask`,
    /// whose id is in it — through `visit(row, distance)`, in row order;
    /// `visit` returns the bound for the rows after it.  Top-k passes its
    /// heap's k-th distance (`u32::MAX` until the heap is full) and returns
    /// the new one, a radius scan the radius, `distances_into` `u32::MAX`.
    /// Rows outside the mask never have their distance computed; on a
    /// dense arena the mask is read by position (see the module docs).
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()`.
    #[inline]
    pub fn scan<V: FnMut(usize, u32) -> u32>(
        &self,
        query: &[u64],
        mask: Option<&IdMask>,
        bound: u32,
        visit: V,
    ) {
        self.scan_tier(KernelTier::detected(), query, mask, bound, visit);
    }

    /// [`scan`](Self::scan) at a given tier: the same rows, distances and
    /// order at every tier (what the tests pin, tier by tier).
    ///
    /// # Panics
    /// Panics if `query.len() != words_per_code()` or this CPU cannot run
    /// `tier`.
    #[inline]
    pub(crate) fn scan_tier<V: FnMut(usize, u32) -> u32>(
        &self,
        tier: KernelTier,
        query: &[u64],
        mask: Option<&IdMask>,
        bound: u32,
        mut visit: V,
    ) {
        assert_eq!(query.len(), self.words_per_code, "query width does not match the arena");
        assert!(tier.is_supported(), "this CPU cannot run the {tier:?} scan kernel");
        let keep = match mask {
            None => Keep::All,
            Some(mask) if self.is_dense() => Keep::ByRow(mask),
            Some(mask) => Keep::ById(mask),
        };
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Popcnt => {
                // SAFETY: `is_supported` confirmed `popcnt`, the one feature
                // the tier enables (`is_x86_feature_detected!`).
                unsafe { self.scan_popcnt(query, keep, bound, &mut visit) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                // SAFETY: `is_supported` confirmed `avx512f` and
                // `avx512vpopcntdq` (`is_x86_feature_detected!`), the
                // features both functions enable.
                unsafe {
                    match keep {
                        Keep::ByRow(mask) => self.walk_avx512(query, mask, bound, &mut visit),
                        _ => self.scan_avx512(query, mask, bound, &mut visit),
                    }
                }
            }
            _ => self.scan_portable(0, query, keep, bound, &mut visit),
        };
    }

    /// The portable tier over rows `from..`; returns the final bound.
    #[inline(always)]
    fn scan_portable<V: FnMut(usize, u32) -> u32>(
        &self,
        from: usize,
        query: &[u64],
        keep: Keep<'_>,
        bound: u32,
        visit: &mut V,
    ) -> u32 {
        match self.words_per_code {
            1 => {
                let q = query[0];
                self.rows(from, 1, keep, bound, visit, |c| (c[0] ^ q).count_ones())
            }
            2 => {
                let (q0, q1) = (query[0], query[1]);
                self.rows(from, 2, keep, bound, visit, |c| {
                    (c[0] ^ q0).count_ones() + (c[1] ^ q1).count_ones()
                })
            }
            4 => {
                let (q0, q1, q2, q3) = (query[0], query[1], query[2], query[3]);
                self.rows(from, 4, keep, bound, visit, |c| {
                    (c[0] ^ q0).count_ones()
                        + (c[1] ^ q1).count_ones()
                        + (c[2] ^ q2).count_ones()
                        + (c[3] ^ q3).count_ones()
                })
            }
            w => self.rows(from, w, keep, bound, visit, |c| hamming_words(c, query)),
        }
    }

    /// The portable loop at width `w` (a constant per arm): the mask probe
    /// before the distance, the bound after it.  A dense arena's mask is
    /// walked instead ([`mask_rows`](Self::mask_rows)).
    #[inline(always)]
    fn rows<V: FnMut(usize, u32) -> u32>(
        &self,
        from: usize,
        w: usize,
        keep: Keep<'_>,
        mut bound: u32,
        visit: &mut V,
        distance: impl Fn(&[u64]) -> u32,
    ) -> u32 {
        let mask = match keep {
            Keep::All => None,
            Keep::ById(mask) => Some(mask),
            Keep::ByRow(mask) => {
                return self.mask_rows(from, w, mask.words(), bound, visit, distance)
            }
        };
        let codes = self.data[from * w..].chunks_exact(w);
        for (row, (code, &id)) in codes.zip(&self.ids[from..]).enumerate() {
            if mask.is_some_and(|m| !m.contains(id)) {
                continue;
            }
            let d = distance(code);
            if d <= bound {
                bound = visit(from + row, d);
            }
        }
        bound
    }

    /// The portable walk of a dense arena's mask over rows `from..`: bit
    /// *r* of `words` is row *r*'s keep bit, so each set bit is one row to
    /// measure and a zero word skips 64 rows.  Bits past the last row are
    /// ignored.
    #[inline(always)]
    fn mask_rows<V: FnMut(usize, u32) -> u32>(
        &self,
        from: usize,
        w: usize,
        words: &[u64],
        mut bound: u32,
        visit: &mut V,
        distance: impl Fn(&[u64]) -> u32,
    ) -> u32 {
        let len = self.len();
        let live = &words[..words.len().min(len.div_ceil(64))];
        for (i, &word) in live.iter().enumerate().skip(from / 64) {
            let at = i * 64;
            // Only rows `from..len` of this word's 64.
            let mut bits = word & (u64::MAX << from.saturating_sub(at));
            if len - at < 64 {
                bits &= (1 << (len - at)) - 1;
            }
            while bits != 0 {
                let row = at + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = distance(&self.data[row * w..(row + 1) * w]);
                if d <= bound {
                    bound = visit(row, d);
                }
            }
        }
        bound
    }

    /// The `popcnt` tier: the portable loop with `count_ones` as one instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn scan_popcnt<V: FnMut(usize, u32) -> u32>(
        &self,
        query: &[u64],
        keep: Keep<'_>,
        bound: u32,
        visit: &mut V,
    ) -> u32 {
        self.scan_portable(0, query, keep, bound, visit)
    }

    /// The AVX-512 tier: unmasked 1- and 2-word rows in 32-row groups up
    /// to `len / 32 * 32` ([`groups_avx512`]), then 8-row blocks up to
    /// `len / 8 * 8`, the tail portable; a mask is probed for each block's
    /// eight ids in one gather.  A dense arena's mask is walked instead
    /// ([`walk_avx512`](Self::walk_avx512)).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn scan_avx512<V: FnMut(usize, u32) -> u32>(
        &self,
        query: &[u64],
        mask: Option<&IdMask>,
        mut bound: u32,
        visit: &mut V,
    ) -> u32 {
        use std::arch::x86_64::*;
        let w = self.words_per_code;
        let blocked = self.len() / 8 * 8;
        // The query as the lanes of 4 two-word rows, or of 8 one-word rows.
        let q = |j: usize| query.get(j.min(w.saturating_sub(1))).map_or(0, |&q| q as i64);
        let pairs = _mm512_setr_epi64(q(0), q(1), q(0), q(1), q(0), q(1), q(0), q(1));
        let evens = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odds = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        // Lane `r` of a strided gather reads word `r * w` past its base.
        let s = w as i64;
        let stride = _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
        let mask_words = mask.map(IdMask::words);
        let mask_len = _mm512_set1_epi64(mask_words.map_or(0, <[u64]>::len) as i64);
        let (zero, one, low_six) =
            (_mm512_setzero_si512(), _mm512_set1_epi64(1), _mm512_set1_epi64(63));
        let grouped = self.len() / 32 * 32;
        let from = match (mask_words, w) {
            (None, 1) => {
                groups_avx512!(self, query, 1, pairs, evens, odds, stride, grouped, bound, visit);
                grouped
            }
            (None, 2) => {
                groups_avx512!(self, query, 2, pairs, evens, odds, stride, grouped, bound, visit);
                grouped
            }
            _ => 0,
        };
        for base in (from..blocked).step_by(8) {
            // Bit `r` set iff row `base + r`'s id is in the mask: the
            // mask's words probed for all eight ids at once.
            let keep = match mask_words {
                None => 0xFF,
                Some(words) => {
                    let ids = &self.ids[base..base + 8];
                    // SAFETY: avx512f is on; the load reads `ids[0..8]`, and
                    // `ids.len() == 8`.
                    let ids = unsafe { _mm512_loadu_epi64(ids.as_ptr().cast()) };
                    let at = _mm512_srli_epi64::<6>(ids);
                    let inside = _mm512_cmplt_epu64_mask(at, mask_len);
                    // SAFETY: avx512f is on; only lanes in `inside` read, each
                    // `words[at]` with `at < words.len()` (ids past it: clear).
                    let probed = unsafe {
                        _mm512_mask_i64gather_epi64::<8>(zero, inside, at, words.as_ptr().cast())
                    };
                    let bits = _mm512_srlv_epi64(probed, _mm512_and_si512(ids, low_six));
                    _mm512_test_epi64_mask(bits, one)
                }
            };
            if keep == 0 {
                continue;
            }
            block_avx512!(self, query, w, pairs, evens, odds, stride, base, keep, bound, visit);
        }
        self.scan_portable(blocked, query, mask.map_or(Keep::All, Keep::ById), bound, visit)
    }

    /// The AVX-512 tier on a dense arena's mask: bit `r` of the mask is
    /// row `r`'s keep bit, so each nonzero byte of a word is one block of
    /// rows `..len / 8 * 8` and the byte its keep bits, and a zero word
    /// skips 64 rows.  The tail runs portable.  Its own function, so the
    /// unmasked loop of [`scan_avx512`](Self::scan_avx512) compiles as if
    /// the walk were not there.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn walk_avx512<V: FnMut(usize, u32) -> u32>(
        &self,
        query: &[u64],
        mask: &IdMask,
        mut bound: u32,
        visit: &mut V,
    ) -> u32 {
        use std::arch::x86_64::*;
        let w = self.words_per_code;
        let blocked = self.len() / 8 * 8;
        // The lanes of `scan_avx512`.
        let q = |j: usize| query.get(j.min(w.saturating_sub(1))).map_or(0, |&q| q as i64);
        let pairs = _mm512_setr_epi64(q(0), q(1), q(0), q(1), q(0), q(1), q(0), q(1));
        let evens = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odds = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let s = w as i64;
        let stride = _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
        let words = mask.words();
        for (i, &word) in words[..words.len().min(blocked.div_ceil(64))].iter().enumerate() {
            let at = i * 64;
            // Only the whole blocks of this word's 64 rows.
            let mut bits = word;
            if blocked - at < 64 {
                bits &= (1 << (blocked - at)) - 1;
            }
            while bits != 0 {
                let byte = bits.trailing_zeros() / 8 * 8;
                bits &= !(0xFF << byte);
                let (base, keep) = (at + byte as usize, (word >> byte) as u8);
                block_avx512!(self, query, w, pairs, evens, odds, stride, base, keep, bound, visit);
            }
        }
        self.scan_portable(blocked, query, Keep::ByRow(mask), bound, visit)
    }
}

/// How a scan reads its mask (see the module docs): no mask, each row's
/// id probed in it, or a dense arena's mask bit `r` as row `r`'s keep bit.
#[derive(Clone, Copy)]
enum Keep<'m> {
    All,
    ById(&'m IdMask),
    ByRow(&'m IdMask),
}

/// Word-wise Hamming distance of two equal-length word slices.
#[inline]
pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_code(bits: u32, seed: u64) -> BinaryCode {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let words: Vec<u64> = (0..bits.div_ceil(64)).map(|_| next()).collect();
        BinaryCode::from_words(bits, words)
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_width_is_rejected() {
        let _ = CodeArena::new(0);
    }

    #[test]
    fn push_and_row_access() {
        let mut arena = CodeArena::with_capacity(128, 4);
        assert!(arena.is_empty());
        assert_eq!(arena.words_per_code(), 2);
        for i in 0..4u64 {
            arena.push(i * 10, &rand_code(128, i));
        }
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.ids(), &[0, 10, 20, 30]);
        for i in 0..4 {
            assert_eq!(arena.id(i), i as u64 * 10);
            assert_eq!(arena.code(i), rand_code(128, i as u64));
            assert_eq!(arena.code_words(i), rand_code(128, i as u64).words());
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn push_rejects_wrong_width() {
        let mut arena = CodeArena::new(64);
        arena.push(0, &BinaryCode::zeros(128));
    }

    #[test]
    fn distances_match_binary_code_for_every_specialisation() {
        // 1-word, 2-word, 4-word fast paths plus the generic fallback (3
        // and 5 words), and a non-multiple-of-64 width.
        for bits in [7u32, 64, 100, 128, 192, 256, 320] {
            let mut arena = CodeArena::new(bits);
            let codes: Vec<BinaryCode> = (0..50).map(|i| rand_code(bits, i)).collect();
            for (i, c) in codes.iter().enumerate() {
                arena.push(i as u64, c);
            }
            let query = rand_code(bits, 999);
            let mut dists = Vec::new();
            arena.distances_into(query.words(), &mut dists);
            assert_eq!(dists.len(), 50);
            for (i, c) in codes.iter().enumerate() {
                assert_eq!(dists[i], c.hamming_distance(&query), "width {bits}, row {i}");
                assert_eq!(arena.distance(i, query.words()), dists[i]);
            }
        }
    }

    #[test]
    fn radius_scan_emits_rows_in_insertion_order() {
        let mut arena = CodeArena::new(64);
        let base = BinaryCode::zeros(64);
        arena.push(5, &base);
        arena.push(1, &base.with_flipped_bit(0));
        arena.push(9, &base);
        let mut out = Vec::new();
        arena.scan_radius_into(base.words(), 0, &mut out);
        assert_eq!(out, vec![Neighbor::new(5, 0), Neighbor::new(9, 0)]);
        // Appends without clearing, so fan-out callers can merge.
        arena.scan_radius_into(base.words(), 1, &mut out);
        assert_eq!(out.len(), 2 + 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn scan_rejects_wrong_query_width() {
        let arena = CodeArena::new(128);
        let mut out = Vec::new();
        arena.scan_radius_into(&[0u64], 1, &mut out);
    }

    #[test]
    fn masked_scan_equals_unmasked_scan_filtered_by_the_mask() {
        use crate::bitmap::{Bitmap, IdMask};
        for bits in [64u32, 128, 192, 256] {
            let mut arena = CodeArena::new(bits);
            for i in 0..200u64 {
                arena.push(i * 3, &rand_code(bits, i));
            }
            // Keep every id divisible by 9 (a third of the rows).
            let bitmap: Bitmap = (0..200u64).map(|i| i * 3).filter(|id| id % 9 == 0).collect();
            let mask = IdMask::from_bitmap(&bitmap);
            let query = rand_code(bits, 777);
            for radius in [0u32, bits / 4, bits] {
                let mut masked = Vec::new();
                arena.scan_radius_masked_into(query.words(), radius, &mask, &mut masked);
                let mut reference = Vec::new();
                arena.scan_radius_into(query.words(), radius, &mut reference);
                reference.retain(|n| mask.contains(n.id));
                assert_eq!(masked, reference, "bits {bits}, radius {radius}");
            }
            // An empty mask yields no hits.
            let empty = IdMask::from_bitmap(&Bitmap::new());
            let mut out = Vec::new();
            arena.scan_radius_masked_into(query.words(), bits, &empty, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn distance_rejects_a_short_query_in_every_build() {
        let mut arena = CodeArena::new(128);
        arena.push(0, &rand_code(128, 1));
        let _ = arena.distance(0, &[0u64]);
    }

    /// What `scan_tier` hands its visitor: with `falling`, the visitor
    /// lowers the bound to each distance it is shown.
    fn visits(
        arena: &CodeArena,
        tier: KernelTier,
        query: &[u64],
        mask: Option<&IdMask>,
        bound: u32,
        falling: bool,
    ) -> Vec<(usize, u32)> {
        let mut seen = Vec::new();
        arena.scan_tier(tier, query, mask, bound, |row, d| {
            seen.push((row, d));
            if falling {
                d
            } else {
                bound
            }
        });
        seen
    }

    #[test]
    fn every_tier_matches_the_portable_reference() {
        use crate::bitmap::Bitmap;
        let tiers: Vec<KernelTier> = KernelTier::supported().collect();
        for bits in [7u32, 64, 100, 128, 192, 256, 320] {
            for rows in 0..=19u64 {
                // Row `r` holds id `7r + 1`, so ids pass 64 by row 10.
                for low_entropy in [false, true] {
                    let mut arena = CodeArena::new(bits);
                    for r in 0..rows {
                        let seed = if low_entropy { r % 3 } else { r + 100 * u64::from(bits) };
                        arena.push(7 * r + 1, &rand_code(bits, seed));
                    }
                    let all: Bitmap = (0..rows).map(|r| 7 * r + 1).collect();
                    let sparse: Bitmap = all.iter().filter(|id| id % 3 == 2).collect();
                    // Sized to one word: rows 10.. hold ids past its end.
                    let short: Bitmap = [1u64, 15, 29, 36].into_iter().collect();
                    let masks =
                        [Bitmap::new(), all, sparse, short].map(|b| IdMask::from_bitmap(&b));
                    let query = rand_code(bits, 4242);
                    let q = query.words();
                    for mask in [None].into_iter().chain(masks.iter().map(Some)) {
                        for bound in [0, bits / 4, bits, u32::MAX] {
                            let reference =
                                visits(&arena, KernelTier::Portable, q, mask, bound, false);
                            let brute: Vec<(usize, u32)> = (0..arena.len())
                                .filter(|&r| mask.is_none_or(|m| m.contains(arena.id(r))))
                                .map(|r| (r, arena.code(r).hamming_distance(&query)))
                                .filter(|&(_, d)| d <= bound)
                                .collect();
                            assert_eq!(reference, brute, "bits {bits}, rows {rows}, bound {bound}");
                            for &tier in &tiers {
                                let got = visits(&arena, tier, q, mask, bound, false);
                                assert_eq!(
                                    got, reference,
                                    "{tier:?}, bits {bits}, rows {rows}, bound {bound}"
                                );
                            }
                        }
                        let reference =
                            visits(&arena, KernelTier::Portable, q, mask, u32::MAX, true);
                        for &tier in &tiers {
                            let got = visits(&arena, tier, q, mask, u32::MAX, true);
                            assert_eq!(
                                got, reference,
                                "{tier:?}, bits {bits}, rows {rows}, falling"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_of_one_block_beating_a_falling_bound_are_each_rechecked() {
        // Eight rows at distances `block` from an all-zero query (row `r`
        // sets its lowest `block[r]` bits), then a ninth in the tail.  A
        // visitor that lowers the bound to what it sees must be shown
        // exactly the running minima, even though all eight rows passed
        // the block's compare against the bound the block started with.
        let cases: [([u32; 9], &[usize]); 3] = [
            ([8, 7, 6, 5, 4, 3, 2, 1, 0], &[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            ([5, 9, 4, 8, 3, 7, 2, 6, 2], &[0, 2, 4, 6, 8]),
            ([3, 3, 4, 1, 1, 2, 0, 5, 9], &[0, 1, 3, 4, 6]),
        ];
        for bits in [64u32, 128, 192] {
            for (distances, expected) in &cases {
                let mut arena = CodeArena::new(bits);
                for (r, &d) in distances.iter().enumerate() {
                    let mut code = BinaryCode::zeros(bits);
                    for bit in 0..d {
                        code = code.with_flipped_bit(bit);
                    }
                    arena.push(r as u64, &code);
                }
                let query = BinaryCode::zeros(bits);
                let want: Vec<(usize, u32)> = expected.iter().map(|&r| (r, distances[r])).collect();
                for tier in KernelTier::supported() {
                    let got = visits(&arena, tier, query.words(), None, u32::MAX, true);
                    assert_eq!(got, want, "{tier:?}, bits {bits}");
                }
            }
        }
    }

    /// An arena of `rows` codes near `query`: row `r` is the query with
    /// the bits of `r % 4 + 1` random words ANDed together flipped, so its
    /// distance is about a half, a quarter, an eighth or a sixteenth of the
    /// width, and the low bounds pass a few rows of most groups.
    fn near_arena(bits: u32, rows: u64, query: &BinaryCode) -> CodeArena {
        let mut arena = CodeArena::new(bits);
        for r in 0..rows {
            let flips = (0..=r % 4).fold(rand_code(bits, 1000 + r).words().to_vec(), |acc, i| {
                let more = rand_code(bits, 5000 + 7 * r + i);
                acc.iter().zip(more.words()).map(|(a, b)| a & b).collect()
            });
            let words = query.words().iter().zip(&flips).map(|(q, f)| q ^ f).collect();
            arena.push(r, &BinaryCode::from_words(bits, words));
        }
        arena
    }

    #[test]
    fn every_tier_matches_the_portable_reference_across_groups() {
        // Lengths across four 32-row groups with every remainder, so each
        // group boundary, block boundary and portable tail is crossed.
        let tiers: Vec<KernelTier> = KernelTier::supported().collect();
        for bits in [64u32, 128, 192] {
            let query = rand_code(bits, 31);
            let q = query.words();
            for rows in 0..=130u64 {
                let arena = near_arena(bits, rows, &query);
                for bound in [0, 3, 12, bits, u32::MAX] {
                    let reference = visits(&arena, KernelTier::Portable, q, None, bound, false);
                    let brute: Vec<(usize, u32)> = (0..arena.len())
                        .map(|r| (r, arena.code(r).hamming_distance(&query)))
                        .filter(|&(_, d)| d <= bound)
                        .collect();
                    assert_eq!(reference, brute, "bits {bits}, rows {rows}, bound {bound}");
                    for &tier in &tiers {
                        let got = visits(&arena, tier, q, None, bound, false);
                        assert_eq!(
                            got, reference,
                            "{tier:?}, bits {bits}, rows {rows}, bound {bound}"
                        );
                    }
                }
                let reference = visits(&arena, KernelTier::Portable, q, None, u32::MAX, true);
                for &tier in &tiers {
                    let got = visits(&arena, tier, q, None, u32::MAX, true);
                    assert_eq!(got, reference, "{tier:?}, bits {bits}, rows {rows}, falling");
                }
            }
        }
    }

    #[test]
    fn rows_of_one_group_beating_a_falling_bound_are_each_rechecked() {
        // One 32-row group (then a few tail rows) at distances from an
        // all-zero query, row `r` setting its lowest `distances[r]` bits.
        // Every row is inside the bound the group started with; a visitor
        // that lowers the bound to what it sees must still be shown
        // exactly the running minima, in row order.
        let descending: Vec<u32> = (0..32).rev().collect();
        let zigzag: Vec<u32> = (0..35).map(|r| if r % 2 == 0 { 40 - r } else { 60 - r }).collect();
        // A minimum in each block, the rest above it, and a late tie.
        let stairs: Vec<u32> = (0..36).map(|r| if r % 8 == 5 { 30 - r / 8 } else { 50 }).collect();
        let late: Vec<u32> =
            (0..33).map(|r| [20, 20, 21, 19, 25, 19, 18, 30][r % 8] - r as u32 / 8).collect();
        for distances in [descending, zigzag, stairs, late] {
            let mut least = u32::MAX;
            let want: Vec<(usize, u32)> = distances
                .iter()
                .enumerate()
                .filter(|&(_, &d)| {
                    let minimum = d <= least;
                    least = least.min(d);
                    minimum
                })
                .map(|(r, &d)| (r, d))
                .collect();
            for bits in [64u32, 128, 192] {
                let mut arena = CodeArena::new(bits);
                for (r, &d) in distances.iter().enumerate() {
                    let code =
                        (0..d).fold(BinaryCode::zeros(bits), |c, bit| c.with_flipped_bit(bit));
                    arena.push(r as u64, &code);
                }
                let query = BinaryCode::zeros(bits);
                for tier in KernelTier::supported() {
                    let got = visits(&arena, tier, query.words(), None, u32::MAX, true);
                    assert_eq!(got, want, "{tier:?}, bits {bits}, {distances:?}");
                }
            }
        }
    }

    #[test]
    fn the_detected_tier_is_the_best_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let best =
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                KernelTier::Avx512
            } else if is_x86_feature_detected!("popcnt") {
                KernelTier::Popcnt
            } else {
                KernelTier::Portable
            };
        #[cfg(not(target_arch = "x86_64"))]
        let best = KernelTier::Portable;
        assert_eq!(KernelTier::detected(), best);
        assert_eq!(KernelTier::supported().last(), Some(best));
        assert_eq!(KernelTier::supported().next(), Some(KernelTier::Portable));
    }

    #[test]
    fn distances_into_reuses_the_buffer() {
        let mut arena = CodeArena::new(64);
        for i in 0..10 {
            arena.push(i, &rand_code(64, i));
        }
        let mut out = Vec::with_capacity(10);
        let ptr = out.as_ptr();
        arena.distances_into(rand_code(64, 77).words(), &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(ptr, out.as_ptr(), "a warm scratch buffer must not reallocate");
    }
}
