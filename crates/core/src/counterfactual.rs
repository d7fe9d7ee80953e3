//! Counterfactual data augmentation (paper §III-D, Eq. 11–12).
//!
//! For node `v` and pseudo-sensitive attribute `i`, a *graph counterfactual*
//! is a real node `u` with the same (pseudo-)label, a different value of
//! attribute `i`, and minimal embedding distance to `v`. Searching the real
//! dataset instead of perturbing features guarantees every counterfactual is
//! a realistic observation — the paper's answer to the non-realistic
//! counterfactual problem of perturbation-based methods (NIFTY, GEAR).
//!
//! # Complexity
//!
//! Once per search, the candidates are split by pseudo-label, scan order
//! kept, so a query scans only its own label's bucket. Each bucket is
//! transposed into lane-padded columns ([`SqDistLanes`]), and every
//! candidate's attribute bits are stored as lane masks, `L` attributes to a
//! block (16 with AVX2 or AVX-512, so the fit's 16 attributes are one
//! block; 8 on the baseline target). A query then computes **one row** of
//! distances to its whole bucket, each equal to `sq_dist(q, u)` bit for
//! bit, and turns it into integer `total_cmp` keys. Each lane block takes
//! one pass over the bucket in scan order and keeps a fixed K-slot
//! ascending list per lane: a candidate's key enters a lane only where its
//! bit differs from the query's, a bar test against every lane's K-th slot
//! skips a candidate that improves none, and a branch-free compare-exchange
//! places it strictly after every equal key, so ties keep scan order. The
//! query's own bits never differ from themselves, so it needs no check.
//!
//! There is no sort, heap or early exit: nodes close in embedding space tend
//! to share pseudo-sensitive bits, so a walk in distance order that stops
//! once every list is full visits about as many candidates as a full sort.
//! With `N` queries, `C` candidates, `I` attributes and embedding width `h`,
//! a search costs `O(N·C·h)` for the distances, `O(N·C·⌈I/L⌉)` lane-block
//! bar tests and `O(K)` lane-block steps per candidate that passes one,
//! plus `O(C·⌈I/L⌉)` once for the masks and `O(C + K)` scratch per task of
//! `QUERY_CHUNK` queries. The tasks run in order on the calling thread
//! (moved onto threads, the sub-millisecond search of the benchmark's fit
//! raised its peak RSS in 12 of 12 pairs); each query's result depends on
//! nothing else, so a later split of the tasks cannot change it. Every
//! lane runs the same steps, so the compiler vectorises a block; the cost
//! of a placement grows with K, the bar test's does not. The output is a
//! full stable argsort's: ascending `total_cmp` distance, ties in
//! candidate scan order, every NaN distance after every number and tied
//! with the other NaNs (the arithmetic pins no NaN's sign, so the ranking
//! ignores it). That is pinned by `tests/proptest_topk.rs` and the offline
//! case loops in this module's tests.
//!
//! # One body per instruction set
//!
//! A task of `QUERY_CHUNK` queries (its distance rows, keys, lane-block
//! scans and slot read-out) is one `#[inline(always)]` body, generic in
//! the lane width `L` and the slot count `K`, and compiled once per
//! [`Isa`] inside `#[target_feature]` wrappers, as the dense tiles are (no
//! intrinsics). For the fit's K = 2 the K-slot lists are local arrays
//! that LLVM keeps in registers across a scan; any other K runs the same
//! body on scratch rows (`K = 0` in the code). On the baseline target the lists do
//! not fit the registers and the scan stays a function of its own
//! (`scan_block_apart`). Keys and lists are integers, so every
//! instantiation returns the same sets.
//!
//! [`CounterfactualSets`] stores the result flat: fixed `[query][attr][K]`
//! slots and each attribute's pair count. [`CounterfactualSets::pair_sums`]
//! walks the slot rows once per fine-tune step for the distances `Dᵢ`, the
//! fairness loss and its gradient, every attribute's sums side by side in
//! vector lanes, compiled per [`Isa`] the same way.

use fairwos_tensor::{Isa, Matrix, SqDistLanes};

/// Queries per task; each task owns one distance row, one key row and one
/// lane block of K-slot lists.
const QUERY_CHUNK: usize = 16;

/// Node id of an empty slot. Empty slots sit after the filled ones.
const NONE: usize = usize::MAX;

/// The candidate pool and constraints for one search.
pub struct SearchSpace<'a> {
    /// Node embeddings `h` (`N × hidden`), from the current model.
    pub embeddings: &'a Matrix,
    /// Pseudo-labels for every node (from the pre-trained classifier; the
    /// paper uses pseudo-labels because true labels are scarce).
    pub pseudo_labels: &'a [bool],
    /// Median-binarized pseudo-sensitive attributes, `[node][attribute]`.
    pub pseudo_sensitive: &'a [Vec<bool>],
    /// Candidate nodes the counterfactuals may be drawn from (the paper
    /// searches the training set).
    pub candidates: &'a [usize],
}

/// Top-K counterfactual sets: for query `q` and attribute `i`, the
/// counterfactual node ids nearest first (fewer than K when few candidates
/// satisfy the constraints, or none).
pub struct CounterfactualSets {
    /// Query node ids; `q_idx` in [`CounterfactualSets::list`] indexes this.
    pub queries: Vec<usize>,
    num_attrs: usize,
    k: usize,
    /// Query `q_idx`'s list under attribute `i` is
    /// `slots[(q_idx·I + i)·K ..][..K]`, padded with [`NONE`].
    slots: Vec<usize>,
    /// Attribute `i`'s `(query, counterfactual)` pairs: its filled slots.
    pair_counts: Vec<usize>,
}

/// Per-attribute sums of one walk over the pairs
/// ([`CounterfactualSets::pair_sums`]).
pub struct PairSums {
    /// Attribute `i`'s `Σ ‖h_q − h_u‖²` over its pairs, each pair's distance
    /// summed as `sq_dist` sums it; 0 for an attribute with no pairs.
    pub dist: Vec<f32>,
    /// Attribute `i`'s `Σ w_i·(h_q,d − h_u,d)·(h_q,d − h_u,d)` over its pairs
    /// and dimensions, one serial sum; 0 for an attribute without a weight.
    pub loss: Vec<f32>,
}

impl CounterfactualSets {
    fn new(queries: Vec<usize>, num_attrs: usize, k: usize, slots: Vec<usize>) -> Self {
        assert_eq!(slots.len(), queries.len() * num_attrs * k, "slot rows");
        let mut pair_counts = vec![0; num_attrs];
        for q_idx in 0..queries.len() {
            for (i, count) in pair_counts.iter_mut().enumerate() {
                *count += slot_row(&slots, k, q_idx * num_attrs + i).len();
            }
        }
        Self {
            queries,
            num_attrs,
            k,
            slots,
            pair_counts,
        }
    }

    /// Rebuilds the structure from previously exported parts (see
    /// [`CounterfactualSets::export_sets`]). Used by checkpoint resume so a
    /// restored run reuses the exact sets the interrupted run had searched,
    /// rather than re-searching against slightly different embeddings.
    ///
    /// # Panics
    /// If an attribute does not hold one list per query.
    pub fn from_sets(queries: Vec<usize>, sets: Vec<Vec<Vec<usize>>>) -> Self {
        let num_attrs = sets.len();
        let k = sets.iter().flatten().map(Vec::len).max().unwrap_or(0);
        let mut slots = vec![NONE; queries.len() * num_attrs * k];
        for (i, per_query) in sets.iter().enumerate() {
            assert_eq!(
                per_query.len(),
                queries.len(),
                "attribute {i}: one list per query"
            );
            for (q_idx, cfs) in per_query.iter().enumerate() {
                slots[(q_idx * num_attrs + i) * k..][..cfs.len()].copy_from_slice(cfs);
            }
        }
        Self::new(queries, num_attrs, k, slots)
    }

    /// The raw per-attribute, per-query counterfactual sets, for
    /// persistence. Round-trips through [`CounterfactualSets::from_sets`].
    pub fn export_sets(&self) -> Vec<Vec<Vec<usize>>> {
        (0..self.num_attrs)
            .map(|i| {
                (0..self.queries.len())
                    .map(|q_idx| self.list(i, q_idx).to_vec())
                    .collect()
            })
            .collect()
    }

    /// The counterfactuals of query `queries[q_idx]` under attribute `i`,
    /// nearest first.
    ///
    /// # Panics
    /// If `i` is not an attribute or `q_idx` not a query index.
    pub fn list(&self, i: usize, q_idx: usize) -> &[usize] {
        assert!(i < self.num_attrs, "attribute {i} of {}", self.num_attrs);
        assert!(q_idx < self.queries.len(), "query index {q_idx}");
        slot_row(&self.slots, self.k, q_idx * self.num_attrs + i)
    }

    /// Number of pseudo-sensitive attributes covered.
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Number of `(query, counterfactual)` pairs under attribute `i`: the
    /// total length of its lists.
    ///
    /// # Panics
    /// If `i` is not an attribute.
    pub fn pair_count(&self, i: usize) -> usize {
        self.pair_counts[i]
    }

    /// The counterfactual term's sums (Eq. 13–16) in one walk over the slot
    /// rows: per attribute `i`, the distance sum `Σ ‖h_q − h_u‖²` over its
    /// pairs (`Dᵢ` before the mean) and, where `weights[i]` is `Some(w)`, the
    /// loss `Σ w·(h_q − h_u)²` with its gradient `2w·(h_q − h_u)` added to
    /// row `q` of `grad`. An attribute whose weight is `None` adds no loss
    /// and no gradient.
    ///
    /// Each sum is the serial `f32` chain of the per-attribute form: pairs
    /// query by query, each query's K slots in order, dimensions ascending
    /// (a pair's distance summed as `sq_dist` sums it, the loss terms as
    /// `(w·d)·d` straight into the chain). The chains of all attributes run
    /// side by side in vector lanes; a lane with no pair at a slot keeps its
    /// sums. Row `q` of `grad` receives its terms attribute by attribute,
    /// slot by slot, dimensions in parallel. With distinct queries (a fit's
    /// training nodes) that is the per-attribute pass's order, so every sum
    /// and every gradient element equals it bit for bit.
    ///
    /// # Panics
    /// If `weights` does not hold one entry per attribute, `embeddings`
    /// lacks a query's or counterfactual's row, or `grad` is not shaped
    /// like `embeddings`.
    pub fn pair_sums(
        &self,
        embeddings: &Matrix,
        weights: &[Option<f32>],
        grad: &mut Matrix,
    ) -> PairSums {
        self.pair_sums_on(Isa::detect(), embeddings, weights, grad)
    }

    /// [`CounterfactualSets::pair_sums`] compiled for `isa`.
    fn pair_sums_on(
        &self,
        isa: Isa,
        embeddings: &Matrix,
        weights: &[Option<f32>],
        grad: &mut Matrix,
    ) -> PairSums {
        assert_eq!(weights.len(), self.num_attrs, "one weight per attribute");
        assert_eq!(grad.shape(), embeddings.shape(), "gradient shape");
        let mut sums = PairSums {
            dist: vec![0.0; self.num_attrs],
            loss: vec![0.0; self.num_attrs],
        };
        let walk = Walk {
            sets: self,
            h: embeddings,
            weights,
        };
        match isa {
            Isa::Portable => walk.run::<8>(grad, &mut sums),
            // SAFETY: `Isa::Avx2` is only produced on a CPU that reports
            // AVX2 (`Isa::detect`, `Isa::supported`).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { walk.run_avx2(grad, &mut sums) },
            // SAFETY: `Isa::Avx512` is only produced on a CPU that reports
            // AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { walk.run_avx512(grad, &mut sums) },
        }
        sums
    }
}

/// The filled prefix of row `r` (query `q_idx`, attribute `i` at
/// `r = q_idx·I + i`) of K-slot rows.
fn slot_row(slots: &[usize], k: usize, r: usize) -> &[usize] {
    let row = &slots[r * k..][..k];
    &row[..row.iter().position(|&u| u == NONE).unwrap_or(k)]
}

/// One walk of [`CounterfactualSets::pair_sums`] over the slot rows.
struct Walk<'a> {
    sets: &'a CounterfactualSets,
    h: &'a Matrix,
    weights: &'a [Option<f32>],
}

impl Walk<'_> {
    /// Fills `sums` and adds the gradient to `grad`, `L` attributes at a
    /// time. A lane block's chains stay in registers while it walks every
    /// query; the blocks run in attribute order, so row `q` of `grad` still
    /// receives its terms attribute by attribute.
    #[inline(always)]
    fn run<const L: usize>(&self, grad: &mut Matrix, sums: &mut PairSums) {
        let (sets, h) = (self.sets, self.h);
        let (num_attrs, k) = (sets.num_attrs, sets.k);
        // One slot's counterfactual rows, transposed: `cols[d][l]` is
        // coordinate `d` of lane `l`'s counterfactual.
        let mut cols = vec![[0.0f32; L]; h.cols()];
        for b in 0..num_attrs.div_ceil(L) {
            // The block's attributes, `lo..hi`.
            let (lo, hi) = (b * L, ((b + 1) * L).min(num_attrs));
            let (mut w, mut weighted) = ([0.0f32; L], [false; L]);
            for (l, weight) in self.weights[lo..hi].iter().enumerate() {
                if let Some(wi) = *weight {
                    (w[l], weighted[l]) = (wi, true);
                }
            }
            let (mut dist, mut loss) = ([0.0f32; L], [0.0f32; L]);
            for (q_idx, &q) in sets.queries.iter().enumerate() {
                let hq = h.row(q);
                let rows = q_idx * num_attrs;
                for s in 0..k {
                    let mut paired = [false; L];
                    let mut hu = [hq; L];
                    for (l, i) in (lo..hi).enumerate() {
                        let u = sets.slots[(rows + i) * k + s];
                        paired[l] = u != NONE;
                        if paired[l] {
                            hu[l] = h.row(u);
                        }
                    }
                    if !paired.contains(&true) {
                        break;
                    }
                    // Read down the rows, so that the stores are whole lane
                    // vectors (written across, they became scatters).
                    for (d, col) in cols.iter_mut().enumerate() {
                        for (c, row) in col.iter_mut().zip(&hu) {
                            *c = row[d];
                        }
                    }
                    lane_step(hq, &cols, &w, &paired, &weighted, &mut dist, &mut loss);
                }
                let terms = || {
                    (lo..hi)
                        .enumerate()
                        .filter(|&(l, _)| weighted[l])
                        .flat_map(|(l, i)| {
                            let cfs = slot_row(&sets.slots, k, rows + i);
                            cfs.iter().map(move |&u| (h.row(u), 2.0 * w[l]))
                        })
                };
                add_gradient(grad.row_mut(q), hq, terms);
            }
            sums.dist[lo..hi].copy_from_slice(&dist[..hi - lo]);
            sums.loss[lo..hi].copy_from_slice(&loss[..hi - lo]);
        }
    }

    /// [`Walk::run`] compiled with AVX2 enabled, 16 attributes to a block.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(&self, grad: &mut Matrix, sums: &mut PairSums) {
        self.run::<16>(grad, sums);
    }

    /// [`Walk::run`] compiled with AVX-512F enabled, 16 attributes to a
    /// block (one register per lane vector).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_avx512(&self, grad: &mut Matrix, sums: &mut PairSums) {
        self.run::<16>(grad, sums);
    }
}

/// Adds `w2·(x_d − y_d)` to every `g_d` for each term `(y, w2)` of
/// `terms()` in turn. The row is held in registers sixteen dimensions at a
/// time while every term adds to it, so each element receives its terms in
/// order.
#[inline(always)]
fn add_gradient<'a, I: Iterator<Item = (&'a [f32], f32)>>(
    g: &mut [f32],
    x: &[f32],
    terms: impl Fn() -> I,
) {
    const V: usize = 16;
    let mut d0 = 0;
    while d0 + V <= g.len() {
        let mut acc = [0.0f32; V];
        acc.copy_from_slice(&g[d0..d0 + V]);
        let xv = &x[d0..d0 + V];
        for (y, w2) in terms() {
            for ((a, &xd), &yd) in acc.iter_mut().zip(xv).zip(&y[d0..d0 + V]) {
                *a += w2 * (xd - yd);
            }
        }
        g[d0..d0 + V].copy_from_slice(&acc);
        d0 += V;
    }
    for (d, gd) in g.iter_mut().enumerate().skip(d0) {
        for (y, w2) in terms() {
            *gd += w2 * (x[d] - y[d]);
        }
    }
}

/// One slot of every lane's pair: lane `l` measures the query row `hq`
/// against column `l` of `cols`. Where `paired[l]`, its pair distance
/// (summed from `+0.0` over `d` ascending, as `sq_dist` sums) is added to
/// `dist[l]`; where also `weighted[l]`, each term `(w·d)·d` is added to
/// `loss[l]` as it comes. Other lanes keep their sums.
#[inline(always)]
fn lane_step<const L: usize>(
    hq: &[f32],
    cols: &[[f32; L]],
    w: &[f32; L],
    paired: &[bool; L],
    weighted: &[bool; L],
    dist: &mut [f32; L],
    loss: &mut [f32; L],
) {
    let mut pair = [0.0f32; L];
    let mut counted = [false; L];
    for l in 0..L {
        counted[l] = paired[l] & weighted[l];
    }
    for (&x, col) in hq.iter().zip(cols) {
        for l in 0..L {
            let d = x - col[l];
            pair[l] += d * d;
            let t = w[l] * d * d;
            loss[l] = if counted[l] { loss[l] + t } else { loss[l] };
        }
    }
    for l in 0..L {
        dist[l] = if paired[l] {
            dist[l] + pair[l]
        } else {
            dist[l]
        };
    }
}

/// `d`'s rank as an integer: for numbers, `a.total_cmp(&b)` equals
/// `total_key(a).cmp(&total_key(b))`, so the selection compares integers.
/// Every NaN gets `i32::MAX − 1`, after every number and tied with every
/// other NaN: the arithmetic does not pin a NaN's sign or payload (LLVM may
/// swap the operands of an add), so neither may the ranking. That stays
/// below [`EMPTY`].
#[inline(always)]
fn total_key(d: f32) -> i32 {
    if d.is_nan() {
        return i32::MAX - 1;
    }
    let bits = d.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// One value per attribute of a lane block of `L` attributes.
type Lanes<const L: usize> = [i32; L];

/// The key of a lane a candidate does not enter (its bit equals the
/// query's) and of an empty slot: above every [`total_key`].
const EMPTY: i32 = i32::MAX;

/// The candidates with one pseudo-label, prepared once per search.
struct Bucket<const L: usize> {
    /// Candidate node ids in scan order; a candidate's *position* indexes
    /// this.
    nodes: Vec<usize>,
    /// The candidates' embeddings, transposed for one-row distances.
    lanes: SqDistLanes,
    /// Lane block `b`'s masks, `bits[b·C..(b+1)·C]` in scan order: lane `l`
    /// is all ones where attribute `b·L + l` is set, else zero (so are the
    /// lanes past the last attribute).
    bits: Vec<Lanes<L>>,
}

impl<const L: usize> Bucket<L> {
    fn new(space: &SearchSpace<'_>, label: bool, num_attrs: usize) -> Self {
        let nodes: Vec<usize> = space
            .candidates
            .iter()
            .copied()
            .filter(|&u| space.pseudo_labels[u] == label)
            .collect();
        assert!(
            i32::try_from(nodes.len()).is_ok(),
            "bucket positions fit i32"
        );
        let bits = (0..num_attrs.div_ceil(L))
            .flat_map(|b| {
                nodes
                    .iter()
                    .map(move |&u| lane_mask(&space.pseudo_sensitive[u], b))
            })
            .collect();
        Self {
            lanes: SqDistLanes::new(space.embeddings, &nodes),
            bits,
            nodes,
        }
    }
}

/// Lane block `b` of one node's attribute bits as a lane mask.
#[inline(always)]
fn lane_mask<const L: usize>(bits: &[bool], b: usize) -> Lanes<L> {
    let mut mask = [0; L];
    for (m, &bit) in mask.iter_mut().zip(bits.iter().skip(b * L)) {
        *m = -i32::from(bit);
    }
    mask
}

/// Fills one lane block's K-slot lists in a single pass over the bucket:
/// lane `l`'s list gets the K = `slot_keys.len()` positions with the
/// smallest `keys` among the candidates whose lane-`l` bit differs from
/// `q_mask`'s, ascending, ties in scan order — the first K of a stable
/// argsort. Unfilled slots keep [`EMPTY`]. `bits` holds the block's mask
/// of every candidate.
///
/// Every lane runs the same branch-free steps, so the compiler vectorises
/// them: a same-bit lane sees the key [`EMPTY`], which beats no slot; a
/// candidate that beats no lane's K-th slot is skipped; otherwise a
/// compare-exchange walks the K slots, and once a lane has placed the
/// candidate (strictly below the slot, so it goes after every equal key),
/// its shift mask moves every later slot down one. With local arrays of a
/// constant K the slot walk unrolls and the lists stay in registers.
#[inline(always)]
fn scan_block<const L: usize>(
    keys: &[i32],
    bits: &[Lanes<L>],
    q_mask: &Lanes<L>,
    slot_keys: &mut [Lanes<L>],
    slot_pos: &mut [Lanes<L>],
) {
    let k = slot_keys.len();
    slot_keys.fill([EMPTY; L]);
    for (p, (&key, mask)) in (0i32..).zip(keys.iter().zip(bits)) {
        let (mut cand, mut improves) = ([EMPTY; L], 0);
        for l in 0..L {
            let differ = mask[l] ^ q_mask[l];
            cand[l] = (key & differ) | (EMPTY & !differ);
            improves |= i32::from(cand[l] < slot_keys[k - 1][l]);
        }
        if improves == 0 {
            continue;
        }
        let (mut carry_key, mut carry_pos) = (cand, [p; L]);
        // All ones in a lane from the slot where it placed the candidate on.
        let mut shift: Lanes<L> = [0; L];
        for (slot_key, slot_pos) in slot_keys.iter_mut().zip(slot_pos.iter_mut()) {
            for l in 0..L {
                shift[l] |= -i32::from(carry_key[l] < slot_key[l]);
            }
            swap_where(&shift, slot_key, &mut carry_key);
            swap_where(&shift, slot_pos, &mut carry_pos);
        }
    }
}

/// [`scan_block`] as a function of its own, for the baseline target: there
/// the K-slot lists, the carried entry and the masks overflow the sixteen
/// SSE registers, and the scan inlined into [`Search::task`] ran about 1.6×
/// slower than on its own, where its lists stay in L1.
#[inline(never)]
fn scan_block_apart<const L: usize>(
    keys: &[i32],
    bits: &[Lanes<L>],
    q_mask: &Lanes<L>,
    slot_keys: &mut [Lanes<L>],
    slot_pos: &mut [Lanes<L>],
) {
    scan_block(keys, bits, q_mask, slot_keys, slot_pos);
}

/// Swaps lane `l` of `a` and `b` where `take[l]` is all ones. Always
/// inlined, so the caller's lane loops vectorise without LTO too.
#[inline(always)]
fn swap_where<const L: usize>(take: &Lanes<L>, a: &mut Lanes<L>, b: &mut Lanes<L>) {
    for l in 0..L {
        let (x, y) = (a[l], b[l]);
        a[l] = (y & take[l]) | (x & !take[l]);
        b[l] = (x & take[l]) | (y & !take[l]);
    }
}

/// One search, prepared: both label buckets with `L`-attribute lane masks.
struct Search<'a, const L: usize> {
    space: &'a SearchSpace<'a>,
    buckets: [Bucket<L>; 2],
    /// The larger bucket's candidate count: a task's row length.
    widest: usize,
    num_attrs: usize,
    k: usize,
}

impl<const L: usize> Search<'_, L> {
    /// Fills the slot rows `out` of `queries` (one row of `I·K` slots per
    /// query, every slot [`NONE`] on entry): per query, one distance row
    /// and its keys, one [`scan_block`] per lane block (out of line with
    /// `APART`, see [`scan_block_apart`]), and the read-out of every lane's
    /// list. With `K` ≥ 1 (`K` = `self.k`) the lists are local arrays;
    /// `K` = 0 keeps them in scratch rows of `self.k` slots.
    #[inline(always)]
    fn task<const K: usize, const APART: bool>(&self, queries: &[usize], out: &mut [usize]) {
        let (space, k) = (self.space, self.k);
        debug_assert!(K == 0 || K == k, "slot count {K} vs {k}");
        let scratch_rows = if K == 0 { k } else { 0 };
        // Per-task scratch, `O(C + K)`: no slot rows for a constant K.
        let (mut dist, mut keys, mut row_keys, mut row_pos) = (
            vec![0.0f32; self.widest],
            vec![0i32; self.widest],
            vec![[EMPTY; L]; scratch_rows],
            vec![[0i32; L]; scratch_rows],
        );
        let (mut reg_keys, mut reg_pos) = ([[EMPTY; L]; K], [[0i32; L]; K]);
        let (slot_keys, slot_pos): (&mut [Lanes<L>], &mut [Lanes<L>]) = if K == 0 {
            (&mut row_keys, &mut row_pos)
        } else {
            (&mut reg_keys, &mut reg_pos)
        };
        let row_len = self.num_attrs * k;
        for (&q, row) in queries.iter().zip(out.chunks_exact_mut(row_len)) {
            let bucket = &self.buckets[usize::from(space.pseudo_labels[q])];
            let c = bucket.nodes.len();
            bucket
                .lanes
                .sq_dists_into(space.embeddings.row(q), &mut dist[..c]);
            for (key, &d) in keys.iter_mut().zip(&dist[..c]) {
                *key = total_key(d);
            }
            let q_bits = &space.pseudo_sensitive[q];
            for (b, block) in row.chunks_mut(L * k).enumerate() {
                let bits = &bucket.bits[b * c..][..c];
                let q_mask = lane_mask::<L>(q_bits, b);
                let keys = &keys[..c];
                if APART {
                    scan_block_apart(keys, bits, &q_mask, slot_keys, slot_pos);
                } else {
                    scan_block(keys, bits, &q_mask, slot_keys, slot_pos);
                }
                for (l, attr_slots) in block.chunks_exact_mut(k).enumerate() {
                    let filled = slot_keys.iter().zip(&*slot_pos);
                    let filled = filled.take_while(|(keys, _)| keys[l] != EMPTY);
                    for (slot, (_, pos)) in attr_slots.iter_mut().zip(filled) {
                        *slot = bucket.nodes[pos[l] as usize];
                    }
                }
            }
        }
    }

    /// [`Search::task`] for this search's K: register lists for the fit's
    /// K = 2 (`FairwosConfig::top_k`), scratch rows for any other.
    #[inline(always)]
    fn task_for_k<const APART: bool>(&self, queries: &[usize], out: &mut [usize]) {
        match self.k {
            2 => self.task::<2, APART>(queries, out),
            _ => self.task::<0, APART>(queries, out),
        }
    }

    /// [`Search::task_for_k`] on the baseline target, with
    /// [`scan_block_apart`].
    fn task_portable(&self, queries: &[usize], out: &mut [usize]) {
        self.task_for_k::<true>(queries, out);
    }

    /// [`Search::task_for_k`] compiled with AVX2 enabled, [`scan_block`]
    /// inlined.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn task_avx2(&self, queries: &[usize], out: &mut [usize]) {
        self.task_for_k::<false>(queries, out);
    }

    /// [`Search::task_for_k`] compiled with AVX-512F enabled, [`scan_block`]
    /// inlined.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn task_avx512(&self, queries: &[usize], out: &mut [usize]) {
        self.task_for_k::<false>(queries, out);
    }
}

/// The slot rows of every query, `L` attributes to a lane block, each task
/// of `QUERY_CHUNK` queries filled by `task`.
fn search_slots<const L: usize>(
    space: &SearchSpace<'_>,
    queries: &[usize],
    num_attrs: usize,
    k: usize,
    task: impl Fn(&Search<'_, L>, &[usize], &mut [usize]),
) -> Vec<usize> {
    let buckets = [false, true].map(|label| Bucket::new(space, label, num_attrs));
    let search = Search::<L> {
        space,
        widest: buckets[0].nodes.len().max(buckets[1].nodes.len()),
        buckets,
        num_attrs,
        k,
    };
    let row_len = num_attrs * k;
    let mut slots = vec![NONE; queries.len() * row_len];
    if !slots.is_empty() {
        for (chunk, out) in slots.chunks_mut(QUERY_CHUNK * row_len).enumerate() {
            task(&search, &queries[chunk * QUERY_CHUNK..], out);
        }
    }
    slots
}

/// Runs the top-K search of Eq. 12 for every query node and every
/// pseudo-sensitive attribute.
///
/// Returns, per attribute and query, the K nearest same-label,
/// opposite-bit candidates in ascending `f32::total_cmp` distance, NaN
/// distances last, ties in candidate scan order — the first K of a stable
/// argsort. Each query computes one distance row to its label bucket, and
/// one pass over the bucket per lane block of attributes fills every
/// attribute's list (see the module docs).
///
/// # Panics
/// If `k` is zero, the search-space arrays disagree with the embedding
/// row count, or the pseudo-sensitive rows differ in length.
pub fn search_topk(space: &SearchSpace<'_>, queries: &[usize], k: usize) -> CounterfactualSets {
    search_topk_on(Isa::detect(), space, queries, k)
}

/// [`search_topk`] with its tasks compiled for `isa`.
fn search_topk_on(
    isa: Isa,
    space: &SearchSpace<'_>,
    queries: &[usize],
    k: usize,
) -> CounterfactualSets {
    let _obs = fairwos_obs::span("core/cf_search");
    assert!(k >= 1, "top-K needs k ≥ 1");
    let n = space.embeddings.rows();
    assert_eq!(space.pseudo_labels.len(), n, "pseudo-labels vs embeddings");
    assert_eq!(
        space.pseudo_sensitive.len(),
        n,
        "pseudo-sensitive vs embeddings"
    );
    let num_attrs = space.pseudo_sensitive.first().map_or(0, Vec::len);
    assert!(
        space
            .pseudo_sensitive
            .iter()
            .all(|row| row.len() == num_attrs),
        "every pseudo-sensitive row needs {num_attrs} attributes"
    );
    // Sixteen attributes to a block with AVX2 or AVX-512: two registers or
    // one per lane vector.
    let slots = match isa {
        Isa::Portable => search_slots::<8>(space, queries, num_attrs, k, |s, q, out| {
            s.task_portable(q, out)
        }),
        // SAFETY: `Isa::Avx2` is only produced on a CPU that reports AVX2
        // (`Isa::detect`, `Isa::supported`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => search_slots::<16>(space, queries, num_attrs, k, |s, q, out| unsafe {
            s.task_avx2(q, out)
        }),
        // SAFETY: `Isa::Avx512` is only produced on a CPU that reports
        // AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => search_slots::<16>(space, queries, num_attrs, k, |s, q, out| unsafe {
            s.task_avx512(q, out)
        }),
    };
    CounterfactualSets::new(queries.to_vec(), num_attrs, k, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_tensor::sq_dist;

    /// Every instruction set this CPU runs the search and the fairness
    /// walk on ([`Isa::supported`]); the others are reported as skipped.
    fn isas() -> Vec<Isa> {
        let isas = Isa::supported();
        for isa in Isa::ALL.iter().filter(|isa| !isas.contains(isa)) {
            eprintln!("skipped on {isa:?}: this CPU does not support it");
        }
        isas
    }

    /// Attribute `i`'s `(query, counterfactual)` pairs, queries in order,
    /// each query's list nearest first: the order the per-attribute
    /// fairness pass walked.
    fn flat_pairs(sets: &CounterfactualSets, i: usize) -> Vec<(usize, usize)> {
        sets.queries
            .iter()
            .enumerate()
            .flat_map(|(q_idx, &q)| sets.list(i, q_idx).iter().map(move |&u| (q, u)))
            .collect()
    }

    /// 6 nodes on a line in embedding space; labels split 0-2 vs 3-5;
    /// one pseudo-sensitive attribute alternating along the line.
    fn toy_space() -> (Matrix, Vec<bool>, Vec<Vec<bool>>) {
        let emb = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let labels = vec![false, false, false, true, true, true];
        let bits = vec![
            vec![false],
            vec![true],
            vec![false],
            vec![true],
            vec![false],
            vec![true],
        ];
        (emb, labels, bits)
    }

    #[test]
    fn finds_nearest_opposite_bit_same_label() {
        let (emb, labels, bits) = toy_space();
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        let sets = search_topk(&space, &[0, 3], 1);
        assert_eq!(sets.num_attrs(), 1);
        // Query 0 (label F, bit F): nearest same-label opposite-bit is node 1.
        assert_eq!(sets.list(0, 0), [1]);
        // Query 3 (label T, bit T): nearest same-label opposite-bit is node 4.
        assert_eq!(sets.list(0, 1), [4]);
    }

    #[test]
    fn respects_label_constraint() {
        let (emb, labels, bits) = toy_space();
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        // Query 2 (label F, bit F): node 3 is nearby in embedding space but
        // has the other label — the answer must stay within label F: node 1.
        let sets = search_topk(&space, &[2], 1);
        assert_eq!(sets.list(0, 0), [1]);
    }

    #[test]
    fn top_k_orders_by_distance() {
        let (emb, labels, bits) = toy_space();
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        // Query 4 (label T, bit F): opposite-bit same-label candidates are
        // 3 (dist 1) and 5 (dist 1) — both returned with K = 2.
        let sets = search_topk(&space, &[4], 2);
        let got = sets.list(0, 0);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&3) && got.contains(&5));
    }

    #[test]
    fn no_candidates_yields_empty_set() {
        // Constant bit: no opposite-bit candidates exist.
        let emb = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let labels = vec![true, true, true];
        let bits = vec![vec![false], vec![false], vec![false]];
        let candidates = vec![0, 1, 2];
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        let sets = search_topk(&space, &[0], 3);
        assert!(sets.list(0, 0).is_empty());
        assert_eq!(sets.pair_count(0), 0);
        let mut grad = Matrix::zeros(3, 1);
        let sums = sets.pair_sums(&emb, &[Some(1.0)], &mut grad);
        assert_eq!((sums.dist, sums.loss), (vec![0.0], vec![0.0]));
        assert_eq!(grad, Matrix::zeros(3, 1));
    }

    #[test]
    fn restricted_candidate_pool() {
        let (emb, labels, bits) = toy_space();
        // Only nodes 4, 5 are candidates.
        let candidates = vec![4, 5];
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        let sets = search_topk(&space, &[3], 2);
        // Query 3 (label T, bit T): only node 4 qualifies (5 shares the bit).
        assert_eq!(sets.list(0, 0), [4]);
    }

    #[test]
    fn flat_pairs_list_each_query_in_order() {
        let (emb, labels, bits) = toy_space();
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        // Queries 0 and 2 (label F, bit F) → node 1; query 4 (label T, bit
        // F) → nodes 3 and 5, tied at distance 1, in scan order.
        let sets = search_topk(&space, &[0, 2, 4], 1);
        assert_eq!(flat_pairs(&sets, 0), [(0, 1), (2, 1), (4, 3)]);
        assert_eq!(sets.pair_count(0), 3);
        let sets = search_topk(&space, &[0, 2, 4], 2);
        assert_eq!(flat_pairs(&sets, 0), [(0, 1), (2, 1), (4, 3), (4, 5)]);
        assert_eq!(sets.pair_count(0), 4);
    }

    /// The selection must reproduce the old full-argsort semantics:
    /// stable sort by distance over label-filtered candidates, then per
    /// attribute filter by opposite bit and take the first K.
    #[test]
    fn heap_matches_argsort_reference() {
        let emb = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0], // same distance from node 0 as node 1: tie
            &[2.0, 0.0],
            &[0.5, 0.5],
            &[3.0, 3.0],
            &[1.0, 1.0],
            &[0.1, 0.1],
        ]);
        let labels = vec![true, true, true, true, true, false, true, true];
        let bits = vec![
            vec![false, true],
            vec![true, false],
            vec![true, true],
            vec![true, false],
            vec![false, false],
            vec![true, false],
            vec![true, true],
            vec![false, false],
        ];
        let candidates: Vec<usize> = (0..8).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        let queries: Vec<usize> = (0..8).collect();
        for k in 1..=4 {
            let sets = search_topk(&space, &queries, k);
            for (q_idx, &q) in queries.iter().enumerate() {
                // Reference: the old argsort-based implementation.
                let order: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&u| u != q && labels[u] == labels[q])
                    .collect();
                let dists: Vec<f32> = order
                    .iter()
                    .map(|&u| sq_dist(emb.row(q), emb.row(u)))
                    .collect();
                let mut idx: Vec<usize> = (0..order.len()).collect();
                idx.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]));
                let sorted: Vec<usize> = idx.into_iter().map(|i| order[i]).collect();
                for attr in 0..2 {
                    let expect: Vec<usize> = sorted
                        .iter()
                        .copied()
                        .filter(|&u| bits[u][attr] != bits[q][attr])
                        .take(k)
                        .collect();
                    assert_eq!(
                        sets.list(attr, q_idx),
                        expect,
                        "query {q} attr {attr} k {k}"
                    );
                }
            }
        }
    }

    /// Orders distances by `total_cmp`, with every NaN after every number
    /// and tied with every other NaN (the search does not rank NaNs by sign
    /// or payload, which `sq_dist` does not pin).
    fn nan_last(a: f32, b: f32) -> std::cmp::Ordering {
        a.is_nan().cmp(&b.is_nan()).then(if a.is_nan() {
            std::cmp::Ordering::Equal
        } else {
            a.total_cmp(&b)
        })
    }

    /// The old full-argsort selection for query `q`: stable-sort the
    /// label-filtered candidates by distance ([`nan_last`]), then per
    /// attribute keep the first K with the opposite bit.
    fn argsort_reference(space: &SearchSpace<'_>, q: usize, k: usize) -> Vec<Vec<usize>> {
        let order: Vec<usize> = space
            .candidates
            .iter()
            .copied()
            .filter(|&u| u != q && space.pseudo_labels[u] == space.pseudo_labels[q])
            .collect();
        let dists: Vec<f32> = order
            .iter()
            .map(|&u| sq_dist(space.embeddings.row(q), space.embeddings.row(u)))
            .collect();
        let mut idx: Vec<usize> = (0..order.len()).collect();
        idx.sort_by(|&a, &b| nan_last(dists[a], dists[b]));
        let bits = space.pseudo_sensitive;
        (0..bits[q].len())
            .map(|attr| {
                idx.iter()
                    .map(|&i| order[i])
                    .filter(|&u| bits[u][attr] != bits[q][attr])
                    .take(k)
                    .collect()
            })
            .collect()
    }

    /// Seeded case loop (std + the workspace RNG only, so it runs offline):
    /// attribute counts from 1 to 70 (across the 8- and 16-attribute lane
    /// blocks and the old `u64` word boundary), quantized coordinates so
    /// distance ties are common, a NaN row in every other case, shuffled
    /// candidate pools that leave some queries out, and K = 1..=5 (the
    /// register lists at 2, scratch rows otherwise) and 20 — on every
    /// instruction set the K-slot lists must equal the argsort reference.
    #[test]
    fn slot_lists_match_argsort_reference_across_word_boundaries() {
        const ATTR_COUNTS: [usize; 14] = [1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 70];
        const KS: [usize; 6] = [1, 2, 3, 4, 5, 20];
        let isas = isas();
        for case in 0..56u64 {
            let mut rng = fairwos_tensor::seeded_rng(case);
            let num_attrs = ATTR_COUNTS[case as usize % ATTR_COUNTS.len()];
            let n = rng.gen_range(2..40usize);
            let h = rng.gen_range(1..4usize);
            let mut data: Vec<f32> = (0..n * h)
                .map(|_| rng.gen_range(0..4u32) as f32 * 0.5)
                .collect();
            if case % 2 == 0 {
                data[rng.gen_range(0..n) * h] = f32::NAN;
            }
            let emb = Matrix::from_vec(n, h, data);
            let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut bits: Vec<Vec<bool>> = Vec::with_capacity(n);
            for _ in 0..n {
                // Every fourth node (in expectation) copies node 0's bits, so
                // all-equal rows occur even at 70 attributes.
                let row = if !bits.is_empty() && rng.gen_bool(0.25) {
                    bits[0].clone()
                } else {
                    (0..num_attrs).map(|_| rng.gen_bool(0.5)).collect()
                };
                bits.push(row);
            }
            let mut candidates: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
            for i in (1..candidates.len()).rev() {
                candidates.swap(i, rng.gen_range(0..=i));
            }
            let space = SearchSpace {
                embeddings: &emb,
                pseudo_labels: &labels,
                pseudo_sensitive: &bits,
                candidates: &candidates,
            };
            let queries: Vec<usize> = (0..n).collect();
            for (k, &isa) in KS
                .iter()
                .flat_map(|&k| isas.iter().map(move |isa| (k, isa)))
            {
                let sets = search_topk_on(isa, &space, &queries, k);
                assert_eq!(sets.num_attrs(), num_attrs, "case {case}");
                for &q in &queries {
                    let expect = argsort_reference(&space, q, k);
                    for (attr, want) in expect.iter().enumerate() {
                        assert_eq!(
                            sets.list(attr, q),
                            want,
                            "{isa:?}: case {case} query {q} attr {attr} k {k}"
                        );
                    }
                }
            }
        }
    }

    /// Seeded case loop over the one-row scan's edges: every label-bucket
    /// size from 1 to 17 (across the 8-lane groups of the distance row),
    /// embedding widths 1, 3, 16 and 17, attribute counts on both sides of
    /// the 8- and 16-attribute lane blocks (1, 7, 8, 9, 15, 16, 17, 31, 33),
    /// NaN, ±∞ and −0.0 coordinates, attributes with few or no opposite-bit
    /// candidates, queries whose label bucket is empty, and K = 1–5, 8 and
    /// 20 (register lists and scratch rows) — on every instruction set,
    /// against the argsort reference.
    #[test]
    fn one_row_scans_match_argsort_reference_across_lane_boundaries() {
        const WIDTHS: [usize; 4] = [1, 3, 16, 17];
        const ATTR_COUNTS: [usize; 9] = [1, 7, 8, 9, 15, 16, 17, 31, 33];
        const KS: [usize; 7] = [1, 2, 3, 4, 5, 8, 20];
        let isas = isas();
        // Chance of a set bit per attribute: constant, skewed and even.
        const BIT_RATES: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];
        for case in 0..68u64 {
            let mut rng = fairwos_tensor::seeded_rng(0x1A7E_0000 + case);
            let bucket = 1 + case as usize % 17;
            let h = WIDTHS[case as usize / 17];
            // The bucket's candidates have label true; label-false nodes are
            // queries only, so their bucket is empty.
            let n = bucket + rng.gen_range(1..6usize);
            let mut labels = vec![false; n];
            let mut candidates: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                candidates.swap(i, rng.gen_range(0..=i));
            }
            candidates.truncate(bucket);
            for &u in &candidates {
                labels[u] = true;
            }
            let data: Vec<f32> = (0..n * h)
                .map(|_| match rng.gen_range(0..40u32) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3..=6 => -0.0,
                    v => (v % 5) as f32 * 0.5,
                })
                .collect();
            let emb = Matrix::from_vec(n, h, data);
            let num_attrs = ATTR_COUNTS[case as usize % ATTR_COUNTS.len()];
            let rates: Vec<f64> = (0..num_attrs)
                .map(|_| BIT_RATES[rng.gen_range(0..BIT_RATES.len())])
                .collect();
            let bits: Vec<Vec<bool>> = (0..n)
                .map(|_| rates.iter().map(|&p| rng.gen_bool(p)).collect())
                .collect();
            let space = SearchSpace {
                embeddings: &emb,
                pseudo_labels: &labels,
                pseudo_sensitive: &bits,
                candidates: &candidates,
            };
            let queries: Vec<usize> = (0..n).rev().collect();
            for (k, &isa) in KS
                .iter()
                .flat_map(|&k| isas.iter().map(move |isa| (k, isa)))
            {
                let sets = search_topk_on(isa, &space, &queries, k);
                for (q_idx, &q) in queries.iter().enumerate() {
                    let expect = argsort_reference(&space, q, k);
                    for (attr, want) in expect.iter().enumerate() {
                        assert_eq!(
                            sets.list(attr, q_idx),
                            want,
                            "{isa:?}: case {case} (bucket {bucket}, h {h}, {num_attrs} \
                             attributes) query {q} attr {attr} k {k}"
                        );
                    }
                }
            }
        }
    }

    /// Equal keys keep scan order: a candidate tied with one already listed
    /// goes after it, and a later, nearer one shifts both down. Query 0 sits
    /// at 0 on a line; the candidates at 3, 2, 1, −2 and 1.5 (nodes 1–5, in
    /// scan order) share its label and differ in every bit, so with K = 3
    /// each list is 1, 1.5, 2: the candidate at 2 comes before the tied
    /// one at −2. Nine and seventeen attributes put the same list in every
    /// lane block of 8 and of 16 attributes; K = 3 and K = 5 (the same
    /// three, then nothing) run the scratch rows, on every instruction set
    /// (the case loops cover the register lists of K = 2).
    #[test]
    fn tied_keys_keep_scan_order_in_every_lane() {
        let emb = Matrix::from_rows(&[&[0.0], &[3.0], &[2.0], &[1.0], &[-2.0], &[1.5]]);
        let labels = vec![true; 6];
        let candidates: Vec<usize> = (1..6).collect();
        let isas = isas();
        for (num_attrs, isa, k) in [1, 9, 17]
            .into_iter()
            .flat_map(|a| isas.iter().flat_map(move |&isa| [(a, isa, 3), (a, isa, 5)]))
        {
            let bits: Vec<Vec<bool>> = (0..6).map(|v| vec![v > 0; num_attrs]).collect();
            let space = SearchSpace {
                embeddings: &emb,
                pseudo_labels: &labels,
                pseudo_sensitive: &bits,
                candidates: &candidates,
            };
            let sets = search_topk_on(isa, &space, &[0], k);
            for attr in 0..num_attrs {
                let want: &[usize] = if k == 3 { &[3, 5, 2] } else { &[3, 5, 2, 4, 1] };
                assert_eq!(
                    sets.list(attr, 0),
                    want,
                    "{isa:?}: {num_attrs} attributes, attr {attr}, k {k}"
                );
            }
        }
    }

    /// A checkpoint's `cf` snapshot (`export_sets`, then `from_sets` on
    /// resume) restores the searched sets exactly, short and empty lists
    /// included.
    #[test]
    fn exported_sets_restore_the_same_pairs() {
        let (emb, labels, mut bits) = toy_space();
        // A second attribute that is constant: every list under it is empty.
        for row in &mut bits {
            row.push(true);
        }
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        for k in 1..=4 {
            let searched = search_topk(&space, &[5, 0, 2, 4, 3], k);
            let restored =
                CounterfactualSets::from_sets(searched.queries.clone(), searched.export_sets());
            assert_eq!(restored.queries, searched.queries);
            assert_eq!(restored.num_attrs(), 2);
            assert_eq!(restored.export_sets(), searched.export_sets(), "k {k}");
            for i in 0..2 {
                assert_eq!(
                    flat_pairs(&restored, i),
                    flat_pairs(&searched, i),
                    "k {k} attr {i}"
                );
                assert_eq!(restored.pair_count(i), searched.pair_count(i));
                for q_idx in 0..searched.queries.len() {
                    assert_eq!(restored.list(i, q_idx), searched.list(i, q_idx));
                }
            }
            assert_eq!(restored.pair_count(1), 0);
        }
        let empty = CounterfactualSets::from_sets(vec![1, 2], vec![vec![vec![], vec![]]]);
        assert_eq!(empty.num_attrs(), 1);
        assert_eq!(empty.pair_count(0), 0);
        assert_eq!(empty.export_sets(), vec![vec![Vec::<usize>::new(); 2]]);
    }

    #[test]
    #[should_panic(expected = "every pseudo-sensitive row needs 1 attributes")]
    fn ragged_attribute_rows_are_rejected() {
        // A long row: the search reads attributes from the first row.
        let emb = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let labels = vec![true; 2];
        let bits = vec![vec![false], vec![true, true]];
        let candidates = vec![0, 1];
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        search_topk(&space, &[0], 1);
    }

    /// Batch-local search over a gathered subspace must equal the global
    /// search restricted to the same candidate pool, after id remapping.
    #[test]
    fn batch_local_search_matches_remapped_global_search() {
        let (emb, labels, bits) = toy_space();
        // The "sampled subgraph": global nodes 1, 3, 4, 5 (local 0..4).
        let nodes = [1usize, 3, 4, 5];
        let local_emb = Matrix::from_rows(&nodes.iter().map(|&v| emb.row(v)).collect::<Vec<_>>());
        let local_labels: Vec<bool> = nodes.iter().map(|&v| labels[v]).collect();
        let local_bits: Vec<Vec<bool>> = nodes.iter().map(|&v| bits[v].clone()).collect();
        let local_candidates: Vec<usize> = (0..nodes.len()).collect();
        let local = search_topk(
            &SearchSpace {
                embeddings: &local_emb,
                pseudo_labels: &local_labels,
                pseudo_sensitive: &local_bits,
                candidates: &local_candidates,
            },
            &local_candidates,
            2,
        );
        let global = search_topk(
            &SearchSpace {
                embeddings: &emb,
                pseudo_labels: &labels,
                pseudo_sensitive: &bits,
                candidates: &nodes,
            },
            &nodes,
            2,
        );
        assert_eq!(local.num_attrs(), global.num_attrs());
        for attr in 0..global.num_attrs() {
            for q_idx in 0..nodes.len() {
                let got: Vec<usize> = local
                    .list(attr, q_idx)
                    .iter()
                    .map(|&lu| nodes[lu])
                    .collect();
                assert_eq!(got, global.list(attr, q_idx), "attr {attr} query {q_idx}");
            }
        }
    }

    #[test]
    fn attr_distances_match_manual() {
        let (emb, labels, bits) = toy_space();
        let candidates: Vec<usize> = (0..6).collect();
        let space = SearchSpace {
            embeddings: &emb,
            pseudo_labels: &labels,
            pseudo_sensitive: &bits,
            candidates: &candidates,
        };
        let sets = search_topk(&space, &[0], 1);
        // Query 0 → counterfactual 1, distance (0−1)² = 1; with weight 0.5
        // the loss is 0.5 and row 0's gradient 2·0.5·(0 − 1) = −1.
        let mut grad = Matrix::zeros(6, 1);
        let sums = sets.pair_sums(&emb, &[Some(0.5)], &mut grad);
        assert_eq!((sums.dist, sums.loss), (vec![1.0], vec![0.5]));
        assert_eq!(grad.get(0, 0), -1.0);
        assert_eq!(grad.as_slice()[1..], [0.0; 5]);
    }

    /// The per-attribute fairness pass that [`CounterfactualSets::pair_sums`]
    /// replaced: per attribute, its distance sum over the pairs
    /// (`sq_dist` per pair, summed in pair order), then, for a weighted
    /// attribute, the loss and gradient of every pair, dimension by
    /// dimension, into `grad`.
    fn per_attribute_reference(
        sets: &CounterfactualSets,
        h: &Matrix,
        weights: &[Option<f32>],
        grad: &mut Matrix,
    ) -> (Vec<f32>, Vec<f32>) {
        let dist = (0..sets.num_attrs())
            .map(|i| {
                let pairs = flat_pairs(sets, i);
                if pairs.is_empty() {
                    return 0.0;
                }
                pairs
                    .iter()
                    .map(|&(q, u)| sq_dist(h.row(q), h.row(u)))
                    .sum()
            })
            .collect();
        let loss = weights
            .iter()
            .enumerate()
            .map(|(i, weight)| {
                let Some(w) = *weight else { return 0.0 };
                let mut loss = 0.0f32;
                for (q, u) in flat_pairs(sets, i) {
                    let (ra, rb) = (h.row(q), h.row(u));
                    let g = grad.row_mut(q);
                    for ((ga, &x), &y) in g.iter_mut().zip(ra).zip(rb) {
                        let d = x - y;
                        loss += w * d * d;
                        *ga += 2.0 * w * d;
                    }
                }
                loss
            })
            .collect();
        (dist, loss)
    }

    /// Equal bit for bit; two NaNs count as equal (LLVM does not pin which
    /// NaN an add keeps).
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Seeded case loop: the attribute lanes of [`CounterfactualSets::pair_sums`]
    /// against the per-attribute pass, bit for bit, on every instruction
    /// set. Attribute counts across the 8- and 16-attribute lane blocks,
    /// K = 1–4 and 20, widths 1, 3, 16 and 17; ±0.0, ±∞ and NaN
    /// coordinates in some cases; empty and short slot rows; attributes
    /// without a weight (λᵢ = 0), a zero weight (one that underflowed) and
    /// a subnormal one.
    #[test]
    fn pair_sums_match_the_per_attribute_pass_bit_for_bit() {
        const ATTR_COUNTS: [usize; 9] = [1, 7, 8, 9, 15, 16, 17, 31, 33];
        const KS: [usize; 5] = [1, 2, 3, 4, 20];
        const WIDTHS: [usize; 4] = [1, 3, 16, 17];
        let isas = isas();
        for case in 0..72u64 {
            let mut rng = fairwos_tensor::seeded_rng(0xFA12_0000 + case);
            let num_attrs = ATTR_COUNTS[case as usize % ATTR_COUNTS.len()];
            let k = KS[case as usize % KS.len()];
            let width = WIDTHS[case as usize / 18];
            let n = rng.gen_range(1..30usize);
            let special = case % 3 == 0;
            let data: Vec<f32> = (0..n * width)
                .map(|_| match rng.gen_range(0..40u32) {
                    0 if special => f32::NAN,
                    1 if special => f32::INFINITY,
                    2 if special => f32::NEG_INFINITY,
                    3 | 4 => -0.0,
                    5 | 6 => 0.0,
                    _ => rng.normal(0.0, 1.0),
                })
                .collect();
            let h = Matrix::from_vec(n, width, data);
            // Distinct queries, as a fit's training nodes are.
            let mut queries: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut queries);
            queries.truncate(rng.gen_range(1..=n));
            let sets: Vec<Vec<Vec<usize>>> = (0..num_attrs)
                .map(|_| {
                    let fill = rng.gen_range(0..=k);
                    queries
                        .iter()
                        .map(|_| {
                            let len = if rng.gen_bool(0.3) {
                                rng.gen_range(0..=fill)
                            } else {
                                fill
                            };
                            (0..len).map(|_| rng.gen_range(0..n)).collect()
                        })
                        .collect()
                })
                .collect();
            let sets = CounterfactualSets::from_sets(queries, sets);
            let weights: Vec<Option<f32>> = (0..num_attrs)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => None,
                    1 => Some(1e-30f32 * 1e-30),
                    2 => Some(1e-40),
                    _ => Some(rng.gen_range(0.01f32..2.0)),
                })
                .collect();
            let mut want_grad = Matrix::full(n, width, 0.0);
            let (want_dist, want_loss) =
                per_attribute_reference(&sets, &h, &weights, &mut want_grad);
            for &isa in &isas {
                let mut grad = Matrix::zeros(n, width);
                let sums = sets.pair_sums_on(isa, &h, &weights, &mut grad);
                let what = format!("{isa:?}: case {case} ({num_attrs} attributes, k {k})");
                assert!(same_bits(&sums.dist, &want_dist), "{what}: distances");
                assert!(same_bits(&sums.loss, &want_loss), "{what}: losses");
                assert!(
                    same_bits(grad.as_slice(), want_grad.as_slice()),
                    "{what}: gradient"
                );
            }
        }
    }
}
