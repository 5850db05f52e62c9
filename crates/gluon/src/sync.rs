//! The sequential synchronization engine.
//!
//! Executes one full Gluon synchronization (reduce + broadcast) across
//! all host replicas, deterministically, within the calling thread:
//! hosts are visited in id order, nodes in id order, so a given input
//! always produces the same model — the property the PullModel
//! inspection replay and all the equivalence tests rely on. The
//! threaded engine ([`crate::threaded`]) reproduces this order exactly
//! by folding incoming messages in source-host order.
//!
//! Semantics (identical across plans — plans only change which payloads
//! cross the wire, paper §4.4):
//!
//! * For every node touched on ≥ 1 host, each touching host contributes
//!   `delta = current − base` (its accumulated SGD movement this round).
//! * Deltas are folded at the master in host-id order with the
//!   configured combiner (for `Avg`, the divisor is the number of
//!   *touching* hosts, as in Gluon where only updated proxies
//!   participate in the reduction).
//! * `canonical = base + combined` replaces the master row and is
//!   broadcast to mirror replicas (all of them for RepModel plans; each
//!   host's next-round access set for PullModel).

use crate::liveness::Liveness;
use crate::plan::{AccessSets, SyncConfig, SyncPlan};
use crate::replica::ModelReplica;
use crate::volume::{CommStats, RoundVolume};
use crate::wire::{entry_bytes, quant_entry_bytes, Channel, WireState};
use gw2v_combiner::{CombineAccumulator, CombinerKind};
use gw2v_graph::partition::{master_block, master_host};
use gw2v_util::bitvec::BitVec;
use gw2v_util::fvec::FlatMatrix;

/// Sentinel in [`NodeAccSlab::slot_of`]: no accumulator assigned.
const NO_SLOT: u32 = u32::MAX;

/// A recyclable pool of per-node [`CombineAccumulator`]s.
///
/// The reduce phase needs one accumulator per node touched this round —
/// a sparse subset of the graph. Earlier versions materialized
/// `Vec<Option<CombineAccumulator>>` over *all* nodes every round; this
/// slab instead keeps a dense pool of accumulators (sized by the
/// high-water mark of concurrently touched nodes) plus an O(1) node→slot
/// index, so steady-state rounds assign, fold, and release without
/// touching the heap. Slots are released in O(touched), not O(nodes).
#[derive(Debug, Default)]
pub(crate) struct NodeAccSlab {
    /// node id → pool index, [`NO_SLOT`] when unassigned. Sized `n_nodes`.
    slot_of: Vec<u32>,
    /// Reusable accumulators; `pool[..used]` are live this layer.
    pool: Vec<CombineAccumulator>,
    /// Nodes holding slots, for O(touched) release.
    touched: Vec<u32>,
    used: usize,
}

impl NodeAccSlab {
    /// Sizes the node→slot index (no-op when already `n_nodes` wide).
    pub(crate) fn ensure_nodes(&mut self, n_nodes: usize) {
        if self.slot_of.len() != n_nodes {
            debug_assert_eq!(self.used, 0, "resize mid-round");
            self.slot_of.clear();
            self.slot_of.resize(n_nodes, NO_SLOT);
        }
    }

    /// The accumulator for `node`, assigning (and recycling) a pool slot
    /// on the node's first touch this round.
    pub(crate) fn acc_mut(
        &mut self,
        node: u32,
        kind: CombinerKind,
        dim: usize,
    ) -> &mut CombineAccumulator {
        let slot = self.slot_of[node as usize];
        let idx = if slot == NO_SLOT {
            let idx = self.used;
            if idx == self.pool.len() {
                self.pool.push(CombineAccumulator::new(kind, dim));
            } else {
                self.pool[idx].reset(kind, dim);
            }
            self.slot_of[node as usize] = idx as u32;
            self.touched.push(node);
            self.used += 1;
            idx
        } else {
            slot as usize
        };
        &mut self.pool[idx]
    }

    /// Finishes `node`'s reduction into `out`; the slot stays assigned
    /// until [`NodeAccSlab::release_all`].
    pub(crate) fn finish_into(&mut self, node: u32, out: &mut [f32]) {
        let slot = self.slot_of[node as usize];
        assert_ne!(slot, NO_SLOT, "node {node} has no accumulator");
        self.pool[slot as usize].finish_into(out);
    }

    /// Returns every slot to the pool without deallocating.
    pub(crate) fn release_all(&mut self) {
        for &n in &self.touched {
            self.slot_of[n as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.used = 0;
    }
}

/// Reusable working memory for [`sync_round_with_scratch`].
///
/// Holds the accumulator slab, the updated-nodes bit vector, and the
/// delta/canonical/combined row buffers a round needs. Constructed empty
/// and grown on first use; after the first round on a given model shape,
/// subsequent rounds perform **zero steady-state heap allocation** in the
/// reduce/broadcast path (the `ModelCombinerPairwise` ablation combiner
/// is the documented exception — it buffers deltas internally).
#[derive(Debug, Default)]
pub struct SyncScratch {
    slab: NodeAccSlab,
    updated: BitVec,
    delta: Vec<f32>,
    canonical: Vec<f32>,
    combined: Vec<f32>,
}

impl SyncScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resizes a row buffer for the current layer's dimension (no-op at
/// steady state, where consecutive rounds see the same dims).
fn fit_row_buf(buf: &mut Vec<f32>, dim: usize) {
    buf.clear();
    buf.resize(dim, 0.0);
}

/// Runs one synchronization round over all replicas, allocating its
/// working memory afresh.
///
/// Thin wrapper around [`sync_round_with_scratch`]; callers that
/// synchronize repeatedly (the distributed trainer, benchmarks) should
/// hold a [`SyncScratch`] across rounds instead.
pub fn sync_round(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
) -> RoundVolume {
    let mut scratch = SyncScratch::new();
    sync_round_with_scratch(replicas, cfg, access, stats, &mut scratch)
}

/// Runs one synchronization round over all replicas, reusing `scratch`.
///
/// `access` must be `Some` when `cfg.plan == PullModel`: for each host
/// and layer, the set of nodes that host will access in its *next*
/// compute round. Returns the round's per-host volume; cumulative
/// counters are added to `stats`. Delta trackers are cleared on return.
///
/// The result is bit-for-bit identical whether `scratch` is fresh or
/// carried over from previous rounds (pinned by tests below): hosts are
/// still folded in id order and nodes applied in id order; the scratch
/// only changes *where* the intermediate values live.
pub fn sync_round_with_scratch(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
    scratch: &mut SyncScratch,
) -> RoundVolume {
    let live = Liveness::all(replicas.len());
    sync_round_degraded(
        replicas,
        cfg,
        access,
        stats,
        scratch,
        &live,
        &mut WireState::Classic,
    )
}

/// [`sync_round_with_scratch`] under an explicit liveness view.
///
/// Dead hosts contribute no deltas, receive no broadcasts and have their
/// trackers left untouched; their master blocks are reconciled at the
/// adopter host ([`Liveness::effective_master`]). Byte accounting covers
/// only traffic between alive hosts. With an all-alive view this is
/// exactly [`sync_round_with_scratch`], bit for bit — the BSP
/// simulator's modeled fault rounds and the faultless path share this
/// one implementation.
///
/// `wire` selects the run's payload mode and carries its cross-round
/// state ([`crate::wire::WireState`]):
///
/// * `Classic` — the classic id+value accounting, untouched.
/// * `Delta` — payload id lists *and* row values are staged per
///   (sender, receiver, layer, channel) exactly as the threaded engine
///   ships them — including empty lists for every alive ordered pair,
///   so the two engines' shadows make identical hit/miss decisions —
///   and fed through the shadow ([`crate::wire::DeltaShadow::submit`]),
///   so byte accounting reflects full payloads on shadow misses and
///   mask+changed-rows payloads on hits. Lossless: the model is
///   bit-identical to classic.
/// * `Quant` — stateless; every wire-crossing row is replaced by its
///   quantize→dequantize image ([`crate::wire::QuantScratch::qdq_row`])
///   exactly where the threaded engine's payloads would decode lossily,
///   and entries are accounted at [`quant_entry_bytes`] each.
#[allow(clippy::too_many_arguments)]
pub fn sync_round_degraded(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
    scratch: &mut SyncScratch,
    live: &Liveness,
    wire: &mut WireState,
) -> RoundVolume {
    let n_hosts = replicas.len();
    assert!(n_hosts > 0);
    assert_eq!(live.n_hosts(), n_hosts, "liveness view size mismatch");
    if cfg.plan == SyncPlan::PullModel {
        assert!(
            access.is_some(),
            "PullModel requires inspection access sets"
        );
    }
    // Any liveness change invalidates every cached id list / shadow row
    // (routing changed); must happen before the first submit of the
    // round. No-op for the stateless modes.
    wire.observe_liveness(live);
    // Observability: an inert guard when metrics are disabled; otherwise it
    // times the whole round and records the byte/message deltas below.
    let mut obs_span = gw2v_obs::span("gluon.sync");
    let stats_before = gw2v_obs::enabled().then_some(*stats);
    let n_nodes = replicas[0].n_nodes();
    let n_layers = replicas[0].n_layers();
    let mut volume = RoundVolume::new(n_hosts);

    let SyncScratch {
        slab,
        updated,
        delta,
        canonical,
        combined,
    } = scratch;
    slab.ensure_nodes(n_nodes);
    if updated.len() != n_nodes {
        *updated = BitVec::new(n_nodes);
    }

    for layer in 0..n_layers {
        let dim = replicas[0].layers[layer].dim();
        let ebytes = entry_bytes(dim) as u64;
        let qbytes = quant_entry_bytes(dim) as u64;
        fit_row_buf(delta, dim);
        fit_row_buf(canonical, dim);
        fit_row_buf(combined, dim);

        // ---- Reduce phase: fold per-node deltas in host-id order. ----
        let sparse = cfg.plan != SyncPlan::RepModelNaive;
        for (h, replica) in replicas.iter().enumerate() {
            if !live.is_alive(h) {
                continue;
            }
            // Delta mode stages the per-destination payload (the exact
            // entry order the threaded engine ships) instead of
            // accounting inline per entry.
            let (mut stage_ids, mut stage_vals) = match wire {
                WireState::Delta(d) if sparse => d.take_stage(n_hosts),
                _ => (Vec::new(), Vec::new()),
            };
            let tracker = replica.tracker(layer);
            for &node in tracker.touched_nodes() {
                tracker.delta_into(node, replica.row(layer, node), delta);
                let owner = live.effective_master(master_host(n_nodes, n_hosts, node));
                if owner != h {
                    if let WireState::Quant(q) = &mut *wire {
                        // This contribution crosses the wire (every
                        // plan): the master folds its dequantized image.
                        q.qdq_row(delta);
                    }
                }
                slab.acc_mut(node, cfg.combiner, dim).push(delta);
                updated.set(node as usize);
                if owner != h && sparse {
                    match wire {
                        WireState::Classic => {
                            // Sparse plans: only touched mirrors cross the wire.
                            volume.record(h, owner, ebytes);
                            stats.reduce_bytes += ebytes;
                            stats.reduce_msgs += 1;
                        }
                        WireState::Delta(_) => {
                            stage_ids[owner].push(node);
                            stage_vals[owner].extend_from_slice(delta);
                        }
                        WireState::Quant(_) => {
                            volume.record(h, owner, qbytes);
                            stats.reduce_bytes += qbytes;
                            stats.reduce_msgs += 1;
                        }
                    }
                }
            }
            if sparse {
                // Submit for *every* alive ordered pair — the threaded
                // engine ships a payload (possibly empty) to each peer
                // every phase, so its shadows advance even on empty
                // lists.
                match wire {
                    WireState::Delta(d) => {
                        for peer in 0..n_hosts {
                            if peer == h || !live.is_alive(peer) {
                                continue;
                            }
                            let form = d.submit(
                                h,
                                peer,
                                layer,
                                Channel::Reduce,
                                &stage_ids[peer],
                                &stage_vals[peer],
                                dim,
                            );
                            let bytes = form.wire_bytes(stage_ids[peer].len(), dim) as u64;
                            if bytes > 0 {
                                volume.record(h, peer, bytes);
                            }
                            stats.reduce_bytes += bytes;
                            stats.reduce_msgs += stage_ids[peer].len() as u64;
                        }
                        d.put_stage(stage_ids, stage_vals);
                    }
                    WireState::Classic | WireState::Quant(_) => {}
                }
            }
        }
        if cfg.plan == SyncPlan::RepModelNaive {
            // Dense reduce: every host ships *all* its mirror rows (even
            // untouched): block_size(m) rows to every master host m ≠ h,
            // where m's rows cover every block m effectively masters.
            let dense_per = match wire {
                WireState::Quant(_) => qbytes,
                _ => ebytes,
            };
            match wire {
                WireState::Delta(d) => {
                    // Delta mode: the dense id list per destination master
                    // (identical for every sender, repeating round after
                    // round while liveness holds), plus per-owner block
                    // offsets so each sender scatters its touched deltas
                    // into the dense value image by position. Untouched rows are zero
                    // deltas, unchanged round over round — exactly what
                    // the shadow's changed-row mask skips.
                    let (mut stage_ids, mut stage_vals) = d.take_stage(n_hosts);
                    let mut block_off = vec![0usize; n_hosts];
                    for m in 0..n_hosts {
                        if !live.is_alive(m) {
                            continue;
                        }
                        for owner in 0..n_hosts {
                            if live.effective_master(owner) == m {
                                block_off[owner] = stage_ids[m].len();
                                for node in master_block(n_nodes, n_hosts, owner) {
                                    stage_ids[m].push(node);
                                }
                            }
                        }
                    }
                    for h in 0..n_hosts {
                        if !live.is_alive(h) {
                            continue;
                        }
                        for m in 0..n_hosts {
                            stage_vals[m].clear();
                            stage_vals[m].resize(stage_ids[m].len() * dim, 0.0);
                        }
                        let tracker = replicas[h].tracker(layer);
                        for &node in tracker.touched_nodes() {
                            let owner = master_host(n_nodes, n_hosts, node);
                            let m = live.effective_master(owner);
                            if m == h {
                                continue;
                            }
                            tracker.delta_into(node, replicas[h].row(layer, node), delta);
                            let start = master_block(n_nodes, n_hosts, owner).start;
                            let pos = block_off[owner] + (node - start) as usize;
                            stage_vals[m][pos * dim..(pos + 1) * dim].copy_from_slice(delta);
                        }
                        for m in 0..n_hosts {
                            if m == h || !live.is_alive(m) {
                                continue;
                            }
                            let form = d.submit(
                                h,
                                m,
                                layer,
                                Channel::Reduce,
                                &stage_ids[m],
                                &stage_vals[m],
                                dim,
                            );
                            let bytes = form.wire_bytes(stage_ids[m].len(), dim) as u64;
                            if bytes > 0 {
                                volume.record(h, m, bytes);
                            }
                            stats.reduce_bytes += bytes;
                            stats.reduce_msgs += stage_ids[m].len() as u64;
                        }
                    }
                    d.put_stage(stage_ids, stage_vals);
                }
                WireState::Classic | WireState::Quant(_) => {
                    for h in 0..n_hosts {
                        if !live.is_alive(h) {
                            continue;
                        }
                        for m in 0..n_hosts {
                            if m == h || !live.is_alive(m) {
                                continue;
                            }
                            let rows: u64 = (0..n_hosts)
                                .filter(|&owner| live.effective_master(owner) == m)
                                .map(|owner| master_block(n_nodes, n_hosts, owner).len() as u64)
                                .sum();
                            if rows > 0 {
                                volume.record(h, m, rows * dense_per);
                                stats.reduce_bytes += rows * dense_per;
                                stats.reduce_msgs += rows;
                            }
                        }
                    }
                }
            }
        }

        // ---- Apply combined deltas at masters; broadcast canonical. ----
        // Delta mode stages the Opt broadcast payload per master: the
        // threaded engine builds ONE payload per master per layer
        // (updated ∩ effectively-owned, node-id order) and ships it to
        // every peer, so the shadowed id list is per-sender, not
        // per-pair.
        let (mut bcast_ids, mut bcast_vals) = match wire {
            WireState::Delta(d) if cfg.plan == SyncPlan::RepModelOpt => d.take_stage(n_hosts),
            _ => (Vec::new(), Vec::new()),
        };
        for node in updated.iter_ones() {
            let node_u = node as u32;
            let owner = live.effective_master(master_host(n_nodes, n_hosts, node_u));
            slab.finish_into(node_u, combined);
            {
                let replica = &mut replicas[owner];
                let (matrix, tracker) = replica.layer_and_tracker_mut(layer);
                let row = matrix.row_mut(node);
                if tracker.is_touched(node_u) {
                    row.copy_from_slice(tracker.base_of(node_u));
                }
                (gw2v_util::simd::kernels().add_assign)(row, combined);
                canonical.copy_from_slice(row);
            }
            if cfg.plan == SyncPlan::RepModelOpt {
                match wire {
                    WireState::Delta(_) => {
                        bcast_ids[owner].push(node_u);
                        bcast_vals[owner].extend_from_slice(canonical);
                    }
                    WireState::Quant(q) => {
                        // Mirrors receive the dequantized image of the
                        // canonical row; the master keeps the exact value.
                        // (Naive's dense broadcast handles this below.)
                        q.qdq_row(canonical);
                    }
                    WireState::Classic => {}
                }
            }
            // RepModel plans overwrite every mirror with the canonical
            // value (PullModel applies values in its pull pass below).
            if cfg.plan != SyncPlan::PullModel {
                let inline_per = match wire {
                    WireState::Classic => Some(ebytes),
                    WireState::Quant(_) => Some(qbytes),
                    _ => None,
                };
                for (h, rep) in replicas.iter_mut().enumerate() {
                    if h == owner || !live.is_alive(h) {
                        continue;
                    }
                    rep.row_mut_untracked(layer, node_u)
                        .copy_from_slice(canonical);
                    if cfg.plan == SyncPlan::RepModelOpt {
                        if let Some(per) = inline_per {
                            volume.record(owner, h, per);
                            stats.broadcast_bytes += per;
                            stats.broadcast_msgs += 1;
                        }
                    }
                }
            }
        }
        if cfg.plan == SyncPlan::RepModelOpt {
            match wire {
                WireState::Delta(d) => {
                    for sender in 0..n_hosts {
                        if !live.is_alive(sender) {
                            continue;
                        }
                        for peer in 0..n_hosts {
                            if peer == sender || !live.is_alive(peer) {
                                continue;
                            }
                            let form = d.submit(
                                sender,
                                peer,
                                layer,
                                Channel::Broadcast,
                                &bcast_ids[sender],
                                &bcast_vals[sender],
                                dim,
                            );
                            let bytes = form.wire_bytes(bcast_ids[sender].len(), dim) as u64;
                            if bytes > 0 {
                                volume.record(sender, peer, bytes);
                            }
                            stats.broadcast_bytes += bytes;
                            stats.broadcast_msgs += bcast_ids[sender].len() as u64;
                        }
                    }
                    d.put_stage(bcast_ids, bcast_vals);
                }
                WireState::Classic | WireState::Quant(_) => {}
            }
        }

        match cfg.plan {
            SyncPlan::RepModelNaive => {
                // Dense broadcast: every master row to every other host.
                match wire {
                    WireState::Delta(d) => {
                        // Same dense id-list derivation as the dense
                        // reduce; values are the masters' post-apply rows,
                        // so rows not updated this round are unchanged and
                        // cost only their mask bit.
                        let (mut stage_ids, mut stage_vals) = d.take_stage(n_hosts);
                        for m in 0..n_hosts {
                            if !live.is_alive(m) {
                                continue;
                            }
                            for owner in 0..n_hosts {
                                if live.effective_master(owner) == m {
                                    for node in master_block(n_nodes, n_hosts, owner) {
                                        stage_ids[m].push(node);
                                        stage_vals[m]
                                            .extend_from_slice(replicas[m].row(layer, node));
                                    }
                                }
                            }
                        }
                        for m in 0..n_hosts {
                            if !live.is_alive(m) {
                                continue;
                            }
                            for h in 0..n_hosts {
                                if h == m || !live.is_alive(h) {
                                    continue;
                                }
                                let form = d.submit(
                                    m,
                                    h,
                                    layer,
                                    Channel::Broadcast,
                                    &stage_ids[m],
                                    &stage_vals[m],
                                    dim,
                                );
                                let bytes = form.wire_bytes(stage_ids[m].len(), dim) as u64;
                                if bytes > 0 {
                                    volume.record(m, h, bytes);
                                }
                                stats.broadcast_bytes += bytes;
                                stats.broadcast_msgs += stage_ids[m].len() as u64;
                            }
                        }
                        d.put_stage(stage_ids, stage_vals);
                    }
                    WireState::Classic => {
                        for m in 0..n_hosts {
                            if !live.is_alive(m) {
                                continue;
                            }
                            let rows: u64 = (0..n_hosts)
                                .filter(|&owner| live.effective_master(owner) == m)
                                .map(|owner| master_block(n_nodes, n_hosts, owner).len() as u64)
                                .sum();
                            for h in 0..n_hosts {
                                if h == m || rows == 0 || !live.is_alive(h) {
                                    continue;
                                }
                                volume.record(m, h, rows * ebytes);
                                stats.broadcast_bytes += rows * ebytes;
                                stats.broadcast_msgs += rows;
                            }
                        }
                    }
                    WireState::Quant(q) => {
                        // The threaded dense broadcast physically
                        // overwrites *every* mirror row with the decoded
                        // (lossy) image each round — replicate that here;
                        // master rows stay exact.
                        for m in 0..n_hosts {
                            if !live.is_alive(m) {
                                continue;
                            }
                            let mut rows: u64 = 0;
                            for owner in 0..n_hosts {
                                if live.effective_master(owner) != m {
                                    continue;
                                }
                                for node in master_block(n_nodes, n_hosts, owner) {
                                    rows += 1;
                                    canonical.copy_from_slice(replicas[m].row(layer, node));
                                    q.qdq_row(canonical);
                                    for h in 0..n_hosts {
                                        if h == m || !live.is_alive(h) {
                                            continue;
                                        }
                                        replicas[h]
                                            .row_mut_untracked(layer, node)
                                            .copy_from_slice(canonical);
                                    }
                                }
                            }
                            for h in 0..n_hosts {
                                if h == m || rows == 0 || !live.is_alive(h) {
                                    continue;
                                }
                                volume.record(m, h, rows * qbytes);
                                stats.broadcast_bytes += rows * qbytes;
                                stats.broadcast_msgs += rows;
                            }
                        }
                    }
                }
            }
            SyncPlan::PullModel => {
                // Pull pass: each host receives exactly the rows it will
                // access next round — whether or not they were updated
                // (paper: "it sends masters that may not have been
                // updated").
                let access = access.expect("checked above");
                for h in 0..n_hosts {
                    if !live.is_alive(h) {
                        continue;
                    }
                    // Delta mode stages the per-owner request list (the
                    // exact response payload order: the owner answers in
                    // request order, which is the access set's node-id
                    // order).
                    let (mut stage_ids, mut stage_vals) = match wire {
                        WireState::Delta(d) => d.take_stage(n_hosts),
                        _ => (Vec::new(), Vec::new()),
                    };
                    let set = access.get(h, layer);
                    for node in set.iter_ones() {
                        let node_u = node as u32;
                        let owner = live.effective_master(master_host(n_nodes, n_hosts, node_u));
                        if owner == h {
                            continue; // local master, no wire
                        }
                        canonical.copy_from_slice(replicas[owner].row(layer, node_u));
                        match wire {
                            WireState::Classic => {
                                volume.record(owner, h, ebytes);
                                stats.broadcast_bytes += ebytes;
                                stats.broadcast_msgs += 1;
                            }
                            WireState::Delta(_) => {
                                stage_ids[owner].push(node_u);
                                stage_vals[owner].extend_from_slice(canonical);
                            }
                            WireState::Quant(q) => {
                                // The requester decodes the lossy image.
                                q.qdq_row(canonical);
                                volume.record(owner, h, qbytes);
                                stats.broadcast_bytes += qbytes;
                                stats.broadcast_msgs += 1;
                            }
                        }
                        replicas[h]
                            .row_mut_untracked(layer, node_u)
                            .copy_from_slice(canonical);
                    }
                    match wire {
                        WireState::Delta(d) => {
                            for owner in 0..n_hosts {
                                if owner == h || !live.is_alive(owner) {
                                    continue;
                                }
                                let form = d.submit(
                                    owner,
                                    h,
                                    layer,
                                    Channel::Broadcast,
                                    &stage_ids[owner],
                                    &stage_vals[owner],
                                    dim,
                                );
                                let bytes = form.wire_bytes(stage_ids[owner].len(), dim) as u64;
                                if bytes > 0 {
                                    volume.record(owner, h, bytes);
                                }
                                stats.broadcast_bytes += bytes;
                                stats.broadcast_msgs += stage_ids[owner].len() as u64;
                            }
                            d.put_stage(stage_ids, stage_vals);
                        }
                        WireState::Classic | WireState::Quant(_) => {}
                    }
                }
            }
            SyncPlan::RepModelOpt => {}
        }

        // Return this layer's slots and bits for the next layer/round.
        slab.release_all();
        updated.clear_all();
    }

    for (h, replica) in replicas.iter_mut().enumerate() {
        if live.is_alive(h) {
            replica.clear_tracking();
        }
    }
    stats.rounds += 1;

    if let Some(before) = stats_before {
        let reduce_b = stats.reduce_bytes - before.reduce_bytes;
        let bcast_b = stats.broadcast_bytes - before.broadcast_bytes;
        gw2v_obs::add("gluon.rounds", 1);
        gw2v_obs::add("gluon.reduce_bytes", reduce_b);
        gw2v_obs::add("gluon.broadcast_bytes", bcast_b);
        gw2v_obs::add("gluon.reduce_msgs", stats.reduce_msgs - before.reduce_msgs);
        gw2v_obs::add(
            "gluon.broadcast_msgs",
            stats.broadcast_msgs - before.broadcast_msgs,
        );
        gw2v_obs::observe("gluon.round_bytes", reduce_b + bcast_b);
        obs_span.field("reduce_bytes", reduce_b as f64);
        obs_span.field("broadcast_bytes", bcast_b as f64);
        obs_span.field("max_host_bytes", volume.max_host_bytes() as f64);
        obs_span.field("hosts", n_hosts as f64);
    }
    drop(obs_span);
    volume
}

/// Assembles the canonical model (each node's master row) into a fresh
/// set of layer matrices — the trained model a user would save.
pub fn assemble_canonical(replicas: &[ModelReplica]) -> Vec<FlatMatrix> {
    assemble_canonical_live(replicas, &Liveness::all(replicas.len()))
}

/// [`assemble_canonical`] under a liveness view: rows mastered by dead
/// hosts are read from their adopters' replicas instead.
pub fn assemble_canonical_live(replicas: &[ModelReplica], live: &Liveness) -> Vec<FlatMatrix> {
    let n_hosts = replicas.len();
    let n_nodes = replicas[0].n_nodes();
    (0..replicas[0].n_layers())
        .map(|layer| {
            let dim = replicas[0].layers[layer].dim();
            let mut m = FlatMatrix::zeros(n_nodes, dim);
            for node in 0..n_nodes as u32 {
                let owner = live.effective_master(master_host(n_nodes, n_hosts, node));
                m.row_mut(node as usize)
                    .copy_from_slice(replicas[owner].row(layer, node));
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_combiner::CombinerKind;

    fn make_replicas(n_hosts: usize, n_nodes: usize, dim: usize) -> Vec<ModelReplica> {
        (0..n_hosts)
            .map(|_| {
                let mut m0 = FlatMatrix::zeros(n_nodes, dim);
                let mut m1 = FlatMatrix::zeros(n_nodes, dim);
                for r in 0..n_nodes {
                    for d in 0..dim {
                        m0.row_mut(r)[d] = (r * dim + d) as f32;
                        m1.row_mut(r)[d] = -((r * dim + d) as f32);
                    }
                }
                ModelReplica::new(vec![m0, m1])
            })
            .collect()
    }

    fn cfg(plan: SyncPlan, combiner: CombinerKind) -> SyncConfig {
        SyncConfig { plan, combiner }
    }

    #[test]
    fn sum_combiner_adds_concurrent_deltas() {
        let mut reps = make_replicas(3, 6, 2);
        // Hosts 0 and 1 both bump node 5 (owned by host 2) on layer 0.
        reps[0].row_mut(0, 5)[0] += 1.0;
        reps[1].row_mut(0, 5)[0] += 2.0;
        let base = 5.0 * 2.0; // value at (5,0) = r*dim+d = 10
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        for h in 0..3 {
            assert_eq!(reps[h].row(0, 5)[0], base + 3.0, "host {h}");
        }
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.reduce_msgs, 2);
        // Broadcast to 2 mirrors.
        assert_eq!(stats.broadcast_msgs, 2);
    }

    #[test]
    fn avg_divides_by_touching_hosts_only() {
        let mut reps = make_replicas(4, 4, 1);
        reps[0].row_mut(0, 3)[0] += 4.0;
        reps[1].row_mut(0, 3)[0] += 2.0;
        // Hosts 2, 3 do not touch node 3.
        let base = 3.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Avg),
            None,
            &mut stats,
        );
        for h in 0..4 {
            assert_eq!(reps[h].row(0, 3)[0], base + 3.0, "avg of 4 and 2");
        }
    }

    #[test]
    fn master_local_touch_reconciles_with_remote() {
        let mut reps = make_replicas(2, 2, 1);
        // Node 0 owned by host 0; both hosts touch it.
        reps[0].row_mut(0, 0)[0] += 10.0;
        reps[1].row_mut(0, 0)[0] += 20.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        // base 0.0, combined = 30.
        assert_eq!(reps[0].row(0, 0)[0], 30.0);
        assert_eq!(reps[1].row(0, 0)[0], 30.0);
    }

    #[test]
    fn layers_synchronize_independently() {
        let mut reps = make_replicas(2, 4, 2);
        reps[0].row_mut(0, 1)[0] += 1.0;
        reps[1].row_mut(1, 2)[1] += 5.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        // Layer 0 node 1 synced.
        assert_eq!(reps[1].row(0, 1)[0], reps[0].row(0, 1)[0]);
        // Layer 1 node 2 synced.
        assert_eq!(reps[0].row(1, 2)[1], reps[1].row(1, 2)[1]);
        // Unrelated cells untouched.
        assert_eq!(reps[0].row(1, 1)[0], -(1.0 * 2.0));
    }

    #[test]
    fn plans_produce_identical_models() {
        use gw2v_util::rng::{Rng64, Xoshiro256};
        let combiner = CombinerKind::ModelCombiner;
        let run = |plan: SyncPlan| -> Vec<FlatMatrix> {
            let mut reps = make_replicas(4, 12, 3);
            let mut stats = CommStats::default();
            let mut rng = Xoshiro256::new(7);
            for _round in 0..5 {
                // Deterministic pseudo-random touches per host.
                let mut access = AccessSets::new(4, 2, 12);
                for h in 0..4 {
                    for _ in 0..6 {
                        let layer = rng.index(2);
                        let node = rng.index(12) as u32;
                        let bump = rng.next_f32() - 0.5;
                        reps[h].row_mut(layer, node)[rng.index(3)] += bump;
                    }
                }
                // Access sets for the *next* round must cover whatever the
                // next round touches; since touches are random we declare
                // everything accessed (superset is always safe for Pull).
                for h in 0..4 {
                    for l in 0..2 {
                        access.get_mut(h, l).set_all();
                    }
                }
                let cfg = cfg(plan, combiner);
                sync_round(&mut reps, &cfg, Some(&access), &mut stats);
            }
            assemble_canonical(&reps)
        };
        let opt = run(SyncPlan::RepModelOpt);
        let naive = run(SyncPlan::RepModelNaive);
        let pull = run(SyncPlan::PullModel);
        assert_eq!(opt, naive, "Naive and Opt must train identically");
        assert_eq!(opt, pull, "Pull and Opt must train identically");
    }

    #[test]
    fn volume_opt_leq_naive() {
        let touch = |reps: &mut Vec<ModelReplica>| {
            reps[0].row_mut(0, 1)[0] += 1.0;
            reps[2].row_mut(1, 5)[0] += 1.0;
        };
        let mut naive_reps = make_replicas(4, 16, 4);
        let mut opt_reps = make_replicas(4, 16, 4);
        touch(&mut naive_reps);
        touch(&mut opt_reps);
        let mut s_naive = CommStats::default();
        let mut s_opt = CommStats::default();
        let v_naive = sync_round(
            &mut naive_reps,
            &cfg(SyncPlan::RepModelNaive, CombinerKind::Sum),
            None,
            &mut s_naive,
        );
        let v_opt = sync_round(
            &mut opt_reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut s_opt,
        );
        assert!(v_opt.total_bytes() < v_naive.total_bytes());
        assert!(s_opt.total_bytes() < s_naive.total_bytes());
        // Naive ships the whole model each way regardless of touches:
        // reduce = H*(N - own block) rows, broadcast same.
        let expected_rows = 4 * (16 - 4) as u64; // per layer, per direction
        let ebytes = entry_bytes(4) as u64;
        assert_eq!(s_naive.reduce_bytes, 2 * expected_rows * ebytes);
        assert_eq!(s_naive.broadcast_bytes, 2 * expected_rows * ebytes);
    }

    #[test]
    fn pull_ships_access_set_not_updates() {
        let mut reps = make_replicas(2, 8, 2);
        // Host 0 touches node 7 (owned by host 1).
        reps[0].row_mut(0, 7)[0] += 1.0;
        // Next round host 0 will access nodes 0..4 on layer 0 — note node 7
        // is NOT accessed, and nodes 0..4 were NOT updated.
        let mut access = AccessSets::new(2, 2, 8);
        for n in 0..4 {
            access.get_mut(0, 0).set(n);
        }
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access),
            &mut stats,
        );
        // Reduce shipped the one touched mirror row.
        assert_eq!(stats.reduce_msgs, 1);
        // Broadcast shipped exactly the accessed-but-remote rows: nodes
        // 0..4 are owned by host 0 itself (block 0..4 of 8 at 2 hosts), so
        // nothing crosses the wire.
        assert_eq!(stats.broadcast_msgs, 0);
        // Canonical master (host 1) still got the update.
        assert_eq!(reps[1].row(0, 7)[0], reps[1].layers[0].row(7)[0]);
        let canon = assemble_canonical(&reps);
        assert_eq!(canon[0].row(7)[0], 7.0 * 2.0 + 1.0);
    }

    #[test]
    fn pull_refreshes_stale_accessed_rows() {
        let mut reps = make_replicas(2, 4, 1);
        // Round 1: host 1 updates node 0 (owned by host 0). Host 0's access
        // set for round 2 does not include node 0; host 1's does.
        reps[1].row_mut(0, 0)[0] += 5.0;
        let mut access = AccessSets::new(2, 2, 4);
        access.get_mut(1, 0).set(0);
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access),
            &mut stats,
        );
        // Host 1's mirror of node 0 is canonical; master too.
        assert_eq!(reps[0].row(0, 0)[0], 5.0);
        assert_eq!(reps[1].row(0, 0)[0], 5.0);
        // Round 2: nobody touches node 0; host 0 now accesses it. The pull
        // must refresh host 0's (never-stale here: host 0 IS the master) —
        // instead check a remote case: host 1 accesses node 1 (owned by
        // host 0) which it never touched; its replica already matches the
        // master, and the pull ships it anyway (counted on the wire).
        let mut access2 = AccessSets::new(2, 2, 4);
        access2.get_mut(1, 0).set(1);
        let before = stats.broadcast_msgs;
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access2),
            &mut stats,
        );
        assert_eq!(
            stats.broadcast_msgs,
            before + 1,
            "unchanged row still pulled"
        );
    }

    #[test]
    fn trackers_cleared_after_round() {
        let mut reps = make_replicas(2, 4, 1);
        reps[0].row_mut(0, 1)[0] += 1.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        assert_eq!(reps[0].tracker(0).touched_count(), 0);
        // A second sync with no touches moves nothing.
        let v = sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        assert_eq!(v.total_bytes(), 0);
    }

    #[test]
    fn single_host_needs_no_communication() {
        let mut reps = make_replicas(1, 4, 2);
        reps[0].row_mut(0, 1)[0] += 1.0;
        reps[0].row_mut(1, 2)[0] += 1.0;
        let mut stats = CommStats::default();
        let v = sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
            None,
            &mut stats,
        );
        assert_eq!(v.total_bytes(), 0);
        assert_eq!(stats.total_bytes(), 0);
        // But the update is retained.
        assert_eq!(reps[0].row(0, 1)[0], 1.0 * 2.0 + 1.0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_rounds() {
        use gw2v_util::rng::{Rng64, Xoshiro256};
        // A single SyncScratch carried across rounds (slots and buffers
        // recycled, pool warm) must produce exactly the models a fresh
        // scratch per round does — for every combiner, over enough rounds
        // that the pool is actually reused.
        for combiner in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
            CombinerKind::ModelCombinerPairwise,
        ] {
            let cfg = cfg(SyncPlan::RepModelOpt, combiner);
            let mut reused_reps = make_replicas(3, 10, 4);
            let mut fresh_reps = make_replicas(3, 10, 4);
            let mut s1 = CommStats::default();
            let mut s2 = CommStats::default();
            let mut scratch = SyncScratch::new();
            let mut rng = Xoshiro256::new(99);
            for round in 0..4 {
                // Identical pseudo-random touches on both replica sets.
                for h in 0..3 {
                    for _ in 0..5 {
                        let layer = rng.index(2);
                        let node = rng.index(10) as u32;
                        let slot = rng.index(4);
                        let bump = rng.next_f32() - 0.5;
                        reused_reps[h].row_mut(layer, node)[slot] += bump;
                        fresh_reps[h].row_mut(layer, node)[slot] += bump;
                    }
                }
                let v1 =
                    sync_round_with_scratch(&mut reused_reps, &cfg, None, &mut s1, &mut scratch);
                let v2 = sync_round(&mut fresh_reps, &cfg, None, &mut s2);
                assert_eq!(
                    v1.total_bytes(),
                    v2.total_bytes(),
                    "{combiner:?} round {round}"
                );
                for h in 0..3 {
                    assert_eq!(
                        reused_reps[h].layers, fresh_reps[h].layers,
                        "{combiner:?} round {round} host {h}"
                    );
                }
            }
            assert_eq!(s1.total_bytes(), s2.total_bytes(), "{combiner:?}");
        }
    }

    #[test]
    fn degraded_round_routes_to_adopter() {
        // Host 1 of 3 is dead. Hosts 0 and 2 touch node 5 (block-owned by
        // the dead host 1 → adopted by host 2); the reconciled value must
        // land on host 2's replica and broadcast only to host 0.
        let mut reps = make_replicas(3, 9, 1);
        let mut live = Liveness::all(3);
        live.mark_dead(1);
        reps[0].row_mut(0, 5)[0] += 1.0;
        reps[2].row_mut(0, 5)[0] += 2.0;
        let base = 5.0;
        let dead_before = reps[1].layers.clone();
        let mut stats = CommStats::default();
        let mut scratch = SyncScratch::new();
        let v = sync_round_degraded(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
            &mut scratch,
            &live,
            &mut WireState::Classic,
        );
        assert_eq!(reps[2].row(0, 5)[0], base + 3.0, "adopter holds canonical");
        assert_eq!(reps[0].row(0, 5)[0], base + 3.0, "survivor mirrors it");
        assert_eq!(reps[1].layers, dead_before, "dead replica stays frozen");
        // One delta shipped (host 0 → adopter 2), one broadcast back.
        assert_eq!(stats.reduce_msgs, 1);
        assert_eq!(stats.broadcast_msgs, 1);
        assert!(v.total_bytes() > 0);
        let canon = assemble_canonical_live(&reps, &live);
        assert_eq!(canon[0].row(5)[0], base + 3.0);
    }

    #[test]
    fn assemble_canonical_reads_masters() {
        let mut reps = make_replicas(2, 4, 1);
        // Desynchronize *without* tracking: replicas disagree.
        reps[0].row_mut_untracked(0, 0)[0] = 100.0; // node 0 owned by host 0
        reps[1].row_mut_untracked(0, 0)[0] = -1.0;
        reps[0].row_mut_untracked(0, 3)[0] = -1.0; // node 3 owned by host 1
        reps[1].row_mut_untracked(0, 3)[0] = 300.0;
        let canon = assemble_canonical(&reps);
        assert_eq!(canon[0].row(0)[0], 100.0);
        assert_eq!(canon[0].row(3)[0], 300.0);
    }
}
