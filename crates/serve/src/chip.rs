//! Per-chip serving state: pending queues, the dynamic batcher, and the
//! single service slot a chip's plane stack represents.

use inca_events::SimTime;

/// Dynamic-batching policy: accumulate requests per model until the
/// batch fills or the oldest member has waited long enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a chip launches at once (≤ the backend's plane
    /// count; the sweep clamps it).
    pub max_batch: usize,
    /// Longest an idle chip holds a non-full batch open, nanoseconds.
    pub max_wait_ns: SimTime,
}

impl BatchPolicy {
    /// The default serving policy: fill the 64-plane stack or launch
    /// after 2 ms, whichever comes first.
    #[must_use]
    pub(crate) fn default_paper() -> Self {
        Self { max_batch: 64, max_wait_ns: 2_000_000 }
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// Monotonic request id (arrival order).
    pub id: u64,
    /// Index into the run's model mix.
    pub model_idx: usize,
    /// Arrival time, virtual nanoseconds.
    pub arrival_ns: SimTime,
}

/// The serving state of one chip.
pub(crate) struct Chip {
    /// Per-model FIFO of admitted, not-yet-launched requests.
    pub pending: Vec<Vec<Request>>,
    /// Cursor into each pending FIFO (drained prefix; compacted on
    /// batch launch to keep memory bounded).
    heads: Vec<usize>,
    /// Total requests waiting across all models.
    pub queued: usize,
    /// Requests currently executing (batch in flight), 0 when idle.
    pub in_flight: usize,
    /// The model whose weights are resident, once anything ran.
    pub resident_model: Option<usize>,
    /// Number of weight re-programming switches performed.
    pub switches: u64,
}

impl Chip {
    /// An idle chip serving a mix of `models` distinct models.
    #[must_use]
    pub fn new(models: usize) -> Self {
        Self {
            pending: vec![Vec::new(); models],
            heads: vec![0; models],
            queued: 0,
            in_flight: 0,
            resident_model: None,
            switches: 0,
        }
    }

    /// Whether the service slot is occupied.
    #[must_use]
    pub(crate) fn busy(&self) -> bool {
        self.in_flight > 0
    }

    /// Load metric for join-shortest-queue: waiting + executing.
    #[must_use]
    pub fn load(&self) -> usize {
        self.queued + self.in_flight
    }

    /// Admits a request into its model's FIFO.
    pub(crate) fn admit(&mut self, req: Request) {
        self.pending[req.model_idx].push(req);
        self.queued += 1;
    }

    /// Pending depth of one model's FIFO.
    #[must_use]
    pub(crate) fn depth(&self, model_idx: usize) -> usize {
        self.pending[model_idx].len() - self.heads[model_idx]
    }

    /// Arrival time of the oldest pending request of `model_idx`.
    #[must_use]
    pub(crate) fn head_arrival(&self, model_idx: usize) -> Option<SimTime> {
        self.pending[model_idx].get(self.heads[model_idx]).map(|r| r.arrival_ns)
    }

    /// The model whose head request has waited longest (ties: lowest
    /// index), or `None` when nothing is pending.
    #[must_use]
    pub(crate) fn oldest_model(&self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for m in 0..self.pending.len() {
            if let Some(at) = self.head_arrival(m) {
                if best.is_none_or(|(bat, _)| at < bat) {
                    best = Some((at, m));
                }
            }
        }
        best.map(|(_, m)| m)
    }

    /// Earliest launch deadline among pending heads
    /// (`head_arrival + max_wait`), for timeout scheduling.
    #[must_use]
    pub(crate) fn earliest_deadline(&self, max_wait_ns: SimTime) -> Option<SimTime> {
        (0..self.pending.len())
            .filter_map(|m| self.head_arrival(m))
            .min()
            .map(|at| at.saturating_add(max_wait_ns))
    }

    /// Drains up to `max_batch` requests of `model_idx` into `out`
    /// (cleared first, FIFO order) and marks the slot busy. The buffer is
    /// caller-owned so the engine can recycle batch allocations through
    /// its slab arena instead of allocating a fresh `Vec` per launch.
    ///
    /// # Panics
    ///
    /// Panics if the chip is already busy or the model FIFO is empty —
    /// both are engine logic errors, not runtime conditions.
    pub(crate) fn launch_into(&mut self, model_idx: usize, max_batch: usize, out: &mut Vec<Request>) {
        assert!(!self.busy(), "launch on a busy chip");
        out.clear();
        let head = self.heads[model_idx];
        let fifo = &mut self.pending[model_idx];
        assert!(head < fifo.len(), "launch with an empty FIFO");
        let take = (fifo.len() - head).min(max_batch);
        out.extend_from_slice(&fifo[head..head + take]);
        // Compact: drop the drained prefix so FIFOs never grow unbounded.
        fifo.drain(..head + take);
        self.heads[model_idx] = 0;
        self.queued -= take;
        self.in_flight = take;
        if self.resident_model != Some(model_idx) {
            if self.resident_model.is_some() {
                self.switches += 1;
            }
            self.resident_model = Some(model_idx);
        }
    }

    /// Marks the in-flight batch complete, freeing the slot.
    pub(crate) fn complete(&mut self) {
        self.in_flight = 0;
    }
}

/// How arriving requests are routed across the chip fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through chips regardless of state.
    RoundRobin,
    /// Send to the least-loaded chip (ties to the lowest index).
    JoinShortestQueue,
    /// Shard models onto chips so a chip rarely re-programs weights: each
    /// model owns a contiguous stripe of chips and joins the shortest
    /// queue inside it. With at least as many models as chips, a stripe
    /// is the single home chip `model_idx % chips`.
    ModelAffinity,
}

impl DispatchPolicy {
    /// Stable identifier used in reports.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round_robin",
            DispatchPolicy::JoinShortestQueue => "join_shortest_queue",
            DispatchPolicy::ModelAffinity => "model_affinity",
        }
    }

    /// Picks the destination among `chips` chips for a request of
    /// `model_idx` in a mix of `models`, given the dispatcher's view
    /// `load(c)` of each chip's load.
    #[must_use]
    pub(crate) fn choose(
        &self,
        chips: usize,
        models: usize,
        model_idx: usize,
        load: impl Fn(usize) -> usize,
        rr_cursor: &mut usize,
    ) -> usize {
        // The least-loaded chip in `lo..hi`, ties to the lowest index.
        let shortest = |lo: usize, hi: usize| {
            (lo + 1..hi).fold(lo, |best, i| if load(i) < load(best) { i } else { best })
        };
        match self {
            DispatchPolicy::RoundRobin => {
                let c = *rr_cursor % chips;
                *rr_cursor = (*rr_cursor + 1) % chips;
                c
            }
            DispatchPolicy::JoinShortestQueue => shortest(0, chips),
            DispatchPolicy::ModelAffinity if models >= chips => model_idx % chips,
            DispatchPolicy::ModelAffinity => {
                shortest(model_idx * chips / models, (model_idx + 1) * chips / models)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, model: usize, at: SimTime) -> Request {
        Request { id, model_idx: model, arrival_ns: at }
    }

    fn launch(chip: &mut Chip, model_idx: usize, max_batch: usize) -> Vec<u64> {
        let mut batch = Vec::new();
        chip.launch_into(model_idx, max_batch, &mut batch);
        batch.iter().map(|r| r.id).collect()
    }

    #[test]
    fn launch_drains_fifo_in_order() {
        let mut chip = Chip::new(2);
        for i in 0..5 {
            chip.admit(req(i, 0, 10 * i));
        }
        chip.admit(req(9, 1, 1));
        assert_eq!(launch(&mut chip, 0, 3), vec![0, 1, 2]);
        assert_eq!(chip.queued, 3);
        assert!(chip.busy());
        chip.complete();
        assert_eq!(launch(&mut chip, 0, 64), vec![3, 4]);
    }

    #[test]
    fn launch_into_clears_the_buffer_first() {
        let mut chip = Chip::new(1);
        chip.admit(req(4, 0, 0));
        let mut batch = vec![req(99, 0, 0)];
        chip.launch_into(0, 8, &mut batch);
        assert_eq!(batch, vec![req(4, 0, 0)]);
    }

    #[test]
    fn oldest_model_prefers_earliest_head() {
        let mut chip = Chip::new(3);
        chip.admit(req(0, 2, 50));
        chip.admit(req(1, 1, 20));
        assert_eq!(chip.oldest_model(), Some(1));
        assert_eq!(chip.earliest_deadline(5), Some(25));
    }

    #[test]
    fn switches_count_model_changes() {
        let mut chip = Chip::new(2);
        chip.admit(req(0, 0, 0));
        launch(&mut chip, 0, 1);
        chip.complete();
        assert_eq!(chip.switches, 0); // first residency is free
        chip.admit(req(1, 1, 5));
        launch(&mut chip, 1, 1);
        assert_eq!(chip.switches, 1);
    }

    #[test]
    fn affinity_pins_models_to_chips() {
        let policy = DispatchPolicy::ModelAffinity;
        let mut cursor = 0;
        // With at least as many models as chips, affinity is the home
        // chip `model_idx % chips` whatever the loads.
        for chips in 1..=8usize {
            for models in chips..chips + 4 {
                for model_idx in 0..models {
                    // Each chip in turn is the unique shortest queue.
                    for shortest in 0..chips {
                        let load = |c: usize| usize::from(c != shortest);
                        let c = policy.choose(chips, models, model_idx, load, &mut cursor);
                        assert_eq!(c, model_idx % chips, "{chips} chips, {models} models, model {model_idx}");
                    }
                }
            }
        }
        assert_eq!(cursor, 0, "affinity never advances the round-robin cursor");
    }

    #[test]
    fn affinity_stripes_join_the_shortest_queue() {
        // 2 models over 6 chips: model 0 owns chips 0..3, model 1 owns 3..6.
        let policy = DispatchPolicy::ModelAffinity;
        let loads = [5, 1, 3, 0, 4, 2];
        let mut cursor = 0;
        assert_eq!(policy.choose(6, 2, 0, |c| loads[c], &mut cursor), 1);
        assert_eq!(policy.choose(6, 2, 1, |c| loads[c], &mut cursor), 3);
        assert_eq!(policy.choose(6, 2, 1, |_| 0, &mut cursor), 3, "ties go to the lowest index");
    }

    #[test]
    fn jsq_picks_least_loaded() {
        let mut chips: Vec<Chip> = (0..2).map(|_| Chip::new(1)).collect();
        chips[0].admit(req(0, 0, 0));
        let mut cursor = 0;
        assert_eq!(DispatchPolicy::JoinShortestQueue.choose(2, 1, 0, |c| chips[c].load(), &mut cursor), 1);
    }
}
