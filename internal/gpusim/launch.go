package gpusim

import (
	"fmt"
	"iter"
	"strconv"
	"sync"
	"sync/atomic"

	"indigo/internal/guard"
)

// Kernel is a device kernel, written per warp: the function is invoked
// once for every warp of the grid and iterates its lanes explicitly.
type Kernel func(w *Warp)

// LaunchCfg shapes one kernel launch.
type LaunchCfg struct {
	// Blocks is the grid size.
	Blocks int64
	// ThreadsPerBlock must be a multiple of 32; 0 means 256.
	ThreadsPerBlock int
	// NeedsBarrier must be set when the kernel calls Warp.Sync. Barrier
	// kernels run their block's warps as coroutines (interleaved at
	// Sync points, one at a time); others run them straight through
	// sequentially (cheaper to simulate).
	NeedsBarrier bool
}

// Stats reports one launch's simulated cost and event counts.
type Stats struct {
	// Cycles is the kernel's duration: the busiest SM's cycle count
	// plus launch overhead.
	Cycles int64
	// Instructions counts issued warp instructions.
	Instructions int64
	// Transactions counts global-memory transactions.
	Transactions int64
	// L2Hits / L2Misses classify the transactions.
	L2Hits   int64
	L2Misses int64
	// Atomics counts atomic operations (classic and CudaAtomic).
	Atomics int64
	// AtomicSerial is the cycles added to the critical path by
	// same-address atomic serialization.
	AtomicSerial int64
}

// Add accumulates other into s (for multi-launch algorithms).
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Instructions += other.Instructions
	s.Transactions += other.Transactions
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.Atomics += other.Atomics
	s.AtomicSerial += other.AtomicSerial
}

// Seconds converts the simulated cycles to seconds on profile p.
func (s Stats) Seconds(p Profile) float64 {
	return float64(s.Cycles) / (p.ClockGHz * 1e9)
}

// launchScratch is the per-Device reusable launch state: a warmed-up
// device's Launch allocates nothing.
type launchScratch struct {
	cfg           LaunchCfg
	kern          Kernel
	warpsPerBlock int
	// nextShard hands whole shards to the launch worker; a recorded
	// panic overshoots it past the shard count to stop the claim loop.
	nextShard atomic.Int64
	panicked  panicSlot
}

// Launch executes the kernel over the grid and returns its simulated
// cost. Execution is functional, so results are exact. The cost model is sharded per SM with
// the deterministic block→SM mapping bi % SMs and merged in fixed shard
// order at launch end, so Stats are bit-identical across GOMAXPROCS
// settings and repeated runs.
func (d *Device) Launch(cfg LaunchCfg, k Kernel) Stats {
	// One poll per launch checkpoints every outer round of the
	// multi-launch algorithms; warps poll again inside the kernel every
	// guardPollCycles (see Warp.Op).
	d.gd.Poll()
	if cfg.ThreadsPerBlock == 0 {
		cfg.ThreadsPerBlock = 256
	}
	if cfg.ThreadsPerBlock%WarpSize != 0 || cfg.ThreadsPerBlock <= 0 || cfg.ThreadsPerBlock > 1024 {
		panic(fmt.Sprintf("gpusim.Launch: bad ThreadsPerBlock %d", cfg.ThreadsPerBlock))
	}
	if cfg.Blocks <= 0 {
		panic(fmt.Sprintf("gpusim.Launch: bad grid size %d", cfg.Blocks))
	}
	sp := d.tc.Start("gpu.launch")
	defer func() { sp.End() }()
	ls := &d.ls
	ls.cfg = cfg
	ls.kern = k
	ls.warpsPerBlock = cfg.ThreadsPerBlock / WarpSize
	ls.nextShard.Store(0)
	ls.panicked.reset()

	// Shards execute inline on the launching goroutine, in fixed shard
	// order. Blocks of different shards must NOT run concurrently: the
	// functional side of the simulation is shared (kernels of the
	// nondeterministic styles intentionally race on global memory), so
	// concurrent blocks would make results — and therefore iteration and
	// instruction counts — depend on host scheduling. The fast path's
	// speed comes from the contention-free cost model (plain increments,
	// O(footprint) merges, zero warmed-launch allocations), not from
	// host fan-out.
	d.launchWorker()
	ls.kern = nil

	// Collect in fixed shard order — and always, even when a worker
	// panicked, so an aborted launch leaves no stale cost state behind.
	var total Stats
	var maxSM int64
	for i := range d.shards {
		sh := &d.shards[i]
		total.Add(sh.stats)
		sh.stats = Stats{}
		if sh.smCycles > maxSM {
			maxSM = sh.smCycles
		}
		sh.smCycles = 0
	}
	// Same-address atomics serialize at the L2 atomic unit: the busiest
	// address's queue is a lower bound on the kernel's duration no
	// matter how many SMs are working.
	serial := d.drainAtomics() * d.Prof.AtomicSerialCost
	ls.panicked.rethrow()
	total.AtomicSerial = serial
	total.Cycles = maxSM + serial + d.Prof.LaunchOverhead
	if sp.Live() {
		sp = sp.Attr("blocks", strconv.FormatInt(cfg.Blocks, 10)).
			Attr("cycles", strconv.FormatInt(total.Cycles, 10))
	}
	return total
}

// launchWorker claims shards until none remain. Kernel panics surface
// on the launching goroutine, like a CUDA error on the host thread.
func (d *Device) launchWorker() {
	ls := &d.ls
	sms := int64(d.Prof.SMs)
	defer func() {
		if r := recover(); r != nil {
			ls.panicked.record(r)
			ls.nextShard.Store(sms + 1) // stop other workers
		}
	}()
	for {
		s := ls.nextShard.Add(1) - 1
		if s >= sms {
			return
		}
		d.runShard(int(s))
	}
}

// runShard simulates every block of one SM, in ascending block order.
func (d *Device) runShard(si int) {
	ls := &d.ls
	sh := &d.shards[si]
	sms := int64(d.Prof.SMs)
	for bi := int64(si); bi < ls.cfg.Blocks; bi += sms {
		if ls.nextShard.Load() > sms { // a sibling worker panicked
			return
		}
		sh.smCycles += d.runBlock(sh, bi) + d.Prof.BlockOverhead
	}
}

// runBlock executes one block's warps and returns the block's cycle
// count (the slowest warp).
func (d *Device) runBlock(sh *shard, blockIdx int64) int64 {
	ls := &d.ls
	bc := &sh.bc
	bc.begin(d, sh, ls.warpsPerBlock, ls.cfg)
	W := ls.warpsPerBlock
	if !ls.cfg.NeedsBarrier {
		// Sequential fast path: one warp at a time against the shard's
		// own view, all cost-model state plain.
		var maxCycles int64
		for wi := 0; wi < W; wi++ {
			w := bc.warps[wi]
			w.reset(blockIdx, &sh.view)
			ls.kern(w)
			sh.stats.Add(w.stats)
			if w.cycles > maxCycles {
				maxCycles = w.cycles
			}
		}
		return maxCycles + bc.sharedSerial(d)
	}
	// Barrier kernels run the block's warps as coroutines (iter.Pull)
	// that hand control to each other directly at Sync points: a warp
	// arriving at a barrier resumes the next sibling that has not
	// arrived yet, and whichever warp completes the rendezvous aligns
	// the cycle counters and continues straight into the next phase.
	// Exactly one warp executes at any moment and the hand-off order is
	// a pure function of the arrival bookkeeping, so every piece of
	// cost-model and functional state stays plain and the simulation is
	// deterministic by construction. Each suspension is one coroutine
	// switch on this same goroutine — no scheduler round-trip, channel,
	// futex, or pool dispatch anywhere in a barrier block.
	bc.teamN = W
	for wi := 0; wi < W; wi++ {
		bc.warps[wi].reset(blockIdx, &sh.view)
	}
	if W == 1 {
		// One warp rendezvouses with itself; skip the machinery.
		w := bc.warps[0]
		ls.kern(w)
		sh.stats.Add(w.stats)
		return w.cycles + bc.sharedSerial(d)
	}
	d.ensureCoros(W)
	d.teamBlock = bc
	bc.teamLive = W
	bc.arrivedN = 0
	bc.syncSeq = 0
	bc.syncMax = 0
	bc.aborted = false
	bc.panicked.reset()
	if d.runTeam(bc) {
		d.clearCoros(bc)
		bc.panicked.rethrow()
	}
	var maxCycles int64
	for wi := 0; wi < W; wi++ {
		w := bc.warps[wi]
		sh.stats.Add(w.stats)
		if w.cycles > maxCycles {
			maxCycles = w.cycles
		}
	}
	return maxCycles + bc.sharedSerial(d)
}

// warpCoro is one persistent warp coroutine: a pull iterator whose
// body executes the current block's warp of its slot, suspending at
// every Sync it waits out and once more between blocks. detached means
// the coroutine is suspended at a yield and may be resumed with next;
// the warps currently holding or forwarding control are not (they are
// blocked inside their own next calls and resume when their target
// suspends). A zero warpCoro means the slot needs (re)creation — after
// an aborted block, or before the slot's first barrier block.
type warpCoro struct {
	next     func() (struct{}, bool)
	stop     func()
	detached bool
}

// ensureCoros makes slots [0, n) runnable.
func (d *Device) ensureCoros(n int) {
	for len(d.coros) < n {
		d.coros = append(d.coros, warpCoro{})
	}
	for wi := 0; wi < n; wi++ {
		if d.coros[wi].next == nil {
			d.coros[wi] = d.makeCoro(wi)
		}
	}
}

func (d *Device) makeCoro(wi int) warpCoro {
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		for {
			d.coros[wi].detached = false
			b := d.teamBlock
			w := b.warps[wi]
			w.yield = yield
			d.ls.kern(w)
			w.done = true
			b.teamLive--
			if b.arrivedN > 0 && !b.aborted {
				// Siblings are parked at a barrier this warp will never
				// reach: real hardware would hang.
				b.panicked.record("gpusim: Sync divergence: a sibling warp retired without reaching the barrier")
				b.aborted = true
			}
			// Block boundary: suspend until the next barrier block (or
			// exit when stopped).
			d.coros[wi].detached = true
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return warpCoro{next: next, stop: stop, detached: true}
}

// Close stops the device's persistent warp coroutines. A device that
// has run a barrier kernel keeps one suspended coroutine per warp slot
// between launches, and each holds the device reachable, so a device
// that is dropped without Close leaks those goroutines and its cost
// tables with them. Call it once no launch is in flight; the device
// stays usable (the next barrier launch recreates the coroutines), and
// closing twice is harmless.
func (d *Device) Close() {
	for wi, c := range d.coros {
		if c.stop != nil {
			c.stop()
		}
		d.coros[wi] = warpCoro{}
	}
}

// runTeam drives the block until every warp retires. Control moves
// between the warps themselves at Sync points; the manager only injects
// it, and regains it when the whole control chain has suspended — at
// which point every unfinished warp is detached, so resuming the first
// one is always legal. Returns true when the block aborted (a kernel
// panic, a guard abort, or barrier divergence, recorded in
// bc.panicked); surviving coroutines are then still suspended
// mid-kernel and must be killed with clearCoros. Panics inside a warp
// propagate through the chain of pending next calls (killing each
// forwarding coroutine) and surface here — like a CUDA error reported
// on the host thread.
func (d *Device) runTeam(bc *block) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			bc.panicked.record(r)
			aborted = true
		}
	}()
	for {
		live := -1
		for wi := 0; wi < bc.teamN; wi++ {
			if !bc.warps[wi].done {
				live = wi
				break
			}
		}
		if live < 0 {
			return false
		}
		if bc.aborted {
			return true
		}
		d.coros[live].next()
	}
}

// clearCoros kills every team coroutine of an aborted block and empties
// the slots (ensureCoros recreates them for the next barrier block).
// Dead coroutines (the ones a panic unwound) make stop a no-op; live
// detached ones see their pending yield return false, so Sync panics
// barrierAborted inside the coroutine and the panic surfaces here —
// recorded, not rethrown, so the original cause (a guard abort in
// particular) keeps priority in panicked.rethrow.
func (d *Device) clearCoros(bc *block) {
	for wi := 0; wi < bc.teamN; wi++ {
		c := d.coros[wi]
		if c.stop != nil {
			func() {
				defer func() {
					if r := recover(); r != nil {
						bc.panicked.record(r)
					}
				}()
				c.stop()
			}()
		}
		d.coros[wi] = warpCoro{}
	}
}

// completeSync finishes one rendezvous: the barrier releases when the
// slowest warp arrives, so every live warp resumes at that warp's cycle
// count.
func (b *block) completeSync() {
	for wi := 0; wi < b.teamN; wi++ {
		if w := b.warps[wi]; !w.done {
			w.cycles = b.syncMax
			w.arrived = false
		}
	}
	b.syncMax = 0
	b.arrivedN = 0
	b.syncSeq++
}

// nextPending returns the next warp (cyclically after self) that still
// has to arrive at the pending rendezvous and can be resumed, or -1
// when every such warp is busy forwarding control (the caller then
// parks and lets the chain unwind).
func (b *block) nextPending(self int) int {
	for i := 1; i < b.teamN; i++ {
		wi := (self + i) % b.teamN
		if b.d.coros[wi].detached && !b.warps[wi].done && !b.warps[wi].arrived {
			return wi
		}
	}
	return -1
}

// panicSlot collects concurrent worker panics and rethrows one, with
// guard aborts preferred: when a canceled warp's abort breaks the block
// barrier, its sibling warps panic too ("barrier aborted"), and whichever
// lands first would otherwise decide whether the run is filed as a
// cancellation or a crash.
type panicSlot struct {
	mu           sync.Mutex
	abort, other any
}

func (s *panicSlot) record(r any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := guard.AbortError(r); ok {
		if s.abort == nil {
			s.abort = r
		}
	} else if s.other == nil {
		s.other = r
	}
}

func (s *panicSlot) rethrow() {
	s.mu.Lock()
	abort, other := s.abort, s.other
	s.mu.Unlock()
	if abort != nil {
		panic(abort)
	}
	if other != nil {
		panic(other)
	}
}

// reset clears the slot for reuse. Call only from the owning goroutine
// at a point ordered after any recording workers have joined.
func (s *panicSlot) reset() { s.abort, s.other = nil, nil }

// sharedSerial is the block-critical-path cost of its shared atomics.
func (b *block) sharedSerial(d *Device) int64 {
	n := b.sharedAtomicsN
	if n <= 1 {
		return 0
	}
	return (n - 1) * d.Prof.SharedSerialCost
}

// sharedSlab is one reusable shared-memory array, re-registered (and
// re-zeroed) per block via the generation counter.
type sharedSlab struct {
	gen  uint64
	live byte // 0 none, 'i' int64, 'u' uint32
	i64  []int64
	u32  []uint32
}

// block is the reusable per-block state: the warps, shared memory, and
// the barrier-team bookkeeping. One lives in each shard and is recycled
// for every block the shard runs. All fields are plain: exactly one
// warp executes at any time on the sharded path.
type block struct {
	d  *Device
	sh *shard

	shared    []sharedSlab
	sharedGen uint64
	// sharedAtomicsN counts the block's shared-memory atomic operations;
	// they serialize on the block's critical path (SharedSerialCost).
	sharedAtomicsN int64

	warps    []*Warp
	panicked panicSlot

	// teamN is the warp count of a barrier block, 0 outside one (Sync
	// uses it to reject launches missing NeedsBarrier). teamLive counts
	// the warps that have not retired. arrivedN, syncMax, and syncSeq
	// are the pending rendezvous: how many live warps have arrived, the
	// cycle maximum so far, and how many rendezvous have completed (a
	// warp arriving at rendezvous syncSeq+1 waits until syncSeq passes
	// it). aborted stops the block after a divergence.
	teamN    int
	teamLive int
	arrivedN int
	syncMax  int64
	syncSeq  int64
	aborted  bool
}

// begin recycles the block context for the next block: shared slabs
// age out via the generation bump and the warp ring grows to the block
// shape on first use.
func (b *block) begin(d *Device, sh *shard, warpsPerBlock int, cfg LaunchCfg) {
	if b.d == nil {
		b.d, b.sh = d, sh
	}
	for len(b.warps) < warpsPerBlock {
		b.warps = append(b.warps, &Warp{d: d, blk: b, sh: sh, WarpInBlock: len(b.warps)})
	}
	for wi := 0; wi < warpsPerBlock; wi++ {
		b.warps[wi].BlockDim = cfg.ThreadsPerBlock
		b.warps[wi].GridDim = cfg.Blocks
	}
	b.sharedGen++
	b.sharedAtomicsN = 0
	b.teamN = 0
}

const barrierAborted = "gpusim: barrier aborted by a panicking warp"

// GridSize returns the block count needed for n items with the given
// items-per-block coverage: itemsPerBlock is ThreadsPerBlock for
// thread-granularity kernels, warps-per-block for warp granularity, and
// 1 for block granularity.
func GridSize(n int64, itemsPerBlock int64) int64 {
	if n <= 0 {
		return 1
	}
	return (n + itemsPerBlock - 1) / itemsPerBlock
}

// PersistentGrid returns the grid size of the persistent style: enough
// blocks to fill every SM at the profile's residency (§2.7).
func (d *Device) PersistentGrid() int64 {
	return int64(d.Prof.SMs * d.Prof.ResidentBlocks)
}
