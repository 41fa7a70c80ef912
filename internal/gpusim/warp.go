package gpusim

import "math"

// Warp is the execution context handed to kernels: one 32-lane warp,
// with its position in the block and grid, its cycle counter, and the
// device operation set.
//
// Warps execute one at a time (the sequential block path runs them
// straight through; barrier blocks interleave them at Sync points as
// coroutines), so every memory operation and every cost charge is a
// plain operation, and simulated results never depend on host
// interleaving.
type Warp struct {
	d           *Device
	blk         *block
	sh          *shard
	WarpInBlock int
	BlockIdx    int64
	BlockDim    int
	GridDim     int64

	cycles int64
	stats  Stats
	// nextPoll is the cycle count at which Op next polls the device's
	// guard token. Every simulated operation funnels through Op, so this
	// bounds how much simulated work a canceled kernel can still do
	// without adding a branch to each memory-op helper.
	nextPoll int64
	// yield suspends this warp's coroutine (set per block in barrier
	// launches; see launch.go). done marks the warp retired from the
	// current block's kernel; arrived marks it waiting at the pending
	// rendezvous.
	yield   func(struct{}) bool
	done    bool
	arrived bool

	// view is the L2 tag view this warp charges (its shard's).
	view *tagView
}

// reset recycles the warp for the next block.
func (w *Warp) reset(blockIdx int64, view *tagView) {
	w.BlockIdx = blockIdx
	w.cycles = 0
	w.stats = Stats{}
	w.nextPoll = 0
	w.done = false
	w.arrived = false
	w.view = view
}

// Gidx returns the global thread index of the given lane, the paper's
// "gidx" (threadIdx.x + blockIdx.x * blockDim.x).
func (w *Warp) Gidx(lane int) int64 {
	return w.BlockIdx*int64(w.BlockDim) + int64(w.WarpInBlock*WarpSize+lane)
}

// GlobalWarp returns this warp's index within the grid.
func (w *Warp) GlobalWarp() int64 {
	return w.BlockIdx*int64(w.BlockDim/WarpSize) + int64(w.WarpInBlock)
}

// TotalThreads returns the grid's thread count (for grid-stride loops).
func (w *Warp) TotalThreads() int64 { return w.GridDim * int64(w.BlockDim) }

// TotalWarps returns the grid's warp count.
func (w *Warp) TotalWarps() int64 { return w.GridDim * int64(w.BlockDim/WarpSize) }

// Cycles returns the warp's current cycle count (for tests).
func (w *Warp) Cycles() int64 { return w.cycles }

// guardPollCycles is how many simulated cycles a warp runs between guard
// polls: frequent enough that a canceled multi-second kernel stops in
// microseconds of host time, rare enough to vanish in simulation cost.
// Polling is hoisted to these cycle-stride boundaries the same way
// internal/par amortizes its region polls.
const guardPollCycles = 1 << 16

// Op charges n warp instructions of plain ALU work.
func (w *Warp) Op(n int64) {
	w.cycles += n * w.d.Prof.Issue
	w.stats.Instructions += n
	if w.cycles >= w.nextPoll {
		w.nextPoll = w.cycles + guardPollCycles
		w.d.gd.Poll()
	}
}

// access charges one global-memory transaction for the segment holding
// addr against the warp's tag view.
func (w *Warp) access(addr uint64) {
	w.stats.Transactions++
	if w.view.probe(addr / segBytes) {
		w.cycles += w.d.Prof.L2HitCost
		w.stats.L2Hits++
	} else {
		w.cycles += w.d.Prof.DRAMCost
		w.stats.L2Misses++
	}
}

// --- Scalar (single-lane, uncoalesced) global memory operations. ---
//
// Execution is completely serialized (shards run in order on the
// launching goroutine, and a barrier block's warps take turns as
// coroutines), so functional loads, stores and read-modify-writes are
// plain memory operations.

// LdI32 loads a[i] as one lane's uncoalesced access: a full transaction.
func (w *Warp) LdI32(a *I32, i int64) int32 {
	w.Op(1)
	w.access(a.addr(i))
	return a.data[i]
}

// StI32 stores a[i] = v as one lane's uncoalesced access.
func (w *Warp) StI32(a *I32, i int64, v int32) {
	w.Op(1)
	w.access(a.addr(i))
	a.data[i] = v
}

// LdI64 loads a[i] (uncoalesced).
func (w *Warp) LdI64(a *I64, i int64) int64 {
	w.Op(1)
	w.access(a.addr(i))
	return a.data[i]
}

// StI64 stores a[i] = v (uncoalesced).
func (w *Warp) StI64(a *I64, i int64, v int64) {
	w.Op(1)
	w.access(a.addr(i))
	a.data[i] = v
}

// LdF32 loads a[i] (uncoalesced).
func (w *Warp) LdF32(a *F32, i int64) float32 {
	w.Op(1)
	w.access(a.addr(i))
	return math.Float32frombits(a.data[i])
}

// StF32 stores a[i] = v (uncoalesced).
func (w *Warp) StF32(a *F32, i int64, v float32) {
	w.Op(1)
	w.access(a.addr(i))
	a.data[i] = math.Float32bits(v)
}

// --- Coalesced vector operations: the warp's lanes access the
// contiguous range [base, base+count), which coalesces into
// ceil(count*elemsize/128) transactions. ---

// coalCharge charges the transactions of a contiguous byte range in one
// batched segment-range walk: the tags still update per segment, but
// the cycle and stat accounting lands once for the whole range.
func (w *Warp) coalCharge(lo, hi uint64) {
	w.Op(1)
	n := transactions(lo, hi)
	if n == 0 {
		return
	}
	var hits int64
	segHi := (hi - 1) / segBytes
	for seg := lo / segBytes; seg <= segHi; seg++ {
		if w.view.probe(seg) {
			hits++
		}
	}
	misses := n - hits
	w.cycles += hits*w.d.Prof.L2HitCost + misses*w.d.Prof.DRAMCost
	w.stats.Transactions += n
	w.stats.L2Hits += hits
	w.stats.L2Misses += misses
}

// CoalLdI32 loads a[base+lane] for lanes [0, count) in one coalesced
// access.
func (w *Warp) CoalLdI32(a *I32, base int64, count int) [WarpSize]int32 {
	var out [WarpSize]int32
	if count <= 0 {
		return out
	}
	w.coalCharge(a.addr(base), a.addr(base+int64(count)))
	copy(out[:count], a.data[base:base+int64(count)])
	return out
}

// CoalStI32 stores a[base+lane] = vals[lane] for lanes [0, count).
func (w *Warp) CoalStI32(a *I32, base int64, count int, vals *[WarpSize]int32) {
	if count <= 0 {
		return
	}
	w.coalCharge(a.addr(base), a.addr(base+int64(count)))
	copy(a.data[base:base+int64(count)], vals[:count])
}

// CoalLdI64 loads a[base+lane] for lanes [0, count) in one coalesced
// access (two transactions per 32 lanes at 8 bytes each).
func (w *Warp) CoalLdI64(a *I64, base int64, count int) [WarpSize]int64 {
	var out [WarpSize]int64
	if count <= 0 {
		return out
	}
	w.coalCharge(a.addr(base), a.addr(base+int64(count)))
	copy(out[:count], a.data[base:base+int64(count)])
	return out
}

// CoalLdF32 loads a[base+lane] for lanes [0, count).
func (w *Warp) CoalLdF32(a *F32, base int64, count int) [WarpSize]float32 {
	var out [WarpSize]float32
	if count <= 0 {
		return out
	}
	w.coalCharge(a.addr(base), a.addr(base+int64(count)))
	for l := 0; l < count; l++ {
		out[l] = math.Float32frombits(a.data[base+int64(l)])
	}
	return out
}

// CoalStF32 stores a[base+lane] = vals[lane] for lanes [0, count).
func (w *Warp) CoalStF32(a *F32, base int64, count int, vals *[WarpSize]float32) {
	if count <= 0 {
		return
	}
	w.coalCharge(a.addr(base), a.addr(base+int64(count)))
	for l := 0; l < count; l++ {
		a.data[base+int64(l)] = math.Float32bits(vals[l])
	}
}

// --- Classic atomics: device scope, relaxed ordering (§2.9). ---

// rmwMinI32 / rmwMaxI32 / rmwAddI32 / rmwAddI64 / rmwAddF32 apply the
// simulated RMW as plain host operations (execution is serialized).

func rmwMinI32(p *int32, v int32) int32 {
	old := *p
	if v < old {
		*p = v
	}
	return old
}

func rmwMaxI32(p *int32, v int32) int32 {
	old := *p
	if v > old {
		*p = v
	}
	return old
}

func rmwAddI32(p *int32, v int32) int32 {
	old := *p
	*p = old + v
	return old
}

func rmwAddI64(p *int64, v int64) int64 {
	old := *p
	*p = old + v
	return old
}

func rmwAddF32(p *uint32, v float32) {
	*p = math.Float32bits(math.Float32frombits(*p) + v)
}

func (w *Warp) atomCharge(addr uint64) {
	w.Op(1)
	w.cycles += w.d.Prof.AtomicCost
	w.stats.Atomics++
	w.atomHit(addr, 1)
}

// AtomicMinI32 atomically lowers a[i] to v and returns the old value.
func (w *Warp) AtomicMinI32(a *I32, i int64, v int32) int32 {
	w.atomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwMinI32(&a.data[i], v)
}

// AtomicMaxI32 atomically raises a[i] to v and returns the old value.
func (w *Warp) AtomicMaxI32(a *I32, i int64, v int32) int32 {
	w.atomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwMaxI32(&a.data[i], v)
}

// AtomicAddI32 atomically adds v to a[i] and returns the old value.
func (w *Warp) AtomicAddI32(a *I32, i int64, v int32) int32 {
	w.atomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwAddI32(&a.data[i], v)
}

// AtomicAddI64 atomically adds v to a[i] and returns the old value.
func (w *Warp) AtomicAddI64(a *I64, i int64, v int64) int64 {
	w.atomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwAddI64(&a.data[i], v)
}

// AtomicAddF32 atomically adds v to a[i].
func (w *Warp) AtomicAddF32(a *F32, i int64, v float32) {
	w.atomCharge(a.addr(i))
	w.access(a.addr(i))
	rmwAddF32(&a.data[i], v)
}

// --- Default libcu++ CudaAtomics: system scope, seq_cst (§2.9). The
// factor-scaled cost applies to the RMW operations and to load()/
// store(), which is why codes that read and write shared data through
// cuda::atomic slow down so much more than ones that only atomicAdd. ---

func (w *Warp) cudaAtomCharge(addr uint64) {
	w.Op(1)
	w.cycles += w.d.Prof.AtomicCost * w.d.Prof.CudaAtomicFactor
	w.stats.Atomics++
	w.atomHit(addr, w.d.Prof.CudaAtomicFactor)
}

// CudaAtomicMinI32 is AtomicMinI32 through a default cuda::atomic.
func (w *Warp) CudaAtomicMinI32(a *I32, i int64, v int32) int32 {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwMinI32(&a.data[i], v)
}

// CudaAtomicMaxI32 is AtomicMaxI32 through a default cuda::atomic.
func (w *Warp) CudaAtomicMaxI32(a *I32, i int64, v int32) int32 {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwMaxI32(&a.data[i], v)
}

// CudaAtomicAddI32 is AtomicAddI32 through a default cuda::atomic.
func (w *Warp) CudaAtomicAddI32(a *I32, i int64, v int32) int32 {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwAddI32(&a.data[i], v)
}

// CudaAtomicAddI64 is AtomicAddI64 through a default cuda::atomic.
func (w *Warp) CudaAtomicAddI64(a *I64, i int64, v int64) int64 {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	return rmwAddI64(&a.data[i], v)
}

// CudaLdI32 is a cuda::atomic load() with default (seq_cst) ordering.
func (w *Warp) CudaLdI32(a *I32, i int64) int32 {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	return a.data[i]
}

// CudaStI32 is a cuda::atomic store() with default (seq_cst) ordering.
func (w *Warp) CudaStI32(a *I32, i int64, v int32) {
	w.cudaAtomCharge(a.addr(i))
	w.access(a.addr(i))
	a.data[i] = v
}

// --- Warp primitives. ---

// shuffleSteps is the log2(WarpSize) butterfly depth of a warp
// reduction.
const shuffleSteps = 5

// WarpReduceAddI64 sums the lanes' values with shuffle operations.
func (w *Warp) WarpReduceAddI64(vals *[WarpSize]int64) int64 {
	w.Op(shuffleSteps)
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return sum
}

// WarpReduceAddF32 sums the lanes' values with shuffle operations.
func (w *Warp) WarpReduceAddF32(vals *[WarpSize]float32) float32 {
	w.Op(shuffleSteps)
	var sum float32
	for _, v := range vals {
		sum += v
	}
	return sum
}

// WarpReduceMinI64 returns the lanes' minimum with shuffle operations.
func (w *Warp) WarpReduceMinI64(vals *[WarpSize]int64) int64 {
	w.Op(shuffleSteps)
	min := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// DivergentRanges charges the lockstep cost of the thread-granularity
// inner loop: lanes own ranges [beg[l], end[l]) and the warp executes
// max-length steps (§2.8), then runs body per lane and element. Memory
// operations inside body charge themselves.
func (w *Warp) DivergentRanges(count int, beg, end *[WarpSize]int64, opsPerStep int64, body func(lane int, e int64)) {
	var maxLen int64
	for l := 0; l < count; l++ {
		if n := end[l] - beg[l]; n > maxLen {
			maxLen = n
		}
	}
	w.Op(maxLen * opsPerStep)
	for l := 0; l < count; l++ {
		for e := beg[l]; e < end[l]; e++ {
			body(l, e)
		}
	}
}

// --- Shared memory and block-scope operations. ---

// SharedI64 returns the block's shared int64 array registered under
// tag, allocating it on first use (and recycling the slab, zeroed, on
// every later block). Access costs are charged per call site by the
// block atomic helpers.
func (w *Warp) SharedI64(tag int, n int) []int64 {
	b := w.blk
	for len(b.shared) <= tag {
		b.shared = append(b.shared, sharedSlab{})
	}
	s := &b.shared[tag]
	if s.gen == b.sharedGen {
		if s.live != 'i' {
			panic("gpusim: shared tag registered with a different element type")
		}
		return s.i64
	}
	s.gen = b.sharedGen
	s.live = 'i'
	if cap(s.i64) < n {
		s.i64 = make([]int64, n)
	} else {
		s.i64 = s.i64[:n]
		clear(s.i64)
	}
	return s.i64
}

// SharedU32 returns the block's shared uint32 array (float bits or
// plain words) registered under tag.
func (w *Warp) SharedU32(tag int, n int) []uint32 {
	b := w.blk
	for len(b.shared) <= tag {
		b.shared = append(b.shared, sharedSlab{})
	}
	s := &b.shared[tag]
	if s.gen == b.sharedGen {
		if s.live != 'u' {
			panic("gpusim: shared tag registered with a different element type")
		}
		return s.u32
	}
	s.gen = b.sharedGen
	s.live = 'u'
	if cap(s.u32) < n {
		s.u32 = make([]uint32, n)
	} else {
		s.u32 = s.u32[:n]
		clear(s.u32)
	}
	return s.u32
}

// BlockAtomicAddI64 is an atomicAdd_block on shared memory: block
// scope, but an arbitrated RMW rather than a plain access (§2.10.1,
// Listing 10b).
func (w *Warp) BlockAtomicAddI64(s []int64, i int, v int64) int64 {
	w.Op(1)
	w.cycles += w.d.Prof.SharedAtomicCost
	w.blk.sharedAtomicsN++
	return rmwAddI64(&s[i], v)
}

// BlockAtomicAddF32 is an atomicAdd_block on shared float32 bits.
func (w *Warp) BlockAtomicAddF32(s []uint32, i int, v float32) {
	w.Op(1)
	w.cycles += w.d.Prof.SharedAtomicCost
	w.blk.sharedAtomicsN++
	rmwAddF32(&s[i], v)
}

// SharedLdI64 reads shared memory (cheap, on-chip).
func (w *Warp) SharedLdI64(s []int64, i int) int64 {
	w.Op(1)
	w.cycles += w.d.Prof.SharedCost
	return s[i]
}

// SharedLdF32 reads shared float32 bits.
func (w *Warp) SharedLdF32(s []uint32, i int) float32 {
	w.Op(1)
	w.cycles += w.d.Prof.SharedCost
	return math.Float32frombits(s[i])
}

// StSharedF32 writes shared float32 bits.
func (w *Warp) StSharedF32(s []uint32, i int, v float32) {
	w.Op(1)
	w.cycles += w.d.Prof.SharedCost
	s[i] = math.Float32bits(v)
}

// StSharedI64 writes shared memory.
func (w *Warp) StSharedI64(s []int64, i int, v int64) {
	w.Op(1)
	w.cycles += w.d.Prof.SharedCost
	s[i] = v
}

// Sync is __syncthreads(): all warps of the block rendezvous and their
// cycle counters align to the slowest. The launch must set NeedsBarrier.
//
// On the coroutine team the rendezvous is a direct hand-off: the
// arriving warp resumes the next sibling that still has to arrive (or
// parks and lets the control chain unwind to one), and whichever warp
// arrives last completes the rendezvous and continues straight into the
// next phase. One coroutine switch per suspension, no manager
// round-trip.
func (w *Warp) Sync() {
	b := w.blk
	if b.teamN == 0 {
		panic("gpusim: Sync called in a launch without NeedsBarrier")
	}
	w.cycles += w.d.Prof.SyncCost
	if b.teamN == 1 {
		return
	}
	if w.cycles > b.syncMax {
		b.syncMax = w.cycles
	}
	w.arrived = true
	b.arrivedN++
	if b.arrivedN == b.teamLive {
		b.completeSync()
		return
	}
	seq := b.syncSeq + 1 // the rendezvous this warp is waiting out
	for b.syncSeq < seq {
		if b.aborted {
			panic(barrierAborted)
		}
		if v := b.nextPending(w.WarpInBlock); v >= 0 {
			w.d.coros[v].next()
		} else {
			w.park()
		}
	}
}

// park suspends the warp's coroutine until a sibling (or the manager)
// resumes it. A false yield means the block was stopped underneath us.
func (w *Warp) park() {
	d := w.d
	d.coros[w.WarpInBlock].detached = true
	ok := w.yield(struct{}{})
	d.coros[w.WarpInBlock].detached = false
	if !ok {
		panic(barrierAborted)
	}
}
