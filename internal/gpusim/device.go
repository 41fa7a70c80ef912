package gpusim

import (
	"fmt"
	"math"

	"indigo/internal/guard"
	"indigo/internal/trace"
)

// atomSlots is the size of the hashed same-address atomic-pressure
// table (collisions merge conservatively, as before).
const atomSlots = 1 << 12

// Tag entries pack (epoch << epochShift) | segment so a whole tag view
// invalidates with one epoch bump: entries written under an older epoch
// simply stop matching. 24 epoch bits leave 40 segment bits — 128 TiB
// of simulated address space — and the epoch wraps by falling back to a
// real clear, so a false hit is impossible.
const (
	epochBits  = 24
	epochShift = 64 - epochBits
	segMask    = 1<<epochShift - 1
	epochMax   = 1<<epochBits - 1
)

// tagView is one private direct-mapped L2 tag array: the deterministic
// slice of the L2 owned by one SM, persisting across blocks and
// launches. Exactly one warp executes against a view at any time (the
// sequential block path and the coroutine barrier path both serialize
// warps), so probes are plain loads and stores.
type tagView struct {
	tags  []uint64
	mask  uint64
	epoch uint64
	// dirty means at least one tag was written in the current epoch,
	// so FlushL2 can skip views that are already empty.
	dirty bool
}

func (v *tagView) init(slots uint64) {
	v.tags = make([]uint64, slots)
	v.mask = slots - 1
	v.epoch = 1
}

// probe looks up seg, installs it on a miss, and reports the hit.
func (v *tagView) probe(seg uint64) bool {
	slot := seg & v.mask
	want := v.epoch<<epochShift | seg&segMask
	if v.tags[slot] == want {
		return true
	}
	v.tags[slot] = want
	v.dirty = true
	return false
}

// invalidate empties the view in O(1) by starting a fresh epoch.
func (v *tagView) invalidate() {
	if v.epoch == epochMax {
		clear(v.tags)
		v.epoch = 0
	}
	v.epoch++
	v.dirty = false
}

// shard is the cost-model state of one SM. The deterministic block→SM
// mapping (block bi runs on SM bi % SMs) makes each shard's inputs a
// pure function of the launch, so shards need no synchronization: one
// host worker owns a shard at a time and processes its blocks in
// ascending order.
type shard struct {
	// view is the SM's slice of the L2 tag model.
	view tagView
	// stats and smCycles accumulate over the launch and are collected
	// (and cleared) single-threaded at launch end, in shard order.
	stats    Stats
	smCycles int64
	// bc is the shard's reusable block context (warps, barrier, shared
	// memory slabs): a multi-launch algorithm's hundreds of launches
	// allocate nothing here after warm-up.
	bc block
}

// Device is one simulated GPU: a profile, a fake global address space
// for coalescing/caching, and the sharded cost model. A Device may run
// many kernels; allocate arrays once and launch repeatedly. Simulated
// Stats are deterministic: a pure function of (kernel, graph, profile),
// independent of GOMAXPROCS and host scheduling.
type Device struct {
	Prof Profile

	nextAddr   uint64
	shardSlots uint64
	shards     []shard
	// atom counts same-address atomic pressure, with plain increments
	// (execution on the sharded path is fully serial, so one global
	// table serves every SM and stays hot in cache). atomTouched and
	// atomCursor index the nonzero slots so the launch-end drain is
	// O(footprint), not a 4096-slot scan.
	atom        []int64
	atomTouched []int32
	atomCursor  int32
	ls          launchScratch
	// coros are the persistent warp coroutines for barrier blocks, one
	// per warp slot, reused across blocks and launches (see launch.go).
	// teamBlock is the block they are currently executing.
	coros     []warpCoro
	teamBlock *block
	// gd, when non-nil, makes kernels cooperatively cancelable: Launch
	// polls it per launch (which checkpoints every outer round of the
	// multi-launch algorithms) and each warp polls it every
	// guardPollCycles simulated cycles inside a kernel.
	gd *guard.Token
	// tc, when live, is the parent span Launch records per-launch child
	// spans under (kernel name, blocks, cycles). Installed alongside the
	// guard by runner.RunGPU; the zero value disables launch tracing.
	tc trace.Ctx
}

// SetGuard installs (or, with nil, removes) the guard token subsequent
// launches run under. Call it from the launching goroutine before
// Launch.
func (d *Device) SetGuard(gd *guard.Token) { d.gd = gd }

// SetTrace installs (or, with the zero Ctx, removes) the trace span
// subsequent launches record under. Call it from the launching
// goroutine before Launch, like SetGuard.
func (d *Device) SetTrace(tc trace.Ctx) { d.tc = tc }

// New creates a device with the given profile.
func New(p Profile) *Device {
	segs := uint64(p.L2Bytes) / segBytes / uint64(p.SMs)
	// Round down to a power of two for cheap indexing.
	for segs&(segs-1) != 0 {
		segs &= segs - 1
	}
	if segs == 0 {
		segs = 1
	}
	d := &Device{Prof: p, nextAddr: segBytes, shardSlots: segs}
	d.shards = make([]shard, p.SMs)
	for i := range d.shards {
		d.shards[i].view.init(segs)
	}
	d.atom = make([]int64, atomSlots)
	d.atomTouched = make([]int32, atomSlots)
	return d
}

// atomHit records weight units of atomic pressure on addr (CudaAtomics
// weigh CudaAtomicFactor because their seq_cst system-scope RMWs hold
// the L2 atomic unit far longer).
func (w *Warp) atomHit(addr uint64, weight int64) {
	h := addr * 0x9e3779b97f4a7c15 >> 52 // top 12 bits
	d := w.d
	if d.atom[h] == 0 {
		d.atomTouched[d.atomCursor] = int32(h)
		d.atomCursor++
	}
	d.atom[h] += weight
}

// drainAtomics returns the launch's maximum same-address pressure and
// resets the table. Runs single-threaded at launch end; only touched
// slots are visited.
func (d *Device) drainAtomics() int64 {
	var max int64
	for _, h := range d.atomTouched[:d.atomCursor] {
		if c := d.atom[h]; c > max {
			max = c
		}
		d.atom[h] = 0
	}
	d.atomCursor = 0
	if max > 0 {
		max-- // the first atomic is already charged in-line
	}
	return max
}

// FlushL2 invalidates the cache model (used between independent runs so
// timings do not leak across experiments). Tag shards that are already
// empty are skipped.
func (d *Device) FlushL2() {
	for i := range d.shards {
		if v := &d.shards[i].view; v.dirty {
			v.invalidate()
		}
	}
}

// Reset returns the device to its post-New state so it can be reused
// across independent runs with bit-identical Stats: the fake address
// space restarts (any arrays from earlier runs are dead), the L2 model
// flushes, and cost-model state left by an aborted launch is cleared.
func (d *Device) Reset() {
	d.nextAddr = segBytes
	d.FlushL2()
	d.drainAtomics()
	for i := range d.shards {
		sh := &d.shards[i]
		sh.stats = Stats{}
		sh.smCycles = 0
	}
}

// transactions returns the coalesced transaction count of the byte
// range [lo, hi): one per 128-byte segment touched. The empty range
// returns 0 (hi == 0 previously underflowed in the (hi-1)/segBytes
// bound).
func transactions(lo, hi uint64) int64 {
	if hi <= lo {
		return 0
	}
	return int64((hi-1)/segBytes - lo/segBytes + 1)
}

func (d *Device) alloc(bytes int64) uint64 {
	base := d.nextAddr
	d.nextAddr += uint64((bytes + segBytes - 1) / segBytes * segBytes)
	return base
}

// I32 is a device array of int32.
type I32 struct {
	base uint64
	data []int32
}

// AllocI32 allocates a zeroed device int32 array.
func (d *Device) AllocI32(n int64) *I32 {
	return &I32{base: d.alloc(n * 4), data: make([]int32, n)}
}

// Len returns the element count.
func (a *I32) Len() int64 { return int64(len(a.data)) }

// Host returns the backing storage for host-side initialization and
// result readback (the cudaMemcpy analog). Host access during a running
// kernel is undefined, as on hardware.
func (a *I32) Host() []int32 { return a.data }

func (a *I32) addr(i int64) uint64 { return a.base + uint64(i)*4 }

// SwapI32 exchanges two device arrays (the host-side pointer swap used
// by double-buffered kernels).
func SwapI32(a, b *I32) {
	a.base, b.base = b.base, a.base
	a.data, b.data = b.data, a.data
}

// UploadI32 allocates a device array holding a copy of src.
func (d *Device) UploadI32(src []int32) *I32 {
	a := d.AllocI32(int64(len(src)))
	copy(a.data, src)
	return a
}

// I64 is a device array of int64 (used for CSR row offsets and count
// accumulators).
type I64 struct {
	base uint64
	data []int64
}

// AllocI64 allocates a zeroed device int64 array.
func (d *Device) AllocI64(n int64) *I64 {
	return &I64{base: d.alloc(n * 8), data: make([]int64, n)}
}

// Len returns the element count.
func (a *I64) Len() int64 { return int64(len(a.data)) }

// Host returns the backing storage (see I32.Host).
func (a *I64) Host() []int64 { return a.data }

func (a *I64) addr(i int64) uint64 { return a.base + uint64(i)*8 }

// UploadI64 allocates a device array holding a copy of src.
func (d *Device) UploadI64(src []int64) *I64 {
	a := d.AllocI64(int64(len(src)))
	copy(a.data, src)
	return a
}

// F32 is a device array of float32, stored as bits (the raw word the
// simulated float atomics operate on).
type F32 struct {
	base uint64
	data []uint32
}

// AllocF32 allocates a zeroed device float32 array.
func (d *Device) AllocF32(n int64) *F32 {
	return &F32{base: d.alloc(n * 4), data: make([]uint32, n)}
}

// Len returns the element count.
func (a *F32) Len() int64 { return int64(len(a.data)) }

// HostGet / HostSet access one element from the host.
func (a *F32) HostGet(i int64) float32    { return math.Float32frombits(a.data[i]) }
func (a *F32) HostSet(i int64, v float32) { a.data[i] = math.Float32bits(v) }

// HostSlice copies the array to a new host slice.
func (a *F32) HostSlice() []float32 {
	out := make([]float32, len(a.data))
	for i := range a.data {
		out[i] = math.Float32frombits(a.data[i])
	}
	return out
}

func (a *F32) addr(i int64) uint64 { return a.base + uint64(i)*4 }

// String identifies the device in reports.
func (d *Device) String() string {
	return fmt.Sprintf("%s (%d SMs, %.2f GHz)", d.Prof.Name, d.Prof.SMs, d.Prof.ClockGHz)
}
