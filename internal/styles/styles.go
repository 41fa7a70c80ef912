// Package styles is the heart of the reproduction: it models the paper's
// 13 parallelization and implementation style dimensions (§2), the
// per-algorithm applicability matrix (Table 2), and the enumeration of
// meaningful style combinations that defines the program suite (Table 3).
//
// A Config value identifies one program variant, the analog of one
// generated source file in the Indigo2 suite. Algorithm packages
// dispatch on Config fields to realize the variant.
package styles

import "strings"

// Algorithm enumerates the six graph problems of paper Table 1.
type Algorithm int

const (
	BFS Algorithm = iota
	SSSP
	CC
	MIS
	PR
	TC
	NumAlgorithms
)

func (a Algorithm) String() string {
	switch a {
	case BFS:
		return "bfs"
	case SSSP:
		return "sssp"
	case CC:
		return "cc"
	case MIS:
		return "mis"
	case PR:
		return "pr"
	case TC:
		return "tc"
	}
	return "unknown"
}

// PaperOrder lists the six algorithms in the paper's presentation order,
// the row order of every report and query rendering.
func PaperOrder() []Algorithm {
	return []Algorithm{CC, MIS, PR, TC, BFS, SSSP}
}

// Model enumerates the three programming models (§2): CUDA runs on the
// gpusim substrate, OMP and CPP on the par substrate.
type Model int

const (
	CUDA Model = iota
	OMP
	CPP
	NumModels
)

func (m Model) String() string {
	switch m {
	case CUDA:
		return "cuda"
	case OMP:
		return "omp"
	case CPP:
		return "cpp"
	}
	return "unknown"
}

// Iterate: vertex-based vs edge-based (§2.1).
type Iterate int

const (
	VertexBased Iterate = iota
	EdgeBased
)

func (v Iterate) String() string {
	if v == VertexBased {
		return "vertex"
	}
	return "edge"
}

// Drive: topology-driven vs data-driven, the latter split by the
// duplicates-in-worklist style (§2.2, §2.3).
type Drive int

const (
	TopologyDriven Drive = iota
	DataDrivenDup
	DataDrivenNoDup
)

func (d Drive) String() string {
	switch d {
	case TopologyDriven:
		return "topo"
	case DataDrivenDup:
		return "data-dup"
	case DataDrivenNoDup:
		return "data-nodup"
	}
	return "unknown"
}

// IsDataDriven reports whether d uses a worklist.
func (d Drive) IsDataDriven() bool { return d != TopologyDriven }

// Flow: push vs pull data flow (§2.4).
type Flow int

const (
	Push Flow = iota
	Pull
)

func (f Flow) String() string {
	if f == Push {
		return "push"
	}
	return "pull"
}

// Update: read-write vs read-modify-write (§2.5).
type Update int

const (
	ReadWrite Update = iota
	ReadModifyWrite
)

func (u Update) String() string {
	if u == ReadWrite {
		return "rw"
	}
	return "rmw"
}

// Det: internally deterministic vs non-deterministic (§2.6).
type Det int

const (
	NonDeterministic Det = iota
	Deterministic
)

func (d Det) String() string {
	if d == NonDeterministic {
		return "nondet"
	}
	return "det"
}

// Persist: persistent vs non-persistent GPU threads (§2.7).
type Persist int

const (
	NonPersistent Persist = iota
	Persistent
)

func (p Persist) String() string {
	if p == NonPersistent {
		return "npers"
	}
	return "pers"
}

// Gran: thread vs warp vs block work granularity on the GPU (§2.8).
type Gran int

const (
	ThreadGran Gran = iota
	WarpGran
	BlockGran
)

func (g Gran) String() string {
	switch g {
	case ThreadGran:
		return "thread"
	case WarpGran:
		return "warp"
	case BlockGran:
		return "block"
	}
	return "unknown"
}

// Atomics: classic CUDA atomics vs default libcu++ CudaAtomics (§2.9).
type Atomics int

const (
	ClassicAtomic Atomics = iota
	CudaAtomic
)

func (a Atomics) String() string {
	if a == ClassicAtomic {
		return "atomic"
	}
	return "cudaatomic"
}

// GPURed: GPU sum-reduction style (§2.10.1), TC and PR only.
type GPURed int

const (
	GlobalAdd GPURed = iota
	BlockAdd
	ReductionAdd
)

func (r GPURed) String() string {
	switch r {
	case GlobalAdd:
		return "global-add"
	case BlockAdd:
		return "block-add"
	case ReductionAdd:
		return "reduction-add"
	}
	return "unknown"
}

// CPURed: CPU sum-reduction style (§2.10.2), TC and PR only.
type CPURed int

const (
	AtomicRed CPURed = iota
	CriticalRed
	ClauseRed
)

func (r CPURed) String() string {
	switch r {
	case AtomicRed:
		return "atomic-red"
	case CriticalRed:
		return "critical-red"
	case ClauseRed:
		return "clause-red"
	}
	return "unknown"
}

// OMPSched: default vs dynamic loop scheduling in the OMP model (§2.11).
type OMPSched int

const (
	DefaultSched OMPSched = iota
	DynamicSched
)

func (s OMPSched) String() string {
	if s == DefaultSched {
		return "default"
	}
	return "dynamic"
}

// CPPSched: blocked vs cyclic scheduling in the CPP model (§2.12).
type CPPSched int

const (
	BlockedSched CPPSched = iota
	CyclicSched
)

func (s CPPSched) String() string {
	if s == BlockedSched {
		return "blocked"
	}
	return "cyclic"
}

// Config identifies one program variant: an algorithm, a programming
// model, and a value for every style dimension that applies. Dimensions
// that do not apply to the algorithm/model hold their zero value and are
// omitted from Name.
type Config struct {
	Algo  Algorithm
	Model Model

	Iterate Iterate
	Drive   Drive
	Flow    Flow
	Update  Update
	Det     Det

	// GPU-only dimensions.
	Persist Persist
	Gran    Gran
	Atomics Atomics
	GPURed  GPURed

	// CPU-only dimensions.
	CPURed   CPURed
	OMPSched OMPSched
	CPPSched CPPSched
}

// Name returns the canonical variant name, e.g.
// "sssp/cuda/vertex/topo/push/rmw/nondet/thread/npers/atomic".
// Only applicable dimensions appear.
func (c Config) Name() string {
	parts := []string{c.Algo.String(), c.Model.String()}
	for _, d := range Dims {
		if d.Applies(c) {
			parts = append(parts, d.Value(c))
		}
	}
	return strings.Join(parts, "/")
}
