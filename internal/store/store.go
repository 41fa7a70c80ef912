package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"indigo/internal/graph"
	"indigo/internal/styles"
)

// Cell is one stored measurement: a style variant measured on one input
// on one device, with the input's shape signature and run metadata.
// Only successful (verified) runs become cells; failures stay in the
// sweep journal, which remains the run log of record.
type Cell struct {
	Cfg    styles.Config
	Input  string // gen input name, e.g. "road"
	Device string // "cpu" or a gpusim profile name
	Graph  graph.Stats
	Tput   float64 // giga-edges per second
	// Run metadata carried over from the supervisor.
	Attempts  int
	ElapsedMS float64
	// Simulated cost counters (codec v2), recorded for GPU cells. They
	// are deterministic — a pure function of (kernel, graph, profile) —
	// so a stored GPU cell is exact ground truth, not a sample. Zero for
	// CPU cells and for cells imported from pre-v3 journals.
	SimCycles       int64
	SimInstructions int64
	SimTransactions int64
}

// Key is the cell's merge identity: one measurement per (variant,
// input, device) survives, matching the sweep journal's resume keying.
func (c Cell) Key() string {
	return c.Cfg.Name() + "|" + c.Input + "|" + c.Device
}

// Store is an append-only results store. In memory the cells live as
// parallel columns; on disk each append is one checksummed frame. A
// re-appended key overwrites its row in place (last write wins, like
// the journal's resume map) while the file keeps the full history.
//
// Store is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	f    *os.File // nil for an in-memory store
	path string

	// Columns, indexed by row.
	cfg      []styles.Config
	cfgBits  []uint32
	input    []string
	device   []string
	gstats   []graph.Stats
	tput     []float64
	attempts []uint16
	elapsed  []float64
	simCyc   []int64
	simIns   []int64
	simTrn   []int64

	index map[string]int // Key -> row
	gen   uint64         // bumped per mutation; response caches key on it
}

// NewMem creates an empty in-memory store (no backing file).
func NewMem() *Store {
	return &Store{index: map[string]int{}}
}

// Open opens (or creates) a store file and loads its cells. A torn
// final frame — the mark of a process killed mid-append — is dropped
// and truncated away so subsequent appends start on a clean boundary.
// A file written at an older codec version this build still decodes is
// migrated to the current version in place; a file with an unknown
// (future or pre-history) codec version is rejected, not skimmed.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := NewMem()
	s.f = f
	s.path = path
	good, ver, err := s.load(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if ver < Version {
		// Older codec: the cells are already decoded in memory, so
		// migrate by rewriting the whole file at the current version.
		if err := s.rewrite(f); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	// Drop any torn tail and position for appends.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek: %w", err)
	}
	return s, nil
}

// rewrite replaces the backing file's contents with a current-version
// header and one frame per in-memory cell, in row order. Used to
// migrate a file opened at an older codec version.
func (s *Store) rewrite(f *os.File) error {
	buf := append([]byte(magic), 0, 0)
	binary.LittleEndian.PutUint16(buf[len(magic):], Version)
	for i := range s.cfg {
		payload := appendCell(nil, s.cellAt(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("store: migrate to codec v%d: %w", Version, err)
	}
	if err := f.Truncate(int64(len(buf))); err != nil {
		return fmt.Errorf("store: migrate to codec v%d: %w", Version, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: migrate to codec v%d: %w", Version, err)
	}
	return nil
}

// load reads the header and every intact frame, returning the byte
// offset of the last intact frame's end and the file's codec version.
func (s *Store) load(f *os.File) (good int64, ver uint16, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("store: stat: %w", err)
	}
	if st.Size() == 0 {
		// Fresh file: write the header.
		hdr := append([]byte(magic), 0, 0)
		binary.LittleEndian.PutUint16(hdr[len(magic):], Version)
		if _, err := f.Write(hdr); err != nil {
			return 0, 0, fmt.Errorf("store: write header: %w", err)
		}
		return int64(len(hdr)), Version, nil
	}
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, fmt.Errorf("store: %s: short header (not a store file?)", s.path)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("store: %s: bad magic (not a store file)", s.path)
	}
	ver = binary.LittleEndian.Uint16(hdr[len(magic):])
	if ver < oldestVersion || ver > Version {
		return 0, 0, fmt.Errorf("store: %s: codec version %d, this build reads %d through %d",
			s.path, ver, oldestVersion, Version)
	}
	good = int64(len(hdr))
	frame := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, frame); err != nil {
			return good, ver, nil // clean EOF or torn length word
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n > maxFrame {
			return good, ver, nil // garbage length: treat as torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return good, ver, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, ver, nil // corrupt frame: stop at last good cell
		}
		cell, err := decodeCell(payload, ver)
		if err != nil {
			return 0, 0, fmt.Errorf("store: %s: %w", s.path, err)
		}
		s.put(cell)
		good += int64(8 + int(n))
	}
}

// maxFrame bounds a single cell frame; real cells are ~150 bytes, so
// anything near this is a corrupt length word.
const maxFrame = 1 << 20

// Append merges cells into the store: new keys append rows, existing
// keys overwrite their row (last write wins). Backed stores also append
// one frame per cell to the file before updating memory, so a crash
// never loses an acknowledged cell.
func (s *Store) Append(cells ...Cell) error {
	if len(cells) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		var buf []byte
		for _, c := range cells {
			payload := appendCell(nil, c)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
			buf = append(buf, payload...)
		}
		if _, err := s.f.Write(buf); err != nil {
			return fmt.Errorf("store: append: %w", err)
		}
	}
	for _, c := range cells {
		s.put(c)
	}
	s.gen++
	return nil
}

// put inserts or overwrites one cell in the columns. Caller holds mu
// (or owns the store exclusively during load).
func (s *Store) put(c Cell) {
	key := c.Key()
	if row, ok := s.index[key]; ok {
		s.cfg[row] = c.Cfg
		s.cfgBits[row] = PackConfig(c.Cfg)
		s.input[row] = c.Input
		s.device[row] = c.Device
		s.gstats[row] = c.Graph
		s.tput[row] = c.Tput
		s.attempts[row] = uint16(c.Attempts)
		s.elapsed[row] = c.ElapsedMS
		s.simCyc[row] = c.SimCycles
		s.simIns[row] = c.SimInstructions
		s.simTrn[row] = c.SimTransactions
		return
	}
	s.index[key] = len(s.cfg)
	s.cfg = append(s.cfg, c.Cfg)
	s.cfgBits = append(s.cfgBits, PackConfig(c.Cfg))
	s.input = append(s.input, c.Input)
	s.device = append(s.device, c.Device)
	s.gstats = append(s.gstats, c.Graph)
	s.tput = append(s.tput, c.Tput)
	s.attempts = append(s.attempts, uint16(c.Attempts))
	s.elapsed = append(s.elapsed, c.ElapsedMS)
	s.simCyc = append(s.simCyc, c.SimCycles)
	s.simIns = append(s.simIns, c.SimInstructions)
	s.simTrn = append(s.simTrn, c.SimTransactions)
}

// Len returns the number of distinct cells.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cfg)
}

// Generation returns a counter that changes on every mutation; response
// caches tag entries with it and treat a mismatch as invalidated.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

func (s *Store) cellAt(i int) Cell {
	return Cell{
		Cfg:       s.cfg[i],
		Input:     s.input[i],
		Device:    s.device[i],
		Graph:     s.gstats[i],
		Tput:      s.tput[i],
		Attempts:  int(s.attempts[i]),
		ElapsedMS: s.elapsed[i],

		SimCycles:       s.simCyc[i],
		SimInstructions: s.simIns[i],
		SimTransactions: s.simTrn[i],
	}
}

// Cells returns a copy of every cell in row order.
func (s *Store) Cells() []Cell {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Cell, len(s.cfg))
	for i := range out {
		out[i] = s.cellAt(i)
	}
	return out
}

// Close syncs and closes the backing file, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
