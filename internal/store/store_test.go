package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"indigo/internal/graph"
	"indigo/internal/styles"
	"indigo/internal/sweep"
)

// TestPackConfigRoundTrip packs and unpacks every enumerated style
// combination; the bitfield must be a lossless identity.
func TestPackConfigRoundTrip(t *testing.T) {
	all := styles.EnumerateAll()
	if len(all) == 0 {
		t.Fatal("EnumerateAll returned nothing")
	}
	seen := make(map[uint32]string, len(all))
	for _, cfg := range all {
		bits := PackConfig(cfg)
		if prev, ok := seen[bits]; ok && prev != cfg.Name() {
			t.Fatalf("bitfield collision: %q and %q both pack to %#x", prev, cfg.Name(), bits)
		}
		seen[bits] = cfg.Name()
		got, err := UnpackConfig(bits)
		if err != nil {
			t.Fatalf("UnpackConfig(%#x) for %q: %v", bits, cfg.Name(), err)
		}
		if got != cfg {
			t.Fatalf("round trip of %q: got %q", cfg.Name(), got.Name())
		}
	}
}

func TestUnpackConfigRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		bits uint32
	}{
		{"excess bits", 1 << 21},
		{"all ones", ^uint32(0)},
		{"bad algorithm", uint32(styles.NumAlgorithms) << 18},
	}
	for _, tc := range cases {
		if _, err := UnpackConfig(tc.bits); err == nil {
			t.Errorf("%s (%#x): want error, got none", tc.name, tc.bits)
		}
	}
}

func testCells(t *testing.T) []Cell {
	t.Helper()
	all := styles.EnumerateAll()
	st := graph.Stats{
		Name: "road", Vertices: 1024, Edges: 3000, SizeMB: 0.5,
		AvgDegree: 2.9, MaxDegree: 4, PctDeg32: 0, PctDeg512: 0, Diameter: 63,
	}
	cells := make([]Cell, 0, 4)
	for i := 0; i < 4; i++ {
		cells = append(cells, Cell{
			Cfg:       all[i*7],
			Input:     "road",
			Device:    "cpu",
			Graph:     st,
			Tput:      0.25 * float64(i+1),
			Attempts:  i + 1,
			ElapsedMS: 12.5 * float64(i+1),

			SimCycles:       int64(1000 * (i + 1)),
			SimInstructions: int64(400 * (i + 1)),
			SimTransactions: int64(90 * (i + 1)),
		})
	}
	return cells
}

func TestCellCodecRoundTrip(t *testing.T) {
	for _, c := range testCells(t) {
		payload := appendCell(nil, c)
		got, err := decodeCell(payload, Version)
		if err != nil {
			t.Fatalf("decodeCell(%q): %v", c.Key(), err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", c.Key(), got, c)
		}
		// Every truncation of a valid payload must error, never panic
		// or misparse into a valid cell.
		for n := 0; n < len(payload); n++ {
			if _, err := decodeCell(payload[:n], Version); err == nil {
				t.Fatalf("decodeCell of %d/%d-byte prefix: want error", n, len(payload))
			}
		}
		if _, err := decodeCell(append(payload, 0), Version); err == nil {
			t.Fatal("decodeCell with trailing byte: want error")
		}
	}
}

func TestAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	cells := testCells(t)

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cells...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Cells(); !reflect.DeepEqual(got, cells) {
		t.Fatalf("reopen:\n got %+v\nwant %+v", got, cells)
	}
}

func TestOverwriteLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := testCells(t)[0]
	if err := s.Append(c); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	c.Tput = 99
	c.Attempts = 3
	if err := s.Append(c); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == g1 {
		t.Fatal("generation did not advance on append")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (same key overwrites)", s.Len())
	}
	if got := s.Cells()[0]; got.Tput != 99 || got.Attempts != 3 {
		t.Fatalf("cell 0 = %+v, want the second write", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The file keeps history; reload replays it and the last write
	// still wins.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cells := r.Cells(); len(cells) != 1 || cells[0].Tput != 99 {
		t.Fatalf("reopened: cells %+v, want one cell with Tput 99", cells)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	cells := testCells(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cells...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final frame mid-payload, as a kill -9 during Append would.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if r.Len() != len(cells)-1 {
		t.Fatalf("Len = %d after torn tail, want %d", r.Len(), len(cells)-1)
	}
	// The torn bytes must be gone so new appends land on a frame
	// boundary and survive another reopen.
	if err := r.Append(cells[len(cells)-1]); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Cells(); !reflect.DeepEqual(got, cells) {
		t.Fatalf("after repair:\n got %+v\nwant %+v", got, cells)
	}
}

func TestCorruptFrameStopsLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	cells := testCells(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cells...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the final frame: the checksum must catch
	// it and loading stops at the last good cell.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0xff
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("open with corrupt frame: %v", err)
	}
	defer r.Close()
	if r.Len() != len(cells)-1 {
		t.Fatalf("Len = %d after corrupt frame, want %d", r.Len(), len(cells)-1)
	}
}

func TestOpenRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.store")
	hdr := append([]byte(magic), 0, 0)
	binary.LittleEndian.PutUint16(hdr[len(magic):], Version+1)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("want error for future codec version")
	}
}

func TestOpenMigratesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.store")
	cells := testCells(t)

	// Write a version-1 file by hand: the v1 payload is the current one
	// minus the trailing three simulated cost counters (24 bytes).
	buf := append([]byte(magic), 0, 0)
	binary.LittleEndian.PutUint16(buf[len(magic):], 1)
	for _, c := range cells {
		payload := appendCell(nil, c)
		payload = payload[:len(payload)-24]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("open v1 store: %v", err)
	}
	if s.Len() != len(cells) {
		t.Fatalf("Len = %d after migration, want %d", s.Len(), len(cells))
	}
	for i, c := range s.Cells() {
		if c.SimCycles != 0 || c.SimInstructions != 0 || c.SimTransactions != 0 {
			t.Fatalf("cell %d: migrated v1 cell has nonzero sim counters: %+v", i, c)
		}
	}
	// Appends after migration must land on a clean v2 boundary.
	extra := cells[0]
	extra.Input = "grid2d"
	extra.SimCycles, extra.SimInstructions, extra.SimTransactions = 7, 8, 9
	if err := s.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint16(hdr[len(magic):]); got != Version {
		t.Fatalf("migrated file has codec version %d, want %d", got, Version)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("reopen migrated store: %v", err)
	}
	defer r.Close()
	if r.Len() != len(cells)+1 {
		t.Fatalf("Len = %d after reopen, want %d", r.Len(), len(cells)+1)
	}
	got := r.Cells()[r.Len()-1]
	if !reflect.DeepEqual(got, extra) {
		t.Fatalf("post-migration append:\n got %+v\nwant %+v", got, extra)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notastore")
	if err := os.WriteFile(path, []byte("definitely not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("want error for bad magic")
	}
}

// writeJournal writes a JSONL sweep journal of the given records.
func writeJournal(t *testing.T, recs []sweep.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportJournal(t *testing.T) {
	all := styles.EnumerateAll()
	recs := []sweep.Record{
		{V: sweep.JournalVersion, Variant: all[0].Name(), Input: "road", Device: "cpu",
			Kind: sweep.OK.String(), Tput: 1.5, Attempts: 1, ElapsedMS: 10},
		{V: sweep.JournalVersion, Variant: all[1].Name(), Input: "road", Device: "cpu",
			Kind: sweep.Timeout.String(), Attempts: 2, ElapsedMS: 500}, // failures stay out
		{V: sweep.JournalVersion, Variant: all[2].Name(), Input: "grid2d", Device: "cpu",
			Kind: sweep.OK.String(), Tput: 2.5, Attempts: 1, ElapsedMS: 20}, // resolver misses
	}
	path := writeJournal(t, recs)

	roadStats := graph.Stats{Name: "road", Vertices: 100, Edges: 300, Diameter: 40}
	resolve := func(input string) (graph.Stats, bool) {
		if input == "road" {
			return roadStats, true
		}
		return graph.Stats{}, false
	}
	s := NewMem()
	n, err := ImportJournal(s, path, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || s.Len() != 1 {
		t.Fatalf("imported %d cells (store %d), want 1", n, s.Len())
	}
	got := s.Cells()[0]
	want := Cell{Cfg: all[0], Input: "road", Device: "cpu", Graph: roadStats,
		Tput: 1.5, Attempts: 1, ElapsedMS: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported cell:\n got %+v\nwant %+v", got, want)
	}
}

func TestImportJournalRejectsFutureSchema(t *testing.T) {
	all := styles.EnumerateAll()
	path := writeJournal(t, []sweep.Record{
		{V: sweep.JournalVersion + 1, Variant: all[0].Name(), Input: "road", Device: "cpu",
			Kind: sweep.OK.String(), Tput: 1, Attempts: 1},
	})
	if _, err := ImportJournal(NewMem(), path, func(string) (graph.Stats, bool) {
		return graph.Stats{}, true
	}); err == nil {
		t.Fatal("want error importing a future-schema journal")
	}
}
