package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigDerived(t *testing.T) {
	cfg := Default32K(2)
	if cfg.NumSets() != 512 {
		t.Errorf("sets = %d, want 512", cfg.NumSets())
	}
	if cfg.MemLine(63) != 1 || cfg.MemLine(64) != 2 {
		t.Error("MemLine broken")
	}
	if cfg.SetOf(0) != 0 || cfg.SetOf(512*32) != 0 || cfg.SetOf(513*32) != 1 {
		t.Error("SetOf broken")
	}
	// Below address 0 lines floor and sets stay in [0, NumSets).
	if cfg.MemLine(-1) != -1 || cfg.MemLine(-32) != -1 || cfg.MemLine(-33) != -2 {
		t.Errorf("MemLine(-1, -32, -33) = %d, %d, %d, want -1, -1, -2",
			cfg.MemLine(-1), cfg.MemLine(-32), cfg.MemLine(-33))
	}
	if cfg.SetOf(-8) != 511 || cfg.SetOfLine(-512) != 0 {
		t.Errorf("SetOf(-8) = %d, SetOfLine(-512) = %d, want 511, 0", cfg.SetOf(-8), cfg.SetOfLine(-512))
	}
	if odd := (Config{SizeBytes: 768, LineBytes: 32, Assoc: 1}); odd.SetOfLine(-1) != 23 {
		t.Errorf("24 sets: SetOfLine(-1) = %d, want 23", odd.SetOfLine(-1))
	}
	if cfg.LineElems(8) != 4 {
		t.Errorf("LineElems(8) = %d, want 4", cfg.LineElems(8))
	}
	if cfg.String() != "32KB/32B/2-way" {
		t.Errorf("String = %q", cfg.String())
	}
	if Default32K(1).String() != "32KB/32B/direct" {
		t.Errorf("direct String = %q", Default32K(1).String())
	}
}

// TestConfigString: whole-KB capacities keep their KB labels; any other
// capacity prints its exact byte count, so 1536 B and 1792 B differ.
func TestConfigString(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 2}, "32KB/32B/2-way"},
		{Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1}, "1KB/64B/direct"},
		{Config{SizeBytes: 1536, LineBytes: 32, Assoc: 1}, "1536B/32B/direct"},
		{Config{SizeBytes: 1792, LineBytes: 32, Assoc: 1}, "1792B/32B/direct"},
		{Config{SizeBytes: 128, LineBytes: 64, Assoc: 1}, "128B/64B/direct"},
		{Config{SizeBytes: 40960, LineBytes: 32, Assoc: 4}, "40KB/32B/4-way"},
	} {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("%+v: %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 0, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 0},
		{SizeBytes: 1000, LineBytes: 32, Assoc: 1}, // not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if err := Default32K(4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 128 B direct-mapped cache with 32 B lines: 4 sets. Two addresses
	// 128 bytes apart conflict.
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	s := NewSimulator(cfg)
	if !s.Access(0) {
		t.Error("first access must miss")
	}
	if s.Access(8) {
		t.Error("same line must hit")
	}
	if !s.Access(128) {
		t.Error("conflicting line must miss")
	}
	if !s.Access(0) {
		t.Error("evicted line must miss again")
	}
}

func TestLRUOrder(t *testing.T) {
	// 2-way, 2 sets: lines 0, 2, 4 map to set 0. Touch 0, 2, then 0 again,
	// then 4: the LRU victim is 2.
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 2}
	s := NewSimulator(cfg)
	s.Access(0 * 32)
	s.Access(2 * 32)
	if s.Access(0 * 32) {
		t.Fatal("line 0 must hit")
	}
	s.Access(4 * 32) // evicts line 2
	if s.Access(0 * 32) {
		t.Error("line 0 must survive (was MRU)")
	}
	if !s.Access(2 * 32) {
		t.Error("line 2 must have been evicted")
	}
}

func TestFullyAssociative(t *testing.T) {
	// Fully associative 4-line cache: a cyclic walk over 5 lines misses
	// every time under LRU.
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 4}
	s := NewSimulator(cfg)
	for round := 0; round < 3; round++ {
		for l := int64(0); l < 5; l++ {
			if !s.Access(l * 32) {
				t.Fatalf("round %d line %d: LRU cyclic walk must always miss", round, l)
			}
		}
	}
}

func TestWorkingSetFits(t *testing.T) {
	cfg := Default32K(4)
	s := NewSimulator(cfg)
	// 16 KB working set: second pass must be all hits.
	for a := int64(0); a < 16*1024; a += 8 {
		s.Access(a)
	}
	missesAfterWarm := s.Misses
	for a := int64(0); a < 16*1024; a += 8 {
		s.Access(a)
	}
	if s.Misses != missesAfterWarm {
		t.Errorf("second pass missed %d times", s.Misses-missesAfterWarm)
	}
	if got, want := missesAfterWarm, int64(16*1024/32); got != want {
		t.Errorf("cold misses = %d, want %d", got, want)
	}
}

func TestReset(t *testing.T) {
	s := NewSimulator(Default32K(1))
	s.Access(0)
	s.Reset()
	if s.Accesses != 0 || s.Misses != 0 {
		t.Error("counters not reset")
	}
	if !s.Access(0) {
		t.Error("cache not emptied by Reset")
	}
}

// referenceLRU is an obviously correct (slow, map-based) LRU model used as
// the oracle for the property test.
type referenceLRU struct {
	cfg  Config
	sets map[int64][]int64
	time map[int64]int64
	now  int64
}

func (r *referenceLRU) access(addr int64) bool {
	line := addr / r.cfg.LineBytes
	set := line % r.cfg.NumSets()
	r.now++
	for _, l := range r.sets[set] {
		if l == line {
			r.time[l] = r.now
			return false
		}
	}
	ws := r.sets[set]
	if len(ws) >= r.cfg.Assoc {
		// Evict the least recently used.
		victim := 0
		for i := 1; i < len(ws); i++ {
			if r.time[ws[i]] < r.time[ws[victim]] {
				victim = i
			}
		}
		delete(r.time, ws[victim])
		ws = append(ws[:victim], ws[victim+1:]...)
	}
	r.sets[set] = append(ws, line)
	r.time[line] = r.now
	return true
}

// TestSimulatorMatchesReference: random address streams against the
// map-based oracle across several geometries (testing/quick drives the
// stream).
func TestSimulatorMatchesReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 128, LineBytes: 32, Assoc: 1},
		{SizeBytes: 256, LineBytes: 32, Assoc: 2},
		{SizeBytes: 512, LineBytes: 64, Assoc: 4},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			sim := NewSimulator(cfg)
			ref := &referenceLRU{cfg: cfg, sets: map[int64][]int64{}, time: map[int64]int64{}}
			for i := 0; i < 500; i++ {
				addr := int64(rng.Intn(4096))
				if sim.Access(addr) != ref.access(addr) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("config %s: %v", cfg, err)
		}
	}
}

func TestWriteNoAllocate(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	s := NewSimulator(cfg)
	s.SetWritePolicy(WriteNoAllocate)
	if !s.AccessWrite(0) {
		t.Error("first write must miss")
	}
	// No allocation happened: a read of the same line still misses.
	if !s.Access(0) {
		t.Error("read after no-allocate write must miss")
	}
	// Under the default policy the same sequence hits.
	d := NewSimulator(cfg)
	d.AccessWrite(0)
	if d.Access(0) {
		t.Error("fetch-on-write must allocate")
	}
}
