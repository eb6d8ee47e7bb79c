// Package cache defines the cache model of §2 — a k-way set-associative
// data cache with LRU replacement and fetch-on-write (so reads and writes
// are modelled identically) — and provides an exact software simulator used
// as the ground truth for validating the analytical method.
package cache

import "fmt"

// Config describes a cache: total size, line size and associativity.
// The paper's default is 32 KB with 32-byte lines at k ∈ {1, 2, 4}.
type Config struct {
	SizeBytes int64 // total capacity C_s in bytes
	LineBytes int64 // line size L_s in bytes
	Assoc     int   // k; 1 = direct mapped
}

// Default32K is the paper's default configuration (direct mapped).
func Default32K(assoc int) Config {
	return Config{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: assoc}
}

// Validate checks structural sanity (power-of-two sizes are not required,
// but line size must divide capacity across the sets).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive parameter in %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*int64(c.Assoc)) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line %d × assoc %d", c.SizeBytes, c.LineBytes, c.Assoc)
	}
	return nil
}

// NumSets returns the number of cache sets.
func (c Config) NumSets() int64 { return c.SizeBytes / (c.LineBytes * int64(c.Assoc)) }

// LineOf returns the memory line index of a byte address: the floor of
// addr/lineBytes, so an address below zero lies on a negative line and
// every line holds exactly lineBytes consecutive addresses. It is the one
// line index of the simulator and the analytical model.
func LineOf(addr, lineBytes int64) int64 {
	q := addr / lineBytes
	if addr%lineBytes < 0 {
		q--
	}
	return q
}

// MemLine returns the memory line index of a byte address (LineOf).
func (c Config) MemLine(addr int64) int64 { return LineOf(addr, c.LineBytes) }

// SetOfLine returns the cache set a memory line maps to: its residue in
// [0, NumSets), negative lines included.
func (c Config) SetOfLine(line int64) int64 {
	n := c.NumSets()
	s := line % n
	if s < 0 {
		s += n
	}
	return s
}

// SetOf returns the cache set of a byte address.
func (c Config) SetOf(addr int64) int64 { return c.SetOfLine(c.MemLine(addr)) }

// LineElems returns the line size in elements of the given byte width.
func (c Config) LineElems(elemSize int64) int64 {
	n := c.LineBytes / elemSize
	if n < 1 {
		n = 1
	}
	return n
}

// String labels the configuration, e.g. 32KB/32B/2-way. A capacity that
// is not a whole number of KB is printed in bytes (1536B/32B/direct), so
// distinct configurations never share a label.
func (c Config) String() string {
	way := "direct"
	if c.Assoc > 1 {
		way = fmt.Sprintf("%d-way", c.Assoc)
	}
	size := fmt.Sprintf("%dKB", c.SizeBytes/1024)
	if c.SizeBytes%1024 != 0 {
		size = fmt.Sprintf("%dB", c.SizeBytes)
	}
	return fmt.Sprintf("%s/%dB/%s", size, c.LineBytes, way)
}

// WritePolicy selects how the simulator treats writes. The paper (and the
// analytical model) assume FetchOnWrite, so reads and writes behave
// identically; WriteNoAllocate is provided to quantify how much that
// assumption matters on a given program.
type WritePolicy int

// Write policies.
const (
	// FetchOnWrite allocates on write misses (write-back, write-allocate):
	// the paper's §2 model.
	FetchOnWrite WritePolicy = iota
	// WriteNoAllocate sends write misses straight to memory without
	// allocating a line (write-through, no-allocate).
	WriteNoAllocate
)

// Simulator is an exact k-way set-associative LRU cache simulator.
// Each set holds up to k memory-line tags in most-recently-used-first
// order.
type Simulator struct {
	cfg    Config
	policy WritePolicy
	sets   [][]int64 // sets[s] = line tags, MRU first
	// Accesses and Misses count all traffic fed to Access.
	Accesses int64
	Misses   int64
}

// NewSimulator returns an empty simulator for the configuration.
func NewSimulator(cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulator{cfg: cfg, sets: make([][]int64, cfg.NumSets())}
}

// Config returns the simulated configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetWritePolicy selects the write policy (default FetchOnWrite).
func (s *Simulator) SetWritePolicy(p WritePolicy) { s.policy = p }

// Access simulates one byte-address read access (identical to a write
// under FetchOnWrite) and reports whether it missed.
func (s *Simulator) Access(addr int64) bool { return s.access(addr, false) }

// AccessWrite simulates one write access, honouring the write policy.
func (s *Simulator) AccessWrite(addr int64) bool { return s.access(addr, true) }

func (s *Simulator) access(addr int64, write bool) bool {
	line := s.cfg.MemLine(addr)
	set := s.cfg.SetOfLine(line)
	ways := s.sets[set]
	s.Accesses++
	for i, tag := range ways {
		if tag == line {
			// Hit: move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return false
		}
	}
	s.Misses++
	if write && s.policy == WriteNoAllocate {
		return true // write-through: no line allocated
	}
	if len(ways) < s.cfg.Assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = line
	s.sets[set] = ways
	return true
}

// Reset empties the cache and zeroes the counters.
func (s *Simulator) Reset() {
	s.sets = make([][]int64, s.cfg.NumSets())
	s.Accesses, s.Misses = 0, 0
}

// MissRatio returns misses/accesses (0 when idle).
func (s *Simulator) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}
