package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cachemodel/internal/cerr"
)

func TestZeroBudgetIsUnlimited(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero Budget should report IsZero")
	}
	m := NewMeter(nil, Budget{})
	if m.Probe() != nil {
		t.Fatal("meter over a zero budget and Background context should take no probe")
	}
	limited := []Budget{
		{Deadline: time.Second},
		{MaxPoints: 10},
		{MaxScan: 10},
		{Hook: func(int64) error { return nil }},
	}
	for i, b := range limited {
		if b.IsZero() {
			t.Fatalf("budget %d should not be IsZero", i)
		}
		if NewMeter(nil, b).Probe() == nil {
			t.Fatalf("meter over budget %d should take a probe", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if NewMeter(ctx, Budget{}).Probe() == nil {
		t.Fatal("meter over a cancellable context should take a probe")
	}
}

func TestMaxPointsTrips(t *testing.T) {
	m := NewMeter(nil, Budget{MaxPoints: 100})
	p := m.Probe()
	var err error
	var i int
	for i = 0; i < 10_000; i++ {
		if err = p.Check(1, 0); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("meter never tripped under a 100-point cap")
	}
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("trip error = %v, want ErrBudgetExceeded", err)
	}
	// Probes batch: the trip is detected at the first flush past the cap,
	// so overshoot is bounded by the flush cadence.
	if i < 99 || i > 100+flushPoints {
		t.Fatalf("tripped after %d points, want within a flush of the cap", i+1)
	}
	if got := m.Err(); !errors.Is(got, cerr.ErrBudgetExceeded) {
		t.Fatalf("Meter.Err() = %v, want ErrBudgetExceeded", got)
	}
	if s := m.Spent(); s.Points <= 100 || s.Checkpoints == 0 {
		t.Fatalf("Spent() = %+v, want points past cap and checkpoints > 0", s)
	}
	// Once tripped, later checks keep failing (within one flush batch).
	var post error
	for i := 0; i <= flushPoints && post == nil; i++ {
		post = p.Check(1, 0)
	}
	if !errors.Is(post, cerr.ErrBudgetExceeded) {
		t.Fatalf("post-trip Check = %v, want ErrBudgetExceeded", post)
	}
}

func TestMaxScanTrips(t *testing.T) {
	m := NewMeter(nil, Budget{MaxScan: 8192})
	p := m.Probe()
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = p.Check(1, 4096)
	}
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("scan trip error = %v, want ErrBudgetExceeded", err)
	}
	if s := m.Spent(); s.Scan <= 8192 {
		t.Fatalf("Spent().Scan = %d, want past the 8192 cap", s.Scan)
	}
}

func TestDeadlineTrips(t *testing.T) {
	m := NewMeter(nil, Budget{Deadline: time.Millisecond})
	p := m.Probe()
	time.Sleep(5 * time.Millisecond)
	var err error
	for i := 0; i <= flushPoints && err == nil; i++ {
		err = p.Check(1, 0)
	}
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("deadline trip error = %v, want ErrBudgetExceeded", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMeter(ctx, Budget{})
	p := m.Probe()
	if err := p.Flush(); err != nil {
		t.Fatalf("pre-cancel Flush = %v, want nil", err)
	}
	cancel()
	var err error
	for i := 0; i <= flushPoints && err == nil; i++ {
		err = p.Check(1, 0)
	}
	if !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("post-cancel error = %v, want ErrCanceled", err)
	}
	if errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatal("cancellation must not read as budget exhaustion")
	}
}

func TestContextDeadlineMerged(t *testing.T) {
	// The context carries the earlier deadline; the budget's is later.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	m := NewMeter(ctx, Budget{Deadline: time.Hour})
	p := m.Probe()
	time.Sleep(5 * time.Millisecond)
	var err error
	for i := 0; i <= flushPoints && err == nil; i++ {
		err = p.Check(1, 0)
	}
	// Either the merged deadline fires (ErrBudgetExceeded) or the context
	// itself expires first (ErrCanceled); both must land promptly.
	if !errors.Is(err, cerr.ErrBudgetExceeded) && !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("merged-deadline error = %v", err)
	}
}

func TestHookForcesPerCheckpointFlush(t *testing.T) {
	var n int64
	m := NewMeter(nil, Budget{Hook: func(k int64) error { n = k; return nil }})
	p := m.Probe()
	for i := 0; i < 5; i++ {
		if err := p.Check(1, 0); err != nil {
			t.Fatalf("Check %d = %v", i, err)
		}
	}
	if n != 5 {
		t.Fatalf("hook saw checkpoint %d after 5 checks, want 5 (per-checkpoint flush)", n)
	}
	if s := m.Spent(); s.Points != 5 || s.Checkpoints != 5 {
		t.Fatalf("Spent() = %+v, want 5 points / 5 checkpoints", s)
	}
}

func TestHookErrorTrips(t *testing.T) {
	boom := errors.New("boom")
	m := NewMeter(nil, Budget{Hook: func(k int64) error {
		if k == 3 {
			return boom
		}
		return nil
	}})
	p := m.Probe()
	var err error
	var i int
	for i = 1; i <= 10 && err == nil; i++ {
		err = p.Check(1, 0)
	}
	if !errors.Is(err, boom) || i-1 != 3 {
		t.Fatalf("hook trip: err=%v at check %d, want boom at 3", err, i-1)
	}
}

func TestGraceReArmsAfterBudgetTrip(t *testing.T) {
	m := NewMeter(nil, Budget{MaxPoints: 64})
	p := m.Probe()
	var err error
	for i := 0; i < 10_000 && err == nil; i++ {
		err = p.Check(1, 0)
	}
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("setup trip = %v", err)
	}
	m.Grace()
	if m.Err() != nil {
		t.Fatalf("Err() after Grace = %v, want nil", m.Err())
	}
	if m.Spent().Graces != 1 {
		t.Fatalf("Graces = %d, want 1", m.Spent().Graces)
	}
	// The re-armed allowance (floor: 256 points) lets a cheaper tier run…
	var extra int
	for extra = 0; extra < 10_000; extra++ {
		if err = p.Check(1, 0); err != nil {
			break
		}
	}
	if extra < 128 {
		t.Fatalf("only %d points granted after Grace, want at least the floor region", extra)
	}
	// …but the meter still trips again rather than running forever.
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("re-armed meter never re-tripped: %v", err)
	}
}

func TestDrainPublishesWithoutEvaluating(t *testing.T) {
	m := NewMeter(nil, Budget{MaxPoints: 1})
	p := m.Probe()
	for i := 0; i < 3; i++ {
		p.points++ // accumulate below the flush cadence
	}
	p.Drain()
	if s := m.Spent(); s.Points != 3 {
		t.Fatalf("Spent().Points = %d after Drain, want 3", s.Points)
	}
	if m.Err() != nil {
		t.Fatalf("Drain must not evaluate limits, got %v", m.Err())
	}
}

func TestConcurrentProbes(t *testing.T) {
	m := NewMeter(nil, Budget{MaxPoints: 50_000})
	const workers = 8
	done := make(chan int64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			p := m.Probe()
			var n int64
			for {
				if err := p.Check(1, 1); err != nil {
					done <- n
					return
				}
				n++
			}
		}()
	}
	var total int64
	for w := 0; w < workers; w++ {
		total += <-done
	}
	if !errors.Is(m.Err(), cerr.ErrBudgetExceeded) {
		t.Fatalf("Meter.Err() = %v", m.Err())
	}
	// All workers observed the trip; overshoot is bounded by one flush batch
	// per worker.
	if total > 50_000+workers*flushPoints {
		t.Fatalf("workers classified %d points, cap 50000 (+%d slack)", total, workers*flushPoints)
	}
}

// TestProbeTripsAtCap: with one probe, a point cap and a scan cap trip at
// exactly the first check past the cap, whatever flush phase the probe is
// in when it gets there — after a few checks, after an explicit flush, or
// after a region Charge.
func TestProbeTripsAtCap(t *testing.T) {
	const limit = 1000
	for _, dim := range []string{"points", "scan"} {
		for _, warm := range []int{0, 1, 17, flushPoints - 1, flushPoints, 3*flushPoints + 5} {
			for _, phase := range []string{"checks", "flush", "charge"} {
				b := Budget{MaxPoints: limit}
				if dim == "scan" {
					b = Budget{MaxScan: limit}
				}
				m := NewMeter(nil, b)
				p := m.Probe()
				// Each check costs one point and one scan step, so the
				// total crosses either cap at the same check.
				switch phase {
				case "checks":
					for i := 0; i < warm; i++ {
						if err := p.Check(1, 1); err != nil {
							t.Fatalf("%s/%s/%d: warm-up check %d: %v", dim, phase, warm, i, err)
						}
					}
				case "flush":
					for i := 0; i < warm; i++ {
						p.points++
						p.scan++
					}
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
				case "charge":
					if !p.Charge(int64(warm), int64(warm)) {
						t.Fatalf("%s/%d: charge refused far from the cap", dim, warm)
					}
				}
				spent := int64(warm)
				var err error
				for err == nil && spent < 2*limit {
					spent++
					err = p.Check(1, 1)
				}
				if !errors.Is(err, cerr.ErrBudgetExceeded) || spent != limit+1 {
					t.Errorf("%s/%s/%d: tripped at total %d (%v), want %d", dim, phase, warm, spent, err, limit+1)
				}
			}
		}
	}
}

// TestChargeRefuses: Charge reserves a region only on a meter that can
// take all of it — never under a fault hook (hooked runs enumerate every
// checkpoint), past a cap, or after a trip — and a refusal leaves the
// meter's totals as the flush left them.
func TestChargeRefuses(t *testing.T) {
	var nilProbe *Probe
	if !nilProbe.Charge(1<<40, 1<<40) {
		t.Error("a nil probe refused a charge")
	}

	hooked := NewMeter(nil, Budget{Hook: func(int64) error { return nil }})
	if hooked.Probe().Charge(1, 0) {
		t.Error("Charge accepted under a Hook")
	}
	if s := hooked.Spent(); s.Points != 0 || s.Checkpoints != 0 {
		t.Errorf("a refused hooked charge moved the meter: %+v", s)
	}

	for _, b := range []Budget{{MaxPoints: 100}, {MaxScan: 100}} {
		m := NewMeter(nil, b)
		p := m.Probe()
		if !p.Charge(60, 60) {
			t.Fatalf("%+v: first charge refused", b)
		}
		if p.Charge(41, 41) {
			t.Errorf("%+v: charge past the cap accepted", b)
		}
		if s := m.Spent(); s.Points != 60 || s.Scan != 60 {
			t.Errorf("%+v: refused charge left points=%d scan=%d, want 60/60", b, s.Points, s.Scan)
		}
		if !p.Charge(40, 40) {
			t.Errorf("%+v: charge up to the cap refused", b)
		}
	}

	m := NewMeter(nil, Budget{MaxPoints: 10})
	p := m.Probe()
	m.Trip(errors.New("external"))
	if p.Charge(1, 0) {
		t.Error("Charge accepted on a tripped meter")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if NewMeter(ctx, Budget{}).Probe().Charge(1, 0) {
		t.Error("Charge accepted under a cancelled context")
	}
}

// TestConcurrentCharges: probes charging and checking concurrently never
// push the meter past the cap by more than one flush batch per probe.
// Run under -race.
func TestConcurrentCharges(t *testing.T) {
	const limit, workers = 50_000, 8
	m := NewMeter(nil, Budget{MaxPoints: limit})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := m.Probe()
			defer p.Drain()
			for i := 0; ; i++ {
				if i%8 == 0 {
					if !p.Charge(int64(w+1)*37, 0) && m.Err() != nil {
						return
					}
					continue
				}
				if p.Check(1, 0) != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !errors.Is(m.Err(), cerr.ErrBudgetExceeded) {
		t.Fatalf("Meter.Err() = %v", m.Err())
	}
	if s := m.Spent(); s.Points > limit+workers*flushPoints {
		t.Fatalf("Spent().Points = %d, cap %d (+%d slack)", s.Points, limit, workers*flushPoints)
	}
}
