package faultinject

import (
	"errors"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cerr"
)

func TestFiresExactlyOnceAtN(t *testing.T) {
	inj := CancelAt(3)
	hook := inj.Hook()
	for n := int64(1); n <= 2; n++ {
		if err := hook(n); err != nil {
			t.Fatalf("checkpoint %d fired early: %v", n, err)
		}
	}
	if err := hook(3); !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("checkpoint 3 = %v, want ErrCanceled", err)
	}
	for n := int64(4); n <= 6; n++ {
		if err := hook(n); err != nil {
			t.Fatalf("checkpoint %d re-fired: %v", n, err)
		}
	}
	if !inj.Fired() {
		t.Fatal("Fired() = false after injection")
	}
	if inj.Checkpoints() != 6 {
		t.Fatalf("Checkpoints() = %d, want 6", inj.Checkpoints())
	}
}

func TestErrorClassification(t *testing.T) {
	if err := ExhaustAt(1).Hook()(1); !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("ExhaustAt = %v, want ErrBudgetExceeded", err)
	}
	if err := CancelAt(1).Hook()(1); !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("CancelAt = %v, want ErrCanceled", err)
	}
	custom := errors.New("custom fault")
	if err := At(1, custom).Hook()(1); !errors.Is(err, custom) {
		t.Fatalf("At = %v, want custom fault", err)
	}
}

func TestThroughMeter(t *testing.T) {
	inj := ExhaustAt(4)
	m := budget.NewMeter(nil, budget.Budget{Hook: inj.Hook()})
	p := m.Probe()
	if p == nil {
		t.Fatal("a hooked meter must take a probe")
	}
	var err error
	var i int
	for i = 1; i <= 10 && err == nil; i++ {
		err = p.Check(1, 0)
	}
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("meter trip = %v, want ErrBudgetExceeded", err)
	}
	if i-1 != 4 {
		t.Fatalf("tripped at check %d, want 4 (hook forces per-checkpoint flush)", i-1)
	}
	if !inj.Fired() {
		t.Fatal("injector did not record firing")
	}
}
