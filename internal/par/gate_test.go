package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateCapacity(t *testing.T) {
	g := NewGate(2)
	if cap(g.slots) != 2 {
		t.Fatalf("Cap = %d, want 2", cap(g.slots))
	}
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("first two TryAcquire should succeed")
	}
	if g.TryAcquire() {
		t.Fatal("third TryAcquire should fail at capacity")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
}

func TestGateMinimumCapacity(t *testing.T) {
	if got := cap(NewGate(0).slots); got != 1 {
		t.Fatalf("cap(NewGate(0).slots) = %d, want 1", got)
	}
	if got := cap(NewGate(-3).slots); got != 1 {
		t.Fatalf("cap(NewGate(-3).slots) = %d, want 1", got)
	}
}

func TestGateAcquireContext(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire on empty gate: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on full gate = %v, want DeadlineExceeded", err)
	}
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	g.Release()
}

func TestGateReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on unheld gate should panic")
		}
	}()
	NewGate(1).Release()
}

// TestGateLeakExhaustsCapacity is the runtime twin of the static
// gatecheck fixture (internal/lint/testdata/src/gatefix, leakDiscarded):
// a caller that acquires without releasing silently shrinks the gate
// until nothing is admitted any more. gatecheck flags the leaky shape at
// build time; this test demonstrates the failure mode it prevents.
func TestGateLeakExhaustsCapacity(t *testing.T) {
	// blklint never loads _test.go files, so this deliberately leaky
	// shape needs no suppression here; the same shape in non-test code
	// is a gatecheck error.
	leaky := func(g *Gate, ctx context.Context) error {
		if err := g.Acquire(ctx); err != nil {
			return err
		}
		return nil // slot never released: the bug gatecheck exists to catch
	}

	g := NewGate(2)
	for i := 0; i < 2; i++ {
		if err := leaky(g, context.Background()); err != nil {
			t.Fatalf("leaky acquire %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on leaked-dry gate = %v, want DeadlineExceeded", err)
	}

	// The fixed shape — defer the Release — admits indefinitely on a gate
	// of the same width.
	fixed := func(g *Gate, ctx context.Context) error {
		if err := g.Acquire(ctx); err != nil {
			return err
		}
		defer g.Release()
		return nil
	}
	g2 := NewGate(2)
	for i := 0; i < 10; i++ {
		if err := fixed(g2, context.Background()); err != nil {
			t.Fatalf("fixed acquire %d: %v", i, err)
		}
	}
	if !g2.TryAcquire() {
		t.Fatal("gate with deferred releases lost capacity")
	}
	g2.Release()
}

func TestGateBoundsConcurrency(t *testing.T) {
	const n, width = 256, 4
	g := NewGate(width)
	var inside, peak atomic.Int64
	defer SetWorkers(SetWorkers(16))
	ForEach(n, func(i int) {
		if err := g.Acquire(context.Background()); err != nil {
			t.Errorf("Acquire: %v", err)
			return
		}
		cur := inside.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inside.Add(-1)
		g.Release()
	})
	if got := peak.Load(); got > width {
		t.Fatalf("peak concurrent holders = %d, want <= %d", got, width)
	}
	if got := inside.Load(); got != 0 {
		t.Fatalf("holders left inside = %d, want 0", got)
	}
}
