package par

import "context"

// Gate is a counting semaphore bounding how many callers may be inside a
// section at once — the admission primitive the blkd service layer uses
// to keep the number of concurrently executing model runs at the pool's
// scale instead of at the HTTP connection count. It lives in par because
// par is the repository's one home for concurrency primitives: kernels
// bound fan-out with the worker pool, services bound admission with Gate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n concurrent holders.
// n < 1 is treated as 1.
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// TryAcquire takes a slot without blocking, reporting whether it
// succeeded. A true return must be paired with Release.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Acquire blocks until a slot frees up or ctx is done, returning
// ctx.Err() in the latter case. A nil return must be paired with Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire or a successful TryAcquire.
// Releasing an unheld slot panics: it would silently raise the gate's
// effective capacity.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("par: Gate.Release without a held slot")
	}
}
