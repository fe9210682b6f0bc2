package gatefix

import (
	"context"

	"burstlink/internal/par"
)

// The hop cases: a slot released two and three calls below the call
// site, and recursion that reaches a release. Each is clean.

// relayRelease and relayRelease2 forward to releaseGate.
func relayRelease(g *par.Gate)  { releaseGate(g) }
func relayRelease2(g *par.Gate) { relayRelease(g) }

// okTwoHopRelease releases two calls down.
func okTwoHopRelease(ctx context.Context, g *par.Gate) error {
	if err := g.Acquire(ctx); err != nil {
		return err
	}
	work()
	relayRelease(g)
	return nil
}

// okThreeHopRelease releases three calls down, from a defer.
func okThreeHopRelease(ctx context.Context, g *par.Gate) error {
	if err := g.Acquire(ctx); err != nil {
		return err
	}
	defer relayRelease2(g)
	work()
	return nil
}

// releaseOdd and releaseEven call each other; releaseEven releases at
// the bottom. releaseOdd comes first, so its summary needs a second
// pass over the pair.
func releaseOdd(g *par.Gate, n int) { releaseEven(g, n-1) }

func releaseEven(g *par.Gate, n int) {
	if n == 0 {
		g.Release()
		return
	}
	releaseOdd(g, n-1)
}

// okMutualRecursionRelease releases through the recursive pair.
func okMutualRecursionRelease(g *par.Gate) {
	if !g.TryAcquire() {
		return
	}
	work()
	releaseOdd(g, 3)
}

// releaseAfter calls itself and releases at the bottom.
func releaseAfter(g *par.Gate, n int) {
	if n > 0 {
		releaseAfter(g, n-1)
		return
	}
	relayRelease(g)
}

// okSelfRecursionRelease releases through the self-recursive helper.
func okSelfRecursionRelease(g *par.Gate) {
	if !g.TryAcquire() {
		return
	}
	work()
	releaseAfter(g, 3)
}

// relayWork reaches no release at any depth.
func relayWork() { work() }

// badHelperNeverReleases still leaks: only releases are summarized.
func badHelperNeverReleases(ctx context.Context, g *par.Gate) error {
	if err := g.Acquire(ctx); err != nil { // want "gate slot acquired on g is not released"
		return err
	}
	relayWork()
	return nil
}

type gated struct{ gate *par.Gate }

// release and finish are method helpers: a method call is looked up in
// the summaries like a function call.
func (s *gated) release() { s.gate.Release() }
func (s *gated) finish()  { s.release() }

// okMethodRelease releases through a method helper two calls down.
func (s *gated) okMethodRelease() {
	if !s.gate.TryAcquire() {
		return
	}
	work()
	s.finish()
}
