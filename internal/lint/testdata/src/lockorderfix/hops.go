package lockorderfix

import "sync"

// The hop cases: an inner acquisition two and three calls below the
// call site, and recursion that reaches one.

type hopPair struct {
	a, b sync.Mutex
	n    int
}

// takeB is the body that acquires b.
func (h *hopPair) takeB() {
	h.b.Lock()
	h.n++
	h.b.Unlock()
}

// relayB reaches takeB one call down.
func (h *hopPair) relayB() { h.takeB() }

// orderAB holds a across the two-hop path to b: edge a→b.
func (h *hopPair) orderAB() {
	h.a.Lock()
	h.relayB() // want "lock order cycle: acquiring lockorderfix.hopPair.b .via call to relayB, which takes it in takeB. while holding lockorderfix.hopPair.a"
	h.a.Unlock()
}

// orderBA takes b then a directly, closing the cycle.
func (h *hopPair) orderBA() {
	h.b.Lock()
	h.a.Lock() // want "lock order cycle"
	h.a.Unlock()
	h.b.Unlock()
}

type hopTriple struct {
	c, d sync.Mutex
	n    int
}

func (h *hopTriple) takeD() {
	h.d.Lock()
	h.n++
	h.d.Unlock()
}

func (h *hopTriple) relayD()  { h.takeD() }
func (h *hopTriple) relayD2() { h.relayD() }

// orderCD holds c across the three-hop path to d: edge c→d.
func (h *hopTriple) orderCD() {
	h.c.Lock()
	h.relayD2() // want "lock order cycle: acquiring lockorderfix.hopTriple.d .via call to relayD2, which takes it in takeD. while holding lockorderfix.hopTriple.c"
	h.c.Unlock()
}

// orderDC takes d then c directly, closing the cycle.
func (h *hopTriple) orderDC() {
	h.d.Lock()
	h.c.Lock() // want "lock order cycle"
	h.c.Unlock()
	h.d.Unlock()
}

type hopRec struct {
	x, y sync.Mutex
	n    int
}

// even and odd call each other; odd takes y at the bottom. even comes
// first, so its summary needs a second pass over the pair.
func (h *hopRec) even(n int) {
	if n > 0 {
		h.odd(n - 1)
	}
}

func (h *hopRec) odd(n int) {
	if n == 0 {
		h.y.Lock()
		h.n++
		h.y.Unlock()
		return
	}
	h.even(n - 1)
}

// down calls itself and reaches the same acquisition at the bottom.
func (h *hopRec) down(n int) {
	if n > 0 {
		h.down(n - 1)
		return
	}
	h.odd(0)
}

// orderXY holds x across both recursive paths to y: edges x→y.
func (h *hopRec) orderXY() {
	h.x.Lock()
	h.even(2) // want "lock order cycle: acquiring lockorderfix.hopRec.y .via call to even, which takes it in odd."
	h.down(2) // want "lock order cycle: acquiring lockorderfix.hopRec.y .via call to down, which takes it in odd."
	h.x.Unlock()
}

// orderYX takes y then x directly, closing the cycle.
func (h *hopRec) orderYX() {
	h.y.Lock()
	h.x.Lock() // want "lock order cycle"
	h.x.Unlock()
	h.y.Unlock()
}

// relock re-enters itself while holding mu: an edge through a callee is
// never a self-edge, so the recursion terminates with no finding.
func (h *hopRec) relock(n int) {
	h.x.Lock()
	defer h.x.Unlock()
	if n > 0 {
		h.relock(n - 1)
	}
}
