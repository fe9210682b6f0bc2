// Package handoverfix exercises lockorder on hand-over-hand locking:
// n.mu and n.next.mu share one field key but are two instances, so the
// self-edge is reported as two instances held at once, not as a
// self-deadlock.
package handoverfix

import "sync"

type node struct {
	mu   sync.Mutex
	next *node
}

func (n *node) handOverHand() {
	n.mu.Lock()
	n.next.mu.Lock() // want "two instances of handoverfix.node.mu held at once .n.mu, then n.next.mu."
	n.mu.Unlock()
	n.next.mu.Unlock()
}

// reacquire re-locks the same expression: still the self-deadlock.
func (n *node) reacquire() {
	n.mu.Lock()
	n.mu.Lock() // want "self-deadlock"
	n.mu.Unlock()
	n.mu.Unlock()
}
