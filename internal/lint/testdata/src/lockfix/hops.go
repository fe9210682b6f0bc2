package lockfix

import "time"

// The hop cases: a blocking operation two and three calls below the
// locked call, and recursion that reaches one.

// sendOne is the body that blocks.
func sendOne(ch chan int) { ch <- 1 }

// relaySend and relaySend2 forward to it, one and two calls up.
func relaySend(ch chan int)  { sendOne(ch) }
func relaySend2(ch chan int) { relaySend(ch) }

// badTwoHops blocks two calls below the locked call site.
func (s *store) badTwoHops(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	relaySend(ch) // want "call to relaySend via sendOne .its body sends on a channel. while holding s.mu"
}

// badThreeHops blocks three calls below.
func (s *store) badThreeHops(ch chan int) {
	s.mu.Lock()
	relaySend2(ch) // want "call to relaySend2 via sendOne .its body sends on a channel. while holding s.mu"
	s.mu.Unlock()
}

// ping and pong call each other; pong sleeps at the bottom. ping comes
// first, so its summary needs a second pass over the pair.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	if n == 0 {
		time.Sleep(time.Millisecond)
		return
	}
	ping(n - 1)
}

// badMutualRecursion reaches the sleep through the recursive pair.
func (s *store) badMutualRecursion() {
	s.mu.Lock()
	ping(3) // want "call to ping via pong .its body calls time.Sleep. while holding s.mu"
	s.mu.Unlock()
}

// countdown calls itself and sends at the bottom.
func countdown(ch chan int, n int) {
	if n > 0 {
		countdown(ch, n-1)
		return
	}
	sendOne(ch)
}

// badSelfRecursion reaches the send through the self-recursive helper.
func (s *store) badSelfRecursion(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	countdown(ch, 3) // want "call to countdown via sendOne .its body sends on a channel. while holding s.mu"
}

// depth recurses without ever blocking.
func depth(n int) int {
	if n == 0 {
		return 0
	}
	return depth(n-1) + 1
}

// okPureRecursion calls a recursive helper that cannot block: clean.
func (s *store) okPureRecursion() {
	s.mu.Lock()
	s.state = depth(4)
	s.mu.Unlock()
}
