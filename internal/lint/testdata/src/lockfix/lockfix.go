// Package lockfix exercises lockcheck: no blocking operation while a
// sync.Mutex/RWMutex is held. Deliberately avoids net/http — compiling
// those from source dominates fixture runtime; the network-call arm is
// covered by the real-module run.
package lockfix

import (
	"context"
	"sync"
	"time"

	"burstlink/internal/par"
)

type store struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	state int
}

func compute(int) int { return 0 }

// okLockAroundCompute holds the lock only for memory work.
func (s *store) okLockAroundCompute() {
	s.mu.Lock()
	s.state = compute(s.state)
	s.mu.Unlock()
}

// okUnlockBeforeSend releases before touching the channel.
func (s *store) okUnlockBeforeSend(ch chan int) {
	s.mu.Lock()
	v := s.state
	s.mu.Unlock()
	ch <- v
}

// okNonBlockingSelect may touch channels under the lock: the default
// clause makes every comm non-blocking by construction.
func (s *store) okNonBlockingSelect(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- s.state:
	default:
	}
}

// okConditionalLock merges to unheld: the send is only sometimes under
// the lock as written, and the join is an intersection.
func (s *store) okConditionalLock(ch chan int, locked bool) {
	if locked {
		s.mu.Lock()
		s.mu.Unlock()
	}
	ch <- s.state
}

// badSendUnderLock stalls every contender until someone reads ch.
func (s *store) badSendUnderLock(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- s.state // want "channel send while holding s.mu"
}

// badRecvUnderDeferredUnlock: defer keeps the section open to exit.
func (s *store) badRecvUnderDeferredUnlock(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = <-ch // want "channel receive while holding s.mu"
}

// badRangeChanUnderRLock parks every writer behind a reader.
func (s *store) badRangeChanUnderRLock(ch chan int) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	for v := range ch { // want "range over channel while holding s.rw"
		s.state = v
	}
}

// badSleepUnderLock is the classic slow-holder.
func (s *store) badSleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding s.mu"
	s.mu.Unlock()
}

// badGateUnderLock waits for an admission slot with the lock held:
// admission backpressure becomes lock contention.
func (s *store) badGateUnderLock(ctx context.Context, g *par.Gate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return g.Acquire(ctx) // want "Gate.Acquire .blocks for an admission slot. while holding s.mu"
}

// badWaitUnderLock joins goroutines that may need the lock to finish.
func (s *store) badWaitUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait while holding s.mu"
	s.mu.Unlock()
}

// badDoubleLock self-deadlocks.
func (s *store) badDoubleLock() {
	s.mu.Lock()
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	s.mu.Unlock()
}

// recvForever is the helper body the interprocedural arm summarizes.
func recvForever(ch chan int) int {
	return <-ch
}

// badBlockingHelperUnderLock blocks one call level down.
func (s *store) badBlockingHelperUnderLock(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = recvForever(ch) // want "call to recvForever .its body receives from a channel. while holding s.mu"
}
