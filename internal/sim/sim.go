// Package sim provides a small discrete-event simulation engine: a virtual
// clock and an event queue ordered by time. The functional simulators'
// hardware models (DMA transfers, eDP bursts, panel scan-out, PMU state
// transitions) advance on this clock rather than wall time, which makes
// simulations deterministic and fast; they read Now and advance with
// RunUntil. The event queue (Schedule, At, Cancel, Run, Pending,
// EventsRun) serves the decoder reference model's vd.Config.Simulate.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event struct {
	At   time.Duration // virtual time at which the event fires
	Name string        // human-readable label for tracing and debugging
	Fn   func()        // action; runs with the engine clock set to At

	seq   int64 // tie-breaker: FIFO order among same-time events
	index int   // heap index; -1 once popped or cancelled
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now    time.Duration
	queue  eventQueue
	seq    int64
	events int64 // total events executed, for stats
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// EventsRun returns how many events have executed so far.
func (e *Engine) EventsRun() int64 { return e.events }

// Schedule enqueues fn to run after delay. It returns the event handle,
// which may be passed to Cancel. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) Schedule(delay time.Duration, name string, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %q %v in the past", name, delay))
	}
	ev := &Event{At: e.now + delay, Name: name, Fn: fn, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// At enqueues fn to run at an absolute virtual time, which must not be
// earlier than Now.
func (e *Engine) At(t time.Duration, name string, fn func()) *Event {
	return e.Schedule(t-e.now, name, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	return true
}

// Step runs the single earliest pending event. It reports whether an event
// was available.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	ev.index = -1
	e.now = ev.At
	e.events++
	ev.Fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with At <= deadline and then advances the clock
// to exactly deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for e.queue.Len() > 0 && e.queue[0].At <= deadline {
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }

// eventQueue is a min-heap on (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
