// Package stream models the buffering stage of video streaming (§2.4):
// the network IP receives encoded frames at a fluctuating bandwidth and
// the application buffers them in DRAM so decode never starves — "the
// buffering process enables the system to tolerate network bandwidth
// fluctuation and reduce the number of storage accesses".
//
// The model is functional: a Source produces encoded-frame arrivals on
// the virtual clock from a bandwidth trace, and a JitterBuffer absorbs
// them, reporting prebuffer time, occupancy, and underruns. The pipeline
// uses it to size the encoded-stream staging buffer (❶ in Fig 2) and to
// justify the C0-phase prefetch in the bypass schedulers.
package stream

import (
	"fmt"
	"time"

	"burstlink/internal/units"
)

// BandwidthTrace returns the instantaneous network bandwidth at time t.
type BandwidthTrace func(t time.Duration) units.DataRate

// ConstantBandwidth returns a flat trace.
func ConstantBandwidth(r units.DataRate) BandwidthTrace {
	return func(time.Duration) units.DataRate { return r }
}

// Source delivers encoded frames over the modeled network.
type Source struct {
	trace BandwidthTrace
	// step is the integration step for bandwidth accumulation.
	step time.Duration
}

// NewSource builds a source over the given bandwidth trace.
func NewSource(trace BandwidthTrace) *Source {
	return &Source{trace: trace, step: time.Millisecond}
}

// DeliveryTime integrates the bandwidth trace from start until size bytes
// have arrived, returning the arrival completion time. It fails if the
// transfer cannot finish within horizon.
func (s *Source) DeliveryTime(start time.Duration, size units.ByteSize, horizon time.Duration) (time.Duration, error) {
	remaining := float64(size.Bits())
	t := start
	for remaining > 0 {
		if t-start > horizon {
			return 0, fmt.Errorf("stream: %v not delivered within %v", size, horizon)
		}
		bw := float64(s.trace(t))
		remaining -= bw * s.step.Seconds()
		t += s.step
	}
	return t, nil
}

// JitterBuffer is the encoded-frame staging buffer in DRAM (❶ in Fig 2).
type JitterBuffer struct {
	capacity units.ByteSize
	occupied units.ByteSize
	frames   int

	underruns int
	overflows int
	peak      units.ByteSize
}

// NewJitterBuffer allocates a buffer of the given capacity.
func NewJitterBuffer(capacity units.ByteSize) *JitterBuffer {
	return &JitterBuffer{capacity: capacity}
}

// Push stores one encoded frame; a frame beyond capacity is dropped and
// counted as an overflow.
func (b *JitterBuffer) Push(size units.ByteSize) bool {
	if b.occupied+size > b.capacity {
		b.overflows++
		return false
	}
	b.occupied += size
	b.frames++
	if b.occupied > b.peak {
		b.peak = b.occupied
	}
	return true
}

// Pop removes one frame of the given size for decode; popping from an
// empty buffer records an underrun (a visible stall).
func (b *JitterBuffer) Pop(size units.ByteSize) bool {
	if b.frames == 0 || b.occupied < size {
		b.underruns++
		return false
	}
	b.occupied -= size
	b.frames--
	return true
}

// Stats summarizes buffer behaviour.
type Stats struct {
	Underruns, Overflows, Frames int
	Peak                         units.ByteSize
}

// Stats returns the counters. Frames is the current queued count.
func (b *JitterBuffer) Stats() Stats {
	return Stats{Underruns: b.underruns, Overflows: b.overflows, Frames: b.frames, Peak: b.peak}
}

// SimulateStreaming plays a stream of frameCount encoded frames of
// frameSize each, arriving over src and consumed at the video frame rate
// after prebuffering prebuf frames. It returns the buffer statistics —
// the experiment behind the paper's observation that buffering tolerates
// bandwidth fluctuation.
func SimulateStreaming(src *Source, buf *JitterBuffer, frameSize units.ByteSize, frameCount int, fps units.FPS, prebuf int) (Stats, error) {
	if fps <= 0 || frameCount <= 0 {
		return Stats{}, fmt.Errorf("stream: invalid parameters")
	}
	interval := fps.FrameInterval()
	horizon := time.Duration(frameCount+1) * interval * 10

	// Arrival process.
	arrivals := make([]time.Duration, frameCount)
	t := time.Duration(0)
	for i := range arrivals {
		var err error
		t, err = src.DeliveryTime(t, frameSize, horizon)
		if err != nil {
			return Stats{}, err
		}
		arrivals[i] = t
	}
	// Consumption starts once prebuf frames have arrived.
	if prebuf < 1 {
		prebuf = 1
	}
	if prebuf > frameCount {
		prebuf = frameCount
	}
	playStart := arrivals[prebuf-1]

	ai := 0
	for f := 0; f < frameCount; f++ {
		deadline := playStart + time.Duration(f)*interval
		for ai < frameCount && arrivals[ai] <= deadline {
			if !buf.Push(frameSize) {
				// Flow control: a full buffer pauses the download (the
				// client stops fetching) rather than dropping frames.
				break
			}
			ai++
		}
		buf.Pop(frameSize)
	}
	return buf.Stats(), nil
}
