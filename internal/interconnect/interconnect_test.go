package interconnect

import (
	"testing"
	"time"

	"burstlink/internal/dram"
	"burstlink/internal/units"
)

// slowSink consumes at a fixed latency per call.
type slowSink struct {
	name    string
	latency time.Duration
	got     units.ByteSize
}

func (s *slowSink) Name() string { return s.name }
func (s *slowSink) Accept(n units.ByteSize) time.Duration {
	s.got += n
	return s.latency
}

func TestFabricCarryTiming(t *testing.T) {
	f := NewFabric(units.GBps(25))
	sink := &slowSink{name: "dc"}
	p2p := NewP2PEngine("vd", f)
	d := p2p.Send(sink, 25*units.MB)
	if d < 990*time.Microsecond || d > 1010*time.Microsecond {
		t.Fatalf("25MB over 25GB/s = %v, want ~1ms", d)
	}
	if sink.got != 25*units.MB {
		t.Fatalf("sink received %v", sink.got)
	}
	if f.moved != 25*units.MB || p2p.Moved() != 25*units.MB {
		t.Fatal("accounting wrong")
	}
}

func TestP2PBackpressure(t *testing.T) {
	f := NewFabric(units.GBps(25))
	sink := &slowSink{name: "dc", latency: 10 * time.Millisecond}
	p2p := NewP2PEngine("vd", f)
	if d := p2p.Send(sink, units.KB); d != 10*time.Millisecond {
		t.Fatalf("duration = %v, want sink-bound 10ms", d)
	}
}

func TestDMAAvoidsVsUsesDRAM(t *testing.T) {
	f := DefaultFabric()
	mem := dram.NewDevice(dram.DefaultLPDDR3())
	dma := NewDMAEngine("vd", f, mem)

	frame := units.R4K.FrameSize(24)
	dma.WriteMem(frame)
	dma.ReadMem(frame)
	r, w := mem.Traffic()
	if r != frame || w != frame {
		t.Fatalf("DRAM traffic = %v/%v, want one frame each way", r, w)
	}
	if dma.toMem != frame || dma.fromMem != frame {
		t.Fatalf("DMA accounting = %v/%v", dma.toMem, dma.fromMem)
	}

	// The same frame via P2P leaves DRAM untouched — the heart of Frame
	// Buffer Bypass.
	p2p := NewP2PEngine("vd", f)
	p2p.Send(&slowSink{name: "dc"}, frame)
	r2, w2 := mem.Traffic()
	if r2 != r || w2 != w {
		t.Fatal("P2P transfer must not touch DRAM")
	}
}

func TestDMADurationBoundedByDRAM(t *testing.T) {
	// A fabric much faster than DRAM: duration must be DRAM-bound.
	f := NewFabric(units.GBps(100))
	mem := dram.NewDevice(dram.DefaultLPDDR3()) // 14.9 GB/s
	dma := NewDMAEngine("vd", f, mem)
	d := dma.WriteMem(149 * units.MB) // 10ms at 14.9 GB/s
	if d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("duration = %v, want DRAM-bound ~10ms", d)
	}
}

func TestCSRFlags(t *testing.T) {
	csr := NewCSRFile("vd")
	if csr.Flag("single_video") {
		t.Fatal("reset value should be false")
	}
	csr.SetFlag("single_video", true)
	if !csr.Flag("single_video") {
		t.Fatal("flag did not set")
	}
	csr.SetFlag("single_video", false)
	if csr.Flag("single_video") {
		t.Fatal("flag did not clear")
	}
}

// Increment and Decrement are the counter-register idiom a driver uses
// to track running video applications (§4.4); the selector writes the
// count directly, so only this test keeps them.
func (c *CSRFile) Increment(name string) uint64 {
	c.regs[name]++
	return c.regs[name]
}

func (c *CSRFile) Decrement(name string) uint64 {
	if c.regs[name] > 0 {
		c.regs[name]--
	}
	return c.regs[name]
}

func TestCSRCounters(t *testing.T) {
	csr := NewCSRFile("vd")
	if got := csr.Increment("apps"); got != 1 {
		t.Fatalf("increment = %d", got)
	}
	csr.Increment("apps")
	if got := csr.Decrement("apps"); got != 1 {
		t.Fatalf("decrement = %d", got)
	}
	csr.Decrement("apps")
	if got := csr.Decrement("apps"); got != 0 {
		t.Fatalf("decrement should saturate at 0, got %d", got)
	}
}

func TestCSRReadWrite(t *testing.T) {
	csr := NewCSRFile("dc")
	csr.Write("SR02", 0xbeef)
	if csr.Read("SR02") != 0xbeef {
		t.Fatal("register round-trip failed")
	}
	if csr.Read("GRX") != 0 {
		t.Fatal("unwritten register should read zero")
	}
	if csr.String() != "CSR[dc]" {
		t.Fatalf("String = %q", csr.String())
	}
}
