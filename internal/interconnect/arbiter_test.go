package interconnect

import (
	"fmt"
	"math"
	"testing"
	"time"

	"burstlink/internal/units"
)

func TestArbiterSingleFlowFullBandwidth(t *testing.T) {
	a := NewArbiter(NewFabric(units.GBps(10)))
	if err := a.Begin(Flow{Name: "vd", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	bw, err := a.EffectiveBandwidth("vd")
	if err != nil {
		t.Fatal(err)
	}
	if bw != units.GBps(10) {
		t.Fatalf("single flow bw = %v, want full fabric", bw)
	}
}

func TestArbiterEqualSharing(t *testing.T) {
	a := NewArbiter(NewFabric(units.GBps(10)))
	a.Begin(Flow{Name: "vd", Weight: 1})
	a.Begin(Flow{Name: "isp", Weight: 1})
	bw, _ := a.EffectiveBandwidth("vd")
	if math.Abs(float64(bw-units.GBps(5))) > 1 {
		t.Fatalf("contended bw = %v, want half", bw)
	}
	// Ending the second flow restores full bandwidth.
	if err := a.End("isp"); err != nil {
		t.Fatal(err)
	}
	bw, _ = a.EffectiveBandwidth("vd")
	if bw != units.GBps(10) {
		t.Fatalf("bw after contention = %v", bw)
	}
}

func TestArbiterWeights(t *testing.T) {
	a := NewArbiter(NewFabric(units.GBps(12)))
	a.Begin(Flow{Name: "display", Weight: 3}) // display traffic is latency-critical
	a.Begin(Flow{Name: "camera", Weight: 1})
	d, _ := a.EffectiveBandwidth("display")
	c, _ := a.EffectiveBandwidth("camera")
	if math.Abs(float64(d-units.GBps(9))) > 1 || math.Abs(float64(c-units.GBps(3))) > 1 {
		t.Fatalf("weighted shares = %v / %v, want 9 / 3 GB/s", d, c)
	}
}

func TestArbiterTransferTime(t *testing.T) {
	f := NewFabric(units.GBps(10))
	a := NewArbiter(f)
	a.Begin(Flow{Name: "vd", Weight: 1})
	a.Begin(Flow{Name: "isp", Weight: 1})
	// 50 MB at a 5 GB/s share = 10 ms.
	d, err := a.TransferTime("vd", 50*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if d < 9900*time.Microsecond || d > 10100*time.Microsecond {
		t.Fatalf("transfer = %v, want ~10ms", d)
	}
	if f.moved != 50*units.MB {
		t.Fatal("fabric accounting missing")
	}
}

func TestArbiterLifecycleErrors(t *testing.T) {
	a := NewArbiter(DefaultFabric())
	if err := a.Begin(Flow{Name: "x", Weight: 0}); err == nil {
		t.Fatal("zero weight should fail")
	}
	a.Begin(Flow{Name: "x", Weight: 1})
	if err := a.Begin(Flow{Name: "x", Weight: 1}); err == nil {
		t.Fatal("double begin should fail")
	}
	if err := a.End("y"); err == nil {
		t.Fatal("ending unknown flow should fail")
	}
	if _, err := a.EffectiveBandwidth("y"); err == nil {
		t.Fatal("bandwidth of unknown flow should fail")
	}
	if _, err := a.TransferTime("y", units.KB); err == nil {
		t.Fatal("transfer of unknown flow should fail")
	}
	if a.ActiveFlows() != 1 {
		t.Fatalf("active = %d", a.ActiveFlows())
	}
}

// The IO-fabric arbiter below is test-only: no binary, figure or
// benchmark shares the fabric between flows, and these tests are its only
// callers.

// Flow is one IP's traffic stream through the fabric.
type Flow struct {
	Name string
	// Weight sets the share under contention (IOSF-class fabrics use
	// per-agent arbitration weights).
	Weight int
}

// Arbiter shares the fabric between concurrent flows with weighted fair
// bandwidth allocation: while n flows are active, each receives
// weight_i / Σ weights of the fabric's sustained bandwidth. The paper's
// video-display scenario keeps a single flow active (which is why the
// analytic model ignores contention), but the capture and windowed paths
// can overlap flows, and the arbiter quantifies the slowdown.
type Arbiter struct {
	fabric *Fabric
	active map[string]int
}

// NewArbiter wraps a fabric.
func NewArbiter(f *Fabric) *Arbiter {
	return &Arbiter{fabric: f, active: make(map[string]int)}
}

// Begin registers a flow as active. Re-registering an active flow is an
// error (flows are single-stream per IP).
func (a *Arbiter) Begin(f Flow) error {
	if f.Weight <= 0 {
		return fmt.Errorf("interconnect: flow %q with non-positive weight", f.Name)
	}
	if _, ok := a.active[f.Name]; ok {
		return fmt.Errorf("interconnect: flow %q already active", f.Name)
	}
	a.active[f.Name] = f.Weight
	return nil
}

// End deregisters a flow.
func (a *Arbiter) End(name string) error {
	if _, ok := a.active[name]; !ok {
		return fmt.Errorf("interconnect: flow %q not active", name)
	}
	delete(a.active, name)
	return nil
}

// ActiveFlows returns the number of concurrently active flows.
func (a *Arbiter) ActiveFlows() int { return len(a.active) }

// EffectiveBandwidth returns the bandwidth currently granted to the
// named flow.
func (a *Arbiter) EffectiveBandwidth(name string) (units.DataRate, error) {
	w, ok := a.active[name]
	if !ok {
		return 0, fmt.Errorf("interconnect: flow %q not active", name)
	}
	total := 0
	for _, weight := range a.active {
		total += weight
	}
	return units.DataRate(float64(a.fabric.bandwidth) * float64(w) / float64(total)), nil
}

// TransferTime returns the time for the named flow to move n bytes at its
// current share, accounting the traffic on the fabric.
func (a *Arbiter) TransferTime(name string, n units.ByteSize) (time.Duration, error) {
	bw, err := a.EffectiveBandwidth(name)
	if err != nil {
		return 0, err
	}
	a.fabric.carry(n)
	return bw.TimeFor(n), nil
}
